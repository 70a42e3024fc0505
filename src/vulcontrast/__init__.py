"""Contrastive code-text training for function-level vulnerability
detection, with code-only inference.

Importing the package runs BLAS on one thread unless the caller has set
one of `BLAS_THREAD_VARS`: a packed encoder group's matmuls are large
enough for OpenBLAS to split, and on a busy 2-core host its threads wait
on each other (see README). The variables reach a BLAS loaded
later; an OpenBLAS numpy already loaded is set through its own setter.
"""

import ctypes
import os

__version__ = "0.1.0"

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
# The thread setter's name in numpy's own OpenBLAS builds and in a plain one.
_OPENBLAS_SET_THREADS = ("scipy_openblas_set_num_threads64_",
                         "scipy_openblas_set_num_threads",
                         "openblas_set_num_threads64_",
                         "openblas_set_num_threads")


def loaded_openblas():
    """The OpenBLAS libraries mapped into this process, as `ctypes.CDLL`s;
    none where `/proc/self/maps` cannot be read."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {fields[5] for fields in
                     (line.rstrip("\n").split(maxsplit=5) for line in maps)
                     if len(fields) == 6
                     and "openblas" in os.path.basename(fields[5])}
    except OSError:
        return []
    libs = []
    for path in sorted(paths):
        try:
            libs.append(ctypes.CDLL(path))
        except OSError:
            pass
    return libs


def _pin_blas_threads():
    if any(var in os.environ for var in BLAS_THREAD_VARS):
        return
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    for lib in loaded_openblas():
        for name in _OPENBLAS_SET_THREADS:
            if hasattr(lib, name):
                getattr(lib, name)(1)
                break


_pin_blas_threads()
