"""Importing `vulcontrast` runs BLAS on one thread unless the caller has
chosen a thread count, whether numpy was imported first or not."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import vulcontrast

SRC = Path(vulcontrast.__file__).resolve().parent.parent

PROBE = """
import json, os, sys
if sys.argv[1] == "numpy-first":
    import numpy
import vulcontrast
import numpy
GETTERS = ("scipy_openblas_get_num_threads64_",
           "scipy_openblas_get_num_threads",
           "openblas_get_num_threads64_", "openblas_get_num_threads")
threads = [next(getattr(lib, name)() for name in GETTERS
                if hasattr(lib, name))
           for lib in vulcontrast.loaded_openblas()]
print(json.dumps({"env": {var: os.environ.get(var)
                          for var in vulcontrast.BLAS_THREAD_VARS},
                  "threads": threads}))
"""


def probe(order, **env_vars):
    env = {k: v for k, v in os.environ.items()
           if k not in vulcontrast.BLAS_THREAD_VARS}
    env.update(env_vars, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", PROBE, order], env=env,
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out)


@pytest.mark.parametrize("order", ["numpy-first", "package-first"])
def test_import_pins_blas_to_one_thread(order):
    result = probe(order)
    assert result["env"] == dict.fromkeys(vulcontrast.BLAS_THREAD_VARS, "1")
    if not result["threads"]:
        pytest.skip("numpy's BLAS is not an OpenBLAS found in the memory map")
    assert result["threads"] == [1]


def test_callers_thread_count_is_left_alone():
    result = probe("numpy-first", OMP_NUM_THREADS="2")
    assert result["env"] == {"OPENBLAS_NUM_THREADS": None,
                             "OMP_NUM_THREADS": "2", "MKL_NUM_THREADS": None}
    if not result["threads"]:
        pytest.skip("numpy's BLAS is not an OpenBLAS found in the memory map")
    assert result["threads"] == [min(2, len(os.sched_getaffinity(0)))]
