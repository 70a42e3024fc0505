"""Benchmark entry point.

    python3 perfbench/run.py --workload train-full --seed 0 --seconds 30 \
        --trace 0

With `--trace 0` it sets the workload up repeatedly for a few seconds
(reporting the median as `setup_s`), measures for `--seconds` seconds and
prints the end-to-end metrics. With `--trace 1` it sets up once under
the tracer, measures half the budget untraced, replays exactly that work
traced, and prints the per-layer metrics with the tracing overhead
(traced minus untraced wall time of the same work). `--workload all` runs every
workload, each in a child process of its own.

Standard output ends with one JSON line: correct, attempted, failed and
metrics. The line before it records the environment and sample counts.
A human-readable table goes to standard error. The exit code is 0 only
when every correctness check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Single-threaded BLAS: the matrices are small, and a second spinning BLAS
# thread on a two-core machine mostly adds run-to-run noise. Set before
# numpy is imported; the setting is recorded with each result.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
# Set-up takes a few tenths of a second and the host's speed wanders over
# seconds, so it is repeated for a fixed time and the median reported.
SETUP_BUDGET_S = 3.0
SETUP_MIN_REPEATS = 5


def _import_program():
    if not (ROOT / "src" / "vulcontrast" / "__init__.py").is_file():
        sys.exit(f"perfbench: no vulcontrast sources under {ROOT / 'src'}")
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(workload, seed, seconds, trace):
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k, "unset") for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "machine": platform.machine(),
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@contextlib.contextmanager
def workdir():
    path = ROOT / ".bench_tmp" / str(os.getpid())
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            path.parent.rmdir()


def _close(state):
    close = getattr(state, "close", None)
    if close:
        close()


def run_untraced(wl, seed, seconds, tmp):
    setup_times = []
    state = None
    try:
        while len(setup_times) < SETUP_MIN_REPEATS or \
                sum(setup_times) < SETUP_BUDGET_S:
            _close(state)
            state = None
            t0 = time.perf_counter()
            state = wl.setup(seed, tmp)
            setup_times.append(time.perf_counter() - t0)
        m = wl.measure(state, seconds)
    finally:
        _close(state)
    m.metrics["setup_s"] = (statistics.median(setup_times), "s")
    m.metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    m.details["setup_repeats"] = len(setup_times)
    return m


def run_traced(wl, seed, seconds, tmp):
    from perfbench import tracer as tr

    t = tr.Tracer()
    state = None
    try:
        with tr.instrument(t), t.span("bench.setup"):
            state = wl.setup(seed, tmp)
        ref = wl.measure(state, seconds / 2.0, strict=False)
        with tr.instrument(t), t.span("bench.measure"):
            m = wl.measure(state, None, plan=ref.plan, strict=False)
    finally:
        _close(state)
    metrics = tr.layer_metrics(t, m.steps)
    metrics["model.text_invocations"] = (m.details["text_invocations"],
                                         "count")
    requests = m.details.get("server_requests", 0)
    metrics["comments.connections_per_request"] = (
        m.details["connections"] / requests if requests else 0.0, "ratio")
    _, selfs = t.self_times()
    roots = ("bench.setup", "bench.measure")
    metrics["trace.wall_s"] = (t.root_wall(), "s")
    metrics["trace.residual_s"] = (sum(selfs[r] for r in roots), "s")
    metrics["trace.overhead_s"] = (m.wall_s - ref.wall_s, "s")
    m.metrics = metrics
    m.named = {}
    m.details.update(untraced_wall_s=ref.wall_s, traced_wall_s=m.wall_s,
                     spans=len(t.spans),
                     aggregated_calls=sum(t.agg_calls.values()),
                     untraced_problems=ref.problems)
    m.problems += ref.problems
    return m


def run_one(name, seed, seconds, trace):
    from perfbench import workloads

    wl = workloads.WORKLOADS[name]
    with workdir() as tmp:
        if trace:
            m = run_traced(wl, seed, seconds, tmp)
        else:
            m = run_untraced(wl, seed, seconds, tmp)
    return m


def _print_table(name, result, named):
    err = sys.stderr
    print(f"== {name}: correct={result['correct']} attempted="
          f"{result['attempted']} failed={result['failed']}", file=err)
    rows = [(k, v["value"], v["unit"], "")
            for k, v in result["metrics"].items()]
    rows += [(k, v["value"], v["unit"],
              "  (" + ", ".join(f"{c}={v[c]}" for c in ("samples", "above")
                                if c in v) + ")")
             for k, v in named.items()]
    for key, value, unit, note in rows:
        print(f"  {key:40s} {value:>14.6g} {unit}{note}", file=err)


def run_all(args):
    """Run every workload in its own child process, one after another."""
    from perfbench import workloads

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=900)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {"correct": False}
        combined["correct"] &= bool(result.get("correct")) and \
            proc.returncode == 0
        combined["attempted"] += result.get("attempted", 0)
        combined["failed"] += result.get("failed", 0)
        for key, metric in result.get("metrics", {}).items():
            combined["metrics"][f"{name}/{key}"] = metric
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help="train-full, infer-mixed, comment-remote or all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # unwind on SIGTERM too, so the mock server child is stopped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    _import_program()
    from perfbench import workloads

    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}")
    m = run_one(args.workload, args.seed, args.seconds, args.trace)
    result = {
        "correct": not m.problems,
        "attempted": int(m.attempted),
        "failed": int(m.failed),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in sorted(m.metrics.items())},
    }
    env = environment(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps({"environment": env, "workload_metrics": m.named,
                      "details": m.details, "problems": m.problems}))
    _print_table(args.workload, result, m.named)
    for problem in m.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
