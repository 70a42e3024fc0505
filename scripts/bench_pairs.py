#!/usr/bin/env python3
"""Run the benchmark in alternating parent/change pairs and record them.

    python3 scripts/bench_pairs.py HEAD no_grad --seeds 101 102 103 \
        --seconds 30

Unpacks the parent revision with `git archive` into a temporary
directory. For each seed it runs `perfbench/run.py --workload all` once on
the parent and once on the working tree, alternating which side runs
first, so that a drift in the host's speed falls on both sides alike.
Then it writes, at the repository root:

- `BENCH_<label>.json`: every run's last JSON line and exit code (and,
  for a failed run, the last 20 lines of its stderr, which is also
  echoed live), each side's median and quartiles per metric, and each
  side's environment;
- `BENCH_baseline.json`: the parent side alone, in the same form.

It also prints each change-side train-full `records_per_s` against the
held-out gate, `TrainConfig().epochs` x the training records / `--seconds`
(about 106.7 records/s at 30 s), and stores the gate in `BENCH_<label>.json`.
At or above the gate, a train-full `train()` call can finish all its epochs
within the budget, and then the workload checks held-out F1, which some
fixture seeds fail (see `scripts/held_out_seeds.py`); it warns when a run
crosses the gate. The exit code is 1 if any run failed a correctness check.
"""

from __future__ import annotations

import argparse
import collections
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench.workloads import (TRAIN_FIXTURE_SIZE,  # noqa: E402
                                 TRAIN_SPLIT)
from vulcontrast.training import TrainConfig  # noqa: E402

SIDES = ("parent", "change")
TRAIN_METRIC = "train-full/records_per_s"
ENV_SNIPPET = ("import json, sys; sys.path.insert(0, '.'); "
               "from perfbench.run import environment; "
               "print(json.dumps(environment('all', {seed}, {seconds}, 0)))")


def unpack(revision, dest):
    """Extract `revision` of this repository into `dest`."""
    archive = subprocess.run(["git", "archive", revision], cwd=ROOT,
                             stdout=subprocess.PIPE, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def run_bench(root, seed, seconds):
    """One `--workload all` run in `root`: its last JSON line as `result`,
    its `exit_code` and, if it failed, the last 20 lines of its stderr,
    which is echoed live as it runs."""
    tail = collections.deque(maxlen=20)
    with tempfile.TemporaryFile("w+") as out:
        proc = subprocess.Popen(
            [sys.executable, "perfbench/run.py", "--workload", "all",
             "--seed", str(seed), "--seconds", str(seconds)],
            cwd=root, stdout=out, stderr=subprocess.PIPE, text=True)
        for line in proc.stderr:
            sys.stderr.write(line)
            tail.append(line.rstrip("\n"))
        code = proc.wait()
        out.seek(0)
        lines = out.read().strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):  # no output, or it stopped mid-run
        result = {"correct": False}
    result["correct"] = bool(result.get("correct")) and code == 0
    entry = {"result": result, "exit_code": code}
    if not result["correct"]:
        entry["stderr_tail"] = list(tail)
    return entry


def environment(root, seed, seconds):
    out = subprocess.run(
        [sys.executable, "-c", ENV_SNIPPET.format(seed=seed,
                                                  seconds=seconds)],
        cwd=root, stdout=subprocess.PIPE, text=True, check=True).stdout
    return json.loads(out)


def summarize(results):
    """Per metric: median, first and third quartile over the runs."""
    values = {}
    for result in results:
        for key, metric in result.get("metrics", {}).items():
            values.setdefault(key, []).append(metric["value"])
    summary = {}
    for key, vals in sorted(values.items()):
        q1, median, q3 = (statistics.quantiles(vals, n=4, method="inclusive")
                          if len(vals) > 1 else vals * 3)
        summary[key] = {"median": median, "q1": q1, "q3": q3, "n": len(vals)}
    return summary


def side_record(runs, side, revision, env):
    results = [r["result"] for r in runs if r["side"] == side]
    return {"revision": revision if side == "parent" else "working tree",
            "environment": env,
            "summary": summarize(results),
            "failed": sum(r.get("failed", 0) for r in results),
            "all_correct": all(r["correct"] for r in results)}


def held_out_gate(seconds):
    """The train-full `records_per_s` at which a `train()` call finishes
    all its epochs within `seconds`, so that held-out F1 gets checked."""
    records = round(TRAIN_FIXTURE_SIZE * TRAIN_SPLIT[0])
    return TrainConfig().epochs * records / seconds


def gate_note(result, gate):
    """A change-side run's train-full rate against `gate`, with a warning
    at or above it."""
    rate = result.get("metrics", {}).get(TRAIN_METRIC, {}).get("value")
    if rate is None:
        return "no train-full rate"
    warning = "  WARNING: held-out F1 is checked" if rate >= gate else ""
    return (f"train-full {rate:.1f} records/s against the held-out gate "
            f"{gate:.1f}{warning}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="git revision of the parent side")
    ap.add_argument("label", help="names the output file BENCH_<label>.json")
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    args = ap.parse_args(argv)

    revision = subprocess.run(["git", "rev-parse", args.parent], cwd=ROOT,
                              stdout=subprocess.PIPE, text=True,
                              check=True).stdout.strip()
    gate = held_out_gate(args.seconds)
    runs = []
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        roots = {"parent": Path(tmp), "change": ROOT}
        unpack(revision, roots["parent"])
        envs = {side: environment(roots[side], args.seeds[0], args.seconds)
                for side in SIDES}
        for i, seed in enumerate(args.seeds):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for position, side in enumerate(order):
                entry = run_bench(roots[side], seed, args.seconds)
                runs.append({"seed": seed, "side": side,
                             "position": position, **entry})
                result = entry["result"]
                print(f"seed {seed} {side}: correct={result['correct']} "
                      f"exit={entry['exit_code']} "
                      f"failed={result.get('failed')}", file=sys.stderr)
                if side == "change":
                    print(f"seed {seed} change: {gate_note(result, gate)}",
                          file=sys.stderr)

    common = {"parent": revision, "seeds": args.seeds,
              "seconds": args.seconds,
              "command": "python3 perfbench/run.py --workload all"}
    report = dict(common, label=args.label, held_out_gate=gate, runs=runs,
                  sides={side: side_record(runs, side, revision, envs[side])
                         for side in SIDES})
    baseline = dict(common, label="baseline",
                    runs=[r for r in runs if r["side"] == "parent"],
                    sides={"parent": report["sides"]["parent"]})
    for name, obj in ((f"BENCH_{args.label}.json", report),
                      ("BENCH_baseline.json", baseline)):
        (ROOT / name).write_text(json.dumps(obj, indent=1) + "\n")
    return 0 if all(r["result"]["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
