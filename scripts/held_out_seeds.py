#!/usr/bin/env python3
"""Held-out F1 of the train-full benchmark's 10-epoch run, per fixture seed.

    python3 scripts/held_out_seeds.py 1001 1002 1003

For each seed it builds train-full's corpus (`perfbench.workloads.
train_setup`), runs the criterion-6 `train()` for the configured 10
epochs with `TRAIN_MODEL_SEED`, and prints the held-out F1 on the test
split. The train-full workload checks that F1 against `HELD_OUT_F1_MIN`
only when one of its `train()` calls finishes all 10 epochs within the
budget, so a faster trainer makes the check run on more seeds. The exit
code is 1 if any seed scores below the bar. Each seed takes about 45 s on
a 2-core host.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Single-threaded BLAS, as the benchmark runs it; set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench.workloads import (HELD_OUT_F1_MIN,  # noqa: E402
                                 TRAIN_MODEL_SEED, train_setup)
from vulcontrast import evaluation, training  # noqa: E402


def held_out_f1(seed):
    """Train-full's held-out F1 after a full `train()` call on `seed`."""
    state = train_setup(seed)
    config = training.TrainConfig(seed=TRAIN_MODEL_SEED)
    result, _ = training.train(state.train, state.validation, config)
    preds = evaluation.predict(result.model, state.test, result.code_vocab)
    return evaluation.compute_metrics(preds).f1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seeds", nargs="+", type=int, metavar="SEED",
                        help="fixture seeds, as perfbench/run.py --seed")
    args = parser.parse_args(argv)
    below = []
    print(f"{'seed':>6}  {'held-out F1':>11}  {'seconds':>7}")
    for seed in args.seeds:
        t0 = time.perf_counter()
        f1 = held_out_f1(seed)
        mark = "" if f1 >= HELD_OUT_F1_MIN else f"  below {HELD_OUT_F1_MIN}"
        print(f"{seed:>6}  {f1:>11.3f}  {time.perf_counter() - t0:>7.1f}"
              f"{mark}", flush=True)
        if mark:
            below.append(seed)
    print(f"{len(below)} of {len(args.seeds)} seeds below "
          f"{HELD_OUT_F1_MIN}: {below}")
    return 1 if below else 0


if __name__ == "__main__":
    sys.exit(main())
