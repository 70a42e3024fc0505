#!/usr/bin/env python3
"""Train-full's convergence checks at the criterion-6 config, per fixture seed.

    python3 scripts/held_out_seeds.py 1001 1002 1003

For each seed it builds train-full's corpus (`perfbench.workloads.
train_setup`) and runs the criterion-6 `train()` for the configured 10
epochs with `TRAIN_MODEL_SEED`, twice: with the full objective and with
fine-tuning only. It prints, against each bar:

- the full objective's held-out F1 on the test split, against
  `HELD_OUT_F1_MIN`, which train-full checks after every `train()` call
  that finishes all 10 epochs within the budget;
- the fine-tuning-only held-out F1, against criterion 6's 0.90;
- the fall of the full objective's mean total loss from epoch 1 to epoch
  3, against `LOSS_DROP_MIN`, which train-full checks on every call of at
  least 3 epochs. The rate is constant and every draw is keyed by epoch,
  so the first 3 epochs of the 10-epoch call are exactly a 3-epoch call.

It also prints the lowest and highest probability that the full-objective
model gives a held-out function. A narrow band around 0.5 means that F1
turns on tiny margins.

The exit code is 1 if any seed misses any bar. Each seed takes about 30 s
on a 2-core host.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench.workloads import (HELD_OUT_F1_MIN,  # noqa: E402
                                 LOSS_DROP_MIN, TRAIN_MIN_EPOCHS,
                                 TRAIN_MODEL_SEED, train_setup)
from vulcontrast import evaluation, training  # noqa: E402

FINE_TUNING_F1_MIN = 0.90   # criterion 6, fine-tuning only


def held_out(state, fine_tuning_only):
    """Held-out F1 after a full `train()` call, the per-epoch mean total
    losses, and the held-out probabilities."""
    config = training.TrainConfig(seed=TRAIN_MODEL_SEED,
                                  fine_tuning_only=fine_tuning_only)
    result, _ = training.train(state.train, state.validation, config)
    preds = evaluation.predict(result.model, state.test, result.code_vocab)
    losses = [statistics.fmean(bd.total for _, bd, _ in log.steps)
              for log in result.epoch_logs]
    probs = [p.probability for p in preds.predictions]
    return evaluation.compute_metrics(preds).f1, losses, probs


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seeds", nargs="+", type=int, metavar="SEED",
                        help="fixture seeds, as perfbench/run.py --seed")
    args = parser.parse_args(argv)
    bars = (("full F1", HELD_OUT_F1_MIN), ("fine-tuning F1",
                                           FINE_TUNING_F1_MIN),
            (f"{TRAIN_MIN_EPOCHS}-epoch drop", LOSS_DROP_MIN))
    missed = {name: [] for name, _ in bars}
    print(f"{'seed':>6}" + "".join(f"  {name:>14}" for name, _ in bars)
          + f"  {'full p min':>10}  {'full p max':>10}  {'seconds':>7}")
    for seed in args.seeds:
        t0 = time.perf_counter()
        state = train_setup(seed)
        full, losses, probs = held_out(state, fine_tuning_only=False)
        tuned, _, _ = held_out(state, fine_tuning_only=True)
        drop = 1.0 - losses[TRAIN_MIN_EPOCHS - 1] / losses[0]
        line, marks = f"{seed:>6}", []
        for (name, bar), value in zip(bars, (full, tuned, drop)):
            line += f"  {value:>14.3f}"
            if value < bar:
                missed[name].append(seed)
                marks.append(f"{name} below {bar}")
        print(f"{line}  {min(probs):>10.4f}  {max(probs):>10.4f}  "
              f"{time.perf_counter() - t0:>7.1f}  {'; '.join(marks)}",
              flush=True)
    for name, bar in bars:
        print(f"{name}: {len(missed[name])} of {len(args.seeds)} seeds "
              f"below {bar}: {missed[name]}")
    return 1 if any(missed.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
