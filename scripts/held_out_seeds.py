#!/usr/bin/env python3
"""Train-full's convergence checks at the criterion-6 config, per fixture seed.

    python3 scripts/held_out_seeds.py              # the ledger: LEDGER_SEEDS
    python3 scripts/held_out_seeds.py 1001 1002    # these seeds, printed only

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
model gives a held-out function (a narrow band around 0.5 means that F1
turns on tiny margins), and, per objective, the first epoch (counted from
0) after which the model of that epoch scores held-out F1 >= 0.95, which
measures how fast training converges.

Run with no seeds, it runs `LEDGER_SEEDS` and also writes every value to
`RESULTS_seeds.json` at the repository root. The exit code is 1 if any
seed misses any bar. Each seed takes about 20 s on a 2-core host.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

sys.path[:0] = [str(ROOT), str(ROOT / "src")]

import numpy as np  # noqa: E402

from perfbench.workloads import (HELD_OUT_F1_MIN,  # noqa: E402
                                 LOSS_DROP_MIN, TRAIN_MIN_EPOCHS,
                                 TRAIN_MODEL_SEED, train_setup)
from vulcontrast import evaluation, training  # noqa: E402

FINE_TUNING_F1_MIN = 0.90   # criterion 6, fine-tuning only
RESULTS = ROOT / "RESULTS_seeds.json"
# the 47 seeds of the learning-rate scan, then 6001 and 8001-8009
LEDGER_SEEDS = (list(range(6)) + [13] + list(range(1001, 1011))
                + list(range(2001, 2011)) + list(range(5001, 5021))
                + [6001] + list(range(8001, 8010)))


def held_out(state, fine_tuning_only):
    """Held-out F1 after a full `train()` call, the per-epoch mean total
    losses, the held-out probabilities, and the first epoch whose model
    scores held-out F1 >= HELD_OUT_F1_MIN (None if none does)."""
    config = training.TrainConfig(seed=TRAIN_MODEL_SEED,
                                  fine_tuning_only=fine_tuning_only)
    code_vocab = training.build_vocab(state.train, "code", config.vocab_size)
    model_cls, models, per_epoch = training.DualEncoderModel, [], []

    def capture_model(*args, **kwargs):
        models.append(model_cls(*args, **kwargs))
        return models[-1]

    def progress(epoch, log):
        preds = evaluation.predict(models[-1], state.test, code_vocab)
        per_epoch.append(evaluation.compute_metrics(preds).f1)

    training.DualEncoderModel = capture_model
    try:
        result, _ = training.train(state.train, state.validation, config,
                                   progress=progress)
    finally:
        training.DualEncoderModel = model_cls
    preds = evaluation.predict(result.model, state.test, result.code_vocab)
    losses = [statistics.fmean(bd.total for _, bd, _ in log.steps)
              for log in result.epoch_logs]
    probs = [p.probability for p in preds.predictions]
    first = next((e for e, f1 in enumerate(per_epoch)
                  if f1 >= HELD_OUT_F1_MIN), None)
    return evaluation.compute_metrics(preds).f1, losses, probs, first


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seeds", nargs="*", type=int, metavar="SEED",
                        help="fixture seeds, as perfbench/run.py --seed "
                        "(default: the ledger's, written to "
                        f"{RESULTS.name})")
    args = parser.parse_args(argv)
    seeds = args.seeds or LEDGER_SEEDS
    bars = (("full F1", HELD_OUT_F1_MIN), ("fine-tuning F1",
                                           FINE_TUNING_F1_MIN),
            (f"{TRAIN_MIN_EPOCHS}-epoch drop", LOSS_DROP_MIN))
    missed = {name: [] for name, _ in bars}
    rows = []
    print(f"{'seed':>6}" + "".join(f"  {name:>14}" for name, _ in bars)
          + f"  {'full p min':>10}  {'full p max':>10}  {'full at':>7}"
          f"  {'ft at':>5}  {'seconds':>7}")
    for seed in seeds:
        t0 = time.perf_counter()
        state = train_setup(seed)
        full, losses, probs, full_at = held_out(state, False)
        tuned, _, _, tuned_at = held_out(state, True)
        drop = 1.0 - losses[TRAIN_MIN_EPOCHS - 1] / losses[0]
        line, marks = f"{seed:>6}", []
        for (name, bar), value in zip(bars, (full, tuned, drop)):
            line += f"  {value:>14.3f}"
            if value < bar:
                missed[name].append(seed)
                marks.append(f"{name} below {bar}")
        print(f"{line}  {min(probs):>10.4f}  {max(probs):>10.4f}  "
              f"{str(full_at):>7}  {str(tuned_at):>5}  "
              f"{time.perf_counter() - t0:>7.1f}  {'; '.join(marks)}",
              flush=True)
        rows.append({
            "seed": seed, "full_f1": full, "fine_tuning_f1": tuned,
            "loss_drop": drop, "meets_all_bars": not marks,
            "full_p_min": min(probs), "full_p_max": max(probs),
            "full_first_epoch_at_f1": full_at,
            "fine_tuning_first_epoch_at_f1": tuned_at})
    for name, bar in bars:
        print(f"{name}: {len(missed[name])} of {len(seeds)} seeds "
              f"below {bar}: {missed[name]}")
    if not args.seeds:
        RESULTS.write_text(json.dumps({
            "bars": {"full_f1": HELD_OUT_F1_MIN,
                     "fine_tuning_f1": FINE_TUNING_F1_MIN,
                     "loss_drop": LOSS_DROP_MIN,
                     "loss_drop_epochs": TRAIN_MIN_EPOCHS,
                     "first_epoch_at_f1": HELD_OUT_F1_MIN},
            "environment": {"python": platform.python_version(),
                            "numpy": np.__version__},
            "missed": missed,
            "seeds": rows}, indent=1) + "\n")
        print(f"wrote {len(rows)} seeds to {RESULTS}")
    return 1 if any(missed.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
