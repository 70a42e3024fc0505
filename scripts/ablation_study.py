#!/usr/bin/env python3
"""Train the full objective and its three ablations on the synthetic
corpus and print a comparison table of held-out metrics.

Ablations: no augmented-view alignment, no consistency regularizer, and
classification-only fine-tuning.
"""

import argparse
import time

from vulcontrast.comments import ProviderConfig, attach_comments
from vulcontrast.data import stratified_split
from vulcontrast.evaluation import compute_metrics, predict
from vulcontrast.fixtures import generate_fixture
from vulcontrast.losses import LossWeights
from vulcontrast.training import TrainConfig, train

VARIANTS = [
    ("full objective", {}),
    ("no aug alignment", {"weights": LossWeights(clip_aug=0.0)}),
    ("no consistency", {"weights": LossWeights(consistency=0.0)}),
    ("fine-tuning only", {"fine_tuning_only": True}),
]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=400)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--epochs", type=int, default=10)
    args = parser.parse_args()

    records = generate_fixture(n=args.count, seed=13)
    records, _ = attach_comments(records, ProviderConfig())
    train_r, val_r, test_r = stratified_split(records, [0.8, 0.1, 0.1],
                                              seed=args.seed)

    print(f"{'variant':<20} {'acc':>7} {'prec':>7} {'rec':>7} {'f1':>7} "
          f"{'time':>7}")
    for name, overrides in VARIANTS:
        config = TrainConfig(seed=args.seed, epochs=args.epochs, **overrides)
        t0 = time.perf_counter()
        result, _ = train(train_r, val_r, config)
        elapsed = time.perf_counter() - t0
        preds = predict(result.model, test_r, result.code_vocab)
        m = compute_metrics(preds).to_json_obj()
        print(f"{name:<20} {m['accuracy']:>7.2f} {m['precision']:>7.2f} "
              f"{m['recall']:>7.2f} {m['f1']:>7.2f} {elapsed:>6.1f}s")


if __name__ == "__main__":
    main()
