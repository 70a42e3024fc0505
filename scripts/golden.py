#!/usr/bin/env python3
"""Golden seeded outputs: one small seeded pipeline run through `cli.run`,
and the sha256 of every file it writes.

    PYTHONPATH=src python3 scripts/golden.py

reruns the pipeline in a temporary directory and rewrites
`tests/golden.json`, which `tests/test_golden.py` checks on every run of
the suite. It prints, against the file it overwrites, which files' hashes
moved, were kept, were added and were removed. A pure refactor leaves
that file untouched. A change that is meant to move seeded numbers reruns
this script, and its change notes say which hashes moved and why.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from vulcontrast.cli import run

GOLDEN = Path(__file__).resolve().parents[1] / "tests" / "golden.json"

# max_input_length = 24 cuts every fixture function, so augmented views are
# augmented before they are cut
CONFIG_NAME = "train.cfg"
CONFIG = """\
epochs = 2
batch_size = 4
learning_rate = 0.001
alpha = 0.2
embed_dim = 8
num_blocks = 1
num_heads = 2
ff_dim = 16
proj_dim = 4
vocab_size = 64
max_input_length = 24
"""

_TEST = "part.test.jsonl"

# Paths are relative, because `stats` and `eval` write their --input into
# their output.
COMMANDS = [
    ["make-fixture", "--count", "48", "--seed", "7",
     "--output", "corpus.jsonl"],
    ["split", "--input", "corpus.jsonl", "--seed", "1",
     "--fractions", "0.5/0.25/0.25", "--output-prefix", "part"],
    ["stats", "--input", "corpus.jsonl", "--output", "stats.json"],
    ["comment", "--input", "part.train.jsonl",
     "--output", "train.commented.jsonl"],
    ["augment", "--input", "train.commented.jsonl", "--output", "aug.jsonl",
     "--alpha", "0.2", "--seed", "3"],
    ["train", "--train", "train.commented.jsonl", "--val", "part.val.jsonl",
     "--config", CONFIG_NAME, "--seed", "5", "--checkpoint", "full",
     "--loss-log", "full.loss.csv", "--output", "full.train.json"],
    ["train", "--train", "train.commented.jsonl", "--val", "part.val.jsonl",
     "--config", CONFIG_NAME, "--seed", "5", "--fine-tuning-only",
     "--checkpoint", "ft", "--loss-log", "ft.loss.csv",
     "--output", "ft.train.json"],
    ["eval", "--checkpoint", "full", "--input", _TEST, "--method", "full",
     "--predictions", "full.pred.json", "--output", "full.eval.json"],
    ["eval", "--checkpoint", "ft", "--input", _TEST, "--method", "ft",
     "--predictions", "ft.pred.json", "--output", "ft.eval.json"],
    ["eval", "--checkpoint", "full", "--input", _TEST, "--method", "strict",
     "--threshold", "0.7", "--predictions", "strict.pred.json",
     "--output", "strict.eval.json"],
    ["pca-export", "--checkpoint", "full", "--input", _TEST,
     "--output", "pca.csv"],
    ["fn-analysis", "--pred", "full.pred.json", "--pred", "ft.pred.json",
     "--pred", "strict.pred.json", "--gold", _TEST, "--output", "fn.json"],
]


def environment():
    """What the hashes may depend on beyond the code: numpy and its BLAS."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def run_pipeline():
    """Run COMMANDS in the current directory, which should be empty; the
    sha256 of every file they wrote, by file name."""
    Path(CONFIG_NAME).write_text(CONFIG, encoding="utf-8")
    for argv in COMMANDS:
        code = run(argv)
        if code != 0:
            raise RuntimeError(f"vulcontrast {' '.join(argv)} exited {code}")
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(Path().iterdir()) if p.name != CONFIG_NAME}


def compare(old, new):
    """File names by fate, from the `sha256` maps before and after."""
    return {"moved": sorted(n for n in old.keys() & new.keys()
                            if old[n] != new[n]),
            "kept": sorted(n for n in old.keys() & new.keys()
                           if old[n] == new[n]),
            "added": sorted(new.keys() - old.keys()),
            "removed": sorted(old.keys() - new.keys())}


def main():
    old = (json.loads(GOLDEN.read_text(encoding="utf-8"))["sha256"]
           if GOLDEN.exists() else {})
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            hashes = run_pipeline()
        finally:
            os.chdir(home)
    GOLDEN.write_text(json.dumps({"environment": environment(),
                                  "sha256": hashes}, indent=1,
                                 sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(hashes)} hashes to {GOLDEN}", file=sys.stderr)
    for fate, names in compare(old, hashes).items():
        print(f"{fate} ({len(names)}): {' '.join(names)}", file=sys.stderr)


if __name__ == "__main__":
    main()
