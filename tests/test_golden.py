"""Every output of one small seeded pipeline is byte-identical to the
hashes in `tests/golden.json`.

`scripts/golden.py` defines the pipeline and rewrites the file. A change
that is meant to move seeded numbers reruns it; any other change must
leave every hash in place.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from scripts import golden  # noqa: E402


def test_seeded_outputs_match_golden(tmp_path, monkeypatch):
    expected = json.loads(golden.GOLDEN.read_text(encoding="utf-8"))
    monkeypatch.chdir(tmp_path)
    hashes = golden.run_pipeline()
    want = expected["sha256"]
    moved = sorted(name for name in want.keys() | hashes.keys()
                   if want.get(name) != hashes.get(name))
    assert not moved, (
        f"{len(moved)} seeded output(s) moved: {', '.join(moved)}. "
        f"golden.json was made under {expected['environment']}; this run "
        f"is under {golden.environment()}. If the change is meant to move "
        "them, rerun scripts/golden.py and say which moved and why.")
