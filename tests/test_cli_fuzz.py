"""Fuzz every subcommand of `cli.run` from valid inputs.

Each example starts from a small valid input for one subcommand (a
6-record JSONL, a one-epoch config, a prediction file, a checkpoint) and
mutates it: empty, one record, one label only, a dropped or wrongly typed
key, truncated or non-UTF-8 bytes, zero, negative or non-finite numbers,
and a checkpoint re-saved whole with one code-config field changed, so
that only the load's own checks stand between the manifest and a draw.
`run` must return 0, 1 or 2 and never raise, and every exit-1 message
must come from one of the library's error classes, which `run` prints as
`error: ...`.

Only flags that set no amount of work get huge values; the record count,
repetitions, epochs, batch size and model sizes are only ever fuzzed
downward. `comment` runs in stub mode, or with remote flags that fail
before any request is sent.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from vulcontrast.cli import EXIT_CONTRACT, EXIT_IO, EXIT_OK, run

CONFIG = {"epochs": "1", "batch_size": "4", "learning_rate": "0.001",
          "embed_dim": "8", "num_blocks": "1", "num_heads": "2",
          "ff_dim": "16", "proj_dim": "4", "vocab_size": "64",
          "max_input_length": "32"}
# keys that set an amount of work or memory: fuzzed downward only
SIZE_KEYS = ("epochs", "batch_size", "embed_dim", "num_blocks", "num_heads",
             "ff_dim", "proj_dim", "vocab_size", "max_input_length")
# keys that set no amount of work: any value
FREE_KEYS = ("seed", "learning_rate", "weight_decay", "alpha", "clip_orig",
             "clip_aug", "consistency", "classification", "select_best_f1")

# a checkpoint manifest's code config: any value, since load checks the
# layout it describes against the saved arrays before drawing anything
CODE_CONFIG_KEYS = ("vocab_size", "embed_dim", "num_blocks", "num_heads",
                    "ff_dim", "max_input_length", "proj_dim")

HUGE_INT = 10 ** 30
NUMBERS = [0, -1, 1, 0.5, -0.5, 1e308, -1e308, HUGE_INT, -HUGE_INT,
           math.nan, math.inf, -math.inf]
JSON_VALUES = NUMBERS + [None, True, False, "", "x", "0", [], ["a"], {},
                         {"a": 1}]


def mostly(valid, others):
    """`valid` half of the time, else one of `others`."""
    return st.sampled_from([valid] * len(others) + list(others))


SMALL_INTS = [-HUGE_INT, -1, 0, 1, 2]
ANY_INTS = [-HUGE_INT, -1, 0, 1, 7, 2 ** 63, HUGE_INT]
ANY_FLOATS = ["0", "-1", "0.5", "1", "1e308", "-1e308", "nan", "inf",
              "-inf", "1e-300"]

FUZZ = settings(max_examples=25, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow])


def invoke(argv):
    """`run(argv)`'s exit code, checked against the exit-code contract."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run([str(a) for a in argv])
    assert code in (EXIT_OK, EXIT_CONTRACT, EXIT_IO), (argv, code)
    if code == EXIT_CONTRACT:
        assert any(line.startswith("error: ")
                   for line in err.getvalue().splitlines()), \
            (argv, err.getvalue())
    return code


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """Valid inputs: 6 commented records, a one-epoch config, a checkpoint
    trained on them once and a prediction file."""
    root = tmp_path_factory.mktemp("fuzz")
    corpus = root / "corpus.jsonl"
    assert invoke(["make-fixture", "--count", 6, "--seed", 1,
                   "--output", corpus]) == EXIT_OK
    records = root / "records.jsonl"
    assert invoke(["comment", "--input", corpus,
                   "--output", records]) == EXIT_OK
    config = root / "tiny.cfg"
    config.write_text(render_config(CONFIG))
    assert invoke(["train", "--train", records, "--config", config,
                   "--seed", 3, "--checkpoint", root / "model",
                   "--output", root / "train.json"]) == EXIT_OK
    assert invoke(["eval", "--checkpoint", root / "model", "--input",
                   records, "--predictions", root / "preds.json",
                   "--output", root / "eval.json"]) == EXIT_OK
    return {
        "records": [json.loads(line)
                    for line in records.read_text().splitlines()],
        "checkpoint": (root / "model.npz").read_bytes(),
        "preds": json.loads((root / "preds.json").read_text()),
    }


def render_config(values):
    return "".join(f"{k} = {v}\n" for k, v in values.items())


def to_bytes(draw, text):
    """`text` as UTF-8, sometimes truncated or holding a non-UTF-8 byte."""
    data = text.encode()
    how = draw(mostly("keep", ["keep", "truncate", "non-utf8"]))
    at = draw(st.integers(0, len(data)))
    if how == "truncate":
        return data[:at]
    if how == "non-utf8":
        return data[:at] + b"\xff\xfe" + data[at:]
    return data


def mutated_records(draw, records):
    """A JSONL file derived from `records` by one mutation."""
    records = [dict(r) for r in records]
    how = draw(mostly("keep", ["empty", "one", "one-label", "drop",
                               "retype", "retype"]))
    if how == "empty":
        records = []
    elif how == "one":
        records = records[:1]
    elif how == "one-label":
        label = draw(st.sampled_from([0, 1]))
        records = [r for r in records if r["label"] == label]
    elif how in ("drop", "retype"):
        rec = draw(st.sampled_from(records))
        key = draw(st.sampled_from(sorted(rec) + ["comment", "cwe"]))
        if how == "drop":
            rec.pop(key, None)
        else:
            rec[key] = draw(st.sampled_from(JSON_VALUES))
    return to_bytes(draw, "".join(json.dumps(r) + "\n" for r in records))


def mutated_config(draw):
    values = dict(CONFIG)
    how = draw(mostly("keep", ["drop", "size", "free", "free", "text",
                               "repeat", "unknown", "empty"]))
    if how == "drop":
        values.pop(draw(st.sampled_from(sorted(values))))
    elif how == "size":
        values[draw(st.sampled_from(SIZE_KEYS))] = draw(st.sampled_from(
            ["0", "-1", "-1e308", "nan", "1.5", "abc", ""]))
    elif how == "free":
        values[draw(st.sampled_from(FREE_KEYS))] = draw(st.sampled_from(
            [str(v) for v in NUMBERS] + ["yes", "abc", ""]))
    elif how == "text":
        values[draw(st.sampled_from(sorted(values)))] = "[1]"
    elif how == "empty":
        values = {}
    text = render_config(values)
    if how == "repeat":
        text += "epochs = 1\n"
    elif how == "unknown":
        text += "no_such_key = 1\n"
    return to_bytes(draw, text)


def mutated_preds(draw, preds, method):
    obj = json.loads(json.dumps(preds))
    obj["method"] = method
    entries = obj["predictions"]
    how = draw(mostly("keep", ["empty", "drop", "retype", "retype", "top",
                               "not-object"]))
    if how == "empty":
        obj["predictions"] = []
    elif how in ("drop", "retype"):
        entry = draw(st.sampled_from(entries))
        key = draw(st.sampled_from(sorted(entry)))
        if how == "drop":
            del entry[key]
        else:
            entry[key] = draw(st.sampled_from(JSON_VALUES))
    elif how == "top":
        obj[draw(st.sampled_from(["method", "threshold", "predictions"]))] = \
            draw(st.sampled_from(JSON_VALUES))
    elif how == "not-object":
        obj = entries
    return to_bytes(draw, json.dumps(obj))


def mutated_checkpoint(draw, data):
    how = draw(mostly("keep", ["empty", "truncate", "flip", "manifest"]))
    at = draw(st.integers(0, len(data) - 1))
    if how == "manifest":
        with np.load(io.BytesIO(data)) as archive:
            members = {name: archive[name] for name in archive.files}
        manifest = json.loads(str(members.pop("manifest")))
        manifest["code_config"][draw(st.sampled_from(CODE_CONFIG_KEYS))] = \
            draw(st.sampled_from(ANY_INTS + [10 ** 10]))
        out = io.BytesIO()
        np.savez(out, manifest=np.array(json.dumps(manifest)), **members)
        return out.getvalue()
    if how == "empty":
        return b""
    if how == "truncate":
        return data[:at]
    if how == "flip":
        return data[:at] + bytes([data[at] ^ 0xFF]) + data[at + 1:]
    return data


@contextlib.contextmanager
def workdir():
    with tempfile.TemporaryDirectory() as tmp:
        yield Path(tmp)


def write(path, data):
    path.write_bytes(data)
    return path


@FUZZ
@given(data=st.data())
def test_stats_split_augment(base, data):
    draw = data.draw
    with workdir() as tmp:
        src = write(tmp / "in.jsonl", mutated_records(draw, base["records"]))
        invoke(["stats", "--input", src, "--output", tmp / "stats.json"])
        fractions = draw(mostly("0.4/0.3/0.3", [
            "0.8/0.1/0.1", "0.5/0.5", "a/b/c", "0/0.5/0.5", "-1/1/1",
            "nan/0.5/0.5", "inf/0.5/0.5", "1e308/0.5/0.5", "1/1/1", ""]))
        invoke(["split", "--input", src, f"--fractions={fractions}",
                f"--seed={draw(st.sampled_from(ANY_INTS))}",
                "--output-prefix", tmp / "part"])
        invoke(["augment", "--input", src, "--output", tmp / "aug.jsonl",
                f"--alpha={draw(mostly('0.3', ANY_FLOATS))}",
                f"--seed={draw(st.sampled_from(ANY_INTS))}"])


@FUZZ
@given(data=st.data())
def test_make_fixture_and_comment(base, data):
    draw = data.draw
    with workdir() as tmp:
        invoke(["make-fixture", f"--count={draw(mostly(3, SMALL_INTS))}",
                f"--seed={draw(st.sampled_from(ANY_INTS))}",
                "--output", tmp / "fx.jsonl"])
        src = write(tmp / "in.jsonl", mutated_records(draw, base["records"]))
        endpoint = ["--endpoint", "http://127.0.0.1:9/v1"]
        # stub mode, or remote flags that ProviderConfig rejects
        flags = draw(mostly([], [
            ["--mode", "stub", "--timeout=nan"],
            ["--mode", "stub", "--retries=-1"],
            ["--mode", "remote"], ["--mode", "remote", *endpoint],
            ["--mode", "remote", "--model", "m"],
            ["--mode", "remote", *endpoint, "--model", "m", "--timeout=0"],
            ["--mode", "remote", *endpoint, "--model", "m",
             "--timeout=-inf"],
            ["--mode", "remote", *endpoint, "--model", "m", "--timeout=nan"],
            ["--mode", "remote", *endpoint, "--model", "m",
             "--retries=-1"]]))
        invoke(["comment", "--input", src, "--output", tmp / "out.jsonl",
                *flags])


@settings(FUZZ, max_examples=20)
@given(data=st.data())
def test_train(base, data):
    draw = data.draw
    with workdir() as tmp:
        train = write(tmp / "train.jsonl",
                      mutated_records(draw, base["records"]))
        val = write(tmp / "val.jsonl", mutated_records(draw, base["records"]))
        config = write(tmp / "tiny.cfg", mutated_config(draw))
        flags = draw(st.sampled_from([[], ["--fine-tuning-only"]]))
        seed = draw(mostly([], [["--seed=0"], [f"--seed={HUGE_INT}"],
                                ["--seed=-1"]]))
        invoke(["train", "--train", train, "--val", val, "--config", config,
                *flags, *seed, "--checkpoint", tmp / "m",
                "--loss-log", tmp / "loss.csv", "--output", tmp / "t.json"])


@FUZZ
@given(data=st.data())
def test_inference_commands(base, data):
    draw = data.draw
    with workdir() as tmp:
        write(tmp / "m.npz", mutated_checkpoint(draw, base["checkpoint"]))
        src = write(tmp / "in.jsonl", mutated_records(draw, base["records"]))
        common = ["--checkpoint", tmp / "m", "--input", src]
        threshold = mostly("0.5", ANY_FLOATS)
        invoke(["eval", *common, f"--threshold={draw(threshold)}",
                "--predictions", tmp / "p.json", "--output", tmp / "e.json"])
        invoke(["ood-eval", *common, f"--threshold={draw(threshold)}",
                "--output", tmp / "o.json"])
        invoke(["pca-export", *common, "--output", tmp / "pca.csv"])
        invoke(["bench-latency", *common,
                f"--repetitions={draw(mostly(3, [-1, 0, 2]))}",
                f"--batch-size={draw(mostly(2, SMALL_INTS))}",
                "--output", tmp / "l"])


@FUZZ
@given(data=st.data())
def test_fn_analysis(base, data):
    draw = data.draw
    with workdir() as tmp:
        methods = draw(mostly(["a", "b", "c"], [["a", "a", "b"],
                                                ["m", "m", "m"]]))
        preds = [write(tmp / f"p{k}.json",
                       mutated_preds(draw, base["preds"], method))
                 for k, method in enumerate(methods)]
        gold = write(tmp / "gold.jsonl",
                     mutated_records(draw, base["records"]))
        count = draw(mostly(3, [2]))
        invoke(["fn-analysis", *[a for p in preds[:count]
                                 for a in ("--pred", p)], "--gold", gold])
