import json
import re
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

from vulcontrast import cli
from vulcontrast.cli import (EXIT_CONTRACT, EXIT_IO, EXIT_OK, _CONFIG_TYPES,
                             _build_train_config, build_parser, run)
from vulcontrast.data import DatasetError, Vocabulary, load_jsonl
from vulcontrast.training import TrainConfig, load_checkpoint, save_checkpoint


TRAIN_CONFIG = """\
# desk-scale settings for the test pipeline
epochs = 2
batch_size = 4
learning_rate = 0.001
embed_dim = 8
num_blocks = 1
num_heads = 2
ff_dim = 16
proj_dim = 4
vocab_size = 64
max_input_length = 64
"""


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Run the pipeline once: fixture -> split -> comment -> train."""
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "corpus.jsonl"
    assert run(["make-fixture", "--count", "40", "--seed", "3",
                "--output", str(corpus)]) == EXIT_OK
    assert run(["split", "--input", str(corpus), "--seed", "1",
                "--fractions", "0.6/0.2/0.2",
                "--output-prefix", str(root / "part")]) == EXIT_OK
    commented = root / "train.commented.jsonl"
    assert run(["comment", "--input", str(root / "part.train.jsonl"),
                "--output", str(commented)]) == EXIT_OK
    config = root / "train.cfg"
    config.write_text(TRAIN_CONFIG)
    assert run(["train", "--train", str(commented),
                "--val", str(root / "part.val.jsonl"),
                "--config", str(config), "--seed", "5",
                "--fine-tuning-only",
                "--checkpoint", str(root / "model"),
                "--loss-log", str(root / "loss.csv"),
                "--output", str(root / "train.json")]) == EXIT_OK
    return root


class TestFixtureAndStats:
    def test_make_fixture_line_count(self, workdir):
        assert len(load_jsonl(str(workdir / "corpus.jsonl"))) == 40

    def test_stats_json_to_stdout(self, workdir, capsys):
        assert run(["stats", "--input",
                    str(workdir / "corpus.jsonl")]) == EXIT_OK
        obj = json.loads(capsys.readouterr().out)
        assert obj["stats"]["function_count"] == 40
        assert obj["stats"]["label_counts"] == {"0": 20, "1": 20}
        assert obj["stats"]["ratio"] == "1.00:1"

    def test_stats_to_file(self, workdir):
        out = workdir / "stats.json"
        assert run(["stats", "--input", str(workdir / "corpus.jsonl"),
                    "--output", str(out)]) == EXIT_OK
        assert json.loads(out.read_text())["stats"]["function_count"] == 40

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_bad_count_exits_naming_it(self, tmp_path, capsys, count):
        out = tmp_path / "fx.jsonl"
        assert run(["make-fixture", "--count", count,
                    "--output", str(out)]) == EXIT_CONTRACT
        assert f"fixture count {count}" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_exits_naming_it(self, tmp_path, capsys):
        out = tmp_path / "fx.jsonl"
        assert run(["make-fixture", "--seed", "-1",
                    "--output", str(out)]) == EXIT_CONTRACT
        assert "--seed -1" in capsys.readouterr().err
        assert not out.exists()


class TestSplit:
    def test_partition(self, workdir):
        parts = [load_jsonl(str(workdir / f"part.{n}.jsonl"))
                 for n in ("train", "val", "test")]
        ids = [r.id for part in parts for r in part]
        assert len(ids) == 40 and len(set(ids)) == 40
        assert [len(p) for p in parts] == [24, 8, 8]

    def test_bad_fractions_exit_code(self, workdir):
        assert run(["split", "--input", str(workdir / "corpus.jsonl"),
                    "--fractions", "0.5/0.5",
                    "--output-prefix", str(workdir / "bad")]) \
            == EXIT_CONTRACT

    def test_unparseable_fractions_name_the_flag(self, workdir, capsys):
        assert run(["split", "--input", str(workdir / "corpus.jsonl"),
                    "--fractions", "a/b/c",
                    "--output-prefix", str(workdir / "bad")]) \
            == EXIT_CONTRACT
        err = capsys.readouterr().err
        assert "--fractions" in err and "'a/b/c'" in err

    @pytest.mark.parametrize("flags,named", [
        (["--fractions", "0.5/0.5"], "--fractions '0.5/0.5'"),
        (["--fractions", "0.9/0.2/-0.1"], "--fractions '0.9/0.2/-0.1'"),
        (["--fractions", "0.5/0.3/0.3"], "--fractions '0.5/0.3/0.3'"),
        (["--seed", "-1"], "--seed -1")])
    def test_rejected_split_names_the_flag(self, workdir, capsys, flags,
                                           named):
        assert run(["split", "--input", str(workdir / "corpus.jsonl"),
                    *flags, "--output-prefix", str(workdir / "bad")]) \
            == EXIT_CONTRACT
        assert named in capsys.readouterr().err
        assert not list(workdir.glob("bad.*"))


class TestComment:
    def test_all_records_commented(self, workdir):
        records = load_jsonl(str(workdir / "train.commented.jsonl"))
        assert all(r.comment for r in records)

    @pytest.mark.parametrize("flags,named", [
        (["--mode", "remote"], "--mode remote --endpoint None"),
        (["--mode", "remote", "--endpoint", "http://127.0.0.1:9/v1"],
         "--model None"),
        (["--retries", "-1"], "--retries -1"),
        (["--mode", "remote", "--endpoint", "http://127.0.0.1:9/v1",
          "--model", "m", "--timeout", "0"], "--timeout 0.0")])
    def test_bad_provider_flags_exit_naming_them(self, workdir, tmp_path,
                                                 capsys, flags, named):
        out = tmp_path / "c.jsonl"
        assert run(["comment", "--input", str(workdir / "part.val.jsonl"),
                    "--output", str(out), *flags]) == EXIT_CONTRACT
        assert named in capsys.readouterr().err
        assert not out.exists()


class TestAugment:
    def test_views_written(self, workdir):
        out = workdir / "aug.jsonl"
        assert run(["augment", "--input",
                    str(workdir / "train.commented.jsonl"),
                    "--output", str(out), "--alpha", "0.1",
                    "--seed", "2"]) == EXIT_OK
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert all("code_aug" in r and "comment_aug" in r for r in rows)
        # same multiset of tokens modulo deletions
        for r in rows[:5]:
            orig = r["code"].split()
            aug = r["code_aug"].split()
            assert len(aug) <= len(orig)

    def test_uncommented_record_gets_no_comment_view(self, workdir,
                                                     tmp_path):
        out = tmp_path / "aug.jsonl"
        assert run(["augment", "--input", str(workdir / "part.val.jsonl"),
                    "--output", str(out)]) == EXIT_OK
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert rows and all("comment" not in r and "code_aug" in r
                            and "comment_aug" not in r for r in rows)

    def test_alpha_outside_unit_interval_exits_naming_it(self, workdir,
                                                         tmp_path, capsys):
        out = tmp_path / "aug.jsonl"
        assert run(["augment", "--input", str(workdir / "corpus.jsonl"),
                    "--output", str(out), "--alpha", "2"]) == EXIT_CONTRACT
        assert "--alpha 2.0: alpha must lie in [0, 1]" in \
            capsys.readouterr().err
        assert not out.exists()


class TestTrain:
    def test_summary_provenance(self, workdir):
        obj = json.loads((workdir / "train.json").read_text())
        assert obj["seed"] == 5
        assert "fine_tuning_only" not in obj["config"]
        assert obj["config"]["weights"] == {
            "clip_orig": 0.0, "clip_aug": 0.0, "consistency": 0.0,
            "classification": 1.0}
        assert obj["final_validation"] is not None

    def test_checkpoint_files_written(self, workdir):
        assert [p.name for p in workdir.glob("model*")] == ["model.npz"]

    def test_loss_log_written(self, workdir):
        lines = (workdir / "loss.csv").read_text().splitlines()
        assert lines[0].startswith("step,")
        assert len(lines) == 1 + 2 * 6  # 2 epochs x ceil(24/4) steps

    def test_retrain_is_byte_identical(self, workdir, tmp_path):
        config = workdir / "train.cfg"
        assert run(["train", "--train",
                    str(workdir / "train.commented.jsonl"),
                    "--val", str(workdir / "part.val.jsonl"),
                    "--config", str(config), "--seed", "5",
                    "--fine-tuning-only",
                    "--checkpoint", str(tmp_path / "model2"),
                    "--output", str(tmp_path / "t2.json")]) == EXIT_OK
        assert (tmp_path / "model2.npz").read_bytes() == \
            (workdir / "model.npz").read_bytes()

    def test_unknown_config_key_rejected(self, workdir, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("no_such_option = 1\n")
        assert run(["train", "--train",
                    str(workdir / "train.commented.jsonl"),
                    "--config", str(bad)]) == EXIT_CONTRACT

    @pytest.mark.parametrize("line", [
        "clip_orig = nan", "clip_aug = inf", "consistency = nan",
        "classification = -1", "learning_rate = nan", "learning_rate = inf",
        "learning_rate = 0", "weight_decay = -1", "weight_decay = nan",
        "seed = -1", "disable_consistency = true", "vocab_size = 2"])
    def test_bad_config_value_exits_naming_it(self, workdir, tmp_path,
                                              capsys, line):
        bad = tmp_path / "bad.cfg"
        bad.write_text(line + "\n")
        assert run(["train", "--train",
                    str(workdir / "train.commented.jsonl"),
                    "--config", str(bad)]) == EXIT_CONTRACT
        assert line.split()[0] in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--disable-aug-alignment",
                                      "--disable-consistency"])
    def test_removed_ablation_flags_rejected(self, workdir, flag):
        assert run(["train", "--train",
                    str(workdir / "train.commented.jsonl"), flag]) \
            == EXIT_CONTRACT

    def test_negative_seed_flag_exits_naming_it(self, workdir, capsys):
        assert run(["train", "--train",
                    str(workdir / "train.commented.jsonl"),
                    "--seed", "-1"]) == EXIT_CONTRACT
        assert "seed" in capsys.readouterr().err

    def test_empty_training_set_exits_without_checkpoint(self, tmp_path,
                                                          capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert run(["train", "--train", str(empty),
                    "--checkpoint", str(tmp_path / "m")]) == EXIT_CONTRACT
        assert "no training records" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [empty]

    def test_non_utf8_config_exits_naming_it(self, workdir, tmp_path,
                                             capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_bytes(b"epochs = 1 # \xff\n")
        assert run(["train", "--train",
                    str(workdir / "train.commented.jsonl"),
                    "--config", str(bad)]) == EXIT_CONTRACT
        assert f"{bad} is not UTF-8" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_diverging_run_exits_naming_the_step(self, workdir, tmp_path,
                                                 capsys):
        config = tmp_path / "diverge.cfg"
        config.write_text(TRAIN_CONFIG.replace("learning_rate = 0.001",
                                               "learning_rate = 1e300"))
        assert run(["train", "--train",
                    str(workdir / "train.commented.jsonl"),
                    "--config", str(config), "--fine-tuning-only",
                    "--checkpoint", str(tmp_path / "m")]) == EXIT_CONTRACT
        assert re.search(r"training diverged at epoch \d+, step \d+: "
                         r"non-finite values", capsys.readouterr().err)
        assert not (tmp_path / "m.npz").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_gradient_norm_exits_naming_the_step(
            self, workdir, tmp_path, capsys):
        config = tmp_path / "overflow.cfg"
        config.write_text(TRAIN_CONFIG.replace("epochs = 2", "epochs = 1")
                          + "classification = 1e308\n")
        assert run(["train", "--train",
                    str(workdir / "train.commented.jsonl"),
                    "--config", str(config),
                    "--checkpoint", str(tmp_path / "m")]) == EXIT_CONTRACT
        assert re.search(r"training diverged at epoch 0, step 1: pre-clip "
                         r"gradient norm is inf", capsys.readouterr().err)
        assert not (tmp_path / "m.npz").exists()

    @pytest.mark.parametrize("flags,comments", [([], True),
                                                (["--fine-tuning-only"],
                                                 False)])
    def test_stub_comments_only_when_text_is_read(
            self, workdir, tmp_path, monkeypatch, flags, comments):
        calls = []
        attach_comments = cli.attach_comments

        def counted(records, config):
            calls.append(len(records))
            return attach_comments(records, config)

        monkeypatch.setattr(cli, "attach_comments", counted)
        assert run(["train", "--train", str(workdir / "part.train.jsonl"),
                    "--config", str(workdir / "train.cfg"), *flags,
                    "--output", str(tmp_path / "t.json")]) == EXIT_OK
        assert calls == ([24] if comments else [])

    def test_uncommented_input_gets_stub_comments(self, workdir, tmp_path):
        assert load_jsonl(str(workdir / "part.train.jsonl"))[0].comment \
            is None
        log = tmp_path / "loss.csv"
        assert run(["train", "--train", str(workdir / "part.train.jsonl"),
                    "--config", str(workdir / "train.cfg"),
                    "--loss-log", str(log),
                    "--output", str(tmp_path / "t.json")]) == EXIT_OK
        rows = log.read_text().splitlines()[1:]
        assert len(rows) == 2 * 6
        assert all(float(row.split(",")[1]) > 0 for row in rows)  # clip_orig


def config_from_file(path, *flags):
    args = build_parser().parse_args(
        ["train", "--train", "unused.jsonl", "--config", str(path), *flags])
    return _build_train_config(args)


def flat_config(config):
    flat = asdict(config)
    flat.update(flat.pop("weights"))
    return flat


class TestConfigFile:
    @pytest.mark.parametrize("line", ["fine_tuning_only = ture",
                                      "select_best_f1 = ture",
                                      "epochs = ten", "alpha = 0.0.5"])
    def test_bad_value_rejected_naming_key(self, tmp_path, line):
        path = tmp_path / "bad.cfg"
        path.write_text(line + "\n")
        with pytest.raises(DatasetError, match=line.split()[0]):
            config_from_file(path)

    def test_repeated_key_names_both_lines(self, tmp_path):
        path = tmp_path / "twice.cfg"
        path.write_text("epochs = 3\nbatch-size = 4\n\nepochs = 7\n")
        with pytest.raises(DatasetError,
                           match="epochs repeated on lines 1 and 4"):
            config_from_file(path)

    def test_fine_tuning_only_is_not_a_config_key(self, tmp_path):
        path = tmp_path / "ft.cfg"
        path.write_text("fine_tuning_only = true\nclip_orig = 0.5\n")
        with pytest.raises(DatasetError, match="fine_tuning_only"):
            config_from_file(path)

    def test_fine_tuning_flag_zeroes_contrastive_weights_over_file(
            self, tmp_path):
        path = tmp_path / "weights.cfg"
        path.write_text("clip_orig = 0.5\nclassification = 2\n")
        assert config_from_file(path).weights.clip_orig == 0.5
        flagged = flat_config(config_from_file(path, "--fine-tuning-only"))
        expected = flat_config(TrainConfig())
        expected.update(clip_orig=0.0, clip_aug=0.0, consistency=0.0,
                        classification=2.0)
        assert flagged == expected

    def test_readme_lists_every_config_key(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        listed = re.search(r"in place of `weights`:(.*?)\.\s", readme,
                           re.S).group(1)
        assert re.findall(r"`(\w+)`", listed) == list(_CONFIG_TYPES)

    def test_every_field_round_trips(self, tmp_path):
        config = TrainConfig()
        flat = flat_config(config)
        path = tmp_path / "all.cfg"
        path.write_text("".join(f"{k} = {v}\n" for k, v in flat.items()))
        loaded = config_from_file(path)
        assert loaded == config
        assert {k: type(v) for k, v in flat_config(loaded).items()} == \
            {k: type(v) for k, v in flat.items()}


class TestEval:
    def test_metrics_json(self, workdir, capsys):
        assert run(["eval", "--checkpoint", str(workdir / "model"),
                    "--input", str(workdir / "part.test.jsonl")]) == EXIT_OK
        obj = json.loads(capsys.readouterr().out)
        assert obj["tp"] + obj["fp"] + obj["fn"] + obj["tn"] == 8
        assert obj["seed"] == 5
        assert 0 <= obj["f1"] <= 100

    def test_predictions_file(self, workdir):
        out = workdir / "preds-a.json"
        assert run(["eval", "--checkpoint", str(workdir / "model"),
                    "--input", str(workdir / "part.test.jsonl"),
                    "--method", "a", "--predictions", str(out),
                    "--output", str(workdir / "eval-a.json")]) == EXIT_OK
        obj = json.loads(out.read_text())
        assert obj["method"] == "a"
        assert len(obj["predictions"]) == 8

    def test_missing_checkpoint_exit_code(self, workdir):
        assert run(["eval", "--checkpoint", str(workdir / "nope"),
                    "--input", str(workdir / "part.test.jsonl")]) == EXIT_IO

    def test_corrupt_checkpoint_exit_code(self, workdir, tmp_path):
        blob = bytearray((workdir / "model.npz").read_bytes())
        blob[len(blob) // 2] ^= 0x10
        (tmp_path / "bad.npz").write_bytes(bytes(blob))
        assert run(["eval", "--checkpoint", str(tmp_path / "bad"),
                    "--input", str(workdir / "part.test.jsonl")]) \
            == EXIT_CONTRACT

    def test_checkpoint_without_vocabulary_exit_code(self, workdir, tmp_path,
                                                     capsys):
        model, _ = load_checkpoint(str(workdir / "model"))
        save_checkpoint(model, str(tmp_path / "bare"))
        assert run(["eval", "--checkpoint", str(tmp_path / "bare"),
                    "--input", str(workdir / "part.test.jsonl")]) \
            == EXIT_CONTRACT
        assert "without a code vocabulary" in capsys.readouterr().err


@pytest.fixture(scope="module")
def overflowing(workdir):
    """A valid checkpoint whose every weight is 1e200."""
    model, manifest = load_checkpoint(str(workdir / "model"))
    for p in model.params.values():
        p.data[...] = 1e200
    vocab = Vocabulary({tok: i for i, tok in enumerate(manifest["code_vocab"])},
                       "code")
    save_checkpoint(model, str(workdir / "overflow"), code_vocab=vocab)
    return workdir / "overflow"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command,flags", [
    ("eval", []), ("pca-export", ["--output", "pca-overflow.csv"]),
    ("bench-latency", [])])
def test_overflowing_checkpoint_exits_naming_the_record(
        workdir, overflowing, capsys, command, flags):
    records = load_jsonl(str(workdir / "part.test.jsonl"))
    flags = [str(workdir / f) if f.endswith(".csv") else f for f in flags]
    assert run([command, "--checkpoint", str(overflowing),
                "--input", str(workdir / "part.test.jsonl")] + flags) \
        == EXIT_CONTRACT
    assert (f"error: encoding the chunk from record {records[0].id!r}: "
            "non-finite values") in capsys.readouterr().err


class TestOodEval:
    def test_direction_reported(self, workdir, capsys):
        assert run(["ood-eval", "--checkpoint", str(workdir / "model"),
                    "--input", str(workdir / "part.val.jsonl"),
                    "--direction", "fixture->fixture"]) == EXIT_OK
        obj = json.loads(capsys.readouterr().out)
        assert obj["direction"] == "fixture->fixture"


class TestPcaExport:
    def test_csv_and_meta(self, workdir):
        out = workdir / "pca.csv"
        assert run(["pca-export", "--checkpoint", str(workdir / "model"),
                    "--input", str(workdir / "part.test.jsonl"),
                    "--output", str(out)]) == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "id,pc1,pc2,label"
        assert len(lines) == 9
        meta = json.loads((workdir / "pca.csv.meta.json").read_text())
        ratios = meta["explained_variance_ratios"]
        assert len(ratios) == 2 and ratios[0] >= ratios[1] >= 0


class TestBenchLatency:
    def test_report(self, workdir, capsys):
        assert run(["bench-latency", "--checkpoint", str(workdir / "model"),
                    "--input", str(workdir / "part.val.jsonl"),
                    "--repetitions", "3"]) == EXIT_OK
        obj = json.loads(capsys.readouterr().out)
        assert obj["latency"]["sample_count"] == 24
        assert obj["latency"]["mean_s"] > 0

    @pytest.mark.parametrize("size", ["0", "-1"])
    def test_bad_batch_size_exits_naming_it(self, workdir, capsys, size):
        assert run(["bench-latency", "--checkpoint", str(workdir / "model"),
                    "--input", str(workdir / "part.val.jsonl"),
                    "--batch-size", size]) == EXIT_CONTRACT
        assert f"batch_size {size}" in capsys.readouterr().err


class TestFnAnalysis:
    def test_composition(self, workdir, capsys):
        # three prediction files over the same test split
        for method, threshold in (("b", "0.4"), ("c", "0.6")):
            assert run(["eval", "--checkpoint", str(workdir / "model"),
                        "--input", str(workdir / "part.test.jsonl"),
                        "--method", method, "--threshold", threshold,
                        "--predictions",
                        str(workdir / f"preds-{method}.json"),
                        "--output",
                        str(workdir / f"eval-{method}.json")]) == EXIT_OK
        assert run(["fn-analysis",
                    "--pred", str(workdir / "preds-a.json"),
                    "--pred", str(workdir / "preds-b.json"),
                    "--pred", str(workdir / "preds-c.json"),
                    "--gold", str(workdir / "part.test.jsonl")]) == EXIT_OK
        obj = json.loads(capsys.readouterr().out)
        assert set(obj["fn_totals"]) == {"a", "b", "c"}
        region_sum = sum(r["count"] for r in obj["regions"].values())
        gold_pos = sum(r.label for r in
                       load_jsonl(str(workdir / "part.test.jsonl")))
        assert region_sum <= gold_pos

    def test_requires_three_files(self, workdir):
        assert run(["fn-analysis",
                    "--pred", str(workdir / "preds-a.json"),
                    "--pred", str(workdir / "preds-b.json"),
                    "--gold", str(workdir / "part.test.jsonl")]) \
            == EXIT_CONTRACT

    @pytest.mark.parametrize("content", [
        {"method": "a"},
        {"predictions": [{"id": "x", "probability": 0.5}]},
        [{"id": "x", "probability": 0.5, "predicted": 0, "gold": 1}],
    ], ids=["no-predictions", "entry-without-labels", "top-level-list"])
    def test_bad_prediction_file_exits_naming_it(self, workdir, tmp_path,
                                                 capsys, content):
        bad = tmp_path / "bad-preds.json"
        bad.write_text(json.dumps(content))
        assert run(["fn-analysis", "--pred", str(bad), "--pred", str(bad),
                    "--pred", str(bad),
                    "--gold", str(workdir / "part.test.jsonl")]) \
            == EXIT_CONTRACT
        assert str(bad) in capsys.readouterr().err


def write_predictions(path, gold_path, method, first=None):
    """A prediction file over the records of `gold_path` that predicts 0
    for each, with the fields of `first` set on its first entry."""
    entries = [{"id": r.id, "probability": 0.1, "predicted": 0,
                "gold": r.label, "cwe": r.cwe or []}
               for r in load_jsonl(str(gold_path))]
    entries[0].update(first or {})
    path.write_text(json.dumps({"method": method, "threshold": 0.5,
                                "predictions": entries}))
    return str(path)


class TestFnAnalysisInput:
    def fn_analysis(self, gold, *preds):
        return run(["fn-analysis", *[a for p in preds for a in ("--pred", p)],
                    "--gold", str(gold)])

    def test_non_string_gold_id_exits_naming_the_line(self, workdir,
                                                      tmp_path, capsys):
        gold = tmp_path / "gold.jsonl"
        gold.write_text('{"id": "a", "code": "int f ( ) ;", "label": 1}\n'
                        '{"id": ["a"], "code": "int g ( ) ;", "label": 0}\n')
        preds = [write_predictions(tmp_path / f"{m}.json",
                                   workdir / "part.test.jsonl", m)
                 for m in "abc"]
        assert self.fn_analysis(gold, *preds) == EXIT_CONTRACT
        assert f"{gold}: line 2: record id ['a'] must be a string" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("field,value", [
        ("id", ["a"]), ("id", 7), ("probability", 1.5),
        ("probability", float("nan")), ("probability", "0.1"),
        ("predicted", "0"), ("predicted", 2), ("predicted", True),
        ("gold", None), ("gold", 1.0), ("cwe", "CWE-20"), ("cwe", [20])])
    def test_mistyped_entry_exits_naming_it(self, workdir, tmp_path, capsys,
                                            field, value):
        gold = workdir / "part.test.jsonl"
        good = [write_predictions(tmp_path / f"{m}.json", gold, m)
                for m in "ab"]
        bad = write_predictions(tmp_path / "bad.json", gold, "c",
                                {field: value})
        assert self.fn_analysis(gold, *good, bad) == EXIT_CONTRACT
        err = capsys.readouterr().err
        assert f"{bad}: prediction 0 (" in err and field in err

    def test_non_string_method_exits_naming_the_file(self, workdir,
                                                      tmp_path, capsys):
        gold = workdir / "part.test.jsonl"
        preds = [write_predictions(tmp_path / f"{m}.json", gold, m)
                 for m in ("a", "b", ["m"])]
        assert self.fn_analysis(gold, *preds) == EXIT_CONTRACT
        assert f"{preds[2]}: method ['m'] must be a string" in \
            capsys.readouterr().err

    def test_repeated_method_exits_naming_it(self, workdir, tmp_path,
                                             capsys):
        gold = workdir / "part.test.jsonl"
        pred = write_predictions(tmp_path / "p.json", gold, "vulcontrast")
        assert self.fn_analysis(gold, pred, pred, pred) == EXIT_CONTRACT
        assert "method 'vulcontrast' names more than one" in \
            capsys.readouterr().err


class TestExitCodes:
    def test_missing_input_is_io_error(self, tmp_path):
        assert run(["stats", "--input", str(tmp_path / "none.jsonl")]) \
            == EXIT_IO

    def test_non_utf8_input_exits_naming_it(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(b'{"code": "int f() {}", "label": 0}\n\xff\n')
        assert run(["stats", "--input", str(bad)]) == EXIT_CONTRACT
        assert f"{bad} is not UTF-8" in capsys.readouterr().err

    def test_bare_value_error_propagates(self, workdir, monkeypatch):
        def broken(records):
            raise ValueError("not one of the library's errors")

        monkeypatch.setattr(cli, "dataset_stats", broken)
        with pytest.raises(ValueError, match="not one of the library's"):
            run(["stats", "--input", str(workdir / "corpus.jsonl")])

    def test_unknown_subcommand(self):
        assert run(["frobnicate"]) == EXIT_CONTRACT

    def test_version_flag(self):
        assert run(["--version"]) == EXIT_OK


class TestDependencies:
    def test_cli_import_loads_no_scipy(self):
        src = str(Path(cli.__file__).resolve().parents[1])
        probe = (f"import sys; sys.path.insert(0, {src!r}); "
                 "import vulcontrast.cli; "
                 "print(sorted(m for m in sys.modules "
                 "if m.split('.')[0] == 'scipy'))")
        out = subprocess.run([sys.executable, "-c", probe], check=True,
                             stdout=subprocess.PIPE, text=True).stdout
        assert out.strip() == "[]"

    def test_pyproject_lists_numpy_and_requests_only(self):
        tomllib = pytest.importorskip("tomllib")
        path = Path(__file__).resolve().parent.parent / "pyproject.toml"
        deps = tomllib.loads(path.read_text())["project"]["dependencies"]
        assert sorted(re.split(r"[<>=!~ ]", d)[0] for d in deps) == \
            ["numpy", "requests"]
