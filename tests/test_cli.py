import json
from dataclasses import asdict

import pytest

from vulcontrast.cli import (EXIT_CONTRACT, EXIT_IO, EXIT_OK,
                             _build_train_config, build_parser, run)
from vulcontrast.data import DatasetError, load_jsonl
from vulcontrast.training import TrainConfig


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


class TestComment:
    def test_all_records_commented(self, workdir):
        records = load_jsonl(str(workdir / "train.commented.jsonl"))
        assert all(r.comment for r in records)


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


class TestTrain:
    def test_summary_provenance(self, workdir):
        obj = json.loads((workdir / "train.json").read_text())
        assert obj["seed"] == 5
        assert obj["config"]["fine_tuning_only"] is True
        assert obj["config"]["weights"]["clip_orig"] == 0.0
        assert obj["final_validation"] is not None

    def test_checkpoint_files_written(self, workdir):
        for suffix in (".manifest.json", ".params.bin", ".vocab.json"):
            assert (workdir / ("model" + suffix)).exists()

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
        assert (tmp_path / "model2.params.bin").read_bytes() == \
            (workdir / "model.params.bin").read_bytes()

    def test_unknown_config_key_rejected(self, workdir, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("no_such_option = 1\n")
        assert run(["train", "--train",
                    str(workdir / "train.commented.jsonl"),
                    "--config", str(bad)]) == EXIT_CONTRACT


def config_from_file(path):
    args = build_parser().parse_args(
        ["train", "--train", "unused.jsonl", "--config", str(path)])
    return _build_train_config(args)


def flat_config(config):
    flat = asdict(config)
    flat.update(flat.pop("weights"))
    return flat


class TestConfigFile:
    @pytest.mark.parametrize("line", ["fine_tuning_only = ture",
                                      "epochs = ten", "alpha = 0.0.5"])
    def test_bad_value_rejected_naming_key(self, tmp_path, line):
        path = tmp_path / "bad.cfg"
        path.write_text(line + "\n")
        with pytest.raises(DatasetError, match=line.split()[0]):
            config_from_file(path)

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


class TestExitCodes:
    def test_missing_input_is_io_error(self, tmp_path):
        assert run(["stats", "--input", str(tmp_path / "none.jsonl")]) \
            == EXIT_IO

    def test_unknown_subcommand(self):
        assert run(["frobnicate"]) == EXIT_CONTRACT

    def test_version_flag(self):
        assert run(["--version"]) == EXIT_OK
