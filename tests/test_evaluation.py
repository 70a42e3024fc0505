import numpy as np
import pytest

from vulcontrast.comments import ProviderConfig, attach_comments
from vulcontrast.data import FunctionRecord, build_vocab
from vulcontrast.evaluation import (EvalError, Prediction, PredictionSet,
                                    REGION_NAMES, compute_metrics,
                                    cross_dataset_eval,
                                    false_negative_analysis, latency_bench,
                                    pca_project, predict)
from vulcontrast.fixtures import generate_fixture
from vulcontrast.model import DualEncoderModel, EncoderConfig


def make_preds(pairs, method="m", threshold=0.5):
    """pairs: iterable of (gold, predicted)."""
    preds = [Prediction(id=f"p{i}", probability=0.5 + 0.1 * (p - 0.5),
                        predicted=p, gold=g)
             for i, (g, p) in enumerate(pairs)]
    return PredictionSet(method=method, threshold=threshold,
                         predictions=preds)


def confusion_pairs(tp, fp, fn, tn):
    return ([(1, 1)] * tp + [(0, 1)] * fp + [(1, 0)] * fn + [(0, 0)] * tn)


class TestMetrics:
    def test_hand_counts(self):
        m = compute_metrics(make_preds(confusion_pairs(50, 10, 20, 20)))
        assert (m.tp, m.fp, m.fn, m.tn) == (50, 10, 20, 20)
        pct = m.as_percentages()
        assert pct == {"accuracy": "70.00", "precision": "83.33",
                       "recall": "71.43", "f1": "76.92"}

    def test_perfect_predictions(self):
        m = compute_metrics(make_preds(confusion_pairs(3, 0, 0, 3)))
        assert m.precision == m.recall == m.f1 == m.accuracy == 1.0

    def test_zero_denominators_give_zero(self):
        # nothing predicted positive, nothing gold positive
        m = compute_metrics(make_preds(confusion_pairs(0, 0, 0, 4)))
        assert (m.precision, m.recall, m.f1) == (0.0, 0.0, 0.0)
        assert m.accuracy == 1.0

    def test_all_false_positives(self):
        m = compute_metrics(make_preds(confusion_pairs(0, 5, 0, 0)))
        assert (m.precision, m.recall, m.f1, m.accuracy) == (0, 0, 0, 0)

    def test_empty_set_rejected(self):
        with pytest.raises(EvalError):
            compute_metrics(PredictionSet("m", 0.5, []))

    def test_thousand_random_sets_against_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            n = int(rng.integers(1, 40))
            gold = rng.integers(0, 2, size=n)
            pred = rng.integers(0, 2, size=n)
            m = compute_metrics(make_preds(list(zip(gold, pred))))
            tp = int(np.sum((gold == 1) & (pred == 1)))
            fp = int(np.sum((gold == 0) & (pred == 1)))
            fn = int(np.sum((gold == 1) & (pred == 0)))
            tn = int(np.sum((gold == 0) & (pred == 0)))
            prec = tp / (tp + fp) if tp + fp else 0.0
            rec = tp / (tp + fn) if tp + fn else 0.0
            f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
            assert (m.tp, m.fp, m.fn, m.tn) == (tp, fp, fn, tn)
            assert abs(m.precision - prec) < 1e-12
            assert abs(m.recall - rec) < 1e-12
            assert abs(m.f1 - f1) < 1e-12
            assert abs(m.accuracy - (tp + tn) / n) < 1e-12

    def test_json_rounding(self):
        m = compute_metrics(make_preds(confusion_pairs(1, 0, 2, 0)))
        obj = m.to_json_obj(method="x", dataset="d")
        assert obj["recall"] == 33.33
        assert obj["f1"] == 50.0


@pytest.fixture(scope="module")
def small_model():
    records = generate_fixture(n=20, seed=3)
    records, _ = attach_comments(records, ProviderConfig())
    vocab = build_vocab(records, "code", 128)
    cfg = EncoderConfig(vocab_size=vocab.size, embed_dim=8, num_blocks=1,
                        num_heads=2, ff_dim=16, max_input_length=128,
                        proj_dim=4)
    model = DualEncoderModel(cfg, cfg, seed=1)
    return model, records, vocab


class TestPredict:
    def test_probabilities_and_threshold(self, small_model):
        model, records, vocab = small_model
        ps = predict(model, records, vocab, max_input_length=128)
        assert len(ps.predictions) == len(records)
        for p in ps.predictions:
            assert 0.0 < p.probability < 1.0
            assert p.predicted == int(p.probability > 0.5)

    def test_strict_threshold(self):
        # probability exactly at the threshold counts as negative
        preds = [Prediction(id="x", probability=0.5,
                            predicted=int(0.5 > 0.5), gold=1)]
        assert preds[0].predicted == 0

    def test_threshold_sweep_monotone(self, small_model):
        model, records, vocab = small_model
        counts = []
        for delta in (0.1, 0.3, 0.5, 0.7, 0.9):
            ps = predict(model, records, vocab, threshold=delta,
                         max_input_length=128)
            counts.append(sum(p.predicted for p in ps.predictions))
        assert counts == sorted(counts, reverse=True)

    def test_code_only_counter_unchanged(self, small_model):
        model, records, vocab = small_model
        before = model.text_invocations
        predict(model, records, vocab, max_input_length=128)
        assert model.text_invocations == before

    def test_batched_matches_unbatched(self, small_model):
        model, records, vocab = small_model
        a = predict(model, records, vocab, max_input_length=128,
                    batch_size=32)
        b = predict(model, records, vocab, max_input_length=128,
                    batch_size=1)
        probs_a = [p.probability for p in a.predictions]
        probs_b = [p.probability for p in b.predictions]
        assert np.allclose(probs_a, probs_b, atol=1e-9)

    def test_empty_records_rejected(self, small_model):
        model, _, vocab = small_model
        with pytest.raises(EvalError):
            predict(model, [], vocab)

    def test_bad_threshold_rejected(self, small_model):
        model, records, vocab = small_model
        with pytest.raises(EvalError):
            predict(model, records, vocab, threshold=1.0)

    def test_cross_dataset_uses_source_vocab(self, small_model):
        model, _, vocab = small_model
        target = [FunctionRecord(id="t0", label=1,
                                 code="wholly unseen tokens everywhere ( )"),
                  FunctionRecord(id="t1", label=0,
                                 code="more novel vocabulary here ( )")]
        metrics, preds = cross_dataset_eval(model, target, vocab,
                                            max_input_length=128,
                                            direction="a->b")
        assert preds.method == "ood:a->b"
        assert metrics.tp + metrics.fp + metrics.fn + metrics.tn == 2


class TestPca:
    def test_components_orthonormal(self):
        X = np.random.default_rng(0).normal(size=(30, 5))
        proj = pca_project(X, [0] * 30)
        gram = proj.components @ proj.components.T
        assert np.allclose(gram, np.eye(2), atol=1e-6)

    def test_rank_one_data(self):
        t = np.linspace(-1, 1, 20)[:, None]
        direction = np.array([[3.0, 4.0, 0.0]]) / 5.0
        X = t @ direction
        proj = pca_project(X, [0] * 20)
        assert proj.explained_ratios[0] > 1 - 1e-9
        assert proj.explained_ratios[1] < 1e-9
        assert np.allclose(np.abs(proj.components[0]), direction[0],
                           atol=1e-6)

    def test_matches_dense_eigensolver(self):
        X = np.random.default_rng(1).normal(size=(40, 6))
        proj = pca_project(X, [0] * 40)
        Xc = X - X.mean(axis=0)
        cov = Xc.T @ Xc / (len(X) - 1)
        values, vectors = np.linalg.eigh(cov)
        order = np.argsort(values)[::-1]
        top = vectors[:, order[:2]].T
        for k in range(2):
            assert abs(abs(proj.components[k] @ top[k]) - 1.0) < 1e-6
            expect = values[order[k]] / values.sum()
            assert abs(proj.explained_ratios[k] - expect) < 1e-6

    def test_sign_convention(self):
        X = np.random.default_rng(2).normal(size=(25, 4))
        proj = pca_project(X, [0] * 25)
        for comp in proj.components:
            assert comp[np.argmax(np.abs(comp))] > 0

    def test_coordinates_are_centered_projections(self):
        X = np.random.default_rng(3).normal(size=(10, 3))
        labels = [i % 2 for i in range(10)]
        ids = [f"r{i}" for i in range(10)]
        proj = pca_project(X, labels, ids=ids)
        Xc = X - X.mean(axis=0)
        expect = Xc @ proj.components.T
        for (rid, pc1, pc2, lbl), row, i in zip(proj.coordinates, expect,
                                                range(10)):
            assert rid == f"r{i}" and lbl == labels[i]
            assert abs(pc1 - row[0]) < 1e-9 and abs(pc2 - row[1]) < 1e-9

    def test_seed_determinism(self):
        X = np.random.default_rng(4).normal(size=(15, 4))
        a = pca_project(X, [0] * 15, seed=9)
        b = pca_project(X, [0] * 15, seed=9)
        assert np.array_equal(a.components, b.components)

    def test_too_few_rows_rejected(self):
        with pytest.raises(EvalError):
            pca_project(np.zeros((2, 4)), [0, 0])

    def test_constant_data_rejected(self):
        with pytest.raises(EvalError, match="rank-0"):
            pca_project(np.ones((5, 3)), [0] * 5)


class TextPeekingModel(DualEncoderModel):
    """Runs the text encoder whenever it encodes code."""

    def encode_batch(self, sequences, modality):
        if modality == "code":
            super().encode_batch(sequences, "text")
        return super().encode_batch(sequences, modality)


class TestLatency:
    def test_report_shape(self, small_model):
        model, records, vocab = small_model
        report = latency_bench(model, records[:4], vocab, repetitions=3,
                               max_input_length=128)
        assert report.sample_count == 12
        assert report.batch_size == 1
        assert 0 < report.mean_s
        assert report.p50_s <= report.p95_s

    def test_counter_discipline(self, small_model):
        model, records, vocab = small_model
        before = model.text_invocations
        latency_bench(model, records[:2], vocab, repetitions=3,
                      max_input_length=128)
        assert model.text_invocations == before

    def test_too_few_repetitions_rejected(self, small_model):
        model, records, vocab = small_model
        with pytest.raises(EvalError):
            latency_bench(model, records[:2], vocab, repetitions=2)

    def test_text_encoder_use_raises(self, small_model):
        model, records, vocab = small_model
        peeking = TextPeekingModel(model.code_config, model.text_config,
                                   seed=1)
        with pytest.raises(EvalError, match="text encoder"):
            latency_bench(peeking, records[:2], vocab, repetitions=3,
                          max_input_length=128)


def build_fn_universe(region_sizes):
    """Construct gold records and three prediction sets whose FN-set Venn
    regions have exactly the requested sizes."""
    membership = {
        "only_a": (1, 0, 0), "only_b": (0, 1, 0), "only_c": (0, 0, 1),
        "a_and_b": (1, 1, 0), "a_and_c": (1, 0, 1), "b_and_c": (0, 1, 1),
        "a_and_b_and_c": (1, 1, 1),
    }
    records, rows = [], []
    i = 0
    for region, size in region_sizes.items():
        for _ in range(size):
            rid = f"v{i:04d}"
            records.append(FunctionRecord(
                id=rid, label=1, code="x ( )",
                cwe=["CWE-787"] if i % 2 == 0 else ["CWE-119"]))
            rows.append((rid, membership[region]))
            i += 1
    # some shared true negatives so the id universes match
    for j in range(5):
        rid = f"neg{j}"
        records.append(FunctionRecord(id=rid, label=0, code="y ( )"))
        rows.append((rid, (0, 0, 0)))
    sets = []
    for k, method in enumerate(["a", "b", "c"]):
        preds = [Prediction(id=rid, probability=0.1 if miss[k] else 0.9,
                            predicted=0 if miss[k] else 1,
                            gold=next(r.label for r in records
                                      if r.id == rid))
                 for rid, miss in rows]
        sets.append(PredictionSet(method=method, threshold=0.5,
                                  predictions=preds))
    return records, sets


class TestFnAnalysis:
    def test_region_set_algebra(self):
        sizes = dict(only_a=3, only_b=2, only_c=1, a_and_b=4, a_and_c=2,
                     b_and_c=1, a_and_b_and_c=5)
        records, sets = build_fn_universe(sizes)
        out = false_negative_analysis(sets, records)
        assert set(out.regions) == set(REGION_NAMES)
        for region, size in sizes.items():
            assert len(out.regions[region]) == size
        # regions partition each method's FN set
        assert out.fn_totals == {"a": 3 + 4 + 2 + 5, "b": 2 + 4 + 1 + 5,
                                 "c": 1 + 2 + 1 + 5}

    def test_reference_venn_construction(self):
        # totals 151 / 95 / 57 with 33 shared by the first two methods
        # and every third-method miss shared by all three
        sizes = dict(only_a=61, only_b=5, only_c=0, a_and_b=33, a_and_c=0,
                     b_and_c=0, a_and_b_and_c=57)
        records, sets = build_fn_universe(sizes)
        out = false_negative_analysis(sets, records)
        assert out.fn_totals == {"a": 151, "b": 95, "c": 57}
        assert len(out.regions["a_and_b"]) == 33
        assert out.regions["only_c"] == []
        assert out.regions["a_and_c"] == []

    def test_cwe_table_counts(self):
        sizes = dict(only_a=2, only_b=0, only_c=0, a_and_b=0, a_and_c=0,
                     b_and_c=0, a_and_b_and_c=2)
        records, sets = build_fn_universe(sizes)
        out = false_negative_analysis(sets, records)
        for tag, counts in out.cwe_table.items():
            assert set(counts) == {"a", "b", "c"}
        total_a = sum(c["a"] for c in out.cwe_table.values())
        assert total_a == 4  # every record carries exactly one tag

    def test_untagged_fn_falls_into_others(self):
        records = [FunctionRecord(id="u", label=1, code="x ( )")]
        preds = [Prediction(id="u", probability=0.1, predicted=0, gold=1)]
        sets = [PredictionSet(m, 0.5, list(preds)) for m in "abc"]
        out = false_negative_analysis(sets, records)
        assert out.cwe_table["Others"] == {"a": 1, "b": 1, "c": 1}

    def test_wrong_method_count_rejected(self):
        records, sets = build_fn_universe(dict(only_a=1))
        with pytest.raises(EvalError):
            false_negative_analysis(sets[:2], records)

    def test_mismatched_id_universe_rejected(self):
        records, sets = build_fn_universe(dict(only_a=1, a_and_b=1))
        sets[2].predictions.pop()
        with pytest.raises(EvalError):
            false_negative_analysis(sets, records)
