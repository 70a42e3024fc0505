import json
import math
import re
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vulcontrast import autodiff as ad
from vulcontrast import training
from vulcontrast.cli import EXIT_CONTRACT, run
from vulcontrast.augment import augment_tokens
from vulcontrast.comments import ProviderConfig, attach_comments
from vulcontrast.data import (TokenSequence, Vocabulary, build_vocab, encode,
                              save_jsonl, tokenize)
from vulcontrast.evaluation import compute_metrics, predict
from vulcontrast.fixtures import generate_fixture
from vulcontrast.losses import LossBreakdown, LossWeights, bce_loss
from vulcontrast.model import (DualEncoderModel, EncoderConfig, ModelError,
                               parameter_table)
from vulcontrast.training import (ADAM_BETA1, ADAM_BETA2, ADAM_EPS,
                                  AdamOptimizer, CheckpointError, TrainConfig,
                                  TrainError, load_checkpoint,
                                  save_checkpoint, train, write_loss_log)


def small_config(**kw):
    defaults = dict(batch_size=4, epochs=2, learning_rate=1e-3,
                    weight_decay=1e-4, alpha=0.05, max_input_length=64,
                    seed=7, embed_dim=8, num_blocks=1, num_heads=2,
                    ff_dim=16, proj_dim=4, vocab_size=64,
                    select_best_f1=False)
    defaults.update(kw)
    return TrainConfig(**defaults)


def small_records(n=12, seed=5):
    records = generate_fixture(n=n, seed=seed)
    out, _ = attach_comments(records, ProviderConfig())
    return out


class TestAdam:
    def test_first_step_closed_form(self):
        p = ad.parameter(np.array([[1.0, -2.0, 0.5]]), "p")
        g = np.array([[0.5, -0.25, 2.0]])
        p.grad = g.copy()
        opt = AdamOptimizer({"p": p}, lr=0.1)
        opt.step()
        # bias correction makes the first step lr * g / (|g| + eps)
        expect = np.array([[1.0, -2.0, 0.5]]) - 0.1 * g / (np.abs(g)
                                                           + ADAM_EPS)
        assert np.allclose(p.data, expect, atol=1e-12)

    def test_trajectory_matches_numpy_oracle(self):
        rng = np.random.default_rng(0)
        init = rng.normal(size=(3, 2))
        grads = [rng.normal(size=(3, 2)) for _ in range(5)]
        lr, wd = 0.05, 0.01

        p = ad.parameter(init.copy(), "p")
        opt = AdamOptimizer({"p": p}, lr=lr, weight_decay=wd)
        for g in grads:
            p.grad = g.copy()
            opt.step()

        theta = init.copy()
        m = np.zeros_like(theta)
        v = np.zeros_like(theta)
        for t, g in enumerate(grads, start=1):
            theta = theta - lr * wd * theta
            m = ADAM_BETA1 * m + (1 - ADAM_BETA1) * g
            v = ADAM_BETA2 * v + (1 - ADAM_BETA2) * g * g
            m_hat = m / (1 - ADAM_BETA1 ** t)
            v_hat = v / (1 - ADAM_BETA2 ** t)
            theta = theta - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        assert np.allclose(p.data, theta, atol=1e-12)

    def test_zero_grad_zero_decay_is_fixed_point(self):
        p = ad.parameter(np.array([[2.0, -3.0]]), "p")
        p.grad = np.zeros((1, 2))
        opt = AdamOptimizer({"p": p}, lr=0.1, weight_decay=0.0)
        opt.step()
        assert np.array_equal(p.data, [[2.0, -3.0]])

    def test_decoupled_decay_shrinks_weights(self):
        p = ad.parameter(np.array([[2.0, -4.0]]), "p")
        p.grad = np.zeros((1, 2))
        # a parameter the loss did not reach keeps its value, decay included
        unreached = ad.parameter(np.array([[2.0, -4.0]]), "unreached")
        opt = AdamOptimizer({"p": p, "unreached": unreached}, lr=0.1,
                            weight_decay=0.01)
        opt.step()
        assert np.allclose(p.data, np.array([[2.0, -4.0]]) * (1 - 0.001),
                           atol=1e-15)
        assert np.array_equal(unreached.data, [[2.0, -4.0]])

    def test_step_zeroes_gradients(self):
        p = ad.parameter(np.ones((2, 2)), "p")
        p.grad = np.ones((2, 2))
        opt = AdamOptimizer({"p": p}, lr=0.1)
        opt.step()
        assert p.grad is None

    def test_non_finite_gradient_rejected(self):
        p = ad.parameter(np.ones((1, 1)), "p")
        p.grad = np.array([[np.nan]])
        opt = AdamOptimizer({"p": p}, lr=0.1)
        with pytest.raises(TrainError, match="non-finite"):
            opt.step()

    def test_step_without_clip_names_the_non_finite_parameter(self):
        a = ad.parameter(np.ones((1, 1)), "a")
        b = ad.parameter(np.ones((1, 2)), "b")
        a.grad, b.grad = np.array([[0.5]]), np.array([[1.0, np.nan]])
        with pytest.raises(TrainError,
                           match="non-finite gradient for parameter b"):
            AdamOptimizer({"a": a, "b": b}, lr=0.1).step()

    def test_clip_then_step_makes_no_second_finiteness_pass(self,
                                                           monkeypatch):
        params = {k: ad.parameter(np.ones((2, 2)), k) for k in "abc"}
        for p in params.values():
            p.grad = np.full((2, 2), 3.0)
        opt = AdamOptimizer(params, lr=0.1)
        calls = []
        isfinite = np.isfinite
        monkeypatch.setattr(np, "isfinite",
                            lambda x: calls.append(x) or isfinite(x))
        opt.clip_gradients()
        opt.step()
        assert calls == []
        # the verdict covers the gradients the clip saw, and that step only
        for p in params.values():
            p.grad = np.full((2, 2), 3.0)
        opt.step()
        assert len(calls) == 3

    def test_gradient_replaced_after_clip_still_checked(self):
        p = ad.parameter(np.ones((1, 1)), "p")
        p.grad = np.array([[0.5]])
        opt = AdamOptimizer({"p": p}, lr=0.1)
        opt.clip_gradients()
        p.grad = np.array([[np.inf]])
        with pytest.raises(TrainError,
                           match="non-finite gradient for parameter p"):
            opt.step()


class TestClipGradients:
    def test_large_norm_scaled_to_unit(self):
        p = ad.parameter(np.zeros((1, 2)), "p")
        p.grad = np.array([[3.0, 4.0]])
        opt = AdamOptimizer({"p": p}, lr=0.1)
        assert abs(opt.clip_gradients() - 5.0) < 1e-12
        assert abs(np.linalg.norm(p.grad) - 1.0) < 1e-12

    def test_small_norm_untouched(self):
        p = ad.parameter(np.zeros((1, 2)), "p")
        p.grad = np.array([[0.3, 0.4]])
        opt = AdamOptimizer({"p": p}, lr=0.1)
        assert abs(opt.clip_gradients() - 0.5) < 1e-12
        assert np.array_equal(p.grad, [[0.3, 0.4]])

    def test_norm_is_global_across_parameters(self):
        a = ad.parameter(np.zeros((1, 1)), "a")
        b = ad.parameter(np.zeros((1, 1)), "b")
        a.grad = np.array([[3.0]])
        b.grad = np.array([[4.0]])
        opt = AdamOptimizer({"a": a, "b": b}, lr=0.1)
        opt.clip_gradients()
        # both scaled by the same 1/5 factor
        assert np.allclose(a.grad, [[0.6]]) and np.allclose(b.grad, [[0.8]])

    def test_non_finite_norm_raises_and_leaves_gradients(self):
        p = ad.parameter(np.zeros((1, 2)), "p")
        p.grad = np.array([[1e200, 1.0]])
        opt = AdamOptimizer({"p": p}, lr=0.1)
        with np.errstate(over="ignore"), pytest.raises(
                ad.NonFiniteError, match="pre-clip gradient norm is inf"):
            opt.clip_gradients()
        assert np.array_equal(p.grad, [[1e200, 1.0]])

    def test_scaling_computes_in_the_gradients_dtype(self):
        g = np.random.default_rng(4).normal(size=(64, 64)).astype(np.float32)
        p = ad.parameter(np.zeros_like(g), "p")
        p.grad = g.copy()
        norm = AdamOptimizer({"p": p}, lr=0.1).clip_gradients()
        assert type(norm) is float
        assert p.grad.dtype == np.float32
        # a float32 multiply by the float32 factor, not a float64 one cast
        # back
        assert np.array_equal(p.grad, g * np.float32(1.0 / norm))

    def test_never_increases_norm(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            p = ad.parameter(np.zeros((2, 3)), "p")
            p.grad = rng.normal(size=(2, 3)) * rng.uniform(0.01, 10)
            before = np.linalg.norm(p.grad)
            AdamOptimizer({"p": p}, lr=0.1).clip_gradients()
            assert np.linalg.norm(p.grad) <= min(before, 1.0) + 1e-12


class TestConfigAblations:
    def test_fine_tuning_only_zeroes_contrastive_terms(self):
        cfg = small_config(fine_tuning_only=True)
        w = cfg.weights
        assert (w.clip_orig, w.clip_aug, w.consistency) == (0.0, 0.0, 0.0)
        assert w.classification == 1.0
        assert "fine_tuning_only" not in asdict(cfg)
        assert cfg == small_config(weights=LossWeights(0.0, 0.0, 0.0))

    @pytest.mark.parametrize("flag", [True, False])
    def test_fine_tuning_only_is_not_read_back(self, flag):
        # a stray read raises rather than returning the class default
        with pytest.raises(AttributeError, match="fine_tuning_only"):
            small_config(fine_tuning_only=flag).fine_tuning_only
        assert TrainConfig(fine_tuning_only=flag).weights.clip_orig == \
            (0.0 if flag else LossWeights().clip_orig)

    def test_replace_needs_fine_tuning_only_passed(self):
        # `dataclasses.replace` reads an InitVar it is not given from the
        # instance, so it raises; passed explicitly, False keeps the weights
        cfg = small_config(fine_tuning_only=True)
        with pytest.raises(AttributeError, match="fine_tuning_only"):
            replace(cfg, epochs=2)
        tuned = replace(cfg, epochs=2, fine_tuning_only=False)
        assert (tuned.epochs, tuned.weights) == (2, cfg.weights)
        full = small_config()
        assert replace(full, fine_tuning_only=True) == cfg
        assert replace(full, fine_tuning_only=False) == full

    def test_disable_aug_alignment(self):
        cfg = small_config(epochs=1, weights=LossWeights(clip_aug=0.0))
        _, rows = train(small_records(n=8), [], cfg)
        for _, bd, _ in rows:
            assert bd.clip_aug == 0.0
            assert min(bd.clip_orig, bd.consistency) > 0.0

    def test_disable_consistency(self):
        cfg = small_config(epochs=1, weights=LossWeights(consistency=0.0))
        _, rows = train(small_records(n=8), [], cfg)
        for _, bd, _ in rows:
            assert bd.consistency == 0.0
            assert min(bd.clip_orig, bd.clip_aug) > 0.0

    def test_invalid_config_rejected(self):
        with pytest.raises(TrainError):
            small_config(batch_size=0)

    @pytest.mark.parametrize("field,value", [
        ("learning_rate", math.nan), ("learning_rate", math.inf),
        ("learning_rate", 0.0), ("learning_rate", -1e-3),
        ("weight_decay", math.nan), ("weight_decay", math.inf),
        ("weight_decay", -1.0),
    ])
    def test_non_finite_or_out_of_range_rate_rejected(self, field, value):
        with pytest.raises(TrainError, match=f"{field} {value!r}"):
            small_config(**{field: value})

    def test_alpha_outside_unit_interval_rejected(self):
        for alpha in (1.5, -0.3):
            with pytest.raises(TrainError, match="alpha"):
                small_config(alpha=alpha)

    def test_negative_seed_rejected(self):
        with pytest.raises(TrainError, match="seed -1"):
            small_config(seed=-1)

    def test_vocabulary_without_room_for_a_token_rejected(self):
        with pytest.raises(TrainError, match="vocab_size 1 must be >= 2"):
            small_config(vocab_size=1)


class TestTrainLoop:
    def test_empty_training_set_rejected(self):
        with pytest.raises(TrainError, match="no training records"):
            train([], [], small_config())

    def test_missing_comment_rejected(self, monkeypatch):
        vocab_calls = []
        monkeypatch.setattr(training, "build_vocab",
                            lambda *args: vocab_calls.append(args))
        records = small_records(n=4)
        records[2].comment = None
        for weights in (LossWeights(), LossWeights(1.0, 0.0, 0.0),
                        LossWeights(0.0, 1.0, 0.0),
                        LossWeights(0.0, 0.0, 1.0)):
            with pytest.raises(TrainError, match="'fx-0002' has no comment"):
                train(records, [], small_config(weights=weights))
        assert vocab_calls == []

    def test_fine_tuning_only_needs_no_comments(self):
        commented = small_records()
        bare = generate_fixture(n=12, seed=5)
        assert all(r.comment is None for r in bare)
        cfg = small_config(fine_tuning_only=True)
        _, rows = train(bare, [], cfg)
        assert rows == train(commented, [], cfg)[1]

    def test_deterministic_given_seed(self):
        records = small_records()
        a, _ = train(records, [], small_config())
        b, _ = train(records, [], small_config())
        for name in a.model.params:
            assert np.array_equal(a.model.params[name].data,
                                  b.model.params[name].data)

    def test_step_count_and_epoch_logs(self):
        records = small_records()
        cfg = small_config()
        result, rows = train(records, [], cfg)
        steps_per_epoch = math.ceil(len(records) / cfg.batch_size)
        assert len(rows) == cfg.epochs * steps_per_epoch
        assert [s for s, _, _ in rows] == list(range(1, len(rows) + 1))
        assert len(result.epoch_logs) == cfg.epochs
        for epoch_log in result.epoch_logs:
            assert len(epoch_log.steps) == steps_per_epoch

    def test_fine_tuning_only_never_invokes_text_encoder(self):
        records = small_records()
        result, _ = train(records, [], small_config(fine_tuning_only=True))
        assert result.model.text_invocations == 0

    def test_fine_tuning_only_builds_no_text_side(self, monkeypatch,
                                                  tmp_path):
        vocab_calls = []
        optimizers = []

        def counting_build_vocab(records, modality, max_size):
            vocab_calls.append(modality)
            return build_vocab(records, modality, max_size)

        class RecordingAdam(AdamOptimizer):
            def __init__(self, *args, **kw):
                super().__init__(*args, **kw)
                optimizers.append(self)

        monkeypatch.setattr(training, "build_vocab", counting_build_vocab)
        monkeypatch.setattr(training, "AdamOptimizer", RecordingAdam)
        log = tmp_path / "loss.csv"
        result, rows = train(small_records(), [],
                             small_config(fine_tuning_only=True))
        write_loss_log(rows, str(log))
        assert vocab_calls == ["code"]
        assert result.model.text_config is None
        assert list(result.model.params) == [
            n for n, _, _ in parameter_table(result.model.code_config)]
        assert set(optimizers[0].m) == set(optimizers[0].v) == \
            set(result.model.params)
        gammas = [line.rsplit(",", 1)[1]
                  for line in log.read_text().splitlines()[1:]]
        assert gammas and set(gammas) == {"14"}

    @pytest.mark.parametrize("weights,passes,augments", [
        (LossWeights(), 2, 2),
        (LossWeights(clip_aug=0.0, consistency=0.0), 1, 0),
        (LossWeights(clip_orig=0.0, consistency=0.0), 1, 2),
        (LossWeights(clip_orig=0.0, clip_aug=0.0), 2, 2),
        (LossWeights(0.0, 0.0, 0.0), 0, 0),
    ], ids=["full", "clip_orig", "clip_aug", "consistency", "fine_tuning"])
    def test_builds_only_the_views_a_weighted_term_reads(
            self, monkeypatch, weights, passes, augments):
        calls = []

        def counting_augment(*args):
            calls.append(args)
            return augment_tokens(*args)

        monkeypatch.setattr(training, "augment_tokens", counting_augment)
        records = small_records(n=8)
        result, rows = train(records, [], small_config(epochs=1,
                                                       weights=weights))
        assert result.model.text_invocations == passes * len(rows)
        assert len(calls) == augments * len(records)

    @pytest.mark.parametrize("epochs", [1, 3])
    @pytest.mark.parametrize("fine_tuning_only,modalities", [
        (False, ["code", "text"]), (True, ["code"])])
    def test_encodes_each_record_once_per_modality_read(
            self, monkeypatch, epochs, fine_tuning_only, modalities):
        calls = []

        def counting_encode(tokens, vocab, max_input_length):
            calls.append(vocab.modality)
            return encode(tokens, vocab, max_input_length)

        monkeypatch.setattr(training, "encode", counting_encode)
        records = small_records(n=8)
        train(records, records[:4], small_config(
            epochs=epochs, fine_tuning_only=fine_tuning_only))
        assert sorted(calls) == sorted(modalities * len(records))

    def test_full_objective_invokes_text_encoder(self):
        records = small_records(n=8)
        result, _ = train(records, [], small_config(epochs=1))
        assert result.model.text_invocations > 0

    def test_best_f1_snapshot_tracked(self):
        val = small_records(n=8, seed=11)
        result, _ = train(val, val, small_config(fine_tuning_only=True,
                                                 select_best_f1=True))
        assert 0.0 <= result.best_f1 <= 1.0
        assert 0 <= result.best_epoch < 2
        # the returned model is the best epoch's snapshot
        preds = predict(result.model, val, result.code_vocab)
        assert compute_metrics(preds).f1 == result.best_f1

    @pytest.mark.parametrize("f1s,bces,best", [
        ([0.5, 0.5, 0.5], [0.5, 0.3, 0.4], 1),   # a tie: the lowest BCE
        ([0.5, 0.5, 0.5], [0.5, 0.5, 0.5], 0),   # a full tie: the first
        ([0.9, 0.5, 0.8], [0.6, 0.1, 0.1], 0)])  # F1 first
    def test_best_f1_then_lowest_validation_bce_kept(self, monkeypatch, f1s,
                                                     bces, best):
        from vulcontrast import evaluation
        real, f1_iter, bce_iter = (evaluation.compute_metrics, iter(f1s),
                                   iter(bces))

        def scripted_metrics(preds):
            metrics = real(preds)
            metrics.f1 = next(f1_iter)
            return metrics
        monkeypatch.setattr(evaluation, "compute_metrics", scripted_metrics)
        monkeypatch.setattr(training, "bce_loss", lambda probs, labels:
                            ad.constant(next(bce_iter)))
        val = small_records(n=8, seed=11)
        result, _ = train(val, val, small_config(
            epochs=3, fine_tuning_only=True, select_best_f1=True))
        assert (result.best_epoch, result.best_f1) == (best, f1s[best])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_diverged_validation_pass_reported_as_divergence(self,
                                                            monkeypatch):
        step = AdamOptimizer.step

        def overflowing_step(self):
            step(self)
            for p in self.params.values():
                p.data[...] = 1e200
        monkeypatch.setattr(AdamOptimizer, "step", overflowing_step)
        records = small_records(n=8)
        with pytest.raises(TrainError, match=(
                "training diverged at epoch 0, step 1: encoding the chunk "
                f"from record {records[0].id!r}: non-finite")):
            train(records, records, small_config(
                epochs=1, batch_size=8, fine_tuning_only=True))

    def test_validation_bce_logged_per_epoch(self):
        val = small_records(n=8, seed=11)
        result, _ = train(val, val, small_config(
            epochs=3, fine_tuning_only=True, select_best_f1=True))
        for log in result.epoch_logs:
            assert 0.0 < log.validation["bce"] < math.inf
        # the logged pair is what ranked the epochs
        keys = [(log.validation["f1"], -log.validation["bce"])
                for log in result.epoch_logs]
        assert result.best_epoch == keys.index(max(keys))

    def test_encoders_float32_from_the_pooled_rows_on_float64(
            self, monkeypatch):
        built, inside = [], []
        node, encode_group = ad._node, DualEncoderModel._encode_group

        def record(data, op, prev, backward):
            out = node(data, op, prev, backward)
            built.append((op, out.data.dtype, bool(inside)))
            return out

        def tagged(self, *args):
            inside.append(True)
            try:
                return encode_group(self, *args)
            finally:
                inside.pop()
        seen = {}
        step = AdamOptimizer.step

        def checked_step(self):
            for name, p in self.params.items():
                seen[name] = (p.data.dtype, None if p.grad is None
                              else p.grad.dtype, self.m[name].dtype)
            step(self)
        monkeypatch.setattr(ad, "_node", record)
        monkeypatch.setattr(DualEncoderModel, "_encode_group", tagged)
        monkeypatch.setattr(AdamOptimizer, "step", checked_step)
        records, cfg = small_records(n=8), small_config(epochs=1,
                                                        batch_size=8)
        train(records, [], cfg)
        f32, f64 = np.dtype(np.float32), np.dtype(np.float64)
        encoder = [(op, dt) for op, dt, enc in built if enc]
        rest = [(op, dt) for op, dt, enc in built if not enc]
        # every node of an encoder group but its pooling is float32
        assert {dt for op, dt in encoder if op != "segment-mean-pool"} \
            == {f32}
        assert {dt for op, dt in encoder if op == "segment-mean-pool"} \
            == {f64}
        # the joined rows, projections, similarities, classifier and loss
        assert {"concat-rows", "row-l2-normalize", "sigmoid", "gelu",
                "row-log-sum-exp", "mean-all"} <= {op for op, _ in rest}
        assert {dt for _, dt in rest} == {f64}
        assert set(seen) == {name for name, _, _ in parameter_table(
            cfg.encoder_config(8), cfg.encoder_config(8))}
        for name, dtypes in seen.items():
            want = f32 if name.startswith(("code.", "text.")) else f64
            assert dtypes == (want, want, want), name

    def test_progress_called_once_per_epoch_with_its_log(self):
        calls = []
        result, _ = train(small_records(n=8), [], small_config(),
                          progress=lambda epoch, log: calls.append(
                              (epoch, log)))
        assert [epoch for epoch, _ in calls] == [0, 1]
        assert [log for _, log in calls] == result.epoch_logs
        assert all(log.epoch == epoch for epoch, log in calls)

    def test_loss_log_written(self, tmp_path):
        records = small_records(n=8)
        path = tmp_path / "loss.csv"
        _, rows = train(records, [], small_config(epochs=1))
        write_loss_log(rows, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == ("step,clip_orig,clip_aug,consistency,"
                            "classification,total,gamma")
        assert len(lines) == 1 + 2  # header + ceil(8/4) steps


class TestFineTuningEquivalence:
    """Criterion-style check: fine-tuning-only training must match an
    independently written BCE loop step for step."""

    def manual_loop(self, records, cfg):
        code_vocab = build_vocab(records, "code", cfg.vocab_size)
        text_vocab = build_vocab(records, "text", cfg.vocab_size)
        model = DualEncoderModel(cfg.encoder_config(code_vocab.size),
                                 cfg.encoder_config(text_vocab.size),
                                 seed=cfg.seed)
        m = {k: np.zeros_like(p.data) for k, p in model.params.items()}
        v = {k: np.zeros_like(p.data) for k, p in model.params.items()}
        t = 0
        for epoch in range(cfg.epochs):
            rng = np.random.default_rng([cfg.seed, epoch, 0xC0DE])
            order = list(rng.permutation(len(records)))
            for start in range(0, len(order), cfg.batch_size):
                idx = order[start:start + cfg.batch_size]
                seqs = [encode(tokenize(records[i].code, "code"),
                               code_vocab, cfg.max_input_length)
                        for i in idx]
                labels = [records[i].label for i in idx]
                z = model.project(model.encode_batch(seqs, "code"), "code")
                _, probs = model.classify(z)
                loss = bce_loss(probs, labels)
                ad.backward(loss)
                norm = math.sqrt(sum(
                    float((p.grad ** 2).sum())
                    for p in model.params.values() if p.grad is not None))
                scale = 1.0 / norm if norm > 1.0 else 1.0
                t += 1
                bc1 = 1 - ADAM_BETA1 ** t
                bc2 = 1 - ADAM_BETA2 ** t
                for name, p in model.params.items():
                    if p.grad is None:
                        continue
                    g = p.grad * scale
                    p.data -= cfg.learning_rate * cfg.weight_decay * p.data
                    m[name] = ADAM_BETA1 * m[name] + (1 - ADAM_BETA1) * g
                    v[name] = (ADAM_BETA2 * v[name]
                               + (1 - ADAM_BETA2) * g * g)
                    p.data -= (cfg.learning_rate * (m[name] / bc1)
                               / (np.sqrt(v[name] / bc2) + ADAM_EPS))
                    p.grad = None
        return model

    def test_step_for_step_equality(self):
        records = small_records(n=12)
        cfg = small_config(fine_tuning_only=True)
        result, _ = train(records, [], cfg)
        oracle = self.manual_loop(records, cfg)
        assert list(result.model.params) == \
            [n for n, _, _ in parameter_table(oracle.code_config)]
        for name, p in result.model.params.items():
            assert np.allclose(p.data, oracle.params[name].data,
                               atol=1e-12), name


class TestCheckpoint:
    def make_model(self, seed=0):
        cfg = EncoderConfig(vocab_size=16, embed_dim=8, num_blocks=1,
                            num_heads=2, ff_dim=16, max_input_length=12,
                            proj_dim=4)
        return DualEncoderModel(cfg, cfg, seed=seed)

    def make_vocab(self, size=16):
        tokens = ["<unk>"] + [f"t{i}" for i in range(1, size)]
        return Vocabulary({tok: i for i, tok in enumerate(tokens)}, "code")

    def doctor(self, path, edit):
        """Rewrite `<path>.npz` after `edit(members, manifest)`."""
        with np.load(path + ".npz") as archive:
            members = {name: archive[name] for name in archive.files}
        manifest = json.loads(str(members.pop("manifest")))
        edit(members, manifest)
        np.savez(path + ".npz", manifest=np.array(json.dumps(manifest)),
                 **members)

    def test_round_trip_exact(self, tmp_path):
        model = self.make_model(seed=9)
        # make values non-trivial
        for p in model.params.values():
            p.data += 0.01
        path = str(tmp_path / "ckpt")
        save_checkpoint(model, path, step=42, code_vocab=self.make_vocab())
        loaded, manifest = load_checkpoint(path)
        assert manifest["step"] == 42
        assert manifest["code_vocab"] == \
            ["<unk>"] + [f"t{i}" for i in range(1, 16)]
        code_side = {n for n, _, _ in parameter_table(model.code_config)}
        assert set(loaded.params) == code_side
        for name in code_side:
            got, want = loaded.params[name].data, model.params[name].data
            assert got.dtype == want.dtype and got.tobytes() == \
                want.tobytes(), name
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt.npz"]

    def test_encoders_stored_as_f4_and_heads_as_f8(self, tmp_path):
        path = str(tmp_path / "ckpt")
        save_checkpoint(self.make_model(), path)
        with np.load(path + ".npz") as archive:
            dtypes = {name: archive[name].dtype.str
                      for name in archive.files if name != "manifest"}
        assert dtypes == {name: "<f4" if name.startswith("code.") else "<f8"
                          for name in dtypes}
        assert {"<f4", "<f8"} == set(dtypes.values())

    def test_holds_the_code_side_only(self, tmp_path):
        path = str(tmp_path / "ckpt")
        save_checkpoint(self.make_model(), path, step=1,
                        code_vocab=self.make_vocab())
        with np.load(path + ".npz") as archive:
            names = set(archive.files) - {"manifest"}
            manifest = json.loads(str(archive["manifest"]))
        assert names == {n for n in self.make_model().params
                         if n.startswith(("code.", "proj.code", "cls."))}
        assert set(manifest) == {"version", "code_config", "seed", "step",
                                 "code_vocab"}
        assert manifest["version"] == 7
        loaded, _ = load_checkpoint(path)
        assert loaded.text_config is None
        assert not any(n.startswith(("text.", "proj.text", "logit_scale"))
                       for n in loaded.params)
        with pytest.raises(ModelError, match="no text encoder"):
            loaded.encode_batch([TokenSequence(tokens=[2], modality="text")],
                                "text")
        assert loaded.text_invocations == 0

    def test_fresh_counter_after_load(self, tmp_path):
        model = self.make_model()
        model.encode_batch([TokenSequence(tokens=[2], modality="text")],
                           "text")
        path = str(tmp_path / "ckpt")
        save_checkpoint(model, path)
        loaded, _ = load_checkpoint(path)
        assert loaded.text_invocations == 0

    def test_unsupported_version_rejected(self, tmp_path):
        path = str(tmp_path / "ckpt")
        # 4 stored each attention head's weights apart, 5 the encoders as
        # <f8, 6 a vocabulary with <pad> at id 1
        for version in (2, 3, 4, 5, 6, 99):
            save_checkpoint(self.make_model(), path)
            self.doctor(path, lambda members, manifest:
                        manifest.update(version=version))
            with pytest.raises(CheckpointError, match=f"version {version} "):
                load_checkpoint(path)

    @pytest.mark.parametrize("edit", [
        lambda manifest: manifest.pop("seed"),
        lambda manifest: manifest.update(seed_offset=1),
    ])
    def test_missing_or_unknown_manifest_key_rejected(self, tmp_path, edit):
        path = str(tmp_path / "ckpt")
        save_checkpoint(self.make_model(), path)
        self.doctor(path, lambda members, manifest: edit(manifest))
        with pytest.raises(CheckpointError, match="manifest key: seed"):
            load_checkpoint(path)

    @pytest.mark.parametrize("key,value", [
        ("seed", "abc"), ("seed", None), ("seed", -5), ("seed", [1, 2]),
        ("seed", True), ("seed", 1.0), ("step", "x"), ("step", -1),
        ("step", False),
    ])
    def test_seed_or_step_not_a_non_negative_int_rejected(self, tmp_path,
                                                           key, value):
        path = str(tmp_path / "ckpt")
        save_checkpoint(self.make_model(), path)
        self.doctor(path, lambda members, manifest:
                    manifest.update({key: value}))
        with pytest.raises(CheckpointError, match=f"manifest {key} "):
            load_checkpoint(path)

    def test_built_vocabulary_survives_the_round_trip(self, tmp_path):
        # id 1 is the corpus's most frequent token, with nothing reserved
        vocab = build_vocab(small_records(), "code", 16)
        assert vocab.size == 16 and vocab.token_to_id[";"] == 1
        path = str(tmp_path / "ckpt")
        save_checkpoint(self.make_model(), path, code_vocab=vocab)
        _, manifest = load_checkpoint(path)
        assert {tok: i for i, tok in enumerate(manifest["code_vocab"])} \
            == vocab.token_to_id

    def test_manifest_not_an_object_rejected(self, tmp_path):
        path = str(tmp_path / "ckpt")
        save_checkpoint(self.make_model(), path)
        with np.load(path + ".npz") as archive:
            members = {name: archive[name] for name in archive.files}
        members["manifest"] = np.array(json.dumps([3, "code_config"]))
        np.savez(path + ".npz", **members)
        with pytest.raises(CheckpointError, match="not an object"):
            load_checkpoint(path)

    def test_bad_code_config_rejected(self, tmp_path):
        path = str(tmp_path / "ckpt")
        save_checkpoint(self.make_model(), path)
        self.doctor(path, lambda members, manifest:
                    manifest["code_config"].update(vocab_size="16"))
        with pytest.raises(CheckpointError, match="bad model configuration"):
            load_checkpoint(path)

    def test_missing_parameter_rejected(self, tmp_path):
        path = str(tmp_path / "ckpt")
        save_checkpoint(self.make_model(), path)
        self.doctor(path, lambda members, manifest:
                    members.pop("cls.b2"))
        with pytest.raises(CheckpointError, match="parameter: cls.b2"):
            load_checkpoint(path)
        for extra in ("extra", "logit_scale"):
            self.doctor(path, lambda members, manifest: members.update(
                {"cls.b2": np.zeros((1, 1)), extra: np.zeros((1, 1))}))
            with pytest.raises(CheckpointError, match=f"parameter: {extra}"):
                load_checkpoint(path)
            self.doctor(path, lambda members, manifest: members.pop(extra))

    @pytest.mark.parametrize("key,value,first", [
        ("vocab_size", 10 ** 10, "code.embed"),
        ("max_input_length", 10 ** 10, "code.pos"),
        ("ff_dim", 10 ** 10, "code.block0.ff_w1"),
        ("proj_dim", 10 ** 10, "proj.code"),
        ("num_blocks", 10 ** 9, "code.block1.wqkv"),
        ("embed_dim", 16, "code.embed"),
    ])
    def test_manifest_disagreeing_with_members_rejected_before_drawing(
            self, tmp_path, monkeypatch, capsys, key, value, first):
        path = str(tmp_path / "ckpt")
        save_checkpoint(self.make_model(), path, code_vocab=self.make_vocab())
        self.doctor(path, lambda members, manifest:
                    manifest["code_config"].update({key: value}))

        def no_draw(*args, **kw):
            raise AssertionError("load drew a model before its checks")

        monkeypatch.setattr(training, "DualEncoderModel", no_draw)
        names_first = rf"parameter:? {re.escape(first)}(:|$)"
        with pytest.raises(CheckpointError, match=names_first):
            load_checkpoint(path)
        records = tmp_path / "records.jsonl"
        save_jsonl(generate_fixture(n=4, seed=1), str(records))
        assert run(["eval", "--checkpoint", path, "--input", str(records),
                    "--output", str(tmp_path / "eval.json")]) \
            == EXIT_CONTRACT
        err = capsys.readouterr().err
        assert err.startswith("error: ") and re.search(names_first, err)

    def test_truncated_payload_rejected(self, tmp_path):
        path = str(tmp_path / "ckpt")
        save_checkpoint(self.make_model(), path)
        with open(path + ".npz", "rb") as fh:
            payload = fh.read()
        with open(path + ".npz", "wb") as fh:
            fh.write(payload[:-8])
        with pytest.raises(CheckpointError, match="not a readable"):
            load_checkpoint(path)

    def test_shape_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / "ckpt")
        save_checkpoint(self.make_model(), path)
        self.doctor(path, lambda members, manifest: members.update(
            {"proj.code": members["proj.code"].T}))
        with pytest.raises(CheckpointError,
                           match="mismatch for parameter proj.code"):
            load_checkpoint(path)

    def test_wrong_dtype_rejected(self, tmp_path):
        for name, dtype in [("proj.code", "<f4"), ("proj.code", ">f8"),
                            ("proj.code", "<i8"), ("code.block0.wqkv", "<f8"),
                            ("code.block0.wqkv", ">f4"),
                            ("code.block0.wqkv", "<f2")]:
            path = str(tmp_path / f"ckpt{name}{dtype}")
            save_checkpoint(self.make_model(), path)
            self.doctor(path, lambda members, manifest: members.update(
                {name: members[name].astype(dtype)}))
            with pytest.raises(CheckpointError,
                               match=f"mismatch for parameter {name}"):
                load_checkpoint(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_member_rejected(self, tmp_path, value):
        path = str(tmp_path / "ckpt")
        save_checkpoint(self.make_model(), path)

        def poison(members, manifest):
            members["code.block0.ff_b1"][0, 3] = value
        self.doctor(path, poison)
        with pytest.raises(CheckpointError, match="non-finite value in "
                           "parameter code.block0.ff_b1"):
            load_checkpoint(path)

    @pytest.mark.parametrize("tokens", [
        [f"t{i}" for i in range(15)],
        [f"t{i}" for i in range(17)],
        {f"t{i}": i for i in range(16)},
        list(range(16)),
        ["a"] * 16,
        ["a", "<unk>"] + [f"t{i}" for i in range(2, 16)],
        [f"t{i}" for i in range(15)] + ["<unk>"],
        [f"t{i}" for i in range(16)],
    ])
    def test_vocabulary_not_matching_encoder_rejected(self, tmp_path,
                                                      tokens):
        path = str(tmp_path / "ckpt")
        save_checkpoint(self.make_model(), path)
        self.doctor(path, lambda members, manifest:
                    manifest.update(code_vocab=tokens))
        with pytest.raises(CheckpointError, match="list of 16 tokens"):
            load_checkpoint(path)

    def test_damaged_file_raises_or_loads_what_was_saved(self, tmp_path):
        model = self.make_model(seed=4)
        path = str(tmp_path / "ckpt")
        save_checkpoint(model, path, step=3, code_vocab=self.make_vocab())
        with open(path + ".npz", "rb") as fh:
            blob = fh.read()
        _, saved_manifest = load_checkpoint(path)
        damaged = str(tmp_path / "damaged")

        @settings(max_examples=300, deadline=None)
        @given(st.one_of(
            st.tuples(st.just("flip"), st.integers(0, 8 * len(blob) - 1)),
            st.tuples(st.just("cut"), st.integers(0, len(blob) - 1))))
        def check(damage):
            kind, at = damage
            if kind == "flip":
                data = bytearray(blob)
                data[at // 8] ^= 1 << (at % 8)
            else:
                data = blob[:at]
            with open(damaged + ".npz", "wb") as fh:
                fh.write(bytes(data))
            try:
                loaded, manifest = load_checkpoint(damaged)
            except CheckpointError:
                return
            assert manifest == saved_manifest
            for name in loaded.params:
                assert np.array_equal(loaded.params[name].data,
                                      model.params[name].data)

        check()

    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch):
        path = str(tmp_path / "ckpt")
        save_checkpoint(self.make_model(seed=1), path)
        with open(path + ".npz", "rb") as fh:
            before = fh.read()

        def broken_savez(fh, **members):
            fh.write(b"PK\x03\x04 partial")
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez", broken_savez)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(self.make_model(seed=2), path)
        with open(path + ".npz", "rb") as fh:
            assert fh.read() == before
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt.npz"]


class TestWriteLossLog:
    def test_format(self, tmp_path):
        rows = [(1, LossBreakdown(0.1, 0.2, 0.3, 0.4, 1.0), 14.0)]
        path = tmp_path / "log.csv"
        write_loss_log(rows, str(path))
        lines = path.read_text().splitlines()
        assert lines[0].startswith("step,clip_orig")
        assert lines[1] == "1,0.1,0.2,0.3,0.4,1,14"
