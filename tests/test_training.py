import json
import math

import numpy as np
import pytest

from vulcontrast import autodiff as ad
from vulcontrast.comments import ProviderConfig, attach_comments
from vulcontrast.data import build_vocab, encode, tokenize
from vulcontrast.fixtures import generate_fixture
from vulcontrast.losses import LossBreakdown, bce_loss
from vulcontrast.model import DualEncoderModel, EncoderConfig
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
        opt = AdamOptimizer({"p": p}, lr=0.1, weight_decay=0.0)
        opt.step()
        assert np.array_equal(p.data, [[2.0, -3.0]])

    def test_decoupled_decay_shrinks_weights(self):
        p = ad.parameter(np.array([[2.0, -4.0]]), "p")
        opt = AdamOptimizer({"p": p}, lr=0.1, weight_decay=0.01)
        opt.step()
        assert np.allclose(p.data, np.array([[2.0, -4.0]]) * (1 - 0.001),
                           atol=1e-15)

    def test_step_zeroes_gradients(self):
        p = ad.parameter(np.ones((2, 2)), "p")
        p.grad = np.ones((2, 2))
        opt = AdamOptimizer({"p": p}, lr=0.1)
        opt.step()
        assert np.all(p.grad == 0)

    def test_non_finite_gradient_rejected(self):
        p = ad.parameter(np.ones((1, 1)), "p")
        p.grad = np.array([[np.nan]])
        opt = AdamOptimizer({"p": p}, lr=0.1)
        with pytest.raises(TrainError, match="non-finite"):
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

    def test_disable_aug_alignment(self):
        cfg = small_config(disable_aug_alignment=True)
        assert cfg.weights.clip_aug == 0.0
        assert cfg.weights.clip_orig == 0.5

    def test_disable_consistency(self):
        cfg = small_config(disable_consistency=True)
        assert cfg.weights.consistency == 0.0
        assert cfg.weights.clip_aug == 0.5

    def test_invalid_config_rejected(self):
        with pytest.raises(TrainError):
            small_config(batch_size=0)

    def test_alpha_outside_unit_interval_rejected(self):
        for alpha in (1.5, -0.3):
            with pytest.raises(TrainError, match="alpha"):
                small_config(alpha=alpha)


class TestTrainLoop:
    def test_missing_comment_rejected(self):
        records = generate_fixture(n=4, seed=1)
        with pytest.raises(TrainError, match="no comment"):
            train(records, [], small_config())

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

    def test_full_objective_invokes_text_encoder(self):
        records = small_records(n=8)
        result, _ = train(records, [], small_config(epochs=1))
        assert result.model.text_invocations > 0

    def test_best_f1_snapshot_tracked(self):
        records = small_records(n=16)
        val = small_records(n=8, seed=11)
        result, _ = train(val, val, small_config(fine_tuning_only=True,
                                                 select_best_f1=True))
        assert 0.0 <= result.best_f1 <= 1.0
        assert 0 <= result.best_epoch < 2
        assert result.best_model_params is not None

    def test_loss_log_written(self, tmp_path):
        records = small_records(n=8)
        path = tmp_path / "loss.csv"
        train(records, [], small_config(epochs=1), log_path=str(path))
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
                    g = (p.grad if p.grad is not None
                         else np.zeros_like(p.data)) * scale
                    p.data -= cfg.learning_rate * cfg.weight_decay * p.data
                    m[name] = ADAM_BETA1 * m[name] + (1 - ADAM_BETA1) * g
                    v[name] = (ADAM_BETA2 * v[name]
                               + (1 - ADAM_BETA2) * g * g)
                    p.data -= (cfg.learning_rate * (m[name] / bc1)
                               / (np.sqrt(v[name] / bc2) + ADAM_EPS))
                    p.grad = np.zeros_like(p.data)
        return model

    def test_step_for_step_equality(self):
        records = small_records(n=12)
        cfg = small_config(fine_tuning_only=True)
        result, _ = train(records, [], cfg)
        oracle = self.manual_loop(records, cfg)
        for name in oracle.params:
            assert np.allclose(result.model.params[name].data,
                               oracle.params[name].data, atol=1e-12), name


class TestCheckpoint:
    def make_model(self, seed=0):
        cfg = EncoderConfig(vocab_size=16, embed_dim=8, num_blocks=1,
                            num_heads=2, ff_dim=16, max_input_length=12,
                            proj_dim=4)
        return DualEncoderModel(cfg, cfg, seed=seed)

    def test_round_trip_exact(self, tmp_path):
        model = self.make_model(seed=9)
        # make values non-trivial
        for p in model.params.values():
            p.data += 0.01
        path = str(tmp_path / "ckpt")
        save_checkpoint(model, path, step=42)
        loaded, manifest = load_checkpoint(path)
        assert manifest["step"] == 42
        for name in model.params:
            assert np.array_equal(loaded.params[name].data,
                                  model.params[name].data)

    def test_fresh_counter_after_load(self, tmp_path):
        model = self.make_model()
        from vulcontrast.data import TokenSequence
        model.encode_batch([TokenSequence(tokens=[2], modality="text")],
                           "text")
        path = str(tmp_path / "ckpt")
        save_checkpoint(model, path)
        loaded, _ = load_checkpoint(path)
        assert loaded.text_invocations == 0

    def test_unsupported_version_rejected(self, tmp_path):
        model = self.make_model()
        path = str(tmp_path / "ckpt")
        save_checkpoint(model, path)
        manifest_path = path + ".manifest.json"
        manifest = json.loads(open(manifest_path).read())
        manifest["version"] = 99
        open(manifest_path, "w").write(json.dumps(manifest))
        with pytest.raises(CheckpointError, match="version 99"):
            load_checkpoint(path)

    def test_missing_parameter_rejected(self, tmp_path):
        model = self.make_model()
        path = str(tmp_path / "ckpt")
        save_checkpoint(model, path)
        manifest_path = path + ".manifest.json"
        manifest = json.loads(open(manifest_path).read())
        del manifest["parameters"]["logit_scale"]
        open(manifest_path, "w").write(json.dumps(manifest))
        with pytest.raises(CheckpointError, match="logit_scale"):
            load_checkpoint(path)

    def test_truncated_payload_rejected(self, tmp_path):
        model = self.make_model()
        path = str(tmp_path / "ckpt")
        save_checkpoint(model, path)
        bin_path = path + ".params.bin"
        payload = open(bin_path, "rb").read()
        open(bin_path, "wb").write(payload[:-8])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_shape_mismatch_rejected(self, tmp_path):
        model = self.make_model()
        path = str(tmp_path / "ckpt")
        save_checkpoint(model, path)
        manifest_path = path + ".manifest.json"
        manifest = json.loads(open(manifest_path).read())
        meta = manifest["parameters"]["proj.code"]
        meta["shape"] = meta["shape"][::-1]
        open(manifest_path, "w").write(json.dumps(manifest))
        with pytest.raises(CheckpointError, match="shape mismatch"):
            load_checkpoint(path)


class TestWriteLossLog:
    def test_format(self, tmp_path):
        rows = [(1, LossBreakdown(0.1, 0.2, 0.3, 0.4, 1.0), 14.0)]
        path = tmp_path / "log.csv"
        write_loss_log(rows, str(path))
        lines = path.read_text().splitlines()
        assert lines[0].startswith("step,clip_orig")
        assert lines[1] == "1,0.1,0.2,0.3,0.4,1,14"
