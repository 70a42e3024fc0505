import math

import numpy as np
import pytest

from vulcontrast import autodiff as ad
from vulcontrast.data import TokenSequence, PAD_ID
from vulcontrast.model import (DualEncoderModel, EncoderConfig, ModelError,
                               LOGIT_SCALE_INIT, parameter_table)


def tiny_config(**kw):
    defaults = dict(vocab_size=32, embed_dim=8, num_blocks=1, num_heads=2,
                    ff_dim=16, max_input_length=12, proj_dim=4)
    defaults.update(kw)
    return EncoderConfig(**defaults)


def make_model(seed=0, **kw):
    return DualEncoderModel(tiny_config(**kw), tiny_config(**kw), seed=seed)


def seq(ids, modality="code"):
    return TokenSequence(tokens=list(ids), modality=modality)


class TestInit:
    def test_same_seed_identical_parameters(self):
        a, b = make_model(3), make_model(3)
        for name in a.params:
            assert np.array_equal(a.params[name].data, b.params[name].data)

    def test_logit_scale_initial_value(self):
        model = make_model()
        assert abs(model.logit_scale().item() - LOGIT_SCALE_INIT) < 1e-12
        assert abs(model.params["logit_scale"].data[0, 0]
                   - math.log(14.0)) < 1e-12

    def test_code_only_model_holds_the_code_side(self):
        full = make_model(3)
        code_only = DualEncoderModel(tiny_config(), None, seed=3)
        assert list(code_only.params) == \
            [n for n, _, _ in parameter_table(tiny_config())]
        for name, p in code_only.params.items():
            assert np.array_equal(p.data, full.params[name].data), name
        code_only.encode_batch([seq([2])], "code")
        with pytest.raises(ModelError, match="no text encoder"):
            code_only.encode_batch([seq([2], "text")], "text")
        assert code_only.text_invocations == 0

    @pytest.mark.parametrize("seed", [0, 3])
    def test_code_side_independent_of_text_side(self, seed):
        code_only = DualEncoderModel(tiny_config(), None, seed=seed)
        for text in (tiny_config(), tiny_config(vocab_size=7),
                     tiny_config(vocab_size=500, embed_dim=16, num_blocks=3)):
            full = DualEncoderModel(tiny_config(), text, seed=seed)
            for name, p in code_only.params.items():
                assert np.array_equal(p.data, full.params[name].data), name

    @pytest.mark.parametrize("code,text", [
        (tiny_config(), None),
        (tiny_config(), tiny_config()),
        (tiny_config(num_blocks=0), tiny_config(vocab_size=7, num_heads=4)),
        (tiny_config(num_blocks=3, num_heads=8), tiny_config(embed_dim=16,
                                                             ff_dim=5)),
    ])
    def test_table_lays_out_the_model(self, code, text):
        table = list(parameter_table(code, text))
        params = DualEncoderModel(code, text, seed=5).params
        assert [name for name, _, _ in table] == list(params)
        for name, shape, fill in table:
            assert params[name].data.shape == shape, name
            assert params[name].data.dtype == np.float64, name
            if fill is not None:
                assert np.array_equal(params[name].data,
                                      np.full(shape, fill)), name
        code_only = list(parameter_table(code))
        assert table[:len(code_only)] == code_only
        assert (len(table) > len(code_only)) == (text is not None)

    def test_table_constant_fills(self):
        fills = {name: fill for name, _, fill in
                 parameter_table(tiny_config(), tiny_config())
                 if fill is not None}
        biases = {f"{tag}.block0.{part}" for tag in ("code", "text")
                  for part in ("attn_bias", "ff_b1", "ff_b2")}
        assert fills == {**dict.fromkeys(biases | {"cls.b1", "cls.b2"}, 0.0),
                         "logit_scale": math.log(LOGIT_SCALE_INIT)}

    def test_table_is_lazy(self):
        table = parameter_table(tiny_config(vocab_size=10 ** 10,
                                            num_blocks=10 ** 9))
        assert next(table) == ("code.embed", (10 ** 10, 8), None)
        assert next(table) == ("code.pos", (12, 8), None)
        assert next(table)[0] == "code.block0.head0.wq"

    def test_mismatched_projection_dims_rejected(self):
        with pytest.raises(ModelError, match="projection dimensions"):
            DualEncoderModel(tiny_config(), tiny_config(proj_dim=5))

    def test_parameters_differ_by_name_and_seed(self):
        a, b = make_model(0), make_model(1)
        assert not np.array_equal(a.params["code.embed"].data[:7],
                                  a.params["text.embed"].data[:7])
        assert not np.array_equal(a.params["code.block0.head0.wq"].data,
                                  a.params["code.block0.head0.wk"].data)
        assert not np.array_equal(a.params["proj.code"].data,
                                  b.params["proj.code"].data)

    def test_code_only_model_has_no_text_head(self):
        code_only = DualEncoderModel(tiny_config(), None)
        hidden = code_only.encode_batch([seq([2])], "code")
        with pytest.raises(ModelError, match="no text"):
            code_only.project(hidden, "text")

    def test_code_only_model_has_no_logit_scale(self):
        code_only = DualEncoderModel(tiny_config(), None)
        with pytest.raises(ModelError, match="no logit scale"):
            code_only.logit_scale()

    def test_invalid_config_rejected(self):
        with pytest.raises(ModelError):
            EncoderConfig(vocab_size=16, embed_dim=6, num_heads=4)

    def test_zero_blocks_reduces_to_embedding(self):
        model = make_model(num_blocks=0)
        hidden = model.encode_batch([seq([5])], "code")
        embed = model.params["code.embed"].data[5]
        pos = model.params["code.pos"].data[0]
        assert np.allclose(hidden.data[0], embed + pos, atol=1e-12)

    def test_biases_zero(self):
        model = make_model()
        assert np.all(model.params["cls.b1"].data == 0)
        assert np.all(model.params["code.block0.ff_b1"].data == 0)


class TestEncode:
    def test_batch_matches_sequence_at_a_time(self):
        model = make_model(1)
        seqs = [seq([1, 2, 3]), seq([4, 5]), seq([6])]
        batch = model.encode_batch(seqs, "code").data
        singles = [model.encode_batch([s], "code").data[0] for s in seqs]
        assert np.allclose(batch, np.vstack(singles), atol=1e-9)

    def test_identical_sequences_identical_rows(self):
        model = make_model(1)
        batch = model.encode_batch([seq([1, 2]), seq([1, 2])], "code").data
        assert np.array_equal(batch[0], batch[1])

    def test_permutation_equivariance(self):
        model = make_model(2)
        seqs = [seq([1]), seq([2, 3]), seq([4, 5, 6])]
        fwd = model.encode_batch(seqs, "code").data
        rev = model.encode_batch(seqs[::-1], "code").data
        assert np.allclose(fwd, rev[::-1], atol=1e-12)

    def test_padding_invariance(self):
        model = make_model(4)
        plain = model.encode_batch([seq([3, 7, 2])], "code").data
        padded = model.encode_batch([seq([3, 7, 2, PAD_ID, PAD_ID])],
                                    "code").data
        assert np.allclose(plain, padded, atol=1e-9)

    def test_out_of_vocab_id_rejected(self):
        model = make_model()
        with pytest.raises(ModelError, match="out of range"):
            model.encode_batch([seq([99])], "code")

    def test_too_long_rejected(self):
        model = make_model()
        with pytest.raises(ModelError, match="max input length"):
            model.encode_batch([seq([2] * 13)], "code")

    def test_text_counter_increments_only_for_text(self):
        model = make_model()
        assert model.text_invocations == 0
        model.encode_batch([seq([1])], "code")
        assert model.text_invocations == 0
        model.encode_batch([seq([1], "text")], "text")
        assert model.text_invocations == 1

    def test_default_config_sequence_builds_74_nodes(self, monkeypatch):
        # 4 heads x 2 blocks, one attention node each; the five-node
        # chain it replaced made 106
        model = DualEncoderModel(EncoderConfig(vocab_size=32), None)
        built = []
        node = ad._node
        monkeypatch.setattr(ad, "_node",
                            lambda *args: built.append(args[1]) or node(*args))
        model.encode_batch([seq(range(2, 30))], "code")
        assert built.count("attention") == 8
        assert len(built) == 74 + 1  # and the concat_rows joining the rows


class TestProject:
    def test_identity_head_normalizes(self):
        model = make_model(num_blocks=0, embed_dim=4, num_heads=1,
                           proj_dim=4)
        model.params["proj.code"].data[...] = np.eye(4)
        hidden = ad.constant([[3.0, 4.0, 0.0, 0.0]])
        out = model.project(hidden, "code")
        assert np.allclose(out.data, [[0.6, 0.8, 0.0, 0.0]])

    def test_scale_invariance(self):
        model = make_model(5)
        hidden = ad.constant(np.random.default_rng(0).normal(size=(2, 8)))
        a = model.project(hidden, "code").data
        b = model.project(ad.scale(hidden, 5.0), "code").data
        assert np.allclose(a, b, atol=1e-12)

    def test_matches_brute_force(self):
        model = make_model(6)
        h = np.random.default_rng(1).normal(size=(3, 8))
        out = model.project(ad.constant(h), "code").data
        ref = h @ model.params["proj.code"].data
        ref = ref / np.linalg.norm(ref, axis=1, keepdims=True)
        assert np.allclose(out, ref, atol=1e-12)

    def test_unit_norm_invariant(self):
        model = make_model(7)
        h = np.random.default_rng(2).normal(size=(5, 8))
        out = model.project(ad.constant(h), "code").data
        assert np.allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-6)

    def test_degenerate_embedding_rejected(self):
        model = make_model()
        with pytest.raises(ModelError, match="degenerate"):
            model.project(ad.constant(np.zeros((1, 8))), "code")

    def test_unknown_modality_rejected(self):
        model = make_model()
        with pytest.raises(ModelError, match="unknown modality"):
            model.project(ad.constant(np.ones((1, 8))), "audio")


class TestClassify:
    def test_zero_classifier_gives_half(self):
        model = make_model()
        for name in ("cls.w1", "cls.b1", "cls.w2", "cls.b2"):
            model.params[name].data[...] = 0.0
        z = ad.constant(np.random.default_rng(0).normal(size=(4, 4)))
        _, probs = model.classify(z)
        assert np.allclose(probs.data, 0.5)

    def test_logit_ln3_gives_three_quarters(self):
        model = make_model()
        for name in ("cls.w1", "cls.b1", "cls.w2"):
            model.params[name].data[...] = 0.0
        model.params["cls.b2"].data[...] = math.log(3.0)
        _, probs = model.classify(ad.constant(np.ones((2, 4))))
        assert np.allclose(probs.data, 0.75, atol=1e-12)

    def test_batch_vs_row_at_a_time(self):
        model = make_model(8)
        z = np.random.default_rng(3).normal(size=(3, 4))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        _, batch = model.classify(ad.constant(z))
        rows = [model.classify(ad.constant(z[i:i + 1]))[1].data[0, 0]
                for i in range(3)]
        assert np.allclose(batch.data[:, 0], rows, atol=1e-12)

    def test_counter_untouched_by_classify(self):
        model = make_model()
        before = model.text_invocations
        model.classify(ad.constant(np.ones((1, 4))))
        assert model.text_invocations == before

    def test_dimension_mismatch_rejected(self):
        model = make_model()
        with pytest.raises(ModelError):
            model.classify(ad.constant(np.ones((1, 9))))
