import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vulcontrast import autodiff as ad
from vulcontrast.data import build_vocab, encode, tokenize
from vulcontrast.evaluation import predict
from vulcontrast.fixtures import generate_fixture
from vulcontrast.losses import bce_loss
from vulcontrast.model import DualEncoderModel, EncoderConfig


def p(data, name="p"):
    return ad.parameter(np.asarray(data, dtype=np.float64), name)


class TestForward:
    def test_row_l2_normalize_unit(self):
        out = ad.row_l2_normalize(p([[3.0, 4.0]]))
        assert np.allclose(out.data, [[0.6, 0.8]])

    def test_sigmoid_symmetry_point(self):
        assert ad.sigmoid(p([[0.0]])).item() == 0.5

    def test_row_softmax_uniform(self):
        out = ad.row_softmax(p([[1.0, 1.0, 1.0]]))
        assert np.allclose(out.data, [[1 / 3, 1 / 3, 1 / 3]])

    def test_matmul_shape_error_names_primitive(self):
        with pytest.raises(ad.ShapeError, match="matmul"):
            ad.matmul(p(np.ones((2, 3))), p(np.ones((2, 3))))

    def test_add_shape_error(self):
        with pytest.raises(ad.ShapeError, match="add"):
            ad.add(p(np.ones((2, 3))), p(np.ones((3, 2))))

    @pytest.mark.parametrize("op", ["add", "sub", "mul"])
    @pytest.mark.parametrize("left", [(1, 3), (1, 1)])
    def test_left_operand_broadcast_rejected(self, op, left):
        # only the right operand may be a row vector or a scalar
        with pytest.raises(ad.ShapeError, match=op):
            getattr(ad, op)(p(np.ones(left)), p(np.ones((3, 3))))

    def test_non_finite_rejected(self):
        with pytest.raises(ad.NonFiniteError):
            ad.exp(p([[1000.0]]))

    def test_gelu_is_the_tanh_form(self):
        x = np.linspace(-8.0, 8.0, 1601).reshape(1, -1)
        want = 0.5 * x * (1.0 + np.tanh(np.sqrt(2.0 / np.pi)
                                        * (x + 0.044715 * x ** 3)))
        assert np.max(np.abs(ad.gelu(p(x)).data - want)) < 1e-12

    def test_gelu_within_5e_4_of_the_erf_form(self):
        x = np.linspace(-8.0, 8.0, 1601)
        exact = [v * 0.5 * (1.0 + math.erf(v / math.sqrt(2.0))) for v in x]
        got = ad.gelu(p(x.reshape(1, -1))).data[0]
        assert np.max(np.abs(got - exact)) < 5e-4

    def test_forward_deterministic(self):
        x = np.random.default_rng(0).normal(size=(4, 4))
        a = ad.row_softmax(ad.Tensor(x)).data
        b = ad.row_softmax(ad.Tensor(x)).data
        assert np.array_equal(a, b)


class TestBackward:
    def test_sum_of_squares(self):
        x = p([[1.0, 2.0, 3.0]])
        ad.backward(ad.sum_all(ad.mul(x, x)))
        assert np.allclose(x.grad, [[2.0, 4.0, 6.0]])

    def test_mean_gradient(self):
        x = p([[1.0, 2.0, 3.0, 4.0]])
        ad.backward(ad.mean_all(x))
        assert np.allclose(x.grad, [[0.25] * 4])

    def test_logsumexp_gradient_is_softmax(self):
        x = p([[0.0, 0.0]])
        ad.backward(ad.row_logsumexp(x))
        assert np.allclose(x.grad, [[0.5, 0.5]])

    def test_loss_must_be_scalar(self):
        with pytest.raises(ad.ShapeError, match="scalar"):
            ad.backward(p([[1.0, 2.0]]))

    def test_linearity_of_two_terms(self):
        rng = np.random.default_rng(3)
        data = rng.normal(size=(3, 3))
        x = p(data.copy())
        ad.backward(ad.add(ad.sum_all(ad.mul(x, x)), ad.mean_all(ad.exp(x))))
        combined = x.grad.copy()

        x1 = p(data.copy())
        ad.backward(ad.sum_all(ad.mul(x1, x1)))
        x2 = p(data.copy())
        ad.backward(ad.mean_all(ad.exp(x2)))
        assert np.allclose(combined, x1.grad + x2.grad, atol=1e-12)

    def test_gradient_accumulates_across_backward_calls(self):
        x = p([[1.0, 2.0]])
        ad.backward(ad.sum_all(x))
        ad.backward(ad.sum_all(x))
        assert np.allclose(x.grad, [[2.0, 2.0]])


def walk_without_release(loss):
    """`backward`'s walk, in the same order, releasing nothing."""
    topo, visited, stack = [], set(), [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
        elif id(node) not in visited:
            visited.add(id(node))
            stack.append((node, True))
            stack.extend((q, False) for q in node._prev
                         if id(q) not in visited)
    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


class TestGradRelease:
    def test_non_leaf_grads_freed_and_leaf_grads_bit_equal(self):
        records = generate_fixture(n=8, seed=4)
        vocab = build_vocab(records, "code", 128)
        cfg = EncoderConfig(vocab_size=vocab.size, embed_dim=8, num_blocks=1,
                            num_heads=2, ff_dim=16, max_input_length=64,
                            proj_dim=4)
        seqs = [encode(tokenize(r.code, "code"), vocab, 64) for r in records]

        def run(walk):
            model = DualEncoderModel(cfg, None, seed=3)
            z = model.project(model.encode_batch(seqs, "code"), "code")
            _, probs = model.classify(z)
            loss = bce_loss(probs, [r.label for r in records])
            walk(loss)
            return model, z, loss

        released, z, loss = run(ad.backward)
        kept, kept_z, _ = run(walk_without_release)
        assert z.grad is None and loss.grad is None
        assert kept_z.grad is not None
        for name, param in released.params.items():
            assert param.grad is not None, name
            assert np.array_equal(param.grad, kept.params[name].grad), name


class TestNoGrad:
    def test_backward_without_graph_raises(self):
        x = p([[1.0, 2.0]])
        with ad.no_grad():
            loss = ad.sum_all(ad.mul(x, x))
        assert loss._prev == ()
        with pytest.raises(ad.GradError, match="no graph"):
            ad.backward(loss)
        assert x.grad is None

    def test_second_backward_through_released_graph_raises(self):
        x = p([[1.0, 2.0]])
        loss = ad.sum_all(ad.mul(x, x))
        ad.backward(loss)
        assert np.array_equal(x.grad, [[2.0, 4.0]])
        with pytest.raises(ad.GradError, match="no graph"):
            ad.backward(loss)
        assert np.array_equal(x.grad, [[2.0, 4.0]])

    def test_flag_restored_after_nested_blocks(self):
        assert ad._grad_enabled
        with ad.no_grad():
            with ad.no_grad():
                assert not ad._grad_enabled
            assert not ad._grad_enabled
        assert ad._grad_enabled
        x = p([[1.0]])
        assert ad.exp(x)._prev == (x,)

    def test_flag_restored_after_exception(self):
        with pytest.raises(KeyError):
            with ad.no_grad():
                raise KeyError("inside")
        assert ad._grad_enabled
        with pytest.raises(ad.NonFiniteError):
            with ad.no_grad():
                with ad.no_grad():
                    ad.exp(p([[1000.0]]))
        assert ad._grad_enabled

    def test_non_finite_still_rejected(self):
        with ad.no_grad():
            with pytest.raises(ad.NonFiniteError, match="exp"):
                ad.exp(p([[1000.0]]))

    @pytest.mark.parametrize("batch_size", [1, 32])
    def test_predict_bit_equal_to_graph_building_forward(self, batch_size):
        records = generate_fixture(n=32, seed=5)
        vocab = build_vocab(records, "code", 128)
        cfg = EncoderConfig(vocab_size=vocab.size, embed_dim=8, num_blocks=1,
                            num_heads=2, ff_dim=16, max_input_length=128,
                            proj_dim=4)
        model = DualEncoderModel(cfg, None, seed=2)
        got = [x.probability for x in predict(
            model, records, vocab, max_input_length=128,
            batch_size=batch_size).predictions]
        want = []
        for i in range(0, len(records), batch_size):
            seqs = [encode(tokenize(r.code, "code"), vocab, 128)
                    for r in records[i:i + batch_size]]
            _, probs = model.classify(
                model.project(model.encode_batch(seqs, "code"), "code"))
            assert probs._prev  # the reference did build a graph
            want.extend(float(v) for v in probs.data[:, 0])
        assert got == want


PRIMITIVE_CASES = {
    "matmul": lambda x, y: ad.sum_all(ad.matmul(x, y)),
    "add": lambda x, y: ad.sum_all(ad.mul(ad.add(x, y), ad.add(x, y))),
    "sub": lambda x, y: ad.sum_all(ad.mul(ad.sub(x, y), ad.sub(x, y))),
    "mul": lambda x, y: ad.sum_all(ad.mul(x, y)),
    # a row-vector right operand, as in every bias add
    "add-row-broadcast": lambda x, y: ad.sum_all(
        ad.mul(ad.add(x, ad.mean_pool_rows(y)), x)),
    # a scalar right operand, as in the logit-scale multiply
    "mul-scalar-broadcast": lambda x, y: ad.sum_all(
        ad.mul(ad.mul(x, ad.mean_all(y)), x)),
    "scale": lambda x, y: ad.sum_all(ad.scale(ad.mul(x, y), 1.7)),
    "exp": lambda x, y: ad.sum_all(ad.exp(x)),
    "log": lambda x, y: ad.sum_all(ad.log(ad.add(ad.mul(x, x),
                                                 ad.exp(y)))),
    "transpose": lambda x, y: ad.sum_all(ad.matmul(ad.transpose(x), y)),
    "row-softmax": lambda x, y: ad.sum_all(ad.mul(ad.row_softmax(x), y)),
    "row-log-sum-exp": lambda x, y: ad.sum_all(ad.row_logsumexp(x)),
    "row-l2-normalize": lambda x, y: ad.sum_all(
        ad.mul(ad.row_l2_normalize(x), y)),
    "mean-all": lambda x, y: ad.mean_all(ad.mul(x, y)),
    "sum-all": lambda x, y: ad.sum_all(x),
    "sqdist-rowwise": lambda x, y: ad.sum_all(ad.rowwise_sqdist(x, y)),
    "sigmoid": lambda x, y: ad.sum_all(ad.sigmoid(x)),
    "gelu": lambda x, y: ad.sum_all(ad.gelu(x)),
    "mean-pool-rows": lambda x, y: ad.sum_all(
        ad.mul(ad.mean_pool_rows(x), ad.mean_pool_rows(y))),
    "concat-rows": lambda x, y: ad.sum_all(
        ad.mul(ad.concat_rows([x, y]), ad.concat_rows([y, x]))),
    "clamp": lambda x, y: ad.sum_all(ad.clamp(x, -0.9, 0.9)),
    # q = x, k = y and v = x * y, so the check reaches all three inputs
    "attention": lambda x, y: ad.sum_all(
        ad.mul(ad.attention(x, y, ad.mul(x, y), 0.7), y)),
}


class TestGradCheck:
    @pytest.mark.parametrize("name", sorted(PRIMITIVE_CASES))
    def test_primitive_grad_check(self, name):
        rng = np.random.default_rng(hash(name) % 2 ** 31)
        x = p(rng.uniform(-2, 2, size=(3, 3)), "x")
        y = p(rng.uniform(-2, 2, size=(3, 3)), "y")
        fn = PRIMITIVE_CASES[name]
        err = ad.grad_check(lambda: fn(x, y), [x, y], step=1e-4)
        assert err < 1e-4, f"{name}: max relative error {err}"

    def test_embedding_lookup_gradient(self):
        table = p(np.random.default_rng(5).normal(size=(6, 4)), "table")
        ids = [0, 2, 2, 5]
        err = ad.grad_check(
            lambda: ad.sum_all(ad.mul(ad.embedding_lookup(table, ids),
                                      ad.embedding_lookup(table, ids))),
            [table], step=1e-4)
        assert err < 1e-4

    def test_sigmoid_sum_grad_check(self):
        x = p(np.random.default_rng(7).uniform(-2, 2, size=(2, 5)), "x")
        err = ad.grad_check(lambda: ad.sum_all(ad.sigmoid(x)), [x],
                            step=1e-4)
        assert err < 1e-4

    def test_constant_function_zero_error(self):
        x = p([[1.0, 2.0]], "x")
        c = ad.constant([[5.0]])
        err = ad.grad_check(lambda: ad.sum_all(c), [x], step=1e-4)
        assert err == 0.0

    def test_rejects_nonpositive_step(self):
        x = p([[1.0]], "x")
        with pytest.raises(ValueError):
            ad.grad_check(lambda: ad.sum_all(x), [x], step=0.0)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-2, 2), min_size=2, max_size=6))
def test_softmax_rows_sum_to_one(values):
    out = ad.row_softmax(ad.Tensor(np.array([values])))
    assert abs(out.data.sum() - 1.0) < 1e-12


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-2, 2), min_size=1, max_size=6).filter(
    lambda v: sum(x * x for x in v) > 1e-6))
def test_l2_normalize_rows_unit_norm(values):
    out = ad.row_l2_normalize(ad.Tensor(np.array([values])))
    assert abs(np.linalg.norm(out.data) - 1.0) < 1e-12


def attention_chain(q, k, v, c):
    """The five-node composition that `attention` fuses."""
    return ad.matmul(ad.row_softmax(ad.scale(ad.matmul(q, ad.transpose(k)),
                                             c)), v)


class TestAttention:
    @settings(max_examples=60, deadline=None)
    @given(length=st.integers(1, 40), dh=st.integers(1, 8),
           c=st.floats(-3.0, 3.0), seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_the_chain(self, length, dh, c, seed):
        rng = np.random.default_rng(seed)
        data = [rng.normal(size=(length, dh)) for _ in range(3)]
        weight = ad.constant(rng.normal(size=(length, dh)))
        outs, grads = [], []
        for op in (attention_chain, ad.attention):
            q, k, v = (p(d.copy(), name) for d, name in zip(data, "qkv"))
            out = op(q, k, v, c)
            ad.backward(ad.sum_all(ad.mul(out, weight)))
            outs.append(out.data)
            grads.append([q.grad, k.grad, v.grad])
        assert np.array_equal(outs[0], outs[1])
        for want, got in zip(*grads):
            assert np.max(np.abs(want - got)) <= 1e-12

    @pytest.mark.parametrize("q,k", [
        # one score of -inf in a row whose maximum is finite: softmax
        # would turn it into a probability of 0 and pass
        ([[1e200], [1.0]], [[-1e200], [1.0]]),
        ([[1e200], [1.0]], [[1e200], [1.0]]),   # one score of +inf
        ([[np.nan], [1.0]], [[1.0], [1.0]]),    # a NaN input
    ], ids=["-inf score", "+inf score", "nan input"])
    def test_non_finite_scores_raise_as_in_the_chain(self, q, k):
        v = [[1.0], [2.0]]
        for op in (attention_chain, ad.attention):
            # the overflow is the point; callers silence numpy as here
            with np.errstate(over="ignore"), \
                    pytest.raises(ad.NonFiniteError):
                op(p(q), p(k), p(v), 1.0)

    def test_shape_error_names_primitive(self):
        with pytest.raises(ad.ShapeError, match="attention"):
            ad.attention(p(np.ones((2, 3))), p(np.ones((2, 4))),
                         p(np.ones((2, 4))), 1.0)


def gelu_reference(x):
    """The tanh-form GELU and its derivative as whole-array expressions,
    in the kernel's order."""
    t = np.tanh(ad.GELU_SCALE * (x + ad.GELU_CUBIC * (x * x) * x))
    du = ad.GELU_SCALE * (1.0 + 3.0 * ad.GELU_CUBIC * (x * x))
    return (0.5 * x * (1.0 + t),
            0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=40))
def test_gelu_bit_equal_to_the_formula(values):
    x = p([values])
    y = ad.gelu(x)
    ad.backward(ad.sum_all(y))
    value, slope = gelu_reference(x.data)
    assert np.array_equal(y.data, value)
    assert np.array_equal(x.grad, slope)
