"""Minimal reverse-mode autodiff over dense float64 matrices.

Everything is a 2-D array; scalars are shape (1, 1). The primitive set is
exactly what the training objectives need: matmul, elementwise arithmetic,
exp/log, softmax/log-sum-exp per row, one head of scaled dot-product
attention (`attention`), l2 normalization, pooling, embedding lookup,
sigmoid/gelu, row concatenation and a clamp.

Inside `no_grad()` the primitives compute values but record no graph, and
`backward` releases each node's graph as it walks it, so a graph can be
differentiated once.
"""

from __future__ import annotations

import contextlib

import numpy as np

GELU_SCALE = float(np.sqrt(2.0 / np.pi))
GELU_CUBIC = 0.044715


class ShapeError(ValueError):
    pass


class NonFiniteError(FloatingPointError):
    pass


class GradError(RuntimeError):
    pass


def _as_matrix(data):
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(1, -1)
    elif arr.ndim != 2:
        raise ShapeError(f"only rank-2 tensors supported, got shape {arr.shape}")
    return arr


class Tensor:
    """A node in the computation graph. data is a (rows, cols) float64 array."""

    __slots__ = ("data", "grad", "name", "_prev", "_backward")

    def __init__(self, data, name=None):
        self.data = _as_matrix(data)
        self.grad = None
        self.name = name
        self._prev = ()
        self._backward = None

    def item(self):
        if self.data.size != 1:
            raise ShapeError(f"item() on non-scalar tensor of shape {self.data.shape}")
        return float(self.data[0, 0])

    def __repr__(self):
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}{tag})"


def parameter(data, name):
    """A named leaf tensor; its gradient accumulates across backward calls
    from None, until the optimizer step resets it."""
    return Tensor(data, name=name)


def _check_finite(arr, op):
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError(f"non-finite values produced by {op}")
    return arr


def _no_graph(g):
    raise GradError("no graph to differentiate: built under no_grad() or "
                    "already released by backward()")


_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Build no graph inside the block; nestable. The flag is one module
    global, so autodiff runs on one thread."""
    global _grad_enabled
    previous, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = previous


def _node(data, op, prev, backward):
    out = Tensor(_check_finite(_as_matrix(data), op))
    if _grad_enabled:
        out._prev, out._backward = prev, backward
    else:
        out._backward = _no_graph
    return out


def _accum(t, g):
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


# ---------------------------------------------------------------- primitives

def matmul(a, b):
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul: {a.data.shape} x {b.data.shape}")
    y = a.data @ b.data

    def backward(g):
        _accum(a, g @ b.data.T)
        _accum(b, a.data.T @ g)

    return _node(y, "matmul", (a, b), backward)


def _binary_shapes(a, b, op):
    """`b` has `a`'s shape, or is a row vector or scalar broadcast over it."""
    sa, sb = a.data.shape, b.data.shape
    if sb not in (sa, (1, sa[1]), (1, 1)):
        raise ShapeError(f"{op}: incompatible shapes {sa} and {sb}")


def _reduce_to(g, shape):
    if g.shape == shape:
        return g
    out = g
    if shape[0] == 1 and g.shape[0] != 1:
        out = out.sum(axis=0, keepdims=True)
    if shape[1] == 1 and out.shape[1] != 1:
        out = out.sum(axis=1, keepdims=True)
    return out


def add(a, b):
    _binary_shapes(a, b, "add")
    y = a.data + b.data

    def backward(g):
        _accum(a, _reduce_to(g, a.data.shape))
        _accum(b, _reduce_to(g, b.data.shape))

    return _node(y, "add", (a, b), backward)


def sub(a, b):
    _binary_shapes(a, b, "sub")
    y = a.data - b.data

    def backward(g):
        _accum(a, _reduce_to(g, a.data.shape))
        _accum(b, _reduce_to(-g, b.data.shape))

    return _node(y, "sub", (a, b), backward)


def mul(a, b):
    _binary_shapes(a, b, "mul")
    y = a.data * b.data

    def backward(g):
        _accum(a, _reduce_to(g * b.data, a.data.shape))
        _accum(b, _reduce_to(g * a.data, b.data.shape))

    return _node(y, "mul", (a, b), backward)


def scale(a, c):
    c = float(c)
    y = a.data * c

    def backward(g):
        _accum(a, g * c)

    return _node(y, "scale", (a,), backward)


def exp(a):
    with np.errstate(over="ignore"):
        y = np.exp(a.data)

    def backward(g):
        _accum(a, g * y)

    return _node(y, "exp", (a,), backward)


def log(a):
    if np.any(a.data <= 0):
        raise NonFiniteError("log of non-positive value")
    y = np.log(a.data)

    def backward(g):
        _accum(a, g / a.data)

    return _node(y, "log", (a,), backward)


def transpose(a):
    y = a.data.T

    def backward(g):
        _accum(a, g.T)

    return _node(y, "transpose", (a,), backward)


def clamp(a, lo, hi):
    y = np.clip(a.data, lo, hi)
    inside = ((a.data > lo) & (a.data < hi)).astype(np.float64)

    def backward(g):
        _accum(a, g * inside)

    return _node(y, "clamp", (a,), backward)


def row_softmax(a):
    shifted = a.data - a.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=1, keepdims=True)

    def backward(g):
        dot = (g * y).sum(axis=1, keepdims=True)
        _accum(a, y * (g - dot))

    return _node(y, "row-softmax", (a,), backward)


def attention(q, k, v, c):
    """`softmax(c · q kᵀ) v` as one node: one head of scaled dot-product
    attention. It computes what `matmul(row_softmax(scale(matmul(q,
    transpose(k)), c)), v)` does, operation for operation, so values and
    gradients are the same bits; the L×L buffer is reused in place."""
    c = float(c)
    if (q.data.shape[1] != k.data.shape[1]
            or k.data.shape[0] != v.data.shape[0]):
        raise ShapeError(f"attention: q {q.data.shape}, k {k.data.shape}, "
                         f"v {v.data.shape}")
    probs = q.data @ k.data.T
    probs *= c
    top = probs.max(axis=1, keepdims=True)
    # a NaN or +inf shows in the row maxima; a lone -inf only in the minimum
    if not (np.all(np.isfinite(top)) and np.isfinite(probs.min())):
        raise NonFiniteError("non-finite values produced by attention scores")
    probs -= top
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=1, keepdims=True)

    def backward(g):
        dp = g @ v.data.T
        dot = (dp * probs).sum(axis=1, keepdims=True)
        dp -= dot
        dp *= probs
        dp *= c
        _accum(q, dp @ k.data)
        _accum(k, (q.data.T @ dp).T)
        _accum(v, probs.T @ g)

    return _node(probs @ v.data, "attention", (q, k, v), backward)


def row_logsumexp(a):
    m = a.data.max(axis=1, keepdims=True)
    e = np.exp(a.data - m)
    s = e.sum(axis=1, keepdims=True)
    y = m + np.log(s)
    soft = e / s

    def backward(g):
        _accum(a, g * soft)

    return _node(y, "row-log-sum-exp", (a,), backward)


def row_l2_normalize(a):
    norms = np.sqrt((a.data ** 2).sum(axis=1, keepdims=True))
    if np.any(norms <= 1e-300):
        raise NonFiniteError("row-l2-normalize: zero-norm row")
    y = a.data / norms

    def backward(g):
        dot = (g * y).sum(axis=1, keepdims=True)
        _accum(a, (g - y * dot) / norms)

    return _node(y, "row-l2-normalize", (a,), backward)


def sum_all(a):
    y = a.data.sum()

    def backward(g):
        _accum(a, np.full_like(a.data, g[0, 0]))

    return _node(y, "sum-all", (a,), backward)


def mean_all(a):
    n = a.data.size
    y = a.data.sum() / n

    def backward(g):
        _accum(a, np.full_like(a.data, g[0, 0] / n))

    return _node(y, "mean-all", (a,), backward)


def rowwise_sqdist(a, b):
    if a.data.shape != b.data.shape:
        raise ShapeError(
            f"squared-l2-distance-rowwise: {a.data.shape} vs {b.data.shape}")
    diff = a.data - b.data
    y = (diff ** 2).sum(axis=1, keepdims=True)

    def backward(g):
        _accum(a, 2.0 * diff * g)
        _accum(b, -2.0 * diff * g)

    return _node(y, "squared-l2-distance-rowwise", (a, b), backward)


def sigmoid(a):
    y = np.where(a.data >= 0,
                 1.0 / (1.0 + np.exp(-np.abs(a.data))),
                 np.exp(-np.abs(a.data)) / (1.0 + np.exp(-np.abs(a.data))))

    def backward(g):
        _accum(a, g * y * (1.0 - y))

    return _node(y, "sigmoid", (a,), backward)


def gelu(a):
    """Tanh-form GELU (Hendrycks & Gimpel 2016); the cube is multiplied
    out, as numpy computes `x ** 3` one element at a time. The forward
    pass runs each step of `0.5 x (1 + tanh(s (x + c x² x)))` in place, in
    that order."""
    x = a.data
    x2 = x * x
    t = GELU_CUBIC * x2
    t *= x
    t += x
    t *= GELU_SCALE
    np.tanh(t, out=t)
    y = 1.0 + t
    y *= 0.5 * x

    def backward(g):
        du = GELU_SCALE * (1.0 + 3.0 * GELU_CUBIC * x2)
        _accum(a, g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du))

    return _node(y, "gelu", (a,), backward)


def embedding_lookup(table, ids):
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 1 or ids.size < 1:
        raise ShapeError("embedding-lookup: ids must be a non-empty 1-D index list")
    if ids.min() < 0 or ids.max() >= table.data.shape[0]:
        raise ShapeError(
            f"embedding-lookup: id out of range for table with "
            f"{table.data.shape[0]} rows")

    def backward(g):
        if table.grad is None:
            table.grad = np.zeros_like(table.data)
        np.add.at(table.grad, ids, g)

    return _node(table.data[ids], "embedding-lookup", (table,), backward)


def mean_pool_rows(a):
    n = a.data.shape[0]
    y = a.data.mean(axis=0, keepdims=True)

    def backward(g):
        _accum(a, np.repeat(g / n, n, axis=0))

    return _node(y, "mean-pool-rows", (a,), backward)


def concat_rows(tensors):
    tensors = list(tensors)
    if not tensors:
        raise ShapeError("concat-rows: empty input")
    cols = tensors[0].data.shape[1]
    for t in tensors:
        if t.data.shape[1] != cols:
            raise ShapeError(
                f"concat-rows: column mismatch {t.data.shape} vs (*, {cols})")
    y = np.concatenate([t.data for t in tensors], axis=0)
    offsets = np.cumsum([0] + [t.data.shape[0] for t in tensors])

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            _accum(t, g[lo:hi])

    return _node(y, "concat-rows", tuple(tensors), backward)


def constant(data):
    return Tensor(data)


# ----------------------------------------------------------------- backward

def backward(loss):
    """Accumulate d(loss)/d(leaf) into every reachable leaf's .grad. Each
    non-leaf node is released once walked: its graph and its .grad are
    dropped, so a second call through it raises `GradError`."""
    if loss.data.size != 1:
        raise ShapeError(f"backward: loss must be scalar, got {loss.data.shape}")
    topo = []
    visited = set()
    stack = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._prev:
            if id(p) not in visited:
                stack.append((p, False))
    _accum(loss, np.ones_like(loss.data))
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
            node._prev, node._backward, node.grad = (), _no_graph, None


# --------------------------------------------------------------- grad check

def grad_check(fn, params, step=1e-4):
    """Max relative error between analytic and central-difference gradients.

    fn takes no arguments, reads the given parameter tensors and returns a
    scalar Tensor. Relative error uses max(1, |numeric|) in the denominator.
    """
    if step <= 0:
        raise ValueError("grad_check: step must be positive")
    for p in params:
        p.grad = np.zeros_like(p.data)
    out = fn()
    if not np.all(np.isfinite(out.data)):
        raise NonFiniteError("grad_check: non-finite function value")
    backward(out)
    analytic = [p.grad.copy() for p in params]

    worst = 0.0
    for p, ana in zip(params, analytic):
        flat = p.data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi = fn().item()
            flat[i] = orig - step
            lo = fn().item()
            flat[i] = orig
            num = (hi - lo) / (2.0 * step)
            err = abs(ana.reshape(-1)[i] - num) / max(1.0, abs(num))
            worst = max(worst, err)
    for p in params:
        p.grad = np.zeros_like(p.data)
    return worst
