"""Minimal reverse-mode autodiff over dense float64 matrices.

Everything is a 2-D array; scalars are shape (1, 1). The primitive set is
exactly what the training objectives need: matmul, elementwise arithmetic,
exp/log, softmax/log-sum-exp per row, l2 normalization, pooling, embedding
lookup, sigmoid/gelu, row concatenation and a clamp.
"""

from __future__ import annotations

import numpy as np
from scipy.special import erf

SQRT2 = float(np.sqrt(2.0))
INV_SQRT2PI = float(1.0 / np.sqrt(2.0 * np.pi))


class ShapeError(ValueError):
    pass


class NonFiniteError(FloatingPointError):
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

    def __init__(self, data, prev=(), name=None):
        self.data = _as_matrix(data)
        self.grad = None
        self.name = name
        self._prev = prev
        self._backward = None

    def item(self):
        if self.data.size != 1:
            raise ShapeError(f"item() on non-scalar tensor of shape {self.data.shape}")
        return float(self.data[0, 0])

    def __repr__(self):
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}{tag})"


def parameter(data, name):
    """A named leaf tensor whose gradient persists across backward calls."""
    t = Tensor(data, name=name)
    t.grad = np.zeros_like(t.data)
    return t


def _check_finite(arr, op):
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError(f"non-finite values produced by {op}")
    return arr


def _node(data, op, prev, backward):
    out = Tensor(_check_finite(_as_matrix(data), op), prev=prev)
    out._backward = backward
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
    sa, sb = a.data.shape, b.data.shape
    if sa == sb:
        return None
    # row-vector broadcast over rows, or scalar broadcast
    if sb == (1, 1) or (sb[0] == 1 and sb[1] == sa[1]):
        return "b"
    if sa == (1, 1) or (sa[0] == 1 and sa[1] == sb[1]):
        return "a"
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
    x = a.data
    phi = 0.5 * (1.0 + erf(x / SQRT2))
    y = x * phi

    def backward(g):
        pdf = INV_SQRT2PI * np.exp(-0.5 * x ** 2)
        _accum(a, g * (phi + x * pdf))

    return _node(y, "gelu", (a,), backward)


def embedding_lookup(table, ids):
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 1 or ids.size < 1:
        raise ShapeError("embedding-lookup: ids must be a non-empty 1-D index list")
    if ids.min() < 0 or ids.max() >= table.data.shape[0]:
        raise ShapeError(
            f"embedding-lookup: id out of range for table with "
            f"{table.data.shape[0]} rows")
    y = table.data[ids]

    def backward(g):
        if table.grad is None:
            table.grad = np.zeros_like(table.data)
        np.add.at(table.grad, ids, g)

    out = Tensor(_check_finite(y, "embedding-lookup"), prev=(table,))
    out._backward = backward
    return out


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
    """Accumulate d(loss)/d(leaf) into every reachable tensor's .grad."""
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
