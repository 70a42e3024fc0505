"""Outside-in tracing of the vulcontrast layers.

The library is not changed: `instrument(tracer)` swaps the public names
that the calling module looks up for timing wrappers and puts the
originals back on exit. A name is wrapped where it is called from, since
`training` imports `encode`, `augment_tokens`, `similarity_matrix` and
`total_loss` by name, and `evaluation` imports `tokenize` and `encode`.

Two kinds of span exist:

* layer spans, kept one by one as (name, start, end, parent, agg_child);
* aggregated spans (autodiff primitives forward and backward, garbage
  collection), of which about a million occur per run. They keep only a
  per-name call count and self time; their duration is added to the
  `agg_child` field of the layer span that was open around them.

The self time of a layer span is its duration, minus the durations of its
layer children (found through the parent field), minus `agg_child`. Every
interval inside a root span is thus counted exactly once, so the self
times of all spans add up to the wall time of the root spans.
"""

from __future__ import annotations

import contextlib
import gc
import time
from collections import defaultdict

from vulcontrast import (augment, autodiff, comments, data, evaluation,
                         losses, model, training)

# Every public autodiff function that adds a node to the graph.
PRIMITIVES = ("matmul", "add", "sub", "mul", "scale", "exp", "log",
              "transpose", "clamp", "row_softmax", "row_logsumexp",
              "row_l2_normalize", "sum_all", "mean_all", "rowwise_sqdist",
              "sigmoid", "gelu", "embedding_lookup", "mean_pool_rows",
              "concat_rows")

# Primitives reported one by one; the rest are summed as "other".
REPORTED_PRIMITIVES = ("matmul", "add", "scale", "transpose", "row_softmax",
                       "row_l2_normalize", "gelu", "embedding_lookup",
                       "mean_pool_rows", "concat_rows")


class Tracer:
    """Span recorder. All times come from `clock` (seconds)."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        # [name, start, end, parent index or -1, aggregated child seconds]
        self.spans = []
        self._open = []
        # aggregated-child accumulator per open frame; the base entry
        # collects time spent outside every span and is never reported
        self._acc = [0.0]
        self.agg_calls = defaultdict(int)
        self.agg_self = defaultdict(float)
        self.nodes = 0
        self.counts = defaultdict(int)

    # ------------------------------------------------------ layer spans
    def begin(self, name):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, self.clock(), None, parent, 0.0])
        self._open.append(idx)
        self._acc.append(0.0)
        return idx

    def end(self, idx):
        span = self.spans[idx]
        span[2] = self.clock()
        span[4] = self._acc.pop()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    # ------------------------------------------------- aggregated spans
    def call_aggregated(self, name, fn, *args, **kwargs):
        clock = self.clock
        acc = self._acc
        acc.append(0.0)
        t0 = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = clock() - t0
            nested = acc.pop()
            acc[-1] += dur
            self.agg_calls[name] += 1
            self.agg_self[name] += dur - nested

    def _gc_callback(self, phase, info):
        if phase == "start":
            self._gc_t0 = self.clock()
        elif phase == "stop":
            dur = self.clock() - self._gc_t0
            self._acc[-1] += dur
            self.agg_calls["runtime.gc"] += 1
            self.agg_self["runtime.gc"] += dur

    # ---------------------------------------------------------- results
    def self_times(self):
        """Per-name (calls, self seconds) over layer and aggregated spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = defaultdict(int)
        selfs = defaultdict(float)
        for i, (name, start, end, _, agg) in enumerate(self.spans):
            calls[name] += 1
            selfs[name] += (end - start) - child[i] - agg
        for name, n in self.agg_calls.items():
            calls[name] += n
            selfs[name] += self.agg_self[name]
        return calls, selfs

    def root_wall(self):
        """Summed duration of the spans that have no parent."""
        return sum(end - start for _, start, end, parent, _ in self.spans
                   if parent < 0)


# ------------------------------------------------------------- patching

def _layer(tracer, name, fn):
    def wrapper(*args, **kwargs):
        idx = tracer.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(idx)
    return wrapper


def _primitive(tracer, op, fn):
    fwd_name = f"autodiff.{op}.fwd"
    bwd_name = f"autodiff.{op}.bwd"

    def timed_backward(orig):
        def backward(g):
            return tracer.call_aggregated(bwd_name, orig, g)
        return backward

    def wrapper(*args, **kwargs):
        out = tracer.call_aggregated(fwd_name, fn, *args, **kwargs)
        tracer.nodes += 1
        if out._backward is not None:
            out._backward = timed_backward(out._backward)
        return out
    return wrapper


def _encode_batch(tracer, fn):
    def wrapper(self, sequences, modality):
        idx = tracer.begin(f"model.encode_batch.{modality}")
        try:
            return fn(self, sequences, modality)
        finally:
            tracer.end(idx)
    return wrapper


def _predict(tracer, fn):
    def wrapper(model_, records, *args, **kwargs):
        nodes_before = tracer.nodes
        idx = tracer.begin("evaluation.predict")
        try:
            return fn(model_, records, *args, **kwargs)
        finally:
            tracer.end(idx)
            tracer.counts["predict.nodes"] += tracer.nodes - nodes_before
            tracer.counts["predict.functions"] += len(records)
    return wrapper


def _http_post(tracer, fn):
    def wrapper(*args, **kwargs):
        idx = tracer.begin("comments.http_post")
        tracer.counts["http.attempts"] += 1
        try:
            resp = fn(*args, **kwargs)
        finally:
            tracer.end(idx)
        if resp.status_code == 200:
            tracer.counts["http.ok"] += 1
        return resp
    return wrapper


class _ModuleProxy:
    """Stands in for a module inside one calling module, overriding some
    of its attributes and delegating the rest."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


@contextlib.contextmanager
def patched(patches):
    """Set each (owner, attribute, value) and restore the originals."""
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, value in patches:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def _patch_list(tracer):
    t = tracer
    wrapped_tokenize = _layer(t, "data.tokenize", data.tokenize)
    wrapped_encode = _layer(t, "data.encode", data.encode)
    wrapped_build_vocab = _layer(t, "data.build_vocab", data.build_vocab)
    patches = [(autodiff, op, _primitive(t, op, getattr(autodiff, op)))
               for op in PRIMITIVES]
    patches += [
        (autodiff, "backward",
         _layer(t, "autodiff.backward", autodiff.backward)),
        (data, "tokenize", wrapped_tokenize),
        (data, "encode", wrapped_encode),
        (data, "build_vocab", wrapped_build_vocab),
        (training, "tokenize", wrapped_tokenize),
        (training, "encode", wrapped_encode),
        (training, "build_vocab", wrapped_build_vocab),
        (evaluation, "tokenize", wrapped_tokenize),
        (evaluation, "encode", wrapped_encode),
        (comments, "tokenize", wrapped_tokenize),
        (training, "augment_tokens",
         _layer(t, "augment.augment_tokens", augment.augment_tokens)),
        (training, "similarity_matrix",
         _layer(t, "losses.similarity_matrix", losses.similarity_matrix)),
        (training, "total_loss",
         _layer(t, "losses.total_loss", losses.total_loss)),
        (training, "train", _layer(t, "training.train", training.train)),
        (training, "save_checkpoint",
         _layer(t, "training.save_checkpoint", training.save_checkpoint)),
        (training, "load_checkpoint",
         _layer(t, "training.load_checkpoint", training.load_checkpoint)),
        (training.AdamOptimizer, "step",
         _layer(t, "training.adam_step", training.AdamOptimizer.step)),
        (training.AdamOptimizer, "clip_gradients",
         _layer(t, "training.clip_gradients",
                training.AdamOptimizer.clip_gradients)),
        (model.DualEncoderModel, "encode_batch",
         _encode_batch(t, model.DualEncoderModel.encode_batch)),
        (model.DualEncoderModel, "project",
         _layer(t, "model.project", model.DualEncoderModel.project)),
        (model.DualEncoderModel, "classify",
         _layer(t, "model.classify", model.DualEncoderModel.classify)),
        (evaluation, "predict", _predict(t, evaluation.predict)),
        (comments, "attach_comments",
         _layer(t, "comments.attach_comments", comments.attach_comments)),
        (comments, "requests", _ModuleProxy(
            comments.requests, post=_http_post(t, comments.requests.post))),
        (comments, "time", _ModuleProxy(
            comments.time,
            sleep=_layer(t, "comments.backoff", comments.time.sleep))),
    ]
    return patches


@contextlib.contextmanager
def instrument(tracer):
    """Route every layer call through `tracer` while the block runs.

    Callers reach the library through module attributes (for example
    `training.train`, `evaluation.predict`), so they get the wrappers.
    """
    gc.callbacks.append(tracer._gc_callback)
    try:
        with patched(_patch_list(tracer)):
            yield tracer
    finally:
        gc.callbacks.remove(tracer._gc_callback)


def layer_metrics(tracer, steps):
    """Per-layer metrics from a finished trace, as {name: (value, unit)}.

    `steps` is the number of optimizer steps traced (0 if none).
    """
    calls, selfs = tracer.self_times()
    c = tracer.counts
    out = {}

    pred_nodes = c["predict.nodes"]
    step_nodes = tracer.nodes - pred_nodes
    out["autodiff.nodes_per_step"] = (step_nodes / steps if steps else 0.0,
                                      "count")
    out["autodiff.nodes_per_fn"] = (
        pred_nodes / c["predict.functions"] if c["predict.functions"]
        else 0.0, "count")
    other = [op for op in PRIMITIVES if op not in REPORTED_PRIMITIVES]
    for op, members in [(op, (op,)) for op in REPORTED_PRIMITIVES] + \
            [("other", other)]:
        out[f"autodiff.{op}.calls"] = (
            sum(calls[f"autodiff.{m}.fwd"] for m in members), "count")
        out[f"autodiff.{op}.fwd_s"] = (
            sum(selfs[f"autodiff.{m}.fwd"] for m in members), "s")
        out[f"autodiff.{op}.bwd_s"] = (
            sum(selfs[f"autodiff.{m}.bwd"] for m in members), "s")
    out["autodiff.backward.s"] = (selfs["autodiff.backward"], "s")

    for modality in ("code", "text"):
        name = f"model.encode_batch.{modality}"
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.s"] = (selfs[name], "s")
    out["model.project.s"] = (selfs["model.project"], "s")
    out["model.classify.s"] = (selfs["model.classify"], "s")

    out["losses.similarity_matrix.s"] = (selfs["losses.similarity_matrix"],
                                         "s")
    out["losses.total_loss.s"] = (selfs["losses.total_loss"], "s")
    out["augment.augment_tokens.calls"] = (calls["augment.augment_tokens"],
                                           "count")
    out["augment.augment_tokens.s"] = (selfs["augment.augment_tokens"], "s")
    for name in ("data.tokenize", "data.encode"):
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.s"] = (selfs[name], "s")
    out["data.build_vocab.s"] = (selfs["data.build_vocab"], "s")

    out["training.train.s"] = (selfs["training.train"], "s")
    out["training.adam_step.s"] = (selfs["training.adam_step"], "s")
    out["training.clip_gradients.s"] = (selfs["training.clip_gradients"], "s")
    out["training.save_checkpoint.s"] = (selfs["training.save_checkpoint"],
                                         "s")
    out["training.load_checkpoint.s"] = (selfs["training.load_checkpoint"],
                                         "s")
    out["evaluation.predict.s"] = (selfs["evaluation.predict"], "s")

    attempts = c["http.attempts"]
    ok = c["http.ok"]
    out["comments.attach_comments.s"] = (selfs["comments.attach_comments"],
                                         "s")
    out["comments.http_requests"] = (attempts, "count")
    out["comments.http_retries"] = (attempts - ok, "count")
    out["comments.useful_ratio"] = (ok / attempts if attempts else 0.0,
                                    "ratio")
    out["comments.http_post.s"] = (selfs["comments.http_post"], "s")
    out["comments.backoff_s"] = (selfs["comments.backoff"], "s")

    out["runtime.gc.s"] = (selfs["runtime.gc"], "s")
    out["runtime.gc.collections"] = (calls["runtime.gc"], "count")
    return out
