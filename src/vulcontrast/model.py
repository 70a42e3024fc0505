"""Dual encoders over code and text, projection heads into a shared space,
a learnable logit scale and the binary classifier head.

Each encoder is a small pre-norm transformer: embedding lookup, N blocks of
multi-head self-attention + feed-forward, mean pooling over the sequence.

An encoder call packs its sequences: consecutive sequences are stacked
row-wise into groups of at most `ROW_BUDGET` rows (a longer sequence is a
group of its own), and each group runs as one graph of whole-group nodes.
Attention sees each sequence's own rows only, and a pooling node takes
each sequence's mean as soon as its group is encoded, so every sequence is
encoded at its own length and padding never enters the computation. The
budget keeps a group's activations small enough to stay in cache, and
pooling each group at once frees them before the next group.

The encoders compute in float32: their parameters, under `code.*` and
`text.*`, are stored as float32. Everything from the pooled rows on (the
projection heads, the logit scale and the classifier) is float64, and
pooling widens each sequence's mean to float64. For two or more rows, a
row of a BLAS matrix product does not depend on the rows around it, so a
sequence of two or more tokens encodes to the same bits alone or packed
with others. A 1-token sequence encoded alone goes through a
matrix-vector product instead, and its float32 encoding may differ in the
low bits from the same sequence packed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .augment import keyed_rng

LOGIT_SCALE_INIT = 14.0
LOGIT_SCALE_MIN = 1.0
LOGIT_SCALE_MAX = 100.0
INIT_STD = 0.02
ROW_BUDGET = 512  # rows per packed group; see the module docstring


class ModelError(ValueError):
    pass


@dataclass
class EncoderConfig:
    vocab_size: int
    embed_dim: int = 64
    num_blocks: int = 2
    num_heads: int = 4
    ff_dim: int = 128
    max_input_length: int = 256
    proj_dim: int = 32

    def __post_init__(self):
        dims = (self.vocab_size, self.embed_dim, self.num_heads,
                self.ff_dim, self.max_input_length, self.proj_dim)
        if any(d < 1 for d in dims) or self.num_blocks < 0:
            raise ModelError(f"invalid encoder config: {self}")
        if self.embed_dim % self.num_heads != 0:
            raise ModelError(
                f"embed_dim {self.embed_dim} not divisible by "
                f"{self.num_heads} heads")


def parameter_dtype(name):
    """The dtype that parameter `name` is stored and computed in: float32
    for the encoders' parameters, under `code.*` and `text.*`, and float64
    for every other one; little-endian, as a checkpoint stores them."""
    return np.dtype("<f4" if name.startswith(("code.", "text.")) else "<f8")


def parameter_table(code_config, text_config=None):
    """`(name, shape, fill)` per parameter in draw order: the code side
    (encoder, `proj.code`, classifier), then with `text_config` the text
    side (encoder, `proj.text`, logit scale). A `fill` of None is a normal
    draw from `keyed_rng(seed, name)`, a number a constant fill. Lazy, so a
    checkpoint reader stops at the first name its file lacks."""
    p = code_config.proj_dim
    if text_config is not None and text_config.proj_dim != p:
        raise ModelError("code and text projection dimensions must match")
    for tag, cfg in (("code", code_config), ("text", text_config)):
        if cfg is None:
            return
        d, ff = cfg.embed_dim, cfg.ff_dim
        yield f"{tag}.embed", (cfg.vocab_size, d), None
        yield f"{tag}.pos", (cfg.max_input_length, d), None
        for b in range(cfg.num_blocks):
            # the query, key and value columns, each `num_heads` blocks
            yield f"{tag}.block{b}.wqkv", (d, 3 * d), None
            yield f"{tag}.block{b}.wo", (d, d), None
            yield f"{tag}.block{b}.attn_bias", (1, d), 0.0
            yield f"{tag}.block{b}.ff_w1", (d, ff), None
            yield f"{tag}.block{b}.ff_b1", (1, ff), 0.0
            yield f"{tag}.block{b}.ff_w2", (ff, d), None
            yield f"{tag}.block{b}.ff_b2", (1, d), 0.0
        yield f"proj.{tag}", (d, p), None
        if tag == "code":
            yield "cls.w1", (p, p), None
            yield "cls.b1", (1, p), 0.0
            yield "cls.w2", (p, 1), None
            yield "cls.b2", (1, 1), 0.0
        else:
            yield "logit_scale", (1, 1), math.log(LOGIT_SCALE_INIT)


class DualEncoderModel:
    """All learnable state: two encoders, two projection heads, the logit
    scale and the classifier head, laid out by `parameter_table`. With
    `text_config` None the model is the code side only, which is all that
    inference reads. Each random parameter is drawn from `keyed_rng(seed,
    name)`, so the code side is the same with or without a text side, then
    stored in its `parameter_dtype`."""

    def __init__(self, code_config, text_config, seed=0):
        self.code_config = code_config
        self.text_config = text_config
        self.seed = seed
        self.text_invocations = 0
        # the classifier at fan-in scale: at INIT_STD its logits stay near 0
        self.params = {
            name: ad.parameter((
                keyed_rng(seed, name).normal(0, shape[0] ** -0.5 if name in (
                    "cls.w1", "cls.w2") else INIT_STD, shape)
                if fill is None else np.full(shape, fill)
            ).astype(parameter_dtype(name)), name)
            for name, shape, fill in parameter_table(code_config,
                                                     text_config)}

    # -------------------------------------------------------------- helpers

    def parameters(self):
        return self.params

    def logit_scale(self):
        """gamma = exp(s), clamped to [LOGIT_SCALE_MIN, LOGIT_SCALE_MAX]."""
        if self.text_config is None:
            raise ModelError("code-only model has no logit scale")
        return ad.clamp(ad.exp(self.params["logit_scale"]),
                        LOGIT_SCALE_MIN, LOGIT_SCALE_MAX)

    # -------------------------------------------------------------- forward

    def _rms_norm(self, x, dim):
        return ad.scale(ad.row_l2_normalize(x), math.sqrt(dim))

    def _checked_ids(self, cfg, ids):
        if not ids:
            raise ModelError("empty token sequence")
        for i in (min(ids), max(ids)):
            if not 0 <= i < cfg.vocab_size:
                raise ModelError(
                    f"token id {i} out of range for vocabulary of size "
                    f"{cfg.vocab_size}")
        if len(ids) > cfg.max_input_length:
            raise ModelError(
                f"sequence length {len(ids)} exceeds max input length "
                f"{cfg.max_input_length}")
        return ids

    def _encode_group(self, tag, cfg, ids, lengths):
        """Pooled hidden rows of the sequences stacked in `ids`, of
        `lengths` rows each."""
        P = self.params
        positions = np.arange(len(ids)) - np.repeat(
            np.cumsum(lengths) - lengths, lengths)
        x = ad.add(ad.embedding_lookup(P[f"{tag}.embed"], ids),
                   ad.embedding_lookup(P[f"{tag}.pos"], positions))
        d = cfg.embed_dim
        inv_sqrt_dh = 1.0 / math.sqrt(d // cfg.num_heads)
        for b in range(cfg.num_blocks):
            qkv = ad.matmul(self._rms_norm(x, d), P[f"{tag}.block{b}.wqkv"])
            attn = ad.matmul(
                ad.attention(qkv, lengths, cfg.num_heads, inv_sqrt_dh),
                P[f"{tag}.block{b}.wo"])
            x = ad.add(x, ad.add(attn, P[f"{tag}.block{b}.attn_bias"]))
            xn = self._rms_norm(x, d)
            hdn = ad.gelu(ad.add(ad.matmul(xn, P[f"{tag}.block{b}.ff_w1"]),
                                 P[f"{tag}.block{b}.ff_b1"]))
            x = ad.add(x, ad.add(ad.matmul(hdn, P[f"{tag}.block{b}.ff_w2"]),
                                 P[f"{tag}.block{b}.ff_b2"]))
        return ad.segment_mean_pool(x, lengths)

    def _check_modality(self, modality):
        if modality not in ("code", "text"):
            raise ModelError(f"unknown modality {modality!r}")
        if modality == "text" and self.text_config is None:
            raise ModelError("code-only model has no text encoder")

    def encode_batch(self, sequences, modality):
        """Hidden matrix, one row per input sequence."""
        self._check_modality(modality)
        cfg = self.code_config if modality == "code" else self.text_config
        ids = [self._checked_ids(cfg, seq.tokens) for seq in sequences]
        if not ids:
            raise ModelError("encode_batch: no sequences")
        lengths = np.array([len(i) for i in ids])
        groups, start, rows = [], 0, 0
        for i, n in enumerate(lengths):
            if rows and rows + n > ROW_BUDGET:
                groups.append((start, i))
                start, rows = i, 0
            rows += n
        groups.append((start, len(ids)))
        pooled = [self._encode_group(modality, cfg,
                                     np.concatenate(ids[lo:hi]),
                                     lengths[lo:hi])
                  for lo, hi in groups]
        if modality == "text":
            self.text_invocations += 1
        return ad.concat_rows(pooled)

    def project(self, hidden, modality):
        self._check_modality(modality)
        head = self.params[f"proj.{modality}"]
        if hidden.data.shape[1] != head.data.shape[0]:
            raise ModelError(
                f"project: hidden dim {hidden.data.shape[1]} does not match "
                f"head input dim {head.data.shape[0]}")
        pre = ad.matmul(hidden, head)
        norms = np.sqrt((pre.data ** 2).sum(axis=1))
        if np.any(norms < 1e-12):
            raise ModelError("degenerate embedding")
        return ad.row_l2_normalize(pre)

    def classify(self, projected):
        P = self.params
        if projected.data.shape[1] != P["cls.w1"].data.shape[0]:
            raise ModelError(
                f"classify: input dim {projected.data.shape[1]} does not "
                f"match classifier dim {P['cls.w1'].data.shape[0]}")
        h = ad.gelu(ad.add(ad.matmul(projected, P["cls.w1"]), P["cls.b1"]))
        logits = ad.add(ad.matmul(h, P["cls.w2"]), P["cls.b2"])
        probs = ad.sigmoid(logits)
        return logits, probs
