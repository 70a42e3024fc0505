"""Dual encoders over code and text, projection heads into a shared space,
a learnable logit scale and the binary classifier head.

Each encoder is a small pre-norm transformer: embedding lookup, N blocks of
multi-head self-attention + feed-forward, mean pooling over the sequence.
Sequences are processed at their own length, so padding never enters the
computation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .augment import keyed_rng
from .data import PAD_ID

LOGIT_SCALE_INIT = 14.0
LOGIT_SCALE_MIN = 1.0
LOGIT_SCALE_MAX = 100.0
INIT_STD = 0.02


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
        d, dh, ff = cfg.embed_dim, cfg.embed_dim // cfg.num_heads, cfg.ff_dim
        yield f"{tag}.embed", (cfg.vocab_size, d), None
        yield f"{tag}.pos", (cfg.max_input_length, d), None
        for b in range(cfg.num_blocks):
            for h in range(cfg.num_heads):
                for part in ("wq", "wk", "wv"):
                    yield f"{tag}.block{b}.head{h}.{part}", (d, dh), None
                yield f"{tag}.block{b}.head{h}.wo", (dh, d), None
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
    name)`, so the code side is the same with or without a text side."""

    def __init__(self, code_config, text_config, seed=0):
        self.code_config = code_config
        self.text_config = text_config
        self.seed = seed
        self.text_invocations = 0
        self.params = {
            name: ad.parameter(
                keyed_rng(seed, name).normal(0, INIT_STD, shape)
                if fill is None else np.full(shape, fill), name)
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

    def _encode_one(self, tag, cfg, ids):
        ids = [i for i in ids if i != PAD_ID]
        if not ids:
            ids = [0]
        if max(ids) >= cfg.vocab_size:
            raise ModelError(
                f"token id {max(ids)} out of range for vocabulary of size "
                f"{cfg.vocab_size}")
        if len(ids) > cfg.max_input_length:
            raise ModelError(
                f"sequence length {len(ids)} exceeds max input length "
                f"{cfg.max_input_length}")
        P = self.params
        x = ad.embedding_lookup(P[f"{tag}.embed"], ids)
        pos = ad.embedding_lookup(P[f"{tag}.pos"], list(range(len(ids))))
        x = ad.add(x, pos)
        d = cfg.embed_dim
        dh = d // cfg.num_heads
        inv_sqrt_dh = 1.0 / math.sqrt(dh)
        for b in range(cfg.num_blocks):
            xn = self._rms_norm(x, d)
            attn = None
            for h in range(cfg.num_heads):
                q = ad.matmul(xn, P[f"{tag}.block{b}.head{h}.wq"])
                k = ad.matmul(xn, P[f"{tag}.block{b}.head{h}.wk"])
                v = ad.matmul(xn, P[f"{tag}.block{b}.head{h}.wv"])
                out = ad.matmul(ad.attention(q, k, v, inv_sqrt_dh),
                                P[f"{tag}.block{b}.head{h}.wo"])
                attn = out if attn is None else ad.add(attn, out)
            x = ad.add(x, ad.add(attn, P[f"{tag}.block{b}.attn_bias"]))
            xn = self._rms_norm(x, d)
            hdn = ad.gelu(ad.add(ad.matmul(xn, P[f"{tag}.block{b}.ff_w1"]),
                                 P[f"{tag}.block{b}.ff_b1"]))
            x = ad.add(x, ad.add(ad.matmul(hdn, P[f"{tag}.block{b}.ff_w2"]),
                                 P[f"{tag}.block{b}.ff_b2"]))
        return ad.mean_pool_rows(x)

    def _check_modality(self, modality):
        if modality not in ("code", "text"):
            raise ModelError(f"unknown modality {modality!r}")
        if modality == "text" and self.text_config is None:
            raise ModelError("code-only model has no text encoder")

    def encode_batch(self, sequences, modality):
        """Hidden matrix, one row per input sequence."""
        self._check_modality(modality)
        cfg = self.code_config if modality == "code" else self.text_config
        tag = modality
        rows = [self._encode_one(tag, cfg, seq.tokens) for seq in sequences]
        if modality == "text":
            self.text_invocations += 1
        return ad.concat_rows(rows)

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
