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


class DualEncoderModel:
    """All learnable state: two encoders, two projection heads, the logit
    scale and the classifier head."""

    def __init__(self, code_config, text_config, seed=0):
        self.code_config = code_config
        self.text_config = text_config
        self.seed = seed
        self.text_invocations = 0
        self.params = {}
        rng = np.random.default_rng(seed)
        self._init_encoder("code", code_config, rng)
        self._init_encoder("text", text_config, rng)
        d, p = code_config.embed_dim, code_config.proj_dim
        if text_config.proj_dim != p:
            raise ModelError("code and text projection dimensions must match")
        self._add("proj.code", rng.normal(0, INIT_STD, (d, p)))
        self._add("proj.text",
                  rng.normal(0, INIT_STD, (text_config.embed_dim, p)))
        self._add("logit_scale", np.array([[math.log(LOGIT_SCALE_INIT)]]))
        self._add("cls.w1", rng.normal(0, INIT_STD, (p, p)))
        self._add("cls.b1", np.zeros((1, p)))
        self._add("cls.w2", rng.normal(0, INIT_STD, (p, 1)))
        self._add("cls.b2", np.zeros((1, 1)))

    def _add(self, name, data):
        self.params[name] = ad.parameter(data, name)

    def _init_encoder(self, tag, cfg, rng):
        d, dh = cfg.embed_dim, cfg.embed_dim // cfg.num_heads
        self._add(f"{tag}.embed", rng.normal(0, INIT_STD, (cfg.vocab_size, d)))
        self._add(f"{tag}.pos",
                  rng.normal(0, INIT_STD, (cfg.max_input_length, d)))
        for b in range(cfg.num_blocks):
            for h in range(cfg.num_heads):
                for part in ("wq", "wk", "wv"):
                    self._add(f"{tag}.block{b}.head{h}.{part}",
                              rng.normal(0, INIT_STD, (d, dh)))
                self._add(f"{tag}.block{b}.head{h}.wo",
                          rng.normal(0, INIT_STD, (dh, d)))
            self._add(f"{tag}.block{b}.attn_bias", np.zeros((1, d)))
            self._add(f"{tag}.block{b}.ff_w1", rng.normal(0, INIT_STD, (d, cfg.ff_dim)))
            self._add(f"{tag}.block{b}.ff_b1", np.zeros((1, cfg.ff_dim)))
            self._add(f"{tag}.block{b}.ff_w2", rng.normal(0, INIT_STD, (cfg.ff_dim, d)))
            self._add(f"{tag}.block{b}.ff_b2", np.zeros((1, d)))

    # -------------------------------------------------------------- helpers

    def parameters(self):
        return self.params

    def logit_scale(self):
        """gamma = exp(s), clamped to [LOGIT_SCALE_MIN, LOGIT_SCALE_MAX]."""
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
                scores = ad.scale(ad.matmul(q, ad.transpose(k)), inv_sqrt_dh)
                out = ad.matmul(ad.row_softmax(scores), v)
                out = ad.matmul(out, P[f"{tag}.block{b}.head{h}.wo"])
                attn = out if attn is None else ad.add(attn, out)
            x = ad.add(x, ad.add(attn, P[f"{tag}.block{b}.attn_bias"]))
            xn = self._rms_norm(x, d)
            hdn = ad.gelu(ad.add(ad.matmul(xn, P[f"{tag}.block{b}.ff_w1"]),
                                 P[f"{tag}.block{b}.ff_b1"]))
            x = ad.add(x, ad.add(ad.matmul(hdn, P[f"{tag}.block{b}.ff_w2"]),
                                 P[f"{tag}.block{b}.ff_b2"]))
        return ad.mean_pool_rows(x)

    def encode_batch(self, sequences, modality):
        """Hidden matrix, one row per input sequence."""
        if modality not in ("code", "text"):
            raise ModelError(f"unknown modality {modality!r}")
        cfg = self.code_config if modality == "code" else self.text_config
        tag = modality
        rows = [self._encode_one(tag, cfg, seq.tokens) for seq in sequences]
        if modality == "text":
            self.text_invocations += 1
        if len(rows) == 1:
            return rows[0]
        return ad.concat_rows(rows)

    def project(self, hidden, modality):
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
