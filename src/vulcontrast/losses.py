"""Training objectives: similarity matrices, symmetric InfoNCE, dual-view
alignment, cross-view consistency, classification BCE and the weighted total.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import autodiff as ad

PROB_CLAMP = 1e-7


class LossError(ValueError):
    pass


@dataclass
class LossWeights:
    clip_orig: float = 0.5
    clip_aug: float = 0.5
    consistency: float = 0.1
    classification: float = 1.0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not (math.isfinite(value) and value >= 0):
                raise LossError(f"loss weight {f.name} = {value!r} must be "
                                "finite and non-negative")

    @property
    def reads_comments(self):
        """Whether a positively weighted term reads a text view: every
        term but classification does."""
        return max(self.clip_orig, self.clip_aug, self.consistency) > 0


@dataclass
class LossBreakdown:
    clip_orig: float
    clip_aug: float
    consistency: float
    classification: float
    total: float


def similarity_matrix(code_rows, text_rows, gamma):
    """Scaled cosine similarities; entry (i, j) pairs code i with text j."""
    if code_rows.data.shape[0] != text_rows.data.shape[0]:
        raise LossError(
            f"similarity_matrix: batch mismatch {code_rows.data.shape[0]} "
            f"vs {text_rows.data.shape[0]}")
    raw = ad.matmul(code_rows, ad.transpose(text_rows))
    if isinstance(gamma, ad.Tensor):
        return ad.mul(raw, gamma)
    return ad.scale(raw, float(gamma))


def clip_loss(sim):
    """Symmetric InfoNCE over a square similarity matrix, computed with
    max-shifted log-sum-exp."""
    n, m = sim.data.shape
    if n != m:
        raise LossError(f"clip_loss: matrix must be square, got {n}x{m}")
    eye = ad.constant(np.eye(n))
    diag_sum = ad.sum_all(ad.mul(sim, eye))
    row_lse = ad.sum_all(ad.row_logsumexp(sim))
    col_lse = ad.sum_all(ad.row_logsumexp(ad.transpose(sim)))
    total = ad.sub(ad.add(row_lse, col_lse), ad.scale(diag_sum, 2.0))
    return ad.scale(total, 1.0 / (2.0 * n))


def dual_clip_loss(sim_orig, sim_aug, weights):
    if sim_orig.data.shape != sim_aug.data.shape:
        raise LossError(
            f"dual_clip_loss: view shapes differ, {sim_orig.data.shape} vs "
            f"{sim_aug.data.shape}")
    return ad.add(ad.scale(clip_loss(sim_orig), weights.clip_orig),
                  ad.scale(clip_loss(sim_aug), weights.clip_aug))


def consistency_loss(z_code, z_code_aug, z_text, z_text_aug):
    """Mean squared distance between original and augmented projections,
    averaged over the two modalities."""
    for a, b in ((z_code, z_code_aug), (z_text, z_text_aug)):
        if a.data.shape != b.data.shape:
            raise LossError(
                f"consistency_loss: shape mismatch {a.data.shape} vs "
                f"{b.data.shape}")
    code_term = ad.mean_all(ad.rowwise_sqdist(z_code, z_code_aug))
    text_term = ad.mean_all(ad.rowwise_sqdist(z_text, z_text_aug))
    return ad.scale(ad.add(code_term, text_term), 0.5)


def bce_loss(probs, labels):
    labels = np.asarray(labels, dtype=np.float64).reshape(-1, 1)
    if probs.data.shape != labels.shape:
        raise LossError(
            f"bce_loss: {probs.data.shape[0]} probabilities vs "
            f"{labels.shape[0]} labels")
    if not set(np.unique(labels)) <= {0.0, 1.0}:
        raise LossError("bce_loss: labels must be 0 or 1")
    p = ad.clamp(probs, PROB_CLAMP, 1.0 - PROB_CLAMP)
    y = ad.constant(labels)
    ones = ad.constant(np.ones_like(labels))
    pos = ad.mul(y, ad.log(p))
    neg = ad.mul(ad.constant(1.0 - labels), ad.log(ad.sub(ones, p)))
    return ad.scale(ad.mean_all(ad.add(pos, neg)), -1.0)


def total_loss(sim_orig, sim_aug, z_code, z_code_aug, z_text, z_text_aug,
               probs, labels, weights):
    """Weighted sum of the four objectives, added in the order below. A term
    whose weight is 0 is not computed: it adds nothing to the loss or its
    gradient and is logged as 0, so a view that only such terms read may
    be None.

    Returns (scalar loss tensor, LossBreakdown).
    """
    terms = {
        "clip_orig": lambda: clip_loss(sim_orig),
        "clip_aug": lambda: clip_loss(sim_aug),
        "consistency": lambda: consistency_loss(z_code, z_code_aug, z_text,
                                                z_text_aug),
        "classification": lambda: bce_loss(probs, labels),
    }
    total = ad.constant(0.0)
    logged = dict.fromkeys(terms, 0.0)
    for name, term in terms.items():
        weight = getattr(weights, name)
        if weight > 0:
            value = term()
            total = ad.add(total, ad.scale(value, weight))
            logged[name] = value.item()
    return total, LossBreakdown(total=total.item(), **logged)
