"""Training objectives: similarity matrices, symmetric InfoNCE, dual-view
alignment, cross-view consistency, classification BCE and the weighted total.
"""

from __future__ import annotations

from dataclasses import dataclass

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
        if min(self.clip_orig, self.clip_aug, self.consistency,
               self.classification) < 0:
            raise LossError("loss weights must be non-negative")


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
    neg = ad.mul(ad.sub(ones, y), ad.log(ad.sub(ones, p)))
    return ad.scale(ad.mean_all(ad.add(pos, neg)), -1.0)


def total_loss(sim_orig, sim_aug, z_code, z_code_aug, z_text, z_text_aug,
               probs, labels, weights):
    """Weighted sum of the four objectives. Components with zero weight are
    skipped (their contribution and gradient are exactly zero) and logged
    as 0.

    Returns (scalar loss tensor, LossBreakdown).
    """
    zero = ad.constant(0.0)
    parts = {}
    if weights.clip_orig > 0:
        parts["clip_orig"] = clip_loss(sim_orig)
    if weights.clip_aug > 0:
        parts["clip_aug"] = clip_loss(sim_aug)
    if weights.consistency > 0:
        parts["consistency"] = consistency_loss(
            z_code, z_code_aug, z_text, z_text_aug)
    if weights.classification > 0:
        parts["classification"] = bce_loss(probs, labels)

    weight_of = {"clip_orig": weights.clip_orig,
                 "clip_aug": weights.clip_aug,
                 "consistency": weights.consistency,
                 "classification": weights.classification}
    total = zero
    for name, term in parts.items():
        total = ad.add(total, ad.scale(term, weight_of[name]))
    breakdown = LossBreakdown(
        clip_orig=parts["clip_orig"].item() if "clip_orig" in parts else 0.0,
        clip_aug=parts["clip_aug"].item() if "clip_aug" in parts else 0.0,
        consistency=parts["consistency"].item() if "consistency" in parts else 0.0,
        classification=(parts["classification"].item()
                        if "classification" in parts else 0.0),
        total=total.item(),
    )
    return total, breakdown
