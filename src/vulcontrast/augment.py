"""Random-swap / random-delete view construction at strength alpha."""

from __future__ import annotations

import hashlib

import numpy as np


def _substream(seed, example_id, view, epoch=0):
    digest = hashlib.sha256(
        f"{seed}:{example_id}:{view}:{epoch}".encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))


def random_swap(tokens, alpha, rng):
    if not tokens:
        raise ValueError("random_swap: tokens must be non-empty")
    if alpha == 0.0:
        return list(tokens)
    out = list(tokens)
    n_swaps = max(1, int(np.floor(alpha * len(out))))
    for _ in range(n_swaps):
        if len(out) < 2:
            break
        i, j = rng.choice(len(out), size=2, replace=False)
        out[i], out[j] = out[j], out[i]
    return out


def random_delete(tokens, alpha, rng):
    if not tokens:
        raise ValueError("random_delete: tokens must be non-empty")
    if alpha == 0.0:
        return list(tokens)
    keep = rng.random(len(tokens)) >= alpha
    out = [t for t, k in zip(tokens, keep) if k]
    if not out:
        out = [tokens[rng.integers(0, len(tokens))]]
    return out


def augment_tokens(tokens, alpha, rng):
    """Swap then delete, the combined perturbation applied to each view.

    Each view draws from its own substream,
    `_substream(seed, example_id, "code" | "text", epoch)`, so either view
    can be regenerated alone.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    return random_delete(random_swap(tokens, alpha, rng), alpha, rng)
