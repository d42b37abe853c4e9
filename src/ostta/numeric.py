"""Vector primitives: normalization and temperature softmax.

All functions are pure and act along the last axis, so a 1-D array is one
vector and a 2-D array is a batch of row vectors.
"""
from __future__ import annotations

import numpy as np


def l2_normalize(v: np.ndarray) -> np.ndarray:
    """Scale v (or each row of v) to unit Euclidean norm. Raises on a zero
    or non-finite vector."""
    v = np.asarray(v, dtype=np.float64)
    if v.ndim == 1:
        # numpy's dot-product norm: the online engine normalizes a few
        # vectors per sample, and the row-wise reduction costs twice as much
        norm = np.linalg.norm(v)
        ok = 0.0 < norm < np.inf
    else:
        with np.errstate(over="ignore"):  # an overflowed square is rejected below
            norm = np.sqrt((v * v).sum(axis=-1, keepdims=True))
        ok = ((norm > 0.0) & (norm < np.inf)).all()
    if not ok:
        raise ValueError("cannot normalize a zero or non-finite vector")
    return v / norm


def softmax(logits: np.ndarray, tau: float = 1.0) -> np.ndarray:
    """Temperature softmax, stable under large logits via max-subtraction."""
    if tau <= 0.0:
        raise ValueError(f"temperature must be positive, got {tau}")
    z = np.asarray(logits, dtype=np.float64) / tau
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def logsumexp(z: np.ndarray) -> np.ndarray:
    """Stable log(sum(exp(z))); a 0-d array for a 1-D input."""
    z = np.asarray(z, dtype=np.float64)
    m = z.max(axis=-1, keepdims=True)
    return (m + np.log(np.exp(z - m).sum(axis=-1, keepdims=True)))[..., 0]
