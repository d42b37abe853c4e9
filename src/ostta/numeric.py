"""Vector primitives: checked norms, normalization, fused softmax/log-sum-exp.

All functions are pure and act along the last axis, so a 1-D array is one
vector and a 2-D array is a batch of row vectors.
"""
from __future__ import annotations

import math

import numpy as np

# Floats one block of rows holds, its rows times the bank's rows (a KNN
# query's similarities) or times the floats of one row's forward trace (a
# `forward_rows` block): 1 MB of float64 however many rows a call is given.
_BLOCK_BUDGET = 1 << 17


def block_rows(width: int) -> int:
    """Rows of a block whose rows each hold `width` float64 values, so that
    the block holds at most _BLOCK_BUDGET of them; at least one row."""
    return max(1, _BLOCK_BUDGET // width)


def l2_norm(v: np.ndarray) -> float | np.ndarray:
    """Euclidean norm of v, or of each row as a (..., 1) column; raises on a
    zero or non-finite vector. Each row's norm is its own dot product, so it
    gets exactly the bits of its own 1-D call, whatever rows surround it."""
    if v.ndim == 1:
        norm = math.sqrt(np.vdot(v, v))  # np.linalg.norm's bits; overflow is a quiet inf
        ok = 0.0 < norm < math.inf
    else:
        with np.errstate(over="ignore"):  # an overflowed square is rejected below
            norm = np.sqrt(np.vecdot(v, v))[..., None]
        ok = ((norm > 0.0) & (norm < np.inf)).all()
    if not ok:
        raise ValueError("cannot normalize a zero or non-finite vector")
    return norm


def l2_normalize(v: np.ndarray) -> np.ndarray:
    """Scale v (or each row of v) to unit Euclidean norm; see `l2_norm`."""
    v = np.asarray(v, dtype=np.float64)
    return v / l2_norm(v)


def softmax_lse(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Log-sum-exp and softmax of z from one max, exp and sum, stable under
    large values via max-subtraction. The log-sum-exp is 0-d for a 1-D z."""
    m = z.max(axis=-1, keepdims=True)
    e = np.exp(z - m)
    total = e.sum(axis=-1, keepdims=True)
    e /= total
    return (m + np.log(total))[..., 0], e
