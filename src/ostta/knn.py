"""Exact K-nearest-neighbor search in cosine space over a frozen bank.

Neighbors are ranked by descending similarity, ties by ascending bank index,
as a full stable sort orders them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numeric import l2_normalize
from .trainer import EmbeddingBank


@dataclass
class KnnIndex:
    bank: EmbeddingBank
    columns: np.ndarray  # (d, n), C-contiguous: the bank's embeddings, one per column
    k: int = 10


@dataclass
class Neighborhood:
    indices: np.ndarray   # (k,) or (n, k), bank indices, best first
    centroid: np.ndarray  # (d,) or (n, d), unit-norm mean of the neighbors


def build_index(bank: EmbeddingBank, k: int = 10) -> KnnIndex:
    if len(bank) == 0:
        raise ValueError("empty bank")
    if not 1 <= k <= len(bank):
        raise ValueError(f"k={k} must be in [1, {len(bank)}]")
    if not np.isfinite(bank.embeddings).all():
        raise ValueError("bank embeddings must be finite")
    return KnnIndex(bank, np.ascontiguousarray(bank.embeddings.T), k)


def _top_k(sims: np.ndarray, k: int) -> np.ndarray:
    """Positions of each row's k best entries, best first, ties in ascending
    position, as a stable argsort on -sims orders them. Only entries at or
    above a bound on the row's k-th value are sorted: a lone row's k-th value,
    or in a block the k-th largest of m strided chunk maxima (k distinct entries)."""
    n, width = sims.shape
    if n == 1:  # the per-sample path: 7 numpy calls where the block needs 15
        row = sims[0]
        cand = (row >= np.partition(row, width - k)[width - k]).nonzero()[0]
        return cand[(-row[cand]).argsort(kind="stable")[:k]][None]
    m = max(k, math.isqrt(width * k))
    s = width // m
    maxima = sims[:, :m * s].reshape(n, s, m).max(axis=1)
    bound = np.partition(maxima, m - k, axis=1)[:, m - k]
    flat = np.flatnonzero(sims >= bound[:, None])  # row order, then position order
    rows, pos = np.divmod(flat, width)
    order = np.lexsort((-sims.ravel()[flat], rows))  # stable: ties keep position order
    first = np.searchsorted(rows, np.arange(n))  # rows stays sorted under the lexsort
    return pos[order[first[:, None] + np.arange(k)]]


def query(index: KnnIndex, z: np.ndarray) -> Neighborhood:
    """Neighborhood of each unit row of an (n, d) matrix; a 1-D z is the
    one-row case and gives a neighborhood of 1-D arrays. Each row's
    similarities are a one-row product of their own with the index's
    column-major bank, so a row gets exactly the bits of its 1-D call,
    whatever rows share the matrix, and whatever the layout of the bank."""
    z = np.asarray(z, dtype=np.float64)
    rows = z.reshape(-1, z.shape[-1])
    if not all(abs(n - 1.0) <= 1e-6 for n in np.sqrt((rows * rows).sum(axis=1)).tolist()):
        raise ValueError("query vector must be unit-norm")
    ids = _top_k((rows[:, None, :] @ index.columns)[:, 0], index.k)
    mean = index.bank.embeddings[ids].sum(axis=1) / index.k  # the bits of np.mean
    if z.ndim == 1:
        ids, mean = ids[0], mean[0]
    try:
        return Neighborhood(ids, l2_normalize(mean))
    except ValueError:  # the bank is finite, so the mean is zero
        raise ValueError("neighborhood centroid undefined: neighbors cancel out") from None
