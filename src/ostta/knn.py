"""Exact K-nearest-neighbor search in cosine space over a frozen bank.

Neighbors are ranked by descending similarity, ties by ascending bank index,
as a full stable sort orders them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numeric import block_rows, l2_norm, l2_normalize
from .trainer import EmbeddingBank


@dataclass
class KnnIndex:
    bank: EmbeddingBank
    columns: np.ndarray  # (d, n), C-contiguous: the bank's embeddings, one per column
    k: int


@dataclass
class Neighborhood:
    indices: np.ndarray   # (k,) or (n, k), bank indices, best first
    centroid: np.ndarray  # (d,) or (n, d), unit-norm mean of the neighbors


def build_index(bank: EmbeddingBank, k: int) -> KnnIndex:
    if len(bank) == 0:
        raise ValueError("empty bank")
    if not 1 <= k <= len(bank):
        raise ValueError(f"k={k} must be in [1, {len(bank)}]")
    if not np.isfinite(bank.embeddings).all():
        raise ValueError("bank embeddings must be finite")
    return KnnIndex(bank, np.ascontiguousarray(bank.embeddings.T), k)


def _top_k(sims: np.ndarray, k: int) -> np.ndarray:
    """Positions of the k best entries of a 1-D row, or of each row of a matrix,
    best first, ties in ascending position, as a stable argsort on -sims orders
    them. Only entries at or above a bound on the row's k-th value are sorted:
    the k-th largest of m strided chunk maxima (k distinct entries)."""
    width = sims.shape[-1]
    m = max(k, math.isqrt(width * k))
    s = width // m
    maxima = sims[..., :m * s].reshape(sims.shape[:-1] + (s, m)).max(axis=-2)
    maxima.partition(m - k)  # in place, along the last axis
    bound = maxima[..., m - k]
    if sims.ndim == 1:  # one row: 9 numpy calls where a block needs 18
        cand = (sims >= bound).nonzero()[0]
        return cand[(-sims[cand]).argsort(kind="stable")[:k]]
    flat = np.flatnonzero(sims >= bound[:, None])  # row order, then position order
    rows, pos = np.divmod(flat, width)
    key = rows + 0j  # sorted by row, then by -similarity; stable: ties keep position order
    key.imag = -sims.ravel()[flat]
    order = key.argsort(kind="stable")
    first = np.searchsorted(rows, np.arange(len(sims)))  # rows stays sorted under the sort
    return pos[order[first[:, None] + np.arange(k)]]


def query(index: KnnIndex, z: np.ndarray) -> Neighborhood:
    """Neighborhood of a unit 1-D z, or of each unit row of an (n, d) matrix.
    Each row's similarities are a one-row product of their own with the
    index's column-major bank, so a row gets exactly the bits of its 1-D
    call, whatever rows share the matrix, and whatever the layout of the bank.
    A matrix is answered in blocks of `block_rows(len(bank))` rows; a matrix
    of no rows is one empty block, answered with no rows."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim == 1:
        return _neighborhood(index, z)
    rows = block_rows(len(index.bank))
    blocks = [_neighborhood(index, z[i : i + rows]) for i in range(0, len(z) or 1, rows)]
    return Neighborhood(np.concatenate([b.indices for b in blocks]),
                        np.concatenate([b.centroid for b in blocks]))


def _neighborhood(index: KnnIndex, z: np.ndarray) -> Neighborhood:
    """`query` of a 1-D z or of one block of rows."""
    off = abs(l2_norm(z) - 1.0)  # per row, its 1-D call's bits; raises on a zero or non-finite row
    if not (off <= 1e-6 if z.ndim == 1 else (off <= 1e-6).all()):
        raise ValueError("query vector must be unit-norm")
    ids = _top_k(z @ index.columns if z.ndim == 1 else (z[:, None, :] @ index.columns)[:, 0], index.k)
    mean = index.bank.embeddings.take(ids, axis=0).sum(axis=-2) / index.k  # the bits of np.mean
    try:
        return Neighborhood(ids, l2_normalize(mean))
    except ValueError:  # the bank is finite, so the mean is zero
        raise ValueError("neighborhood centroid undefined: neighbors cancel out") from None
