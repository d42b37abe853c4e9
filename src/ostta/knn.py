"""Exact K-nearest-neighbor search in cosine space over a frozen bank.

Neighbors are ranked by descending similarity, ties by ascending bank index,
as a full stable sort orders them. A query row's similarities are, by
definition, its one-row product with the bank, as a 1-D query computes
them. A block of rows ranks instead by matrix products over column tiles of
rows x columns x d <= numeric's block budget (2**17 multiply-adds), each
under OpenBLAS's 2**18 cutoff for a second thread, so no product threads.
A row keeps that ranking where each gap among its top k + 1 values exceeds
twice the most by which two summation orders of one similarity can differ;
any other row is ranked again from its own one-row product. So every row
gets exactly the ids and centroid bits of its 1-D call.
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
    slack: float  # per unit of query norm, how far two summation orders of a similarity can differ


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
    # A d-term dot product in any summation order, with or without FMA, is
    # within gamma * ||z|| * ||row|| of the exact one (gamma_d = d u / (1 - d u),
    # u = 2**-53), plus one subnormal step per operation; two orders are within
    # twice that. gamma is taken for d + 1 terms: the extra 1/d of it covers the
    # few roundings in computing this bound, the row norms and each gap. A row
    # too large to square makes the slack inf, and no block row is certified.
    columns = np.ascontiguousarray(bank.embeddings.T)
    d = len(columns)
    gamma = (d + 1) * 2.0**-53 / (1 - (d + 1) * 2.0**-53)
    with np.errstate(over="ignore"):  # column-wise: a fifth of the time of a per-row vecdot
        largest = np.sqrt(np.einsum("ij,ij->j", columns, columns).max())
    slack = 2 * (gamma * float(largest) + 2 * d * 2.0**-1074)  # a unit query row's norm is over 1/2
    return KnnIndex(bank, columns, k, slack)


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
    A row's neighbours are the top k of its similarities as a one-row product
    of its own with the index's column-major bank. A matrix is answered in
    blocks of `block_rows(len(bank))` rows, each ranked by tiled single-thread
    GEMMs and certified row by row against that definition, with a fallback
    to the one-row product (`_block_top_k`). So a block row gets exactly the
    ids and centroid bits of its 1-D call, whatever rows share the matrix, and
    whatever the layout of the bank. A matrix of no rows is one empty block,
    answered with no rows."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim == 1:
        return _neighborhood(index, z)
    rows = block_rows(len(index.bank))
    blocks = [_neighborhood(index, z[i : i + rows]) for i in range(0, len(z) or 1, rows)]
    return Neighborhood(np.concatenate([b.indices for b in blocks]),
                        np.concatenate([b.centroid for b in blocks]))


def _neighborhood(index: KnnIndex, z: np.ndarray) -> Neighborhood:
    """`query` of a 1-D z or of one block of rows."""
    norm = l2_norm(z)  # per row, its 1-D call's bits; raises on a zero or non-finite row
    off = abs(norm - 1.0)
    if not (off <= 1e-6 if z.ndim == 1 else (off <= 1e-6).all()):
        raise ValueError("query vector must be unit-norm")
    ids = _top_k(z @ index.columns, index.k) if z.ndim == 1 else _block_top_k(index, z, norm)
    mean = index.bank.embeddings.take(ids, axis=0).sum(axis=-2) / index.k  # the bits of np.mean
    try:
        return Neighborhood(ids, l2_normalize(mean))
    except ValueError:  # the bank is finite, so the mean is zero
        raise ValueError("neighborhood centroid undefined: neighbors cancel out") from None


def _block_top_k(index: KnnIndex, z: np.ndarray, norm: np.ndarray) -> np.ndarray:
    """Each row's `_top_k` of its one-row product, for a block of rows with
    their (rows, 1) norms: a row whose top k + 1 tiled-GEMM values (all n
    when k = n) are each more than 2 * slack * norm apart keeps that ranking,
    as no rounding of its one-row product can reorder them."""
    n = index.columns.shape[1]
    sims = np.empty((len(z), n))
    width = block_rows(z.size or 1)  # columns per tile
    for j in range(0, n, width):
        np.matmul(z, index.columns[:, j : j + width], out=sims[:, j : j + width])
    top = _top_k(sims, min(index.k + 1, n))
    vals = np.take_along_axis(sims, top, axis=1)
    certified = (vals[:, :-1] - vals[:, 1:] > 2 * index.slack * norm).all(axis=1)
    # a copy: a view would keep each block's (rows, k + 1) array alive until `query` joins them
    ids = top[:, : index.k].copy()
    redo = np.flatnonzero(~certified)
    if len(redo):
        ids[redo] = _top_k((z[redo, None, :] @ index.columns)[:, 0], index.k)
    return ids
