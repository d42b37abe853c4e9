"""Exact K-nearest-neighbor search in cosine space over a frozen bank.

Two backends over one similarity product: plain brute force, and a
block-partitioned variant that screens candidates per block before a global
merge. Both are exact and must agree bit-for-bit, including the tie-break
(descending similarity, then ascending bank index).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numeric import l2_normalize
from .trainer import EmbeddingBank

BACKENDS = ("brute", "partitioned")


@dataclass
class KnnIndex:
    bank: EmbeddingBank
    k: int = 10
    backend: str = "brute"
    block_size: int = 64


@dataclass
class Neighborhood:
    indices: np.ndarray       # (k,) or (n, k), bank indices, best first
    similarities: np.ndarray  # (k,) or (n, k), non-increasing along a row
    centroid: np.ndarray      # (d,) or (n, d), unit-norm mean of the neighbors


def build_index(bank: EmbeddingBank, k: int = 10, backend: str = "brute") -> KnnIndex:
    if len(bank) == 0:
        raise ValueError("empty bank")
    if not 1 <= k <= len(bank):
        raise ValueError(f"k={k} must be in [1, {len(bank)}]")
    if backend not in BACKENDS:
        raise ValueError(f"backend must be one of {BACKENDS}")
    if not np.isfinite(bank.embeddings).all():
        raise ValueError("bank embeddings must be finite")
    return KnnIndex(bank, k, backend)


def _top_k(sims: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Positions and values of each row's k best entries, best first, ties in
    ascending position, as a stable argsort on -sims orders them. Only the
    entries at or above the row's k-th value, found by a partition, are sorted."""
    pos, top = np.empty((len(sims), k), dtype=np.intp), np.empty((len(sims), k))
    kth = sims.shape[1] - k
    for i, row in enumerate(sims):
        cand = (row >= np.partition(row, kth)[kth]).nonzero()[0]
        pos[i] = cand[(-row[cand]).argsort(kind="stable")[:k]]
        top[i] = row[pos[i]]
    return pos, top


def query(index: KnnIndex, z: np.ndarray) -> Neighborhood:
    """Neighborhood of each unit row of an (n, d) matrix; a 1-D z is the
    one-row case and gives a neighborhood of 1-D arrays."""
    z = np.asarray(z, dtype=np.float64)
    rows = z.reshape(-1, z.shape[-1])
    if not all(abs(n - 1.0) <= 1e-6 for n in np.sqrt((rows * rows).sum(axis=1)).tolist()):
        raise ValueError("query vector must be unit-norm")
    emb = index.bank.embeddings
    sims = rows @ emb.T
    if index.backend == "brute":
        ids, sims = _top_k(sims, index.k)
    else:
        # blocks pass on their exact top k in bank order, so ties stay in id order
        size = index.block_size
        blocks = [_top_k(sims[:, s : s + size], min(index.k, size, len(emb) - s))
                  for s in range(0, len(emb), size)]
        cand = np.concatenate([pos + i * size for i, (pos, _) in enumerate(blocks)], axis=1)
        best, sims = _top_k(np.concatenate([v for _, v in blocks], axis=1), index.k)
        ids = np.take_along_axis(cand, best, axis=1)
    mean = emb[ids].sum(axis=1) / index.k  # the bits of np.mean
    if z.ndim == 1:
        ids, sims, mean = ids[0], sims[0], mean[0]
    try:
        return Neighborhood(ids, sims, l2_normalize(mean))
    except ValueError:  # the bank is finite, so the mean is zero
        raise ValueError("neighborhood centroid undefined: neighbors cancel out") from None
