"""Exact K-nearest-neighbor search in cosine space over a frozen bank.

Two backends: plain brute force, and a block-partitioned variant that
screens candidates per block before a global merge. Both are exact and must
agree bit-for-bit, including the tie-break (descending similarity, then
ascending bank index).
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
    indices: np.ndarray       # (k,), bank indices, best first
    similarities: np.ndarray  # (k,), non-increasing
    centroid: np.ndarray      # unit-norm mean of the neighbors


def build_index(bank: EmbeddingBank, k: int = 10, backend: str = "brute") -> KnnIndex:
    if len(bank) == 0:
        raise ValueError("empty bank")
    if not 1 <= k <= len(bank):
        raise ValueError(f"k={k} must be in [1, {len(bank)}]")
    if backend not in BACKENDS:
        raise ValueError(f"backend must be one of {BACKENDS}")
    return KnnIndex(bank, k, backend)


def _top_k(sims: np.ndarray, ids: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    # stable sort on -sims keeps ascending id among ties
    order = np.argsort(-sims, kind="stable")[:k]
    return ids[order], sims[order]


def query(index: KnnIndex, z: np.ndarray) -> Neighborhood:
    z = np.asarray(z, dtype=np.float64)
    if abs(np.linalg.norm(z) - 1.0) > 1e-6:
        raise ValueError("query vector must be unit-norm")
    emb = index.bank.embeddings
    if index.backend == "brute":
        sims = emb @ z
        ids, sims = _top_k(sims, np.arange(len(emb)), index.k)
    else:
        cand_ids, cand_sims = [], []
        for start in range(0, len(emb), index.block_size):
            bsims = emb[start : start + index.block_size] @ z
            take = min(index.k, len(bsims))
            # keep every entry tied with the block's k-th best, so the merge
            # sees whole tie groups; candidates stay in ascending bank order
            kth = -np.partition(-bsims, take - 1)[take - 1]
            keep = np.flatnonzero(bsims >= kth)
            cand_ids.append(start + keep)
            cand_sims.append(bsims[keep])
        ids, sims = _top_k(np.concatenate(cand_sims), np.concatenate(cand_ids), index.k)
    mean = emb[ids].mean(axis=0)
    if np.linalg.norm(mean) == 0.0:
        raise ValueError("neighborhood centroid undefined: neighbors cancel out")
    return Neighborhood(ids, sims, l2_normalize(mean))
