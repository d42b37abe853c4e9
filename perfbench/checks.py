"""Correctness checks computed apart from the program.

Everything here uses the benchmark's own arithmetic: its own tanh MLP over
the checkpoint arrays, a brute-force cosine top-k over the bank, and its
own H-score. The program's results are compared against these, never the
other way round.
"""
from __future__ import annotations

import numpy as np

UNKNOWN = -1  # the program's label for the collective unknown class

# Gap below which two similarities count as a near-tie: the benchmark's
# matrix arithmetic and the engine's per-sample arithmetic round
# differently (~1e-16), so a tie can legitimately go either way.
NEAR_TIE = 1e-9


class Checks:
    """Counts checks passed and records the ones that failed."""

    def __init__(self) -> None:
        self.passed = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        if ok:
            self.passed += 1
        else:
            self.failures.append(what)

    @property
    def attempted(self) -> int:
        return self.passed + len(self.failures)


def valid_labels(num_known: int) -> set[int]:
    return set(range(num_known)) | {UNKNOWN}


def array_bytes(params) -> bytes:
    """Raw bytes of every parameter array, read off the loaded checkpoint."""
    arrays = [*params.weights, *params.biases, params.head]
    return b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)


def embed(params, features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Own MLP forward over rows of `features`: returns (h, unit-norm z)."""
    a = np.asarray(features, dtype=np.float64)
    for w, b, act in zip(params.weights, params.biases, params.activations):
        a = a @ w.T + b
        if act == "tanh":
            a = np.tanh(a)
        elif act != "linear":
            raise ValueError(f"unknown activation {act!r}")
    return a, a / np.linalg.norm(a, axis=1, keepdims=True)


def argmax_labels(params, features: np.ndarray) -> list[int]:
    """The checkpoint's own classifier decision; the last head row is unknown."""
    h, _ = embed(params, features)
    k = np.argmax(h @ params.head.T, axis=1)
    num_known = params.head.shape[0] - 1
    return [UNKNOWN if int(i) == num_known else int(i) for i in k]


def source_match(z: np.ndarray, bank, k: int) -> tuple[int, bool]:
    """Best source prototype for the centroid of z's k nearest bank rows
    (descending cosine, then ascending row id). Also says whether the
    answer sits on a near-tie, at the k-th neighbour or between the two
    best prototypes."""
    emb = bank.embeddings
    sims = emb @ z
    order = np.lexsort((np.arange(len(sims)), -sims))
    top = order[:k]
    tie = k < len(sims) and sims[order[k - 1]] - sims[order[k]] < NEAR_TIE
    centroid = emb[top].mean(axis=0)
    centroid /= np.linalg.norm(centroid)
    psims = bank.prototypes @ centroid
    ranked = np.sort(psims)[::-1]
    tie = tie or (len(ranked) > 1 and ranked[0] - ranked[1] < NEAR_TIE)
    return int(np.argmax(psims)), bool(tie)


def check_source_matches(c: Checks, what: str, params, bank, k: int,
                         features: np.ndarray, source_matches: list[int],
                         samples: int = 200) -> None:
    """Recompute source_match on about `samples` evenly spaced steps and
    compare, skipping near-ties."""
    stride = max(1, len(source_matches) // samples)
    steps = range(0, len(source_matches), stride)
    _, z = embed(params, features[list(steps)])
    wrong = compared = 0
    for row, i in enumerate(steps):
        expected, tie = source_match(z[row], bank, k)
        if tie:
            continue
        compared += 1
        wrong += expected != source_matches[i]
    c.expect(compared > 0 and wrong == 0,
             f"{what}: source_match differs from brute force on {wrong} of {compared} steps")


def h_score(preds: list[int], truths: list[int], num_known: int) -> float | None:
    """Harmonic mean of macro known-class recall and unknown recall, or
    None when the truths lack the known or the unknown side."""
    hits: dict[int, int] = {}
    totals: dict[int, int] = {}
    for p, t in zip(preds, truths):
        totals[t] = totals.get(t, 0) + 1
        hits[t] = hits.get(t, 0) + (p == t)
    known = [hits[k] / totals[k] for k in range(num_known) if k in totals]
    if not known or UNKNOWN not in totals:
        return None
    acc_k = sum(known) / len(known)
    acc_u = hits[UNKNOWN] / totals[UNKNOWN]
    if acc_k == 0.0 or acc_u == 0.0:
        return 0.0
    return 2.0 * acc_k * acc_u / (acc_k + acc_u)
