"""Evaluation: per-class accuracies, H-score, confusion matrix, and
decision-boundary grids for 2-D visual studies."""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from .data import UNKNOWN, UNKNOWN_TOKEN


@dataclass
class EvalReport:
    acc_known: float | None     # macro-averaged recall over known classes
    acc_unknown: float | None   # recall of the collective unknown class
    h_score: float | None
    confusion: np.ndarray       # (num_known+1) x (num_known+1), true x pred
    n: int

    def to_dict(self) -> dict:
        return {
            "acc_known": self.acc_known,
            "acc_unknown": self.acc_unknown,
            "h_score": self.h_score,
            "confusion": self.confusion.tolist(),
            "n": self.n,
        }

    def to_json(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, sort_keys=True, indent=2)
            fh.write("\n")


def _to_index(label: int, num_known: int) -> int:
    """Confusion-matrix index of a label; UNKNOWN is the last one."""
    if isinstance(label, (int, np.integer)) and not isinstance(label, bool):
        if label == UNKNOWN:
            return num_known
        if 0 <= label < num_known:
            return int(label)
    raise ValueError(
        f"label {label!r} is neither a known class 0..{num_known - 1} nor UNKNOWN ({UNKNOWN})")


def accuracies(
    predictions: list[int], truths: list[int], num_known: int
) -> tuple[float | None, float | None, np.ndarray]:
    """Macro per-class recall over known classes, unknown recall, and the
    confusion matrix (unknown mapped to the last index). Accuracies absent
    from the truth set are reported as None. Raises on a label outside
    0..num_known-1 and UNKNOWN."""
    if len(predictions) != len(truths) or not truths:
        raise ValueError("predictions and truths must be equal-length, nonempty")
    confusion = np.zeros((num_known + 1, num_known + 1), dtype=np.int64)
    for pred, true in zip(predictions, truths):
        confusion[_to_index(true, num_known), _to_index(pred, num_known)] += 1
    recalls = []
    for k in range(num_known):
        total = confusion[k].sum()
        if total > 0:
            recalls.append(confusion[k, k] / total)
    acc_k = float(np.mean(recalls)) if recalls else None
    unk_total = confusion[num_known].sum()
    acc_u = float(confusion[num_known, num_known] / unk_total) if unk_total > 0 else None
    return acc_k, acc_u, confusion


def h_score(acc_k: float, acc_u: float) -> float:
    """Harmonic mean of the known and unknown accuracies; 0 if either is 0."""
    if not (0.0 <= acc_k <= 1.0 and 0.0 <= acc_u <= 1.0):
        raise ValueError("accuracies must be in [0, 1]")
    if acc_k == 0.0 or acc_u == 0.0:
        return 0.0
    return 2.0 * acc_k * acc_u / (acc_k + acc_u)


def evaluate(predictions: list[int], truths: list[int], num_known: int) -> EvalReport:
    acc_k, acc_u, confusion = accuracies(predictions, truths, num_known)
    hs = h_score(acc_k, acc_u) if acc_k is not None and acc_u is not None else None
    return EvalReport(acc_k, acc_u, hs, confusion, len(truths))


def decision_grid(
    predict_fn,
    bbox: tuple[tuple[float, float], tuple[float, float]],
    resolution: int,
) -> list[tuple[float, float, int]]:
    """Label a regular resolution x resolution lattice over a 2-D box,
    row-major (y outer, x inner). predict_fn maps an (n, 2) matrix of points
    to n labels; it is called once per lattice row, which bounds the memory
    a batched model pass takes."""
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    (xmin, xmax), (ymin, ymax) = bbox
    xs = np.linspace(xmin, xmax, resolution)
    ys = np.linspace(ymin, ymax, resolution)
    out = []
    for y in ys:
        labels = predict_fn(np.column_stack([xs, np.full(resolution, y)]))
        out.extend((float(x), float(y), int(k)) for x, k in zip(xs, labels))
    return out


def save_grid(grid: list[tuple[float, float, int]], path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y", "label"])
        for x, y, label in grid:
            token = UNKNOWN_TOKEN if label == UNKNOWN else str(label)
            writer.writerow([repr(x), repr(y), token])
