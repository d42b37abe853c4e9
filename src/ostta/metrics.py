"""Evaluation: per-class accuracies, H-score, confusion matrix, and
decision-boundary grids for 2-D visual studies."""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .data import UNKNOWN, UNKNOWN_TOKEN, atomic_open


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
        with atomic_open(path) as fh:
            json.dump(self.to_dict(), fh, sort_keys=True, indent=2)
            fh.write("\n")


def _is_int(kind: type) -> bool:
    return kind is int or issubclass(kind, np.integer)


def _indices(labels, num_known: int) -> np.ndarray:
    """The confusion-matrix index of each label, UNKNOWN the last one, and
    -1 for a label that is neither an int class 0..num_known-1 nor UNKNOWN."""
    if not all(map(_is_int, set(map(type, labels)))):  # a bool, float or string is no label
        labels = [v if _is_int(type(v)) else num_known for v in labels]
    values = np.asarray(labels)  # int, or object or float for ints beyond int64
    known = (values >= 0) & (values < num_known)
    return np.where(values == UNKNOWN, num_known, np.where(known, values, -1)).astype(np.intp)


def accuracies(
    predictions: list[int], truths: list[int], num_known: int
) -> tuple[float | None, float | None, np.ndarray]:
    """Macro per-class recall over known classes, unknown recall, and the
    confusion matrix (unknown mapped to the last index). Accuracies absent
    from the truth set are reported as None. Raises on the first label, in
    stream order and truth before prediction, outside 0..num_known-1 and
    UNKNOWN."""
    if len(predictions) != len(truths) or not len(truths):
        raise ValueError("predictions and truths must be equal-length, nonempty")
    true, pred = _indices(truths, num_known), _indices(predictions, num_known)
    bad = np.flatnonzero((true < 0) | (pred < 0))
    if len(bad):
        i = bad[0]
        label = truths[i] if true[i] < 0 else predictions[i]
        raise ValueError(
            f"label {label!r} is neither a known class 0..{num_known - 1} nor UNKNOWN ({UNKNOWN})")
    confusion = np.zeros((num_known + 1, num_known + 1), dtype=np.int64)
    np.add.at(confusion, (true, pred), 1)
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


@dataclass(frozen=True)
class Grid:
    """Labels of a regular lattice over a 2-D box: labels[i, j] is the label
    of the point (xs[j], ys[i]), so the points run row-major, y outer."""
    xs: np.ndarray      # (res,)
    ys: np.ndarray      # (res,)
    labels: np.ndarray  # (res, res)

    def __len__(self) -> int:
        return self.labels.size


def decision_grid(
    predict_fn,
    bbox: tuple[tuple[float, float], tuple[float, float]],
    resolution: int,
    block: int,
) -> Grid:
    """Label a regular resolution x resolution lattice over a 2-D box.
    predict_fn maps a (b, resolution, 2) block of whole lattice rows to
    their b * resolution labels. A block holds at most `block` points, and
    at least one row, which bounds the memory a batched model pass takes."""
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    (xmin, xmax), (ymin, ymax) = bbox
    xs = np.linspace(xmin, xmax, resolution)
    ys = np.linspace(ymin, ymax, resolution)
    points = np.stack(np.meshgrid(xs, ys), axis=-1)  # points[i, j] = (xs[j], ys[i])
    rows = max(1, block // resolution)
    labels = [np.reshape(predict_fn(points[i : i + rows]), (-1, resolution))
              for i in range(0, resolution, rows)]
    return Grid(xs, ys, np.concatenate(labels))


def save_grid(grid: Grid, path: str) -> None:
    """CSV with a header and one `x,y,label` line per lattice point, row-major,
    the bytes `csv.writer` gives for repr(x), repr(y) and the label token. No
    field needs quoting, so each lattice row is one join of strings formatted
    once per coordinate and label."""
    xs = list(map(repr, grid.xs.tolist()))
    tokens = {k: UNKNOWN_TOKEN if k == UNKNOWN else str(k) for k in np.unique(grid.labels).tolist()}
    with atomic_open(path, newline="") as fh:
        fh.write("x,y,label\r\n")
        for y, row in zip(map(repr, grid.ys.tolist()), grid.labels.tolist()):
            fh.write("".join([f"{x},{y},{tokens[k]}\r\n" for x, k in zip(xs, row)]))
