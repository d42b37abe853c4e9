"""Synthetic Gaussian-blob datasets, covariate shift, and test streams.

Labels are integers: 0..num_known-1 for known classes, UNKNOWN (-1) for the
collective unknown class. Multiple novel clusters all map to UNKNOWN.
"""
from __future__ import annotations

import csv
import math
import os
import sys
import typing
from contextlib import contextmanager, suppress
from dataclasses import dataclass, fields, is_dataclass

import numpy as np

UNKNOWN = -1
UNKNOWN_TOKEN = "unknown"

_MAX_CENTER_RETRIES = 1000


@dataclass(frozen=True)
class Sample:
    features: np.ndarray
    label: int  # known index or UNKNOWN


@dataclass(frozen=True)
class BlobSpec:
    num_known: int = 3
    num_unknown_clusters: int = 1
    dim: int = 2
    samples_per_cluster: int = 100
    cluster_std: float = 1.0
    center_box: tuple[float, float] = (-8.0, 8.0)
    seed: int = 0

    def validate(self) -> None:
        if self.num_known < 2:
            raise ValueError(f"config.blob.num_known={self.num_known} must be >= 2")
        if self.num_unknown_clusters < 1:
            raise ValueError(f"config.blob.num_unknown_clusters={self.num_unknown_clusters} must be >= 1")
        if self.dim < 2:
            raise ValueError(f"config.blob.dim={self.dim} must be >= 2")
        if self.samples_per_cluster < 1:
            raise ValueError(f"config.blob.samples_per_cluster={self.samples_per_cluster} must be >= 1")
        if not 0.0 < self.cluster_std < math.inf:
            raise ValueError(f"config.blob.cluster_std={self.cluster_std} must be finite and positive")
        low, high = self.center_box
        if not math.isfinite(high - low):  # also a NaN or infinite end
            raise ValueError(f"config.blob.center_box={[low, high]} needs finite ends and width")
        if low >= high:
            raise ValueError(f"config.blob.center_box={[low, high]} needs low < high")


@dataclass(frozen=True)
class ShiftSpec:
    rotation_angle: float = 0.0  # radians, first two dims only
    translation: tuple[float, ...] = ()
    noise_std: float = 0.0
    seed: int = 0

    def validate(self) -> None:
        if not math.isfinite(self.rotation_angle):
            raise ValueError(f"config.shift.rotation_angle={self.rotation_angle} must be finite")
        for i, value in enumerate(self.translation):
            if not math.isfinite(value):
                raise ValueError(f"config.shift.translation[{i}]={value} must be finite")
        if not 0.0 <= self.noise_std < math.inf:
            raise ValueError(f"config.shift.noise_std={self.noise_std} must be finite and >= 0")


def _place_centers(spec: BlobSpec, rng: np.random.Generator) -> np.ndarray:
    """Rejection-sample cluster centers with pairwise distance >= 2*std."""
    low, high = spec.center_box
    n = spec.num_known + spec.num_unknown_clusters
    min_sep = 2.0 * spec.cluster_std
    centers: list[np.ndarray] = []
    retries = 0
    while len(centers) < n:
        c = rng.uniform(low, high, size=spec.dim)
        if all(np.linalg.norm(c - p) >= min_sep for p in centers):
            centers.append(c)
        else:
            retries += 1
            if retries > _MAX_CENTER_RETRIES:
                raise RuntimeError(
                    f"could not place {n} centers with separation {min_sep} "
                    f"inside {spec.center_box} after {_MAX_CENTER_RETRIES} retries"
                )
    return np.stack(centers)


def generate_blobs(spec: BlobSpec) -> tuple[list[Sample], list[Sample]]:
    """Generate (train, test) sets. Train holds known classes only; test holds
    a fresh draw from every cluster including the unknown ones."""
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    centers = _place_centers(spec, rng)
    spc = spec.samples_per_cluster

    train: list[Sample] = []
    test: list[Sample] = []
    for k in range(spec.num_known):
        pts = rng.normal(centers[k], spec.cluster_std, size=(2 * spc, spec.dim))
        train.extend(Sample(p, k) for p in pts[:spc])
        test.extend(Sample(p, k) for p in pts[spc:])
    for u in range(spec.num_unknown_clusters):
        c = centers[spec.num_known + u]
        pts = rng.normal(c, spec.cluster_std, size=(spc, spec.dim))
        test.extend(Sample(p, UNKNOWN) for p in pts)
    return train, test


def apply_shift(dataset: list[Sample], shift: ShiftSpec) -> list[Sample]:
    """Rotate (first two dims), translate, then add Gaussian noise.
    Labels are untouched."""
    shift.validate()
    if not dataset:
        raise ValueError("dataset is empty")
    dim = dataset[0].features.shape[0]
    translation = np.asarray(shift.translation or np.zeros(dim), dtype=np.float64)
    if translation.shape != (dim,):
        raise ValueError(f"translation dim {translation.shape[0]} != feature dim {dim}")
    c, s = np.cos(shift.rotation_angle), np.sin(shift.rotation_angle)
    rot = np.eye(dim)
    rot[0, 0], rot[0, 1], rot[1, 0], rot[1, 1] = c, -s, s, c
    rng = np.random.default_rng(shift.seed)
    out = []
    for sample in dataset:
        x = rot @ sample.features + translation
        if shift.noise_std > 0:
            x = x + rng.normal(0.0, shift.noise_std, size=dim)
        out.append(Sample(x, sample.label))
    return out


def stream_order(n: int, order_seed: int) -> np.ndarray:
    """The indices of n samples in the stream order of a seed: a permutation."""
    return np.random.default_rng(order_seed).permutation(n)


def make_stream(dataset: list[Sample], order_seed: int) -> list[Sample]:
    """Deterministic permutation of the dataset; each element appears once."""
    if not dataset:
        raise ValueError("dataset is empty")
    return [dataset[i] for i in stream_order(len(dataset), order_seed)]


@contextmanager
def atomic_open(path: str, mode: str = "w", **kwargs):
    """Write through a temporary file that replaces path on a clean close, so
    a crash mid-write leaves the old file (or none), never a cut one. A
    write that raises removes the temporary file and re-raises."""
    tmp = path + ".tmp"
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        with suppress(FileNotFoundError):
            os.remove(tmp)
        if isinstance(exc, OSError) and exc.filename == tmp:  # name the path given
            raise OSError(exc.errno, exc.strerror, path) from None
        raise


def from_json(cls, payload, path: str):
    """The dataclass cls built from a JSON object; an unknown key or a value
    of the wrong type raises, naming its path such as `config.tur.k`."""
    if not isinstance(payload, dict):
        raise ValueError(f"{path} must be a JSON object, got {type(payload).__name__}")
    unknown = set(payload) - {f.name for f in fields(cls)}
    if unknown:
        raise ValueError(f"unknown config keys at {path}: {sorted(unknown)}")
    hints = typing.get_type_hints(cls)
    return cls(**{name: _typed(value, hints[name], f"{path}.{name}")
                  for name, value in payload.items()})


def _typed(value, hint, path: str):
    """value checked against a field's type hint: a dataclass is built by
    `from_json`, and a JSON list becomes a tuple. An int passes as a float,
    as given, if a float can hold it; a bool passes only as a bool."""
    if is_dataclass(hint):
        return from_json(hint, value, path)
    if typing.get_origin(hint) is tuple:
        kinds = typing.get_args(hint)
        if not isinstance(value, list):
            raise ValueError(f"{path} must be a JSON list, got {type(value).__name__}")
        if kinds[-1] is Ellipsis:
            kinds = kinds[:1] * len(value)
        elif len(value) != len(kinds):
            raise ValueError(f"{path} must hold {len(kinds)} values, got {len(value)}")
        return tuple(_typed(v, k, f"{path}[{i}]") for i, (v, k) in enumerate(zip(value, kinds)))
    if hint is float:
        ok = type(value) in (int, float)
        if type(value) is int and abs(value) > sys.float_info.max:
            raise ValueError(f"{path} must be a float, got an int too large for one")
    else:
        ok = type(value) is hint
    if not ok:
        raise ValueError(f"{path} must be {hint.__name__}, got {type(value).__name__} {value!r}")
    return value


def save_csv(dataset: list[Sample], path: str) -> None:
    write_labelled_csv(path, "f", np.array([s.features for s in dataset], dtype=np.float64),
                       [s.label for s in dataset])


def write_labelled_csv(path: str, prefix: str, rows: np.ndarray, labels) -> None:
    """A header `<prefix>0,...,label`, then per row its `repr` floats and its
    label (`unknown` for UNKNOWN), CRLF-ended: the bytes of `csv.writer`, one
    preformatted line per row (no field needs quoting)."""
    header = ",".join([f"{prefix}{i}" for i in range(rows.shape[1])] + ["label"])
    with atomic_open(path, newline="") as fh:
        fh.write(header + "\r\n")
        for z, lab in zip(rows.tolist(), np.asarray(labels).tolist()):
            token = UNKNOWN_TOKEN if lab == UNKNOWN else int(lab)
            fh.write(f"{','.join(map(repr, z))},{token}\r\n")


def text_lines(path: str):
    """The lines of a text file, line ends kept; bytes that do not decode
    raise a ValueError naming the file."""
    with open(path, newline="") as fh:
        try:
            yield from fh
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not a text file ({exc.reason})") from None


def read_labelled_csv(path: str) -> tuple[np.ndarray, np.ndarray]:
    """The (n, d) features and (n,) int labels, `unknown` read as UNKNOWN, of
    a CSV with a header row and the label in its last column. Raises, naming
    the file and the row (the header is row 1), on a wrong column count, a
    value that does not parse, or a non-finite feature."""
    features, labels = [], []
    reader = csv.reader(text_lines(path))
    header = next(reader, [])
    if len(header) < 2:
        raise ValueError(f"{path}: the header needs feature columns and a label column")
    for row in reader:
        where = f"{path}, row {reader.line_num}"
        if len(row) != len(header):
            raise ValueError(f"{where}: {len(row)} columns, the header has {len(header)}")
        try:
            values = list(map(float, row[:-1]))
            label = UNKNOWN if row[-1] == UNKNOWN_TOKEN else int(row[-1])
        except ValueError:
            raise ValueError(f"{where}: cannot parse {row}") from None
        if not all(map(math.isfinite, values)):
            raise ValueError(f"{where}: non-finite feature in {row}")
        features.append(values)
        labels.append(label)
    return np.array(features), np.array(labels, dtype=np.int64)


def load_csv(path: str) -> list[Sample]:
    features, labels = read_labelled_csv(path)
    return [Sample(f, label) for f, label in zip(features, labels.tolist())]
