"""Online unknown-rejection engine: per-sample prediction from cycle-
consistent prototype matching over two tables of unit prototypes that follow
one EMA rule: target prototypes starting at the source prototypes, and
follow-up prototypes starting at the classifier head rows.

The engine never updates model parameters and never compares a score
against a fixed cutoff. A step has a state-free half, `embed`, which
depends only on the frozen model and bank and so runs over the whole
stream in one call, and a stateful half, `step`, through which the state
evolves strictly one sample at a time.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .data import UNKNOWN, atomic_open, from_json, text_lines
from .knn import KnnIndex, build_index, query
from .model import ModelParams, forward, forward_rows
from .numeric import l2_normalize
from .trainer import EmbeddingBank

logger = logging.getLogger(__name__)

# format 1 kept every follow-up embedding in lists; format 2 kept the target
# prototypes of present classes only and named no model; format 3 hashed the
# model's parameters as all weights, then all biases, then the head, where
# later formats hash them in checkpoint order; format 4 kept the running sums
# and counts of a running-mean follow-up memory
SNAPSHOT_FORMAT = 5


@dataclass(frozen=True)
class TurConfig:
    ema_weight: float = 0.3  # weight of the incoming embedding in the EMA
    k: int = 10

    def validate(self) -> None:
        if not 0.0 < self.ema_weight < 1.0:
            raise ValueError("ema_weight must be in (0, 1)")
        if self.k < 1:
            raise ValueError(f"k={self.k} must be >= 1")


@dataclass
class TurState:
    index: KnnIndex                       # frozen source embeddings
    source_prototypes: np.ndarray         # (num_known, d), frozen
    target_prototypes: np.ndarray         # (num_known, d), EMA from the source prototypes
    followup_prototypes: np.ndarray       # (num_known + 1, d), EMA from the head rows
    params: ModelParams                   # read-only; head applied to embeddings
    config: TurConfig
    step_count: int = 0

    @property
    def num_known(self) -> int:
        return self.source_prototypes.shape[0]


class Prediction(NamedTuple):
    label: int  # known index or UNKNOWN
    route: str  # "agreed" or "followup"
    source_match: int
    target_match: int


def init_tur(bank: EmbeddingBank, params: ModelParams, config: TurConfig) -> TurState:
    """Fresh state: target prototypes copied from the source prototypes,
    follow-up prototypes the renormalized head rows."""
    config.validate()
    if bank.prototypes.shape != (params.num_known, params.embed_dim):
        raise ValueError(f"bank prototypes of shape {bank.prototypes.shape} do not fit the "
                         f"model's {params.num_known} known classes of width {params.embed_dim}")
    zero = np.flatnonzero(np.linalg.norm(params.head, axis=1) == 0.0)
    if len(zero):
        raise ValueError(f"head row {zero[0]} is zero: cannot seed the follow-up prototypes")
    return TurState(
        index=build_index(bank, k=config.k),
        source_prototypes=bank.prototypes,
        target_prototypes=bank.prototypes.copy(),
        followup_prototypes=np.stack([l2_normalize(row) for row in params.head]),
        params=params,
        config=config,
    )


def update_prototype(state: TurState, table: np.ndarray, k: int, z_t: np.ndarray) -> None:
    """The one prototype update, of a target or a follow-up prototype: row k
    of table moves towards z_t by the config's EMA weight, renormalized."""
    phi = state.config.ema_weight
    try:
        table[k] = l2_normalize(phi * z_t + (1.0 - phi) * table[k])
    except ValueError:  # unit z_t and row: the mix is zero
        logger.warning("degenerate EMA for prototype row %d; left unchanged", k)


def update_memory_bank(state: TurState, z_t: np.ndarray) -> int:
    """Update the follow-up prototype of the head's predicted class. Returns
    the class."""
    k = int(np.vecdot(z_t[..., None, :], state.params.head).argmax())
    update_prototype(state, state.followup_prototypes, k, z_t)
    return k


def followup_predict(state: TurState, z: np.ndarray) -> np.ndarray:
    """(num_known + 1)-way argmax per embedding row of z over the follow-up
    prototypes; the last index maps to UNKNOWN."""
    k = np.vecdot(z[..., None, :], state.followup_prototypes).argmax(-1)
    return (k + 1) % (state.num_known + 1) + UNKNOWN  # known k stays k, as UNKNOWN is -1


def decide(state: TurState, centroid: np.ndarray, k_src):
    """Route neighborhood-centroid rows, given their source matches from
    `embed`, on the current state, without changing it. Returns per row the
    best target prototype by per-pair dot products (ties go to the lowest)
    and whether it is the source match: an agreed row is labelled by its
    source match, any other by the follow-up prototypes."""
    k_tgt = np.vecdot(centroid[..., None, :], state.target_prototypes).argmax(-1)
    return k_tgt, k_src == k_tgt


def embed(state: TurState, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The state-free half of a step: the unit embeddings of the rows of x
    (a 1-D x is one sample), their source-neighborhood centroids and the
    centroids' best source prototypes. A matrix is embedded as a stack of
    one-row products (`forward_rows`) and matched per (row, prototype) pair,
    so every row gets exactly the bits of its own 1-D call."""
    x = np.asarray(x, dtype=np.float64)
    z = forward(state.params, x).z if x.ndim == 1 else forward_rows(state.params, x)[0]
    return match(state, z)


def match(state: TurState, z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`embed` from the unit embeddings z the model already gave: z, the
    source-neighborhood centroids of its rows and their best source
    prototypes, each row with the bits of its own 1-D call."""
    centroid = query(state.index, z).centroid
    return z, centroid, np.vecdot(centroid[..., None, :], state.source_prototypes).argmax(-1)


def step(state: TurState, z_t: np.ndarray, centroid: np.ndarray, k_src) -> Prediction:
    """The stateful half of a step, for one sample embedded by `embed`: route
    it with `decide`, then update the matched target prototype, or update the
    head-predicted follow-up prototype and take the follow-up label. Mutates
    state in place; never touches params."""
    k_tgt, agreed = decide(state, centroid, k_src)
    k_src, k_tgt = int(k_src), int(k_tgt)
    if agreed:
        update_prototype(state, state.target_prototypes, k_src, z_t)
        pred = Prediction(k_src, "agreed", k_src, k_tgt)
    else:
        update_memory_bank(state, z_t)
        pred = Prediction(int(followup_predict(state, z_t)), "followup", k_src, k_tgt)
    state.step_count += 1
    return pred


def predict_frozen(state: TurState, z: np.ndarray, centroid: np.ndarray, k_src) -> np.ndarray:
    """Label rows embedded by `embed` (a 1-D z is one point) as `step` would,
    without changing the state; used for decision-grid export after a stream."""
    _, agreed = decide(state, centroid, k_src)
    return np.where(agreed, k_src, followup_predict(state, z))[()]  # one point: a scalar


def run_stream(state: TurState, stream) -> list[Prediction]:
    """Sequentially adapt over an ordered sequence of Samples: `embed` the
    whole stream, then `step` through its rows in order. A one-sample stream
    is embedded as a 1-D sample, the cheaper call."""
    if len(stream) <= 1:
        return [step(state, *embed(state, s.features)) for s in stream]
    z, centroid, k_src = embed(state, np.stack([s.features for s in stream]))
    return [step(state, *row) for row in zip(z, centroid, k_src)]


def _fingerprint(params: ModelParams) -> str:
    return hashlib.sha256(params.param_bytes()).hexdigest()[:16]


def save_snapshot(state: TurState, path: str) -> None:
    """Resumable snapshot of a size fixed by the model: the target and
    follow-up prototypes, step counter, and a fingerprint of the model's
    parameters (bank and model have their own files). Written through a
    temporary file, so a crash keeps the old snapshot."""
    payload = {
        "format": SNAPSHOT_FORMAT,
        "model": _fingerprint(state.params),
        "step_count": state.step_count,
        "target_prototypes": state.target_prototypes.tolist(),
        "followup_prototypes": state.followup_prototypes.tolist(),
        "config": dataclasses.asdict(state.config),
    }
    with atomic_open(path) as fh:
        json.dump(payload, fh, sort_keys=True)


def load_snapshot(path: str, bank: EmbeddingBank, params: ModelParams) -> TurState:
    try:
        payload = json.loads("".join(text_lines(path)))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not a JSON snapshot: {exc}") from None
    if not isinstance(payload, dict) or payload.get("format") != SNAPSHOT_FORMAT:
        raise ValueError(f"{path}: not a format-{SNAPSHOT_FORMAT} engine snapshot")
    model = _fingerprint(params)
    if payload.get("model") != model:
        raise ValueError(f"{path}: a snapshot of model {payload.get('model')}, not of {model}")
    steps = payload.get("step_count")
    if type(steps) is not int or steps < 0:
        raise ValueError(f"{path}: step_count must be a non-negative int, got {steps!r}")
    try:
        state = init_tur(bank, params, from_json(TurConfig, payload.get("config"), "config"))
    except ValueError as exc:  # a config of the wrong keys, types or values for this bank
        raise ValueError(f"{path}: {exc}") from None
    for name in ("target_prototypes", "followup_prototypes"):
        fresh = getattr(state, name)  # shaped by the model
        try:
            value = np.array(payload.get(name), dtype=fresh.dtype)
        except (TypeError, ValueError) as exc:  # a dict, a ragged list, a string
            raise ValueError(f"{path}: {name} is not an array of numbers ({exc})") from None
        if value.shape != fresh.shape:
            raise ValueError(f"{path}: {name} has shape {value.shape}, the model needs {fresh.shape}")
        with np.errstate(over="ignore"):  # an overflowed norm is rejected below
            norm = np.linalg.norm(value, axis=1)
        bad = np.flatnonzero(~(abs(norm - 1.0) <= 1e-6))  # NaN compares false
        if len(bad):
            raise ValueError(f"{path}: {name} row {bad[0]} has norm {norm[bad[0]]}, "
                             "not a finite unit vector within 1e-6")
        setattr(state, name, value)
    state.step_count = steps
    return state
