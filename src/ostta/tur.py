"""Online unknown-rejection engine: per-sample prediction from cycle-
consistent prototype matching, EMA target prototypes starting at the source
prototypes, and a memory bank seeded from the classifier head rows.

The engine never updates model parameters and never compares a score
against a fixed cutoff. A step has a state-free half, `embed`, which
depends only on the frozen model and bank and so runs a block of the
stream at a time, and a stateful half, `step`, through which the state
evolves strictly one sample at a time.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
from dataclasses import dataclass

import numpy as np

from .data import UNKNOWN, atomic_open, from_json
from .knn import KnnIndex, build_index, query
from .model import ModelParams, forward
from .numeric import l2_normalize
from .trainer import EmbeddingBank

logger = logging.getLogger(__name__)

# format 1 kept every follow-up embedding in lists; format 2 kept the target
# prototypes of present classes only and named no model
SNAPSHOT_FORMAT = 3
# Floats one block holds, its rows times the bank's rows (an `embed` call of
# `run_stream`, an engine grid block) or times the floats of one row's forward
# trace (a model grid block): 1 MB of float64 however large the bank.
_BLOCK_BUDGET = 1 << 17


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
    memory_sum: np.ndarray                # (num_known + 1, d), sum of each class's unit vectors
    memory_count: np.ndarray              # (num_known + 1,), vectors summed per class
    followup_prototypes: np.ndarray       # (num_known + 1, d), unit rows
    params: ModelParams                   # read-only; head applied to embeddings
    config: TurConfig
    step_count: int = 0

    @property
    def num_known(self) -> int:
        return self.source_prototypes.shape[0]


@dataclass(frozen=True)
class Prediction:
    label: int  # known index or UNKNOWN
    route: str  # "agreed" or "followup"
    source_match: int
    target_match: int


def init_tur(bank: EmbeddingBank, params: ModelParams, config: TurConfig) -> TurState:
    """Fresh state: target prototypes copied from the source prototypes,
    memory bank holding exactly one renormalized head row per class."""
    config.validate()
    if bank.embeddings.shape[1] != params.embed_dim:
        raise ValueError("bank and head embedding dims disagree")
    if bank.prototypes.shape != (params.num_known, params.embed_dim):
        raise ValueError(f"bank prototypes of shape {bank.prototypes.shape} do not fit the "
                         f"model's {params.num_known} known classes of width {params.embed_dim}")
    zero = np.flatnonzero(np.linalg.norm(params.head, axis=1) == 0.0)
    if len(zero):
        raise ValueError(f"head row {zero[0]} is zero: cannot seed memory bank")
    seeds = np.stack([l2_normalize(row) for row in params.head])
    return TurState(
        index=build_index(bank, k=config.k),
        source_prototypes=bank.prototypes,
        target_prototypes=bank.prototypes.copy(),
        memory_sum=seeds.copy(),
        memory_count=np.ones(len(seeds), dtype=np.int64),
        followup_prototypes=seeds,
        params=params,
        config=config,
    )


def update_target_prototype(state: TurState, k: int, z_t: np.ndarray) -> None:
    """EMA update of target prototype k, renormalized."""
    phi, old = state.config.ema_weight, state.target_prototypes[k]
    try:
        state.target_prototypes[k] = l2_normalize(phi * z_t + (1.0 - phi) * old)
    except ValueError:  # unit z_t and old: the mix is zero
        logger.warning("degenerate EMA for target prototype %d; left unchanged", k)


def update_memory_bank(state: TurState, z_t: np.ndarray) -> int:
    """Add z_t to the running sum of the head's predicted class and refresh
    that class's follow-up prototype, the normalized mean. Returns the class."""
    k = int((state.params.head @ z_t).argmax())
    state.memory_sum[k] += z_t
    state.memory_count[k] += 1
    try:
        state.followup_prototypes[k] = l2_normalize(state.memory_sum[k] / state.memory_count[k])
    except ValueError:  # a sum of unit vectors: the mean is zero
        logger.warning("degenerate follow-up prototype for class %d; left unchanged", k)
    return k


def followup_predict(state: TurState, z: np.ndarray) -> np.ndarray:
    """(num_known + 1)-way argmax per embedding row of z over the follow-up
    prototypes; the last index maps to UNKNOWN."""
    k = (z @ state.followup_prototypes.T).argmax(-1)
    return np.where(k == state.num_known, UNKNOWN, k)


def decide(state: TurState, centroid: np.ndarray):
    """Route neighborhood-centroid rows on the current state, without
    changing it. Returns per row the best source prototype, the best target
    prototype (ties go to the lowest) and whether the two agree: an agreed
    row is labelled by its source match, any other by the follow-up
    prototypes."""
    k_src = (centroid @ state.source_prototypes.T).argmax(-1)
    k_tgt = (centroid @ state.target_prototypes.T).argmax(-1)
    return k_src, k_tgt, k_src == k_tgt


def embed(state: TurState, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The state-free half of a step: the unit embeddings of the rows of x
    (a 1-D x is one sample) and their source-neighborhood centroids. A
    matrix is computed as a stack of one-row products, so every row gets
    exactly the bits of its own 1-D call."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        z = forward(state.params, x).z
    else:
        z = forward(state.params, x[:, None, :]).z[:, 0]
    return z, query(state.index, z).centroid


def step(state: TurState, z_t: np.ndarray, centroid: np.ndarray) -> Prediction:
    """The stateful half of a step, for one sample embedded by `embed`: route
    it with `decide`, then update the matched target prototype, or add it to
    the memory bank and take the follow-up label. Mutates state in place;
    never touches params."""
    k_src, k_tgt, agreed = map(int, decide(state, centroid))
    if agreed:
        update_target_prototype(state, k_src, z_t)
        pred = Prediction(k_src, "agreed", k_src, k_tgt)
    else:
        update_memory_bank(state, z_t)
        pred = Prediction(int(followup_predict(state, z_t)), "followup", k_src, k_tgt)
    state.step_count += 1
    return pred


def predict_frozen(state: TurState, x: np.ndarray) -> np.ndarray:
    """Label the rows of x (a 1-D x is one point) as `step` would, without
    changing the state; used for decision-grid export after a stream."""
    z, centroid = embed(state, x)
    k_src, _, agreed = decide(state, centroid)
    return np.where(agreed, k_src, followup_predict(state, z))[()]  # one point: a scalar


def block_rows(width: int) -> int:
    """Rows of a block whose rows each hold `width` float64 values, so that
    the block holds at most _BLOCK_BUDGET of them; at least one row."""
    return max(1, _BLOCK_BUDGET // width)


def run_stream(state: TurState, stream) -> list[Prediction]:
    """Sequentially adapt over an ordered sequence of Samples: `embed` a
    block of the stream at a time, then `step` through its rows in order. A
    one-sample block is embedded as a 1-D sample, the cheaper call."""
    preds: list[Prediction] = []
    rows = block_rows(len(state.index.bank))
    for start in range(0, len(stream), rows):
        block = stream[start : start + rows]
        if len(block) == 1:
            preds.append(step(state, *embed(state, block[0].features)))
            continue
        z, centroid = embed(state, np.stack([s.features for s in block]))
        preds += [step(state, z_t, c) for z_t, c in zip(z, centroid)]
    return preds


def _fingerprint(params: ModelParams) -> str:
    return hashlib.sha256(params.param_bytes()).hexdigest()[:16]


def save_snapshot(state: TurState, path: str) -> None:
    """Resumable snapshot of a size fixed by the model: prototypes, memory
    sums and counts, step counter, and a fingerprint of the model's
    parameters (bank and model have their own files). Written through a
    temporary file, so a crash keeps the old snapshot."""
    payload = {
        "format": SNAPSHOT_FORMAT,
        "model": _fingerprint(state.params),
        "step_count": state.step_count,
        "target_prototypes": state.target_prototypes.tolist(),
        "memory_sum": state.memory_sum.tolist(),
        "memory_count": state.memory_count.tolist(),
        "followup_prototypes": state.followup_prototypes.tolist(),
        "config": dataclasses.asdict(state.config),
    }
    with atomic_open(path) as fh:
        json.dump(payload, fh, sort_keys=True)


def load_snapshot(path: str, bank: EmbeddingBank, params: ModelParams) -> TurState:
    with open(path) as fh:
        payload = json.load(fh)
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
    for name in ("target_prototypes", "memory_sum", "memory_count", "followup_prototypes"):
        fresh = getattr(state, name)  # shaped by the model
        try:
            value = np.array(payload.get(name), dtype=fresh.dtype)
        except (TypeError, ValueError) as exc:  # a dict, a ragged list, a string
            raise ValueError(f"{path}: {name} is not an array of numbers ({exc})") from None
        if value.shape != fresh.shape:
            raise ValueError(f"{path}: {name} has shape {value.shape}, the model needs {fresh.shape}")
        setattr(state, name, value)
    state.step_count = steps
    return state
