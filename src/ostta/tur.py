"""Online unknown-rejection engine: per-sample prediction from cycle-
consistent prototype matching, EMA target prototypes, and a memory bank
seeded from the classifier head rows.

The engine never updates model parameters and never compares a score
against a fixed cutoff. State evolves strictly one sample at a time.
"""
from __future__ import annotations

import dataclasses
import json
import logging
import os
from dataclasses import dataclass

import numpy as np

from .data import UNKNOWN
from .knn import KnnIndex, build_index, query
from .model import ModelParams, forward, head_logits
from .numeric import l2_normalize
from .trainer import EmbeddingBank

logger = logging.getLogger(__name__)

QUERY_MODES = ("source_centroid", "target_embedding")
COLD_START_MODES = ("seed_on_first_match", "seed_per_class", "copy_source")
SNAPSHOT_FORMAT = 2  # format 1 kept every follow-up embedding in lists


@dataclass(frozen=True)
class TurConfig:
    ema_weight: float = 0.3  # weight of the incoming embedding in the EMA
    k: int = 10
    query_vector_mode: str = "source_centroid"
    cold_start_mode: str = "seed_on_first_match"

    def validate(self) -> None:
        if not 0.0 < self.ema_weight < 1.0:
            raise ValueError("ema_weight must be in (0, 1)")
        if self.query_vector_mode not in QUERY_MODES:
            raise ValueError(f"query_vector_mode must be one of {QUERY_MODES}")
        if self.cold_start_mode not in COLD_START_MODES:
            raise ValueError(f"cold_start_mode must be one of {COLD_START_MODES}")


@dataclass
class TurState:
    index: KnnIndex                       # frozen source embeddings
    source_prototypes: np.ndarray         # (num_known, d), frozen
    target_prototypes: dict[int, np.ndarray]  # present classes only
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
    target_match: int | None


def init_tur(bank: EmbeddingBank, params: ModelParams, config: TurConfig) -> TurState:
    """Fresh state: empty (or source-copied) target prototypes, memory bank
    holding exactly one renormalized head row per class."""
    config.validate()
    if bank.embeddings.shape[1] != params.embed_dim:
        raise ValueError("bank and head embedding dims disagree")
    zero = np.flatnonzero(np.linalg.norm(params.head, axis=1) == 0.0)
    if len(zero):
        raise ValueError(f"head row {zero[0]} is zero: cannot seed memory bank")
    seeds = np.stack([l2_normalize(row) for row in params.head])
    target: dict[int, np.ndarray] = {}
    if config.cold_start_mode == "copy_source":
        target = {k: bank.prototypes[k].copy() for k in range(params.num_known)}
    return TurState(
        index=build_index(bank, k=config.k),
        source_prototypes=bank.prototypes,
        target_prototypes=target,
        memory_sum=seeds.copy(),
        memory_count=np.ones(len(seeds), dtype=np.int64),
        followup_prototypes=seeds,
        params=params,
        config=config,
    )


def match_source(state: TurState, centroid: np.ndarray) -> np.ndarray:
    """Best frozen source prototype per centroid row; ties go to the lowest."""
    return np.argmax(centroid @ state.source_prototypes.T, axis=-1)


def match_target(state: TurState, centroid: np.ndarray) -> np.ndarray | None:
    """Best present target prototype per centroid row, or None before any."""
    if not state.target_prototypes:
        return None
    keys = sorted(state.target_prototypes)
    sims = centroid @ np.array([state.target_prototypes[k] for k in keys]).T
    return np.array(keys)[np.argmax(sims, axis=-1)]


def update_target_prototype(state: TurState, k: int, z_t: np.ndarray) -> None:
    """EMA update (or initial seeding) of target prototype k, renormalized."""
    old = state.target_prototypes.get(k)
    if old is None:
        state.target_prototypes[k] = z_t.copy()
        return
    phi = state.config.ema_weight
    mixed = phi * z_t + (1.0 - phi) * old
    if np.linalg.norm(mixed) == 0.0:
        logger.warning("degenerate EMA for target prototype %d; left unchanged", k)
        return
    state.target_prototypes[k] = l2_normalize(mixed)


def update_memory_bank(state: TurState, z_t: np.ndarray) -> int:
    """Add z_t to the running sum of the head's predicted class and refresh
    that class's follow-up prototype, the normalized mean. Returns the class."""
    k = int(np.argmax(head_logits(state.params, z_t)))
    state.memory_sum[k] += z_t
    state.memory_count[k] += 1
    mean = state.memory_sum[k] / state.memory_count[k]
    if np.linalg.norm(mean) > 0.0:
        state.followup_prototypes[k] = l2_normalize(mean)
    else:
        logger.warning("degenerate follow-up prototype for class %d; left unchanged", k)
    return k


def followup_predict(state: TurState, q: np.ndarray) -> np.ndarray:
    """(num_known + 1)-way argmax per row of q over the follow-up prototypes;
    the last index maps to UNKNOWN."""
    k = np.argmax(q @ state.followup_prototypes.T, axis=-1)
    return np.where(k == state.num_known, UNKNOWN, k)


def decide(state: TurState, z: np.ndarray, centroid: np.ndarray):
    """Route embedding rows z with their neighborhood centroids on the current
    state, without changing it. Returns per row the source match, the target
    match (None before any target prototype exists), whether the row is agreed
    (cycle-consistent or cold-start), hence labelled by its source match, and
    the follow-up query vector."""
    k_src = match_source(state, centroid)
    k_tgt = match_target(state, centroid)
    q = centroid if state.config.query_vector_mode == "source_centroid" else z
    mode = state.config.cold_start_mode
    if k_tgt is None:  # no target prototype yet: both seeding modes agree
        return k_src, None, np.full(np.shape(k_src), mode != "copy_source"), q
    agreed = k_src == k_tgt
    if mode == "seed_per_class":  # so does a class with no target prototype
        seeded = np.zeros(state.num_known, dtype=bool)
        seeded[list(state.target_prototypes)] = True
        agreed |= ~seeded[k_src]
    return k_src, k_tgt, agreed, q


def step(state: TurState, x_t: np.ndarray) -> Prediction:
    """Process one test sample: embed, route it with `decide`, then update
    the matched target prototype, or add the sample to the memory bank and
    take the follow-up label. Mutates state in place; never touches params."""
    z_t = forward(state.params, x_t).z
    centroid = query(state.index, z_t).centroid
    k_src, k_tgt, agreed, q = decide(state, z_t, centroid)
    k_src, k_tgt = int(k_src), None if k_tgt is None else int(k_tgt)
    if agreed:
        update_target_prototype(state, k_src, z_t)
        pred = Prediction(k_src, "agreed", k_src, k_tgt)
    else:
        update_memory_bank(state, z_t)
        pred = Prediction(int(followup_predict(state, q)), "followup", k_src, k_tgt)
    state.step_count += 1
    return pred


def predict_frozen(state: TurState, x: np.ndarray) -> np.ndarray:
    """Label the rows of x (a 1-D x is one point) as `step` would, without
    changing the state; used for decision-grid export after a stream."""
    z = forward(state.params, x).z
    centroid = query(state.index, z).centroid
    k_src, _, agreed, q = decide(state, z, centroid)
    return np.where(agreed, k_src, followup_predict(state, q))[()]  # one point: a scalar


def run_stream(state: TurState, stream) -> list[Prediction]:
    """Sequentially adapt over an ordered stream of Samples."""
    return [step(state, s.features) for s in stream]


def save_snapshot(state: TurState, path: str) -> None:
    """Resumable snapshot of a size fixed by the model: prototypes, memory
    sums and counts, and step counter (bank and model have their own files).
    Written through a temporary file, so a crash keeps the old snapshot."""
    payload = {
        "format": SNAPSHOT_FORMAT,
        "step_count": state.step_count,
        "target_prototypes": {str(k): v.tolist() for k, v in state.target_prototypes.items()},
        "memory_sum": state.memory_sum.tolist(),
        "memory_count": state.memory_count.tolist(),
        "followup_prototypes": state.followup_prototypes.tolist(),
        "config": dataclasses.asdict(state.config),
    }
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(payload, fh, sort_keys=True)
    os.replace(tmp, path)


def load_snapshot(path: str, bank: EmbeddingBank, params: ModelParams) -> TurState:
    with open(path) as fh:
        payload = json.load(fh)
    if payload.get("format") != SNAPSHOT_FORMAT:
        raise ValueError(f"{path}: not a format-{SNAPSHOT_FORMAT} engine snapshot")
    state = init_tur(bank, params, TurConfig(**payload["config"]))
    for name in ("memory_sum", "memory_count", "followup_prototypes"):
        fresh = getattr(state, name)  # shaped by the model
        value = np.array(payload[name], dtype=fresh.dtype)
        if value.shape != fresh.shape:
            raise ValueError(f"{path}: {name} has shape {value.shape}, the model needs {fresh.shape}")
        setattr(state, name, value)
    state.step_count = payload["step_count"]
    state.target_prototypes = {int(k): np.array(v) for k, v in payload["target_prototypes"].items()}
    return state
