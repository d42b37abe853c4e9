"""Mini-batch momentum-SGD training and source embedding bank extraction."""
from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .data import Sample, atomic_open, read_labelled_csv
from .losses import LossConfig, ce_loss, ugd_loss
from .model import ModelGrads, ModelParams, backward, forward
from .numeric import l2_normalize

# Rows per forward call in extract_bank: one matrix over a large bank would
# hold every layer's activations at once.
_BANK_BLOCK = 256


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 100
    batch_size: int = 16
    learning_rate: float = 0.01
    momentum: float = 0.9
    shuffle_seed: int = 0
    objective: str = "ugd"  # "ugd" or "ce"
    loss: LossConfig = field(default_factory=LossConfig)

    def validate(self) -> None:
        if self.epochs < 0 or self.batch_size < 1 or self.learning_rate < 0:
            raise ValueError("epochs/batch_size/learning_rate out of range")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if self.objective not in ("ugd", "ce"):
            raise ValueError(f"unknown objective {self.objective!r}")


@dataclass
class EmbeddingBank:
    """Frozen L2-normalized source embeddings with labels plus per-class
    prototypes (renormalized class means)."""
    embeddings: np.ndarray  # (n, embed_dim), unit rows
    labels: np.ndarray      # (n,), known indices
    prototypes: np.ndarray  # (num_known, embed_dim), unit rows

    def __len__(self) -> int:
        return self.embeddings.shape[0]


def train(
    params: ModelParams,
    train_set: list[Sample],
    config: TrainConfig,
) -> tuple[ModelParams, list[float]]:
    """Momentum SGD over shuffled mini-batches, one batched forward/backward
    per batch; returns new params and the mean loss per epoch. Aborts on a
    non-finite loss or a zero or non-finite embedding."""
    config.validate()
    features, labels = _stack(train_set)
    params = params.copy()
    velocity = ModelGrads.zeros_like(params)
    rng = np.random.default_rng(config.shuffle_seed)
    history: list[float] = []
    for epoch in range(config.epochs):
        order = rng.permutation(len(train_set))
        epoch_losses: list[np.ndarray] = []
        for start in range(0, len(order), config.batch_size):
            batch = order[start : start + config.batch_size]
            try:
                trace = forward(params, features[batch])
            except ValueError as exc:
                # overflowing parameters surface as non-normalizable
                # embeddings before the loss itself goes non-finite
                raise RuntimeError(f"training diverged at epoch {epoch}: {exc}") from exc
            if config.objective == "ce":
                values, dlogits = ce_loss(trace.logits, labels[batch])
            else:
                values, dlogits = ugd_loss(trace.logits, labels[batch], config.loss)
            if not np.all(np.isfinite(values)):
                raise RuntimeError(f"training diverged: non-finite loss at epoch {epoch}")
            epoch_losses.append(values)
            # gradient of the batch-mean loss
            grad = backward(params, trace, dlogits / len(batch))
            for i in range(len(params.weights)):
                velocity.weights[i] = config.momentum * velocity.weights[i] + grad.weights[i]
                velocity.biases[i] = config.momentum * velocity.biases[i] + grad.biases[i]
                params.weights[i] -= config.learning_rate * velocity.weights[i]
                params.biases[i] -= config.learning_rate * velocity.biases[i]
            velocity.head = config.momentum * velocity.head + grad.head
            params.head -= config.learning_rate * velocity.head
        history.append(float(np.mean(np.concatenate(epoch_losses))))
    return params, history


def _stack(train_set: list[Sample]) -> tuple[np.ndarray, np.ndarray]:
    """Features as an (n, d) matrix and labels as (n,) known indices."""
    if any(s.label < 0 for s in train_set):
        raise ValueError("train set must contain known labels only")
    features = np.stack([s.features for s in train_set])
    return features, np.array([s.label for s in train_set], dtype=np.int64)


def extract_bank(params: ModelParams, train_set: list[Sample]) -> EmbeddingBank:
    """One normalized embedding per training sample (input order) plus
    renormalized per-class mean prototypes."""
    features, labels = _stack(train_set)
    embeddings = np.concatenate([
        forward(params, features[i : i + _BANK_BLOCK]).z
        for i in range(0, len(features), _BANK_BLOCK)
    ])
    prototypes = []
    for k in range(params.num_known):
        members = embeddings[labels == k]
        if members.shape[0] == 0:
            raise ValueError(f"class {k} absent from train set: no prototype")
        mean = members.mean(axis=0)
        if np.linalg.norm(mean) == 0.0:
            raise ValueError(f"class {k} embeddings average to zero: prototype undefined")
        prototypes.append(l2_normalize(mean))
    return EmbeddingBank(embeddings, labels, np.stack(prototypes))


def save_bank(bank: EmbeddingBank, path: str) -> None:
    """Bank entries as CSV plus a `<path>.proto.csv` prototype sidecar."""
    header = [f"z{i}" for i in range(bank.embeddings.shape[1])] + ["label"]
    for p, vectors, labels in ((path, bank.embeddings, bank.labels),
                               (path + ".proto.csv", bank.prototypes, range(len(bank.prototypes)))):
        with atomic_open(p, newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for z, lab in zip(vectors, labels):
                writer.writerow([repr(float(v)) for v in z] + [str(int(lab))])


def load_bank(path: str) -> EmbeddingBank:
    def read(p: str) -> tuple[np.ndarray, np.ndarray]:
        rows, labs = read_labelled_csv(p, int)
        return np.array(rows), np.array(labs, dtype=np.int64)

    embeddings, labels = read(path)
    prototypes, proto_labels = read(path + ".proto.csv")
    if not np.array_equal(proto_labels, np.arange(len(proto_labels))):
        raise ValueError("prototype sidecar labels must be 0..num_known-1 in order")
    return EmbeddingBank(embeddings, labels, prototypes)
