"""Mini-batch momentum-SGD training, several objectives in lockstep, and
source embedding bank extraction."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import Sample, read_labelled_csv, write_labelled_csv
from .losses import LossConfig, LossWeights, check_labels, loss
from .model import ModelParams, backward, forward, forward_rows
from .numeric import l2_normalize


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 100
    batch_size: int = 16
    learning_rate: float = 0.01
    momentum: float = 0.9
    shuffle_seed: int = 0
    loss: LossConfig = field(default_factory=LossConfig)

    def validate(self) -> None:
        if self.epochs < 0 or self.batch_size < 1 or self.learning_rate < 0:
            raise ValueError("epochs/batch_size/learning_rate out of range")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        self.loss.validate()


@dataclass
class EmbeddingBank:
    """Frozen L2-normalized source embeddings with labels plus per-class
    prototypes (renormalized class means)."""
    embeddings: np.ndarray  # (n, embed_dim), unit rows
    labels: np.ndarray      # (n,), known indices
    prototypes: np.ndarray  # (num_known, embed_dim), unit rows

    @classmethod
    def from_rows(cls, embeddings: np.ndarray, labels: np.ndarray, num_known: int) -> EmbeddingBank:
        """The bank of these rows, prototype k the unit mean of the rows labelled k;
        raises unless every class 0..num_known-1 has rows and a nonzero mean."""
        check_labels(labels, num_known)
        present = np.unique(labels)  # sorted, and no larger than the bank
        if len(present) < num_known:  # the first gap in 0, 1, ... is a missing class
            k = np.flatnonzero(np.append(present, num_known) != np.arange(len(present) + 1))[0]
            raise ValueError(f"no rows of class {k}: no prototype")
        means = np.stack([embeddings[labels == k].mean(axis=0) for k in range(num_known)])
        return cls(embeddings, labels, l2_normalize(means))

    def __len__(self) -> int:
        return self.embeddings.shape[0]


def train(
    params: ModelParams,
    train_set: list[Sample],
    config: TrainConfig,
    objective: str = "ugd",
) -> tuple[ModelParams, list[float]]:
    """Momentum SGD over shuffled mini-batches, one batched forward/backward
    per batch; returns new params and the mean loss per epoch. The
    one-objective case of `train_many`."""
    return train_many(params, train_set, config, [objective])[0]


def train_many(
    params: ModelParams,
    train_set: list[Sample],
    config: TrainConfig,
    objectives: list[str],
) -> list[tuple[ModelParams, list[float]]]:
    """Train one copy of params per objective in `losses.OBJECTIVES`, all
    under one config, in lockstep: the copies are stacked, and each
    mini-batch is one forward, loss and backward call over all of them, each
    slice bit-identical to training it alone. Returns (params, mean loss per
    epoch) per objective, in order. Aborts on a non-finite loss or a zero or
    non-finite embedding, naming the epoch and the objective."""
    objectives = list(objectives)
    if not objectives:
        raise ValueError("need at least one objective")
    config.validate()
    weights = LossWeights.of(config.loss, objectives)
    features, labels = _stack(train_set, params)
    stacked = ModelParams.stack([params] * len(objectives))
    velocity = np.zeros_like(stacked.buffer)
    grad = ModelParams(np.empty_like(stacked.buffer), stacked.activations, stacked.shapes)
    rng = np.random.default_rng(config.shuffle_seed)
    history: list[np.ndarray] = []
    for epoch in range(config.epochs):
        order = rng.permutation(len(train_set))
        epoch_losses: list[np.ndarray] = []
        for start in range(0, len(order), config.batch_size):
            batch = order[start : start + config.batch_size]
            try:
                trace = forward(stacked, features[batch])
            except ValueError as exc:
                # overflowing parameters surface as non-normalizable
                # embeddings before the loss itself goes non-finite
                bad = _first_failing_slice(stacked, features[batch])
                raise RuntimeError(f"training diverged at epoch {epoch} for objective "
                                   f"{objectives[bad]!r}: {exc}") from exc
            values, dlogits = loss(trace.logits, labels[batch], weights)
            if not np.isfinite(values).all():
                bad = int(np.argmin(np.isfinite(values).all(axis=-1)))
                raise RuntimeError(f"training diverged: non-finite loss at epoch {epoch} "
                                   f"for objective {objectives[bad]!r}")
            epoch_losses.append(values)
            dlogits /= len(batch)  # the gradient of the batch-mean loss
            backward(stacked, trace, dlogits, grad)
            velocity *= config.momentum
            velocity += grad.buffer
            stacked.buffer -= config.learning_rate * velocity
        history.append(np.concatenate(epoch_losses, axis=-1).mean(axis=-1))
    return [(p, [float(h[a]) for h in history]) for a, p in enumerate(stacked.unstack())]


def _first_failing_slice(stacked: ModelParams, x: np.ndarray) -> int:
    """Index of the first slice whose own forward pass over x raises."""
    for a, params in enumerate(stacked.unstack()):
        try:
            forward(params, x)
        except ValueError:
            return a
    return 0


def _stack(train_set: list[Sample], params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Features as an (n, d) matrix and labels as (n,) known indices, checked
    against the model's input width and classes."""
    labels = np.array([s.label for s in train_set], dtype=np.int64)
    check_labels(labels, params.num_known)
    features = np.stack([s.features for s in train_set])
    if features.shape[1] != params.input_dim:
        raise ValueError(f"train set has {features.shape[1]} features per sample, "
                         f"the model takes {params.input_dim}")
    return features, labels


def extract_bank(params: ModelParams, train_set: list[Sample]) -> EmbeddingBank:
    """One normalized embedding per training sample (input order), each with
    the bits of its own 1-D forward, plus renormalized per-class mean
    prototypes."""
    features, labels = _stack(train_set, params)
    return EmbeddingBank.from_rows(forward_rows(params, features)[0], labels, params.num_known)


def save_bank(bank: EmbeddingBank, path: str) -> None:
    """The bank's rows and labels as one CSV; the prototypes are not stored,
    `load_bank` computes them from the rows."""
    write_labelled_csv(path, "z", bank.embeddings, bank.labels)


def load_bank(path: str) -> EmbeddingBank:
    """The bank of a `save_bank` file, its prototypes the class means of its
    rows as `extract_bank` computes them. Raises, naming the file, unless the
    labels are 0..K-1 with every class present."""
    embeddings, labels = read_labelled_csv(path)
    try:
        return EmbeddingBank.from_rows(embeddings, labels, int(labels.max(initial=0)) + 1)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
