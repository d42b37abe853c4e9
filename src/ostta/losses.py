"""Training objectives over the (num_known + 1)-way logits.

Every loss takes (n, num_known + 1) logits with (n,) labels and returns
per-row values and the gradient w.r.t. the logits. A 1-D call is the
one-row case and returns a float value. The unknown class sits at the last
logit index. Ground-truth labels are always known indices.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numeric import logsumexp, softmax


@dataclass(frozen=True)
class LossConfig:
    tau: float = 2.0       # softening temperature, > 1
    lam: float = 0.05      # weight of the logit-norm penalty
    enable_ua: bool = True
    enable_sce: bool = True

    def validate(self) -> None:
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if self.lam < 0:
            raise ValueError("lam must be non-negative")


def _rows(logits, y) -> tuple[bool, np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Whether the call is 1-D, the logits as an (n, K+1) matrix, and the
    index of each row's ground-truth logit. Labels must be known indices."""
    single = np.ndim(logits) == 1
    logits = np.atleast_2d(np.asarray(logits, dtype=np.float64))
    y = np.atleast_1d(np.asarray(y))
    num_known = logits.shape[1] - 1
    if y.shape != logits.shape[:1]:
        raise ValueError(f"{y.size} labels for {logits.shape[0]} logit rows")
    if np.any((y < 0) | (y >= num_known)):
        raise ValueError(f"label outside known range [0, {num_known}): {y}")
    return single, logits, (np.arange(len(y)), y)


def _result(single: bool, value: np.ndarray, grad: np.ndarray):
    """A 1-D call returns a float value and a 1-D gradient."""
    return (float(value[0]), grad[0]) if single else (value, grad)


def ce_loss(logits: np.ndarray, y: int | np.ndarray) -> tuple[float | np.ndarray, np.ndarray]:
    """Standard cross-entropy over all num_known + 1 classes."""
    single, logits, gt = _rows(logits, y)
    value = logsumexp(logits) - logits[gt]
    grad = softmax(logits)
    grad[gt] -= 1.0
    return _result(single, value, grad)


def ua_loss(logits: np.ndarray, y: int | np.ndarray) -> tuple[float | np.ndarray, np.ndarray]:
    """Unknown-activation loss: negative log-likelihood of the unknown
    logit against every logit except the ground truth. The ground-truth
    logit is masked with -inf, so its gradient is exactly zero; the unknown
    gradient is always negative, pulling that logit up under descent."""
    single, logits, gt = _rows(logits, y)
    masked = logits.copy()
    masked[gt] = -np.inf
    value = logsumexp(masked) - logits[:, -1]
    grad = softmax(masked)
    grad[:, -1] -= 1.0
    return _result(single, value, grad)


def sce_loss(
    logits: np.ndarray, y: int | np.ndarray, config: LossConfig
) -> tuple[float | np.ndarray, np.ndarray]:
    """Temperature-softened cross-entropy plus an L2 penalty on the logit
    vector. Penalty subgradient at the origin is taken as zero."""
    config.validate()
    single, logits, gt = _rows(logits, y)
    scaled = logits / config.tau
    value = logsumexp(scaled) - scaled[gt]
    grad = softmax(scaled)
    grad[gt] -= 1.0
    grad /= config.tau
    norm = np.linalg.norm(logits, axis=1)
    value += config.lam * norm
    # a zero row is all zeros, so dividing it by 1 gives the zero subgradient
    grad += config.lam * logits / np.where(norm > 0, norm, 1.0)[:, None]
    return _result(single, value, grad)


def ugd_loss(
    logits: np.ndarray, y: int | np.ndarray, config: LossConfig
) -> tuple[float | np.ndarray, np.ndarray]:
    """Sum of the unknown-activation and softened-CE terms; either side can
    be ablated via config flags, but not both."""
    if not (config.enable_ua or config.enable_sce):
        raise ValueError("empty objective: both loss terms disabled")
    value, grad = 0.0, 0.0
    if config.enable_ua:
        v, g = ua_loss(logits, y)
        value, grad = value + v, grad + g
    if config.enable_sce:
        v, g = sce_loss(logits, y, config)
        value, grad = value + v, grad + g
    return value, grad
