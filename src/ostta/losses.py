"""Training objectives over the (num_known + 1)-way logits, unknown last.

One computation, `loss`, serves every objective in `OBJECTIVES`: the
unknown-activation (UA) term plus the temperature-softened cross-entropy
(SCE) term with a logit-norm penalty, each on or off. Logits are (n, K + 1)
rows with (n,) known labels, or (A, n, K + 1) with one objective per slice;
a 1-D call is the one-row case and returns a float value. `ce_loss`,
`ua_loss`, `sce_loss` and `ugd_loss` are one-objective views of `loss`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import bounded, check_fields
from .numeric import softmax_lse


@dataclass(frozen=True)
class LossConfig:
    tau: float = bounded(2.0, 0, open_low=True)  # softening temperature, > 1
    lam: float = bounded(0.05, 0)  # weight of the logit-norm penalty

    def validate(self) -> None:
        check_fields(self, "config.train.loss")


# The terms each objective trains, (UA on, SCE on). "ce" takes the SCE term
# at tau 1 and lam 0, whatever the config's tau and lam.
OBJECTIVES = {"ce": (False, True), "ugd_no_ua": (False, True),
              "ugd_no_sce": (True, False), "ugd": (True, True)}


@dataclass(frozen=True)
class LossWeights:
    """Coefficients of `loss`. `divisor` and `on` lead with an axis of the
    two terms, UA then SCE; then every coefficient is shaped (A, 1) for A
    stacked slices or (1,) for unstacked logits, so it broadcasts over each
    slice's rows."""
    divisor: np.ndarray  # (2, ..., 1, 1): 1 for UA, tau for SCE
    lam: np.ndarray      # (..., 1): weight of the SCE term's logit-norm penalty
    on: np.ndarray       # (2, ..., 1) bool: term on

    @staticmethod
    def of(config: LossConfig, objectives: str | list[str]) -> "LossWeights":
        """Weights of one objective, or of one objective per stacked slice,
        all taking tau and lam from config."""
        config.validate()
        stacked = not isinstance(objectives, str)
        names = list(objectives) if stacked else [objectives]
        if not set(names) <= OBJECTIVES.keys():
            raise ValueError(f"unknown objective in {names}; objectives: {tuple(OBJECTIVES)}")
        lead = (len(names),) if stacked else ()
        tau = [1.0 if name == "ce" else config.tau for name in names]
        lam = [0.0 if name == "ce" else config.lam for name in names]
        on = [OBJECTIVES[name] for name in names]
        return LossWeights(np.array([[1.0] * len(names), tau]).reshape(2, *lead, 1, 1),
                           np.array(lam).reshape(*lead, 1),
                           np.array(on, dtype=bool).T.reshape(2, *lead, 1))


def check_labels(y: np.ndarray, num_known: int) -> None:
    """Raise unless every label is a known index 0 <= y < num_known."""
    outside = (y < 0) | (y >= num_known)
    if np.any(outside):
        raise ValueError(f"label outside known range [0, {num_known}): {np.unique(y[outside])}")


def loss(logits, y, weights: LossWeights):
    """Per-row values and dL/dlogits of the weighted UA + SCE objective.
    Labels are not checked here; see `check_labels`. A disabled term is
    selected away, not multiplied by zero, so its non-finite values cannot
    reach the result. Values that overflow surface as non-finite results
    for the caller to reject."""
    single = np.ndim(logits) == 1
    logits = np.asarray(logits, dtype=np.float64)
    if single:
        logits = logits[None]
    y = np.atleast_1d(np.asarray(y))
    if y.shape != logits.shape[-2:-1]:
        raise ValueError(f"{y.size} labels for {logits.shape[-2]} logit rows")
    rows = np.arange(len(y))
    with np.errstate(over="ignore", invalid="ignore"):
        # both terms at once, on a leading axis. UA: NLL of the unknown
        # logit against every logit but the ground truth, which is masked
        # with -inf (zero gradient); its divisor 1 keeps the logits' bits.
        # SCE: softened CE over logits / tau.
        terms = logits / weights.divisor
        terms[0, ..., rows, y] = -np.inf
        value, grad = softmax_lse(terms)
        value[0] -= logits[..., -1]
        value[1] -= terms[1][..., rows, y]
        grad[0, ..., -1] -= 1.0
        grad[1, ..., rows, y] -= 1.0
        grad /= weights.divisor
        # SCE's penalty lam * ||logits||, with a zero subgradient at the
        # origin: a zero row is all zeros, so dividing it by 1 gives zero
        norm = np.sqrt((logits * logits).sum(axis=-1))  # np.linalg.norm's sum, minus its overhead
        value[1] += weights.lam * norm
        grad[1] += weights.lam[..., None] * logits / np.where(norm > 0, norm, 1.0)[..., None]
    value, grad = np.where(weights.on, value, 0.0), np.where(weights.on[..., None], grad, 0.0)
    value, grad = value[0] + value[1], grad[0] + grad[1]
    return (float(value[0]), grad[0]) if single else (value, grad)


def _view(logits, y, config: LossConfig, objective: str):
    """`loss` for one objective, with the labels checked."""
    check_labels(np.asarray(y), np.shape(logits)[-1] - 1)
    return loss(logits, y, LossWeights.of(config, objective))


def ce_loss(logits: np.ndarray, y: int | np.ndarray) -> tuple[float | np.ndarray, np.ndarray]:
    """Standard cross-entropy over all num_known + 1 classes."""
    return _view(logits, y, LossConfig(), "ce")


def ua_loss(logits: np.ndarray, y: int | np.ndarray) -> tuple[float | np.ndarray, np.ndarray]:
    """Unknown-activation loss: negative log-likelihood of the unknown
    logit against every logit except the ground truth. The ground-truth
    gradient is exactly zero; the unknown gradient is always negative,
    pulling that logit up under descent."""
    return _view(logits, y, LossConfig(), "ugd_no_sce")


def sce_loss(
    logits: np.ndarray, y: int | np.ndarray, config: LossConfig
) -> tuple[float | np.ndarray, np.ndarray]:
    """Temperature-softened cross-entropy plus an L2 penalty on the logit
    vector. Penalty subgradient at the origin is taken as zero."""
    return _view(logits, y, config, "ugd_no_ua")


def ugd_loss(
    logits: np.ndarray, y: int | np.ndarray, config: LossConfig
) -> tuple[float | np.ndarray, np.ndarray]:
    """Sum of the unknown-activation and softened-CE terms."""
    return _view(logits, y, config, "ugd")
