import numpy as np
import pytest

from ostta.losses import (
    OBJECTIVES,
    LossConfig,
    LossWeights,
    ce_loss,
    loss,
    sce_loss,
    ua_loss,
    ugd_loss,
)


def finite_diff(fn, logits, eps=1e-6):
    """Central-difference gradient of a scalar loss w.r.t. logits."""
    grad = np.zeros_like(logits)
    for i in range(logits.size):
        hi = logits.copy()
        lo = logits.copy()
        hi[i] += eps
        lo[i] -= eps
        grad[i] = (fn(hi)[0] - fn(lo)[0]) / (2 * eps)
    return grad


def rel_err(a, b):
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)
    return np.linalg.norm(a - b) / denom


# ---------------------------------------------------------------- CE


def test_ce_uniform_logits():
    value, _ = ce_loss(np.zeros(4), 0)
    assert value == pytest.approx(np.log(4.0), abs=1e-9)


def test_ce_hand_value():
    # logits (1,0,0,0), y=0: loss = log(e + 3) - 1
    value, _ = ce_loss(np.array([1.0, 0.0, 0.0, 0.0]), 0)
    assert value == pytest.approx(np.log(np.e + 3.0) - 1.0, abs=1e-9)
    assert value == pytest.approx(0.74367, abs=1e-5)


def test_ce_gradient_is_softmax_minus_onehot():
    rng = np.random.default_rng(0)
    logits = rng.normal(size=5)
    _, grad = ce_loss(logits, 2)
    p = np.exp(logits - logits.max())
    p /= p.sum()
    expected = p.copy()
    expected[2] -= 1.0
    np.testing.assert_allclose(grad, expected, atol=1e-12)


def test_ce_gradient_finite_difference():
    rng = np.random.default_rng(1)
    for _ in range(20):
        logits = rng.normal(size=6) * 3
        y = int(rng.integers(5))
        _, grad = ce_loss(logits, y)
        assert rel_err(grad, finite_diff(lambda l: ce_loss(l, y), logits)) <= 1e-4


def test_ce_bad_label():
    with pytest.raises(ValueError):
        ce_loss(np.zeros(4), 4)
    with pytest.raises(ValueError):
        ce_loss(np.zeros(4), -1)


# ---------------------------------------------------------------- UA


def test_ua_uniform_logits():
    # 4 logits (3 known + unknown), all zero, y=0: masked set has 3 entries
    # -> loss = -log(1/3)
    value, _ = ua_loss(np.zeros(4), 0)
    assert value == pytest.approx(np.log(3.0), abs=1e-9)


def test_ua_dominant_unknown():
    value, _ = ua_loss(np.array([0.0, 0.0, 0.0, 10.0]), 0)
    assert value == pytest.approx(np.log(1.0 + 2.0 * np.exp(-10.0)), abs=1e-12)
    assert value == pytest.approx(9.08e-5, rel=1e-2)


def test_ua_gradient_zero_at_true_label():
    rng = np.random.default_rng(2)
    for _ in range(20):
        logits = rng.normal(size=5) * 2
        y = int(rng.integers(4))
        _, grad = ua_loss(logits, y)
        assert grad[y] == 0.0


def test_ua_gradient_negative_at_unknown():
    rng = np.random.default_rng(3)
    for _ in range(20):
        logits = rng.normal(size=5) * 2
        _, grad = ua_loss(logits, 1)
        assert grad[-1] < 0.0


def test_ua_gradient_finite_difference():
    rng = np.random.default_rng(4)
    for _ in range(20):
        logits = rng.normal(size=6) * 3
        y = int(rng.integers(5))
        _, grad = ua_loss(logits, y)
        assert rel_err(grad, finite_diff(lambda l: ua_loss(l, y), logits)) <= 1e-4


def test_ua_requires_two_classes_and_valid_label():
    with pytest.raises(ValueError):
        ua_loss(np.zeros(1), 0)
    with pytest.raises(ValueError):
        ua_loss(np.zeros(4), 3)  # unknown slot is not a valid true label


# ---------------------------------------------------------------- SCE


def test_sce_hand_value():
    # logits (2,0,0,0), y=0, tau=2, lam=0.05:
    # CE(logits/2) = log(e + 3) - 1; penalty = 0.05 * 2
    value, _ = sce_loss(np.array([2.0, 0.0, 0.0, 0.0]), 0, LossConfig(tau=2.0, lam=0.05))
    assert value == pytest.approx(np.log(np.e + 3.0) - 1.0 + 0.1, abs=1e-9)
    assert value == pytest.approx(0.84367, abs=1e-5)


def test_sce_tau_one_lam_zero_is_ce():
    rng = np.random.default_rng(5)
    logits = rng.normal(size=4)
    v_sce, g_sce = sce_loss(logits, 1, LossConfig(tau=1.0, lam=0.0))
    v_ce, g_ce = ce_loss(logits, 1)
    assert v_sce == pytest.approx(v_ce, abs=1e-12)
    np.testing.assert_allclose(g_sce, g_ce, atol=1e-12)


def test_sce_zero_logits_subgradient():
    value, grad = sce_loss(np.zeros(4), 0, LossConfig(tau=2.0, lam=0.05))
    assert value == pytest.approx(np.log(4.0), abs=1e-9)
    # norm term contributes nothing at the origin
    expected = (np.full(4, 0.25) - np.eye(4)[0]) / 2.0
    np.testing.assert_allclose(grad, expected, atol=1e-12)


def test_sce_gradient_finite_difference():
    rng = np.random.default_rng(6)
    for _ in range(20):
        logits = rng.normal(size=6) * 3
        y = int(rng.integers(5))
        _, grad = sce_loss(logits, y, LossConfig(tau=2.0, lam=0.05))
        fd = finite_diff(lambda l: sce_loss(l, y, LossConfig(tau=2.0, lam=0.05)), logits)
        assert rel_err(grad, fd) <= 1e-4


def test_sce_bad_params():
    with pytest.raises(ValueError):
        sce_loss(np.zeros(4), 0, LossConfig(tau=0.0, lam=0.05))
    with pytest.raises(ValueError):
        sce_loss(np.zeros(4), 0, LossConfig(tau=2.0, lam=-0.1))


# ---------------------------------------------------------------- UGD


def test_ugd_is_sum_of_parts():
    rng = np.random.default_rng(7)
    cfg = LossConfig(tau=2.0, lam=0.05)
    for _ in range(20):
        logits = rng.normal(size=5) * 2
        y = int(rng.integers(4))
        v, g = ugd_loss(logits, y, cfg)
        v_ua, g_ua = ua_loss(logits, y)
        v_sce, g_sce = sce_loss(logits, y, cfg)
        assert v == pytest.approx(v_ua + v_sce, abs=1e-12)
        np.testing.assert_allclose(g, g_ua + g_sce, atol=1e-12)


def test_ugd_hand_value():
    # zero logits, y=0, tau=2, lam=0.05: UA = log 3, SCE = log 4
    v, _ = ugd_loss(np.zeros(4), 0, LossConfig(tau=2.0, lam=0.05))
    assert v == pytest.approx(np.log(3.0) + np.log(4.0), abs=1e-9)
    assert v == pytest.approx(2.48490, abs=1e-5)


def test_ugd_ablation_flags():
    # each objective is its table row of terms; ce ignores the config's tau and lam
    logits = np.array([0.5, -0.2, 0.1, 0.3])
    y = 1
    cfg = LossConfig(tau=3.0, lam=0.1)
    want = {
        "ce": ce_loss(logits, y)[0],
        "ugd_no_ua": sce_loss(logits, y, cfg)[0],
        "ugd_no_sce": ua_loss(logits, y)[0],
        "ugd": ugd_loss(logits, y, cfg)[0],
    }
    assert set(want) == set(OBJECTIVES)
    for name, value in want.items():
        assert loss(logits, y, LossWeights.of(cfg, name))[0] == pytest.approx(value, abs=1e-12)
    stacked, _ = loss(np.stack([logits[None]] * 4), [y], LossWeights.of(cfg, list(want)))
    np.testing.assert_allclose(stacked[:, 0], list(want.values()), rtol=0, atol=1e-12)


def test_loss_weights_reject_an_unknown_objective():
    with pytest.raises(ValueError, match=r"unknown objective in \['art'\]"):
        LossWeights.of(LossConfig(), "art")
    with pytest.raises(ValueError, match="unknown objective"):
        LossWeights.of(LossConfig(), ["ce", ""])


def test_ugd_gradient_finite_difference():
    rng = np.random.default_rng(8)
    cfg = LossConfig(tau=2.0, lam=0.05)
    for _ in range(20):
        logits = rng.normal(size=6) * 3
        y = int(rng.integers(5))
        _, grad = ugd_loss(logits, y, cfg)
        fd = finite_diff(lambda l: ugd_loss(l, y, cfg), logits)
        assert rel_err(grad, fd) <= 1e-4
