import warnings

import numpy as np
import pytest

from ostta.numeric import l2_normalize, softmax


def test_l2_normalize_345_triangle():
    np.testing.assert_allclose(l2_normalize(np.array([3.0, 4.0])), [0.6, 0.8])


def test_l2_normalize_already_unit():
    np.testing.assert_allclose(l2_normalize(np.array([1.0, 0.0])), [1.0, 0.0])


def test_l2_normalize_zero_vector_raises():
    with pytest.raises(ValueError):
        l2_normalize(np.zeros(2))


def test_l2_normalize_idempotent():
    rng = np.random.default_rng(0)
    for _ in range(50):
        v = rng.normal(size=6)
        once = l2_normalize(v)
        np.testing.assert_allclose(l2_normalize(once), once, atol=1e-12)


def test_l2_normalize_rows_match_vectors():
    rng = np.random.default_rng(4)
    rows = rng.normal(size=(30, 6)) * rng.uniform(0.01, 100.0, size=(30, 1))
    out = l2_normalize(rows)
    for row, got in zip(rows, out):
        np.testing.assert_allclose(got, l2_normalize(row), rtol=0, atol=1e-15)


@pytest.mark.parametrize("bad", [0.0, np.inf, np.nan])
def test_l2_normalize_rejects_any_bad_row(bad):
    rows = np.ones((4, 3))
    rows[2] = bad
    with pytest.raises(ValueError):
        l2_normalize(rows)
    with pytest.raises(ValueError):
        l2_normalize(rows[2])


def test_softmax_uniform():
    np.testing.assert_allclose(softmax(np.zeros(4)), [0.25] * 4, atol=1e-12)


def test_softmax_hand_value():
    p = softmax(np.array([np.log(2.0), 0.0]))
    np.testing.assert_allclose(p, [2 / 3, 1 / 3], atol=1e-12)


def test_softmax_high_temperature_limit():
    np.testing.assert_allclose(softmax(np.array([5.0, 1.0]), tau=1e6), [0.5, 0.5], atol=1e-5)


def test_softmax_sums_to_one_and_stable():
    rng = np.random.default_rng(2)
    for _ in range(50):
        logits = rng.uniform(-100, 100, size=7)
        assert softmax(logits).sum() == pytest.approx(1.0, abs=1e-9)
    assert np.isfinite(softmax(np.array([1e4, -1e4, 0.0]))).all()


def test_softmax_temperature_equals_prescaled():
    rng = np.random.default_rng(3)
    for _ in range(20):
        logits = rng.normal(size=5)
        tau = rng.uniform(0.1, 10.0)
        np.testing.assert_allclose(
            softmax(logits, tau), softmax(logits / tau, 1.0), atol=1e-12
        )


def test_softmax_bad_temperature():
    with pytest.raises(ValueError):
        softmax(np.zeros(3), tau=0.0)


def test_l2_normalize_overflowing_row_raises_without_warning():
    # the squares overflow to inf; the guard rejects the row, numpy stays quiet
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError):
            l2_normalize(np.full((2, 3), 1e200))
