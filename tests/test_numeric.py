import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ostta.numeric import l2_norm, l2_normalize, softmax_lse


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
    # bit for bit, and the bits of np.linalg.norm, whatever the stacking
    rng = np.random.default_rng(4)
    rows = rng.normal(size=(5000, 8)) * rng.uniform(0.01, 100.0, size=(5000, 1))
    for stack in (rows, rows.reshape(50, 100, 8), rows[:1]):
        out = l2_normalize(stack).reshape(-1, 8)
        for row, got in zip(stack.reshape(-1, 8), out):
            assert np.array_equal(got, l2_normalize(row))
            assert np.array_equal(got, row / np.linalg.norm(row))


@pytest.mark.parametrize("bad", [0.0, np.inf, np.nan])
def test_l2_normalize_rejects_any_bad_row(bad):
    rows = np.ones((4, 3))
    rows[2] = bad
    with pytest.raises(ValueError):
        l2_normalize(rows)
    with pytest.raises(ValueError):
        l2_normalize(rows[2])


def test_softmax_uniform():
    lse, p = softmax_lse(np.zeros(4))
    np.testing.assert_allclose(p, [0.25] * 4, atol=1e-12)
    assert lse == pytest.approx(np.log(4.0), abs=1e-12)


def test_softmax_hand_value():
    lse, p = softmax_lse(np.array([np.log(2.0), 0.0]))
    np.testing.assert_allclose(p, [2 / 3, 1 / 3], atol=1e-12)
    assert lse.shape == () and lse == pytest.approx(np.log(3.0), abs=1e-12)


def test_softmax_sums_to_one_and_stable():
    rng = np.random.default_rng(2)
    for _ in range(50):
        logits = rng.uniform(-100, 100, size=7)
        assert softmax_lse(logits)[1].sum() == pytest.approx(1.0, abs=1e-9)
    lse, p = softmax_lse(np.array([1e4, -1e4, 0.0]))
    assert np.isfinite(p).all() and lse == pytest.approx(1e4, abs=1e-9)


@settings(max_examples=200, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(1, 3), st.integers(1, 5), st.integers(2, 9)),
              elements=st.floats(-1e300, 1e300) | st.just(-np.inf)))
def test_softmax_lse_bits_equal_separate_softmax_and_logsumexp(z):
    # the fused helper keeps the bits of the separate max-subtracted
    # softmax and log-sum-exp it replaced, -inf (masked) entries included
    with np.errstate(over="ignore", invalid="ignore"):
        lse, p = softmax_lse(z)
        m = z.max(axis=-1, keepdims=True)
        e = np.exp(z - m)
        want_p = e / e.sum(axis=-1, keepdims=True)
        want_lse = (m + np.log(np.exp(z - m).sum(axis=-1, keepdims=True)))[..., 0]
    assert p.tobytes() == want_p.tobytes() and lse.tobytes() == want_lse.tobytes()
    for row, lse_row, p_row in zip(z.reshape(-1, z.shape[-1]), lse.ravel(), p.reshape(-1, z.shape[-1])):
        with np.errstate(over="ignore", invalid="ignore"):
            one_lse, one_p = softmax_lse(row)  # each row has the bits of its own 1-D call
        assert one_lse.tobytes() == lse_row.tobytes() and one_p.tobytes() == p_row.tobytes()


def test_l2_norm_is_the_divisor_of_l2_normalize():
    rows = np.random.default_rng(3).normal(size=(6, 5))
    norms = l2_norm(rows)
    assert norms.shape == (6, 1)
    assert np.array_equal(l2_normalize(rows), rows / norms)
    assert l2_norm(rows[0]) == norms[0, 0]
    with pytest.raises(ValueError, match="zero or non-finite"):
        l2_norm(np.zeros((2, 3)))


def test_l2_normalize_overflowing_row_raises_without_warning():
    # the squares overflow to inf; the guard rejects the row, numpy stays quiet
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError):
            l2_normalize(np.full((2, 3), 1e200))
