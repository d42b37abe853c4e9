"""Batched numerics equal the one-row case, over generated inputs.

A matrix product sums in another order than a one-row product, so a row of
a batched forward or backward may differ from the one-row call in the last
bits of a float64. RTOL is set from that: far above float64 rounding over
these sizes, far below any real error. The losses reduce each row on its
own, so their rows must equal the one-row calls exactly.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ostta.cli import _argmax_labels
from ostta.data import UNKNOWN
from ostta.losses import LossConfig, ce_loss, sce_loss, ua_loss, ugd_loss
from ostta.metrics import decision_grid
from ostta.model import backward, forward, init_model

RTOL = 1e-12

LOSSES = {
    "ce": ce_loss,
    "ua": ua_loss,
    "sce": lambda lg, y: sce_loss(lg, y, LossConfig(tau=2.0, lam=0.05)),
    "ugd": lambda lg, y: ugd_loss(lg, y, LossConfig()),
    "ugd_no_ua": lambda lg, y: ugd_loss(lg, y, LossConfig(enable_ua=False)),
    "ugd_no_sce": lambda lg, y: ugd_loss(lg, y, LossConfig(enable_sce=False)),
}

seeds = st.integers(0, 2**32 - 1)
rows = st.integers(1, 40)
hiddens = st.sampled_from([(5,), (6, 5), (64, 64)])
props = settings(max_examples=40, deadline=None)


def _model(seed, hidden, num_known=3):
    rng = np.random.default_rng(seed)
    input_dim, embed_dim = (int(v) for v in rng.integers(2, 6, size=2))
    return init_model(input_dim, embed_dim, num_known, seed, hidden=hidden), rng


def _close(batched, single):
    """Equal up to RTOL of the larger magnitude in the array."""
    scale = max(np.abs(single).max(), 1e-300)
    np.testing.assert_allclose(batched, single, rtol=0, atol=RTOL * scale)


@props
@given(seed=seeds, n=rows, hidden=hiddens, scale=st.floats(0.01, 50.0))
def test_forward_rows_equal_one_row_calls(seed, n, hidden, scale):
    params, rng = _model(seed, hidden)
    x = rng.normal(size=(n, params.input_dim)) * scale
    batch = forward(params, x)
    singles = [forward(params, row) for row in x]
    for field in ("h", "z", "logits"):
        _close(getattr(batch, field), np.stack([getattr(s, field) for s in singles]))
    for i, acts in enumerate(batch.activations):
        _close(acts, np.stack([s.activations[i] for s in singles]))
    assert batch.logits.shape == (n, params.num_known + 1)


@props
@given(seed=seeds, n=rows, num_known=st.integers(1, 30), scale=st.floats(0.0, 30.0))
def test_loss_rows_equal_one_row_calls(seed, n, num_known, scale):
    rng = np.random.default_rng(seed)
    logits = rng.normal(size=(n, num_known + 1)) * scale
    y = rng.integers(num_known, size=n)
    for name, loss in LOSSES.items():
        values, grads = loss(logits, y)
        assert values.shape == (n,) and grads.shape == logits.shape, name
        for i in range(n):
            v, g = loss(logits[i], int(y[i]))
            assert isinstance(v, float), name
            assert v == values[i], name
            assert np.array_equal(g, grads[i]), name


@props
@given(seed=seeds, n=rows, hidden=hiddens)
def test_backward_equals_sum_of_one_row_backwards(seed, n, hidden):
    params, rng = _model(seed, hidden)
    x = rng.normal(size=(n, params.input_dim)) * 3.0
    dlogits = rng.normal(size=(n, params.num_known + 1))
    batch = backward(params, forward(params, x), dlogits)
    singles = [backward(params, forward(params, x[i]), dlogits[i]) for i in range(n)]
    pairs = [(batch.head, [g.head for g in singles])]
    for i in range(len(params.weights)):
        pairs.append((batch.weights[i], [g.weights[i] for g in singles]))
        pairs.append((batch.biases[i], [g.biases[i] for g in singles]))
    for got, parts in pairs:
        want = np.sum(parts, axis=0)
        assert got.shape == want.shape
        assert np.linalg.norm(got - want) <= RTOL * max(np.linalg.norm(want), 1e-300)


@props
@given(seed=seeds, resolution=st.integers(2, 12), hidden=hiddens)
def test_model_grid_equals_per_point_argmax(seed, resolution, hidden):
    rng = np.random.default_rng(seed)
    params = init_model(2, 4, 3, seed, hidden=hidden)
    lo = rng.uniform(-10, 0, size=2)
    bbox = ((lo[0], lo[0] + rng.uniform(0.1, 20)), (lo[1], lo[1] + rng.uniform(0.1, 20)))
    grid = decision_grid(lambda pts: _argmax_labels(params, pts), bbox, resolution)
    for x, y, label in grid:
        k = int(np.argmax(forward(params, np.array([x, y])).logits))
        assert label == (UNKNOWN if k == params.num_known else k)
