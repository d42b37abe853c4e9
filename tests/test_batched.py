"""Batched numerics equal the one-row case, and stacked models equal one
model at a time, over generated inputs.

A matrix product sums in another order than a one-row product, so a row of
a batched forward or backward may differ from the one-row call in the last
bits of a float64. RTOL is set from that: far above float64 rounding over
these sizes, far below any real error. The losses reduce each row on its
own, so their rows must equal the one-row calls exactly. A stacked model
runs each slice through the same products as the model alone, so stacked
forward, backward and lockstep training must equal the one-model calls
bit for bit.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ostta.cli import _argmax_labels
from ostta.data import UNKNOWN, BlobSpec, generate_blobs
from ostta.losses import OBJECTIVES, LossConfig, ce_loss, sce_loss, ua_loss, ugd_loss
from ostta.metrics import decision_grid
from ostta.model import ModelParams, backward, forward, init_model
from ostta.trainer import TrainConfig, train, train_many

RTOL = 1e-12

LOSSES = {
    "ce": ce_loss,
    "ua": ua_loss,
    "sce": lambda lg, y: sce_loss(lg, y, LossConfig(tau=2.0, lam=0.05)),
    "ugd": lambda lg, y: ugd_loss(lg, y, LossConfig()),
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
@given(seed=seeds, resolution=st.integers(2, 12), hidden=hiddens, block=st.integers(1, 150))
def test_model_grid_equals_per_point_argmax(seed, resolution, hidden, block):
    # any block of lattice rows, from one row to the whole lattice
    rng = np.random.default_rng(seed)
    params = init_model(2, 4, 3, seed, hidden=hidden)
    lo = rng.uniform(-10, 0, size=2)
    bbox = ((lo[0], lo[0] + rng.uniform(0.1, 20)), (lo[1], lo[1] + rng.uniform(0.1, 20)))
    grid = decision_grid(lambda pts: _argmax_labels(params, pts), bbox, resolution, block)
    assert len(grid) == resolution**2 and grid.labels.shape == (resolution, resolution)
    for i, y in enumerate(grid.ys):
        for j, x in enumerate(grid.xs):
            k = int(np.argmax(forward(params, np.array([x, y])).logits))
            assert grid.labels[i, j] == (UNKNOWN if k == params.num_known else k)


@props
@given(seed=seeds, n=rows, hidden=hiddens, arms=st.integers(1, 5), scale=st.floats(0.01, 50.0))
def test_stacked_forward_backward_equal_one_model_calls(seed, n, hidden, arms, scale):
    first, rng = _model(seed, hidden)
    models = [first] + [init_model(first.input_dim, first.embed_dim, first.num_known, seed + a,
                                   hidden=hidden) for a in range(1, arms)]
    stacked = ModelParams.stack(models)
    assert [m.param_bytes() for m in stacked.unstack()] == [m.param_bytes() for m in models]
    x = rng.normal(size=(n, first.input_dim)) * scale
    dlogits = rng.normal(size=(arms, n, first.num_known + 1))
    trace = forward(stacked, x)
    grads = backward(stacked, trace, dlogits)
    for a, params in enumerate(models):
        one = forward(params, x)
        for field in ("h", "z", "logits"):
            assert np.array_equal(getattr(trace, field)[a], getattr(one, field))
        for got, want in zip(trace.activations, one.activations):
            assert np.array_equal(got[a], want)
        g = backward(params, one, dlogits[a])
        assert np.array_equal(grads.head[a], g.head)
        for i in range(len(params.weights)):
            assert np.array_equal(grads.weights[i][a], g.weights[i])
            assert np.array_equal(grads.biases[i][a], g.biases[i])


@settings(max_examples=15, deadline=None)
@given(seed=seeds, objectives=st.lists(st.sampled_from(list(OBJECTIVES)), min_size=1, max_size=4),
       tau=st.floats(0.5, 10.0), lam=st.floats(0.0, 0.5), batch_size=st.integers(1, 9))
def test_lockstep_slices_equal_one_config_training(seed, objectives, tau, lam, batch_size):
    train_set, _ = generate_blobs(BlobSpec(samples_per_cluster=6, seed=seed % 1000))
    params = init_model(2, 4, 3, seed, hidden=(6,))
    config = TrainConfig(epochs=3, batch_size=batch_size, shuffle_seed=seed,
                         loss=LossConfig(tau=tau, lam=lam))
    together = train_many(params, train_set, config, objectives)
    assert len(together) == len(objectives)
    for objective, (got, history) in zip(objectives, together):
        want, want_history = train(params, train_set, config, objective)
        assert got.param_bytes() == want.param_bytes()
        assert history == want_history
