import dataclasses
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ostta.losses import LossConfig, ce_loss, ugd_loss
from ostta.model import (
    ModelParams,
    backward,
    forward,
    init_model,
    load_checkpoint,
    save_checkpoint,
)
from ostta.numeric import l2_normalize


def _flat_params(params):
    return params.buffer.copy()


def _flat_grads(grads):
    return grads.buffer.copy()


def _set_flat(params, vec):
    # a new buffer, not a deepcopy: that would part the views from it
    return ModelParams(vec.copy(), list(params.activations), list(params.shapes))


def test_init_shapes_and_seeding():
    p = init_model(input_dim=2, embed_dim=8, num_known=3, seed=0, hidden=(64, 64))
    assert [w.shape for w in p.weights] == [(64, 2), (64, 64), (8, 64)]
    assert all(np.all(b == 0.0) for b in p.biases)
    assert p.head.shape == (4, 8)
    q = init_model(2, 8, 3, 0, hidden=(64, 64))
    assert all(np.array_equal(a, b) for a, b in zip(p.weights, q.weights))
    r = init_model(2, 8, 3, 1, hidden=(64, 64))
    assert not np.array_equal(p.weights[0], r.weights[0])


def test_init_bound_scales_with_fan_in():
    p = init_model(input_dim=100, embed_dim=4, num_known=2, seed=0, hidden=(16,))
    assert np.abs(p.weights[0]).max() <= 1.0 / np.sqrt(100)
    assert np.abs(p.weights[1]).max() <= 1.0 / np.sqrt(16)


def test_forward_shapes_and_unit_embedding():
    p = init_model(2, 8, 3, 0)
    trace = forward(p, np.array([0.3, -1.2]))
    assert trace.logits.shape == (4,)
    assert trace.z.shape == (8,)
    assert np.linalg.norm(trace.z) == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(trace.logits, p.head @ trace.h, atol=1e-12)


def test_forward_hidden_layers_are_tanh_bounded():
    p = init_model(2, 8, 3, 0)
    trace = forward(p, np.array([50.0, -50.0]))
    for a in trace.activations[:-1]:
        assert np.abs(a).max() <= 1.0
    assert np.isfinite(trace.logits).all()


@pytest.mark.parametrize("loss_name", ["ce", "ugd"])
def test_backward_full_finite_difference(loss_name):
    """End-to-end gradient of the scalar loss w.r.t. every parameter tensor."""
    cfg = LossConfig(tau=2.0, lam=0.05)

    def loss_of(params, x, y):
        trace = forward(params, x)
        if loss_name == "ce":
            return ce_loss(trace.logits, y)
        return ugd_loss(trace.logits, y, cfg)

    rng = np.random.default_rng(10)
    p = init_model(2, 4, 3, 3, hidden=(5, 5))
    for trial in range(3):
        x = rng.normal(size=2)
        y = int(rng.integers(3))
        trace = forward(p, x)
        _, dlogits = (
            ce_loss(trace.logits, y) if loss_name == "ce"
            else ugd_loss(trace.logits, y, cfg)
        )
        grads = backward(p, trace, dlogits)
        theta = _flat_params(p)
        fd = np.zeros_like(theta)
        eps = 1e-6
        for i in range(theta.size):
            hi = theta.copy()
            lo = theta.copy()
            hi[i] += eps
            lo[i] -= eps
            fd[i] = (
                loss_of(_set_flat(p, hi), x, y)[0]
                - loss_of(_set_flat(p, lo), x, y)[0]
            ) / (2 * eps)
        an = _flat_grads(grads)
        denom = max(np.linalg.norm(an), np.linalg.norm(fd), 1e-12)
        assert np.linalg.norm(an - fd) / denom <= 1e-4


def _identity_encoder(head_value: float) -> ModelParams:
    """A one-feature model whose embedding h is its input and whose head
    entries are all head_value."""
    params = init_model(1, 1, 2, 0, hidden=())
    params.weights[0][...] = 1.0
    params.head[...] = head_value
    return params


@pytest.mark.parametrize("bad", [0.0, np.inf, np.nan, 1e200])
def test_forward_rejects_a_bad_h_row_before_the_head_product(bad):
    # a head of 1e200 overflows the product with an h row of 1e200: only a
    # check of h that runs first keeps it from warning
    params = _identity_encoder(1e200)
    x = np.array([[0.5], [bad], [2.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for model in (params, ModelParams.stack([params, params])):
            with pytest.raises(ValueError, match="cannot normalize a zero or non-finite vector"):
                forward(model, x)
        forward(params, x[[0, 2]])  # the healthy rows alone pass


def test_forward_rejects_an_overflowing_one_row_h_without_a_warning():
    params = init_model(2, 2, 3, 0, hidden=())  # h is a linear map of x
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="cannot normalize a zero or non-finite vector"):
            forward(params, np.array([1e200, 1.0]))


def test_forward_rejects_one_row_x_for_stacked_params():
    stacked = ModelParams.stack([init_model(2, 4, 3, seed) for seed in range(3)])
    with pytest.raises(ValueError, match=r"\(3, \d+\).*\(n, 2\).*\(2,\)"):
        forward(stacked, np.array([0.5, -1.0]))
    assert forward(stacked, np.array([[0.5, -1.0]])).logits.shape == (3, 1, 4)


def test_trace_z_is_h_normalized_on_read():
    params = init_model(2, 8, 3, 0)
    x = np.random.default_rng(1).normal(size=(5, 2))
    for rows in (x, x[0], x[:, None, :]):  # a matrix, one row, a stack of one-row matrices
        trace = forward(params, rows)
        assert trace.h is trace.activations[-1]
        assert trace.z.tobytes() == l2_normalize(trace.h).tobytes()
        assert trace.z is not trace.z  # not kept on the trace


def test_backward_into_a_reused_buffer_equals_a_fresh_one():
    stacked = ModelParams.stack([init_model(2, 4, 3, seed, hidden=(6, 5)) for seed in range(3)])
    rng = np.random.default_rng(2)
    out = ModelParams(np.full_like(stacked.buffer, np.nan), stacked.activations, stacked.shapes)
    for _ in range(2):  # the second call overwrites the first one's gradients
        trace = forward(stacked, rng.normal(size=(7, 2)))
        dlogits = rng.normal(size=trace.logits.shape)
        assert backward(stacked, trace, dlogits, out) is out
        assert out.buffer.tobytes() == backward(stacked, trace, dlogits).buffer.tobytes()


def test_stack_and_unstack_copy_deeply():
    models = [init_model(2, 4, 3, seed, hidden=(5, 6)) for seed in range(3)]
    before = [m.param_bytes() for m in models]
    stacked = ModelParams.stack(models)
    assert stacked.head.shape == (3, 4, 4) and stacked.num_known == models[0].num_known
    assert (stacked.input_dim, stacked.embed_dim) == (2, 4)
    stacked.head[0, 0, 0] += 1.0
    unstacked = stacked.unstack()
    unstacked[1].weights[0][0, 0] += 1.0
    assert [m.param_bytes() for m in models] == before
    assert unstacked[1].param_bytes() != stacked.unstack()[1].param_bytes()
    assert unstacked[2].param_bytes() == before[2]


def test_checkpoint_round_trip_bit_exact(tmp_path):
    p = init_model(2, 8, 3, 7)
    # introduce values that stress float round-tripping
    p.head[0, 0] = np.nextafter(1.0, 2.0)
    p.weights[0][0, 0] = 1e-300
    path = tmp_path / "model.ckpt"
    save_checkpoint(p, str(path))
    q = load_checkpoint(str(path))
    for a, b in zip(p.weights, q.weights):
        assert np.array_equal(a, b)
    for a, b in zip(p.biases, q.biases):
        assert np.array_equal(a, b)
    assert np.array_equal(p.head, q.head)
    assert p.activations == q.activations


def test_checkpoint_save_is_deterministic(tmp_path):
    p = init_model(2, 8, 3, 7)
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(p, str(a))
    save_checkpoint(p, str(b))
    assert a.read_bytes() == b.read_bytes()


def test_checkpoint_failing_mid_write_keeps_the_old_file(tmp_path):
    p = init_model(2, 8, 3, 7)
    path = tmp_path / "model.ckpt"
    save_checkpoint(p, str(path))
    before = path.read_bytes()
    # a body that fails to convert, after the header is written
    broken = dataclasses.replace(p, buffer=np.full(p.buffer.shape, "x", dtype=object))
    with pytest.raises(ValueError):
        save_checkpoint(broken, str(path))
    assert path.read_bytes() == before
    assert np.array_equal(load_checkpoint(str(path)).head, p.head)


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"not a checkpoint\n")
    with pytest.raises(ValueError):
        load_checkpoint(str(path))


def _with_header(**changes):
    """Damage that rewrites header fields of a checkpoint; None drops one."""
    def damage(raw):
        line, params = raw.split(b"\n", 1)
        header = json.loads(line)
        for key, value in changes.items():
            if value is None:
                del header[key]
            else:
                header[key] = value
        return json.dumps(header).encode() + b"\n" + params
    return damage


HEADER = "the header needs layer_shapes and head_shape"


@pytest.mark.parametrize("damage, match", [
    (lambda raw: raw[:-100], "parameter bytes"),
    (lambda raw: raw + bytes(64), "parameter bytes"),
    (lambda raw: b"{not json\n" + raw.split(b"\n", 1)[1], "not a model checkpoint"),
    (_with_header(head_shape=None), HEADER),
    (_with_header(layer_shapes=None), HEADER),
    (_with_header(activations=None), HEADER),
    (_with_header(head_shape="4x8"), HEADER),
    (_with_header(layer_shapes=[[64.0, 2], [64, 64], [8, 64]]), HEADER),
    (_with_header(layer_shapes={"0": [64, 2]}), HEADER),
    (_with_header(activations="tanh"), HEADER),
    (_with_header(activations=["tanh", "tanh"]), HEADER),
    (_with_header(layer_shapes=[], activations=[]), HEADER),
    (_with_header(activations=["tanh", "relu", "linear"]), "unknown activation 'relu'"),
    (_with_header(layer_shapes=[[4, 2], [8, 5]], activations=["tanh", "linear"]), "do not chain"),
    (_with_header(layer_shapes=[[64, 2], [64, 63], [8, 64]]), "do not chain"),
    (_with_header(head_shape=[4, 7]), "do not chain"),
    (_with_header(head_shape=[1, 8]), "at least 2 rows"),
    (lambda raw: raw[:-16] + np.array([np.nan, np.inf], "<f8").tobytes(),
     r"parameter \d+ is nan, not finite"),
], ids=["cut-short", "trailing-bytes", "header-not-json", "no-head-shape", "no-layer-shapes",
        "no-activations", "head-shape-str", "layer-shape-float", "layer-shapes-dict",
        "activations-str", "activations-too-few", "layers-empty", "activation-unknown",
        "layers-do-not-chain", "layer-width-off-by-one", "head-width-not-embed", "head-one-row",
        "non-finite-parameter"])
def test_checkpoint_names_the_file_it_rejects(tmp_path, damage, match):
    path = tmp_path / "model.ckpt"
    save_checkpoint(init_model(2, 8, 3, 7), str(path))
    path.write_bytes(damage(path.read_bytes()))
    with pytest.raises(ValueError, match=match) as err:
        load_checkpoint(str(path))
    assert str(path) in str(err.value)


def _views_share_the_buffer(params):
    for array in (*params.weights, *params.biases, params.head):
        assert np.shares_memory(array, params.buffer)


@settings(max_examples=25, deadline=None)
@given(hidden=st.lists(st.integers(1, 9), max_size=3), embed_dim=st.integers(1, 9),
       seed=st.integers(0, 2**32 - 1), arms=st.integers(1, 3))
def test_every_parameter_array_is_a_view_of_the_buffer(tmp_path_factory, hidden, embed_dim, seed,
                                                        arms):
    params = init_model(3, embed_dim, 2, seed, hidden=tuple(hidden))
    path = tmp_path_factory.mktemp("ckpt") / "model.ckpt"
    save_checkpoint(params, str(path))
    loaded = load_checkpoint(str(path))
    assert params.param_bytes() == loaded.param_bytes() == path.read_bytes().split(b"\n", 1)[1]
    stacked = ModelParams.stack([params] * arms)
    x = np.random.default_rng(seed).normal(size=(4, 3))
    trace = forward(stacked, x)
    grads = backward(stacked, trace, np.ones_like(trace.logits))
    for model in (params, loaded, stacked, *stacked.unstack(), grads):
        _views_share_the_buffer(model)
    for model in (loaded, stacked):
        for index in (0, -1):  # the first layer's first weight, the head's last entry
            before = forward(model, x).logits
            model.buffer[..., index] += 1.0
            assert not np.array_equal(forward(model, x).logits, before)


def test_init_rejects_bad_dims():
    with pytest.raises(ValueError):
        init_model(0, 8, 3, 0)
    with pytest.raises(ValueError):
        init_model(2, 0, 3, 0)
    with pytest.raises(ValueError):
        init_model(2, 8, 0, 0)
