import copy
import dataclasses
import json

import numpy as np
import pytest

from ostta.losses import LossConfig, ce_loss, ugd_loss
from ostta.model import (
    ModelParams,
    backward,
    forward,
    init_model,
    load_checkpoint,
    save_checkpoint,
)


def _flat_params(params):
    parts = [w.ravel() for w in params.weights]
    parts += [b.ravel() for b in params.biases]
    parts.append(params.head.ravel())
    return np.concatenate(parts)


def _flat_grads(grads):
    parts = [w.ravel() for w in grads.weights]
    parts += [b.ravel() for b in grads.biases]
    parts.append(grads.head.ravel())
    return np.concatenate(parts)


def _set_flat(params, vec):
    out = copy.deepcopy(params)
    pos = 0
    for w in out.weights:
        w[...] = vec[pos : pos + w.size].reshape(w.shape)
        pos += w.size
    for b in out.biases:
        b[...] = vec[pos : pos + b.size].reshape(b.shape)
        pos += b.size
    out.head[...] = vec[pos : pos + out.head.size].reshape(out.head.shape)
    return out


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
    broken = dataclasses.replace(p, head=np.full(p.head.shape, "x", dtype=object))  # fails after the layers
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
    (_with_header(activations=["tanh", "relu", "linear"]), "unknown activation 'relu'"),
], ids=["cut-short", "trailing-bytes", "header-not-json", "no-head-shape", "no-layer-shapes",
        "no-activations", "head-shape-str", "layer-shape-float", "layer-shapes-dict",
        "activations-str", "activations-too-few", "activation-unknown"])
def test_checkpoint_names_the_file_it_rejects(tmp_path, damage, match):
    path = tmp_path / "model.ckpt"
    save_checkpoint(init_model(2, 8, 3, 7), str(path))
    path.write_bytes(damage(path.read_bytes()))
    with pytest.raises(ValueError, match=match) as err:
        load_checkpoint(str(path))
    assert str(path) in str(err.value)


def test_init_rejects_bad_dims():
    with pytest.raises(ValueError):
        init_model(0, 8, 3, 0)
    with pytest.raises(ValueError):
        init_model(2, 0, 3, 0)
    with pytest.raises(ValueError):
        init_model(2, 8, 0, 0)
