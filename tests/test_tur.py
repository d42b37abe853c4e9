import dataclasses
import functools
import json
import math
import os
import re
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ostta import numeric
from ostta.cli import ExperimentConfig
from ostta.data import UNKNOWN, BlobSpec, Sample, apply_shift, generate_blobs, make_stream
from ostta.model import ModelParams, init_model
from ostta.numeric import l2_normalize
from ostta.trainer import EmbeddingBank, extract_bank, train
from ostta.tur import (
    TurConfig,
    decide,
    embed,
    followup_predict,
    init_tur,
    load_snapshot,
    predict_frozen,
    run_stream,
    save_snapshot,
    step,
    update_memory_bank,
    update_prototype,
)


def _toy_bank(dim=4, per_class=5, num_known=3, seed=0):
    rng = np.random.default_rng(seed)
    centers = np.eye(num_known, dim)
    emb, labels = [], []
    for k in range(num_known):
        for _ in range(per_class):
            emb.append(l2_normalize(centers[k] + 0.1 * rng.normal(size=dim)))
            labels.append(k)
    emb = np.stack(emb)
    labels = np.array(labels, dtype=np.int64)
    protos = np.stack(
        [l2_normalize(emb[labels == k].mean(axis=0)) for k in range(num_known)]
    )
    return EmbeddingBank(emb, labels, protos)


def _toy_state(config=None, dim=4, num_known=3):
    bank = _toy_bank(dim=dim, num_known=num_known)
    params = init_model(2, dim, num_known, seed=0, hidden=(8,))
    cfg = config or TurConfig(k=3)
    return init_tur(bank, params, cfg), bank, params


@functools.lru_cache(maxsize=1)
def _trained_model():
    """A model trained on the reference config's blobs and loss at 30
    samples per cluster and 15 epochs, its bank and the reference-shifted
    120-sample stream, built once. The stream takes both routes: 108
    follow-up and 12 agreed steps at k=5."""
    ref = ExperimentConfig()
    train_set, test_set = generate_blobs(dataclasses.replace(ref.blob, samples_per_cluster=30))
    params, _ = train(init_model(2, 8, 3, 0), train_set, dataclasses.replace(ref.train, epochs=15))
    stream = make_stream(apply_shift(test_set, ref.shift), 0)
    return params, extract_bank(params, train_set), stream


def _first_best(c, table):
    """The best row of table for c by the per-pair dot product, ties to the
    lowest index; asserted to be the first row equal to it."""
    scores = [np.dot(c, row) for row in table]
    k = scores.index(max(scores))
    assert not any(np.array_equal(row, table[k]) for row in table[:k])  # the first of its tie group
    return k


def test_config_validation():
    with pytest.raises(ValueError):
        TurConfig(ema_weight=0.0).validate()
    with pytest.raises(ValueError):
        TurConfig(ema_weight=1.0).validate()
    with pytest.raises(ValueError, match="k=0 must be >= 1"):
        TurConfig(k=0).validate()
    TurConfig().validate()
    TurConfig(k=1).validate()


def test_init_memory_seeded_from_head_rows():
    state, _, params = _toy_state()
    assert state.followup_prototypes.shape == (4, 4)
    for k in range(4):
        np.testing.assert_allclose(
            state.followup_prototypes[k], l2_normalize(params.head[k]), atol=1e-12
        )
    assert state.step_count == 0


def test_init_copy_source_mode():
    # target prototypes start as a copy of the source prototypes
    state, bank, _ = _toy_state()
    assert np.array_equal(state.target_prototypes, bank.prototypes)
    assert not np.shares_memory(state.target_prototypes, bank.prototypes)


def test_init_dim_mismatch():
    bank = _toy_bank(dim=4)
    params = init_model(2, 5, 3, 0, hidden=(8,))
    with pytest.raises(ValueError):
        init_tur(bank, params, TurConfig(k=3))


def test_init_rejects_prototypes_that_do_not_fit_the_model():
    bank = _toy_bank(dim=4, num_known=3)
    params = init_model(2, 4, 3, 0, hidden=(8,))
    for protos in (bank.prototypes[:2], np.hstack([bank.prototypes, bank.prototypes])):
        wrong = EmbeddingBank(bank.embeddings, bank.labels, protos)
        with pytest.raises(ValueError, match=re.escape(f"prototypes of shape {protos.shape}")):
            init_tur(wrong, params, TurConfig(k=3))


def test_match_source_argmax():
    state, _, _ = _toy_state()
    for k in range(3):
        assert decide(state, state.source_prototypes[k], k) == (k, True)
    state.target_prototypes[[0, 1]] = state.target_prototypes[[1, 0]]
    k_tgt, agreed = decide(state, state.source_prototypes, np.arange(3))  # one row per class
    assert k_tgt.tolist() == [1, 0, 2]
    assert agreed.tolist() == [False, False, True]
    # the source match comes with the centroid from `embed`: the best source prototype
    _, centroid, k_src = embed(state, np.random.default_rng(1).normal(size=(20, 2)) * 5)
    assert k_src.tolist() == [_first_best(c, state.source_prototypes) for c in centroid]


def test_ema_update_hand_value():
    state, _, _ = _toy_state(TurConfig(k=3, ema_weight=0.3))
    state.target_prototypes[0] = np.array([1.0, 0.0, 0.0, 0.0])
    update_prototype(state, state.target_prototypes, 0, np.array([0.0, 1.0, 0.0, 0.0]))
    expected = np.array([0.7, 0.3, 0.0, 0.0])
    expected /= np.linalg.norm(expected)
    np.testing.assert_allclose(state.target_prototypes[0], expected, atol=1e-12)
    np.testing.assert_allclose(
        state.target_prototypes[0][:2], [0.9191450, 0.3939193], atol=1e-6
    )


def test_ema_degenerate_left_unchanged():
    state, _, _ = _toy_state(TurConfig(k=3, ema_weight=0.5))
    old = np.array([1.0, 0.0, 0.0, 0.0])
    state.target_prototypes[0] = old.copy()
    update_prototype(state, state.target_prototypes, 0, -old)  # 0.5*z + 0.5*old == 0
    np.testing.assert_allclose(state.target_prototypes[0], old, atol=1e-12)


def test_memory_bank_update_routes_by_head():
    state, _, params = _toy_state(TurConfig(k=3, ema_weight=0.3))
    state.followup_prototypes = np.eye(4)
    z = l2_normalize(params.head[2])
    k = update_memory_bank(state, z)
    assert k == 2
    np.testing.assert_allclose(
        state.followup_prototypes[2], l2_normalize(0.3 * z + 0.7 * np.eye(4)[2]), atol=1e-12
    )
    others = [0, 1, 3]
    assert np.array_equal(state.followup_prototypes[others], np.eye(4)[others])


def test_followup_prototype_hand_value():
    state, _, params = _toy_state(TurConfig(k=3, ema_weight=0.3))
    e0, e1 = np.eye(4)[0], np.eye(4)[1]
    k = int(np.argmax(params.head @ e1))
    state.followup_prototypes[k] = e0
    assert update_memory_bank(state, e1) == k
    np.testing.assert_allclose(
        state.followup_prototypes[k], [0.9191450, 0.3939193, 0.0, 0.0], atol=1e-6
    )


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), ema_weight=st.floats(0.01, 0.99))
def test_followup_update_equals_target_update(seed, ema_weight):
    # one update rule: from the same row and z, both tables get the same bits
    state, _, params = _toy_state(TurConfig(k=3, ema_weight=ema_weight))
    rng = np.random.default_rng(seed)
    start, z = l2_normalize(rng.normal(size=4)), l2_normalize(rng.normal(size=4))
    k = int((params.head @ z).argmax())
    j = k % state.num_known  # the follow-up table has one row more, the unknown class
    state.target_prototypes[j] = state.followup_prototypes[k] = start
    update_prototype(state, state.target_prototypes, j, z)
    assert update_memory_bank(state, z) == k
    assert state.followup_prototypes[k].tobytes() == state.target_prototypes[j].tobytes()


def test_followup_predict_maps_last_to_unknown():
    state, _, _ = _toy_state()
    state.followup_prototypes = np.eye(4)
    assert followup_predict(state, np.eye(4)[1]) == 1
    assert followup_predict(state, np.eye(4)[3]) == UNKNOWN
    # a block: each row's label is its 1-D call's, the last index UNKNOWN here too
    rng = np.random.default_rng(0)
    z = np.concatenate([np.eye(4)[[3, 1, 0, 3, 2]], l2_normalize(rng.normal(size=(20, 4)))])
    block = followup_predict(state, z)
    assert block.tolist() == [followup_predict(state, row) for row in z]
    assert block[:5].tolist() == [UNKNOWN, 1, 0, UNKNOWN, 2] and UNKNOWN in block[5:].tolist()


def test_step_agreement_route():
    state, _, _ = _toy_state()
    # feed a point whose embedding lands near class prototypes repeatedly
    train_set, _ = generate_blobs(BlobSpec(seed=0))
    pred = step(state, *embed(state, train_set[0].features))
    assert pred.route in ("agreed", "followup")
    assert state.step_count == 1
    if pred.route == "agreed":
        assert pred.label == pred.source_match


def test_step_never_mutates_params():
    params, bank, stream = _trained_model()
    state = init_tur(bank, params, TurConfig(k=10))
    before = params.param_bytes()
    bank_before = state.index.bank.embeddings.tobytes()
    src_before = state.source_prototypes.tobytes()
    run_stream(state, stream)
    assert params.param_bytes() == before
    assert state.index.bank.embeddings.tobytes() == bank_before
    assert state.source_prototypes.tobytes() == src_before


def test_step_followup_route_grows_memory():
    params, bank, stream = _trained_model()
    state = init_tur(bank, params, TurConfig(k=10))
    preds = run_stream(state, stream)
    followups = [p for p in preds if p.route == "followup"]
    # the fixture's stream exercises both routes
    assert len(followups) >= 10 and len(preds) - len(followups) >= 10
    # the follow-up prototypes that moved are those of the head's classes of follow-up steps
    z, _, _ = embed(state, np.stack([s.features for s in stream]))
    routed = {int((params.head @ z_t).argmax())
              for z_t, p in zip(z, preds) if p.route == "followup"}
    seeds = init_tur(bank, params, TurConfig(k=10)).followup_prototypes
    moved = {k for k in range(4) if not np.array_equal(state.followup_prototypes[k], seeds[k])}
    assert moved == routed
    labels = {p.label for p in preds}
    assert labels <= {0, 1, 2, UNKNOWN}


def test_run_stream_deterministic():
    params, bank, stream = _trained_model()
    s1, s2 = (init_tur(bank, params, TurConfig(k=10)) for _ in range(2))
    p1 = run_stream(s1, stream)
    p2 = run_stream(s2, stream)
    assert [p.label for p in p1] == [p.label for p in p2]
    assert [p.route for p in p1] == [p.route for p in p2]


def test_predict_frozen_does_not_mutate():
    params, bank, stream = _trained_model()
    state = init_tur(bank, params, TurConfig(k=10))
    run_stream(state, stream)
    before = _state_bytes(state)
    for s in stream[:20]:
        label = predict_frozen(state, *embed(state, s.features))
        assert label in {0, 1, 2, UNKNOWN}
    labels = predict_frozen(state, *embed(state, np.stack([s.features for s in stream])))
    assert set(labels.tolist()) <= {0, 1, 2, UNKNOWN}
    assert _state_bytes(state) == before


def test_embed_and_predict_frozen_of_no_rows():
    # zero rows give zero answers of each row's shape, as forward_rows does
    params, bank, _ = _trained_model()
    state = init_tur(bank, params, TurConfig(k=5))
    z, centroid, k_src = embed(state, np.empty((0, 2)))
    assert z.shape == centroid.shape == (0, params.embed_dim) and k_src.shape == (0,)
    assert predict_frozen(state, z, centroid, k_src).shape == (0,)


def test_snapshot_round_trip(tmp_path):
    params, bank, stream = _trained_model()
    state = init_tur(bank, params, TurConfig(k=10))
    run_stream(state, stream[:100])
    path = tmp_path / "snap.json"
    save_snapshot(state, str(path))
    restored = load_snapshot(str(path), bank, params)
    assert restored.step_count == state.step_count
    assert _state_bytes(restored) == _state_bytes(state)
    # continuing from the snapshot matches continuing the original
    a = [p.label for p in run_stream(state, stream[100:])]
    b = [p.label for p in run_stream(restored, stream[100:])]
    assert a == b


def _state_bytes(state):
    return (state.target_prototypes.tobytes(), state.followup_prototypes.tobytes(),
            state.step_count)


@settings(max_examples=25, deadline=None)
@given(split=st.integers(0, 120))
def test_snapshot_resume_equals_uninterrupted(split):
    params, bank, stream = _trained_model()
    config = TurConfig(k=5)
    whole = init_tur(bank, params, config)
    want = [(p.label, p.route) for p in run_stream(whole, stream)]
    first = init_tur(bank, params, config)
    got = [(p.label, p.route) for p in run_stream(first, stream[:split])]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "snap.json")
        save_snapshot(first, path)
        resumed = load_snapshot(path, bank, params)
    got += [(p.label, p.route) for p in run_stream(resumed, stream[split:])]
    assert got == want
    assert _state_bytes(resumed) == _state_bytes(whole)


def _seed_target_prototypes(state, stream, start):
    """Overwrite target prototype rows with stream embeddings, as the old
    cold starts seeded them: `copy_source` keeps the source copy,
    `seed_on_first_match` takes the first sample's embedding for its source
    match, `seed_per_class` each class's first source-matched embedding."""
    if start == "copy_source":
        return
    z, _, k_src = embed(state, np.stack([s.features for s in stream]))
    for k in (k_src[:1] if start == "seed_on_first_match" else np.unique(k_src)):
        state.target_prototypes[k] = z[np.flatnonzero(k_src == k)[0]]


@pytest.mark.parametrize("start", ["copy_source", "seed_on_first_match", "seed_per_class"])
def test_predict_frozen_rows_equal_one_row_calls(start):
    params, bank, stream = _trained_model()
    state = init_tur(bank, params, TurConfig(k=5))
    _seed_target_prototypes(state, stream, start)
    if start != "copy_source":
        assert not np.array_equal(state.target_prototypes, state.source_prototypes)
    lattice = np.linspace(-12, 12, 25)
    x = np.array([[a, b] for b in lattice for a in lattice])
    x = np.concatenate([x, np.stack([s.features for s in stream])])
    for stream_part in (stream[:0], stream[:3], stream):
        run_stream(state, stream_part)
        rows = predict_frozen(state, *embed(state, x))
        assert rows.shape == (len(x),)
        assert rows.tolist() == [int(predict_frozen(state, *embed(state, row))) for row in x]


def test_snapshot_size_does_not_grow_with_stream(tmp_path):
    params, bank, stream = _trained_model()
    state = init_tur(bank, params, TurConfig(k=5))
    shapes = []
    for part in (stream[:5], stream[5:]):
        run_stream(state, part)
        save_snapshot(state, str(tmp_path / "snap.json"))
        payload = json.loads((tmp_path / "snap.json").read_text())
        assert payload["format"] == 5
        assert "memory_sum" not in payload and "memory_count" not in payload
        shapes.append([np.shape(payload[key])
                       for key in ("target_prototypes", "followup_prototypes")])
    assert shapes[0] == shapes[1] == [(3, 8), (4, 8)]
    assert os.listdir(tmp_path) == ["snap.json"]  # the temporary file is gone


def test_load_snapshot_rejects_old_format_and_bad_shapes(tmp_path):
    params, bank, stream = _trained_model()
    state = init_tur(bank, params, TurConfig(k=5))
    run_stream(state, stream[:20])
    path = tmp_path / "snap.json"
    save_snapshot(state, str(path))
    good = json.loads(path.read_text())

    old = {k: v for k, v in good.items() if k != "model"}
    old["format"] = 2
    old["target_prototypes"] = {"0": good["target_prototypes"][0]}
    without = lambda key: {k: v for k, v in good.items() if k != key}  # noqa: E731
    # format 4 kept the follow-up memory as running sums and counts
    running_mean = dict(good, format=4, memory_sum=good["followup_prototypes"],
                        memory_count=[1] * len(good["followup_prototypes"]))
    for payload, match in (
        (old, "format-5"),
        (dict(good, format=3), "format-5"),
        (running_mean, "format-5"),
        ([good], "format-5"),
        (without("step_count"), "step_count must be a non-negative int, got None"),
        (dict(good, step_count="7"), "step_count must be a non-negative int, got '7'"),
        (dict(good, step_count=-1), "step_count"),
        (without("config"), "config must be a JSON object, got NoneType"),
        (dict(good, config=dict(good["config"], cold_start_mode="copy_source")),
         r"unknown config keys at config: \['cold_start_mode'\]"),
        (dict(good, config=dict(good["config"], k="x")), "config.k must be int, got str 'x'"),
        (dict(good, config=dict(good["config"], k=0)), "k=0 must be >= 1"),
        (dict(good, config=dict(good["config"], k=len(bank) + 1)), "k=91 must be in"),
        (without("followup_prototypes"), "followup_prototypes"),
        (dict(good, followup_prototypes=good["followup_prototypes"][:-1]), "followup_prototypes"),
        (dict(good, followup_prototypes=[row[:-1] for row in good["followup_prototypes"]]),
         "followup_prototypes"),
        (dict(good, target_prototypes=good["target_prototypes"][:-1]), "target_prototypes"),
        (dict(good, target_prototypes={"7": [1.0, 0.0, 0.0]}), "target_prototypes"),
    ):
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=match) as err:
            load_snapshot(str(path), bank, params)
        assert str(path) in str(err.value)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 150), scale=st.floats(0.1, 30.0),
       ema_weight=st.floats(0.01, 0.99), k=st.integers(1, 90))
def test_prototypes_stay_unit_and_labels_valid_after_any_stream(seed, n, scale, ema_weight, k):
    params, bank, _ = _trained_model()
    rng = np.random.default_rng(seed)
    center = rng.uniform(-12.0, 12.0, size=2)
    stream = [Sample(center + x, UNKNOWN) for x in rng.normal(size=(n, 2)) * scale]
    state = init_tur(bank, params, TurConfig(ema_weight=ema_weight, k=k))
    preds = run_stream(state, stream)
    for protos in (state.target_prototypes, state.followup_prototypes):
        assert np.abs(np.linalg.norm(protos, axis=1) - 1.0).max() <= 1e-12
    valid = {*range(state.num_known), UNKNOWN}
    assert {p.label for p in preds} <= valid
    x = np.stack([s.features for s in stream])
    assert set(predict_frozen(state, *embed(state, x)).tolist()) <= valid


@pytest.mark.parametrize("spoil, match", [
    (lambda whole: whole[: len(whole) // 2], "not a JSON snapshot: "),
    (lambda whole: b"\xff\xfe\x00\x01" + whole, "not a text file"),
], ids=["cut", "binary"])
def test_load_snapshot_names_a_malformed_file(tmp_path, spoil, match):
    params, bank, stream = _trained_model()
    state = init_tur(bank, params, TurConfig(k=5))
    run_stream(state, stream[:20])
    path = tmp_path / "snap.json"
    save_snapshot(state, str(path))
    path.write_bytes(spoil(path.read_bytes()))
    with pytest.raises(ValueError) as err:
        load_snapshot(str(path), bank, params)
    assert str(err.value).startswith(f"{path}: {match}")


@pytest.mark.parametrize("name", ["target_prototypes", "followup_prototypes"])
@pytest.mark.parametrize("spoil", [
    lambda row: [math.nan, *row[1:]],
    lambda row: [*row[:-1], math.inf],
    lambda row: [5.0 * v for v in row],
    lambda row: [0.0] * len(row),
], ids=["nan", "infinity", "norm-5", "zero"])
def test_load_snapshot_refuses_a_row_that_is_not_a_finite_unit_vector(tmp_path, name, spoil):
    params, bank, stream = _trained_model()
    state = init_tur(bank, params, TurConfig(k=5))
    run_stream(state, stream[:20])
    path = tmp_path / "snap.json"
    save_snapshot(state, str(path))
    payload = json.loads(path.read_text())
    payload[name][2] = spoil(payload[name][2])
    path.write_text(json.dumps(payload))  # NaN and Infinity as Python's json writes them
    with pytest.raises(ValueError) as err:
        load_snapshot(str(path), bank, params)
    assert str(err.value).startswith(f"{path}: {name} row 2 has norm ")
    assert str(err.value).endswith("not a finite unit vector within 1e-6")


def test_load_snapshot_rejects_another_model(tmp_path):
    params, bank, stream = _trained_model()
    state = init_tur(bank, params, TurConfig(k=5))
    run_stream(state, stream[:20])
    path = tmp_path / "snap.json"
    save_snapshot(state, str(path))
    other = init_model(2, 8, 3, 1)  # the same shapes, other parameters
    with pytest.raises(ValueError, match="snapshot of model") as err:
        load_snapshot(str(path), bank, other)
    assert str(path) in str(err.value)


@pytest.mark.parametrize("rows", [1, 2, 17, 33, 745])
def test_embed_rows_equal_one_sample_calls(rows):
    params, bank, stream = _trained_model()
    state = init_tur(bank, params, TurConfig(k=5))
    lattice = np.linspace(-12, 12, 25)
    x = np.concatenate([[[a, b] for b in lattice for a in lattice], [s.features for s in stream]])
    z, centroid, k_src = embed(state, x[:rows])
    assert z.shape == centroid.shape == (rows, params.embed_dim)
    assert k_src.shape == (rows,)
    for x_t, z_t, c, k in zip(x, z, centroid, k_src):
        one_z, one_c, one_k = embed(state, x_t)
        assert np.array_equal(z_t, one_z) and np.array_equal(c, one_c)  # bit for bit
        assert one_k.shape == () and one_k == k


@settings(max_examples=40, deadline=None)
@given(rows=st.integers(1, 130), cuts=st.lists(st.integers(1, 119), max_size=6))
def test_any_cut_and_block_size_equal_one_sample_steps(rows, cuts):
    params, bank, stream = _trained_model()
    config = TurConfig(k=5)
    alone = init_tur(bank, params, config)
    want = [step(alone, *embed(alone, s.features)) for s in stream]
    whole = init_tur(bank, params, config)
    assert run_stream(whole, stream) == want  # the default budget: one block
    assert _state_bytes(whole) == _state_bytes(alone)
    cut = init_tur(bank, params, config)
    got = []
    bounds = [0, *sorted(set(cuts)), len(stream)]
    with mock.patch.object(numeric, "_BLOCK_BUDGET", rows * len(bank)):  # KNN blocks of `rows` rows
        for start, stop in zip(bounds, bounds[1:]):
            got += run_stream(cut, stream[start:stop])
    assert got == want
    assert _state_bytes(cut) == _state_bytes(alone)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 80),
       picks=st.lists(st.integers(0, 2), min_size=3, max_size=3))
def test_embed_source_matches_equal_one_sample_calls(seed, rows, picks):
    # repeated picks give duplicate source prototypes: ties a block must break as 1-D calls do
    params, bank, _ = _trained_model()
    tied = dataclasses.replace(bank, prototypes=bank.prototypes[picks])
    state = init_tur(tied, params, TurConfig(k=5))
    x = np.random.default_rng(seed).uniform(-12.0, 12.0, size=(rows, 2))
    _, centroid, k_src = embed(state, x)
    for x_t, c, k in zip(x, centroid, k_src):
        assert embed(state, x_t)[2] == k
        assert _first_best(c, state.source_prototypes) == k  # the first of its tie group


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 40),
       picks=st.lists(st.integers(0, 3), min_size=4, max_size=4))
def test_small_tables_tie_to_the_lowest_index_in_a_block_and_alone(seed, rows, picks):
    # repeated picks give equal table rows: the source, target, follow-up and head
    # matches of a block and of each of its rows alone are the first of their tie group
    params, bank, _ = _trained_model()
    rng = np.random.default_rng(seed)
    table = l2_normalize(rng.normal(size=(4, params.embed_dim)))[picks]
    tied = ModelParams(params.buffer.copy(), params.activations, params.shapes)
    tied.head[...] = table
    state = init_tur(dataclasses.replace(bank, prototypes=table[:3]), tied, TurConfig(k=5))
    state.followup_prototypes[...] = table  # init renormalizes the head rows
    x = rng.uniform(-12.0, 12.0, size=(rows, 2))
    c = l2_normalize(rng.normal(size=(rows, params.embed_dim)))
    _, centroid, k_src = embed(state, x)
    k_tgt, _ = decide(state, c, k_src)
    labels = followup_predict(state, c)
    for x_t, cen, k, c_t, t, label in zip(x, centroid, k_src, c, k_tgt, labels):
        assert k == embed(state, x_t)[2] == _first_best(cen, table[:3])
        assert t == decide(state, c_t, k)[0] == _first_best(c_t, table[:3])
        best = _first_best(c_t, table)
        assert label == followup_predict(state, c_t) == (UNKNOWN if best == 3 else best)
    for c_t in c:  # each update moves a follow-up prototype, never the head
        assert update_memory_bank(state, c_t) == _first_best(c_t, table)
