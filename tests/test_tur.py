import functools
import json
import os
import re
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ostta import tur
from ostta.data import UNKNOWN, BlobSpec, ShiftSpec, apply_shift, generate_blobs, make_stream
from ostta.model import init_model
from ostta.numeric import l2_normalize
from ostta.trainer import EmbeddingBank, TrainConfig, extract_bank, train
from ostta.tur import (
    COLD_START_MODES,
    QUERY_MODES,
    TurConfig,
    TurState,
    embed,
    followup_predict,
    init_tur,
    load_snapshot,
    match_source,
    match_target,
    predict_frozen,
    run_stream,
    save_snapshot,
    step,
    update_memory_bank,
    update_target_prototype,
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


def _trained_state(config, blob_seed=0, shift=None):
    train_set, test_set = generate_blobs(BlobSpec(seed=blob_seed))
    params = init_model(2, 8, 3, 0)
    trained, _ = train(params, train_set, TrainConfig(epochs=15, objective="ugd"))
    bank = extract_bank(trained, train_set)
    if shift is not None:
        test_set = apply_shift(test_set, shift)
    return init_tur(bank, trained, config), trained, test_set


def _memory_bytes(state):
    return (state.memory_sum.tobytes(), state.memory_count.tobytes(),
            state.followup_prototypes.tobytes())


def test_config_validation():
    with pytest.raises(ValueError):
        TurConfig(ema_weight=0.0).validate()
    with pytest.raises(ValueError):
        TurConfig(ema_weight=1.0).validate()
    with pytest.raises(ValueError):
        TurConfig(query_vector_mode="nearest").validate()
    with pytest.raises(ValueError):
        TurConfig(cold_start_mode="never").validate()
    TurConfig().validate()


def test_init_memory_seeded_from_head_rows():
    state, _, params = _toy_state()
    assert state.memory_sum.shape == (4, 4)
    assert state.memory_count.tolist() == [1, 1, 1, 1]
    for k in range(4):
        np.testing.assert_allclose(
            state.memory_sum[k], l2_normalize(params.head[k]), atol=1e-12
        )
        np.testing.assert_allclose(
            state.followup_prototypes[k], state.memory_sum[k], atol=1e-12
        )
    assert state.target_prototypes == {}
    assert state.step_count == 0


def test_init_copy_source_mode():
    state, bank, _ = _toy_state(TurConfig(k=3, cold_start_mode="copy_source"))
    assert sorted(state.target_prototypes) == [0, 1, 2]
    for k in range(3):
        np.testing.assert_allclose(
            state.target_prototypes[k], bank.prototypes[k], atol=1e-12
        )


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
        assert match_source(state, state.source_prototypes[k]) == k


def test_match_target_empty_returns_none():
    state, _, _ = _toy_state()
    assert match_target(state, state.source_prototypes[0]) is None


def test_match_target_over_present_classes_only():
    state, _, _ = _toy_state()
    state.target_prototypes[2] = state.source_prototypes[2].copy()
    # query near class 0: only class 2 exists, so it must be returned
    assert match_target(state, state.source_prototypes[0]) == 2


def test_ema_update_hand_value():
    state, _, _ = _toy_state(TurConfig(k=3, ema_weight=0.3))
    state.target_prototypes[0] = np.array([1.0, 0.0, 0.0, 0.0])
    update_target_prototype(state, 0, np.array([0.0, 1.0, 0.0, 0.0]))
    expected = np.array([0.7, 0.3, 0.0, 0.0])
    expected /= np.linalg.norm(expected)
    np.testing.assert_allclose(state.target_prototypes[0], expected, atol=1e-12)
    np.testing.assert_allclose(
        state.target_prototypes[0][:2], [0.9191450, 0.3939193], atol=1e-6
    )


def test_ema_seeds_absent_prototype():
    state, _, _ = _toy_state()
    z = state.source_prototypes[1]
    update_target_prototype(state, 1, z)
    np.testing.assert_allclose(state.target_prototypes[1], z, atol=1e-12)


def test_ema_degenerate_left_unchanged():
    state, _, _ = _toy_state(TurConfig(k=3, ema_weight=0.5))
    old = np.array([1.0, 0.0, 0.0, 0.0])
    state.target_prototypes[0] = old.copy()
    update_target_prototype(state, 0, -old)  # 0.5*z + 0.5*old == 0
    np.testing.assert_allclose(state.target_prototypes[0], old, atol=1e-12)


def test_memory_bank_update_routes_by_head():
    state, _, params = _toy_state()
    seed = state.memory_sum[2].copy()
    z = l2_normalize(params.head[2])
    k = update_memory_bank(state, z)
    assert k == 2
    assert state.memory_count[2] == 2
    mean = np.mean([seed, z], axis=0)
    np.testing.assert_allclose(
        state.followup_prototypes[2], mean / np.linalg.norm(mean), atol=1e-12
    )


def test_followup_prototype_hand_value():
    state, _, params = _toy_state()
    e0, e1 = np.eye(4)[0], np.eye(4)[1]
    k = int(np.argmax(params.head @ e1))
    state.memory_sum[k], state.memory_count[k] = e0, 1
    assert update_memory_bank(state, e1) == k
    assert state.memory_count[k] == 2
    s = 1.0 / np.sqrt(2.0)
    np.testing.assert_allclose(state.followup_prototypes[k], [s, s, 0.0, 0.0], atol=1e-12)


def test_followup_predict_maps_last_to_unknown():
    state, _, _ = _toy_state()
    state.followup_prototypes = np.eye(4)
    assert followup_predict(state, np.eye(4)[1]) == 1
    assert followup_predict(state, np.eye(4)[3]) == UNKNOWN


def test_step_agreement_route():
    state, bank, _ = _toy_state(TurConfig(k=3, cold_start_mode="copy_source"))
    # feed a point whose embedding lands near class prototypes repeatedly
    train_set, _ = generate_blobs(BlobSpec(seed=0))
    pred = step(state, *embed(state, train_set[0].features))
    assert pred.route in ("agreed", "followup")
    assert state.step_count == 1
    if pred.route == "agreed":
        assert pred.label == pred.source_match


def test_step_cold_start_first_sample_agrees():
    state, _, test_set = _trained_state(TurConfig(k=10))
    pred = step(state, *embed(state, test_set[0].features))
    # no target prototype existed, so absence counts as agreement
    assert pred.route == "agreed"
    assert pred.label == pred.source_match
    assert pred.source_match in state.target_prototypes


def test_step_never_mutates_params():
    config = TurConfig(k=10)
    state, params, test_set = _trained_state(config)
    before = params.param_bytes()
    bank_before = state.index.bank.embeddings.tobytes()
    src_before = state.source_prototypes.tobytes()
    run_stream(state, make_stream(test_set, 0))
    assert params.param_bytes() == before
    assert state.index.bank.embeddings.tobytes() == bank_before
    assert state.source_prototypes.tobytes() == src_before


def test_step_followup_route_grows_memory():
    state, _, test_set = _trained_state(TurConfig(k=10))
    preds = run_stream(state, make_stream(test_set, 0))
    followups = [p for p in preds if p.route == "followup"]
    assert followups, "expected at least one disagreement on shifted unknowns"
    assert state.memory_count.sum() == 4 + len(followups)
    labels = {p.label for p in preds}
    assert labels <= {0, 1, 2, UNKNOWN}


def test_run_stream_deterministic():
    config = TurConfig(k=10)
    s1, _, test_set = _trained_state(config)
    s2, _, _ = _trained_state(config)
    stream = make_stream(test_set, 3)
    p1 = run_stream(s1, stream)
    p2 = run_stream(s2, stream)
    assert [p.label for p in p1] == [p.label for p in p2]
    assert [p.route for p in p1] == [p.route for p in p2]


def test_seed_per_class_cold_start():
    state, _, test_set = _trained_state(TurConfig(k=10, cold_start_mode="seed_per_class"))
    seen = set()
    for s in test_set[:50]:
        pred = step(state, *embed(state, s.features))
        if pred.target_match is None or pred.source_match not in seen:
            # class-level absence must never fall through to the memory bank
            if pred.source_match not in seen and pred.route == "agreed":
                seen.add(pred.source_match)
    assert seen <= set(range(3))
    assert set(state.target_prototypes) >= seen


def test_predict_frozen_does_not_mutate():
    state, _, test_set = _trained_state(TurConfig(k=10))
    run_stream(state, make_stream(test_set, 0))
    protos_before = {k: v.copy() for k, v in state.target_prototypes.items()}
    memory_before = _memory_bytes(state)
    steps_before = state.step_count
    for s in test_set[:20]:
        label = predict_frozen(state, s.features)
        assert label in {0, 1, 2, UNKNOWN}
    labels = predict_frozen(state, np.stack([s.features for s in test_set]))
    assert set(labels.tolist()) <= {0, 1, 2, UNKNOWN}
    assert state.step_count == steps_before
    assert _memory_bytes(state) == memory_before
    for k, v in protos_before.items():
        np.testing.assert_array_equal(state.target_prototypes[k], v)


def test_snapshot_round_trip(tmp_path):
    config = TurConfig(k=10)
    state, params, test_set = _trained_state(config)
    bank = state.index.bank
    run_stream(state, make_stream(test_set, 0)[:100])
    path = tmp_path / "snap.json"
    save_snapshot(state, str(path))
    restored = load_snapshot(str(path), bank, params)
    assert restored.step_count == state.step_count
    assert sorted(restored.target_prototypes) == sorted(state.target_prototypes)
    for k in state.target_prototypes:
        np.testing.assert_allclose(
            restored.target_prototypes[k], state.target_prototypes[k], atol=1e-12
        )
    assert _memory_bytes(restored) == _memory_bytes(state)
    np.testing.assert_allclose(
        restored.followup_prototypes, state.followup_prototypes, atol=1e-12
    )
    # continuing from the snapshot matches continuing the original
    rest = make_stream(test_set, 0)[100:120]
    a = [p.label for p in run_stream(state, rest)]
    b = [p.label for p in run_stream(restored, rest)]
    assert a == b


@functools.lru_cache(maxsize=1)
def _trained_model():
    """A trained model, its bank and a shifted 120-sample stream, built once."""
    train_set, test_set = generate_blobs(BlobSpec(seed=0, samples_per_cluster=30))
    params, _ = train(init_model(2, 8, 3, 0), train_set, TrainConfig(epochs=15, objective="ugd"))
    stream = make_stream(apply_shift(test_set, ShiftSpec(rotation_angle=0.8, seed=2)), 0)
    return params, extract_bank(params, train_set), stream


def _state_bytes(state):
    targets = b"".join(state.target_prototypes[k].tobytes() for k in sorted(state.target_prototypes))
    return _memory_bytes(state) + (targets, state.step_count)


@settings(max_examples=25, deadline=None)
@given(cold=st.sampled_from(COLD_START_MODES), mode=st.sampled_from(QUERY_MODES),
       split=st.integers(0, 120))
def test_snapshot_resume_equals_uninterrupted(cold, mode, split):
    params, bank, stream = _trained_model()
    config = TurConfig(k=5, query_vector_mode=mode, cold_start_mode=cold)
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


@pytest.mark.parametrize("cold", COLD_START_MODES)
def test_predict_frozen_rows_equal_one_row_calls(cold):
    params, bank, stream = _trained_model()
    for mode in QUERY_MODES:
        state = init_tur(bank, params, TurConfig(k=5, query_vector_mode=mode, cold_start_mode=cold))
        for stream_part in (stream[:0], stream[:3], stream):
            run_stream(state, stream_part)
            lattice = np.linspace(-12, 12, 25)
            x = np.array([[a, b] for b in lattice for a in lattice])
            x = np.concatenate([x, np.stack([s.features for s in stream])])
            rows = predict_frozen(state, x)
            assert rows.shape == (len(x),)
            assert rows.tolist() == [int(predict_frozen(state, row)) for row in x]


def test_snapshot_size_does_not_grow_with_stream(tmp_path):
    params, bank, stream = _trained_model()
    state = init_tur(bank, params, TurConfig(k=5, cold_start_mode="copy_source"))
    shapes = []
    for part in (stream[:5], stream[5:]):
        run_stream(state, part)
        save_snapshot(state, str(tmp_path / "snap.json"))
        payload = json.loads((tmp_path / "snap.json").read_text())
        assert payload["format"] == 2
        shapes.append([np.shape(payload[key]) for key in
                       ("memory_sum", "memory_count", "followup_prototypes")])
    assert shapes[0] == shapes[1] == [(4, 8), (4,), (4, 8)]
    assert os.listdir(tmp_path) == ["snap.json"]  # the temporary file is gone


def test_load_snapshot_rejects_old_format_and_bad_shapes(tmp_path):
    params, bank, stream = _trained_model()
    state = init_tur(bank, params, TurConfig(k=5))
    run_stream(state, stream[:20])
    path = tmp_path / "snap.json"
    save_snapshot(state, str(path))
    good = json.loads(path.read_text())

    old = {k: v for k, v in good.items() if k not in ("format", "memory_sum", "memory_count")}
    old["memory"] = [[row] for row in good["followup_prototypes"]]
    bad_count = dict(good, memory_count=good["memory_count"][:-1])
    bad_sum = dict(good, memory_sum=[row[:-1] for row in good["memory_sum"]])
    for payload, match in ((old, "format-2"), (bad_count, "memory_count"),
                           (bad_sum, "memory_sum")):
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=match) as err:
            load_snapshot(str(path), bank, params)
        assert str(path) in str(err.value)


@pytest.mark.parametrize("rows", [1, 2, 17, 33, 745])
def test_embed_rows_equal_one_sample_calls(rows):
    params, bank, stream = _trained_model()
    state = init_tur(bank, params, TurConfig(k=5))
    lattice = np.linspace(-12, 12, 25)
    x = np.concatenate([[[a, b] for b in lattice for a in lattice], [s.features for s in stream]])
    z, centroid = embed(state, x[:rows])
    assert z.shape == centroid.shape == (rows, params.embed_dim)
    for x_t, z_t, c in zip(x, z, centroid):
        one_z, one_c = embed(state, x_t)
        assert np.array_equal(z_t, one_z) and np.array_equal(c, one_c)  # bit for bit


@settings(max_examples=40, deadline=None)
@given(cold=st.sampled_from(COLD_START_MODES), mode=st.sampled_from(QUERY_MODES),
       rows=st.integers(1, 130), cuts=st.lists(st.integers(1, 119), max_size=6))
def test_any_cut_and_block_size_equal_one_sample_steps(cold, mode, rows, cuts):
    params, bank, stream = _trained_model()
    config = TurConfig(k=5, query_vector_mode=mode, cold_start_mode=cold)
    alone = init_tur(bank, params, config)
    want = [step(alone, *embed(alone, s.features)) for s in stream]
    whole = init_tur(bank, params, config)
    assert run_stream(whole, stream) == want  # the default budget: one block
    assert _state_bytes(whole) == _state_bytes(alone)
    cut = init_tur(bank, params, config)
    got = []
    bounds = [0, *sorted(set(cuts)), len(stream)]
    with mock.patch.object(tur, "_BLOCK_BUDGET", rows * len(bank)):  # blocks of `rows` rows
        for start, stop in zip(bounds, bounds[1:]):
            got += run_stream(cut, stream[start:stop])
    assert got == want
    assert _state_bytes(cut) == _state_bytes(alone)
