import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ostta.knn import _top_k, build_index, query
from ostta.numeric import l2_normalize
from ostta.trainer import EmbeddingBank


def _bank_from(embeddings, labels=None):
    embeddings = np.stack([l2_normalize(e) for e in embeddings])
    if labels is None:
        labels = np.zeros(len(embeddings), dtype=np.int64)
    proto = l2_normalize(embeddings.mean(axis=0))
    return EmbeddingBank(embeddings, np.asarray(labels), proto[None, :])


def _random_bank(n, dim, seed):
    rng = np.random.default_rng(seed)
    return _bank_from(rng.normal(size=(n, dim)))


def test_brute_force_oracle():
    """Query output must match a from-scratch sort of every similarity."""
    rng = np.random.default_rng(0)
    bank = _random_bank(100, 8, 1)
    index = build_index(bank, k=10)
    for _ in range(20):
        z = l2_normalize(rng.normal(size=8))
        hood = query(index, z)
        sims = bank.embeddings @ z
        # oracle: sort by (-sim, id)
        oracle = sorted(range(100), key=lambda i: (-sims[i], i))[:10]
        assert hood.indices.tolist() == oracle
        assert np.all(np.diff(sims[hood.indices]) <= 0)


def test_similarities_non_increasing():
    rng = np.random.default_rng(3)
    bank = _random_bank(50, 4, 4)
    index = build_index(bank, k=12)
    for _ in range(10):
        z = l2_normalize(rng.normal(size=4))
        hood = query(index, z)
        assert np.all(np.diff(bank.embeddings[hood.indices] @ z) <= 0)


def test_tie_break_prefers_lower_index():
    # duplicate embeddings produce exactly tied cosine scores
    e = l2_normalize(np.array([1.0, 1.0]))
    bank = _bank_from([e, e, e, [1.0, 0.0]])
    hood = query(build_index(bank, k=3), e)
    assert hood.indices.tolist() == [0, 1, 2]


def test_k_equals_one_returns_nearest():
    bank = _bank_from([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
    hood = query(build_index(bank, k=1), l2_normalize(np.array([0.9, 0.1])))
    assert hood.indices.tolist() == [0]
    np.testing.assert_allclose(hood.centroid, bank.embeddings[0])


def test_k_equals_bank_size():
    bank = _random_bank(10, 3, 5)
    hood = query(build_index(bank, k=10), l2_normalize(np.ones(3)))
    assert sorted(hood.indices.tolist()) == list(range(10))


def test_centroid_is_renormalized_mean():
    bank = _bank_from([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5], [-1.0, 0.0]])
    hood = query(build_index(bank, k=2), l2_normalize(np.array([1.0, 1.0])))
    mean = bank.embeddings[hood.indices].mean(axis=0)
    np.testing.assert_allclose(hood.centroid, mean / np.linalg.norm(mean), atol=1e-12)
    assert np.linalg.norm(hood.centroid) == pytest.approx(1.0, abs=1e-12)


def test_build_index_validation():
    bank = _random_bank(5, 3, 6)
    with pytest.raises(ValueError):
        build_index(bank, k=0)
    with pytest.raises(ValueError):
        build_index(bank, k=6)


def _passes(index, z) -> bool:
    try:
        query(index, z)
    except ValueError as exc:
        assert str(exc) in ("query vector must be unit-norm",
                            "cannot normalize a zero or non-finite vector")
        return False
    return True


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 8), data=st.data())
def test_query_requires_unit_vector(seed, dim, data):
    # a row within 1e-6 of unit norm passes; one NaN, infinite, zero or further off raises,
    # alone, as a one-row matrix or in a block (a margin keeps rounding off the bound)
    rng = np.random.default_rng(seed)
    index = build_index(_random_bank(7, dim, seed), k=2)
    kinds = data.draw(st.lists(st.sampled_from(["unit", "near", "off", "zero", "nan", "inf"]),
                               min_size=1, max_size=5))
    rows = []
    for kind in kinds:
        v = l2_normalize(rng.normal(size=dim))
        if kind == "near":
            v = v * (1.0 + data.draw(st.floats(-0.9e-6, 0.9e-6)))
        elif kind == "off":
            v = v * (1.0 + data.draw(st.one_of(st.floats(1.1e-6, 10.0), st.floats(-0.99, -1.1e-6))))
        elif kind != "unit":
            v[data.draw(st.integers(0, dim - 1))] = {"nan": np.nan, "inf": np.inf}.get(kind, 0.0)
            v *= kind != "zero"
        rows.append(v)
    z = np.stack(rows)
    for row, kind in zip(z, kinds):
        assert _passes(index, row) == _passes(index, row[None]) == (kind in ("unit", "near"))
    assert _passes(index, z) == all(kind in ("unit", "near") for kind in kinds)


def test_antipodal_centroid_cancellation():
    emb = np.array([[1.0, 0.0], [-1.0, 0.0]])
    bank = EmbeddingBank(emb, np.zeros(2, dtype=np.int64), np.array([[1.0, 0.0]]))
    index = build_index(bank, k=2)
    with pytest.raises(ValueError):
        query(index, np.array([0.0, 1.0]))


def _stable_top_k(sims, k):
    """Reference: the first k of a full stable argsort on -sims, per row."""
    return np.argsort(-sims, axis=1, kind="stable")[:, :k]


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40),
       width=st.one_of(st.integers(1, 80), st.integers(81, 7000)), levels=st.integers(1, 6),
       layout=st.sampled_from(["random", "sorted", "strided"]), data=st.data())
def test_top_k_equals_full_stable_argsort(seed, n, width, levels, layout, data):
    # few distinct values, so tie groups straddle the k-th place; the zero
    # group mixes 0.0 and -0.0, which compare equal, so it too is one tie group
    rng = np.random.default_rng(seed)
    sims = (rng.integers(levels, size=(n, width)) - levels // 2) / levels
    sims[(sims == 0.0) & (rng.random(sims.shape) < 0.5)] = -0.0
    k = data.draw(st.one_of(st.sampled_from([1, width]), st.integers(1, width)))
    if layout != "random":  # every row sorted by value, best first
        sims = -np.sort(-sims, axis=1)
    if layout == "strided":  # the best values on one stride, as when one chunk holds every winner
        stride = data.draw(st.one_of(st.just(max(k, math.isqrt(width * k))), st.integers(1, width)))
        sims[:, np.argsort(np.arange(width) % stride, kind="stable")] = sims.copy()
    assert np.array_equal(_top_k(sims, k), _stable_top_k(sims, k))
    assert np.array_equal(_top_k(sims[0], k), _stable_top_k(sims, k)[0])  # a 1-D row


def test_block_query_equals_one_row_queries_on_a_large_bank():
    rng = np.random.default_rng(11)
    labels = np.repeat(np.arange(3), 2000)  # a class-sorted bank, as extract_bank builds it
    bank = _bank_from(rng.normal(size=(6000, 8)) + 3.0 * np.eye(8)[labels], labels)
    index = build_index(bank, k=10)
    z = l2_normalize(rng.normal(size=(50, 8)))  # blocks of 21, 21 and 8 rows
    block = query(index, z)
    assert block.indices.shape == (50, 10) and block.centroid.shape == (50, 8)
    for row, ids, centroid in zip(z, block.indices, block.centroid):
        one = query(index, row)
        assert np.array_equal(one.indices, ids)
        assert one.centroid.tobytes() == centroid.tobytes()


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), distinct=st.integers(1, 12), size=st.integers(1, 150),
       dim=st.integers(2, 6), n=st.integers(1, 5), data=st.data())
def test_query_equals_stable_argsort_on_duplicate_rows(seed, distinct, size, dim, n, data):
    rng = np.random.default_rng(seed)
    base = rng.normal(size=(distinct, dim))
    bank = _bank_from(base[rng.integers(distinct, size=size)])
    k = data.draw(st.integers(1, size))
    z = l2_normalize(rng.normal(size=(n, dim)))
    z[0] = bank.embeddings[rng.integers(size)]  # a query exactly on a tie group
    index = build_index(bank, k=k)
    # each oracle sorts the similarity product the query itself computes:
    # one one-row product per query row with the index's column-major bank
    hood = query(index, z)
    assert np.array_equal(hood.indices, _stable_top_k((z[:, None, :] @ index.columns)[:, 0], k))
    for row, ids, centroid in zip(z, hood.indices, hood.centroid):  # the one-row case
        want = _stable_top_k(row[None] @ index.columns, k)[0]
        one = query(index, row)
        assert np.array_equal(one.indices, want) and np.array_equal(one.indices, ids)
        assert np.array_equal(one.centroid, centroid)  # bit for bit


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), distinct=st.integers(1, 12), size=st.integers(2, 300),
       dim=st.integers(2, 9), n=st.integers(1, 5), data=st.data())
def test_bank_layout_changes_no_id_and_no_centroid_bit(seed, distinct, size, dim, n, data):
    # the index fixes its own layout: rows given in C or in Fortran order query alike
    rng = np.random.default_rng(seed)
    base = rng.normal(size=(distinct, dim))
    c_bank = _bank_from(base[rng.integers(distinct, size=size)])
    f_bank = EmbeddingBank(np.asfortranarray(c_bank.embeddings), c_bank.labels, c_bank.prototypes)
    assert f_bank.embeddings.flags.f_contiguous and not f_bank.embeddings.flags.c_contiguous
    k = data.draw(st.integers(1, size))
    z = l2_normalize(rng.normal(size=(n, dim)))
    z[0] = c_bank.embeddings[rng.integers(size)]  # a query exactly on a tie group
    c_index, f_index = build_index(c_bank, k=k), build_index(f_bank, k=k)
    assert c_index.columns.flags.c_contiguous and f_index.columns.flags.c_contiguous
    for q in (z, z[0]):  # a block and a 1-D query
        c_hood, f_hood = query(c_index, q), query(f_index, q)
        assert np.array_equal(c_hood.indices, f_hood.indices)
        assert c_hood.centroid.tobytes() == f_hood.centroid.tobytes()
