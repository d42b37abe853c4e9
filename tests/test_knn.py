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
    """Backend output must match a from-scratch sort of all similarities."""
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
        np.testing.assert_allclose(hood.similarities, sims[oracle], atol=1e-12)


def test_backends_agree_bitwise():
    rng = np.random.default_rng(2)
    for n, k, bs in [(100, 10, 64), (100, 10, 7), (257, 25, 64), (64, 64, 64)]:
        bank = _random_bank(n, 6, n + k)
        brute = build_index(bank, k=k, backend="brute")
        part = build_index(bank, k=k, backend="partitioned")
        part.block_size = bs
        for _ in range(10):
            z = l2_normalize(rng.normal(size=6))
            a, b = query(brute, z), query(part, z)
            # both backends select from one similarity product
            assert np.array_equal(a.indices, b.indices)
            assert np.array_equal(a.similarities, b.similarities)
            assert np.array_equal(a.centroid, b.centroid)


def test_tie_break_prefers_lower_index():
    # duplicate embeddings produce exactly tied similarities
    e = l2_normalize(np.array([1.0, 1.0]))
    bank = _bank_from([e, e, e, [1.0, 0.0]])
    for backend in ("brute", "partitioned"):
        index = build_index(bank, k=3, backend=backend)
        hood = query(index, e)
        assert hood.indices.tolist() == [0, 1, 2]


def test_backends_agree_on_duplicate_rows():
    # tie groups that straddle a block's k-th place: a block must pass the
    # whole group on, or the merge cannot restore ascending-id order
    rng = np.random.default_rng(0)
    base = np.stack([l2_normalize(v) for v in rng.normal(size=(20, 4))])
    bank = _bank_from(base[rng.integers(20, size=128)])
    brute = build_index(bank, k=10, backend="brute")
    part = build_index(bank, k=10, backend="partitioned")
    for _ in range(200):
        z = l2_normalize(rng.normal(size=4))
        assert np.array_equal(query(brute, z).indices, query(part, z).indices)


def test_similarities_non_increasing():
    rng = np.random.default_rng(3)
    bank = _random_bank(50, 4, 4)
    index = build_index(bank, k=12)
    for _ in range(10):
        hood = query(index, l2_normalize(rng.normal(size=4)))
        assert np.all(np.diff(hood.similarities) <= 0)


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
    with pytest.raises(ValueError):
        build_index(bank, k=2, backend="approximate")


def test_query_requires_unit_vector():
    bank = _random_bank(5, 3, 7)
    index = build_index(bank, k=2)
    with pytest.raises(ValueError):
        query(index, np.array([2.0, 0.0, 0.0]))


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
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), m=st.integers(1, 80),
       levels=st.integers(1, 6), data=st.data())
def test_top_k_equals_full_stable_argsort(seed, n, m, levels, data):
    # few distinct values, so tie groups straddle the k-th place
    sims = np.random.default_rng(seed).integers(levels, size=(n, m)) / levels - 0.5
    k = data.draw(st.integers(1, m))
    pos, values = _top_k(sims, k)
    assert np.array_equal(pos, _stable_top_k(sims, k))
    assert np.array_equal(values, np.take_along_axis(sims, pos, axis=1))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), distinct=st.integers(1, 12), size=st.integers(1, 150),
       dim=st.integers(2, 6), n=st.integers(1, 5), data=st.data())
def test_backends_equal_stable_argsort_on_duplicate_rows(seed, distinct, size, dim, n, data):
    rng = np.random.default_rng(seed)
    base = rng.normal(size=(distinct, dim))
    bank = _bank_from(base[rng.integers(distinct, size=size)])
    k = data.draw(st.integers(1, size))
    block = data.draw(st.integers(1, 70))
    z = l2_normalize(rng.normal(size=(n, dim)))
    z[0] = bank.embeddings[rng.integers(size)]  # a query exactly on a tie group
    emb = bank.embeddings
    for backend in ("brute", "partitioned"):
        index = build_index(bank, k=k, backend=backend)
        index.block_size = block
        # each oracle sorts the similarity product the query itself computes
        assert np.array_equal(query(index, z).indices, _stable_top_k(z @ emb.T, k)), backend
        for row in z:  # the one-row case
            want = _stable_top_k(row[None] @ emb.T, k)[0]
            assert np.array_equal(query(index, row).indices, want), backend
