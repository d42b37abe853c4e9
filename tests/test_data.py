import collections
import csv
import io
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ostta.data import (
    UNKNOWN,
    BlobSpec,
    Sample,
    ShiftSpec,
    apply_shift,
    atomic_open,
    generate_blobs,
    load_csv,
    make_stream,
    save_csv,
)


def _label_multiset(samples):
    return collections.Counter(s.label for s in samples)


def test_generate_blobs_counts():
    spec = BlobSpec(num_known=3, num_unknown_clusters=1, dim=2,
                    samples_per_cluster=100, cluster_std=1.0, seed=7)
    train, test = generate_blobs(spec)
    assert len(train) == 300
    assert all(s.label >= 0 for s in train)
    assert len(test) == 400
    assert sum(s.label == UNKNOWN for s in test) == 100


def test_generate_blobs_minimal():
    spec = BlobSpec(samples_per_cluster=1, seed=1)
    train, test = generate_blobs(spec)
    assert len(train) == 3
    assert len(test) == 4


def test_generate_blobs_deterministic():
    spec = BlobSpec(seed=42)
    a_train, a_test = generate_blobs(spec)
    b_train, b_test = generate_blobs(spec)
    for a, b in zip(a_train + a_test, b_train + b_test):
        assert np.array_equal(a.features, b.features)
        assert a.label == b.label


def test_generate_blobs_cluster_means_near_centers():
    spec = BlobSpec(samples_per_cluster=200, seed=5)
    train, _ = generate_blobs(spec)
    by_class = collections.defaultdict(list)
    for s in train:
        by_class[s.label].append(s.features)
    # cluster sample mean should be within 3*std/sqrt(n) of the true center;
    # compare against the mean itself being stable across the two halves
    for feats in by_class.values():
        feats = np.stack(feats)
        half = len(feats) // 2
        tol = 3 * spec.cluster_std / np.sqrt(half)
        assert np.linalg.norm(feats[:half].mean(0) - feats[half:].mean(0)) < 2 * tol


def test_generate_blobs_separation_failure():
    spec = BlobSpec(cluster_std=50.0, center_box=(-1.0, 1.0), seed=0)
    with pytest.raises(RuntimeError):
        generate_blobs(spec)


def test_apply_shift_identity():
    train, _ = generate_blobs(BlobSpec(seed=3))
    out = apply_shift(train, ShiftSpec())
    for a, b in zip(train, out):
        np.testing.assert_array_equal(a.features, b.features)


def test_apply_shift_translation():
    data = [Sample(np.array([1.0, 1.0]), 0)]
    out = apply_shift(data, ShiftSpec(translation=(10.0, 0.0)))
    np.testing.assert_allclose(out[0].features, [11.0, 1.0])


def test_apply_shift_rotation():
    data = [Sample(np.array([1.0, 0.0]), 0)]
    out = apply_shift(data, ShiftSpec(rotation_angle=np.pi / 2))
    np.testing.assert_allclose(out[0].features, [0.0, 1.0], atol=1e-12)


def test_apply_shift_preserves_labels():
    _, test = generate_blobs(BlobSpec(seed=4))
    shifted = apply_shift(test, ShiftSpec(rotation_angle=0.7, noise_std=0.5, seed=9))
    assert _label_multiset(shifted) == _label_multiset(test)


def test_make_stream_is_permutation():
    _, test = generate_blobs(BlobSpec(seed=2))
    stream = make_stream(test, 11)
    assert _label_multiset(stream) == _label_multiset(test)
    assert len(stream) == len(test)


def test_make_stream_deterministic_and_seed_sensitive():
    _, test = generate_blobs(BlobSpec(seed=2))
    s1 = make_stream(test, 1)
    s2 = make_stream(test, 1)
    s3 = make_stream(test, 2)
    assert all(np.array_equal(a.features, b.features) for a, b in zip(s1, s2))
    assert any(not np.array_equal(a.features, b.features) for a, b in zip(s1, s3))


def test_make_stream_single_element():
    data = [Sample(np.array([1.0, 2.0]), 0)]
    assert make_stream(data, 99) == data


def test_csv_round_trip(tmp_path):
    _, test = generate_blobs(BlobSpec(seed=8, samples_per_cluster=5))
    path = tmp_path / "data.csv"
    save_csv(test, str(path))
    loaded = load_csv(str(path))
    assert len(loaded) == len(test)
    for a, b in zip(test, loaded):
        np.testing.assert_array_equal(a.features, b.features)
        assert a.label == b.label


@pytest.mark.parametrize("row, problem", [
    ("1.0,0", "2 columns, the header has 3"),
    ("1.0,2.0,0,0", "4 columns, the header has 3"),
    ("1.0,x,0", "cannot parse"),
    ("1.0,2.0,seven", "cannot parse"),
    ("nan,2.0,0", "non-finite"),
    ("1.0,-inf,unknown", "non-finite"),
])
def test_load_csv_rejects_malformed_row(tmp_path, row, problem):
    path = tmp_path / "bad.csv"
    path.write_text(f"f0,f1,label\n1.0,2.0,0\n{row}\n3.0,4.0,1\n")
    with pytest.raises(ValueError, match=f"bad.csv, row 3: {problem}"):
        load_csv(str(path))


@settings(max_examples=60, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(1, 12), st.integers(1, 5)),
              elements=st.floats(allow_nan=False, allow_infinity=False)),
       st.lists(st.integers(-1, 3), min_size=12, max_size=12))
def test_save_csv_bytes_equal_csv_writer(tmp_path_factory, features, labels):
    dataset = [Sample(f, lab) for f, lab in zip(features, labels)]
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow([f"f{i}" for i in range(features.shape[1])] + ["label"])
    for s in dataset:
        writer.writerow([repr(float(v)) for v in s.features]
                        + ["unknown" if s.label == UNKNOWN else str(s.label)])
    path = tmp_path_factory.mktemp("csv") / "data.csv"
    save_csv(dataset, str(path))
    assert path.read_bytes() == out.getvalue().encode()


def test_load_csv_names_the_file_for_bytes_that_are_not_text(tmp_path):
    path = tmp_path / "binary.csv"
    path.write_bytes(b"f0,f1,label\n\xff\xfe\x00\x01,2.0,0\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: not a text file"):
        load_csv(str(path))


def test_atomic_open_into_a_missing_directory_names_the_path_given(tmp_path):
    path = str(tmp_path / "nodir" / "s.ndjson")
    with pytest.raises(FileNotFoundError) as err:
        with atomic_open(path) as fh:
            fh.write("x")
    assert err.value.filename == path
    assert str(err.value) == f"[Errno 2] No such file or directory: {path!r}"
    assert ".tmp" not in str(err.value)


def test_load_csv_rejects_missing_header(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ValueError, match="empty.csv: the header"):
        load_csv(str(path))


def test_save_csv_failing_mid_write_keeps_the_old_file(tmp_path):
    _, test = generate_blobs(BlobSpec(samples_per_cluster=5, seed=0))
    path = tmp_path / "test.csv"
    save_csv(test, str(path))
    before = path.read_bytes()
    broken = test[:2] + [Sample(np.array([0.5, "x"], dtype=object), 0)] + test[2:]
    with pytest.raises(ValueError):  # float("x") on the third row
        save_csv(broken, str(path))
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["test.csv"]  # no .tmp left
    assert [s.label for s in load_csv(str(path))] == [s.label for s in test]


def test_atomic_open_keeps_the_old_file_on_a_failed_write(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old")
    with pytest.raises(RuntimeError):
        with atomic_open(str(path)) as fh:
            fh.write("partial")
            raise RuntimeError("crash mid-write")
    assert path.read_text() == "old"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt"]  # no out.txt.tmp left
    with atomic_open(str(path)) as fh:
        fh.write("new")
    assert path.read_text() == "new"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt"]
