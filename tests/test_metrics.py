import csv
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ostta.data import UNKNOWN
from ostta.metrics import Grid, accuracies, decision_grid, evaluate, h_score, save_grid


def test_h_score_symmetric_hand_values():
    assert h_score(0.5, 1.0) == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert h_score(1.0, 0.5) == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert h_score(1.0, 1.0) == pytest.approx(1.0)


def test_h_score_frozen_reference_value():
    assert h_score(0.821, 0.752) == pytest.approx(0.785, abs=0.001)


def test_h_score_zero_cases():
    assert h_score(0.0, 1.0) == 0.0
    assert h_score(1.0, 0.0) == 0.0
    assert h_score(0.0, 0.0) == 0.0


def test_h_score_between_min_and_max():
    rng = np.random.default_rng(0)
    for _ in range(100):
        a, b = rng.uniform(0, 1, size=2)
        hs = h_score(a, b)
        assert min(a, b) - 1e-12 <= hs <= max(a, b) + 1e-12


def test_h_score_range_check():
    with pytest.raises(ValueError):
        h_score(1.1, 0.5)
    with pytest.raises(ValueError):
        h_score(0.5, -0.1)


def test_accuracies_perfect():
    preds = [0, 1, 2, UNKNOWN]
    acc_k, acc_u, confusion = accuracies(preds, preds, 3)
    assert acc_k == 1.0 and acc_u == 1.0
    assert np.array_equal(confusion, np.eye(4, dtype=np.int64))


def test_accuracies_macro_average():
    # class 0: 2/2 correct, class 1: 0/2 correct -> macro 0.5
    truths = [0, 0, 1, 1, UNKNOWN, UNKNOWN]
    preds = [0, 0, 0, 0, UNKNOWN, 0]
    acc_k, acc_u, confusion = accuracies(preds, truths, 2)
    assert acc_k == pytest.approx(0.5)
    assert acc_u == pytest.approx(0.5)
    assert confusion[2, 0] == 1 and confusion[2, 2] == 1


def test_accuracies_absent_classes_are_none():
    acc_k, acc_u, _ = accuracies([0, 0], [0, 0], 2)
    assert acc_k == 1.0
    assert acc_u is None
    acc_k, acc_u, _ = accuracies([UNKNOWN], [UNKNOWN], 2)
    assert acc_k is None
    assert acc_u == 1.0


def test_accuracies_validation():
    with pytest.raises(ValueError):
        accuracies([0], [0, 1], 2)
    with pytest.raises(ValueError):
        accuracies([], [], 2)


def test_accuracies_reject_labels_outside_the_classes():
    # class 2 does not exist with two known classes; it must not count as unknown
    with pytest.raises(ValueError, match="label 2 "):
        evaluate([2, 0, 1], [2, 0, 1], num_known=2)
    for bad in (-2, 5, 1.5, True, "0"):
        with pytest.raises(ValueError, match=f"label {bad!r} "):
            accuracies([bad, 0, 1], [0, 0, 1], 2)
        with pytest.raises(ValueError, match=f"label {bad!r} "):
            accuracies([0, 0, 1], [0, bad, 1], 2)


def _loop_confusion(predictions, truths, num_known):
    """The confusion matrix counted pair by pair, checking each truth before
    its prediction; raises on the first label outside the classes."""
    def index(label):
        if isinstance(label, (int, np.integer)) and not isinstance(label, bool):
            if label == UNKNOWN:
                return num_known
            if 0 <= label < num_known:
                return int(label)
        raise ValueError(f"label {label!r} ")
    confusion = np.zeros((num_known + 1, num_known + 1), dtype=np.int64)
    for pred, true in zip(predictions, truths):
        confusion[index(true), index(pred)] += 1
    return confusion


@settings(max_examples=300, deadline=None)
@given(num_known=st.integers(1, 4), data=st.data())
def test_accuracies_confusion_equals_a_pair_by_pair_count(num_known, data):
    # mostly valid labels, sometimes a label of the wrong kind or range
    bad = st.sampled_from([-2, num_known, 2**63, -(2**70), 1.0, True, False, "0", None])
    label = st.one_of(st.sampled_from([UNKNOWN, *range(num_known)]), bad) if data.draw(
        st.booleans()) else st.sampled_from([UNKNOWN, *range(num_known)])
    n = data.draw(st.integers(1, 30))
    truths = data.draw(st.lists(label, min_size=n, max_size=n))
    preds = data.draw(st.lists(label, min_size=n, max_size=n))
    try:
        want = _loop_confusion(preds, truths, num_known)
    except ValueError as exc:
        with pytest.raises(ValueError, match="^" + re.escape(str(exc))):
            accuracies(preds, truths, num_known)
    else:
        assert np.array_equal(accuracies(preds, truths, num_known)[2], want)


def test_accuracies_name_the_first_bad_label_in_stream_order():
    # pair 0 holds the first bad label, a prediction; a truth is bad only later
    with pytest.raises(ValueError, match="label 5 "):
        accuracies([5, 0], [0, 7], 2)
    # within one pair the truth is checked first
    with pytest.raises(ValueError, match="label 7 "):
        accuracies([5, 0], [7, 0], 2)


@settings(max_examples=200, deadline=None)
@given(num_known=st.integers(1, 5), data=st.data())
def test_evaluate_confusion_and_accuracy_invariants(num_known, data):
    label = st.sampled_from([UNKNOWN, *range(num_known)])
    n = data.draw(st.integers(1, 60))
    truths = data.draw(st.lists(label, min_size=n, max_size=n))
    preds = data.draw(st.lists(label, min_size=n, max_size=n))
    rep = evaluate(preds, truths, num_known)
    assert rep.n == n and rep.confusion.sum() == n
    for k in range(num_known):
        assert rep.confusion[k].sum() == truths.count(k)
    assert rep.confusion[num_known].sum() == truths.count(UNKNOWN)
    for acc in (rep.acc_known, rep.acc_unknown, rep.h_score):
        assert acc is None or 0.0 <= acc <= 1.0


def test_evaluate_report():
    truths = [0, 1, UNKNOWN, UNKNOWN]
    preds = [0, 0, UNKNOWN, 1]
    rep = evaluate(preds, truths, 2)
    assert rep.acc_known == pytest.approx(0.5)
    assert rep.acc_unknown == pytest.approx(0.5)
    assert rep.h_score == pytest.approx(0.5)
    assert rep.n == 4
    assert rep.confusion.sum() == 4


def test_evaluate_h_score_none_when_side_absent():
    rep = evaluate([0], [0], 2)
    assert rep.h_score is None


def test_report_json_round_trip(tmp_path):
    import json

    rep = evaluate([0, UNKNOWN], [0, UNKNOWN], 1)
    path = tmp_path / "report.json"
    rep.to_json(str(path))
    loaded = json.loads(path.read_text())
    assert loaded["h_score"] == pytest.approx(1.0)
    assert loaded["n"] == 2


def test_decision_grid_layout():
    grid = decision_grid(lambda pts: (pts[..., 0] >= 0).astype(int), ((-1, 1), (-2, 2)), 3, 3)
    assert len(grid) == 9
    # row-major: y varies slowest
    assert (grid.xs[0], grid.ys[0]) == (-1.0, -2.0)
    assert (grid.xs[2], grid.ys[0]) == (1.0, -2.0)
    assert (grid.xs[2], grid.ys[2]) == (1.0, 2.0)
    assert grid.labels[0, 0] == 0 and grid.labels[0, 2] == 1


@pytest.mark.parametrize("block", [1, 3, 5, 9, 100])
def test_decision_grid_predicts_blocks_of_whole_rows(block):
    blocks = []

    def predict(pts):
        blocks.append(pts.copy())
        return (pts[..., 0] >= 0).astype(int)

    grid = decision_grid(predict, ((-1, 1), (-2, 2)), 3, block)
    assert grid.labels.tolist() == [[0, 1, 1]] * 3
    # as many whole lattice rows as fit the block, and at least one
    rows = max(1, block // 3)
    assert [b.shape for b in blocks] == [(min(rows, 3 - i), 3, 2) for i in range(0, 3, rows)]
    lattice = np.concatenate(blocks)
    assert np.array_equal(lattice[..., 0], np.tile(grid.xs, (3, 1)))
    assert np.array_equal(lattice[..., 1], np.tile(grid.ys[:, None], (1, 3)))


def test_decision_grid_resolution_check():
    with pytest.raises(ValueError):
        decision_grid(lambda p: 0, ((-1, 1), (-1, 1)), 1, 100)


def test_save_grid_unknown_token(tmp_path):
    grid = Grid(np.array([0.0, 1.0]), np.array([0.0, 1.0]), np.array([[0, UNKNOWN], [1, 1]]))
    path = tmp_path / "grid.csv"
    save_grid(grid, str(path))
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "y", "label"]
    assert rows[1][2] == "0"
    assert rows[2][2] == "unknown"


def _csv_writer_grid(grid: Grid, path: str) -> None:
    """A grid file as csv.writer writes it: repr(x), repr(y) and the label
    token per lattice point, y outer."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y", "label"])
        for i, y in enumerate(grid.ys.tolist()):
            for j, x in enumerate(grid.xs.tolist()):
                label = int(grid.labels[i, j])
                writer.writerow([repr(x), repr(y), "unknown" if label == UNKNOWN else str(label)])


coordinates = st.one_of(
    st.floats(-1e300, 1e300, allow_nan=False),          # huge and negative
    st.floats(-1e-300, 1e-300, allow_nan=False),        # tiny and subnormal
    st.floats(-100, 100, allow_nan=False),
)


@settings(max_examples=150, deadline=None)
@given(box=st.tuples(coordinates, coordinates, coordinates, coordinates),
       resolution=st.integers(2, 9), data=st.data())
def test_save_grid_bytes_equal_csv_writer(box, resolution, data):
    labels = data.draw(st.lists(st.sampled_from([UNKNOWN, 0, 1, 2, 17, 10**12]),
                                min_size=resolution**2, max_size=resolution**2))
    grid = Grid(np.linspace(box[0], box[1], resolution), np.linspace(box[2], box[3], resolution),
                np.array(labels).reshape(resolution, resolution))
    with tempfile.TemporaryDirectory() as tmp:
        got, want = os.path.join(tmp, "got.csv"), os.path.join(tmp, "want.csv")
        save_grid(grid, got)
        _csv_writer_grid(grid, want)
        with open(got, "rb") as fg, open(want, "rb") as fw:
            assert fg.read() == fw.read()
