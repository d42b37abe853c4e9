import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ostta.data import UNKNOWN
from ostta.metrics import accuracies, decision_grid, evaluate, h_score, save_grid


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
    grid = decision_grid(lambda pts: (pts[:, 0] >= 0).astype(int), ((-1, 1), (-2, 2)), 3)
    assert len(grid) == 9
    # row-major: y varies slowest
    assert grid[0][:2] == (-1.0, -2.0)
    assert grid[2][:2] == (1.0, -2.0)
    assert grid[8][:2] == (1.0, 2.0)
    assert grid[0][2] == 0 and grid[2][2] == 1


def test_decision_grid_resolution_check():
    with pytest.raises(ValueError):
        decision_grid(lambda p: 0, ((-1, 1), (-1, 1)), 1)


def test_save_grid_unknown_token(tmp_path):
    grid = [(0.0, 0.0, 0), (1.0, 0.0, UNKNOWN)]
    path = tmp_path / "grid.csv"
    save_grid(grid, str(path))
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "y", "label"]
    assert rows[1][2] == "0"
    assert rows[2][2] == "unknown"
