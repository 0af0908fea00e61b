import itertools
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from cemvc.infometrics import mutual_information, nmi
from cemvc.metrics import (
    _matched_accuracy,
    _max_matched_total,
    clustering_accuracy,
    confusion_matrix,
    evaluate,
)

SRC = Path(__file__).resolve().parents[1] / "src"


def exhaustive_accuracy(pred, truth):
    """Oracle: best matched fraction over all injective cluster-to-class maps."""
    table = confusion_matrix(pred, truth)
    k = max(table.shape)
    padded = np.zeros((k, k), dtype=table.dtype)
    padded[: table.shape[0], : table.shape[1]] = table
    best = 0
    for perm in itertools.permutations(range(k)):
        best = max(best, sum(padded[i, perm[i]] for i in range(k)))
    return best / len(pred)


def test_accuracy_perfect_prediction():
    labels = np.array([0, 1, 2, 0, 1, 2])
    assert clustering_accuracy(labels, labels) == 1.0


def test_accuracy_relabeling_invariance():
    truth = np.array([0, 1, 2, 0, 1, 2])
    pred = (truth + 1) % 3
    assert clustering_accuracy(pred, truth) == 1.0


def test_accuracy_hand_case():
    assert clustering_accuracy([0, 0, 1, 1], [0, 1, 1, 1]) == 0.75


def test_accuracy_rejects_length_mismatch():
    with pytest.raises(ValueError, match="lengths"):
        clustering_accuracy([0, 1], [0, 1, 1])


def test_accuracy_rejects_empty():
    with pytest.raises(ValueError, match="empty"):
        clustering_accuracy([], [])


def test_accuracy_constant_predictor_matches_largest_class_share():
    truth = np.array([0] * 6 + [1] * 3 + [2] * 1)
    pred = np.zeros(10, dtype=int)
    assert clustering_accuracy(pred, truth) == pytest.approx(0.6)


def test_accuracy_matches_exhaustive_oracle_randomized():
    rng = np.random.default_rng(42)
    for _ in range(300):
        n = int(rng.integers(2, 51))
        k = int(rng.integers(1, 7))
        pred = rng.integers(0, k, size=n)
        truth = rng.integers(0, int(rng.integers(1, 7)), size=n)
        assert clustering_accuracy(pred, truth) == pytest.approx(
            exhaustive_accuracy(pred, truth)
        )


def random_count_table(rng):
    """Integer table of 1-12 x 1-12 cells with ties, zero rows and zero columns."""
    rows, cols = (int(x) for x in rng.integers(1, 13, size=2))
    table = rng.integers(0, int(rng.integers(1, 6)), size=(rows, cols))
    if rng.random() < 0.3:
        table[rng.integers(rows)] = 0
    if rng.random() < 0.3:
        table[:, rng.integers(cols)] = 0
    if rng.random() < 0.1:
        table[:] = int(rng.integers(0, 4))  # every matching ties
    return table


def test_matched_total_equals_scipy_assignment_oracle():
    rng = np.random.default_rng(7)
    for _ in range(2000):
        table = random_count_table(rng)
        rows, cols = linear_sum_assignment(table, maximize=True)
        best = int(table[rows, cols].sum())
        assert _max_matched_total(table) == best
        if table.sum():
            assert _matched_accuracy(table) == float(best) / table.sum()


def test_import_and_evaluate_leave_scipy_unloaded():
    code = (
        "import sys\n"
        "import cemvc\n"
        "report = cemvc.evaluate([0, 0, 1, 2], [1, 1, 0, 0])\n"
        "assert report.acc == 0.75, report.acc\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@given(
    st.lists(st.integers(min_value=0, max_value=4), min_size=2, max_size=40),
    st.permutations(list(range(5))),
)
@settings(max_examples=60, deadline=None)
def test_accuracy_invariant_under_prediction_relabeling(pred, perm):
    rng = np.random.default_rng(len(pred))
    truth = rng.integers(0, 3, size=len(pred))
    relabeled = [perm[p] for p in pred]
    assert clustering_accuracy(pred, truth) == pytest.approx(
        clustering_accuracy(relabeled, truth)
    )


@given(
    st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=40),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_evaluate_scores_equal_the_standalone_metrics(pred, seed):
    # evaluate builds one table for both scores; each must equal its own path
    truth = np.random.default_rng(seed).integers(0, 4, size=len(pred))
    report = evaluate(pred, truth)
    assert report.acc == clustering_accuracy(pred, truth)
    assert report.nmi == nmi(pred, truth)
    assert np.array_equal(report.confusion, confusion_matrix(pred, truth))


def test_evaluate_perfect_result():
    labels = np.array([0, 1, 2, 0, 1, 2])
    report = evaluate(labels, labels)
    assert report.acc == 1.0
    assert report.nmi == 1.0
    assert report.confusion.sum() == 6


def test_evaluate_constant_prediction_balanced_truth():
    truth = np.array([0, 0, 1, 1])
    report = evaluate(np.zeros(4, dtype=int), truth)
    assert report.acc == 0.5
    assert report.nmi == 0.0


def test_evaluate_hand_case_confusion_consistent():
    report = evaluate([0, 0, 1, 1], [0, 1, 1, 1])
    assert report.acc == 0.75
    assert report.confusion.tolist() == [[1, 1], [0, 2]]


# eight distinct int64 codes each: negative, sparse, up to +-10^12
code_sets = st.lists(
    st.integers(min_value=-(10**12), max_value=10**12), min_size=8, max_size=8, unique=True
)


@given(
    st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), min_size=1, max_size=60),
    code_sets,
    code_sets,
)
@settings(max_examples=80, deadline=None)
def test_scores_do_not_change_when_either_labeling_is_recoded(pairs, codes_a, codes_b):
    a, b = (np.array(labels) for labels in zip(*pairs))
    recoded_a = np.array(codes_a, dtype=np.int64)[a]
    recoded_b = np.array(codes_b, dtype=np.int64)[b]
    for x, y in ((recoded_a, b), (a, recoded_b), (recoded_a, recoded_b)):
        # recoding may reorder the table's rows or columns, which changes
        # only the order of the entropy sums
        assert nmi(x, y) == pytest.approx(nmi(a, b), abs=1e-12)
        assert mutual_information(x, y) == pytest.approx(mutual_information(a, b), abs=1e-12)
        assert clustering_accuracy(x, y) == clustering_accuracy(a, b)
        report = evaluate(x, y)
        assert report.acc == clustering_accuracy(a, b)
        assert report.nmi == pytest.approx(nmi(a, b), abs=1e-12)


def traced_peak(call):
    tracemalloc.start()
    try:
        out = call()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_evaluate_on_sparse_int64_codes_stays_below_one_megabyte():
    rng = np.random.default_rng(11)
    codes = np.array([-(10**12), -7, 5, 10**12], dtype=np.int64)
    pred = codes[rng.integers(0, 4, size=500)]
    truth = codes[::-1][rng.integers(0, 4, size=500)]
    report, peak = traced_peak(lambda: evaluate(pred, truth))
    assert peak < 1 << 20, peak
    assert report.confusion.shape == (4, 4)
    assert report.acc == clustering_accuracy(np.unique(pred, return_inverse=True)[1], truth)


def test_accuracy_on_huge_codes_builds_one_row_per_code():
    acc, peak = traced_peak(lambda: clustering_accuracy([0, 1, 10**12, 10**12], [0, 0, 1, 1]))
    assert acc == 0.75
    assert peak < 1 << 20, peak
    assert confusion_matrix([0, 1, 10**12, 10**12], [0, 0, 1, 1]).tolist() == [[1, 0], [1, 0], [0, 2]]


def test_negative_codes_are_labels_like_any_other():
    assert nmi([-1, 1, -1, 1], [0, 1, 0, 1]) == 1.0
    assert clustering_accuracy([-1, 1, -1, 1], [0, 1, 0, 1]) == 1.0


def test_confusion_has_no_row_for_a_code_that_does_not_occur():
    # cluster 1 is empty: the table keeps one row per cluster that occurs
    report = evaluate([0, 2, 2, 0], [0, 1, 1, 0])
    assert report.confusion.tolist() == [[2, 0], [0, 2]]
    assert report.acc == 1.0
    assert report.nmi == 1.0
