"""Clustering quality measures: Hungarian-matched accuracy and NMI."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .infometrics import _as_labels, nmi


@dataclass
class MetricReport:
    acc: float
    nmi: float
    confusion: np.ndarray  # (k_pred, k_true) counts


def confusion_matrix(pred, truth) -> np.ndarray:
    pred = _as_labels(pred, "pred")
    truth = _as_labels(truth, "truth")
    if pred.shape[0] != truth.shape[0]:
        raise ValueError(f"label lengths differ: {pred.shape[0]} vs {truth.shape[0]}")
    k_pred = int(pred.max()) + 1
    k_true = int(truth.max()) + 1
    return np.bincount(pred * k_true + truth, minlength=k_pred * k_true).reshape(
        k_pred, k_true
    )


def _matched_accuracy(table: np.ndarray) -> float:
    """Fraction of samples on the best one-to-one cluster-to-class matching."""
    rows, cols = linear_sum_assignment(table, maximize=True)
    return float(table[rows, cols].sum()) / table.sum()


def clustering_accuracy(pred, truth) -> float:
    """Best-case matched fraction over cluster-to-class assignments."""
    return _matched_accuracy(confusion_matrix(pred, truth))


def evaluate(result, truth) -> MetricReport:
    """Score a clustering result (or a plain label vector) against truth."""
    pred = getattr(result, "labels", result)
    table = confusion_matrix(pred, truth)
    return MetricReport(acc=_matched_accuracy(table), nmi=nmi(pred, truth), confusion=table)
