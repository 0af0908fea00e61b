"""Clustering quality measures: Hungarian-matched accuracy and NMI."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .infometrics import contingency_table, nmi_from_table


@dataclass
class MetricReport:
    """ACC and NMI, and the confusion table behind them: one row per predicted
    code that occurs and one column per true code that occurs, in sorted order."""

    acc: float
    nmi: float
    confusion: np.ndarray  # (k_pred, k_true) counts


def confusion_matrix(pred, truth) -> np.ndarray:
    """(k_pred, k_true) counts of predicted cluster against true class."""
    return contingency_table(pred, truth, ("pred", "truth"))


def _max_matched_total(table: np.ndarray) -> int:
    """Largest sum of `table` over a one-to-one matching of rows to columns.

    Shortest augmenting paths with row and column potentials (Kuhn-Munkres
    as in Jonker and Volgenant, 1987), O(rows^2 * cols) on the orientation
    with rows <= cols. Counts are integers, so every potential is an exact
    float64 and the total is exact.
    """
    table = np.asarray(table)
    if table.shape[0] > table.shape[1]:
        table = table.T
    n, m = table.shape
    cost = -table.astype(np.float64)  # maximize the count = minimize its negation
    u = np.zeros(n + 1)  # row potentials, 1-based
    v = np.zeros(m + 1)  # column potentials; column 0 roots each search
    match = np.zeros(m + 1, dtype=np.int64)  # row (1-based) matched to each column, 0 = none
    way = np.zeros(m + 1, dtype=np.int64)  # previous column on the shortest path
    for i in range(1, n + 1):
        match[0] = i
        j0 = 0
        minv = np.full(m + 1, np.inf)
        used = np.zeros(m + 1, dtype=bool)
        while match[j0] != 0:
            used[j0] = True
            i0 = match[j0]
            free = ~used
            reduced = cost[i0 - 1] - u[i0] - v[1:]
            better = free[1:] & (reduced < minv[1:])
            minv[1:][better] = reduced[better]
            way[1:][better] = j0
            slack = np.where(free, minv, np.inf)
            j0 = int(np.argmin(slack))
            delta = slack[j0]
            u[match[used]] += delta
            v[used] -= delta
            minv[free] -= delta
        while j0:
            prev = way[j0]
            match[j0] = match[prev]
            j0 = prev
    cols = np.flatnonzero(match[1:])
    return int(table[match[1:][cols] - 1, cols].sum())


def _matched_accuracy(table: np.ndarray) -> float:
    """Fraction of samples on the best one-to-one cluster-to-class matching."""
    return float(_max_matched_total(table)) / table.sum()


def clustering_accuracy(pred, truth) -> float:
    """Best-case matched fraction over cluster-to-class assignments."""
    return _matched_accuracy(confusion_matrix(pred, truth))


def evaluate(pred, truth) -> MetricReport:
    """Score predicted labels against truth."""
    table = confusion_matrix(pred, truth)
    return MetricReport(acc=_matched_accuracy(table), nmi=nmi_from_table(table), confusion=table)
