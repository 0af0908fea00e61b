"""Entropy and mutual-information estimators used to score views.

Continuous entropies come from a leave-one-out Gaussian-product-kernel
density (Silverman bandwidths, resubstitution average of -log density),
computed in row blocks so that memory stays O(n * block).
Discrete quantities operate on hard label vectors via contingency counts.
All values are in nats.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .numcore import as_matrix

SIGMA_FLOOR = 1e-6
_LOG_2PI = np.log(2.0 * np.pi)
_BLOCK_CELLS = 1 << 18  # distance cells per row block: 2 MiB of float64, about one L2


@dataclass(frozen=True)
class EntropyEstimate:
    value: float
    sample_count: int
    bandwidths: np.ndarray


def silverman_bandwidths(samples: np.ndarray) -> np.ndarray:
    """Per-dimension bandwidth 1.06 * sigma * n^(-1/(4+d)), sigma floored."""
    n, d = samples.shape
    sigma = np.maximum(samples.std(axis=0, ddof=1), SIGMA_FLOOR)
    return 1.06 * sigma * n ** (-1.0 / (4.0 + d))


def _logsumexp_rows(a: np.ndarray) -> np.ndarray:
    """Row-wise log-sum-exp of a 2-D array with finite row maxima, overwriting `a`.

    The arithmetic is that of scipy.special.logsumexp (as of scipy 1.17),
    bit for bit, without its copies: the m cells equal to a row's maximum
    leave the sum s, and the result is log1p(s / m) + log(m) + max. Rows
    whose maximum is tied take a slower path; m is 1 everywhere else.
    """
    rows = np.arange(a.shape[0])
    first = a.argmax(axis=1)
    a_max = a[rows, first]
    a[rows, first] = -np.inf
    m = np.ones(a.shape[0])
    tied = a.max(axis=1) == a_max
    if tied.any():
        rest = a[tied]
        hit = rest == a_max[tied, None]
        m[tied] += np.count_nonzero(hit, axis=1)
        rest[hit] = -np.inf
        a[tied] = rest
    a -= a_max[:, None]
    np.exp(a, out=a)
    return np.log1p(a.sum(axis=1) / m) + np.log(m) + a_max


def kde_entropy(samples) -> EntropyEstimate:
    """Leave-one-out kernel-density entropy of an (n, d) sample matrix.

    The n x n kernel matrix is never formed: the leave-one-out density is
    walked in blocks of `_BLOCK_CELLS // n` rows (at least one, at most n), so memory is O(n * block)
    rather than O(n^2). Each block repeats the dense estimator's operations
    in the same order, so the value equals the dense one bit for bit.
    """
    x = as_matrix(samples, "samples")
    n, d = x.shape
    if n < 2:
        raise ValueError(f"need at least 2 samples for a leave-one-out density, got {n}")
    h = silverman_bandwidths(x)
    # Centering is a no-op for the estimator but keeps the pairwise
    # distances well conditioned for large offsets.
    z = (x - x.mean(axis=0)) / h
    sq_norms = np.einsum("ij,ij->i", z, z)
    rows = max(1, min(n, _BLOCK_CELLS // n))
    log_sums = np.empty(n)
    # two block buffers serve every block, so the allocator is not asked
    # for fresh pages per block
    blk_buf = np.empty((rows, n))
    dot_buf = np.empty((rows, n))
    for s in range(0, n, rows):
        e = min(s + rows, n)
        blk, dot = blk_buf[: e - s], dot_buf[: e - s]
        # (|z_i|^2 + |z_j|^2) - 2 z_i.z_j, in the dense estimator's order
        np.add(sq_norms[s:e, None], sq_norms[None, :], out=blk)
        np.matmul(z[s:e], z.T, out=dot)
        dot *= 2.0
        blk -= dot
        np.maximum(blk, 0.0, out=blk)
        blk.reshape(-1)[s :: n + 1] = np.inf  # each row's own sample
        blk *= -0.5
        log_sums[s:e] = _logsumexp_rows(blk)
    log_density = log_sums - np.log(n - 1) - np.log(h).sum() - 0.5 * d * _LOG_2PI
    return EntropyEstimate(float(-log_density.mean()), n, h)


def joint_entropy(a, b) -> EntropyEstimate:
    """Entropy of the column-concatenation of two equal-length samples."""
    a = as_matrix(a, "a")
    b = as_matrix(b, "b")
    if a.shape[0] != b.shape[0]:
        raise ValueError(f"row counts differ: {a.shape[0]} vs {b.shape[0]}")
    return kde_entropy(np.hstack([a, b]))


def total_conditional_entropy(reps: Sequence[np.ndarray]) -> np.ndarray:
    """Per-view sum over other views u of H(view, u) - H(u).

    Low values flag views whose content is largely shared with the rest;
    an unrelated noise view gets the largest value.
    """
    mats = [as_matrix(r, f"view {v}") for v, r in enumerate(reps)]
    n_views = len(mats)
    if n_views < 2:
        raise ValueError("conditional entropy needs at least 2 views")
    rows = {m.shape[0] for m in mats}
    if len(rows) != 1:
        raise ValueError(f"views have differing row counts: {sorted(rows)}")
    marginal = np.array([kde_entropy(m).value for m in mats])
    joint = np.zeros((n_views, n_views))
    for v in range(n_views):
        for u in range(v + 1, n_views):
            joint[v, u] = joint[u, v] = joint_entropy(mats[v], mats[u]).value
    out = np.empty(n_views)
    for v in range(n_views):
        others = [u for u in range(n_views) if u != v]
        out[v] = float(sum(joint[v, u] - marginal[u] for u in others))
    return out


def _as_labels(labels, name: str) -> np.ndarray:
    arr = np.asarray(labels)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a 1-D label vector, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} is empty")
    if not np.issubdtype(arr.dtype, np.integer):
        rounded = np.rint(arr)
        if not np.array_equal(rounded, arr):
            raise ValueError(f"{name} contains non-integer labels")
        arr = rounded.astype(np.int64)
    if arr.min() < 0:
        raise ValueError(f"{name} contains negative labels")
    return arr.astype(np.int64)


def _entropy_from_counts(counts: np.ndarray) -> float:
    total = counts.sum()
    p = counts[counts > 0] / total
    return float(-(p * np.log(p)).sum())


def label_entropy(labels, num_classes: int | None = None) -> float:
    """Shannon entropy of the empirical label marginal, in nats."""
    arr = _as_labels(labels, "labels")
    k = int(arr.max()) + 1 if num_classes is None else int(num_classes)
    if arr.max() >= k:
        raise ValueError(f"label {arr.max()} out of range for {k} classes")
    counts = np.bincount(arr, minlength=k)
    return _entropy_from_counts(counts)


def _contingency(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    ka = int(a.max()) + 1
    kb = int(b.max()) + 1
    return np.bincount(a * kb + b, minlength=ka * kb).reshape(ka, kb)


def mutual_information(a, b) -> float:
    """Mutual information of two labelings from their contingency table."""
    a = _as_labels(a, "a")
    b = _as_labels(b, "b")
    if a.shape[0] != b.shape[0]:
        raise ValueError(f"label lengths differ: {a.shape[0]} vs {b.shape[0]}")
    table = _contingency(a, b)
    h_a = _entropy_from_counts(table.sum(axis=1))
    h_b = _entropy_from_counts(table.sum(axis=0))
    h_ab = _entropy_from_counts(table.ravel())
    return h_a + h_b - h_ab


def nmi(a, b) -> float:
    """Normalized mutual information 2*MI/(H(a)+H(b)), with 0/0 -> 0."""
    a = _as_labels(a, "a")
    b = _as_labels(b, "b")
    if a.shape[0] != b.shape[0]:
        raise ValueError(f"label lengths differ: {a.shape[0]} vs {b.shape[0]}")
    table = _contingency(a, b)
    h_a = _entropy_from_counts(table.sum(axis=1))
    h_b = _entropy_from_counts(table.sum(axis=0))
    if h_a + h_b == 0.0:
        return 0.0
    h_ab = _entropy_from_counts(table.ravel())
    mi = (h_a + h_b) - h_ab
    return float(min(1.0, max(0.0, 2.0 * mi / (h_a + h_b))))
