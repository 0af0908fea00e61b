"""Entropy and mutual-information estimators used to score views.

Continuous entropies come from a leave-one-out Gaussian-product-kernel
density (Silverman bandwidths, resubstitution average of -log density).
One row-block sweep gives the entropy of every view and of every pair of
views, so memory stays O(n * block) and no pair of views is concatenated:
under Silverman's rule a joint scaled distance is a weighted sum of the
two marginal ones. Discrete quantities operate on hard label vectors via
contingency counts. All values are in nats.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

from .numcore import as_matrix

SIGMA_FLOOR = 1e-6
_LOG_2PI = np.log(2.0 * np.pi)
_BLOCK_CELLS = 1 << 18  # 2 MiB of float64, about one L2; `_view_entropies` sizes its blocks from it


@dataclass(frozen=True)
class EntropyEstimate:
    value: float
    sample_count: int
    bandwidths: np.ndarray


def _floored_sigma(samples: np.ndarray) -> np.ndarray:
    return np.maximum(samples.std(axis=0, ddof=1), SIGMA_FLOOR)


def _silverman(sigma: np.ndarray, n: int, d: int) -> np.ndarray:
    return 1.06 * sigma * n ** (-1.0 / (4.0 + d))


def silverman_bandwidths(samples: np.ndarray) -> np.ndarray:
    """Per-dimension bandwidth 1.06 * sigma * n^(-1/(4+d)), sigma floored."""
    n, d = samples.shape
    return _silverman(_floored_sigma(samples), n, d)


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


def _estimate(log_sums: np.ndarray, h: np.ndarray) -> EntropyEstimate:
    n, d = log_sums.shape[0], h.shape[0]
    log_density = log_sums - np.log(n - 1) - np.log(h).sum() - 0.5 * d * _LOG_2PI
    return EntropyEstimate(float(-log_density.mean()), n, h)


def _view_entropies(
    mats: Sequence[np.ndarray],
) -> tuple[list[EntropyEstimate], dict[tuple[int, int], EntropyEstimate]]:
    """Leave-one-out KDE entropy of each view and of each pair of views.

    `mats` are finite float64 (n, d_v) matrices with equal n. Returns the
    marginal estimates in view order, and the joint estimate of the column
    concatenation [view v, view u] keyed by (v, u) for every v < u.

    The n x n kernel matrices are never formed. The rows are walked once,
    in blocks held by V + 2 buffers that every block reuses.
    Per block, each view's scaled distances S_v = -0.5 * max(D_v, 0), with
    its own sample at -inf, repeat the dense estimator's operations in the
    same order. So a marginal value equals the dense one bit for bit
    wherever BLAS adds up a block's dot products as it does for the full
    z @ z.T; a one-row block (a matrix-vector call) of a d=2 view need not.
    Silverman's joint bandwidth of a column of view v is its marginal one
    divided by a constant, so the joint block is r_v * S_v + r_u * S_u with
    r_v = (h_v / h_vu)^2 = n^(2/(4+d_v+d_u) - 2/(4+d_v)). A joint value
    therefore equals the dense estimator on the concatenation up to
    summation order.
    """
    n = mats[0].shape[0]
    if n < 2:
        raise ValueError(f"need at least 2 samples for a leave-one-out density, got {n}")
    n_views = len(mats)
    dims = [m.shape[1] for m in mats]
    sigmas = [_floored_sigma(m) for m in mats]
    hs = [_silverman(sigma, n, d) for sigma, d in zip(sigmas, dims)]
    # Centering is a no-op for the estimator but keeps the pairwise
    # distances well conditioned for large offsets.
    zs = [(m - m.mean(axis=0)) / h for m, h in zip(mats, hs)]
    sq_norms = [np.einsum("ij,ij->i", z, z) for z in zs]
    pairs = list(combinations(range(n_views), 2))

    def ratio(v, u):
        return n ** (2.0 / (4.0 + dims[v] + dims[u]) - 2.0 / (4.0 + dims[v]))

    # The block buffers get what the per-row arrays (z, norms, log-sums)
    # leave of 2 * _BLOCK_CELLS cells, but never less than half of it: at
    # large n the per-row arrays dominate memory anyway, and thinner blocks
    # would only add per-block overhead.
    row_cells = (sum(dims) + 2 * n_views + len(pairs)) * n
    block_cells = max(2 * _BLOCK_CELLS - row_cells, _BLOCK_CELLS)
    rows = max(1, min(n, block_cells // ((n_views + 2) * n)))
    marginal_sums = np.empty((n_views, n))
    joint_sums = np.empty((len(pairs), n))
    # one buffer per view, a product buffer and a joint buffer, so the
    # allocator is not asked for fresh pages per block
    buffers = np.empty((n_views + 2, rows, n))
    for s in range(0, n, rows):
        e = min(s + rows, n)
        blocks = buffers[:, : e - s]
        dot, joint = blocks[n_views], blocks[n_views + 1]
        for v in range(n_views):
            blk, z = blocks[v], zs[v]
            # (|z_i|^2 + |z_j|^2) - 2 z_i.z_j, in the dense estimator's order
            np.add(sq_norms[v][s:e, None], sq_norms[v][None, :], out=blk)
            np.matmul(z[s:e], z.T, out=dot)
            dot *= 2.0
            blk -= dot
            np.maximum(blk, 0.0, out=blk)
            blk.reshape(-1)[s :: n + 1] = np.inf  # each row's own sample
            blk *= -0.5
        # joints first: the marginal log-sum-exp overwrites its block
        for p, (v, u) in enumerate(pairs):
            np.multiply(blocks[v], ratio(v, u), out=joint)
            np.multiply(blocks[u], ratio(u, v), out=dot)
            joint += dot
            joint_sums[p, s:e] = _logsumexp_rows(joint)
        for v in range(n_views):
            marginal_sums[v, s:e] = _logsumexp_rows(blocks[v])
    marginal = [_estimate(marginal_sums[v], hs[v]) for v in range(n_views)]
    joint_estimates = {}
    for p, (v, u) in enumerate(pairs):
        d = dims[v] + dims[u]
        h = np.concatenate([_silverman(sigmas[v], n, d), _silverman(sigmas[u], n, d)])
        joint_estimates[v, u] = _estimate(joint_sums[p], h)
    return marginal, joint_estimates


def kde_entropy(samples) -> EntropyEstimate:
    """Leave-one-out kernel-density entropy of an (n, d) sample matrix.

    Computed in row blocks (see `_view_entropies`), so memory is
    O(n * block) rather than O(n^2); the value equals the dense n x n
    estimator's, bit for bit where the block products allow.
    """
    x = as_matrix(samples, "samples")
    marginal, _ = _view_entropies([x])
    return marginal[0]


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
    marginal_estimates, joint_estimates = _view_entropies(mats)
    marginal = np.array([est.value for est in marginal_estimates])
    joint = np.zeros((n_views, n_views))
    for (v, u), est in joint_estimates.items():
        joint[v, u] = joint[u, v] = est.value
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


def contingency_table(a, b, names: tuple[str, str] = ("a", "b")) -> np.ndarray:
    """(k_a, k_b) counts of label pairs: entry (i, j) counts samples with a=i, b=j.

    Both inputs must be 1-D nonnegative integer label vectors of one length;
    `names` label them in error messages.
    """
    a = _as_labels(a, names[0])
    b = _as_labels(b, names[1])
    if a.shape[0] != b.shape[0]:
        raise ValueError(f"label lengths differ: {a.shape[0]} vs {b.shape[0]}")
    ka = int(a.max()) + 1
    kb = int(b.max()) + 1
    return np.bincount(a * kb + b, minlength=ka * kb).reshape(ka, kb)


def _table_entropies(table: np.ndarray) -> tuple[float, float, float]:
    """H(a), H(b) and H(a, b) of a contingency table."""
    return (
        _entropy_from_counts(table.sum(axis=1)),
        _entropy_from_counts(table.sum(axis=0)),
        _entropy_from_counts(table.ravel()),
    )


def mutual_information(a, b) -> float:
    """Mutual information of two labelings from their contingency table."""
    h_a, h_b, h_ab = _table_entropies(contingency_table(a, b))
    return h_a + h_b - h_ab


def nmi_from_table(table: np.ndarray) -> float:
    """Normalized mutual information 2*MI/(H(a)+H(b)) of a contingency table, 0/0 -> 0."""
    h_a, h_b, h_ab = _table_entropies(table)
    if h_a + h_b == 0.0:
        return 0.0
    mi = (h_a + h_b) - h_ab
    return float(min(1.0, max(0.0, 2.0 * mi / (h_a + h_b))))


def nmi(a, b) -> float:
    """Normalized mutual information 2*MI/(H(a)+H(b)), with 0/0 -> 0."""
    return nmi_from_table(contingency_table(a, b))
