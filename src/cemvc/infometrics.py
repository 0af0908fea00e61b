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

from itertools import combinations
from typing import Sequence

import numpy as np

from .numcore import as_labels, as_matrix

SIGMA_FLOOR = 1e-6
_LOG_2PI = np.log(2.0 * np.pi)
_BLOCK_CELLS = 1 << 18  # 2 MiB of float64, about one L2; `_view_entropies` sizes its blocks from it
# Below this, an unshifted kernel sum is redone shifted: its largest term may be
# subnormal or zero. log(1e-250) is about -575.6.
TINY_SUM = 1e-250


def _floored_sigma(samples: np.ndarray) -> np.ndarray:
    return np.maximum(samples.std(axis=0, ddof=1), SIGMA_FLOOR)


def _silverman(sigma: np.ndarray, n: int, d: int) -> np.ndarray:
    """Per-dimension bandwidth 1.06 * sigma * n^(-1/(4+d))."""
    return 1.06 * sigma * n ** (-1.0 / (4.0 + d))


def _logsumexp_rows(a: np.ndarray) -> np.ndarray:
    """Row-wise log-sum-exp of a 2-D array with finite row maxima, overwriting `a`.

    One maximal cell per row leaves the sum s of exp(a - max), and the
    result is log1p(s) + max. A cell tied with the maximum stays in s as
    exp(0) = 1, which is exact, so ties need no separate path.
    """
    rows = np.arange(a.shape[0])
    first = a.argmax(axis=1)
    a_max = a[rows, first]
    a[rows, first] = -np.inf
    a -= a_max[:, None]
    np.exp(a, out=a)
    return np.log1p(a.sum(axis=1)) + a_max


def _entropy_from_log_sums(log_sums: np.ndarray, h: np.ndarray) -> float:
    n, d = log_sums.shape[0], h.shape[0]
    log_density = log_sums - np.log(n - 1) - np.log(h).sum() - 0.5 * d * _LOG_2PI
    return float(-log_density.mean())


def _scaled_distances(out: np.ndarray, dot: np.ndarray, z: np.ndarray, half_sq_norm: np.ndarray, rows, cols) -> None:
    """-0.5 * max(|z_i - z_j|^2, 0) into `out` for rows i and columns j, with
    `half_sq_norm` = 0.5 * |z|^2; `dot` is scratch of `out`'s shape.

    Halving and doubling are exact, so given the same dot products this
    rounds as the dense estimator's -0.5 * max((|z_i|^2 + |z_j|^2) - 2 z_i.z_j, 0)
    does, in two fewer passes."""
    np.add(half_sq_norm[rows, None], half_sq_norm[None, cols], out=out)
    np.matmul(z[rows], z[cols].T, out=dot)
    np.subtract(dot, out, out=out)
    np.minimum(out, 0.0, out=out)


def _view_entropies(mats: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Leave-one-out KDE entropy of each view and of each pair of views.

    `mats` are finite float64 (n, d_v) matrices with equal n. Returns the
    (V,) marginal entropies in view order, and the symmetric (V, V) matrix
    whose (v, u) entry is the joint entropy of the column concatenation
    [view v, view u]; its diagonal is zero.

    The n x n kernel matrices are never formed. Each view's scaled distances
    S_v = -0.5 * max(D_v, 0), with each row's own sample at -inf, are made in
    row blocks held by V + 2 buffers that every block reuses. Silverman's
    joint bandwidth of a column of view v is its marginal one divided by a
    constant, so a joint block is r_v * S_v + r_u * S_u with
    r_v = (h_v / h_vu)^2 = n^(2/(4+d_v+d_u) - 2/(4+d_v)), and no pair of
    views is concatenated.

    The kernel term exp(S(i, j)) is the same in row i's sum and in row j's,
    so the sweep is triangular: row block [s, e) is scored only against
    columns [s, n). Its row sums go to rows s..e-1, and its column sums over
    columns e..n-1 go to those later rows. Every S is <= 0, so the terms are
    summed with no shift, and each log-sum is the log of its sum. A row
    whose sum for any quantity is below TINY_SUM (a nearest neighbour more
    than about 575 nats away, where the terms lose precision or underflow)
    is done again against all n columns with the shifted `_logsumexp_rows`.

    The sums are added in another order than the dense n x n estimator's,
    so every value, marginal or joint, is within a relative 1e-12 of it.
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
    half_sq_norms = [0.5 * np.einsum("ij,ij->i", z, z) for z in zs]
    pairs = list(combinations(range(n_views), 2))

    def ratio(v, u):
        return n ** (2.0 / (4.0 + dims[v] + dims[u]) - 2.0 / (4.0 + dims[v]))

    # The block buffers get what the per-row arrays (z, norms, sums) leave
    # of 2 * _BLOCK_CELLS cells, but never less than half of it: at large n
    # the per-row arrays dominate memory anyway, and thinner blocks would
    # only add per-block overhead.
    row_cells = (sum(dims) + 2 * n_views + len(pairs)) * n
    block_cells = max(2 * _BLOCK_CELLS - row_cells, _BLOCK_CELLS)
    rows = max(1, min(n, block_cells // ((n_views + 2) * n)))
    # one buffer per view, a product buffer and a joint buffer, so the
    # allocator is not asked for fresh pages per block
    buffers = np.empty((n_views + 2, rows * n))

    def exponents(row_idx, start, own):
        """Yield (q, S_q) from rows `row_idx` to columns start..n-1, first for the
        joints of `pairs` (q = V + p), then for the V marginals (q = v), with
        row k's own sample, column `own[k]`, at -inf. The joints are made
        from the marginal blocks, so the caller may overwrite what it gets."""
        r, w = len(own), n - start
        blocks = buffers[:, : r * w].reshape(-1, r, w)
        dot, joint = blocks[n_views], blocks[n_views + 1]
        for v in range(n_views):
            _scaled_distances(blocks[v], dot, zs[v], half_sq_norms[v], row_idx, slice(start, None))
            blocks[v][np.arange(r), own] = -np.inf
        for p, (v, u) in enumerate(pairs):
            np.multiply(blocks[v], ratio(v, u), out=joint)
            np.multiply(blocks[u], ratio(u, v), out=dot)
            joint += dot
            yield n_views + p, joint
        for v in range(n_views):
            yield v, blocks[v]

    sums = np.zeros((n_views + len(pairs), n))
    for s in range(0, n, rows):
        e = min(s + rows, n)
        for q, block in exponents(slice(s, e), s, np.arange(e - s)):
            np.exp(block, out=block)
            sums[q, s:e] += block.sum(axis=1)
            sums[q, e:] += block[:, e - s :].sum(axis=0)
    redo = np.flatnonzero((sums < TINY_SUM).any(axis=0))
    sums[:, redo] = 1.0  # their logs are overwritten below
    log_sums = np.log(sums, out=sums)
    for s in range(0, redo.size, rows):
        idx = redo[s : s + rows]
        for q, block in exponents(idx, 0, idx):
            log_sums[q, idx] = _logsumexp_rows(block)
    marginal = np.array([_entropy_from_log_sums(log_sums[v], h) for v, h in enumerate(hs)])
    joint = np.zeros((n_views, n_views))
    for p, (v, u) in enumerate(pairs):
        d = dims[v] + dims[u]
        h = np.concatenate([_silverman(sigmas[v], n, d), _silverman(sigmas[u], n, d)])
        joint[v, u] = joint[u, v] = _entropy_from_log_sums(log_sums[n_views + p], h)
    return marginal, joint


def kde_entropy(samples) -> float:
    """Leave-one-out kernel-density entropy of an (n, d) sample matrix.

    Computed by the triangular, unshifted row-block sweep of
    `_view_entropies`, so memory is O(n * block) rather than O(n^2), with
    rows whose nearest neighbour is far away done again shifted. The value
    is within a relative 1e-12 of the dense n x n estimator's.
    """
    x = as_matrix(samples, "samples")
    return float(_view_entropies([x])[0][0])


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
    marginal, joint = _view_entropies(mats)
    out = np.empty(n_views)
    for v in range(n_views):
        others = [u for u in range(n_views) if u != v]
        out[v] = float(sum(joint[v, u] - marginal[u] for u in others))
    return out


def _entropy_from_counts(counts: np.ndarray) -> float:
    total = counts.sum()
    p = counts[counts > 0] / total
    return float(-(p * np.log(p)).sum())


def contingency_table(a, b, names: tuple[str, str] = ("a", "b")) -> np.ndarray:
    """(k_a, k_b) counts of label pairs: one row per code that occurs in `a` and one
    column per code that occurs in `b`, each in sorted order.

    Both are label vectors of one length, coded by `numcore.as_labels`; `names`
    label them in error messages.
    """
    a = as_labels(a, names[0])
    b = as_labels(b, names[1])
    if a.shape[0] != b.shape[0]:
        raise ValueError(f"label lengths differ: {a.shape[0]} vs {b.shape[0]}")
    kb = int(b.max()) + 1
    return np.bincount(a * kb + b, minlength=(int(a.max()) + 1) * kb).reshape(-1, kb)


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
