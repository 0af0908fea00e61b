"""Entropy and mutual-information estimators used to score views.

Continuous entropies come from a leave-one-out Gaussian-product-kernel
density (Silverman bandwidths, resubstitution average of -log density).
One row-block sweep gives the entropy of every view and of every pair of
views, so memory stays O(n * block) and no pair of views is concatenated:
under Silverman's rule a joint scaled distance is a weighted sum of the
two marginal ones, so a joint kernel term is the product of two scaled
marginal exponentials. Each view's distances come from one gemm on an
augmented operand [z, -|z|^2 / 2, 1]. Discrete quantities operate on hard
label vectors via contingency counts. All values are in nats.
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


def _view_entropies(mats: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Leave-one-out KDE entropy of each view and of each pair of views.

    `mats` are finite float64 (n, d_v) matrices with equal n. Returns the
    (V,) marginal entropies in view order, and the symmetric (V, V) matrix
    whose (v, u) entry is the joint entropy of the column concatenation
    [view v, view u]; its diagonal is zero.

    The n x n kernel matrices are never formed. Each view keeps one operand
    C_v = [z, -0.5 |z|^2, 1] of its centered, bandwidth-scaled rows z, so its
    scaled distances S_v = -0.5 * max(D_v, 0) = min(z_i.z_j - 0.5 |z_i|^2 -
    0.5 |z_j|^2, 0) for a block of rows are one gemm, of those rows of C_v
    with their last two columns swapped against C_v's columns, and one
    minimum; each row's own sample is set to -inf. Silverman's joint
    bandwidth of a column of view v is its marginal one divided by a
    constant, so a joint exponent is r_vu * S_v + r_uv * S_u with
    r_vu = (h_v / h_vu)^2 = n^(2/(4+d_v+d_u) - 2/(4+d_v)), and no pair of
    views is concatenated. Its kernel term is the product
    exp(r_vu * S_v) * exp(r_uv * S_u), so each view needs one scaled
    exponential per distinct ratio (one when all views have one width), and
    a joint's row and column sums are each one np.einsum sum of products
    of two scaled planes; no joint block is stored.

    A block is a stack of planes, the scaled exponentials and then the
    marginal kernels exp(S_v), held by one buffer of 2 * _BLOCK_CELLS cells
    (less what the per-row arrays take, but at least _BLOCK_CELLS) that
    every block reuses. One np.exp call covers every plane, and one
    reduction each gives the row sums and the column sums of the marginals.

    The kernel term exp(S(i, j)) is the same in row i's sum and in row j's,
    so the sweep is triangular: row block [s, e) is scored only against
    columns [s, n). Its row sums go to rows s..e-1, and its column sums over
    columns e..n-1 go to those later rows. Every exponent is <= 0, so the
    terms are summed with no shift, and each log-sum is the log of its sum.
    A row whose sum for any quantity is below TINY_SUM (a nearest neighbour
    more than about 575 nats away, where the terms lose precision or
    underflow) is done again against all n columns in the log domain: the
    shifted `_logsumexp_rows` of S_v, or of the joint exponent
    r_vu * S_v + r_uv * S_u, never of a product.

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
    operands, row_orders = [], []
    for m, h, d in zip(mats, hs, dims):
        op = np.empty((n, d + 2))
        z = op[:, :d]
        # Centering is a no-op for the estimator but keeps the pairwise
        # distances well conditioned for large offsets.
        np.subtract(m, m.mean(axis=0), out=z)
        z /= h
        op[:, d] = -0.5 * np.einsum("ij,ij->i", z, z)
        op[:, d + 1] = 1.0
        operands.append(op)
        row_orders.append(np.r_[:d, d + 1, d])  # the row side's last two columns swapped
    pairs = list(combinations(range(n_views), 2))

    def ratio(v, u):
        return n ** (2.0 / (4.0 + dims[v] + dims[u]) - 2.0 / (4.0 + dims[v]))

    # plane f holds exp(c * S_v) for the f-th distinct (v, c); the marginal
    # planes follow, in view order
    scaled: dict[tuple[int, float], int] = {}
    for v, u in pairs:
        scaled.setdefault((v, ratio(v, u)), len(scaled))
        scaled.setdefault((u, ratio(u, v)), len(scaled))
    factors = [(scaled[v, ratio(v, u)], scaled[u, ratio(u, v)]) for v, u in pairs]
    first = len(scaled)  # the first marginal plane
    n_planes = first + n_views

    # The planes get what the per-row arrays (operands, sums, joint column
    # sums) leave of 2 * _BLOCK_CELLS cells, but never less than half of it:
    # at large n the per-row arrays dominate memory anyway, and thinner
    # blocks would only add per-block overhead.
    row_cells = (sum(dims) + 3 * n_views + 2 * len(pairs)) * n
    block_cells = max(2 * _BLOCK_CELLS - row_cells, _BLOCK_CELLS)
    rows = max(1, min(n, block_cells // (n_planes * n)))
    # one buffer for every block, so the allocator is not asked for fresh
    # pages per block
    buffer = np.empty(n_planes * rows * n)

    def exponents(row_idx, start, own):
        """The planes for rows `row_idx` against columns start..n-1, with S_v
        in marginal plane v and row k's own sample, column `own[k]`, at -inf."""
        r, w = len(own), n - start
        planes = buffer[: n_planes * r * w].reshape(n_planes, r, w)
        s_planes = planes[first : first + n_views]
        for op, order, out in zip(operands, row_orders, s_planes):
            np.matmul(op[row_idx][:, order], op[start:].T, out=out)
        np.minimum(s_planes, 0.0, out=s_planes)
        s_planes[:, np.arange(r), own] = -np.inf
        return planes

    sums = np.zeros((n_views + len(pairs), n))
    joint_rows, joint_cols = np.empty((len(pairs), rows)), np.empty((len(pairs), n))

    # A function of its own: under tracemalloc each allocation looks up its
    # line number, at a cost that grows with the call's offset in its
    # function, and a block allocates on every numpy call.
    def add_block(s, e):
        """Add the kernel sums of rows s..e-1 against columns s..n-1 to `sums`."""
        planes = exponents(slice(s, e), s, np.arange(e - s))
        for (v, c), f in scaled.items():
            np.multiply(planes[first + v], c, out=planes[f])
        np.exp(planes[: first + n_views], out=planes[: first + n_views])
        kernels = planes[first:]
        sums[:n_views, s:e] += kernels.sum(axis=2)
        sums[:n_views, e:] += kernels[:, :, e - s :].sum(axis=1)
        row_sums, col_sums = joint_rows[:, : e - s], joint_cols[:, : n - e]
        for p, (f, g) in enumerate(factors):
            np.einsum("ij,ij->i", planes[f], planes[g], out=row_sums[p])
            np.einsum("ij,ij->j", planes[f][:, e - s :], planes[g][:, e - s :], out=col_sums[p])
        sums[n_views:, s:e] += row_sums
        sums[n_views:, e:] += col_sums

    for s in range(0, n, rows):
        add_block(s, min(s + rows, n))
    redo = np.flatnonzero((sums < TINY_SUM).any(axis=0))
    sums[:, redo] = 1.0  # their logs are overwritten below
    log_sums = np.log(sums, out=sums)
    for s in range(0, redo.size, rows):
        idx = redo[s : s + rows]
        planes = exponents(idx, 0, idx)
        s_planes = planes[first : first + n_views]
        for p, (v, u) in enumerate(pairs):
            exponent, other = planes[:2]  # scaled planes: a pair has two
            np.multiply(s_planes[v], ratio(v, u), out=exponent)
            np.multiply(s_planes[u], ratio(u, v), out=other)
            exponent += other
            log_sums[n_views + p, idx] = _logsumexp_rows(exponent)
        for v in range(n_views):
            log_sums[v, idx] = _logsumexp_rows(s_planes[v])
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
