"""K-means plus the heavy-tailed soft assignment used for self-training.

K-means owns its seeding policy: a call without a start keeps the best of
KMEANS_RESTARTS k-means++ seedings (Arthur and Vassilvitskii, 2007), each
refined by the one Lloyd loop that also serves warm-started calls. That loop
runs a stack of starts (r, k, d) at once: one matmul gives every start's
(k, n) distance block, k - 1 comparisons its labels and np.bincount its
cluster sums, so eight seedings cost about the numpy calls of one. Stacks
are cut so that an (a, k, n) block stays near _BLOCK_CELLS cells. Every
start ends bit for bit where a loop over it alone would: the dot products
come from x.T as a view (the gemm that x @ centers.T runs), and the sums
add members row by row, as np.mean does.

Soft labels are Student-t (one degree of freedom) kernel responsibilities
against a centroid set; the training target sharpens them by squaring and
renormalizing per cluster frequency.
"""

from __future__ import annotations

import numpy as np

from .numcore import as_matrix, check_count

KMEANS_MAX_ITER = 300
KMEANS_RESTARTS = 8  # k-means++ seedings of a k-means without a start
KMEANS_TOL = 1e-6
_BLOCK_CELLS = 1 << 17  # cells of one (a, k, n) distance block: 1 MiB of float64


def _row_norms(x: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", x, x)


def _squared_distances(x: np.ndarray, x_norms: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Every point's squared distance to every center, given x_norms = _row_norms(x)."""
    d2 = x_norms[:, None] + _row_norms(centers)[None, :] - 2.0 * (x @ centers.T)
    np.maximum(d2, 0.0, out=d2)
    return d2


def _kmeans_plus_plus(
    x: np.ndarray, x_norms: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    n = x.shape[0]
    centers = np.empty((k, x.shape[1]))
    centers[0] = x[rng.integers(n)]
    closest = _squared_distances(x, x_norms, centers[:1]).ravel()
    for i in range(1, k):
        total = closest.sum()
        if total <= 0.0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=closest / total))
        centers[i] = x[idx]
        np.minimum(closest, _squared_distances(x, x_norms, centers[i : i + 1]).ravel(), out=closest)
    return centers


def inertia(x: np.ndarray, centroids: np.ndarray, labels: np.ndarray) -> float:
    """Sum of squared distances of each point to its assigned centroid."""
    diff = x - centroids[labels]
    return float(np.einsum("ij,ij->", diff, diff))


def _distances(
    xt: np.ndarray, x_norms: np.ndarray, centers: np.ndarray, dots: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """Squared distances (a, k, n) from each start's centers (a, k, d) to every point.

    Start r's block equals _squared_distances(x, x_norms, centers[r]).T bit for
    bit when xt is the view x.T: matmul then runs one (k, d) @ (d, n) gemm per
    start with the dot products of x @ centers[r].T. A contiguous copy of x.T
    takes another gemm path, whose sums round differently. `dots` and `out`
    are (a, k, n) buffers.
    """
    a, k, d = centers.shape
    np.matmul(centers, xt, out=dots)
    dots *= 2.0
    np.add(_row_norms(centers.reshape(a * k, d)).reshape(a, k, 1), x_norms, out=out)
    out -= dots
    np.maximum(out, 0.0, out=out)
    return out


def _nearest(d2: np.ndarray) -> np.ndarray:
    """Each point's nearest center (a, n) under distances d2 (a, k, n).

    k - 1 strict comparisons keep argmin's choice, the first of any ties.
    """
    best = d2[:, 0].copy()
    labels = np.zeros(best.shape, dtype=np.intp)
    for j in range(1, d2.shape[1]):
        closer = d2[:, j] < best
        labels[closer] = j
        np.minimum(best, d2[:, j], out=best)
    return labels


def _member_sums(
    columns: np.ndarray, labels: np.ndarray, k: int, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Member counts (a, k) and coordinate sums (a, k, d) of each start's clusters.

    `columns` is x.T made contiguous and `weights` an (a, n) buffer. np.bincount
    adds a cluster's members row by row, in order, as x[members].mean(axis=0)
    does, so the means agree bit for bit. One column is the exception: there
    numpy sums pairwise, so each cluster is summed on its own.
    """
    a, n = labels.shape
    d = columns.shape[0]
    bins = (labels + np.arange(0, a * k, k)[:, None]).ravel()
    counts = np.bincount(bins, minlength=a * k).reshape(a, k)
    sums = np.empty((a, k, d))
    if d == 1:
        for r, j in np.ndindex(a, k):
            sums[r, j] = columns[0, labels[r] == j].sum()
        return counts, sums
    for c in range(d):
        if a == 1:
            tiled = columns[c]
        else:  # one weight per entry of bins: the column once per start
            tiled = weights[:a]
            tiled[...] = columns[c]
        sums[:, :, c] = np.bincount(bins, tiled.ravel(), a * k).reshape(a, k)
    return counts, sums


def _lloyd(x: np.ndarray, x_norms: np.ndarray, starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd's algorithm from each start of the stack `starts` (r, k, d), left unwritten.

    Returns centroids (r, k, d) and labels (r, n); each start ends where a loop
    over it alone would. Starts iterate together, a stack of them per numpy
    call, so an iteration costs about as many calls for eight starts as for
    one; a start whose shift falls below KMEANS_TOL is frozen and leaves its
    stack. A stack holds _BLOCK_CELLS // (k * n) starts (at least one), which
    keeps its (a, k, n) distance blocks near _BLOCK_CELLS cells: at n = 2400
    and k = 4 all eight seedings iterate together, while at large n memory
    stays that of one start. An empty cluster is reseeded to the point
    farthest from its centroid, unless that point already holds one of the
    start's centroids: there it would empty again at once, so the centroid
    stays put.
    """
    total, k, _ = starts.shape
    n = x.shape[0]
    size = min(total, max(1, _BLOCK_CELLS // (k * n)))
    xt = x.T  # a view, for bit-exact distances (see _distances)
    columns = np.ascontiguousarray(xt)
    dots, d2, weights = np.empty((size, k, n)), np.empty((size, k, n)), np.empty((size, n))
    centroids = starts.copy()
    labels = np.empty((total, n), dtype=np.intp)
    for first in range(0, total, size):
        stack = np.arange(first, min(first + size, total))
        live = stack  # the stack's starts still iterating
        for _ in range(KMEANS_MAX_ITER):
            m = live.size
            old = centroids[live]
            nearest = _nearest(_distances(xt, x_norms, old, dots[:m], d2[:m]))
            counts, sums = _member_sums(columns, nearest, k, weights)
            new = np.divide(sums, counts[:, :, None], out=old.copy(), where=counts[:, :, None] > 0)
            for r, j in zip(*np.nonzero(counts == 0)):
                far = x[np.argmax(_squared_distances(x, x_norms, old[r, j : j + 1]).ravel())]
                if not (new[r] == far).all(axis=1).any():
                    new[r, j] = far
            shift = np.sqrt(((new - old) ** 2).sum(axis=2)).max(axis=1)
            centroids[live] = new
            live = live[shift >= KMEANS_TOL]
            if not live.size:
                break
        m = stack.size
        labels[stack] = _nearest(_distances(xt, x_norms, centroids[stack], dots[:m], d2[:m]))
    return centroids, labels


def kmeans(x, k: int, seed=0, init=None) -> tuple[np.ndarray, np.ndarray]:
    """Centroids and labels of Lloyd's algorithm, deterministic per seed.

    `init` (k, d) is the start; the pipeline uses it to carry centroids
    between outer iterations. Without it, Lloyd runs from KMEANS_RESTARTS
    k-means++ seedings, seeding r drawn from default_rng((*seed, r)), all
    handed to _lloyd as one stack, and the lowest-inertia run wins, the
    first of any ties. ||x||^2 is computed once per call.
    """
    x = as_matrix(x, "points")
    n, d = x.shape
    check_count("k", k)
    if n < k:
        raise ValueError(f"cannot form {k} clusters from {n} points")
    x_norms = _row_norms(x)
    if init is not None:
        init = as_matrix(init, "init centroids")
        if init.shape != (k, d):
            raise ValueError(f"init centroids have shape {init.shape}, expected {(k, d)}")
        centroids, labels = _lloyd(x, x_norms, init[None])
        return centroids[0], labels[0]
    base = (seed,) if np.isscalar(seed) else tuple(seed)
    seedings = [np.random.default_rng((*base, r)) for r in range(KMEANS_RESTARTS)]
    starts = np.stack([_kmeans_plus_plus(x, x_norms, k, rng) for rng in seedings])
    runs = zip(*_lloyd(x, x_norms, starts))
    return min(runs, key=lambda run: inertia(x, *run))  # the first of any tied runs


def _row_sums(a: np.ndarray) -> np.ndarray:
    """a.sum(axis=1, keepdims=True) of a C-contiguous (n, k) array, bit for bit.

    Below 8 columns numpy adds a row's cells left to right, and so do these
    k - 1 column adds, in about a quarter of the time of numpy's reduction,
    which steps its iterator once per row. From 8 columns on numpy sums
    pairwise, so the call is numpy's own.
    """
    k = a.shape[1]
    if k < 2 or k >= 8:
        return a.sum(axis=1, keepdims=True)
    out = a[:, :1] + a[:, 1:2]
    for j in range(2, k):
        out += a[:, j : j + 1]
    return out


def _student_t(r: np.ndarray, centroids: np.ndarray) -> tuple[np.ndarray, ...]:
    """The Student-t kernel s = (1+d^2)^-1, its row sums and q = s / row sums."""
    s = 1.0 / (1.0 + _squared_distances(r, _row_norms(r), centroids))
    row_sum = _row_sums(s)
    return s, row_sum, s / row_sum


def soft_assign(r, centroids) -> np.ndarray:
    """Student-t responsibilities q_ik = (1+d_ik^2)^-1, row-normalized."""
    r = as_matrix(r, "points")
    centroids = as_matrix(centroids, "centroids")
    if r.shape[1] != centroids.shape[1]:
        raise ValueError(
            f"point dimension {r.shape[1]} does not match centroid dimension "
            f"{centroids.shape[1]}"
        )
    return _student_t(r, centroids)[2]


def soft_assign_input_grad(
    r: np.ndarray, centroids: np.ndarray, kernel: tuple, upstream: np.ndarray
) -> np.ndarray:
    """d(loss)/d(points) given upstream = d(loss)/d(soft labels).

    `kernel` is _student_t(r, centroids), as the caller already holds it.
    Centroids are treated as constants; only the point coordinates receive
    gradient, matching a training round with frozen centroids.
    """
    s, row_sum, q = kernel
    # dL/ds_il = (g_il - sum_k g_ik q_ik) / S_i, then through s = 1/(1+d^2).
    g_dot_q = _row_sums(upstream * q)
    d_s = (upstream - g_dot_q) / row_sum
    d_sqdist = -np.square(s) * d_s
    return 2.0 * (_row_sums(d_sqdist) * r - d_sqdist @ centroids)


def target_distribution(q) -> np.ndarray:
    """Sharpen soft labels: p_ik proportional to q_ik^2 / column frequency."""
    q = as_matrix(q, "soft labels")
    if (q < 0).any():
        raise ValueError("soft labels must be nonnegative")
    if not np.allclose(q.sum(axis=1), 1.0, atol=1e-6):
        raise ValueError("soft label rows must sum to 1")
    freq = q.sum(axis=0)
    weighted = np.zeros_like(q)
    populated = freq > 0
    weighted[:, populated] = np.square(q[:, populated]) / freq[populated]
    return weighted / weighted.sum(axis=1, keepdims=True)

