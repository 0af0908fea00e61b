"""K-means plus the heavy-tailed soft assignment used for self-training.

K-means owns its seeding policy: a call without a start keeps the best of
KMEANS_RESTARTS k-means++ seedings (Arthur and Vassilvitskii, 2007), each
refined by the one Lloyd loop that also serves warm-started calls.

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


def _lloyd(x: np.ndarray, x_norms: np.ndarray, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd's algorithm from `centroids` (left unwritten) to a shift below KMEANS_TOL.

    Empty clusters are reseeded to the point farthest from the empty centroid.
    """
    k = centroids.shape[0]
    for _ in range(KMEANS_MAX_ITER):
        labels = np.argmin(_squared_distances(x, x_norms, centroids), axis=1)
        new_centroids = centroids.copy()
        for j in range(k):
            members = labels == j
            if members.any():
                new_centroids[j] = x[members].mean(axis=0)
            else:
                far = np.argmax(_squared_distances(x, x_norms, centroids[j : j + 1]).ravel())
                new_centroids[j] = x[far]
        shift = np.sqrt(((new_centroids - centroids) ** 2).sum(axis=1)).max()
        centroids = new_centroids
        if shift < KMEANS_TOL:
            break
    labels = np.argmin(_squared_distances(x, x_norms, centroids), axis=1)
    return centroids, labels


def kmeans(x, k: int, seed=0, init=None) -> tuple[np.ndarray, np.ndarray]:
    """Centroids and labels of Lloyd's algorithm, deterministic per seed.

    `init` (k, d) is the start; the pipeline uses it to carry centroids
    between outer iterations. Without it, Lloyd runs from KMEANS_RESTARTS
    k-means++ seedings, seeding r drawn from default_rng((*seed, r)), and the
    lowest-inertia run wins. ||x||^2 is computed once per call.
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
        return _lloyd(x, x_norms, init)
    base = (seed,) if np.isscalar(seed) else tuple(seed)
    runs = [
        _lloyd(x, x_norms, _kmeans_plus_plus(x, x_norms, k, np.random.default_rng((*base, r))))
        for r in range(KMEANS_RESTARTS)
    ]
    return min(runs, key=lambda run: inertia(x, *run))  # the first of any tied runs


def _student_t(r: np.ndarray, centroids: np.ndarray) -> tuple[np.ndarray, ...]:
    """The Student-t kernel s = (1+d^2)^-1, its row sums and q = s / row sums."""
    s = 1.0 / (1.0 + _squared_distances(r, _row_norms(r), centroids))
    row_sum = s.sum(axis=1, keepdims=True)
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
    g_dot_q = (upstream * q).sum(axis=1, keepdims=True)
    d_s = (upstream - g_dot_q) / row_sum
    d_sqdist = -np.square(s) * d_s
    return 2.0 * (d_sqdist.sum(axis=1, keepdims=True) * r - d_sqdist @ centroids)


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

