"""K-means plus the heavy-tailed soft assignment used for self-training.

Soft labels are Student-t (one degree of freedom) kernel responsibilities
against a centroid set; the training target sharpens them by squaring and
renormalizing per cluster frequency.
"""

from __future__ import annotations

import numpy as np

from .numcore import as_matrix

KMEANS_MAX_ITER = 300
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


def kmeans(
    x,
    k: int,
    seed=0,
    init: np.ndarray | None = None,
    n_init: int = 1,
    max_iter: int = KMEANS_MAX_ITER,
    tol: float = KMEANS_TOL,
) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd's algorithm with k-means++ seeding, deterministic per seed.

    `init` (k, d) skips the seeding step; the pipeline uses it to carry
    centroids between outer iterations. With n_init > 1 (and no explicit
    init) the lowest-inertia run over n_init seedings wins. Empty clusters
    are reseeded to the point farthest from the empty centroid.
    """
    x = as_matrix(x, "points")
    n, d = x.shape
    if k < 1:
        raise ValueError("k must be >= 1")
    if n < k:
        raise ValueError(f"cannot form {k} clusters from {n} points")
    if init is None and n_init > 1:
        base = (seed,) if np.isscalar(seed) else tuple(seed)
        runs = [kmeans(x, k, seed=base + (r,), max_iter=max_iter, tol=tol) for r in range(n_init)]
        return min(runs, key=lambda run: inertia(x, *run))  # the first of any tied runs
    rng = np.random.default_rng(seed)
    x_norms = _row_norms(x)
    if init is not None:
        centroids = np.array(init, dtype=np.float64, copy=True)
        if centroids.shape != (k, d):
            raise ValueError(
                f"init centroids have shape {centroids.shape}, expected {(k, d)}"
            )
    else:
        centroids = _kmeans_plus_plus(x, x_norms, k, rng)
    for _ in range(max_iter):
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
        if shift < tol:
            break
    labels = np.argmin(_squared_distances(x, x_norms, centroids), axis=1)
    return centroids, labels


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


def unified_soft_labels(
    fused, k: int, seed=0, init: np.ndarray | None = None, n_init: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """Cluster the fused matrix and soft-assign against the centroids."""
    centroids, _ = kmeans(fused, k, seed=seed, init=init, n_init=n_init)
    return soft_assign(fused, centroids), centroids


def hard_labels(soft: np.ndarray) -> np.ndarray:
    """Row argmax with lowest-index tie breaking."""
    return np.argmax(soft, axis=1)
