import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cemvc.clustering as clustering_module
from cemvc.clustering import (
    _student_t,
    hard_labels,
    inertia,
    kmeans,
    soft_assign,
    soft_assign_input_grad,
    target_distribution,
    unified_soft_labels,
)
from cemvc.metrics import clustering_accuracy


def two_clouds(n_per=20, gap=30.0, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n_per, 2))
    b = rng.standard_normal((n_per, 2)) + gap
    return np.vstack([a, b]), np.repeat([0, 1], n_per)


def test_kmeans_separated_clouds_recovers_partition():
    x, truth = two_clouds()
    _, labels = kmeans(x, 2, seed=1)
    assert clustering_accuracy(labels, truth) == 1.0


def test_kmeans_k1_centroid_is_column_mean():
    x = np.random.default_rng(2).standard_normal((30, 4))
    centroids, labels = kmeans(x, 1, seed=0)
    assert centroids[0] == pytest.approx(x.mean(axis=0))
    assert (labels == 0).all()


def brute_force_best_inertia(x, k):
    n = x.shape[0]
    best = np.inf
    for assignment in itertools.product(range(k), repeat=n):
        assignment = np.asarray(assignment)
        if len(set(assignment.tolist())) < k:
            continue
        centroids = np.vstack([x[assignment == j].mean(axis=0) for j in range(k)])
        best = min(best, inertia(x, centroids, assignment))
    return best


def test_kmeans_matches_exhaustive_oracle_on_8_points():
    rng = np.random.default_rng(3)
    x = np.vstack([rng.standard_normal((4, 2)), rng.standard_normal((4, 2)) + 8.0])
    centroids, labels = kmeans(x, 2, seed=0, n_init=4)
    assert inertia(x, centroids, labels) == pytest.approx(
        brute_force_best_inertia(x, 2), rel=1e-9
    )


def test_kmeans_deterministic_per_seed():
    x, _ = two_clouds(seed=5)
    c1, l1 = kmeans(x, 2, seed=42)
    c2, l2 = kmeans(x, 2, seed=42)
    assert np.array_equal(c1, c2)
    assert np.array_equal(l1, l2)


def test_kmeans_rejects_more_clusters_than_points():
    with pytest.raises(ValueError, match="clusters"):
        kmeans(np.zeros((3, 2)), 4)


def test_kmeans_inertia_nonincreasing_over_iterations():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((60, 3))
    # re-run Lloyd manually from the same seeding and watch inertia
    start, _ = kmeans(x, 4, seed=9, max_iter=1)
    values = []
    centroids = start
    for _ in range(10):
        labels = np.argmin(
            ((x[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2), axis=1
        )
        values.append(inertia(x, centroids, labels))
        centroids = np.vstack(
            [
                x[labels == j].mean(axis=0) if (labels == j).any() else centroids[j]
                for j in range(4)
            ]
        )
    assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))


def test_kmeans_accepts_warm_start():
    x, truth = two_clouds(seed=11)
    init = np.array([[0.0, 0.0], [30.0, 30.0]])
    _, labels = kmeans(x, 2, seed=0, init=init)
    assert clustering_accuracy(labels, truth) == 1.0


def test_kmeans_reseeds_an_empty_cluster_to_the_farthest_point():
    rng = np.random.default_rng(13)
    x = np.vstack([rng.standard_normal((20, 2)) * 0.5 + c for c in ([0, 0], [10, 0], [-10, 0])])
    truth = np.repeat([0, 1, 2], 20)
    # the third centroid is nearest to no point, so its cluster starts empty
    init = np.array([[0.0, 0.0], [10.0, 0.0], [1000.0, 0.0]])
    first, _ = kmeans(x, 3, init=init, max_iter=1)
    farthest = np.argmax(((x - init[2]) ** 2).sum(axis=1))
    assert np.array_equal(first[2], x[farthest])
    # the other two take their members' means; cloud 2 joins centroid 0
    assert np.array_equal(first[0], x[truth != 1].mean(axis=0))
    assert np.array_equal(first[1], x[truth == 1].mean(axis=0))
    centroids, labels = kmeans(x, 3, init=init)
    assert (np.bincount(labels, minlength=3) > 0).all()
    assert clustering_accuracy(labels, truth) == 1.0
    again = kmeans(x, 3, init=init)
    assert np.array_equal(centroids, again[0])
    assert np.array_equal(labels, again[1])


def test_kmeans_computes_the_point_norms_once_per_seeding(monkeypatch):
    # k-means++ steps, Lloyd iterations and the empty-cluster reseed share one ||x||^2
    x = np.random.default_rng(14).standard_normal((40, 3))
    real = clustering_module._row_norms
    point_calls = []

    def counting(a):
        if a.shape[0] == x.shape[0]:
            point_calls.append(a)
        return real(a)

    monkeypatch.setattr(clustering_module, "_row_norms", counting)
    kmeans(x, 3, seed=0)
    assert len(point_calls) == 1
    kmeans(x, 3, init=np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1e3, 0.0, 0.0]]))
    assert len(point_calls) == 2
    kmeans(x, 3, seed=0, n_init=4)
    assert len(point_calls) == 6  # one per restart


def test_soft_assign_near_centroid_takes_most_mass():
    centroids = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
    q = soft_assign(np.array([[0.0, 0.0]]), centroids)
    assert q[0, 0] >= 0.98


def test_soft_assign_equidistant_is_uniform():
    centroids = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    q = soft_assign(np.array([[0.0, 0.0]]), centroids)
    assert q[0] == pytest.approx(np.full(4, 0.25))


def test_soft_assign_hand_kernel_value():
    # distances 1 and 2: q = (1/2) / (1/2 + 1/5) = 5/7
    centroids = np.array([[1.0], [2.0]])
    q = soft_assign(np.array([[0.0]]), centroids)
    assert q[0, 0] == pytest.approx(5 / 7)
    assert q[0, 0] == pytest.approx(0.7143, abs=5e-5)


def test_soft_assign_rejects_dim_mismatch():
    with pytest.raises(ValueError, match="dimension"):
        soft_assign(np.zeros((3, 2)), np.zeros((2, 5)))


@given(st.integers(min_value=0, max_value=1000))
@settings(max_examples=40, deadline=None)
def test_soft_assign_rows_sum_to_one(seed):
    rng = np.random.default_rng(seed)
    q = soft_assign(rng.standard_normal((12, 3)), rng.standard_normal((4, 3)))
    assert q.sum(axis=1) == pytest.approx(np.ones(12), abs=1e-9)
    assert (q >= 0).all()


def test_soft_assign_rigid_translation_invariance():
    rng = np.random.default_rng(13)
    r = rng.standard_normal((10, 3))
    c = rng.standard_normal((4, 3))
    shift = np.array([5.0, -2.0, 0.5])
    assert soft_assign(r + shift, c + shift) == pytest.approx(soft_assign(r, c), abs=1e-12)


def test_soft_assign_input_grad_matches_finite_differences():
    rng = np.random.default_rng(14)
    r = rng.standard_normal((6, 2))
    c = rng.standard_normal((3, 2))
    t = rng.random((6, 3))
    t /= t.sum(axis=1, keepdims=True)
    q = soft_assign(r, c)
    analytic = soft_assign_input_grad(r, c, _student_t(r, c), 2.0 * (q - t))
    h = 1e-6
    numeric = np.zeros_like(r)
    for i in range(r.shape[0]):
        for j in range(r.shape[1]):
            orig = r[i, j]
            r[i, j] = orig + h
            up = float(((soft_assign(r, c) - t) ** 2).sum())
            r[i, j] = orig - h
            down = float(((soft_assign(r, c) - t) ** 2).sum())
            r[i, j] = orig
            numeric[i, j] = (up - down) / (2 * h)
    assert analytic == pytest.approx(numeric, abs=1e-6)


def test_target_distribution_one_hot_fixed_point():
    q = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    assert np.array_equal(target_distribution(q), q)


def test_target_distribution_uniform_stays_uniform():
    q = np.full((6, 3), 1 / 3)
    assert target_distribution(q) == pytest.approx(q, abs=1e-12)


def test_target_distribution_hand_case():
    q = np.array([[0.8, 0.2], [0.6, 0.4]])
    p = target_distribution(q)
    assert p[0] == pytest.approx([0.8727, 0.1273], abs=5e-5)


def test_target_distribution_rows_sum_to_one():
    rng = np.random.default_rng(15)
    q = soft_assign(rng.standard_normal((40, 3)), rng.standard_normal((5, 3)))
    p = target_distribution(q)
    assert p.sum(axis=1) == pytest.approx(np.ones(40), abs=1e-9)
    assert (p >= 0).all()


def test_target_distribution_empty_cluster_column_zeroed():
    q = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    p = target_distribution(q)
    assert (p[:, 1:] == 0).all()
    assert p[:, 0] == pytest.approx(np.ones(2))


def test_unified_soft_labels_separated_clusters_perfect():
    rng = np.random.default_rng(16)
    labels = np.arange(90) % 3
    centers = np.array([[0.0, 0.0], [25.0, 0.0], [0.0, 25.0]])
    fused = centers[labels] + rng.standard_normal((90, 2))
    soft, centroids = unified_soft_labels(fused, 3, seed=1, n_init=4)
    assert clustering_accuracy(hard_labels(soft), labels) == 1.0
    assert centroids.shape == (3, 2)


def test_unified_soft_labels_uniform_weight_scaling_preserves_partition():
    rng = np.random.default_rng(17)
    labels = np.arange(60) % 3
    centers = np.array([[0.0, 0.0], [20.0, 0.0], [0.0, 20.0]])
    fused = centers[labels] + rng.standard_normal((60, 2))
    soft_a, _ = unified_soft_labels(fused, 3, seed=5)
    soft_b, _ = unified_soft_labels(3.0 * fused, 3, seed=5)
    assert np.array_equal(hard_labels(soft_a), hard_labels(soft_b))


def test_unified_soft_labels_k_equals_n():
    rng = np.random.default_rng(18)
    x = rng.standard_normal((5, 2)) * 10
    soft, _ = unified_soft_labels(x, 5, seed=2)
    assert sorted(hard_labels(soft).tolist()) == [0, 1, 2, 3, 4]
