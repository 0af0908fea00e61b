import itertools
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cemvc.clustering as clustering_module
from cemvc.clustering import (
    KMEANS_RESTARTS,
    _kmeans_plus_plus,
    _lloyd,
    _row_norms,
    _row_sums,
    _squared_distances,
    _student_t,
    inertia,
    kmeans,
    soft_assign,
    soft_assign_input_grad,
    target_distribution,
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
    centroids, labels = kmeans(x, 2, seed=0)
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


def test_kmeans_inertia_nonincreasing_over_iterations(monkeypatch):
    rng = np.random.default_rng(7)
    x = rng.standard_normal((60, 3))
    # re-run Lloyd manually from the same seeding and watch inertia
    monkeypatch.setattr(clustering_module, "KMEANS_MAX_ITER", 1)
    start, _ = kmeans(x, 4, seed=9)
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


def test_kmeans_reseeds_an_empty_cluster_to_the_farthest_point(monkeypatch):
    rng = np.random.default_rng(13)
    x = np.vstack([rng.standard_normal((20, 2)) * 0.5 + c for c in ([0, 0], [10, 0], [-10, 0])])
    truth = np.repeat([0, 1, 2], 20)
    # the third centroid is nearest to no point, so its cluster starts empty
    init = np.array([[0.0, 0.0], [10.0, 0.0], [1000.0, 0.0]])
    with monkeypatch.context() as patch:
        patch.setattr(clustering_module, "KMEANS_MAX_ITER", 1)
        first, _ = kmeans(x, 3, init=init)
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
    assert len(point_calls) == 1  # one for all KMEANS_RESTARTS seedings
    kmeans(x, 3, init=np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1e3, 0.0, 0.0]]))
    assert len(point_calls) == 2
    kmeans(x, 3, seed=(0, 4))
    assert len(point_calls) == 3  # one per call, not one per restart


@pytest.mark.parametrize(
    "k, message",
    [
        (2.5, "k must be an integer, got 2.5"),
        (True, "k must be an integer, got True"),
        (0, "k must be >= 1, got 0"),
    ],
)
def test_kmeans_rejects_a_k_that_is_not_a_positive_integer(k, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        kmeans(np.zeros((4, 2)), k)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_kmeans_rejects_a_non_finite_init_at_its_index(bad):
    x, _ = two_clouds(seed=11)
    with pytest.raises(ValueError, match=r"init centroids has a non-finite value at index \(1, 0\)"):
        kmeans(x, 2, init=[[0.0, 0.0], [bad, 30.0]])


def test_kmeans_accepts_a_list_init_and_leaves_an_array_init_unwritten():
    x, truth = two_clouds(seed=11)
    _, labels = kmeans(x, 2, init=[[0.0, 0.0], [30.0, 30.0]])
    assert clustering_accuracy(labels, truth) == 1.0
    init = np.array([[0.0, 0.0], [30.0, 30.0]])
    kmeans(x, 2, init=init)
    assert init.tolist() == [[0.0, 0.0], [30.0, 30.0]]


def best_of_the_seedings(x, k, base, lloyd=None):
    """The lowest-inertia (first of any ties) run over the k-means++ seedings
    drawn from default_rng((*base, r)), r < KMEANS_RESTARTS, each refined by
    lloyd(start) (by default a warm-started kmeans)."""
    lloyd = lloyd or (lambda start: kmeans(x, k, init=start))
    runs = [
        lloyd(_kmeans_plus_plus(x, _row_norms(x), k, np.random.default_rng((*base, r))))
        for r in range(KMEANS_RESTARTS)
    ]
    return min(runs, key=lambda run: inertia(x, *run))


@pytest.mark.parametrize("seed, base", [((5, 3, 0), (5, 3, 0)), (9, (9,))])
def test_kmeans_keeps_the_best_run_over_its_seed_stream(seed, base):
    # the pipeline's outputs rest on seeding r of a fresh k-means coming from (*seed, r)
    x = np.random.default_rng(18).standard_normal((50, 3))
    centroids, labels = kmeans(x, 5, seed=seed)
    expected_centroids, expected_labels = best_of_the_seedings(x, 5, base)
    assert (centroids == expected_centroids).all()
    assert (labels == expected_labels).all()


def test_kmeans_seeds_once_per_restart_and_not_at_all_with_a_start(monkeypatch):
    x = np.random.default_rng(19).standard_normal((30, 2))
    real = clustering_module._kmeans_plus_plus
    calls = []

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(clustering_module, "_kmeans_plus_plus", spy)
    centroids, _ = kmeans(x, 3, seed=0)
    assert len(calls) == KMEANS_RESTARTS
    kmeans(x, 3, init=centroids)
    assert len(calls) == KMEANS_RESTARTS


def per_start_lloyd(x, x_norms, centroids):
    """The reference Lloyd loop: one start, one numpy call per cluster.

    It is the loop kmeans ran before its starts were stacked, with one
    change: an empty cluster's reseed is skipped when the farthest point
    already holds one of the iteration's new centroids. _lloyd must return
    what this returns for every start, under ==. Returns the centroids, the
    labels and the number of iterations run.
    """
    k = centroids.shape[0]
    for iterations in range(1, clustering_module.KMEANS_MAX_ITER + 1):
        labels = np.argmin(_squared_distances(x, x_norms, centroids), axis=1)
        new_centroids = centroids.copy()
        empty = []
        for j in range(k):
            members = labels == j
            if members.any():
                new_centroids[j] = x[members].mean(axis=0)
            else:
                empty.append(j)
        for j in empty:
            far = x[np.argmax(_squared_distances(x, x_norms, centroids[j : j + 1]).ravel())]
            if not (new_centroids == far).all(axis=1).any():
                new_centroids[j] = far
        shift = np.sqrt(((new_centroids - centroids) ** 2).sum(axis=1)).max()
        centroids = new_centroids
        if shift < clustering_module.KMEANS_TOL:
            break
    labels = np.argmin(_squared_distances(x, x_norms, centroids), axis=1)
    return centroids, labels, iterations


def blobs(n, d, k, seed):
    """n points around k overlapping Gaussian centers in d dimensions."""
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((k, d)) * 2.0
    return centers[rng.integers(k, size=n)] + rng.standard_normal((n, d))


def assert_equals_the_reference(x, starts):
    """_lloyd on the stack `starts` returns, start by start, what per_start_lloyd does."""
    x_norms = _row_norms(x)
    centroids, labels = _lloyd(x, x_norms, starts)
    iterations = []
    for r, start in enumerate(starts):
        expected_centroids, expected_labels, count = per_start_lloyd(x, x_norms, start)
        assert (centroids[r] == expected_centroids).all()
        assert (labels[r] == expected_labels).all()
        iterations.append(count)
    return iterations


@pytest.mark.parametrize("max_iter", [1, 2, 300])
@pytest.mark.parametrize("d", [1, 2, 8, 24, 32, 40])
def test_kmeans_equals_the_per_start_reference(monkeypatch, d, max_iter):
    monkeypatch.setattr(clustering_module, "KMEANS_MAX_ITER", max_iter)
    for k in range(1, 7):
        # n = 2400 at the benchmark's k: all eight seedings in one stack
        for n in (k, 3 * k + 5, 200) + ((2400,) if k == 4 and max_iter == 300 else ()):
            x = blobs(n, d, k, seed=(d, k, n))
            seeded = kmeans(x, k, seed=(d, k))
            expected = best_of_the_seedings(
                x, k, (d, k), lambda start: per_start_lloyd(x, _row_norms(x), start)[:2]
            )
            assert (seeded[0] == expected[0]).all()
            assert (seeded[1] == expected[1]).all()
            start = x[np.random.default_rng((d, k, n)).choice(n, k, replace=False)] + 0.25
            warm = kmeans(x, k, init=start)
            expected = per_start_lloyd(x, _row_norms(x), start)
            assert (warm[0] == expected[0]).all()
            assert (warm[1] == expected[1]).all()


@pytest.mark.parametrize("max_iter", [1, 2, 300])
@pytest.mark.parametrize("d", [1, 2, 8, 32])
def test_every_start_of_a_stack_ends_where_it_would_alone(monkeypatch, d, max_iter):
    monkeypatch.setattr(clustering_module, "KMEANS_MAX_ITER", max_iter)
    x = blobs(300, d, 3, seed=d)
    good = x[[0, 1, 2]]
    tie = good.copy()
    tie[1] = tie[0]  # two identical centroids: every point ties, the first wins
    stranded = good.copy()
    stranded[2] = 1e3  # nearest to no point: an empty cluster in this start only
    near = good + 1e-3  # converges at its own iteration
    starts = np.stack([good, tie, stranded, near, good + 5.0])
    iterations = assert_equals_the_reference(x, starts)
    if max_iter == 300:
        assert len(set(iterations)) > 1
    # stacks of two, as at large n, give the same runs
    monkeypatch.setattr(clustering_module, "_BLOCK_CELLS", 2 * 3 * 300)
    assert_equals_the_reference(x, starts)


def test_the_loops_distances_equal_the_per_start_ones_bit_for_bit(monkeypatch):
    # _lloyd must hand _distances x.T as a view: with a contiguous copy of it,
    # matmul takes another gemm path and some distances change in their last bits
    real = clustering_module._distances
    blocks = []

    def checked(xt, x_norms, centers, dots, out):
        got = real(xt, x_norms, centers, dots, out)
        for r in range(centers.shape[0]):
            assert (got[r] == _squared_distances(x, x_norms, centers[r]).T).all()
        blocks.append(got.shape)
        return got

    monkeypatch.setattr(clustering_module, "_distances", checked)
    rng = np.random.default_rng(20)
    for d in range(1, 65):
        k = 1 + d % 6
        x = rng.standard_normal((int(rng.integers(k, 200)), d)) * rng.uniform(0.1, 10.0)
        kmeans(x, k, seed=d)
        kmeans(x, k, init=rng.standard_normal((k, d)))
    assert any(shape[0] == KMEANS_RESTARTS for shape in blocks)


SIX_ROWS = np.array([[0.0, 0.0]] * 3 + [[1.0, 2.0]] * 3)  # two distinct rows
FIVE_ROWS_THRICE = np.repeat(np.arange(5.0)[:, None] * [1.0, -1.0], 3, axis=0)


@pytest.mark.parametrize("x, k", [(SIX_ROWS, 3), (SIX_ROWS, 4), (FIVE_ROWS_THRICE, 6)])
def test_kmeans_with_more_clusters_than_distinct_rows_settles(monkeypatch, x, k):
    # a duplicate centroid empties; reseeding it onto a point that holds a
    # centroid would empty it again and swap back every iteration
    settled = kmeans(x, k, seed=0)
    monkeypatch.setattr(clustering_module, "KMEANS_MAX_ITER", 3)
    early = kmeans(x, k, seed=0)
    assert (early[0] == settled[0]).all()
    assert (early[1] == settled[1]).all()


def test_kmeans_memory_at_large_n_stays_near_one_start():
    # the per-start loop peaked at 3.8 MiB here; stacking may cost at most half again
    x = blobs(20000, 8, 4, seed=21)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        kmeans(x, 4, seed=0)
        transient = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert transient < 1.5 * 3.8 * 2**20


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


# `_row_sums` adds the columns left to right below 8 of them, which is numpy's
# own order there; a numpy release that changes it fails here first.
@pytest.mark.parametrize("k", range(1, 13))
def test_row_sums_equal_numpys_row_sums(k):
    rng = np.random.default_rng((78, k))
    for n in (1, 2, 7, 600, 2400):
        a = rng.standard_normal((n, k)) * 10.0 ** rng.integers(-6, 7, size=(n, k))
        assert np.array_equal(_row_sums(a), a.sum(axis=1, keepdims=True))


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


def unified_soft_labels(fused, k, seed):
    """The pipeline's unified clustering: k-means labels, and soft labels
    against its centroids whose argmax they must equal."""
    centroids, labels = kmeans(fused, k, seed=seed)
    soft = soft_assign(fused, centroids)
    assert np.array_equal(labels, soft.argmax(axis=1))
    return labels, soft, centroids


def test_unified_soft_labels_separated_clusters_perfect():
    rng = np.random.default_rng(16)
    labels = np.arange(90) % 3
    centers = np.array([[0.0, 0.0], [25.0, 0.0], [0.0, 25.0]])
    fused = centers[labels] + rng.standard_normal((90, 2))
    hard, soft, centroids = unified_soft_labels(fused, 3, seed=1)
    assert clustering_accuracy(hard, labels) == 1.0
    assert soft.shape == (90, 3)
    assert centroids.shape == (3, 2)


def test_unified_soft_labels_uniform_weight_scaling_preserves_partition():
    rng = np.random.default_rng(17)
    labels = np.arange(60) % 3
    centers = np.array([[0.0, 0.0], [20.0, 0.0], [0.0, 20.0]])
    fused = centers[labels] + rng.standard_normal((60, 2))
    hard_a, _, _ = unified_soft_labels(fused, 3, seed=5)
    hard_b, _, _ = unified_soft_labels(3.0 * fused, 3, seed=5)
    assert np.array_equal(hard_a, hard_b)


def test_unified_soft_labels_k_equals_n():
    rng = np.random.default_rng(18)
    x = rng.standard_normal((5, 2)) * 10
    hard, _, _ = unified_soft_labels(x, 5, seed=2)
    assert sorted(hard.tolist()) == [0, 1, 2, 3, 4]
