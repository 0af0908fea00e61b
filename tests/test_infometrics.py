import tracemalloc
import warnings
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from cemvc import infometrics
from cemvc.infometrics import kde_entropy, mutual_information, nmi, total_conditional_entropy

GAUSSIAN_ENTROPY_1D = 0.5 * np.log(2.0 * np.pi * np.e)  # ~1.4189


def test_kde_entropy_standard_normal():
    x = np.random.default_rng(0).standard_normal((2000, 1))
    assert kde_entropy(x) == pytest.approx(GAUSSIAN_ENTROPY_1D, abs=0.1)


def test_kde_entropy_uniform():
    x = np.random.default_rng(1).random((2000, 1))
    assert kde_entropy(x) == pytest.approx(0.0, abs=0.1)


def test_kde_entropy_translation_invariance():
    x = np.random.default_rng(2).standard_normal((200, 3))
    assert kde_entropy(x + 57.0) == pytest.approx(kde_entropy(x), abs=1e-9)


@given(st.floats(min_value=-8.0, max_value=8.0).filter(lambda c: abs(c) > 1e-3))
@settings(max_examples=25, deadline=None)
def test_kde_entropy_scaling_law(c):
    x = np.random.default_rng(3).standard_normal((80, 2))
    base = kde_entropy(x)
    scaled = kde_entropy(c * x)
    assert scaled == pytest.approx(base + 2 * np.log(abs(c)), abs=1e-9)


def test_kde_entropy_row_permutation_invariance():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((120, 2))
    perm = rng.permutation(120)
    assert kde_entropy(x[perm]) == pytest.approx(kde_entropy(x), abs=1e-10)


def test_kde_entropy_needs_two_samples():
    with pytest.raises(ValueError, match="at least 2"):
        kde_entropy(np.zeros((1, 3)))


def test_kde_entropy_constant_dimension_uses_sigma_floor():
    rng = np.random.default_rng(5)
    x = np.hstack([rng.standard_normal((50, 1)), np.full((50, 1), 2.5)])
    assert np.isfinite(kde_entropy(x))


def dense_kde_entropy(x):
    """The dense n x n leave-one-out estimator, kept as the reference oracle.

    It reads nothing from the program: Silverman's bandwidths (sigma floored
    at 1e-6) and the row log-sum-exp are written out here. The log-sum-exp
    takes one maximal cell per row out of the sum s and returns
    log1p(s) + max, the recipe of `_logsumexp_rows`.
    """
    x = np.asarray(x, dtype=np.float64)
    n, d = x.shape
    h = 1.06 * np.maximum(x.std(axis=0, ddof=1), 1e-6) * n ** (-1.0 / (4.0 + d))
    z = (x - x.mean(axis=0)) / h
    sq_norms = np.einsum("ij,ij->i", z, z)
    sq_dist = sq_norms[:, None] + sq_norms[None, :] - 2.0 * (z @ z.T)
    np.maximum(sq_dist, 0.0, out=sq_dist)
    np.fill_diagonal(sq_dist, np.inf)
    scaled = -0.5 * sq_dist
    rows = np.arange(n)
    first = scaled.argmax(axis=1)
    row_max = scaled[rows, first]
    terms = np.exp(scaled - row_max[:, None])
    terms[rows, first] = 0.0
    log_density = (
        (np.log1p(terms.sum(axis=1)) + row_max)
        - np.log(n - 1)
        - np.log(h).sum()
        - 0.5 * d * np.log(2.0 * np.pi)
    )
    return float(-log_density.mean())


def _normal(n, d, seed):
    return np.random.default_rng(seed).standard_normal((n, d))


EQUALITY_CASES = {
    "n2": lambda: _normal(2, 3, 20),
    "n3": lambda: _normal(3, 1, 21),
    "n600_partial_last_block": lambda: _normal(600, 4, 22),
    "n1000_d1": lambda: _normal(1000, 1, 23),
    "n2401_many_blocks": lambda: _normal(2401, 16, 24),
    "duplicate_rows": lambda: np.vstack([_normal(300, 3, 25)] * 2),
    # every row appears three times, so each row's maximum is tied
    **{
        f"triplicate_rows_{seed}": lambda seed=seed: np.repeat(_normal(100, 2, seed), 3, axis=0)
        for seed in range(6)
    },
    "integer_ties": lambda: np.random.default_rng(26).integers(0, 40, (300, 1)).astype(float),
    "constant_column": lambda: np.hstack([_normal(500, 2, 27), np.full((500, 1), 0.1)]),
    "offset_1e3": lambda: _normal(700, 5, 28) + 1e3,
}


# The sweep adds each row's kernel terms unshifted and in another order than
# the dense estimator, so every value matches it to a tolerance. It was fixed
# before any run, at about 1e4 times the drift measured on 4 views.
JOINT_RTOL = JOINT_ATOL = 1e-12


@pytest.mark.parametrize("case", sorted(EQUALITY_CASES))
def test_kde_entropy_matches_dense_reference(case):
    x = EQUALITY_CASES[case]()
    np.testing.assert_allclose(kde_entropy(x), dense_kde_entropy(x), rtol=JOINT_RTOL, atol=0)


def test_kde_entropy_single_row_blocks_match_dense_reference(monkeypatch):
    x = _normal(37, 3, 29)
    monkeypatch.setattr(infometrics, "_BLOCK_CELLS", 1)
    np.testing.assert_allclose(kde_entropy(x), dense_kde_entropy(x), rtol=JOINT_RTOL, atol=0)


def isolated_rows(n, d, offsets, seed):
    """n N(0, 1) rows, then one row per offset: far enough out that its
    unshifted kernel sums underflow to zero."""
    rng = np.random.default_rng(seed)
    return np.vstack([rng.standard_normal((n, d)), rng.standard_normal((len(offsets), d)) + offsets])


FAR_ROW_CASES = {
    "d1_one_row_at_1e4": lambda: isolated_rows(1000, 1, np.array([[1e4]]), 33),
    "d2_three_rows_1e5_apart": lambda: isolated_rows(500, 2, 1e5 * np.array([[1, 0], [0, 1], [1, 1]]), 34),
}


@pytest.fixture()
def shifted_rows(monkeypatch):
    """Counts the rows that `_view_entropies` sends to the shifted log-sum-exp."""
    seen = []

    def spy(a):
        seen.append(a.shape[0])
        return logsumexp_rows(a)

    logsumexp_rows = infometrics._logsumexp_rows
    monkeypatch.setattr(infometrics, "_logsumexp_rows", spy)
    return seen


@pytest.mark.parametrize("case", sorted(FAR_ROW_CASES))
def test_far_rows_are_redone_shifted_and_match_dense_reference(case, shifted_rows):
    x = FAR_ROW_CASES[case]()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        est = kde_entropy(x)
        expected = dense_kde_entropy(x)
    assert sum(shifted_rows) == np.count_nonzero(np.abs(x).max(axis=1) > 1e3)
    assert np.isfinite(est)
    np.testing.assert_allclose(est, expected, rtol=JOINT_RTOL, atol=0)


# A row whose maximum is tied keeps the tied cells in the sum as exp(0) = 1,
# where scipy divides the sum by the tie count and adds its log. Both are
# exact in real arithmetic, so they differ only in rounding: at most 2 ulps
# of the row's scale over 5000 random matrices, so the bound is 4.
TIED_ULPS = 4


def assert_logsumexp_rows_match_scipy(a):
    """Rows with one maximal cell equal scipy bit for bit; tied rows are
    within TIED_ULPS of max(|row max|, |result|, log(columns))."""
    expected = logsumexp(a, axis=1)
    got = infometrics._logsumexp_rows(a.copy())
    row_max = a.max(axis=1)
    tied = np.count_nonzero(a == row_max[:, None], axis=1) > 1
    assert np.array_equal(got[~tied], expected[~tied])
    scale = np.maximum(np.maximum(np.abs(row_max), np.abs(expected)), np.log(a.shape[1]))
    assert (np.abs(got - expected) <= TIED_ULPS * np.spacing(scale)).all()


def test_logsumexp_rows_matches_scipy_with_tied_maxima():
    a = -5.0 * np.random.default_rng(30).random((50, 40))
    a[:, [3, 7]] = 0.0
    a[::2, 11] = 0.0
    assert_logsumexp_rows_match_scipy(a)


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    rows=st.integers(min_value=1, max_value=30),
    cols=st.integers(min_value=2, max_value=60),
    scale=st.sampled_from([1e-3, 1.0, 50.0]),
    offset=st.sampled_from([0.0, -700.0, 1e3]),
    integer_valued=st.booleans(),
)
@settings(max_examples=100, deadline=None, derandomize=True)
def test_logsumexp_rows_matches_scipy_property(seed, rows, cols, scale, offset, integer_valued):
    rng = np.random.default_rng(seed)
    a = -scale * rng.exponential(size=(rows, cols))
    if integer_valued:
        a = np.round(a)  # ties arise on their own
    # about half the rows get copies of their maximum in 1-3 other cells
    for r in np.flatnonzero(rng.random(rows) < 0.5):
        a[r, rng.choice(cols, size=min(cols, rng.integers(2, 5)), replace=False)] = a[r].max()
    a += offset
    # each row's own sample at -inf, as in the sweep; with 2 or more columns
    # every row maximum stays finite
    a[np.arange(rows), rng.integers(0, cols, size=rows)] = -np.inf
    assert_logsumexp_rows_match_scipy(a)


def assert_matches_dense_reference(views):
    """Marginals and joints match the dense oracle to JOINT_RTOL, and
    total_conditional_entropy is exactly the sum of the sweep's terms."""
    n_views = len(views)
    marginal, joint = infometrics._view_entropies(views)
    expected_marginal = [dense_kde_entropy(x) for x in views]
    assert marginal.shape == (n_views,)
    np.testing.assert_allclose(marginal, expected_marginal, rtol=JOINT_RTOL, atol=0)
    assert joint.shape == (n_views, n_views)
    assert np.array_equal(joint, joint.T)
    assert not np.diag(joint).any()
    # the dense oracle works out the pair's own bandwidths, so this also
    # checks the sweep's joint bandwidths
    for v, u in combinations(range(n_views), 2):
        pair = np.hstack([views[v], views[u]])
        np.testing.assert_allclose(joint[v, u], dense_kde_entropy(pair), rtol=JOINT_RTOL, atol=JOINT_ATOL)
    expected = [sum(joint[v, u] - marginal[u] for u in range(n_views) if u != v) for v in range(n_views)]
    assert np.array_equal(total_conditional_entropy(views), expected)


def test_total_conditional_entropy_equals_dense_reference_on_four_views():
    assert_matches_dense_reference([_normal(300, d, 31 + d) for d in (1, 2, 3, 5)])


VIEW_CASES = {
    "constant_column": lambda: [
        np.hstack([_normal(200, 2, 40), np.full((200, 1), 0.1)]),
        _normal(200, 3, 41),
        np.full((200, 1), -7.0),
    ],
    "duplicate_rows": lambda: [np.vstack([_normal(150, d, 42 + d)] * 2) for d in (2, 3, 4)],
    "unequal_d": lambda: [_normal(250, 1, 45), _normal(250, 16, 46)],
    "n1201_many_blocks": lambda: [_normal(1201, 8, 47 + v) for v in range(4)],
    # only the first view's far row takes the shifted path, in its marginal
    # and in both of its joints
    "far_row_in_one_view": lambda: [FAR_ROW_CASES["d1_one_row_at_1e4"](), _normal(1001, 2, 48)],
}


@pytest.mark.parametrize("case", sorted(VIEW_CASES))
def test_view_entropies_match_dense_reference(case):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert_matches_dense_reference(VIEW_CASES[case]())


def test_view_entropies_agree_across_block_sizes(monkeypatch):
    # With 4 views a block takes (4 + 2) * n cells per row, so these give
    # blocks of 1 row, 3 rows, the default's 286 rows and all 301 rows.
    n = 301
    views = [_normal(n, d, 70 + d) for d in (1, 2, 3, 5)]
    results = []
    for block_cells in (1, 3 * 6 * n, infometrics._BLOCK_CELLS, 6 * n * n):
        monkeypatch.setattr(infometrics, "_BLOCK_CELLS", block_cells)
        results.append(infometrics._view_entropies(views))
    for marginal, joint in results:
        assert np.array_equal(joint, joint.T)
        np.testing.assert_allclose(marginal, results[0][0], rtol=JOINT_RTOL, atol=0)
        np.testing.assert_allclose(joint, results[0][1], rtol=JOINT_RTOL, atol=0)


SWEEP_N = 37


@pytest.mark.parametrize("block_cells", [1, 3 * SWEEP_N, 15 * SWEEP_N, 60 * SWEEP_N])
def test_kde_entropy_multi_block_inputs_match_dense_reference_to_joint_rtol(monkeypatch, block_cells):
    # These block sizes give blocks of 1 to n rows.
    monkeypatch.setattr(infometrics, "_BLOCK_CELLS", block_cells)
    for d in range(1, 17):
        for seed in range(6):
            x = _normal(SWEEP_N, d, seed)
            np.testing.assert_allclose(kde_entropy(x), dense_kde_entropy(x), rtol=JOINT_RTOL, atol=0)


def test_view_entropies_single_row_blocks_match_dense_reference(monkeypatch):
    monkeypatch.setattr(infometrics, "_BLOCK_CELLS", 1)
    assert_matches_dense_reference([_normal(37, d, 50 + d) for d in (1, 3, 2)])


@given(
    dims=st.lists(st.integers(min_value=1, max_value=4), min_size=2, max_size=4),
    n=st.integers(min_value=2, max_value=40),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    duplicate_rows=st.booleans(),
    constant_column=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_view_entropies_match_dense_reference_property(dims, n, seed, duplicate_rows, constant_column):
    rng = np.random.default_rng(seed)
    views = [rng.standard_normal((n, d)) for d in dims]
    if duplicate_rows:
        # every sample appears at least twice, in every view
        rows = np.arange(n) % max(1, n // 2)
        views = [x[rows] for x in views]
    if constant_column:
        views[-1][:, 0] = 2.5
    assert_matches_dense_reference(views)


def test_kde_entropy_memory_stays_bounded_at_large_n():
    x = _normal(20_000, 8, 32)  # the dense estimator would need about 17 GB
    tracemalloc.start()
    try:
        est = kde_entropy(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.isfinite(est)
    assert peak < 16 * 2**20


def test_total_conditional_entropy_memory_stays_bounded():
    views = [_normal(8000, 8, 60 + v) for v in range(4)]  # one dense joint block would take 512 MB
    tracemalloc.start()
    try:
        out = total_conditional_entropy(views)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.isfinite(out).all()
    assert peak < 16 * 2**20


def joint_entropy(a, b) -> float:
    """KDE entropy of the column-concatenation [a, b], from the scoring sweep."""
    return infometrics._view_entropies([a, b])[1][0, 1]


def test_joint_entropy_independent_normals_adds_up():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((2000, 1))
    b = rng.standard_normal((2000, 1))
    assert joint_entropy(a, b) == pytest.approx(2 * GAUSSIAN_ENTROPY_1D, abs=0.2)


def test_joint_entropy_duplicate_is_below_independent_sum():
    a = np.random.default_rng(7).standard_normal((400, 2))
    joint = joint_entropy(a, a)
    assert joint < kde_entropy(a) * 2


def test_joint_entropy_symmetric():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((150, 2))
    b = rng.standard_normal((150, 3))
    assert joint_entropy(a, b) == pytest.approx(joint_entropy(b, a), abs=1e-9)


def test_total_conditional_entropy_two_views_single_term():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((100, 2))
    b = rng.standard_normal((100, 2))
    out = total_conditional_entropy([a, b])
    expected_a = joint_entropy(a, b) - kde_entropy(b)
    assert out[0] == pytest.approx(expected_a, abs=1e-12)
    assert out.shape == (2,)


def standardized(x):
    return (x - x.mean(axis=0)) / x.std(axis=0)


def test_total_conditional_entropy_noise_view_is_highest():
    # two views share cluster structure, third is unrelated noise; views
    # are standardized so the ordering reflects structure, not raw scale
    hits = 0
    for seed in range(20):
        rng = np.random.default_rng((100, seed))
        labels = np.arange(90) % 3
        centers_a = 6.0 * rng.standard_normal((3, 2))
        centers_b = 6.0 * rng.standard_normal((3, 2))
        a = centers_a[labels] + rng.standard_normal((90, 2))
        b = centers_b[labels] + rng.standard_normal((90, 2))
        noise = rng.uniform(-3, 3, size=(90, 2))
        out = total_conditional_entropy([standardized(m) for m in (a, b, noise)])
        hits += int(np.argmax(out) == 2)
    assert hits >= 19


def test_total_conditional_entropy_duplicated_view_is_smallest():
    rng = np.random.default_rng(11)
    labels = np.arange(90) % 3
    centers = 6.0 * rng.standard_normal((3, 2))
    v = standardized(centers[labels] + rng.standard_normal((90, 2)))
    other = rng.standard_normal((90, 2))
    out = total_conditional_entropy([v, v.copy(), other])
    assert np.argmin(out) in (0, 1)


def test_total_conditional_entropy_invariant_to_other_view_order():
    rng = np.random.default_rng(12)
    mats = [rng.standard_normal((60, 2)) for _ in range(3)]
    out = total_conditional_entropy(mats)
    swapped = total_conditional_entropy([mats[0], mats[2], mats[1]])
    assert out[0] == pytest.approx(swapped[0], abs=1e-9)


@pytest.mark.parametrize("c", [0.5, 3.0, 1e-3])
def test_total_conditional_entropy_scale_shift_is_exact(c):
    # Silverman bandwidths scale with sigma (here far above SIGMA_FLOOR), so
    # scaling view v by c shifts H(v) and every H(v, u) by d_v log c. View
    # v's score sums V-1 such joints over unmoved marginals; in another
    # view's score the shifts of H(w, v) and H(v) cancel.
    rng = np.random.default_rng(21)
    views = [rng.standard_normal((300, d)) for d in (8, 3, 5)]
    base = total_conditional_entropy(views)
    scaled = total_conditional_entropy([views[0], c * views[1], views[2]])
    expected = base.copy()
    expected[1] += (3 - 1) * 3 * np.log(c)
    np.testing.assert_allclose(scaled, expected, rtol=0, atol=1e-9)


def test_total_conditional_entropy_needs_two_views():
    with pytest.raises(ValueError, match="at least 2"):
        total_conditional_entropy([np.zeros((10, 2))])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: total_conditional_entropy([np.zeros((1, 2)), np.zeros((1, 3))]), "at least 2 samples"),
        (lambda: total_conditional_entropy([np.zeros((4, 1)), np.zeros((5, 1))]), "differing row counts"),
        (lambda: kde_entropy(np.zeros((1, 3))), "at least 2 samples"),
    ],
    ids=["total_n1", "total_row_mismatch", "kde_n1"],
)
def test_input_checks_run_before_any_bandwidth(call, message):
    # a bandwidth at n=1 is nan with a RuntimeWarning, which this turns into an error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            call()


# I(x; x) = H(x), the Shannon entropy of the label marginal, so the label
# entropy is checked through mutual_information of a labeling with itself.
def label_entropy(labels) -> float:
    return mutual_information(labels, labels)


def test_label_entropy_uniform_is_log_k():
    labels = np.repeat(np.arange(5), 20)
    assert label_entropy(labels) == pytest.approx(np.log(5), rel=1e-12)


def test_label_entropy_single_class_is_zero():
    assert label_entropy(np.zeros(10, dtype=int)) == 0.0


def test_label_entropy_hand_case():
    # -(2/3) ln(2/3) - (1/3) ln(1/3)
    expected = -(2 / 3) * np.log(2 / 3) - (1 / 3) * np.log(1 / 3)
    assert label_entropy([0, 0, 1]) == pytest.approx(expected, rel=1e-12)
    assert label_entropy([0, 0, 1]) == pytest.approx(0.6365, abs=5e-5)


def test_mutual_information_self_equals_entropy():
    # class shares 1/4, 1/2, 1/4
    labels = [0, 1, 2, 0, 1, 2, 1, 1]
    assert label_entropy(labels) == pytest.approx(1.5 * np.log(2), rel=1e-12, abs=0)


def test_mutual_information_rejects_empty():
    with pytest.raises(ValueError, match="empty"):
        mutual_information([], [])


def test_mutual_information_independent_labels_near_zero():
    rng = np.random.default_rng(13)
    a = rng.integers(0, 4, size=10_000)
    b = rng.integers(0, 4, size=10_000)
    assert mutual_information(a, b) <= 0.05


def test_mutual_information_hand_contingency():
    # contingency [[2, 0], [0, 2]] over 4 samples
    a = np.array([0, 0, 1, 1])
    b = np.array([0, 0, 1, 1])
    assert mutual_information(a, b) == pytest.approx(np.log(2), rel=1e-12)


def test_mutual_information_rejects_length_mismatch():
    with pytest.raises(ValueError, match="lengths"):
        mutual_information([0, 1], [0, 1, 0])


def test_nmi_identical_labelings():
    assert nmi([0, 1, 0, 2], [0, 1, 0, 2]) == 1.0


def test_nmi_constant_labeling_is_zero():
    assert nmi([0, 0, 0, 0], [0, 1, 0, 1]) == 0.0
    assert nmi([0, 0], [0, 0]) == 0.0


def test_nmi_hand_contingency_is_one():
    assert nmi([0, 0, 1, 1], [1, 1, 0, 0]) == 1.0


label_lists = st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=60)


@given(label_lists, label_lists)
@settings(max_examples=60, deadline=None)
def test_nmi_bounded_and_symmetric(a, b):
    n = min(len(a), len(b))
    a, b = a[:n], b[:n]
    value = nmi(a, b)
    assert 0.0 <= value <= 1.0
    assert value == pytest.approx(nmi(b, a), abs=1e-12)
    assert mutual_information(a, b) >= -1e-12
