import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cemvc.clustering import hard_labels
from cemvc.infometrics import nmi
from cemvc.weighting import (
    NORM_FLOOR,
    WEIGHT_FLOOR,
    ViewWeights,
    init_weights,
    normalize_entropies,
    scale_representations,
    update_weights,
)

E_MINUS_ONE = np.e - 1.0


def one_hot(labels, k):
    out = np.zeros((len(labels), k))
    out[np.arange(len(labels)), labels] = 1.0
    return out


def consistency(view_softs, unified_soft):
    """Each view's NMI with the unified labels, as the pipeline scores it."""
    unified = hard_labels(unified_soft)
    return np.array([nmi(hard_labels(sl), unified) for sl in view_softs])


def test_init_weights_all_ones():
    w = init_weights([4, 7])
    assert np.array_equal(w.weights, np.ones(2))
    assert w.iteration == 0
    assert np.array_equal(init_weights([2] * 5).weights, np.ones(5))


def test_init_weights_rejects_empty():
    with pytest.raises(ValueError, match="at least one"):
        init_weights([])


def test_view_weights_reject_nonpositive():
    with pytest.raises(ValueError, match="positive"):
        ViewWeights(np.array([1.0, 0.0]))


def test_scale_with_unit_weights_is_concatenation():
    rng = np.random.default_rng(0)
    reps = [rng.standard_normal((6, 2)), rng.standard_normal((6, 3))]
    fused = scale_representations(init_weights([2, 3]), reps)
    assert np.array_equal(fused, np.hstack(reps))
    assert fused.shape == (6, 5)
    assert np.array_equal(fused[:, 2:5], reps[1])


def test_scale_doubling_one_weight_touches_only_that_block():
    rng = np.random.default_rng(1)
    reps = [rng.standard_normal((5, 2)), rng.standard_normal((5, 2))]
    base = scale_representations(ViewWeights(np.array([1.0, 1.0])), reps)
    bumped = scale_representations(ViewWeights(np.array([1.0, 2.0])), reps)
    assert np.array_equal(bumped[:, 0:2], base[:, 0:2])
    assert np.array_equal(bumped[:, 2:4], 2.0 * base[:, 2:4])


def test_scale_rejects_view_count_mismatch():
    with pytest.raises(ValueError, match="weights"):
        scale_representations(init_weights([2]), [np.zeros((3, 2)), np.zeros((3, 2))])


def test_scale_rejects_row_mismatch():
    with pytest.raises(ValueError, match="row counts"):
        scale_representations(init_weights([2, 2]), [np.zeros((3, 2)), np.zeros((4, 2))])


def test_normalize_entropies_range_and_degenerate_case():
    out = normalize_entropies(np.array([2.0, 5.0, 8.0]))
    assert out[0] == pytest.approx(NORM_FLOOR)
    assert out[2] == pytest.approx(1.0)
    assert np.array_equal(normalize_entropies(np.array([3.0, 3.0])), np.ones(2))


def test_update_identical_labels_gives_e_minus_one_numerator():
    labels = np.arange(20) % 3
    sl = one_hot(labels, 3)
    w = update_weights(
        init_weights([2, 2]),
        consistency([sl, sl.copy()], sl.copy()),
        np.array([1.0, 1.0]),
        mode="enmi_ce",
    )
    # equal entropies degenerate to denominator 1, so weight = (e-1) + floor
    assert w.weights == pytest.approx(np.full(2, E_MINUS_ONE + WEIGHT_FLOOR))
    assert w.iteration == 1


def test_update_independent_labels_numerator_near_zero():
    rng = np.random.default_rng(2)
    unified = one_hot(rng.integers(0, 3, size=6000), 3)
    independent = one_hot(rng.integers(0, 3, size=6000), 3)
    w = update_weights(
        init_weights([2, 2]),
        consistency([unified.copy(), independent], unified),
        np.array([1.0, 1.0]),
    )
    assert w.weights[1] < 0.02
    assert w.weights[1] >= WEIGHT_FLOOR


def test_update_low_entropy_view_gets_larger_weight():
    # equal numerators, conditional entropies 0.5 vs 2.0
    labels = np.arange(30) % 3
    sl = one_hot(labels, 3)
    w = update_weights(
        init_weights([2, 2]),
        consistency([sl, sl.copy()], sl.copy()),
        np.array([0.5, 2.0]),
    )
    assert w.weights[0] > w.weights[1]


def test_update_rejects_consistency_length_mismatch():
    labels = np.arange(12) % 3
    sl = one_hot(labels, 3)
    with pytest.raises(ValueError, match="consistency has shape"):
        update_weights(
            init_weights([2, 2]),
            consistency([sl, sl.copy(), sl.copy()], sl),
            np.array([1.0, 1.0]),
        )


def test_update_invariant_to_cluster_relabeling():
    rng = np.random.default_rng(3)
    labels = rng.integers(0, 3, size=60)
    unified = one_hot(rng.integers(0, 3, size=60), 3)
    sl = one_hot(labels, 3)
    relabeled = one_hot((labels + 1) % 3, 3)
    base = update_weights(
        init_weights([2, 2]), consistency([sl, sl.copy()], unified), np.array([1.0, 2.0])
    )
    permuted = update_weights(
        init_weights([2, 2]), consistency([relabeled, sl.copy()], unified), np.array([1.0, 2.0])
    )
    assert base.weights == pytest.approx(permuted.weights)


def test_update_nmi_mode_uses_raw_consistency():
    labels = np.arange(20) % 3
    sl = one_hot(labels, 3)
    w = update_weights(
        init_weights([2, 2]),
        consistency([sl, sl.copy()], sl.copy()),
        np.array([1.0, 5.0]),
        mode="nmi",
    )
    # raw NMI = 1; conditional entropies are ignored in this mode
    assert w.weights == pytest.approx(np.full(2, 1.0 + WEIGHT_FLOOR))


def test_update_enmi_and_enmi_ce_agree_on_equal_entropies():
    rng = np.random.default_rng(4)
    unified = one_hot(rng.integers(0, 3, size=40), 3)
    sls = [one_hot(rng.integers(0, 3, size=40), 3) for _ in range(2)]
    cond = np.array([2.5, 2.5])
    scores = consistency(sls, unified)
    w_enmi = update_weights(init_weights([2, 2]), scores, cond, mode="enmi")
    w_full = update_weights(init_weights([2, 2]), scores, cond, mode="enmi_ce")
    assert w_enmi.weights == pytest.approx(w_full.weights)


def test_update_rejects_unknown_mode():
    labels = np.arange(9) % 3
    sl = one_hot(labels, 3)
    with pytest.raises(ValueError, match="mode"):
        update_weights(init_weights([2, 2]), consistency([sl, sl], sl), np.zeros(2), mode="magic")


@given(
    st.lists(st.floats(min_value=-50.0, max_value=50.0), min_size=3, max_size=6),
    st.integers(min_value=0, max_value=500),
)
@settings(max_examples=50, deadline=None)
def test_update_weights_always_strictly_positive(entropies, seed):
    rng = np.random.default_rng(seed)
    n_views = len(entropies)
    unified = one_hot(rng.integers(0, 3, size=24), 3)
    sls = [one_hot(rng.integers(0, 3, size=24), 3) for _ in range(n_views)]
    w = update_weights(
        init_weights([2] * n_views), consistency(sls, unified), np.array(entropies)
    )
    assert (w.weights > 0).all()


@given(st.integers(min_value=0, max_value=500))
@settings(max_examples=40, deadline=None)
def test_update_monotone_in_entropy_for_equal_consistency(seed):
    # holding consistency fixed, higher conditional entropy never wins
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 3, size=30)
    sl = one_hot(labels, 3)
    unified = one_hot(rng.integers(0, 3, size=30), 3)
    entropies = np.sort(rng.uniform(-5, 5, size=3))
    w = update_weights(
        init_weights([2] * 3), consistency([sl, sl.copy(), sl.copy()], unified), entropies
    )
    assert w.weights[0] >= w.weights[1] >= w.weights[2]
