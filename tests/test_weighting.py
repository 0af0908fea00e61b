import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cemvc.infometrics import nmi
from cemvc.weighting import (
    NORM_FLOOR,
    WEIGHT_FLOOR,
    normalize_entropies,
    update_weights,
)

E_MINUS_ONE = np.e - 1.0


def one_hot(labels, k):
    out = np.zeros((len(labels), k))
    out[np.arange(len(labels)), labels] = 1.0
    return out


def consistency(view_softs, unified_soft):
    """Each view's NMI with the unified labels, as the pipeline scores it."""
    unified = unified_soft.argmax(axis=1)
    return np.array([nmi(sl.argmax(axis=1), unified) for sl in view_softs])


def test_view_weights_reject_nonpositive():
    # a nan conditional entropy makes the min-max normalization, and so
    # every enmi_ce weight, nan; the update refuses to hand that on
    with pytest.raises(ValueError, match="finite and strictly positive"):
        update_weights(np.array([0.5, 0.9]), np.array([1.0, np.nan]), mode="enmi_ce")
    # raw consistency below -WEIGHT_FLOOR would give a negative nmi weight
    with pytest.raises(ValueError, match="finite and strictly positive"):
        update_weights(np.array([0.5, -0.5]), np.ones(2), mode="nmi")


def test_normalize_entropies_range_and_degenerate_case():
    out = normalize_entropies(np.array([2.0, 5.0, 8.0]))
    assert out[0] == pytest.approx(NORM_FLOOR)
    assert out[2] == pytest.approx(1.0)
    assert np.array_equal(normalize_entropies(np.array([3.0, 3.0])), np.ones(2))


def test_update_identical_labels_gives_e_minus_one_numerator():
    labels = np.arange(20) % 3
    sl = one_hot(labels, 3)
    w = update_weights(
        consistency([sl, sl.copy()], sl.copy()),
        np.array([1.0, 1.0]),
        mode="enmi_ce",
    )
    # equal entropies degenerate to denominator 1, so weight = (e-1) + floor
    assert w.dtype == np.float64 and w.shape == (2,)
    assert w == pytest.approx(np.full(2, E_MINUS_ONE + WEIGHT_FLOOR))


def test_update_independent_labels_numerator_near_zero():
    rng = np.random.default_rng(2)
    unified = one_hot(rng.integers(0, 3, size=6000), 3)
    independent = one_hot(rng.integers(0, 3, size=6000), 3)
    w = update_weights(
        consistency([unified.copy(), independent], unified),
        np.array([1.0, 1.0]),
    )
    assert w[1] < 0.02
    assert w[1] >= WEIGHT_FLOOR


def test_update_low_entropy_view_gets_larger_weight():
    # equal numerators, conditional entropies 0.5 vs 2.0
    labels = np.arange(30) % 3
    sl = one_hot(labels, 3)
    w = update_weights(
        consistency([sl, sl.copy()], sl.copy()),
        np.array([0.5, 2.0]),
    )
    assert w[0] > w[1]


def test_update_rejects_consistency_length_mismatch():
    labels = np.arange(12) % 3
    sl = one_hot(labels, 3)
    with pytest.raises(ValueError, match="consistency has shape"):
        update_weights(
            consistency([sl, sl.copy(), sl.copy()], sl),
            np.array([1.0, 1.0]),
        )
    with pytest.raises(ValueError, match="one score per view"):
        update_weights(np.array([]), np.array([]))


def test_update_invariant_to_cluster_relabeling():
    rng = np.random.default_rng(3)
    labels = rng.integers(0, 3, size=60)
    unified = one_hot(rng.integers(0, 3, size=60), 3)
    sl = one_hot(labels, 3)
    relabeled = one_hot((labels + 1) % 3, 3)
    base = update_weights(consistency([sl, sl.copy()], unified), np.array([1.0, 2.0]))
    permuted = update_weights(consistency([relabeled, sl.copy()], unified), np.array([1.0, 2.0]))
    assert base == pytest.approx(permuted)


def test_update_nmi_mode_uses_raw_consistency():
    labels = np.arange(20) % 3
    sl = one_hot(labels, 3)
    w = update_weights(
        consistency([sl, sl.copy()], sl.copy()),
        np.array([1.0, 5.0]),
        mode="nmi",
    )
    # raw NMI = 1; conditional entropies are ignored in this mode
    assert w == pytest.approx(np.full(2, 1.0 + WEIGHT_FLOOR))


def test_update_enmi_and_enmi_ce_agree_on_equal_entropies():
    rng = np.random.default_rng(4)
    unified = one_hot(rng.integers(0, 3, size=40), 3)
    sls = [one_hot(rng.integers(0, 3, size=40), 3) for _ in range(2)]
    cond = np.array([2.5, 2.5])
    scores = consistency(sls, unified)
    w_enmi = update_weights(scores, cond, mode="enmi")
    w_full = update_weights(scores, cond, mode="enmi_ce")
    assert w_enmi == pytest.approx(w_full)


def test_update_rejects_unknown_mode():
    labels = np.arange(9) % 3
    sl = one_hot(labels, 3)
    with pytest.raises(ValueError, match="mode"):
        update_weights(consistency([sl, sl], sl), np.zeros(2), mode="magic")


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
    w = update_weights(consistency(sls, unified), np.array(entropies))
    assert (w > 0).all()


@given(st.integers(min_value=0, max_value=500))
@settings(max_examples=40, deadline=None)
def test_update_monotone_in_entropy_for_equal_consistency(seed):
    # holding consistency fixed, higher conditional entropy never wins
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 3, size=30)
    sl = one_hot(labels, 3)
    unified = one_hot(rng.integers(0, 3, size=30), 3)
    entropies = np.sort(rng.uniform(-5, 5, size=3))
    w = update_weights(consistency([sl, sl.copy(), sl.copy()], unified), entropies)
    assert w[0] >= w[1] >= w[2]
