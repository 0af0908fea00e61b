"""The per-view weight update rule.

Each view owns one positive weight; the pipeline scales the view's latent
block by it during fusion. The update rewards agreement with the unified
labels (through an exponential of normalized mutual information) and
penalizes redundancy (through min-max-normalized conditional entropy in
the denominator).
"""

from __future__ import annotations

import numpy as np

WEIGHT_MODES = ("nmi", "enmi", "enmi_ce")

# Lower bound of the min-max-normalized entropy range; keeps the
# denominator away from zero while preserving the ordering.
NORM_FLOOR = 0.1

# Added to every weight so blocks never collapse to exactly zero, which
# would break the density estimates downstream.
WEIGHT_FLOOR = 1e-3


def normalize_entropies(values: np.ndarray) -> np.ndarray:
    """Min-max rescale into [NORM_FLOOR, 1]; all-equal inputs map to 1."""
    values = np.asarray(values, dtype=np.float64)
    lo, hi = values.min(), values.max()
    if hi == lo:
        return np.ones_like(values)
    return NORM_FLOOR + (1.0 - NORM_FLOOR) * (values - lo) / (hi - lo)


def update_weights(
    consistency: np.ndarray,
    cond_entropies: np.ndarray,
    mode: str = "enmi_ce",
) -> np.ndarray:
    """Recompute every view weight from the current round's scores.

    `consistency` holds each view's NMI with the unified labels. Modes:
    "nmi" uses it directly, "enmi" applies exp(score)-1, "enmi_ce"
    additionally divides by the normalized conditional entropy so redundant
    or noisy views shrink further. Returns one finite, strictly positive
    weight per view.
    """
    if mode not in WEIGHT_MODES:
        raise ValueError(f"unknown weighting mode {mode!r}, expected one of {WEIGHT_MODES}")
    consistency = np.asarray(consistency, dtype=np.float64)
    cond = np.asarray(cond_entropies, dtype=np.float64)
    if consistency.ndim != 1 or consistency.size == 0:
        raise ValueError(f"consistency has shape {consistency.shape}, expected one score per view")
    if cond.shape != consistency.shape:
        raise ValueError(
            f"consistency has shape {consistency.shape} but conditional entropies "
            f"have shape {cond.shape}"
        )
    if mode == "nmi":
        base = consistency
    else:
        base = np.expm1(consistency)
        if mode == "enmi_ce":
            base = base / normalize_entropies(cond)
    weights = base + WEIGHT_FLOOR
    if not np.isfinite(weights).all() or (weights <= 0).any():
        raise ValueError(f"weights must be finite and strictly positive, got {weights}")
    return weights
