"""Per-view weight maintenance: initialization, block scaling, update rule.

Each view owns one positive scalar applied to its latent block during
fusion. The update rewards agreement with the unified labels (through an
exponential of normalized mutual information) and penalizes redundancy
(through min-max-normalized conditional entropy in the denominator).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .numcore import as_matrix

WEIGHT_MODES = ("nmi", "enmi", "enmi_ce")

# Lower bound of the min-max-normalized entropy range; keeps the
# denominator away from zero while preserving the ordering.
NORM_FLOOR = 0.1

# Added to every weight so blocks never collapse to exactly zero, which
# would break the density estimates downstream.
WEIGHT_FLOOR = 1e-3


@dataclass(frozen=True)
class ViewWeights:
    weights: np.ndarray
    iteration: int = 0

    def __post_init__(self) -> None:
        arr = np.asarray(self.weights, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("weights must be a nonempty 1-D vector")
        if not np.isfinite(arr).all() or (arr <= 0).any():
            raise ValueError("weights must be finite and strictly positive")
        if self.iteration < 0:
            raise ValueError("iteration must be >= 0")
        object.__setattr__(self, "weights", arr)

    @property
    def n_views(self) -> int:
        return self.weights.size


def init_weights(view_dims: Sequence[int]) -> ViewWeights:
    """Unit weight per view: every view starts equally informative."""
    if len(view_dims) == 0:
        raise ValueError("need at least one view dimension")
    if any(d < 1 for d in view_dims):
        raise ValueError("view dimensions must be >= 1")
    return ViewWeights(np.ones(len(view_dims)), iteration=0)


def scale_representations(w: ViewWeights, reps: Sequence[np.ndarray]) -> np.ndarray:
    """Multiply each view block by its weight and concatenate columns."""
    if len(reps) != w.n_views:
        raise ValueError(f"{len(reps)} views but {w.n_views} weights")
    mats = [as_matrix(r, f"view {v}") for v, r in enumerate(reps)]
    rows = {m.shape[0] for m in mats}
    if len(rows) != 1:
        raise ValueError(f"views have differing row counts: {sorted(rows)}")
    return np.hstack([m * w.weights[v] for v, m in enumerate(mats)])


def normalize_entropies(values: np.ndarray) -> np.ndarray:
    """Min-max rescale into [NORM_FLOOR, 1]; all-equal inputs map to 1."""
    values = np.asarray(values, dtype=np.float64)
    lo, hi = values.min(), values.max()
    if hi == lo:
        return np.ones_like(values)
    return NORM_FLOOR + (1.0 - NORM_FLOOR) * (values - lo) / (hi - lo)


def update_weights(
    previous: ViewWeights,
    consistency: np.ndarray,
    cond_entropies: np.ndarray,
    mode: str = "enmi_ce",
) -> ViewWeights:
    """Recompute every view weight from the current round's scores.

    `consistency` holds each view's NMI with the unified labels. Modes:
    "nmi" uses it directly, "enmi" applies exp(score)-1, "enmi_ce"
    additionally divides by the normalized conditional entropy so redundant
    or noisy views shrink further.
    """
    if mode not in WEIGHT_MODES:
        raise ValueError(f"unknown weighting mode {mode!r}, expected one of {WEIGHT_MODES}")
    n_views = previous.n_views
    consistency = np.asarray(consistency, dtype=np.float64)
    if consistency.shape != (n_views,):
        raise ValueError(f"consistency has shape {consistency.shape}, expected ({n_views},)")
    cond = np.asarray(cond_entropies, dtype=np.float64)
    if cond.shape != (n_views,):
        raise ValueError(f"conditional entropies have shape {cond.shape}, expected ({n_views},)")
    if mode == "nmi":
        base = consistency
    else:
        base = np.expm1(consistency)
        if mode == "enmi_ce":
            base = base / normalize_entropies(cond)
    return ViewWeights(base + WEIGHT_FLOOR, iteration=previous.iteration + 1)
