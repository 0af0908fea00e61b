"""Shared fixtures for the acceptance gate.

The benchmark runs are expensive (seeded pretraining plus outer loops),
so they are computed once per session and shared across criteria.
"""

import pytest

from cemvc.bench import PRESETS, grid

N_SEEDS = 20


@pytest.fixture(scope="session")
def bench_runs():
    """`grid`'s fits on noisy3view, the ones `cemvc bench --seeds 20` summarizes, keyed
    by (method, variant), e.g. ("enmi_ce", "noisy"); each cell's `Fit`s in seed order."""
    runs = {}
    for fit in grid(PRESETS["noisy3view"], N_SEEDS):
        runs.setdefault((fit.method, fit.variant), []).append(fit)
    return runs
