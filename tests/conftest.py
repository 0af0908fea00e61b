"""Shared fixtures: the acceptance gate's benchmark runs, and a slowed
pretraining for the tests of a fit's `seconds`.

The benchmark runs are expensive (seeded pretraining plus outer loops),
so they are computed once per session and shared across criteria.
"""

import time

import pytest

import cemvc.pipeline as pipeline_module
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


@pytest.fixture()
def slow_pretrain(monkeypatch):
    """Make every `pipeline.pretrain` call sleep a fixed time first; returns that time."""
    real_pretrain = pipeline_module.pretrain
    pause = 0.05

    def sleeping_pretrain(*args, **kwargs):
        time.sleep(pause)
        return real_pretrain(*args, **kwargs)

    monkeypatch.setattr(pipeline_module, "pretrain", sleeping_pretrain)
    return pause
