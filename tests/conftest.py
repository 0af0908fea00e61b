"""Shared fixtures for the acceptance gate.

The benchmark runs are expensive (seeded pretraining plus outer loops),
so they are computed once per session and shared across criteria.
"""

import time

import pytest

from cemvc.bench import PRESETS, run_variant

PRESET = PRESETS["noisy3view"]
N_SEEDS = 20


@pytest.fixture(scope="session")
def bench_runs():
    """All seeded benchmark runs the acceptance criteria share.

    Keys: cemvc_clean, cemvc_noisy, shared_clean, shared_noisy, nmi_noisy,
    enmi_noisy, enmi_ce_noisy (cemvc_noisy aliases enmi_ce_noisy since
    enmi_ce is the default weighting mode), plus clean_runtime and
    enmi_ce_noisy_runtime, the seconds those two cells took.
    """
    def cell(method, noisy):
        return [run_variant(PRESET, method, noisy, s) for s in range(N_SEEDS)]

    runs = {}
    start = time.time()
    runs["cemvc_clean"] = cell("enmi_ce", False)
    runs["clean_runtime"] = time.time() - start
    for mode in ("nmi", "enmi"):
        runs[f"{mode}_noisy"] = cell(mode, True)
    start = time.time()
    runs["enmi_ce_noisy"] = cell("enmi_ce", True)
    runs["enmi_ce_noisy_runtime"] = time.time() - start
    runs["cemvc_noisy"] = runs["enmi_ce_noisy"]
    runs["shared_clean"] = cell("shared", False)
    runs["shared_noisy"] = cell("shared", True)
    return runs
