"""Shared fixtures for the acceptance gate.

The benchmark runs are expensive (seeded pretraining plus outer loops),
so they are computed once per session and shared across criteria.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from cemvc.bench import PRESETS, preset_dataset, run_variant
from cemvc.clustering import hard_labels, kmeans, unified_soft_labels
from cemvc.infometrics import nmi, total_conditional_entropy
from cemvc.model import encode, pretrain
from cemvc.weighting import scale_representations, update_weights

PRESET = PRESETS["noisy3view"]
N_SEEDS = 20


@pytest.fixture(scope="session")
def bench_runs():
    """All seeded benchmark runs the acceptance criteria share.

    Keys: cemvc_clean, cemvc_noisy, shared_clean, shared_noisy, nmi_noisy,
    enmi_noisy, enmi_ce_noisy (cemvc_noisy aliases enmi_ce_noisy since
    enmi_ce is the default weighting mode), plus clean_runtime in seconds.
    """
    def cell(method, noisy):
        return [run_variant(PRESET, method, noisy, s) for s in range(N_SEEDS)]

    runs = {}
    start = time.time()
    runs["cemvc_clean"] = cell("enmi_ce", False)
    runs["clean_runtime"] = time.time() - start
    for mode in ("nmi", "enmi", "enmi_ce"):
        runs[f"{mode}_noisy"] = cell(mode, True)
    runs["cemvc_noisy"] = runs["enmi_ce_noisy"]
    runs["shared_clean"] = cell("shared", False)
    runs["shared_noisy"] = cell("shared", True)
    return runs


@pytest.fixture(scope="session")
def first_round_stats():
    """Conditional entropies and weights exactly at the first update.

    Reproduces the first outer iteration in isolation: pretrain, encode,
    fuse under unit weights, cluster, score, update once.
    """
    start = time.time()
    stats = []
    cfg = PRESET.pipeline
    k = cfg.n_clusters
    for s in range(N_SEEDS):
        data = preset_dataset(PRESET, s, noisy=True)
        train_cfg = replace(cfg.train, seed=s)
        views = [
            (v - v.mean(axis=0)) / v.std(axis=0).clip(1e-8) for v in data.views
        ]
        models = [
            pretrain(views[v], cfg.hidden_dims, cfg.latent_dim, train_cfg, view_index=v)
            for v in range(data.n_views)
        ]
        reps = [encode(m, x) for m, x in zip(models, views)]
        fused = scale_representations(np.ones(data.n_views), reps)
        unified_soft, _ = unified_soft_labels(
            fused, k, seed=(s, 3, 0), n_init=cfg.kmeans_restarts
        )
        labels = hard_labels(unified_soft)
        cond = total_conditional_entropy(reps)
        nmis = np.empty(data.n_views)
        for v in range(data.n_views):
            _, view_labels = kmeans(
                reps[v], k, seed=(s, 4, 0, v), n_init=cfg.kmeans_restarts
            )
            nmis[v] = nmi(view_labels, labels)
        stats.append({"cond_entropies": cond, "weights": update_weights(nmis, cond)})
    return time.time() - start, stats
