"""Shared fixtures for the acceptance gate.

The benchmark runs are expensive (seeded pretraining plus outer loops),
so they are computed once per session and shared across criteria.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from cemvc.bench import PRESETS, preset_dataset
from cemvc.clustering import hard_labels, kmeans, soft_assign, unified_soft_labels
from cemvc.infometrics import nmi, total_conditional_entropy
from cemvc.model import encode, pretrain
from cemvc.pipeline import run_cemvc, run_shared_baseline
from cemvc.weighting import init_weights, scale_representations, update_weights

PRESET = PRESETS["noisy3view"]
N_SEEDS = 20


@pytest.fixture(scope="session")
def bench_runs():
    """All seeded benchmark runs the acceptance criteria share.

    Keys: cemvc_clean, cemvc_noisy, shared_clean, shared_noisy, nmi_noisy,
    enmi_noisy, enmi_ce_noisy (cemvc_noisy aliases enmi_ce_noisy since
    enmi_ce is the default weighting mode), plus clean_runtime in seconds.
    """
    runs = {}
    start = time.time()
    runs["cemvc_clean"] = [
        run_cemvc(preset_dataset(PRESET, s, noisy=False), replace(PRESET.pipeline, seed=s))
        for s in range(N_SEEDS)
    ]
    runs["clean_runtime"] = time.time() - start
    for mode in ("nmi", "enmi", "enmi_ce"):
        runs[f"{mode}_noisy"] = [
            run_cemvc(
                preset_dataset(PRESET, s, noisy=True),
                replace(PRESET.pipeline, seed=s, weighting_mode=mode),
            )
            for s in range(N_SEEDS)
        ]
    runs["cemvc_noisy"] = runs["enmi_ce_noisy"]
    runs["shared_clean"] = [
        run_shared_baseline(
            preset_dataset(PRESET, s, noisy=False), replace(PRESET.pipeline, seed=s)
        )
        for s in range(N_SEEDS)
    ]
    runs["shared_noisy"] = [
        run_shared_baseline(
            preset_dataset(PRESET, s, noisy=True), replace(PRESET.pipeline, seed=s)
        )
        for s in range(N_SEEDS)
    ]
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
        weights = init_weights([cfg.latent_dim] * data.n_views)
        fused = scale_representations(weights, reps)
        unified_soft, _ = unified_soft_labels(
            fused, k, seed=(s, 3, 0), n_init=cfg.kmeans_restarts
        )
        cond = total_conditional_entropy(reps)
        view_soft = []
        for v in range(data.n_views):
            centroids_v, _ = kmeans(
                reps[v], k, seed=(s, 4, 0, v), n_init=cfg.kmeans_restarts
            )
            view_soft.append(soft_assign(reps[v], centroids_v))
        labels = hard_labels(unified_soft)
        nmis = np.array([nmi(hard_labels(sl), labels) for sl in view_soft])
        updated = update_weights(weights, nmis, cond)
        stats.append({"cond_entropies": cond, "weights": updated.weights})
    return time.time() - start, stats
