"""Outer training loops: the decoupled weighted run, the shared-parameter
baseline, and the weighting-mode ablation.

One outer iteration of the decoupled run: encode every view, fuse the
latent blocks under the current weights, cluster the fused matrix into
unified soft labels, score each view (conditional entropy + agreement with
the unified labels), refresh the weights, sharpen the unified labels into
a target, and finetune each view's autoencoder against that target.
Weights produced at iteration t scale the fusion at iteration t+1. The
shared baseline runs the same loop over one net with no scoring step.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .clustering import hard_labels, kmeans, target_distribution, unified_soft_labels
from .data import MultiViewDataset
from .infometrics import nmi, total_conditional_entropy
from .metrics import MetricReport, evaluate
from .model import TrainConfig, check_count, combined_loss, encode, finetune_view, pretrain
from .weighting import WEIGHT_MODES, scale_representations, update_weights


@dataclass
class PipelineConfig:
    n_clusters: int
    latent_dim: int = 8
    hidden_dims: tuple[int, ...] = (32,)
    max_outer_iters: int = 30
    tolerance: float = 1e-3  # fraction of unified labels allowed to change
    weighting_mode: str = "enmi_ce"
    standardize: bool = True
    kmeans_restarts: int = 8  # seedings for each fresh (non-warm-start) k-means
    train: TrainConfig = field(default_factory=TrainConfig)
    seed: int = 0

    def __post_init__(self) -> None:
        check_count("n_clusters", self.n_clusters, minimum=2)
        check_count("latent_dim", self.latent_dim)
        for i, width in enumerate(self.hidden_dims):
            check_count(f"hidden_dims[{i}]", width)
        check_count("max_outer_iters", self.max_outer_iters)
        check_count("kmeans_restarts", self.kmeans_restarts)
        if not 0.0 <= self.tolerance <= 1.0:
            raise ValueError("tolerance must lie in [0, 1]")
        if self.weighting_mode not in WEIGHT_MODES:
            raise ValueError(
                f"unknown weighting mode {self.weighting_mode!r}, "
                f"expected one of {WEIGHT_MODES}"
            )


@dataclass
class RoundTrace:
    iteration: int
    weights: np.ndarray            # weights produced by this round's update
    cond_entropies: np.ndarray     # per-view conditional entropy (nan for baseline)
    nmi_to_unified: np.ndarray     # per-view agreement with unified labels
    losses: np.ndarray             # per-view combined loss after finetuning
    label_change_fraction: float   # vs previous round; 1.0 on the first round


@dataclass
class ClusteringResult:
    labels: np.ndarray             # final unified hard labels
    soft_labels: np.ndarray        # final unified soft labels
    traces: list[RoundTrace]
    metrics: MetricReport | None   # filled when ground truth is available
    embedding: np.ndarray          # fused (or shared-latent) matrix behind the labels
    mode: str


def _standardize_columns(x: np.ndarray) -> np.ndarray:
    mu = x.mean(axis=0)
    sigma = np.maximum(x.std(axis=0), 1e-8)
    return (x - mu) / sigma


def _run(data: MultiViewDataset, cfg: PipelineConfig, shared: bool) -> ClusteringResult:
    """The outer loop of both methods.

    The decoupled run trains one net per view and reweights the views every
    round. The shared baseline is the same loop over one net on the
    concatenated views: its single weight stays 1, so fusion is a copy of
    its latent, and nothing is scored.
    """
    if data.n_views < 2:
        raise ValueError(f"need at least 2 views, got {data.n_views}")
    if data.n_samples < cfg.n_clusters:
        raise ValueError(
            f"cannot form {cfg.n_clusters} clusters from {data.n_samples} samples"
        )
    if cfg.standardize:
        views = [_standardize_columns(v) for v in data.views]
    else:
        views = [np.asarray(v, dtype=np.float64) for v in data.views]
    inputs = [np.hstack(views)] if shared else views
    n_views = data.n_views
    k = cfg.n_clusters
    train_cfg = replace(cfg.train, seed=cfg.seed)

    models = [
        pretrain(x, cfg.hidden_dims, cfg.latent_dim, train_cfg, view_index=v)
        for v, x in enumerate(inputs)
    ]
    weights = np.ones(len(inputs))

    traces: list[RoundTrace] = []
    prev_labels: np.ndarray | None = None
    unified_centroids: np.ndarray | None = None
    prev_fusion: np.ndarray | None = None
    view_centroids: list[np.ndarray | None] = [None] * n_views

    t = 0
    while True:
        reps = [encode(m, x) for m, x in zip(models, inputs)]
        # Fuse under weights rescaled to mean 1. The update rule defines
        # relative view importances; the absolute scale would otherwise leak
        # into the Student-t soft labels (sharper fused spaces self-train
        # harder), coupling the weighting mode to an unrelated temperature
        # effect.
        fusion = weights / weights.mean()
        fused = scale_representations(fusion, reps)
        if unified_centroids is not None:
            # stored centroids live in the previous round's block scaling;
            # map them into the current one so warm-starting keeps label
            # identity instead of planting mis-scaled centroids
            ratios = np.repeat(fusion / prev_fusion, cfg.latent_dim)
            init = unified_centroids * ratios
        else:
            init = None
        prev_fusion = fusion
        unified_soft, unified_centroids_new = unified_soft_labels(
            fused,
            k,
            seed=(cfg.seed, 3, t),
            init=init,
            n_init=cfg.kmeans_restarts,
        )
        labels = hard_labels(unified_soft)
        change = 1.0 if prev_labels is None else float(np.mean(labels != prev_labels))
        converged = prev_labels is not None and change < cfg.tolerance
        if converged or t >= cfg.max_outer_iters:
            metrics = evaluate(labels, data.labels) if data.labels is not None else None
            mode = "shared" if shared else cfg.weighting_mode
            return ClusteringResult(labels, unified_soft, traces, metrics, fused, mode)
        prev_labels = labels
        unified_centroids = unified_centroids_new

        if shared:
            # the fused matrix is the one net's latent, so the net trains
            # against the unified centroids; there is nothing to score
            cond = np.full(n_views, np.nan)
            nmis = np.full(n_views, np.nan)
            centroids = [unified_centroids]
        else:
            # Conditional entropies are scored on the raw (unweighted)
            # latents; the weighted blocks would fold the previous weights
            # back into the score through the scale-equivariant density
            # estimate.
            cond = total_conditional_entropy(reps)
            nmis = np.empty(n_views)
            for v in range(n_views):
                view_centroids[v], view_labels = kmeans(
                    reps[v],
                    k,
                    seed=(cfg.seed, 4, t, v),
                    init=view_centroids[v],
                    n_init=cfg.kmeans_restarts,
                )
                nmis[v] = nmi(view_labels, labels)
            weights = update_weights(nmis, cond, cfg.weighting_mode)
            centroids = view_centroids
        target = target_distribution(unified_soft)

        losses = np.empty(len(models))
        for v, (model, x, c) in enumerate(zip(models, inputs, centroids)):
            finetune_view(model, x, target, c, train_cfg)
            losses[v] = combined_loss(model, x, target, c, train_cfg.clustering_weight)

        # the shared net's weight and loss fill every view's slot
        traces.append(
            RoundTrace(
                t,
                np.resize(weights, n_views),
                cond,
                nmis,
                np.resize(losses, n_views),
                change,
            )
        )
        t += 1


def run_cemvc(data: MultiViewDataset, cfg: PipelineConfig) -> ClusteringResult:
    """Full parameter-decoupled run with adaptive view weighting."""
    return _run(data, cfg, shared=False)


def run_shared_baseline(data: MultiViewDataset, cfg: PipelineConfig) -> ClusteringResult:
    """One shared autoencoder over the concatenated views.

    Single parameter set, self-training against its own sharpened labels;
    no weighting and no conditional-entropy scoring. Trace vectors keep the
    per-view shape: weights are all 1, entropy/agreement slots are nan, and
    the shared combined loss is replicated across views.
    """
    return _run(data, cfg, shared=True)


def run_ablation(
    data: MultiViewDataset, cfg: PipelineConfig
) -> dict[str, ClusteringResult]:
    """Run the decoupled pipeline once per weighting mode, shared seed."""
    results = {}
    for mode in WEIGHT_MODES:
        results[mode] = run_cemvc(data, replace(cfg, weighting_mode=mode))
    return results
