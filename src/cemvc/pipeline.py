"""Outer training loops: the decoupled weighted run, the shared-parameter
baseline, and the weighting-mode ablation.

One outer iteration of the decoupled run: encode every view, fuse the
latent blocks under the current weights, cluster the fused matrix into
unified soft labels, score each view (conditional entropy + agreement with
the unified labels), refresh the weights, sharpen the unified labels into
a target, and finetune each view's autoencoder against that target.
Weights produced at iteration t scale the fusion at iteration t+1. The
unified centroids, kept in the nets' own coordinates, warm-start the next
round's k-means and give each view its finetuning centroids. The shared
baseline runs the same loop over one net with no scoring step. The nets see
standardized columns, and a fresh k-means keeps the best of KMEANS_RESTARTS seedings.

Within a round, the conditional-entropy sweep runs in one background
thread while the views' k-means and finetuning run in the caller's: the
sweep reads only the round's latents, which nothing writes, and its result
is first read by the weight update after both finish. Each phase runs the
same operations in the same order as it would alone, so the overlap
changes no value; an exception in the sweep is raised from the fit.
"""

from __future__ import annotations

import contextvars
import copy
import threading
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .clustering import kmeans, soft_assign, target_distribution
from .data import MultiViewDataset
from .infometrics import nmi, total_conditional_entropy
from .metrics import MetricReport, evaluate
from .model import TrainConfig, ViewModel, encode, finetune_view, pretrain
from .numcore import check_count, check_real
from .weighting import WEIGHT_MODES, update_weights

KMEANS_RESTARTS = 8  # seedings for each fresh (non-warm-start) k-means


@dataclass
class PipelineConfig:
    n_clusters: int
    latent_dim: int = 8
    hidden_dims: tuple[int, ...] = (32,)
    max_outer_iters: int = 30
    tolerance: float = 1e-3  # fraction of unified labels allowed to change
    weighting_mode: str = "enmi_ce"
    seed: int = 0
    train: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self) -> None:
        check_count("n_clusters", self.n_clusters, minimum=2)
        check_count("latent_dim", self.latent_dim)
        if not isinstance(self.hidden_dims, (list, tuple)):
            raise ValueError(f"hidden_dims must be a list or tuple, got {self.hidden_dims!r}")
        self.hidden_dims = tuple(self.hidden_dims)
        for i, width in enumerate(self.hidden_dims):
            check_count(f"hidden_dims[{i}]", width)
        check_count("max_outer_iters", self.max_outer_iters)
        check_count("seed", self.seed, minimum=0)
        if not isinstance(self.train, TrainConfig):
            raise ValueError(f"train must be a TrainConfig, got {self.train!r}")
        check_real("tolerance", self.tolerance)
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
    seconds: float                 # the pretraining the fit used plus its outer loop


class _Background(threading.Thread):
    """`fn(*args)`, started at once in one background thread, in a copy of the
    caller's context (so numpy's error state carries over). `result()` joins
    it and returns the value, or raises the exception, in the caller's thread."""

    def __init__(self, fn, *args) -> None:
        super().__init__(name="cemvc-scoring")
        self._call = partial(contextvars.copy_context().run, fn, *args)
        self._value = self._error = None
        self.start()

    def run(self) -> None:
        try:
            self._value = self._call()
        except BaseException as err:  # raised again by result()
            self._error = err

    def result(self):
        self.join()
        if self._error is not None:
            raise self._error
        return self._value


def _finetune(
    models: list[ViewModel], inputs: list[np.ndarray], unified_soft: np.ndarray,
    centers: np.ndarray, cfg: PipelineConfig, t: int,
) -> np.ndarray:
    """Finetune each net toward the sharpened unified labels and its block of
    `centers`, in place; returns each net's round loss."""
    target = target_distribution(unified_soft)
    return np.array([
        finetune_view(model, x, target, c, cfg.train, cfg.seed, t)
        for model, x, c in zip(models, inputs, np.split(centers, len(models), axis=1))
    ])


def _pretrain_inputs(data: MultiViewDataset, cfg: PipelineConfig, shared: bool = False):
    """Check the data; return the views as the nets see them (columns standardized, concatenated if
    `shared`), a net pretrained on each (a function of its input, config and seed) and the seconds taken."""
    start = time.perf_counter()
    if data.n_views < 2:
        raise ValueError(f"need at least 2 views, got {data.n_views}")
    if data.n_samples < cfg.n_clusters:
        raise ValueError(
            f"cannot form {cfg.n_clusters} clusters from {data.n_samples} samples"
        )
    views = [(x - x.mean(axis=0)) / np.maximum(x.std(axis=0), 1e-8) for x in data.views]
    inputs = [np.hstack(views)] if shared else views
    models = [
        pretrain(x, cfg.hidden_dims, cfg.latent_dim, cfg.train, cfg.seed, view_index=v)
        for v, x in enumerate(inputs)
    ]
    return inputs, models, time.perf_counter() - start


def _outer_loop(
    data: MultiViewDataset, cfg: PipelineConfig, mode: str,
    inputs: list[np.ndarray], models: list[ViewModel], pretrain_s: float,
) -> ClusteringResult:
    """The outer loop of both methods, finetuning `models` in place; the result's
    `seconds` are `pretrain_s` plus the loop's own.

    With `mode` a weighting mode, this is the decoupled run: one net per view,
    the views reweighted every round. With `mode` "shared" it is the baseline:
    one net on the concatenated views, whose single weight stays 1, so fusion
    is a copy of its latent, and nothing is scored. `centers` holds the unified
    centroids divided by the fusion scale, in the nets' coordinates: times the
    next round's scale they warm-start the unified k-means, and net v finetunes
    toward its block of columns (the shared net's block is all of them), so
    its cluster j is the target's cluster j.

    A weighting-mode round that passes its stop check starts its
    conditional-entropy sweep in one background thread, runs the views'
    k-means and finetuning here, and joins the thread, on every exit path,
    before the weight update; an exception in the sweep is raised from
    here. The "shared" mode starts no thread.
    """
    start = time.perf_counter()
    n_views = data.n_views
    k = cfg.n_clusters
    weights = np.ones(len(inputs))

    traces: list[RoundTrace] = []
    prev_labels: np.ndarray | None = None
    centers: np.ndarray | None = None
    view_centroids: list[np.ndarray | None] = [None] * n_views

    t = 0
    while True:
        reps = [encode(m, x) for m, x in zip(models, inputs)]
        # Fuse under weights rescaled to mean 1. The update rule defines
        # relative view importances; the absolute scale would otherwise leak
        # into the Student-t soft labels (sharper fused spaces self-train
        # harder), coupling the weighting mode to an unrelated temperature
        # effect.
        scale = np.repeat(weights / weights.mean(), cfg.latent_dim)
        fused = np.hstack(reps)
        fused *= scale
        unified_centroids, labels = kmeans(
            fused, k, seed=(cfg.seed, 3, t), init=None if centers is None else centers * scale,
            n_init=KMEANS_RESTARTS,
        )
        centers = unified_centroids / scale
        # each label is its row's nearest centroid, so the argmax of its soft labels
        unified_soft = soft_assign(fused, unified_centroids)
        change = 1.0 if prev_labels is None else float(np.mean(labels != prev_labels))
        converged = prev_labels is not None and change < cfg.tolerance
        if converged or t >= cfg.max_outer_iters:
            metrics = evaluate(labels, data.labels) if data.labels is not None else None
            seconds = pretrain_s + time.perf_counter() - start
            return ClusteringResult(labels, unified_soft, traces, metrics, fused, mode, seconds)
        prev_labels = labels

        if mode == "shared":
            # one net, so there is nothing to score
            cond = np.full(n_views, np.nan)
            nmis = np.full(n_views, np.nan)
            losses = _finetune(models, inputs, unified_soft, centers, cfg, t)
        else:
            # Conditional entropies are scored on the raw (unweighted)
            # latents; the weighted blocks would fold the previous weights
            # back into the score through the scale-equivariant density
            # estimate. The sweep overlaps the views' k-means and finetuning.
            scoring = _Background(total_conditional_entropy, reps)
            try:
                nmis = np.empty(n_views)
                for v in range(n_views):
                    view_centroids[v], view_labels = kmeans(
                        reps[v],
                        k,
                        seed=(cfg.seed, 4, t, v),
                        init=view_centroids[v],
                        n_init=KMEANS_RESTARTS,
                    )
                    nmis[v] = nmi(view_labels, labels)
                losses = _finetune(models, inputs, unified_soft, centers, cfg, t)
            finally:
                scoring.join()
            cond = scoring.result()
            weights = update_weights(nmis, cond, mode)

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
    return _outer_loop(data, cfg, cfg.weighting_mode, *_pretrain_inputs(data, cfg))


def run_shared_baseline(data: MultiViewDataset, cfg: PipelineConfig) -> ClusteringResult:
    """One shared autoencoder over the concatenated views.

    Single parameter set, self-training against its own sharpened labels;
    no weighting and no conditional-entropy scoring. Trace vectors keep the
    per-view shape: weights are all 1, entropy/agreement slots are nan, and
    the shared combined loss is replicated across views.
    """
    return _outer_loop(data, cfg, "shared", *_pretrain_inputs(data, cfg, shared=True))


def run_ablation(data: MultiViewDataset, cfg: PipelineConfig) -> dict[str, ClusteringResult]:
    """The decoupled run in every weighting mode, whatever `cfg.weighting_mode` says, each on a
    copy of one pretraining; its `seconds` count that pretraining as if it ran alone, not the copy."""
    inputs, models, pretrain_s = _pretrain_inputs(data, cfg)
    return {
        mode: _outer_loop(data, cfg, mode, inputs, copy.deepcopy(models), pretrain_s)
        for mode in WEIGHT_MODES
    }
