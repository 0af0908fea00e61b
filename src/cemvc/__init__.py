"""Entropy-weighted multi-view clustering with parameter-decoupled autoencoders."""

from .data import MultiViewDataset, load_multiview, save_multiview, synth_multiview
from .metrics import MetricReport, clustering_accuracy, evaluate
from .model import TrainConfig, ViewModel
from .pipeline import (
    ClusteringResult,
    PipelineConfig,
    RoundTrace,
    run_ablation,
    run_cemvc,
    run_shared_baseline,
)

__all__ = [
    "ClusteringResult",
    "MetricReport",
    "MultiViewDataset",
    "PipelineConfig",
    "RoundTrace",
    "TrainConfig",
    "ViewModel",
    "clustering_accuracy",
    "evaluate",
    "load_multiview",
    "run_ablation",
    "run_cemvc",
    "run_shared_baseline",
    "save_multiview",
    "synth_multiview",
]

__version__ = "0.1.0"
