"""Seeded benchmark grid: every weighting mode of the decoupled run, and
the shared-parameter baseline, on clean and noisy data.

A preset fixes the synthetic data family; every seed regenerates the data,
so the aggregates capture data and training variability together. The
noisy variant of a dataset shares the informative views with its clean
counterpart byte for byte, which makes clean/noisy deltas paired per seed.
Every method runs on the same seeds, so the rows are paired across methods
too; the noisy rows are the weighting-mode ablation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterator, NamedTuple

import numpy as np

from .data import MultiViewDataset, synth_multiview
from .numcore import check_count
from .pipeline import ClusteringResult, PipelineConfig, run_ablation, run_shared_baseline
from .weighting import WEIGHT_MODES

METHODS = (*WEIGHT_MODES, "shared")
VARIANTS = ("clean", "noisy")


@dataclass(frozen=True)
class BenchPreset:
    name: str
    n_samples: int = 600
    dims: tuple[int, ...] = (6, 6)
    separation: tuple[float, ...] = (4.0, 4.0)
    noise_dims: tuple[int, ...] = (200,)  # the noise views of the noisy variant
    pipeline: PipelineConfig = field(
        default_factory=lambda: PipelineConfig(n_clusters=3)
    )


PRESETS = {
    "noisy3view": BenchPreset(name="noisy3view"),
}


def preset_dataset(preset: BenchPreset, seed: int, noisy: bool) -> MultiViewDataset:
    return synth_multiview(
        preset.n_samples,
        preset.pipeline.n_clusters,
        preset.dims,
        preset.separation,
        noise_dims=preset.noise_dims if noisy else (),
        seed=seed,
        name=preset.name,
    )


class Fit(NamedTuple):
    method: str
    variant: str
    seed: int
    result: ClusteringResult


def grid(preset: BenchPreset, n_seeds: int) -> Iterator[Fit]:
    """Every seeded fit, per seed clean before noisy, each in METHODS order. On one
    dataset the weighting modes are one `run_ablation`, sharing its pretraining."""
    check_count("n_seeds", n_seeds)
    for seed in range(n_seeds):
        cfg = replace(preset.pipeline, seed=seed)
        for variant in VARIANTS:
            data = preset_dataset(preset, seed, variant == "noisy")
            results = {**run_ablation(data, cfg), "shared": run_shared_baseline(data, cfg)}
            for method in METHODS:
                yield Fit(method, variant, seed, results[method])


def summarize(preset: BenchPreset, n_seeds: int) -> list[dict[str, float | str]]:
    """Mean/std ACC and NMI per method and variant of `grid`, plus noisy-clean deltas.

    Rows follow METHODS, clean before noisy. Delta columns are noisy mean
    minus clean mean, so a negative delta is a degradation under the
    preset's noise views.
    """
    metrics: dict[tuple[str, str], list] = {}
    for fit in grid(preset, n_seeds):
        metrics.setdefault((fit.method, fit.variant), []).append(fit.result.metrics)
    rows: list[dict[str, float | str]] = []
    for method in METHODS:
        clean = metrics[method, "clean"]
        for variant in VARIANTS:
            acc = [m.acc for m in metrics[method, variant]]
            nmi = [m.nmi for m in metrics[method, variant]]
            rows.append({
                "method": method,
                "variant": variant,
                "acc_mean": float(np.mean(acc)),
                "acc_std": float(np.std(acc)),
                "nmi_mean": float(np.mean(nmi)),
                "nmi_std": float(np.std(nmi)),
                "acc_delta_vs_clean": float(np.mean(acc) - np.mean([m.acc for m in clean])),
                "nmi_delta_vs_clean": float(np.mean(nmi) - np.mean([m.nmi for m in clean])),
            })
    return rows


def rows_to_csv(rows: list[dict[str, float | str]]) -> str:
    """CSV text of `summarize` rows, headed by their keys; numbers get 6 decimals."""
    lines = [",".join(rows[0])]
    for row in rows:
        lines.append(",".join(v if isinstance(v, str) else format(v, ".6f") for v in row.values()))
    return "\n".join(lines) + "\n"
