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

import numpy as np

from .data import MultiViewDataset, synth_multiview
from .model import check_count
from .pipeline import ClusteringResult, PipelineConfig, run_cemvc, run_shared_baseline
from .weighting import WEIGHT_MODES

METHODS = (*WEIGHT_MODES, "shared")


@dataclass(frozen=True)
class BenchPreset:
    name: str
    n_samples: int = 600
    n_clusters: int = 3
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
        preset.n_clusters,
        preset.dims,
        preset.separation,
        noise_dims=preset.noise_dims if noisy else (),
        seed=seed,
        name=preset.name,
    )


def run_variant(
    preset: BenchPreset, method: str, noisy: bool, seed: int
) -> ClusteringResult:
    """One seeded fit: `method` is a weighting mode of the decoupled run, or
    "shared" for the baseline."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}, expected one of {METHODS}")
    data = preset_dataset(preset, seed, noisy)
    cfg = replace(preset.pipeline, seed=seed)
    if method == "shared":
        return run_shared_baseline(data, cfg)
    return run_cemvc(data, replace(cfg, weighting_mode=method))


def summarize(preset: BenchPreset, n_seeds: int) -> list[dict[str, float | str]]:
    """Mean/std ACC and NMI per method and variant, plus noisy-clean deltas.

    Rows follow METHODS, clean before noisy. Delta columns are noisy mean
    minus clean mean, so a negative delta is a degradation under the
    preset's noise views.
    """
    check_count("n_seeds", n_seeds)
    rows = []
    for method in METHODS:
        scores = {}
        for variant in ("clean", "noisy"):
            metrics = [
                run_variant(preset, method, variant == "noisy", s).metrics
                for s in range(n_seeds)
            ]
            scores[variant] = {"acc": [m.acc for m in metrics], "nmi": [m.nmi for m in metrics]}
        clean = scores["clean"]
        for variant, cell in scores.items():
            row: dict[str, float | str] = {
                "method": method,
                "variant": variant,
                "acc_mean": float(np.mean(cell["acc"])),
                "acc_std": float(np.std(cell["acc"])),
                "nmi_mean": float(np.mean(cell["nmi"])),
                "nmi_std": float(np.std(cell["nmi"])),
                "acc_delta_vs_clean": float(np.mean(cell["acc"]) - np.mean(clean["acc"])),
                "nmi_delta_vs_clean": float(np.mean(cell["nmi"]) - np.mean(clean["nmi"])),
            }
            rows.append(row)
    return rows


def rows_to_csv(rows: list[dict[str, float | str]]) -> str:
    """CSV text of `summarize` rows, headed by their keys; numbers get 6 decimals."""
    lines = [",".join(rows[0])]
    for row in rows:
        lines.append(",".join(v if isinstance(v, str) else format(v, ".6f") for v in row.values()))
    return "\n".join(lines) + "\n"
