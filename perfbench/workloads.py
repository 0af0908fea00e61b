"""Benchmark workloads and the benchmark's own input generator.

Inputs are produced here, from the workload seed, and written as the CSV
manifests that `cemvc run` reads; the program under test only ever sees
those files. The generator reimplements the blob model of
`cemvc.data.synth_multiview` + `inject_noise_view` draw for draw, so that
the `noisy3view` inputs equal `cemvc.bench.preset_dataset(..., noisy=True)`
byte for byte (see `check_inputs.py`) while staying fixed if the program's
own generator changes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

CSV_FLOAT_FMT = "%.17g"  # round-trips float64 exactly


@dataclass(frozen=True)
class Workload:
    """One workload; why each exists is in README.md and BENCHMARK.json."""

    name: str
    method: str                    # "cemvc" -> run_cemvc, "shared" -> run_shared_baseline
    n_samples: int
    n_clusters: int
    dims: tuple[int, ...]          # informative views
    separation: tuple[float, ...]
    noise_dim: int                 # one appended N(0, 1) view
    datasets: int                  # distinct datasets written per run
    trace_fits: int                # fits in the traced pass (a fixed prefix of the schedule)
    quality_fits: int              # fits always made, even past --seconds; ACC/NMI average over them
    pipeline: dict = field(default_factory=dict)  # PipelineConfig overrides
    train: dict = field(default_factory=dict)     # TrainConfig overrides


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="noisy3view",
            method="cemvc",
            n_samples=600,
            n_clusters=3,
            dims=(6, 6),
            separation=(4.0, 4.0),
            noise_dim=200,
            datasets=4,
            trace_fits=4,
            quality_fits=10,
            pipeline={"max_outer_iters": 2},
        ),
        Workload(
            name="shared-noisy",
            method="shared",
            n_samples=600,
            n_clusters=3,
            dims=(6, 6),
            separation=(4.0, 4.0),
            noise_dim=200,
            datasets=4,
            trace_fits=4,
            quality_fits=10,
            pipeline={"tolerance": 0.0, "max_outer_iters": 4},
        ),
        Workload(
            name="entropy-large-n",
            method="cemvc",
            n_samples=2400,
            n_clusters=4,
            dims=(6, 6, 6),
            separation=(1.5, 1.5, 1.5),
            noise_dim=20,
            datasets=3,
            trace_fits=1,
            quality_fits=2,
            pipeline={"tolerance": 0.0, "max_outer_iters": 4},
            train={"pretrain_epochs": 30, "finetune_steps_per_round": 10},
        ),
    )
}


def data_seed(workload_seed: int, dataset: int) -> int:
    return workload_seed * 1000 + dataset


def fit_plan(wl: Workload, workload_seed: int, index: int) -> tuple[int, int]:
    """(dataset index, pipeline seed) of the index-th fit of a run."""
    return index % wl.datasets, workload_seed * 1000 + index


def generate(wl: Workload, seed: int) -> tuple[list[np.ndarray], np.ndarray]:
    """Balanced Gaussian blobs seen through independent views, plus noise.

    Same draws, in the same order, as synth_multiview(seed=seed) followed
    by inject_noise_view(seed=(seed, 999)).
    """
    rng = np.random.default_rng(seed)
    labels = rng.permutation(np.arange(wl.n_samples) % wl.n_clusters)
    views = []
    for d, sep in zip(wl.dims, wl.separation):
        centers = sep * rng.standard_normal((wl.n_clusters, d))
        views.append(centers[labels] + rng.standard_normal((wl.n_samples, d)))
    noise_rng = np.random.default_rng((seed, 999))
    views.append(noise_rng.standard_normal((wl.n_samples, wl.noise_dim)))
    return views, labels


def write_dataset(views, labels, name: str, out_dir: Path) -> Path:
    """Write view CSVs, labels and a manifest; return the manifest path."""
    out_dir.mkdir(parents=True, exist_ok=True)
    files = []
    for v, mat in enumerate(views):
        fname = f"view_{v}.csv"
        np.savetxt(out_dir / fname, mat, delimiter=",", fmt=CSV_FLOAT_FMT)
        files.append(fname)
    np.savetxt(out_dir / "labels.csv", labels[:, None], fmt="%d")
    manifest = out_dir / "manifest.json"
    manifest.write_text(
        json.dumps({"name": name, "views": files, "labels": "labels.csv"}, indent=2) + "\n",
        encoding="utf-8",
    )
    return manifest


def write_inputs(wl: Workload, seed: int, out_dir: Path) -> tuple[list[Path], dict, list[np.ndarray]]:
    """Write every dataset of one run.

    Returns the manifest paths, a sha256 per written file (keyed by its
    path relative to out_dir), and the ground-truth labels per dataset.
    """
    manifests, truths = [], []
    for j in range(wl.datasets):
        views, labels = generate(wl, data_seed(seed, j))
        manifests.append(write_dataset(views, labels, f"{wl.name}-{seed}-{j}", out_dir / f"d{j}"))
        truths.append(labels)
    digests = {
        str(p.relative_to(out_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.rglob("*"))
        if p.is_file()
    }
    return manifests, digests, truths
