import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from cemvc.bench import (
    METHODS,
    BenchPreset,
    PRESETS,
    grid,
    preset_dataset,
    rows_to_csv,
    summarize,
)
from cemvc.model import TrainConfig
from cemvc.pipeline import PipelineConfig, RoundTrace, run_cemvc, run_shared_baseline


def tiny_preset():
    return BenchPreset(
        name="tiny",
        n_samples=90,
        dims=(5, 5),
        separation=(7.0, 7.0),
        noise_dims=(10,),
        pipeline=PipelineConfig(
            n_clusters=3,
            latent_dim=4,
            hidden_dims=(8,),
            max_outer_iters=2,
            train=TrainConfig(pretrain_epochs=30, finetune_steps_per_round=8),
        ),
    )


def test_default_preset_registered():
    assert "noisy3view" in PRESETS
    assert PRESETS["noisy3view"].dims == (6, 6)
    assert PRESETS["noisy3view"].noise_dims == (200,)


def test_preset_dataset_noisy_shares_informative_views():
    preset = tiny_preset()
    clean = preset_dataset(preset, seed=1, noisy=False)
    noisy = preset_dataset(preset, seed=1, noisy=True)
    assert noisy.n_views == clean.n_views + len(preset.noise_dims)
    for a, b in zip(clean.views, noisy.views):
        assert np.array_equal(a, b)


def test_preset_draws_as_many_classes_as_its_pipeline_fits():
    tiny = tiny_preset()
    preset = replace(tiny, pipeline=replace(tiny.pipeline, n_clusters=4))
    assert np.unique(preset_dataset(preset, seed=0, noisy=False).labels).tolist() == [0, 1, 2, 3]
    for fit in grid(preset, n_seeds=1):
        assert fit.result.metrics.confusion.shape[1] == 4


def test_benchmark_inputs_match_the_preset():
    # the benchmark writes noisy3view itself; this holds it to the program's data
    repo = Path(__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "perfbench/check_inputs.py"],
        cwd=repo, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert " 0 differences" in done.stdout


def test_grid_yields_every_fit_in_order_equal_to_standalone_fits():
    preset = tiny_preset()
    fits = list(grid(preset, n_seeds=2))
    assert [(f.seed, f.variant, f.method) for f in fits] == [
        (seed, variant, method)
        for seed in range(2)
        for variant in ("clean", "noisy")
        for method in METHODS
    ]
    for fit in fits:
        assert fit.result.seconds > 0
        data = preset_dataset(preset, fit.seed, fit.variant == "noisy")
        cfg = replace(preset.pipeline, seed=fit.seed)
        if fit.method == "shared":
            alone = run_shared_baseline(data, cfg)
        else:
            alone = run_cemvc(data, replace(cfg, weighting_mode=fit.method))
        assert fit.result.mode == alone.mode == fit.method
        for name in ("labels", "soft_labels", "embedding"):
            assert np.array_equal(getattr(fit.result, name), getattr(alone, name)), name
        for ta, tb in zip(fit.result.traces, alone.traces, strict=True):
            for f in fields(RoundTrace):
                assert np.array_equal(getattr(ta, f.name), getattr(tb, f.name), equal_nan=True)


def test_grid_charges_each_fit_the_pretraining_it_used(slow_pretrain):
    # a weighting mode pretrains one net per view, the shared baseline one net
    preset = tiny_preset()
    for fit in grid(preset, n_seeds=1):
        n_views = len(preset.dims) + len(preset.noise_dims) * (fit.variant == "noisy")
        n_nets = 1 if fit.method == "shared" else n_views
        assert fit.result.seconds >= slow_pretrain * n_nets, (fit.method, fit.variant)


def test_grid_rejects_zero_seeds():
    with pytest.raises(ValueError, match="n_seeds must be >= 1"):
        next(grid(tiny_preset(), 0))


def test_summarize_eight_rows_and_delta_convention():
    rows = summarize(tiny_preset(), n_seeds=2)
    assert [(r["method"], r["variant"]) for r in rows] == [
        (method, variant)
        for method in ("nmi", "enmi", "enmi_ce", "shared")
        for variant in ("clean", "noisy")
    ]
    for row in rows:
        if row["variant"] == "clean":
            assert row["acc_delta_vs_clean"] == 0.0
            assert row["nmi_delta_vs_clean"] == 0.0


def test_summarize_deterministic():
    preset = tiny_preset()
    assert summarize(preset, n_seeds=2) == summarize(preset, n_seeds=2)


def test_rows_to_csv_header_and_shape():
    rows = summarize(tiny_preset(), n_seeds=1)
    text = rows_to_csv(rows)
    lines = text.strip().split("\n")
    # the header README documents for summary.csv
    header = "method,variant,acc_mean,acc_std,nmi_mean,nmi_std,acc_delta_vs_clean,nmi_delta_vs_clean"
    assert lines[0] == header
    assert len(lines) == 9
    assert all(len(line.split(",")) == 8 for line in lines)
