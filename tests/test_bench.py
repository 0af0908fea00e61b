import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from cemvc.bench import (
    BenchPreset,
    PRESETS,
    preset_dataset,
    rows_to_csv,
    run_variant,
    summarize,
)
from cemvc.model import TrainConfig
from cemvc.pipeline import PipelineConfig, run_ablation
from cemvc.weighting import WEIGHT_MODES


def tiny_preset():
    return BenchPreset(
        name="tiny",
        n_samples=90,
        n_clusters=3,
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


def test_benchmark_inputs_match_the_preset():
    # the benchmark writes noisy3view itself; this holds it to the program's data
    repo = Path(__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "perfbench/check_inputs.py"],
        cwd=repo, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert " 0 differences" in done.stdout


def test_run_variant_rejects_unknown_method():
    with pytest.raises(ValueError, match="method 'mystery', expected one of"):
        run_variant(tiny_preset(), "mystery", False, 0)


def test_run_variant_modes_equal_ablation_runs():
    preset = tiny_preset()
    data = preset_dataset(preset, 1, noisy=True)
    ablation = run_ablation(data, replace(preset.pipeline, seed=1))
    for mode in WEIGHT_MODES:
        result = run_variant(preset, mode, True, 1)
        assert result.mode == mode
        assert np.array_equal(result.labels, ablation[mode].labels)


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
