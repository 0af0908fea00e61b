import hashlib

import numpy as np
import pytest

import cemvc.pipeline as pipeline_module
from cemvc.data import MultiViewDataset, inject_noise_view, synth_multiview
from cemvc.model import TrainConfig, model_params
from cemvc.pipeline import (
    PipelineConfig,
    run_ablation,
    run_cemvc,
    run_shared_baseline,
)
from cemvc.weighting import WEIGHT_FLOOR


def tiny_cfg(seed=0, **overrides):
    defaults = dict(
        n_clusters=3,
        latent_dim=4,
        hidden_dims=(8,),
        max_outer_iters=4,
        train=TrainConfig(pretrain_epochs=40, finetune_steps_per_round=10),
        seed=seed,
    )
    defaults.update(overrides)
    return PipelineConfig(**defaults)


@pytest.fixture(scope="module")
def tiny_data():
    return synth_multiview(120, 3, 2, 5, 7.0, seed=0)


def test_run_cemvc_smoke(tiny_data):
    result = run_cemvc(tiny_data, tiny_cfg())
    assert result.labels.shape == (120,)
    assert result.soft_labels.shape == (120, 3)
    assert result.metrics is not None
    assert result.metrics.acc >= 0.9
    assert 1 <= len(result.traces) <= 4
    assert result.embedding.shape == (120, 8)


def test_tolerance_one_runs_exactly_one_iteration(tiny_data):
    result = run_cemvc(tiny_data, tiny_cfg(tolerance=1.0))
    assert len(result.traces) == 1


def test_iteration_cap_respected(tiny_data):
    # tolerance 0 can never trigger, so the cap is the only exit
    result = run_cemvc(tiny_data, tiny_cfg(tolerance=0.0, max_outer_iters=3))
    assert len(result.traces) == 3


def test_trace_shape_completeness(tiny_data):
    cfg = tiny_cfg(tolerance=0.0, max_outer_iters=3)
    result = run_cemvc(tiny_data, cfg)
    for i, trace in enumerate(result.traces):
        assert trace.iteration == i
        assert trace.weights.shape == (2,)
        assert trace.cond_entropies.shape == (2,)
        assert trace.nmi_to_unified.shape == (2,)
        assert trace.losses.shape == (2,)
        assert 0.0 <= trace.label_change_fraction <= 1.0
    assert result.traces[0].label_change_fraction == 1.0


def test_determinism_bit_exact(tiny_data):
    a = run_cemvc(tiny_data, tiny_cfg(seed=5))
    b = run_cemvc(tiny_data, tiny_cfg(seed=5))
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.soft_labels, b.soft_labels)
    assert np.array_equal(a.embedding, b.embedding)
    c = run_cemvc(tiny_data, tiny_cfg(seed=6))
    assert not np.array_equal(a.embedding, c.embedding)


def test_rejects_single_view():
    data = synth_multiview(60, 3, 1, 5, 7.0, seed=1)
    with pytest.raises(ValueError, match="views"):
        run_cemvc(data, tiny_cfg())
    with pytest.raises(ValueError, match="views"):
        run_shared_baseline(data, tiny_cfg())


def test_rejects_fewer_samples_than_clusters():
    data = synth_multiview(8, 4, 2, 3, 7.0, seed=2)
    cfg = tiny_cfg(n_clusters=9)
    with pytest.raises(ValueError, match="clusters"):
        run_cemvc(data, cfg)


def test_weight_floor_keeps_noise_view_weight_positive(tiny_data):
    noisy = inject_noise_view(tiny_data, 20, seed=(0, 99))
    result = run_cemvc(noisy, tiny_cfg(max_outer_iters=2, tolerance=0.0))
    for trace in result.traces:
        assert (trace.weights > 0).all()


def test_parameter_disjointness_through_full_run(tiny_data, monkeypatch):
    # checksum every other view's parameters around each finetune call
    real_finetune = pipeline_module.finetune_view
    models_seen = {}

    def checksum(model):
        digest = hashlib.sha256()
        for p in model_params(model):
            digest.update(p.tobytes())
        return digest.hexdigest()

    def spying_finetune(model, x, target, centroids, cfg):
        models_seen[model.view_index] = model
        others = {
            v: checksum(m) for v, m in models_seen.items() if v != model.view_index
        }
        out = real_finetune(model, x, target, centroids, cfg)
        for v, before in others.items():
            assert checksum(models_seen[v]) == before, (
                f"finetuning view {model.view_index} moved view {v}'s parameters"
            )
        return out

    monkeypatch.setattr(pipeline_module, "finetune_view", spying_finetune)
    result = run_cemvc(tiny_data, tiny_cfg(tolerance=0.0, max_outer_iters=3))
    assert len(models_seen) == 2
    assert len(result.traces) == 3


def test_shared_baseline_smoke(tiny_data):
    result = run_shared_baseline(tiny_data, tiny_cfg())
    assert result.labels.shape == (120,)
    assert result.metrics.acc >= 0.9
    assert result.mode == "shared"
    for trace in result.traces:
        assert np.array_equal(trace.weights, np.ones(2))
        assert np.isnan(trace.cond_entropies).all()
        assert len(set(trace.losses.tolist())) == 1


def test_shared_baseline_deterministic(tiny_data):
    a = run_shared_baseline(tiny_data, tiny_cfg(seed=3))
    b = run_shared_baseline(tiny_data, tiny_cfg(seed=3))
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.embedding, b.embedding)


def test_ablation_returns_three_modes(tiny_data):
    results = run_ablation(tiny_data, tiny_cfg(max_outer_iters=2))
    assert sorted(results) == ["enmi", "enmi_ce", "nmi"]
    for mode, result in results.items():
        assert result.mode == mode
        assert result.labels.shape == (120,)


def test_ablation_modes_agree_on_easy_symmetric_data(tiny_data):
    # well-separated two-view data: every mode should land on the same partition
    results = run_ablation(tiny_data, tiny_cfg())
    from cemvc.metrics import clustering_accuracy

    assert clustering_accuracy(results["nmi"].labels, results["enmi_ce"].labels) == 1.0
    assert clustering_accuracy(results["enmi"].labels, results["enmi_ce"].labels) == 1.0


def test_ablation_modes_identical_on_duplicated_views():
    # an exact copy of a view levels the per-view scores, so every mode
    # weights the blocks (near-)equally and lands on the same partition
    base = synth_multiview(90, 3, 1, 5, 7.0, seed=4)
    from cemvc.data import MultiViewDataset

    data = MultiViewDataset([base.views[0], base.views[0].copy()], base.labels)
    cfg = tiny_cfg(
        max_outer_iters=3,
        train=TrainConfig(
            pretrain_epochs=300, learning_rate=3e-3, finetune_steps_per_round=10
        ),
    )
    results = run_ablation(data, cfg)
    for mode in ("enmi", "enmi_ce"):
        assert np.array_equal(results["nmi"].labels, results[mode].labels)


@pytest.mark.parametrize(
    "mode, numerator", [("nmi", lambda s: s), ("enmi", np.expm1)], ids=["nmi", "enmi"]
)
def test_trace_weights_come_from_reported_nmis(tiny_data, mode, numerator):
    # the noise view's agreement is fractional, so the check is not 1 == 1
    noisy = inject_noise_view(tiny_data, 20, seed=(0, 99))
    result = run_cemvc(noisy, tiny_cfg(weighting_mode=mode, tolerance=0.0, max_outer_iters=3))
    assert len(result.traces) == 3
    for trace in result.traces:
        assert np.array_equal(trace.weights, numerator(trace.nmi_to_unified) + WEIGHT_FLOOR)


def _degenerate(case: str) -> MultiViewDataset:
    base = synth_multiview(60, 3, 2, 5, 7.0, seed=7)
    a, b = base.views
    rows = slice(None)
    if case == "d1_view":
        a = a[:, :1]
    elif case == "constant_column":
        a = a.copy()
        a[:, 0] = 2.5
    elif case == "constant_view":
        b = np.full_like(b, 4.0)
    elif case == "triplicated_rows":
        rows = np.repeat(np.arange(20), 3)
    elif case == "n_eq_k":
        rows = slice(0, 3)
    elif case == "n_eq_k_plus_1":
        rows = slice(0, 4)
    return MultiViewDataset([a[rows], b[rows]], base.labels[rows])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("run", [run_cemvc, run_shared_baseline], ids=["cemvc", "shared"])
@pytest.mark.parametrize(
    "case",
    ["d1_view", "constant_column", "constant_view", "triplicated_rows", "n_eq_k", "n_eq_k_plus_1"],
)
def test_degenerate_inputs_run_to_the_cap(case, run):
    data = _degenerate(case)
    cfg = tiny_cfg(
        tolerance=0.0,
        max_outer_iters=3,
        train=TrainConfig(pretrain_epochs=20, finetune_steps_per_round=5),
    )
    result = run(data, cfg)
    assert len(result.traces) == 3
    assert result.labels.shape == (data.n_samples,)
    assert ((result.labels >= 0) & (result.labels < 3)).all()
    assert np.isfinite(result.embedding).all()
    for trace in result.traces:
        assert np.isfinite(trace.weights).all()


def test_config_validation():
    with pytest.raises(ValueError, match="clusters"):
        PipelineConfig(n_clusters=1)
    with pytest.raises(ValueError, match="tolerance"):
        PipelineConfig(n_clusters=3, tolerance=1.5)
    with pytest.raises(ValueError, match="mode"):
        PipelineConfig(n_clusters=3, weighting_mode="bogus")
    with pytest.raises(ValueError, match="restarts"):
        PipelineConfig(n_clusters=3, kmeans_restarts=0)
