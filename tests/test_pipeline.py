import hashlib
import re
import sys
import threading
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cemvc.pipeline as pipeline_module
from cemvc.bench import PRESETS, preset_dataset
from cemvc.clustering import soft_assign
from cemvc.data import MultiViewDataset, synth_multiview
from cemvc.model import TrainConfig, encode, model_params
from cemvc.pipeline import (
    PipelineConfig,
    RoundTrace,
    _pretrain_inputs,
    run_ablation,
    run_cemvc,
    run_shared_baseline,
)
from cemvc.weighting import WEIGHT_FLOOR, WEIGHT_MODES


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
    return synth_multiview(120, 3, (5, 5), (7.0, 7.0), seed=0)


@pytest.fixture(scope="module")
def tiny_noisy(tiny_data):
    noise = np.random.default_rng((0, 99)).standard_normal((tiny_data.n_samples, 20))
    return MultiViewDataset([*tiny_data.views, noise], tiny_data.labels)


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
    data = synth_multiview(60, 3, (5,), (7.0,), seed=1)
    with pytest.raises(ValueError, match="views"):
        run_cemvc(data, tiny_cfg())
    with pytest.raises(ValueError, match="views"):
        run_shared_baseline(data, tiny_cfg())


def test_rejects_fewer_samples_than_clusters():
    data = synth_multiview(8, 4, (3, 3), (7.0, 7.0), seed=2)
    cfg = tiny_cfg(n_clusters=9)
    with pytest.raises(ValueError, match="clusters"):
        run_cemvc(data, cfg)


def test_weight_floor_keeps_noise_view_weight_positive(tiny_noisy):
    result = run_cemvc(tiny_noisy, tiny_cfg(max_outer_iters=2, tolerance=0.0))
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

    def spying_finetune(model, x, target, centroids, cfg, seed, round_index):
        models_seen[model.view_index] = model
        others = {
            v: checksum(m) for v, m in models_seen.items() if v != model.view_index
        }
        out = real_finetune(model, x, target, centroids, cfg, seed, round_index)
        for v, before in others.items():
            assert checksum(models_seen[v]) == before, (
                f"finetuning view {model.view_index} moved view {v}'s parameters"
            )
        return out

    monkeypatch.setattr(pipeline_module, "finetune_view", spying_finetune)
    result = run_cemvc(tiny_data, tiny_cfg(tolerance=0.0, max_outer_iters=3))
    assert len(models_seen) == 2
    assert len(result.traces) == 3
    # and by structure: no two views' encoder or decoder vectors share memory
    vectors = [(v, p) for v, m in models_seen.items() for p in model_params(m)]
    for i, (v, p) in enumerate(vectors):
        for w, q in vectors[i + 1 :]:
            assert not np.shares_memory(p, q), (v, w)


@pytest.mark.parametrize("run", [run_cemvc, run_shared_baseline])
def test_each_round_finetunes_each_net_once_and_traces_the_loss_it_returns(tiny_data, run, monkeypatch):
    real_finetune = pipeline_module.finetune_view
    returned = []

    def spy(*args):
        returned.append(real_finetune(*args))
        return returned[-1]

    monkeypatch.setattr(pipeline_module, "finetune_view", spy)
    result = run(tiny_data, tiny_cfg(tolerance=0.0, max_outer_iters=3))
    nets = 1 if run is run_shared_baseline else tiny_data.n_views
    assert len(returned) == 3 * nets
    for t, trace in enumerate(result.traces):
        assert np.array_equal(trace.losses, np.resize(returned[t * nets : (t + 1) * nets], tiny_data.n_views))


def spy_encode(monkeypatch, edit=lambda call, rep: rep):
    """Record every `pipeline.encode` return, after `edit(call index, latent)`."""
    real_encode = pipeline_module.encode
    encoded = []

    def spy(model, x):
        encoded.append(edit(len(encoded), real_encode(model, x)))
        return encoded[-1]

    monkeypatch.setattr(pipeline_module, "encode", spy)
    return encoded


def test_embedding_is_the_last_round_latents_fused_under_mean_one_weights(tiny_noisy, monkeypatch):
    encoded = spy_encode(monkeypatch)
    cfg = tiny_cfg(tolerance=0.0, max_outer_iters=2)
    result = run_cemvc(tiny_noisy, cfg)
    w = result.traces[-1].weights
    assert w.min() != w.max()  # so the per-block scaling shows
    last = encoded[-tiny_noisy.n_views :]
    assert (result.embedding == np.hstack(last) * np.repeat(w / w.mean(), cfg.latent_dim)).all()

    encoded.clear()
    shared = run_shared_baseline(tiny_noisy, cfg)
    assert len(encoded) == len(shared.traces) + 1  # one net, one encoding per round
    assert np.array_equal(shared.embedding, encoded[-1])


def test_a_non_finite_latent_stops_the_fit_before_finetuning(tiny_noisy, monkeypatch):
    n_views = tiny_noisy.n_views

    def poison(call, rep):
        if call == n_views + 1:  # view 1 in round 1
            rep[0, 0] = np.nan
        return rep

    spy_encode(monkeypatch, poison)
    finetuned = []
    real_finetune = pipeline_module.finetune_view

    def counting_finetune(*args):
        finetuned.append(args[0].view_index)
        return real_finetune(*args)

    monkeypatch.setattr(pipeline_module, "finetune_view", counting_finetune)
    with pytest.raises(ValueError, match="non-finite"):
        run_cemvc(tiny_noisy, tiny_cfg(tolerance=0.0, max_outer_iters=3))
    assert finetuned == list(range(n_views))  # round 0 only


def test_each_view_finetunes_toward_centroids_in_the_targets_cluster_order(monkeypatch):
    # a net's soft labels against the centroids it trains toward must name
    # the target's clusters, or the clustering term pulls each point toward
    # another cluster's centroid
    preset = PRESETS["noisy3view"]
    data = preset_dataset(preset, 0, noisy=False)
    real_finetune = pipeline_module.finetune_view
    agreement = []

    def spy(model, x, target, centroids, cfg, seed, round_index):
        q = soft_assign(encode(model, x), centroids)
        agreement.append(np.mean(q.argmax(axis=1) == target.argmax(axis=1)))
        return real_finetune(model, x, target, centroids, cfg, seed, round_index)

    monkeypatch.setattr(pipeline_module, "finetune_view", spy)
    run_cemvc(data, replace(preset.pipeline, tolerance=0.0, max_outer_iters=2))
    assert len(agreement) == 2 * data.n_views
    assert min(agreement) >= 0.9, agreement


def test_fit_on_sparse_label_codes_scores_one_column_per_label(tiny_data):
    codes = np.array([1000, -7, 17])[tiny_data.labels]
    result = run_cemvc(MultiViewDataset(tiny_data.views, codes), tiny_cfg())
    assert result.metrics.confusion.shape == (3, 3)
    assert result.metrics.acc == run_cemvc(tiny_data, tiny_cfg()).metrics.acc


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


def assert_same_fit(a, b):
    assert a.mode == b.mode
    for name in ("labels", "soft_labels", "embedding"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert len(a.traces) == len(b.traces)
    for ta, tb in zip(a.traces, b.traces):
        for f in fields(RoundTrace):
            assert np.array_equal(getattr(ta, f.name), getattr(tb, f.name), equal_nan=True), f.name


def test_ablation_pretrains_each_view_once_and_equals_standalone_runs(tiny_noisy, monkeypatch):
    real_pretrain = pipeline_module.pretrain
    made = []

    def counting_pretrain(*args, **kwargs):
        made.append(real_pretrain(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(pipeline_module, "pretrain", counting_pretrain)
    cfg = tiny_cfg(seed=2, max_outer_iters=3, tolerance=0.0)
    results = run_ablation(tiny_noisy, cfg)
    assert len(made) == tiny_noisy.n_views  # once per view, not once per view and mode
    monkeypatch.undo()

    # every mode has finetuned its copies; the pretrained originals are untouched
    _, fresh, _ = _pretrain_inputs(tiny_noisy, cfg)
    for original, again in zip(made, fresh):
        for p, q in zip(model_params(original), model_params(again)):
            assert np.array_equal(p, q)
    for mode, result in results.items():
        assert_same_fit(result, run_cemvc(tiny_noisy, replace(cfg, weighting_mode=mode)))


def spy_pretrain(monkeypatch):
    """Record the input of every pretrain call."""
    real_pretrain = pipeline_module.pretrain
    seen = []

    def spy(x, *args, **kwargs):
        seen.append(x.copy())
        return real_pretrain(x, *args, **kwargs)

    monkeypatch.setattr(pipeline_module, "pretrain", spy)
    return seen


def _offset_scaled_with_a_constant_column(data):
    a, b = data.views
    return MultiViewDataset([50.0 * a + 7.0, np.column_stack([b, np.full(len(b), 3.5)])], data.labels)


def test_each_net_sees_its_view_standardized(tiny_data, monkeypatch):
    data = _offset_scaled_with_a_constant_column(tiny_data)
    seen = spy_pretrain(monkeypatch)
    run_cemvc(data, tiny_cfg(tolerance=1.0))
    assert len(seen) == data.n_views
    for x, view in zip(seen, data.views):
        assert x.shape == view.shape
        varying = np.ptp(view, axis=0) > 0
        np.testing.assert_allclose(x[:, varying].mean(axis=0), 0.0, rtol=0, atol=1e-12)
        np.testing.assert_allclose(x[:, varying].std(axis=0), 1.0, rtol=1e-12, atol=0)
        assert np.all(x[:, ~varying] == 0.0)
    assert np.ptp(data.views[1][:, -1]) == 0 and np.all(seen[1][:, -1] == 0.0)


def test_the_shared_net_sees_the_standardized_views_side_by_side(tiny_data, monkeypatch):
    data = _offset_scaled_with_a_constant_column(tiny_data)
    seen = spy_pretrain(monkeypatch)
    run_cemvc(data, tiny_cfg(tolerance=1.0))
    run_shared_baseline(data, tiny_cfg(tolerance=1.0))
    *per_view, shared = seen
    assert np.array_equal(shared, np.hstack(per_view))


def test_seconds_include_the_pretraining_each_fit_used(tiny_noisy, slow_pretrain):
    # every weighting mode of the ablation is charged the one shared pretraining
    cfg = tiny_cfg(max_outer_iters=1)
    n_views = tiny_noisy.n_views
    assert _pretrain_inputs(tiny_noisy, cfg)[2] >= slow_pretrain * n_views
    assert run_cemvc(tiny_noisy, cfg).seconds >= slow_pretrain * n_views
    assert run_shared_baseline(tiny_noisy, cfg).seconds >= slow_pretrain
    results = run_ablation(tiny_noisy, cfg)
    assert set(results) == set(WEIGHT_MODES)
    for result in results.values():
        assert result.seconds >= slow_pretrain * n_views


def test_ablation_ignores_the_configured_weighting_mode(tiny_noisy):
    cfg = tiny_cfg(seed=1, max_outer_iters=2, tolerance=0.0)
    by_nmi = run_ablation(tiny_noisy, replace(cfg, weighting_mode="nmi"))
    by_enmi_ce = run_ablation(tiny_noisy, replace(cfg, weighting_mode="enmi_ce"))
    assert list(by_nmi) == list(by_enmi_ce) == list(WEIGHT_MODES)
    for mode in WEIGHT_MODES:
        assert_same_fit(by_nmi[mode], by_enmi_ce[mode])


def test_ablation_modes_agree_on_easy_symmetric_data(tiny_data):
    # well-separated two-view data: every mode should land on the same partition
    results = run_ablation(tiny_data, tiny_cfg())
    from cemvc.metrics import clustering_accuracy

    assert clustering_accuracy(results["nmi"].labels, results["enmi_ce"].labels) == 1.0
    assert clustering_accuracy(results["enmi"].labels, results["enmi_ce"].labels) == 1.0


def test_ablation_modes_identical_on_duplicated_views():
    # an exact copy of a view levels the per-view scores, so every mode
    # weights the blocks (near-)equally and lands on the same partition
    base = synth_multiview(90, 3, (5,), (7.0,), seed=4)
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
def test_trace_weights_come_from_reported_nmis(tiny_noisy, mode, numerator):
    # the noise view's agreement is fractional, so the check is not 1 == 1
    result = run_cemvc(tiny_noisy, tiny_cfg(weighting_mode=mode, tolerance=0.0, max_outer_iters=3))
    assert len(result.traces) == 3
    for trace in result.traces:
        assert np.array_equal(trace.weights, numerator(trace.nmi_to_unified) + WEIGHT_FLOOR)


def _degenerate_data(
    seed=7, d1_view=False, constant_column=False, constant_view=False, repeats=1, n=60
) -> MultiViewDataset:
    """Two 5-d views of 60 three-class samples, made degenerate as asked.

    The first view keeps only its first column, and/or has it set to a
    constant; the second view becomes constant; each row is repeated
    `repeats` times; and the first n rows are kept.
    """
    base = synth_multiview(60, 3, (5, 5), (7.0, 7.0), seed=seed)
    a, b = base.views
    if d1_view:
        a = a[:, :1]
    if constant_column:
        a = a.copy()
        a[:, 0] = 2.5
    if constant_view:
        b = np.full_like(b, 4.0)
    rows = np.repeat(np.arange(60 // repeats), repeats)[:n]
    return MultiViewDataset([a[rows], b[rows]], base.labels[rows])


def _assert_runs_to_the_cap(data: MultiViewDataset, run) -> None:
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


DEGENERATE_CASES = {
    "d1_view": dict(d1_view=True),
    "constant_column": dict(constant_column=True),
    "constant_view": dict(constant_view=True),
    "triplicated_rows": dict(repeats=3),
    "n_eq_k": dict(n=3),
    "n_eq_k_plus_1": dict(n=4),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("run", [run_cemvc, run_shared_baseline], ids=["cemvc", "shared"])
@pytest.mark.parametrize("case", list(DEGENERATE_CASES))
def test_degenerate_inputs_run_to_the_cap(case, run):
    _assert_runs_to_the_cap(_degenerate_data(**DEGENERATE_CASES[case]), run)


# Budget fixed before the first run: 20 derandomized examples, data seeds 0-99.
@pytest.mark.filterwarnings("error::RuntimeWarning")
@given(
    seed=st.integers(min_value=0, max_value=99),
    d1_view=st.booleans(),
    constant_column=st.booleans(),
    constant_view=st.booleans(),
    repeats=st.integers(min_value=1, max_value=3),
    n=st.sampled_from([3, 4, 60]),
    shared=st.booleans(),
)
@settings(max_examples=20, deadline=None, derandomize=True)
def test_degenerate_input_combinations_run_to_the_cap_property(
    seed, d1_view, constant_column, constant_view, repeats, n, shared
):
    data = _degenerate_data(seed, d1_view, constant_column, constant_view, repeats, n)
    _assert_runs_to_the_cap(data, run_shared_baseline if shared else run_cemvc)


def test_config_validation():
    with pytest.raises(ValueError, match="clusters"):
        PipelineConfig(n_clusters=1)
    with pytest.raises(ValueError, match="tolerance"):
        PipelineConfig(n_clusters=3, tolerance=1.5)
    with pytest.raises(ValueError, match="mode"):
        PipelineConfig(n_clusters=3, weighting_mode="bogus")
    for train in ({"pretrain_epochs": 5}, None):
        with pytest.raises(ValueError, match=f"^{re.escape(f'train must be a TrainConfig, got {train!r}')}$"):
            PipelineConfig(n_clusters=3, train=train)
    for hidden in ((0,), (-2,)):
        with pytest.raises(ValueError, match="hidden_dims"):
            PipelineConfig(n_clusters=3, hidden_dims=hidden)
    for field, value in (
        ("n_clusters", 3.0),
        ("latent_dim", 2.5),
        ("latent_dim", True),
        ("max_outer_iters", 1.5),
        ("seed", np.float64(8)),
    ):
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got"):
            PipelineConfig(**{"n_clusters": 3, field: value})
    with pytest.raises(ValueError, match=r"^hidden_dims\[1\] must be an integer, got 8.5"):
        PipelineConfig(n_clusters=3, hidden_dims=(8, 8.5))
    for field, value in (
        ("pretrain_epochs", 2.5),
        ("finetune_steps_per_round", True),
        ("batch_size", 16.0),
    ):
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got"):
            TrainConfig(**{field: value})
    with pytest.raises(ValueError, match=r"^seed must be an integer, got 1.5"):
        PipelineConfig(n_clusters=3, seed=1.5)
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1"):
        PipelineConfig(n_clusters=3, seed=-1)
    with pytest.raises(ValueError, match=r"^hidden_dims must be a list or tuple, got 8"):
        PipelineConfig(n_clusters=3, hidden_dims=8)
    for value in (None, "0.1", True, float("nan"), float("inf")):
        with pytest.raises(ValueError, match=r"^tolerance must be a finite real number, got"):
            PipelineConfig(n_clusters=3, tolerance=value)
        for field in ("learning_rate", "clustering_weight"):
            with pytest.raises(ValueError, match=f"^{field} must be a finite real number, got"):
                TrainConfig(**{field: value})
    # numpy integers are integers, numpy floats and ints are real numbers,
    # and a hidden_dims list becomes a tuple
    cfg = PipelineConfig(n_clusters=np.int64(3), hidden_dims=[np.int32(4)], seed=np.int64(0))
    assert cfg.hidden_dims == (4,)
    PipelineConfig(n_clusters=3, tolerance=0)
    TrainConfig(pretrain_epochs=np.int64(2), batch_size=np.uint8(16), learning_rate=np.float32(0.01))
    TrainConfig(clustering_weight=0)


# --- the conditional-entropy sweep runs in one background thread ----------


@pytest.mark.parametrize("run", [run_cemvc, run_ablation])
def test_scoring_after_the_rounds_finetuning_changes_no_value(run, monkeypatch):
    preset = PRESETS["noisy3view"]
    data = preset_dataset(preset, 0, noisy=True)
    reference = run(data, preset.pipeline)

    # hold each round's sweep until every view of that round has finetuned
    real_score, real_finetune = pipeline_module.total_conditional_entropy, pipeline_module.finetune_view
    finetuned = threading.Event()
    order = []

    def finetune_then_signal(model, *args):
        loss = real_finetune(model, *args)
        if model.view_index == data.n_views - 1:
            order.append("finetuned")
            finetuned.set()
        return loss

    def late_score(reps):
        assert finetuned.wait(timeout=60)
        finetuned.clear()
        order.append("scored")
        return real_score(reps)

    monkeypatch.setattr(pipeline_module, "finetune_view", finetune_then_signal)
    monkeypatch.setattr(pipeline_module, "total_conditional_entropy", late_score)
    late = run(data, preset.pipeline)
    if run is run_cemvc:
        late, reference = {"fit": late}, {"fit": reference}
    for mode in reference:
        assert_same_fit(late[mode], reference[mode])
    assert order == ["finetuned", "scored"] * sum(len(fit.traces) for fit in late.values())


def test_switching_threads_every_microsecond_changes_no_value(tiny_noisy):
    cfg = tiny_cfg(tolerance=0.0, max_outer_iters=3)
    reference = run_cemvc(tiny_noisy, cfg)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        switching = run_cemvc(tiny_noisy, cfg)
    finally:
        sys.setswitchinterval(interval)
    assert_same_fit(switching, reference)


class ScoringFailed(Exception):
    pass


def test_an_exception_in_the_sweep_is_raised_from_the_fit_and_its_thread_joined(tiny_data, monkeypatch):
    raised = ScoringFailed("scoring failed")
    seen_errstate = []

    def failing_score(reps):
        seen_errstate.append(np.geterr()["divide"])
        raise raised

    monkeypatch.setattr(pipeline_module, "total_conditional_entropy", failing_score)
    before = threading.active_count()
    with np.errstate(divide="raise"), pytest.raises(ScoringFailed) as err:
        run_cemvc(tiny_data, tiny_cfg(tolerance=0.0))
    assert err.value is raised
    assert threading.active_count() == before
    assert seen_errstate == ["raise"]  # the sweep runs under the caller's numpy error state


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_warning_turned_error_in_the_sweep_is_raised_from_the_fit(tiny_data, monkeypatch):
    def warning_score(reps):
        warnings.warn("sweep overflowed", RuntimeWarning)

    monkeypatch.setattr(pipeline_module, "total_conditional_entropy", warning_score)
    before = threading.active_count()
    with pytest.raises(RuntimeWarning, match="sweep overflowed"):
        run_cemvc(tiny_data, tiny_cfg(tolerance=0.0))
    assert threading.active_count() == before


@pytest.mark.parametrize("run", [run_cemvc, run_shared_baseline], ids=["cemvc", "shared"])
def test_each_scored_round_starts_one_thread_and_the_shared_baseline_none(tiny_data, run, monkeypatch):
    real_start = threading.Thread.start
    started = []

    def counting_start(thread):
        started.append(thread.name)
        real_start(thread)

    monkeypatch.setattr(threading.Thread, "start", counting_start)
    result = run(tiny_data, tiny_cfg(tolerance=0.0, max_outer_iters=3))
    assert len(started) == (0 if run is run_shared_baseline else len(result.traces))
