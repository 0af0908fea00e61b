"""Acceptance gate: one test per criterion, one printed line per criterion.

The expensive clustering runs are shared through the session-scoped
`bench_runs` fixture in conftest.py, the `cemvc bench` grid; each criterion
then checks its own thresholds; criteria 2 and 3 read round 0 of its noisy
enmi_ce runs, and criteria 2 and 6 sum their cell's `result.seconds`, each
fit's own pretraining included.
Run with `pytest tests/test_acceptance.py -v -s`.
"""

import itertools
import time

import numpy as np
import pytest

from cemvc.bench import PRESETS, preset_dataset
from cemvc.infometrics import kde_entropy, mutual_information, nmi
from cemvc.metrics import clustering_accuracy, confusion_matrix
from cemvc.model import model_params, _loss_and_grads

PRESET = PRESETS["noisy3view"]
N_SEEDS = 20
GAUSSIAN_ENTROPY_1D = 0.5 * np.log(2.0 * np.pi * np.e)


def report(criterion: int, description: str, passed: bool, detail: str = "") -> None:
    tag = "PASS" if passed else "FAIL"
    line = f"[{tag}] criterion {criterion}: {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert passed, line


def test_criterion_1_entropy_oracles():
    start = time.time()
    rng = np.random.default_rng(0)
    normal = kde_entropy(rng.standard_normal((2000, 1)))
    uniform = kde_entropy(rng.random((2000, 1)))
    x = rng.standard_normal((500, 3))
    scale_errs = []
    for c in (0.1, 2.0, -7.5):
        expected = kde_entropy(x) + 3 * np.log(abs(c))
        scale_errs.append(abs(kde_entropy(c * x) - expected))
    elapsed = time.time() - start
    ok = (
        abs(normal - GAUSSIAN_ENTROPY_1D) <= 0.1
        and abs(uniform) <= 0.1
        and max(scale_errs) <= 1e-9
        and elapsed < 5.0
    )
    report(
        1,
        "KDE entropy oracles (normal, uniform, scaling law)",
        ok,
        f"normal={normal:.4f} uniform={uniform:.4f} "
        f"scale_err={max(scale_errs):.2e} t={elapsed:.1f}s",
    )


def test_criterion_2_conditional_entropy_ordering(bench_runs):
    # round 0 scores the views and updates the weights once; the timed
    # cell's fits do that round and the rest of each run
    fits = bench_runs["enmi_ce", "noisy"]
    elapsed = sum(fit.result.seconds for fit in fits)
    first = [fit.result.traces[0] for fit in fits]
    hits = sum(int(np.argmax(t.cond_entropies) == 2) for t in first)
    ok = hits >= 19 and elapsed < 120.0
    report(
        2,
        "noise view has maximal conditional entropy at first scoring",
        ok,
        f"{hits}/{N_SEEDS} seeds, t={elapsed:.0f}s",
    )


def test_criterion_3_weight_ordering(bench_runs):
    hits = 0
    for fit in bench_runs["enmi_ce", "noisy"]:
        w = fit.result.traces[0].weights
        hits += int(np.argmin(w) == 2 and w[2] < min(w[0], w[1]))
    ok = hits >= 19
    report(
        3,
        "noise view weight is the strict minimum after the first update",
        ok,
        f"{hits}/{N_SEEDS} seeds",
    )


def test_criterion_4_gradient_correctness():
    start = time.time()
    worst = 0.0
    for trial in range(20):
        rng = np.random.default_rng((4000, trial))
        from cemvc.model import build_view_model

        model = build_view_model(4, (5,), 2, 0, rng)
        for net in (model.encoder, model.decoder):
            for layer in net.layers:
                layer.bias += 0.3 * rng.standard_normal(layer.bias.shape)
        x = rng.standard_normal((8, 4))
        centroids = rng.standard_normal((2, 2))
        target = rng.random((8, 2))
        target /= target.sum(axis=1, keepdims=True)
        for lam in (0.0, 0.3):  # reconstruction-only and combined losses
            _, analytic = _loss_and_grads(
                model, x, target if lam else None, centroids if lam else None, lam
            )
            params = model_params(model)
            h = 1e-5
            for p, g in zip(params, analytic):
                it = np.nditer(p, flags=["multi_index"])
                for _ in it:
                    idx = it.multi_index
                    orig = p[idx]
                    p[idx] = orig + h
                    up = _loss_and_grads(
                        model, x, target if lam else None,
                        centroids if lam else None, lam,
                    )[0]
                    p[idx] = orig - h
                    down = _loss_and_grads(
                        model, x, target if lam else None,
                        centroids if lam else None, lam,
                    )[0]
                    p[idx] = orig
                    fd = (up - down) / (2 * h)
                    rel = abs(g[idx] - fd) / max(abs(g[idx]), abs(fd), 1e-6)
                    worst = max(worst, rel)
    elapsed = time.time() - start
    ok = worst <= 1e-4 and elapsed < 60.0
    report(
        4,
        "analytic gradients match central finite differences on 20 instances",
        ok,
        f"max_rel_err={worst:.2e} t={elapsed:.0f}s",
    )


def exhaustive_accuracy(pred, truth):
    table = confusion_matrix(pred, truth)
    k = max(table.shape)
    padded = np.zeros((k, k), dtype=table.dtype)
    padded[: table.shape[0], : table.shape[1]] = table
    best = 0
    for perm in itertools.permutations(range(k)):
        best = max(best, sum(padded[i, perm[i]] for i in range(k)))
    return best / len(pred)


def test_criterion_5_metric_oracles():
    rng = np.random.default_rng(5)
    agree = True
    for _ in range(1000):
        n = int(rng.integers(2, 51))
        pred = rng.integers(0, int(rng.integers(1, 7)), size=n)
        truth = rng.integers(0, int(rng.integers(1, 7)), size=n)
        if abs(clustering_accuracy(pred, truth) - exhaustive_accuracy(pred, truth)) > 1e-12:
            agree = False
            break
    labels = np.array([0, 1, 2, 0, 1, 2])
    hand_a = np.array([0, 0, 1, 1])
    hand_b = np.array([1, 1, 0, 0])
    ok = (
        agree
        and nmi(labels, labels) == 1.0
        and nmi(np.zeros(6, dtype=int), labels) == 0.0
        and abs(mutual_information(hand_a, hand_b) - np.log(2)) < 1e-12
        and nmi(hand_a, hand_b) == 1.0
    )
    report(5, "Hungarian accuracy matches exhaustive search; NMI/MI oracles", ok)


def test_criterion_6_end_to_end_clean(bench_runs):
    runs = [fit.result for fit in bench_runs["enmi_ce", "clean"]]
    elapsed = sum(fit.result.seconds for fit in bench_runs["enmi_ce", "clean"])
    good = sum(
        int(r.metrics.acc >= 0.95 and r.metrics.nmi >= 0.90) for r in runs
    )
    accs = [r.metrics.acc for r in runs]
    ok = good >= 18 and elapsed <= 600.0
    report(
        6,
        "clean benchmark reaches ACC >= 0.95 and NMI >= 0.90",
        ok,
        f"{good}/{N_SEEDS} seeds, mean_acc={np.mean(accs):.3f}, t={elapsed:.0f}s",
    )


def test_criterion_7_noise_robustness_trend(bench_runs):
    cemvc_drops = np.array(
        [
            c.result.metrics.acc - n.result.metrics.acc
            for c, n in zip(bench_runs["enmi_ce", "clean"], bench_runs["enmi_ce", "noisy"])
        ]
    )
    shared_drops = np.array(
        [
            c.result.metrics.acc - n.result.metrics.acc
            for c, n in zip(bench_runs["shared", "clean"], bench_runs["shared", "noisy"])
        ]
    )
    strict = int(np.sum(shared_drops > cemvc_drops))
    ok = cemvc_drops.mean() <= 0.05 and strict >= 16
    report(
        7,
        "decoupled run resists the noise view better than the shared baseline",
        ok,
        f"cemvc_drop={cemvc_drops.mean():.3f} shared_drop={shared_drops.mean():.3f} "
        f"strict={strict}/{N_SEEDS}",
    )


def test_criterion_8_weighting_ablation_trend(bench_runs):
    means = {}
    for mode in ("nmi", "enmi", "enmi_ce"):
        means[mode] = float(
            np.mean([fit.result.metrics.acc for fit in bench_runs[mode, "noisy"]])
        )
    ok = (
        means["enmi_ce"] >= means["enmi"]
        and means["enmi"] >= means["nmi"]
        and means["enmi_ce"] - means["nmi"] >= 0.01
    )
    report(
        8,
        "weighting ablation ordering enmi_ce >= enmi >= nmi with >= 0.01 gap",
        ok,
        f"nmi={means['nmi']:.4f} enmi={means['enmi']:.4f} "
        f"enmi_ce={means['enmi_ce']:.4f}",
    )


def test_criterion_9_parameter_decoupling(monkeypatch):
    import hashlib

    import cemvc.pipeline as pipeline_module
    from dataclasses import replace

    real_finetune = pipeline_module.finetune_view
    seen = {}
    violations = []
    calls = 0

    def checksum(model):
        digest = hashlib.sha256()
        for p in model_params(model):
            digest.update(p.tobytes())
        return digest.hexdigest()

    def spy(model, x, target, centroids, cfg, seed, round_index):
        nonlocal calls
        calls += 1
        seen[model.view_index] = model
        before = {v: checksum(m) for v, m in seen.items() if v != model.view_index}
        out = real_finetune(model, x, target, centroids, cfg, seed, round_index)
        for v, digest in before.items():
            if checksum(seen[v]) != digest:
                violations.append((model.view_index, v))
        return out

    monkeypatch.setattr(pipeline_module, "finetune_view", spy)
    data = preset_dataset(PRESET, seed=0, noisy=True)
    cfg = replace(PRESET.pipeline, seed=0, tolerance=0.0, max_outer_iters=3)
    from cemvc.pipeline import run_cemvc

    result = run_cemvc(data, cfg)
    ok = not violations and calls == 3 * data.n_views and len(result.traces) == 3
    report(
        9,
        "finetuning one view never moves another view's parameter bytes",
        ok,
        f"{calls} finetune calls checked, violations={violations}",
    )


def test_criterion_10_cli_determinism(tmp_path):
    import json

    from cemvc.cli import main
    from cemvc.data import save_multiview

    data = preset_dataset(PRESET, seed=1, noisy=True)
    manifest = save_multiview(data, tmp_path / "ds")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps(
            {
                "n_clusters": 3,
                "latent_dim": 4,
                "hidden_dims": [8],
                "max_outer_iters": 2,
                "train": {"pretrain_epochs": 25, "finetune_steps_per_round": 5},
            }
        )
    )
    payloads = []
    for sub in ("r1", "r2"):
        out = tmp_path / sub
        code = main(
            [
                "run", "--data", str(manifest), "--out", str(out),
                "--mode", "cemvc", "--config", str(cfg_path), "--seed", "3",
            ]
        )
        assert code == 0
        run_dir = next(p for p in out.iterdir() if p.is_dir())
        payloads.append(
            (
                (run_dir / "report.json").read_bytes(),
                (run_dir / "embedding.csv").read_bytes(),
            )
        )
    ok = payloads[0] == payloads[1]
    report(10, "identical cmd_run invocations produce byte-identical reports", ok)
