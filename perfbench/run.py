"""Benchmark runner for cemvc: one workload, one seed, one process.

    python3 perfbench/run.py --workload noisy3view --seed 0 --seconds 24 --trace 0

Run from the repository root (the program is imported from `src/`). The
runner writes the workload's inputs as CSV manifests, then drives the
public API the way `cemvc run` does: `load_multiview`, then `run_cemvc`
or `run_shared_baseline`, checking every fit's output. The last stdout
line is one JSON object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics, with tracing off. --trace 1
reports the per-layer metrics from a fixed pass traced from outside (see
tracer.py). Per-run records (machine stamp, input digests, per-fit label
digests) and the traced spans go to perfbench/out/. See README.md.
"""

from __future__ import annotations

import os
import sys

# BLAS threads are pinned before numpy loads. One thread never exceeds
# nproc, keeps a 2-core shared machine steady and leaves a core to the system.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from scipy.optimize import linear_sum_assignment  # noqa: E402

from tracer import PeakTracer, SpanTracer  # noqa: E402
from workloads import WORKLOADS, Workload, fit_plan, write_inputs  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPS = 12    # set-ups per run, each in a new process; the median is reported
WARM_UP_ROWS = 300
MB = float(1 << 20)
LAYERS = ("pipeline", "model", "numcore", "infometrics", "clustering", "weighting", "metrics")


# glibc malloc settings pinned before the measured fits. With glibc's dynamic
# thresholds, some processes fell by accident of heap layout into a mode
# where every training step gave heap pages back to the OS and faulted
# them in again (about 484k minor faults per shared-noisy fit, 1.7x slower),
# and stayed there for every fit. Pinned, every process behaves like the
# fast ones: the heap is never trimmed, and blocks of 32 MiB or more (the
# cap of glibc's own dynamic threshold) are still mmapped. The traced
# run makes one fit before pinning and reports its minor faults, so that
# the churn, a defect of the program, stays visible.
MALLOC_TRIM_THRESHOLD = 1 << 30
MALLOC_MMAP_THRESHOLD = 32 << 20


def pin_allocator() -> bool:
    """Apply the malloc settings above; False where glibc is not in use."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return False
    m_trim_threshold, m_mmap_threshold = -1, -3  # from glibc's malloc.h
    return bool(mallopt(m_trim_threshold, MALLOC_TRIM_THRESHOLD)) and bool(
        mallopt(m_mmap_threshold, MALLOC_MMAP_THRESHOLD)
    )


class FitError(Exception):
    """A fit whose output fails the benchmark's checks."""


# ---------------------------------------------------------------- set-up

# Run in a fresh interpreter, so that set-up includes importing cemvc with
# the numpy and scipy it needs. Interpreter start-up itself is not counted.
SET_UP_CHILD = """\
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import cemvc
t1 = time.perf_counter()
for manifest in sys.argv[2:]:
    cemvc.load_multiview(manifest)
t2 = time.perf_counter()
print(json.dumps([t2 - t0, t2 - t1]))
"""


def time_set_up(manifests: list[Path], state: dict) -> None:
    """Time `import cemvc` plus loading every manifest in a new process.

    Appends to state["setup_s"] and state["load_s"]. The child inherits the
    BLAS thread settings; the runner waits for it, and kills it on timeout.
    """
    out = subprocess.run(
        [sys.executable, "-c", SET_UP_CHILD, str(ROOT / "src"), *map(str, manifests)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    setup_s, load_s = json.loads(out.stdout.strip().splitlines()[-1])
    state["setup_s"].append(setup_s)
    state["load_s"].append(load_s)


# ---------------------------------------------------------------- checks


def _accuracy(pred: np.ndarray, truth: np.ndarray) -> float:
    kp, kt = int(pred.max()) + 1, int(truth.max()) + 1
    table = np.bincount(pred * kt + truth, minlength=kp * kt).reshape(kp, kt)
    rows, cols = linear_sum_assignment(table, maximize=True)
    return float(table[rows, cols].sum()) / pred.size


def _entropy(counts: np.ndarray) -> float:
    p = counts[counts > 0] / counts.sum()
    return float(-(p * np.log(p)).sum())


def _nmi(pred: np.ndarray, truth: np.ndarray) -> float:
    kt = int(truth.max()) + 1
    joint = np.bincount(pred * kt + truth)
    h_p = _entropy(np.bincount(pred))
    h_t = _entropy(np.bincount(truth))
    if h_p + h_t == 0.0:
        return 0.0
    return 2.0 * (h_p + h_t - _entropy(joint)) / (h_p + h_t)


def check_result(result, truth: np.ndarray, k: int) -> tuple[float, float]:
    """Validate one fit's output; return the benchmark's own (ACC, NMI)."""
    labels = np.asarray(result.labels)
    n = truth.size
    if labels.shape != (n,) or not np.issubdtype(labels.dtype, np.integer):
        raise FitError(f"labels have shape {labels.shape} and dtype {labels.dtype}, expected ({n},) integers")
    if labels.min() < 0 or labels.max() >= k:
        raise FitError(f"labels span [{labels.min()}, {labels.max()}], outside [0, {k})")
    emb = np.asarray(result.embedding, dtype=np.float64)
    if emb.ndim != 2 or emb.shape[0] != n or not np.isfinite(emb).all():
        raise FitError(f"embedding of shape {emb.shape} is not a finite ({n}, d) matrix")
    labels = labels.astype(np.int64)
    acc, nmi = _accuracy(labels, truth), _nmi(labels, truth)
    reported = result.metrics
    if reported is None or abs(reported.acc - acc) > 1e-9 or abs(reported.nmi - nmi) > 1e-9:
        raise FitError(f"reported metrics {reported} disagree with ACC {acc}, NMI {nmi}")
    return acc, nmi


# ---------------------------------------------------------------- fits


def make_config(cemvc, wl: Workload, seed: int, pipeline=None, train=None):
    return cemvc.PipelineConfig(
        n_clusters=wl.n_clusters,
        seed=seed,
        train=cemvc.TrainConfig(**{**wl.train, **(train or {})}),
        **{**wl.pipeline, **(pipeline or {})},
    )


def fit(cemvc, wl: Workload, datasets, truths, workload_seed: int, index: int) -> dict:
    """Run and check the index-th fit of the schedule; return its record."""
    j, seed = fit_plan(wl, workload_seed, index)
    cfg = make_config(cemvc, wl, seed)
    run = cemvc.run_cemvc if wl.method == "cemvc" else cemvc.run_shared_baseline
    rec = {"fit": index, "dataset": j, "seed": seed, "ok": False, "error": None}
    faults0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    t0 = time.perf_counter()
    try:
        result = run(datasets[j], cfg)
    except Exception as exc:  # a raising fit is counted as failed, not fatal
        rec["seconds"] = time.perf_counter() - t0
        rec["error"] = f"{type(exc).__name__}: {exc}"
        return rec
    rec["seconds"] = time.perf_counter() - t0
    rec["minor_faults"] = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults0
    rounds = len(result.traces)
    rec.update(
        rounds=rounds,
        converged=rounds < cfg.max_outer_iters,
        labels_sha256=hashlib.sha256(np.asarray(result.labels, dtype=np.int64).tobytes()).hexdigest(),
    )
    try:
        rec["acc"], rec["nmi"] = check_result(result, truths[j], wl.n_clusters)
    except FitError as exc:
        rec["error"] = str(exc)
        return rec
    if result.traces:
        w = np.asarray(result.traces[-1].weights, dtype=np.float64)
        rec["noise_weight_share"] = float(w[-1] / w.sum())
    rec["ok"] = True
    return rec


def warm_up(cemvc, wl: Workload, datasets) -> float:
    """One short untimed fit on a slice of the first dataset.

    It takes first-call costs (BLAS start-up, first use of each code path)
    out of the timed fits; without it the first fit ran about 1.3x slower.
    """
    rows = slice(0, WARM_UP_ROWS)
    first = datasets[0]
    small = cemvc.MultiViewDataset([v[rows] for v in first.views], first.labels[rows], first.name)
    cfg = make_config(cemvc, wl, 0, pipeline={"max_outer_iters": 2},
                      train={"pretrain_epochs": 5, "finetune_steps_per_round": 2})
    run = cemvc.run_cemvc if wl.method == "cemvc" else cemvc.run_shared_baseline
    t0 = time.perf_counter()
    run(small, cfg)
    return time.perf_counter() - t0


# ---------------------------------------------------------------- modes


def timed_run(cemvc, wl, datasets, truths, seed, seconds, manifests, state) -> dict:
    """Make fits along the schedule for `seconds` of summed fit time.

    The first `wl.quality_fits` fits are always made. After them, a fit is
    started only if, at the median fit time so far, it ends within
    `seconds`, so a run overruns only when its required fits do.

    The SETUP_REPS set-ups are spread over the run: the first before fit 0,
    the others at even steps of fit time. The host's speed drifts in phases
    of tens of seconds, and set-ups made back to back all land in one phase.
    """
    records = []
    fit_s = 0.0
    while len(records) < wl.quality_fits or (
        fit_s + statistics.median(r["seconds"] for r in records) <= seconds
    ):
        while len(state["setup_s"]) < SETUP_REPS and fit_s >= len(state["setup_s"]) * seconds / SETUP_REPS:
            time_set_up(manifests, state)
        records.append(fit(cemvc, wl, datasets, truths, seed, len(records)))
        fit_s += records[-1]["seconds"]
    while len(state["setup_s"]) < SETUP_REPS:
        time_set_up(manifests, state)
    state["fits"] = records
    # Quality covers a fixed prefix of the schedule, so that it depends on
    # the seed and the code only, never on how many fits the clock allowed.
    ok = [r for r in records[: wl.quality_fits] if r["ok"]]
    times = [r["seconds"] for r in records]
    return {
        "fit_s_p50": (statistics.median(times), "s"),
        "samples_per_s": (wl.n_samples * len(records) / sum(times), "samples/s"),
        "setup_s": (statistics.median(state["setup_s"]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB, "MB"),
        "acc_mean": (statistics.fmean(r["acc"] for r in ok) if ok else 0.0, "fraction"),
        "nmi_mean": (statistics.fmean(r["nmi"] for r in ok) if ok else 0.0, "fraction"),
        "fit_ok_frac": (sum(r["ok"] for r in records) / len(records), "fraction"),
    }


def _determinism_failures(plain: list[dict], other: list[dict], what: str) -> None:
    for a, b in zip(plain, other):
        if b["ok"] and a.get("labels_sha256") != b.get("labels_sha256"):
            b["ok"] = False
            b["error"] = f"labels differ from the untraced fit under the {what}"


def traced_run(cemvc, wl, datasets, truths, seed, state) -> dict:
    """The first `wl.trace_fits` fits, each run untraced and then traced.

    Fit 0 runs first with glibc's allocator as the program leaves it, for
    `process.minor_faults_per_fit`; the allocator is pinned after it.
    Interleaving the untraced and traced fits keeps drift in machine speed
    out of the overhead figure. A last tracemalloc pass repeats fit 0 for
    the peak metrics.
    """
    unpinned_rec = fit(cemvc, wl, datasets, truths, seed, 0)
    state["allocator_pinned"] = pin_allocator()
    fits = range(wl.trace_fits)
    spans = SpanTracer()
    plain_recs, traced_recs = [], []
    for i in fits:
        plain_recs.append(fit(cemvc, wl, datasets, truths, seed, i))
        spans.fit = i
        with spans.active():
            traced_recs.append(fit(cemvc, wl, datasets, truths, seed, i))
    peaks = PeakTracer()
    with peaks.active():
        mem_recs = [fit(cemvc, wl, datasets, truths, seed, 0)]
    plain_s = sum(r["seconds"] for r in plain_recs)
    traced_s = sum(r["seconds"] for r in traced_recs)
    _determinism_failures(plain_recs, traced_recs, "span tracer")
    _determinism_failures(plain_recs, mem_recs, "tracemalloc pass")
    _determinism_failures(plain_recs, [unpinned_rec], "unpinned allocator")
    state["fits"] = [unpinned_rec] + plain_recs + traced_recs + mem_recs
    state["spans"] = spans

    nfit = len(fits)
    agg = spans.summary()

    def row(name):
        return agg.get(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "work": 0.0})

    def per_fit_s(name):
        return (row(name)["incl_s"] / nfit, "s")

    def calls(name):
        return (row(name)["calls"], "count")

    fit_time = sum(row(f"pipeline.{n}")["incl_s"] for n in ("run_cemvc", "run_shared_baseline"))
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, r in agg.items():
        layer_self[name.split(".")[0]] += r["self_s"]
    gflop = (row("numcore.forward")["work"] + row("numcore.backward")["work"]) / 1e9
    net_s = row("numcore.forward")["incl_s"] + row("numcore.backward")["incl_s"]
    ok_traced = [r for r in traced_recs if r["ok"]]
    load_s = statistics.median(state["load_s"])
    metrics = {
        "pipeline.rounds_mean": (statistics.fmean(r.get("rounds", 0) for r in traced_recs), "count"),
        "pipeline.converged_frac": (
            statistics.fmean(1.0 if r.get("converged") else 0.0 for r in traced_recs), "fraction"),
        "pipeline.self_s": (layer_self["pipeline"] / nfit, "s"),
        "model.pretrain_s": per_fit_s("model.pretrain"),
        "model.pretrain_calls": calls("model.pretrain"),
        "model.finetune_s": per_fit_s("model.finetune_view"),
        "model.finetune_calls": calls("model.finetune_view"),
        "model.encode_s": per_fit_s("model.encode"),
        "model.combined_loss_s": per_fit_s("model.combined_loss"),
        "model.pretrain_peak_mb": (peaks.peak_bytes.get("model.pretrain", 0) / MB, "MB"),
        "numcore.forward_s": per_fit_s("numcore.forward"),
        "numcore.forward_calls": calls("numcore.forward"),
        "numcore.backward_s": per_fit_s("numcore.backward"),
        "numcore.backward_calls": calls("numcore.backward"),
        "numcore.adam_step_s": per_fit_s("numcore.adam_step"),
        "numcore.adam_step_calls": calls("numcore.adam_step"),
        "numcore.train_gflop": (gflop, "GFLOP"),
        "numcore.achieved_gflop_s": (gflop / net_s if net_s else 0.0, "GFLOP/s"),
        "infometrics.cond_entropy_s": per_fit_s("infometrics.total_conditional_entropy"),
        "infometrics.cond_entropy_calls": calls("infometrics.total_conditional_entropy"),
        "infometrics.kde_entropy_s": per_fit_s("infometrics.kde_entropy"),
        "infometrics.kde_entropy_calls": calls("infometrics.kde_entropy"),
        "infometrics.kde_pairs": (row("infometrics.kde_entropy")["work"], "count"),
        "infometrics.cond_entropy_peak_mb": (
            peaks.peak_bytes.get("infometrics.total_conditional_entropy", 0) / MB, "MB"),
        "infometrics.nmi_s": per_fit_s("infometrics.nmi"),
        "infometrics.nmi_calls": calls("infometrics.nmi"),
        "clustering.kmeans_s": per_fit_s("clustering.kmeans"),
        "clustering.kmeans_calls": calls("clustering.kmeans"),
        "clustering.kmeans_restarts": calls("clustering.kmeans#nested"),
        "clustering.soft_assign_s": per_fit_s("clustering.soft_assign"),
        "clustering.target_distribution_s": per_fit_s("clustering.target_distribution"),
        "clustering.kmeans_peak_mb": (peaks.peak_bytes.get("clustering.kmeans", 0) / MB, "MB"),
        "weighting.update_weights_s": per_fit_s("weighting.update_weights"),
        "weighting.scale_representations_s": per_fit_s("weighting.scale_representations"),
        "weighting.noise_weight_share": (
            statistics.fmean(r["noise_weight_share"] for r in ok_traced) if ok_traced else 0.0, "fraction"),
        "data.load_s": (load_s, "s"),
        "data.load_mb_per_s": (state["input_bytes"] / MB / load_s, "MB/s"),
        "metrics.evaluate_s": per_fit_s("metrics.evaluate"),
        "trace.overhead_frac": (traced_s / plain_s - 1.0, "fraction"),
        "process.minor_faults_per_fit": (unpinned_rec.get("minor_faults", 0), "count"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = (layer_self[layer] / fit_time if fit_time else 0.0, "fraction")
    return metrics


# ---------------------------------------------------------------- stamp


def _blas_threads_seen() -> int | None:
    """Thread count reported by the OpenBLAS bundled with numpy, if found."""
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*"))
    for lib in libs:
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            func = getattr(handle, sym, None)
            if func is not None:
                func.restype = ctypes.c_int
                return int(func())
    return None


def machine_stamp() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "processor": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads_set": BLAS_THREADS,
        "blas_threads_seen": _blas_threads_seen(),
    }


# ---------------------------------------------------------------- main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "cemvc" / "__init__.py").is_file():
        print(f"error: the cemvc sources are missing under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # The timed run pins the allocator at once, the traced run after one fit.
    allocator_pinned = not args.trace and pin_allocator()
    wl = WORKLOADS[args.workload]
    tag = f"{wl.name}-seed{args.seed}"
    OUT.mkdir(exist_ok=True)
    inputs = OUT / f"inputs-{tag}-{os.getpid()}"
    try:
        manifests, digests, truths = write_inputs(wl, args.seed, inputs)
        state = {
            "input_bytes": sum(p.stat().st_size for p in inputs.rglob("*.csv")),
            "setup_s": [],
            "load_s": [],
            "allocator_pinned": allocator_pinned,
        }
        import cemvc
        datasets = [cemvc.load_multiview(p) for p in manifests]
        warm_s = warm_up(cemvc, wl, datasets)
        if args.trace:
            for _ in range(SETUP_REPS):
                time_set_up(manifests, state)
            metrics = traced_run(cemvc, wl, datasets, truths, args.seed, state)
        else:
            metrics = timed_run(cemvc, wl, datasets, truths, args.seed, args.seconds, manifests, state)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)

    fits = state["fits"]
    failed = sum(not r["ok"] for r in fits)
    record = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "machine": {**machine_stamp(), "allocator_pinned": state["allocator_pinned"]},
        "input_sha256": digests,
        "setup_s": state["setup_s"],
        "load_s": state["load_s"],
        "warm_up_s": warm_s,
        "fits": fits,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT / f"{tag}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if args.trace:
        with open(OUT / f"{tag}-spans.jsonl", "w", encoding="utf-8") as fh:
            for span in state["spans"].records():
                fh.write(json.dumps(span) + "\n")

    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(fits),
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
