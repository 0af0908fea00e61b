"""Command-line surface: generate datasets, run pipelines, write reports.

Subcommands:
    synth  write a synthetic multi-view dataset (view CSVs + manifest)
    run    execute cemvc / shared / ablation on a dataset manifest
    bench  seeded method-vs-baseline summary on a preset, as one CSV

Every run writes into a fresh timestamped directory under --out and never
overwrites earlier output. Report contents carry no timestamps, so reruns
with identical inputs and seed are byte-identical.

Config files are JSON; flags override file values, file values override
defaults. Recognised keys (all optional):

    n_clusters, latent_dim, hidden_dims, max_outer_iters, tolerance,
    weighting_mode, standardize, kmeans_restarts, seed,
    train: {pretrain_epochs, finetune_steps_per_round, batch_size,
            learning_rate, clustering_weight}
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from .bench import PRESETS, rows_to_csv, summarize
from .data import inject_noise_view, load_multiview, save_multiview, synth_multiview
from .model import TrainConfig
from .pipeline import (
    ClusteringResult,
    PipelineConfig,
    run_ablation,
    run_cemvc,
    run_shared_baseline,
)

_EMBED_FMT = "%.17g"

_PIPELINE_KEYS = (
    "n_clusters",
    "latent_dim",
    "hidden_dims",
    "max_outer_iters",
    "tolerance",
    "weighting_mode",
    "standardize",
    "kmeans_restarts",
    "seed",
)
_TRAIN_KEYS = (
    "pretrain_epochs",
    "finetune_steps_per_round",
    "batch_size",
    "learning_rate",
    "clustering_weight",
)


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    p = Path(path)
    if not p.is_file():
        raise FileNotFoundError(f"missing config file: {p}")
    with open(p, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError(f"{p}: config must be a JSON object")
    unknown = set(raw) - set(_PIPELINE_KEYS) - {"train"}
    if unknown:
        raise ValueError(f"{p}: unknown config keys {sorted(unknown)}")
    train = raw.get("train", {})
    bad_train = set(train) - set(_TRAIN_KEYS)
    if bad_train:
        raise ValueError(f"{p}: unknown train keys {sorted(bad_train)}")
    return raw


def _resolve_config(file_cfg: dict, seed_flag: int | None, n_clusters_hint: int | None) -> PipelineConfig:
    kwargs = {k: file_cfg[k] for k in _PIPELINE_KEYS if k in file_cfg}
    if "hidden_dims" in kwargs:
        kwargs["hidden_dims"] = tuple(kwargs["hidden_dims"])
    if seed_flag is not None:
        kwargs["seed"] = seed_flag
    if "n_clusters" not in kwargs:
        if n_clusters_hint is None:
            raise ValueError(
                "n_clusters missing: set it in the config file or provide labels"
            )
        kwargs["n_clusters"] = n_clusters_hint
    train_kwargs = dict(file_cfg.get("train", {}))
    kwargs["train"] = TrainConfig(**train_kwargs)
    return PipelineConfig(**kwargs)


def _config_as_dict(cfg: PipelineConfig, mode: str) -> dict:
    return {
        "n_clusters": cfg.n_clusters,
        "latent_dim": cfg.latent_dim,
        "hidden_dims": list(cfg.hidden_dims),
        "max_outer_iters": cfg.max_outer_iters,
        "tolerance": cfg.tolerance,
        "weighting_mode": cfg.weighting_mode,
        "decoupled": mode != "shared",
        "standardize": cfg.standardize,
        "kmeans_restarts": cfg.kmeans_restarts,
        "seed": cfg.seed,
        "train": {
            "pretrain_epochs": cfg.train.pretrain_epochs,
            "finetune_steps_per_round": cfg.train.finetune_steps_per_round,
            "batch_size": cfg.train.batch_size,
            "learning_rate": cfg.train.learning_rate,
            "clustering_weight": cfg.train.clustering_weight,
        },
    }


def _nan_to_none(values) -> list:
    return [None if np.isnan(v) else float(v) for v in np.asarray(values, dtype=float)]


def _result_block(result: ClusteringResult, embedding_file: str) -> dict:
    block = {
        "mode": result.mode,
        "metrics": None,
        "rounds": [
            {
                "iteration": tr.iteration,
                "weights": [float(w) for w in tr.weights],
                "cond_entropies": _nan_to_none(tr.cond_entropies),
                "nmi_to_unified": _nan_to_none(tr.nmi_to_unified),
                "losses": [float(x) for x in tr.losses],
                "label_change_fraction": tr.label_change_fraction,
            }
            for tr in result.traces
        ],
        "labels": [int(x) for x in result.labels],
        "embedding_file": embedding_file,
    }
    if result.metrics is not None:
        block["metrics"] = {"acc": result.metrics.acc, "nmi": result.metrics.nmi}
    return block


def _new_run_dir(out_root: Path, prefix: str) -> Path:
    out_root.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%d-%H%M%S")
    candidate = out_root / f"{prefix}-{stamp}"
    suffix = 0
    while candidate.exists():
        suffix += 1
        candidate = out_root / f"{prefix}-{stamp}-{suffix}"
    candidate.mkdir()
    return candidate


def _cmd_synth(args) -> int:
    data = synth_multiview(
        args.n,
        args.k,
        args.views,
        args.dims,
        args.sep,
        seed=args.seed,
        name=args.name,
    )
    for i in range(args.noise_views):
        data = inject_noise_view(data, args.noise_dim, seed=(args.seed, 999, i))
    manifest = save_multiview(data, args.out)
    print(f"wrote {data.n_views}-view dataset ({data.n_samples} samples) to {manifest}")
    return 0


def _cmd_run(args) -> int:
    data = load_multiview(args.data)
    file_cfg = _load_config_file(args.config)
    hint = int(data.labels.max()) + 1 if data.labels is not None else None
    cfg = _resolve_config(file_cfg, args.seed, hint)
    run_dir = _new_run_dir(Path(args.out), f"run-{args.mode}")

    report: dict = {
        "mode": args.mode,
        "dataset": {
            "name": data.name,
            "n_views": data.n_views,
            "n_samples": data.n_samples,
            "dims": data.dims,
            "has_labels": data.labels is not None,
        },
        "config": _config_as_dict(cfg, args.mode),
    }
    if args.mode in ("cemvc", "shared"):
        run = run_shared_baseline if args.mode == "shared" else run_cemvc
        result = run(data, cfg)
        np.savetxt(run_dir / "embedding.csv", result.embedding, delimiter=",", fmt=_EMBED_FMT)
        report["result"] = _result_block(result, "embedding.csv")
    else:  # ablation
        results = run_ablation(data, cfg)
        report["results"] = {}
        for mode, result in results.items():
            fname = f"embedding-{mode}.csv"
            np.savetxt(run_dir / fname, result.embedding, delimiter=",", fmt=_EMBED_FMT)
            report["results"][mode] = _result_block(result, fname)

    report_path = run_dir / "report.json"
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(f"report written to {report_path}")
    return 0


def _cmd_bench(args) -> int:
    if args.seeds < 1:
        raise ValueError("--seeds must be >= 1")
    preset = PRESETS[args.preset]
    rows = summarize(preset, args.seeds)
    run_dir = _new_run_dir(Path(args.out), f"bench-{args.preset}")
    table_path = run_dir / "summary.csv"
    table_path.write_text(rows_to_csv(rows), encoding="utf-8")
    print(f"summary written to {table_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cemvc",
        description="Entropy-weighted multi-view clustering experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic multi-view dataset")
    p_synth.add_argument("--out", required=True, help="output directory")
    p_synth.add_argument("--n", type=int, default=600, help="sample count")
    p_synth.add_argument("--k", type=int, default=3, help="cluster count")
    p_synth.add_argument("--views", type=int, default=2, help="informative view count")
    p_synth.add_argument("--dims", type=int, default=10, help="columns per informative view")
    p_synth.add_argument("--sep", type=float, default=8.0, help="class-center spread")
    p_synth.add_argument("--noise-views", type=int, default=0, help="appended noise views")
    p_synth.add_argument("--noise-dim", type=int, default=None, help="columns per noise view")
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--name", default="synthetic")
    p_synth.set_defaults(func=_cmd_synth)

    p_run = sub.add_parser("run", help="run a pipeline on a dataset manifest")
    p_run.add_argument("--data", required=True, help="dataset manifest path")
    p_run.add_argument("--out", required=True, help="output directory root")
    p_run.add_argument(
        "--mode", choices=("cemvc", "shared", "ablation"), default="cemvc"
    )
    p_run.add_argument("--config", default=None, help="JSON config file")
    p_run.add_argument("--seed", type=int, default=None, help="override config seed")
    p_run.set_defaults(func=_cmd_run)

    p_bench = sub.add_parser("bench", help="method-vs-baseline benchmark table")
    p_bench.add_argument("--out", required=True, help="output directory root")
    p_bench.add_argument("--seeds", type=int, default=20, help="number of seeds")
    p_bench.add_argument("--preset", choices=sorted(PRESETS), default="noisy3view")
    p_bench.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # CLI boundary: fail with a message, not a traceback
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
