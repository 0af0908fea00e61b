"""Command-line surface: generate datasets, run pipelines, write reports.

Subcommands:
    synth  write a synthetic multi-view dataset (view CSVs + manifest)
    run    execute cemvc / shared / ablation on a dataset manifest
    bench  seeded grid on a preset, as one CSV: every weighting mode of
           cemvc and the shared baseline, each on clean and noisy data

Every run writes into a fresh timestamped directory under --out, made only
once the fits have finished, and never overwrites earlier output; an --out
that cannot hold a directory fails before any fit. Report contents carry no
timestamps, so reruns with identical inputs and seed are byte-identical.

Config files are JSON; flags override file values, file values override
defaults. The keys are the fields of `PipelineConfig`, with those of
`TrainConfig` under "train"; README's "Config file" block lists them with
their defaults, and a report's "config" block is the resolved config.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .bench import PRESETS, rows_to_csv, summarize
from .data import load_multiview, read_json_object, save_multiview, synth_multiview, write_csv
from .model import TrainConfig
from .pipeline import (
    ClusteringResult,
    PipelineConfig,
    RoundTrace,
    run_ablation,
    run_cemvc,
    run_shared_baseline,
)

_PIPELINE_KEYS = tuple(f.name for f in fields(PipelineConfig) if f.name != "train")
_TRAIN_KEYS = tuple(f.name for f in fields(TrainConfig))


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    p = Path(path)
    raw = read_json_object(p, "config file")
    unknown = set(raw) - set(_PIPELINE_KEYS) - {"train"}
    if unknown:
        raise ValueError(f"{p}: unknown config keys {sorted(unknown)}")
    train = raw.get("train", {})
    if not isinstance(train, dict):
        raise ValueError(f'{p}: "train" must be a JSON object, got {train!r}')
    bad_train = set(train) - set(_TRAIN_KEYS)
    if bad_train:
        raise ValueError(f"{p}: unknown train keys {sorted(bad_train)}")
    return raw


def _resolve_config(file_cfg: dict, seed_flag: int | None, n_clusters_hint: int | None) -> PipelineConfig:
    kwargs = {k: file_cfg[k] for k in _PIPELINE_KEYS if k in file_cfg}
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


def _jsonable(value):
    """A trace value for JSON: an array becomes a list of floats, nan as null."""
    if isinstance(value, np.ndarray):
        return [None if np.isnan(v) else v for v in value.astype(float).tolist()]
    return value


def _result_block(result: ClusteringResult, embedding_file: str) -> dict:
    metrics = result.metrics
    return {
        "mode": result.mode,
        "metrics": None if metrics is None else {"acc": metrics.acc, "nmi": metrics.nmi},
        "rounds": [
            {f.name: _jsonable(getattr(tr, f.name)) for f in fields(RoundTrace)}
            for tr in result.traces
        ],
        "labels": result.labels.tolist(),
        "embedding_file": embedding_file,
    }


def _check_out_root(out: str) -> None:
    """Fail before any fit unless `out` can hold a run directory: the nearest
    existing path among `out` and its parents must be a directory."""
    path = Path(out)
    existing = next(p for p in (path, *path.parents) if p.exists())
    if not existing.is_dir():
        raise ValueError(f"--out {out}: {existing} is not a directory")


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
    if args.noise_views < 0:
        raise ValueError(f"--noise-views must be >= 0, got {args.noise_views}")
    noise_dim = args.dims if args.noise_dim is None else args.noise_dim
    data = synth_multiview(
        args.n,
        args.k,
        (args.dims,) * args.views,
        (args.sep,) * args.views,
        noise_dims=(noise_dim,) * args.noise_views,
        seed=args.seed,
        name=args.name,
    )
    manifest = save_multiview(data, args.out)
    print(f"wrote {data.n_views}-view dataset ({data.n_samples} samples) to {manifest}")
    return 0


def _cmd_run(args) -> int:
    _check_out_root(args.out)
    data = load_multiview(args.data)
    file_cfg = _load_config_file(args.config)
    hint = int(data.labels.max()) + 1 if data.labels is not None else None
    cfg = _resolve_config(file_cfg, args.seed, hint)
    ablation = args.mode == "ablation"
    if ablation:
        results = run_ablation(data, cfg)
    else:
        run = run_shared_baseline if args.mode == "shared" else run_cemvc
        results = {args.mode: run(data, cfg)}

    run_dir = _new_run_dir(Path(args.out), f"run-{args.mode}")
    blocks = {}
    for mode, result in results.items():
        fname = f"embedding-{mode}.csv" if ablation else "embedding.csv"
        write_csv(run_dir / fname, result.embedding)
        blocks[mode] = _result_block(result, fname)
    report = {
        "mode": args.mode,
        "dataset": {
            "name": data.name,
            "n_views": data.n_views,
            "n_samples": data.n_samples,
            "dims": data.dims,
            "has_labels": data.labels is not None,
        },
        "config": asdict(cfg),
    }
    if ablation:
        report["results"] = blocks
    else:
        report["result"] = blocks[args.mode]
    report_path = run_dir / "report.json"
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(f"report written to {report_path}")
    return 0


def _cmd_bench(args) -> int:
    _check_out_root(args.out)
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
    p_synth.add_argument(
        "--noise-dim", type=int, default=None, help="columns per noise view (default: --dims)"
    )
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

    p_bench = sub.add_parser(
        "bench", help="every weighting mode and the shared baseline, clean and noisy"
    )
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
