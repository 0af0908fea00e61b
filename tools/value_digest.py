"""Print one hash per seeded fit, so that two commits' outputs can be compared.

    python3 tools/value_digest.py > digest.txt

Run it from a checkout of each commit (copy this file into a checkout that
lacks it) and `diff` the two outputs. It imports `cemvc` from the `src/`
beside it and takes no options.

The first line names the numpy version and the BLAS thread setting; then
comes one line per fit, `method variant seed config sha256 outcome`. The
first hash covers the labels, soft labels, embedding, ACC, NMI, confusion
table and every `RoundTrace` field. The second, `outcome`, covers only what
the fit decides: labels, ACC, NMI, confusion table and round count. So a
change that moves only the trace's or embedding's last bits shows equal
outcomes while its first hash differs. The first 36 fits are on
`noisy3view`, seeds 0-2, clean and noisy: first the 24 of `bench.grid`
with the preset config (`run_ablation`'s three modes and
`run_shared_baseline`), then 12 with a mini-batch config (`tolerance=0`,
`max_outer_iters=3`, `batch_size=64`), `run_cemvc` and
`run_shared_baseline`. The last 3 are `run_cemvc` fits shaped like the
benchmark's `entropy-large-n`, seeds 0-2: n = 2400, three 6-d views at
separation 1.5 plus a 20-d noise view, k = 4, 30 pretraining epochs, 10
finetuning steps per round and exactly 4 rounds, so the unified k-means
runs at d = 32 (the `noisy3view` fits reach d = 24 at most). To compare
with a digest that lists its fits in another order, sort both:
`diff <(sort a) <(sort b)`. Older copies of the
tool print no outcome hash; compare their first hash with
`diff <(cut -d' ' -f1-5 a) <(cut -d' ' -f1-5 b)`.
"""

from __future__ import annotations

import os
import sys

# BLAS threads are pinned before numpy loads: noisy fits are bit-exact only
# for a fixed thread count.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = str(BLAS_THREADS)

import hashlib  # noqa: E402
from dataclasses import fields, replace  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cemvc.bench import PRESETS, VARIANTS, grid, preset_dataset  # noqa: E402
from cemvc.data import synth_multiview  # noqa: E402
from cemvc.model import TrainConfig  # noqa: E402
from cemvc.pipeline import (  # noqa: E402
    ClusteringResult,
    PipelineConfig,
    RoundTrace,
    run_cemvc,
    run_shared_baseline,
)

SEEDS = range(3)


def _sha256(values) -> str:
    """sha256 over values, each with its dtype and shape."""
    h = hashlib.sha256()
    for value in values:
        a = np.asarray(value)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def digest(result: ClusteringResult) -> str:
    """sha256 over every value of a fit."""
    values = [result.labels, result.soft_labels, result.embedding, result.metrics.acc,
              result.metrics.nmi, result.metrics.confusion, len(result.traces)]
    values += [getattr(trace, f.name) for trace in result.traces for f in fields(RoundTrace)]
    return _sha256(values)


def outcome(result: ClusteringResult) -> str:
    """sha256 over what a fit decides: labels, ACC, NMI, confusion table and round count."""
    m = result.metrics
    return _sha256([result.labels, m.acc, m.nmi, m.confusion, len(result.traces)])


def fits():
    """(method, variant, seed, config, result) for each of the 39 fits."""
    preset = PRESETS["noisy3view"]
    for fit in grid(preset, len(SEEDS)):
        yield fit.method, fit.variant, fit.seed, "preset", fit.result
    for seed in SEEDS:
        cfg = replace(preset.pipeline, seed=seed, tolerance=0.0, max_outer_iters=3)
        mini = replace(cfg, train=replace(cfg.train, batch_size=64))
        for variant in VARIANTS:
            data = preset_dataset(preset, seed, variant == "noisy")
            yield mini.weighting_mode, variant, seed, "minibatch", run_cemvc(data, mini)
            yield "shared", variant, seed, "minibatch", run_shared_baseline(data, mini)
    for seed in SEEDS:
        data = synth_multiview(2400, 4, (6, 6, 6), (1.5, 1.5, 1.5), noise_dims=(20,), seed=seed)
        cfg = PipelineConfig(
            n_clusters=4, tolerance=0.0, max_outer_iters=4, seed=seed,
            train=TrainConfig(pretrain_epochs=30, finetune_steps_per_round=10),
        )
        yield cfg.weighting_mode, "noisy", seed, "large-n", run_cemvc(data, cfg)


def main() -> None:
    threads = " ".join(f"{var}={os.environ[var]}" for var in THREAD_VARS)
    print(f"# numpy {np.__version__} {threads}", flush=True)
    for method, variant, seed, config, result in fits():
        print(method, variant, seed, config, digest(result), outcome(result), flush=True)


if __name__ == "__main__":
    main()
