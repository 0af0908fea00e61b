"""Check that the benchmark's noisy3view inputs are the program's preset.

    python3 perfbench/check_inputs.py

For a few workload seeds, the datasets that workloads.py writes for
`noisy3view` must equal `cemvc.bench.preset_dataset(PRESETS["noisy3view"],
seed, noisy=True)` array for array, and the CSV files must equal those
`cemvc.data.save_multiview` writes for it, byte for byte. Exits 1 on any
difference. Run it from the repository root.
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

import numpy as np

from workloads import WORKLOADS, data_seed, generate, write_dataset

HERE = Path(__file__).resolve().parent
SEEDS = (0, 1, 7)


def main() -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    from cemvc.bench import PRESETS, preset_dataset
    from cemvc.data import save_multiview

    wl = WORKLOADS["noisy3view"]
    work = HERE / "out" / "check_inputs"
    shutil.rmtree(work, ignore_errors=True)
    problems = []
    try:
        for seed in SEEDS:
            for j in range(wl.datasets):
                ds = data_seed(seed, j)
                views, labels = generate(wl, ds)
                ref = preset_dataset(PRESETS["noisy3view"], ds, noisy=True)
                if len(views) != ref.n_views or not all(
                    a.tobytes() == b.tobytes() for a, b in zip(views, ref.views)
                ):
                    problems.append(f"data seed {ds}: view arrays differ")
                if labels.tobytes() != ref.labels.tobytes():
                    problems.append(f"data seed {ds}: label arrays differ")
                ours = write_dataset(views, labels, ref.name, work / f"ours-{ds}").parent
                theirs = save_multiview(ref, work / f"ref-{ds}").parent
                for name in [f"view_{v}.csv" for v in range(ref.n_views)] + ["labels.csv"]:
                    if (ours / name).read_bytes() != (theirs / name).read_bytes():
                        problems.append(f"data seed {ds}: {name} differs")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for p in problems:
        print(p)
    checked = len(SEEDS) * wl.datasets
    print(f"{checked} noisy3view datasets checked, {len(problems)} differences")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
