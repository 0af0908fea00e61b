"""Dataset container, synthetic generators, noise injection, CSV round-trip.

On disk a dataset is a JSON manifest plus one headerless numeric CSV per
view and an optional one-column integer label CSV. Labels may use any
integer coding; loading maps them to contiguous classes 0..k-1 in sorted
order. Manifest keys:

    {"name": str, "views": [relative csv paths], "labels": path or null}

Paths are resolved relative to the manifest's directory.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

_CSV_FLOAT_FMT = "%.17g"  # enough digits to round-trip float64 exactly


@dataclass
class MultiViewDataset:
    views: list[np.ndarray]
    labels: np.ndarray | None = None
    name: str = "dataset"

    def __post_init__(self) -> None:
        if not self.views:
            raise ValueError("dataset needs at least one view")
        self.views = [np.asarray(v, dtype=np.float64) for v in self.views]
        for v, view in enumerate(self.views):
            bad = np.argwhere(~np.isfinite(view))
            if bad.size:
                raise ValueError(
                    f"view {v} has a non-finite value at index {tuple(bad[0].tolist())}"
                )
        rows = {v.shape[0] for v in self.views}
        if len(rows) != 1:
            raise ValueError(f"views have differing sample counts: {sorted(rows)}")
        if self.labels is not None:
            labels = np.asarray(self.labels)
            if labels.dtype.kind not in "iu":
                values = labels.astype(np.float64)
                bad = np.flatnonzero(~np.isfinite(values) | (values != np.rint(values)))
                if bad.size:
                    raise ValueError(
                        f"label {labels.flat[bad[0]]!r} at index {bad[0]} is not an integer"
                    )
                labels = values
            self.labels = labels.astype(np.int64)
            if self.labels.shape != (self.n_samples,):
                raise ValueError(
                    f"labels have shape {self.labels.shape}, expected ({self.n_samples},)"
                )
            if self.labels.min() < 0:
                raise ValueError("labels must be nonnegative class indices")

    @property
    def n_samples(self) -> int:
        return self.views[0].shape[0]

    @property
    def n_views(self) -> int:
        return len(self.views)

    @property
    def dims(self) -> list[int]:
        return [v.shape[1] for v in self.views]


def _per_view(value, n_views: int, name: str) -> list:
    if np.isscalar(value):
        return [value] * n_views
    out = list(value)
    if len(out) != n_views:
        raise ValueError(f"{name} must be a scalar or one value per view")
    return out


def synth_multiview(
    n_samples: int,
    n_clusters: int,
    n_views: int,
    dims,
    separation,
    seed: int = 0,
    name: str = "synthetic",
) -> MultiViewDataset:
    """Balanced Gaussian blobs observed through independent views.

    Each view draws its own set of class centers from N(0, separation^2 I)
    and adds unit-variance noise, so views share labels but not geometry.
    `dims` and `separation` may be scalars or per-view sequences.
    """
    if n_clusters < 1 or n_views < 1:
        raise ValueError("need at least one cluster and one view")
    if n_samples < 2 * n_clusters:
        raise ValueError(f"need at least {2 * n_clusters} samples for {n_clusters} clusters")
    dims = [int(d) for d in _per_view(dims, n_views, "dims")]
    seps = [float(s) for s in _per_view(separation, n_views, "separation")]
    if any(d < 1 for d in dims):
        raise ValueError("view dimensions must be >= 1")
    if any(s <= 0 for s in seps):
        raise ValueError("separation must be positive")
    rng = np.random.default_rng(seed)
    base = np.arange(n_samples) % n_clusters  # exactly balanced when K | N
    labels = rng.permutation(base)
    views = []
    for d, sep in zip(dims, seps):
        centers = sep * rng.standard_normal((n_clusters, d))
        views.append(centers[labels] + rng.standard_normal((n_samples, d)))
    return MultiViewDataset(views, labels, name=name)


def inject_noise_view(
    data: MultiViewDataset, noise_dim: int | None = None, seed: int = 0
) -> MultiViewDataset:
    """Append a view of i.i.d. standard-normal entries, labels untouched.

    The default dimension is the mean of the existing view dimensions.
    Existing view arrays are shared, never copied or mutated.
    """
    if noise_dim is None:
        noise_dim = int(round(float(np.mean(data.dims))))
    if noise_dim < 1:
        raise ValueError("noise dimension must be >= 1")
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((data.n_samples, noise_dim))
    return MultiViewDataset(
        list(data.views) + [noise], data.labels, name=f"{data.name}+noise"
    )


def _read_numeric_csv(path: Path) -> np.ndarray:
    if not path.is_file():
        raise FileNotFoundError(f"missing data file: {path}")
    rows: list[list[float]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            try:
                rows.append([float(c) for c in cells])
            except ValueError:
                bad = next(c for c in cells if not _is_float(c))
                raise ValueError(f"{path}:{lineno}: non-numeric value {bad!r}") from None
            if len(rows) > 1 and len(rows[-1]) != len(rows[0]):
                raise ValueError(
                    f"{path}:{lineno}: expected {len(rows[0])} columns, got {len(rows[-1])}"
                )
    if not rows:
        raise ValueError(f"{path}: file contains no data rows")
    return np.asarray(rows, dtype=np.float64)


def _line_of_row(path: Path, row: int) -> int:
    """1-based line number of data row `row` (0-based); blank lines are not rows."""
    with open(path, "r", encoding="utf-8") as fh:
        data_lines = (lineno for lineno, line in enumerate(fh, start=1) if line.strip())
        return next(itertools.islice(data_lines, row, None))


def _is_float(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


def load_multiview(manifest_path) -> MultiViewDataset:
    """Load a dataset from its manifest, validating shapes along the way."""
    manifest_path = Path(manifest_path)
    if not manifest_path.is_file():
        raise FileNotFoundError(f"missing manifest: {manifest_path}")
    with open(manifest_path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    base = manifest_path.parent
    view_paths = manifest.get("views")
    if not view_paths:
        raise ValueError(f"{manifest_path}: manifest lists no views")
    views = [_read_numeric_csv(base / p) for p in view_paths]
    counts = {v.shape[0] for v in views}
    if len(counts) != 1:
        detail = ", ".join(
            f"{p}: {v.shape[0]} rows" for p, v in zip(view_paths, views)
        )
        raise ValueError(f"view row counts disagree ({detail})")
    labels = None
    if manifest.get("labels"):
        label_path = base / manifest["labels"]
        label_mat = _read_numeric_csv(label_path)
        if label_mat.shape[1] != 1:
            raise ValueError(
                f"{label_path}: label file must have one column, got {label_mat.shape[1]}"
            )
        if label_mat.shape[0] != views[0].shape[0]:
            raise ValueError(
                f"label rows ({label_mat.shape[0]}) disagree with view rows "
                f"({views[0].shape[0]})"
            )
        raw = label_mat[:, 0]
        bad = np.flatnonzero(~np.isfinite(raw) | (raw != np.rint(raw)))
        if bad.size:
            line = _line_of_row(label_path, int(bad[0]))
            raise ValueError(f"{label_path}:{line}: label {raw[bad[0]]!r} is not an integer")
        # any integer coding (1-based, gaps, negatives) becomes classes 0..k-1
        labels = np.unique(raw, return_inverse=True)[1].astype(np.int64)
    return MultiViewDataset(views, labels, name=manifest.get("name", "dataset"))


def save_multiview(data: MultiViewDataset, out_dir) -> Path:
    """Write view CSVs, optional labels, and the manifest; returns its path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    view_files = []
    for v, mat in enumerate(data.views):
        fname = f"view_{v}.csv"
        np.savetxt(out_dir / fname, mat, delimiter=",", fmt=_CSV_FLOAT_FMT)
        view_files.append(fname)
    manifest = {"name": data.name, "views": view_files, "labels": None}
    if data.labels is not None:
        np.savetxt(out_dir / "labels.csv", data.labels[:, None], fmt="%d")
        manifest["labels"] = "labels.csv"
    manifest_path = out_dir / "manifest.json"
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    return manifest_path
