"""Dataset container, synthetic generator with noise views, CSV round-trip.

On disk a dataset is a JSON manifest plus one headerless numeric CSV per
view and an optional one-column integer label CSV. Labels may use any
integer coding; a dataset maps them to contiguous classes 0..k-1 in
sorted order, whether it is loaded or built in memory. Manifest keys:

    {"name": str, "views": [relative csv paths], "labels": path or null}

Paths are resolved relative to the manifest's directory. A missing name
means "dataset". A bad cell or label is reported as `file:line`. Files
are read as UTF-8 with or without a byte-order mark, and written without.
"""

from __future__ import annotations

import itertools
import json
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .numcore import as_labels, as_matrix, check_count, check_real


@dataclass
class MultiViewDataset:
    views: list[np.ndarray]
    labels: np.ndarray | None = None
    name: str = "dataset"

    def __post_init__(self) -> None:
        if not isinstance(self.name, str):
            raise ValueError(f"name must be a string, got {self.name!r}")
        if not self.views:
            raise ValueError("dataset needs at least one view")
        self.views = [as_matrix(view, f"view {v}") for v, view in enumerate(self.views)]
        rows = {v.shape[0] for v in self.views}
        if len(rows) != 1:
            raise ValueError(f"views have differing sample counts: {sorted(rows)}")
        if self.labels is not None:
            self.labels = as_labels(self.labels)
            if self.labels.shape != (self.n_samples,):
                raise ValueError(f"labels have shape {self.labels.shape}, expected ({self.n_samples},)")

    @property
    def n_samples(self) -> int:
        return self.views[0].shape[0]

    @property
    def n_views(self) -> int:
        return len(self.views)

    @property
    def dims(self) -> list[int]:
        return [v.shape[1] for v in self.views]


def synth_multiview(
    n_samples: int,
    n_clusters: int,
    dims,
    separation,
    noise_dims=(),
    seed: int = 0,
    name: str = "synthetic",
) -> MultiViewDataset:
    """Balanced Gaussian blobs seen through independent views, plus noise views.

    Informative view v has `dims[v]` columns: it draws its own class centers
    from N(0, separation[v]^2 I) and adds unit-variance noise, so views share
    labels but not geometry. All of them come from one generator seeded by
    `seed`. Noise view j follows them: `noise_dims[j]` columns of N(0, 1)
    entries, drawn from `np.random.default_rng((seed, 999, j))`, so adding
    a noise view changes neither the informative views nor earlier noise
    views.
    """
    dims, seps, noise_dims = list(dims), list(separation), list(noise_dims)
    if not dims:
        raise ValueError("need at least one informative view")
    if len(seps) != len(dims):
        raise ValueError(f"got {len(dims)} view dims but {len(seps)} separations")
    check_count("n_samples", n_samples)
    check_count("n_clusters", n_clusters)
    if n_samples < 2 * n_clusters:
        raise ValueError(f"need at least {2 * n_clusters} samples for {n_clusters} clusters")
    for v, (d, sep) in enumerate(zip(dims, seps)):
        check_count(f"dims[{v}]", d)
        check_real(f"separation[{v}]", sep)
        if sep <= 0:
            raise ValueError(f"separation[{v}] must be positive, got {sep}")
    for j, d in enumerate(noise_dims):
        check_count(f"noise_dims[{j}]", d)
    rng = np.random.default_rng(seed)
    base = np.arange(n_samples) % n_clusters  # exactly balanced when K | N
    labels = rng.permutation(base)
    views = []
    for d, sep in zip(dims, seps):
        centers = sep * rng.standard_normal((n_clusters, d))
        views.append(centers[labels] + rng.standard_normal((n_samples, d)))
    for j, d in enumerate(noise_dims):
        views.append(np.random.default_rng((seed, 999, j)).standard_normal((n_samples, d)))
    return MultiViewDataset(views, labels, name=name)


def _read_numeric_csv(path: Path, dtype=np.float64) -> np.ndarray:
    """The file's rows as a 2-D array of `dtype`; a file that is not all
    `dtype` text is read as float64 instead."""
    if not path.is_file():
        raise FileNotFoundError(f"missing data file: {path}")
    try:
        with warnings.catch_warnings():
            # an empty file is reported below, not as numpy's warning
            warnings.simplefilter("ignore", UserWarning)
            mat = np.loadtxt(
                path, delimiter=",", ndmin=2, comments=None, dtype=dtype, encoding="utf-8-sig"
            )
    except ValueError as err:
        if dtype is not np.float64:
            return _read_numeric_csv(path)
        _locate_bad_line(path)
        raise ValueError(f"{path}: {err}") from None
    if mat.shape[0] == 0:
        raise ValueError(f"{path}: file contains no data rows")
    return mat


def _locate_bad_line(path: Path) -> None:
    """Raise a `file:line` error for a line that `np.loadtxt` rejects.

    Empty lines are not rows, and numpy skips them too. A line of only
    whitespace is an error, but only once the file has a data row, so a
    file of nothing but blank lines still has no data rows. Returns when no
    line is bad, so the caller reports numpy's own message.
    """
    n_cols = None
    blank_at = None
    with open(path, "r", encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped:
                if blank_at is None and line.strip("\r\n"):
                    blank_at = lineno
                continue
            cells = stripped.split(",")
            bad = next((c for c in cells if not _is_float(c)), None)
            if bad is not None:
                raise ValueError(f"{path}:{lineno}: non-numeric value {bad!r}")
            if n_cols is None:
                n_cols = len(cells)
            elif len(cells) != n_cols:
                raise ValueError(f"{path}:{lineno}: expected {n_cols} columns, got {len(cells)}")
    if n_cols is None:
        raise ValueError(f"{path}: file contains no data rows")
    if blank_at is not None:
        raise ValueError(f"{path}:{blank_at}: line holds only whitespace")


def _line_of_row(path: Path, row: int) -> int:
    """1-based line number of data row `row` (0-based); blank lines are not rows."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        data_lines = (lineno for lineno, line in enumerate(fh, start=1) if line.strip())
        return next(itertools.islice(data_lines, row, None))


def _is_float(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


def read_json_object(path, what: str) -> dict:
    """The JSON object in the file at `path`; errors name the file as `what`."""
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"missing {what}: {path}")
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as err:
        raise ValueError(f"{path}: {what} is not valid JSON: {err}") from None
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: {what} must be a JSON object")
    return obj


def load_multiview(manifest_path) -> MultiViewDataset:
    """Load a dataset from its manifest, validating shapes along the way."""
    manifest_path = Path(manifest_path)
    manifest = read_json_object(manifest_path, "manifest")
    base = manifest_path.parent
    view_paths = manifest.get("views")
    if not isinstance(view_paths, list) or not view_paths or not all(isinstance(p, str) for p in view_paths):
        raise ValueError(f'{manifest_path}: "views" must be a non-empty list of file names, got {view_paths!r}')
    label_file = manifest.get("labels")
    if label_file is not None and not isinstance(label_file, str):
        raise ValueError(f'{manifest_path}: "labels" must be null or a file name, got {label_file!r}')
    name = manifest.get("name", "dataset")
    if not isinstance(name, str):
        raise ValueError(f'{manifest_path}: "name" must be a string, got {name!r}')
    views = [_read_numeric_csv(base / p) for p in view_paths]
    for p, view in zip(view_paths, views):
        bad = np.argwhere(~np.isfinite(view))
        if bad.size:
            row, col = bad[0].tolist()
            line = _line_of_row(base / p, row)
            raise ValueError(f"{base / p}:{line}: non-finite value {view[row, col]} in column {col + 1}")
    counts = {v.shape[0] for v in views}
    if len(counts) != 1:
        detail = ", ".join(
            f"{p}: {v.shape[0]} rows" for p, v in zip(view_paths, views)
        )
        raise ValueError(f"view row counts disagree ({detail})")
    labels = None
    if label_file:
        label_path = base / label_file
        # integer codes are read exactly: through float64, codes above 2**53 would merge
        label_mat = _read_numeric_csv(label_path, np.int64)
        if label_mat.shape[1] != 1:
            raise ValueError(
                f"{label_path}: label file must have one column, got {label_mat.shape[1]}"
            )
        if label_mat.shape[0] != views[0].shape[0]:
            raise ValueError(
                f"label rows ({label_mat.shape[0]}) disagree with view rows "
                f"({views[0].shape[0]})"
            )
        labels = label_mat[:, 0]
    try:
        return MultiViewDataset(views, labels, name=name)
    except ValueError:
        if labels is not None:  # name the file and line of a label that is not an integer
            as_labels(labels, where=lambda i: f"{label_path}:{_line_of_row(label_path, i)}")
        raise


def write_csv(path, mat) -> None:
    """Write a headerless float CSV with enough digits to round-trip float64 exactly."""
    np.savetxt(path, mat, delimiter=",", fmt="%.17g")


def save_multiview(data: MultiViewDataset, out_dir) -> Path:
    """Write view CSVs, optional labels, and the manifest; returns its path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    view_files = []
    for v, mat in enumerate(data.views):
        fname = f"view_{v}.csv"
        write_csv(out_dir / fname, mat)
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
