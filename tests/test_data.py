import json
import re
import warnings

import numpy as np
import pytest

from cemvc.clustering import kmeans
from cemvc.data import (
    MultiViewDataset,
    _read_numeric_csv,
    load_multiview,
    save_multiview,
    synth_multiview,
)
from cemvc.infometrics import mutual_information
from cemvc.metrics import clustering_accuracy


def test_synth_balanced_labels():
    data = synth_multiview(600, 3, (10, 10), (8.0, 8.0), seed=0)
    assert data.n_views == 2
    assert data.n_samples == 600
    assert np.bincount(data.labels).tolist() == [200, 200, 200]


def test_synth_views_differ_but_labels_agree():
    data = synth_multiview(120, 3, (10, 10), (8.0, 8.0), seed=1)
    assert not np.array_equal(data.views[0], data.views[1])
    assert data.labels.shape == (120,)


def test_synth_each_view_kmeans_recovers_clusters():
    data = synth_multiview(600, 3, (10, 10), (8.0, 8.0), seed=2)
    for v, x in enumerate(data.views):
        _, labels = kmeans(x, 3, seed=(2, v), n_init=4)
        assert clustering_accuracy(labels, data.labels) >= 0.9


def test_synth_reproducible_per_seed():
    a = synth_multiview(90, 3, (5, 5), (6.0, 6.0), noise_dims=(4,), seed=7)
    b = synth_multiview(90, 3, (5, 5), (6.0, 6.0), noise_dims=(4,), seed=7)
    assert all(np.array_equal(x, y) for x, y in zip(a.views, b.views))
    assert np.array_equal(a.labels, b.labels)
    c = synth_multiview(90, 3, (5, 5), (6.0, 6.0), noise_dims=(4,), seed=8)
    assert not np.array_equal(a.views[0], c.views[0])
    assert not np.array_equal(a.views[-1], c.views[-1])


def test_synth_accepts_dims_and_separation_for_each_view():
    data = synth_multiview(60, 3, [4, 9], [5.0, 7.0], noise_dims=[3, 2], seed=3)
    assert data.dims == [4, 9, 3, 2]


def test_synth_name_is_used_as_given():
    assert synth_multiview(60, 3, (4,), (5.0,), noise_dims=(3,), name="demo").name == "demo"


def test_synth_rejects_tiny_sample_count():
    with pytest.raises(ValueError, match="samples"):
        synth_multiview(5, 3, (4, 4), (6.0, 6.0))


@pytest.mark.parametrize(
    "n_samples, n_clusters, dims, separation, noise_dims, message",
    [
        (60, 3, (4, 4), (6.0,), (), "2 view dims but 1 separations"),
        (60, 3, (), (), (), "at least one informative view"),
        (60, 3, (4, 0), (6.0, 6.0), (), r"dims\[1\] must be >= 1, got 0"),
        (60, 3, (4, 4), (6.0, 0.0), (), r"separation\[1\] must be positive, got 0.0"),
        (60, 3, (4, 4), (6.0, 6.0), (5, 0), r"noise_dims\[1\] must be >= 1, got 0"),
        (60, 3, (6.7, 4.2), (6.0, 6.0), (), r"dims\[0\] must be an integer, got 6.7"),
        (60, 3, (4, 4), (True, 6.0), (), r"separation\[0\] must be a finite real number, got True"),
        (60, 3, (4, 4), (6.0, np.inf), (), r"separation\[1\] must be a finite real number, got inf"),
        (60, 3, (4, 4), (6.0, 6.0), (5, 2.5), r"noise_dims\[1\] must be an integer, got 2.5"),
        (60.0, 3, (4, 4), (6.0, 6.0), (), "n_samples must be an integer, got 60.0"),
        (60, 0, (4, 4), (6.0, 6.0), (), "n_clusters must be >= 1, got 0"),
        (60, True, (4, 4), (6.0, 6.0), (), "n_clusters must be an integer, got True"),
    ],
    ids=[
        "dims-vs-separation", "no-views", "zero-dim", "zero-sep", "zero-noise-dim",
        "float-dims", "bool-sep", "inf-sep", "float-noise-dim", "float-n-samples",
        "zero-clusters", "bool-clusters",
    ],
)
def test_synth_rejects_bad_input(n_samples, n_clusters, dims, separation, noise_dims, message):
    with pytest.raises(ValueError, match=message):
        synth_multiview(n_samples, n_clusters, dims, separation, noise_dims=noise_dims)


def test_noise_views_are_appended_after_the_informative_views_unchanged():
    clean = synth_multiview(60, 3, (5, 5), (6.0, 6.0), seed=4)
    noisy = synth_multiview(60, 3, (5, 5), (6.0, 6.0), noise_dims=(7,), seed=4)
    assert noisy.n_views == clean.n_views + 1
    assert noisy.dims[-1] == 7
    # the informative views and labels are the clean ones, bit for bit
    for before, after in zip(clean.views, noisy.views):
        assert before.tobytes() == after.tobytes()
    assert np.array_equal(clean.labels, noisy.labels)


@pytest.mark.parametrize("seed", [0, 4, 123])
def test_noise_view_j_draws_from_seed_999_j(seed):
    data = synth_multiview(50, 2, (3,), (6.0,), noise_dims=(4, 6, 2), seed=seed)
    for j, d in enumerate((4, 6, 2)):
        expected = np.random.default_rng((seed, 999, j)).standard_normal((50, d))
        assert data.views[1 + j].tobytes() == expected.tobytes()
    # numpy's SeedSequence zero-pads entropy to its 4-word pool, so
    # (seed, 999, 0) and (seed, 999) give one stream. The benchmark's
    # noisy3view inputs were first drawn from (seed, 999) and rely on this.
    legacy = np.random.default_rng((seed, 999)).standard_normal((50, 4))
    assert data.views[1].tobytes() == legacy.tobytes()


def test_noise_view_is_label_independent():
    data = synth_multiview(600, 3, (5, 5), (6.0, 6.0), noise_dims=(10,), seed=6)
    _, labels = kmeans(data.views[-1], 3, seed=8, n_init=4)
    assert mutual_information(labels, data.labels) <= 0.05


def test_noise_views_differ_across_seeds_and_views():
    a = synth_multiview(40, 2, (5,), (6.0,), noise_dims=(5, 5), seed=1)
    b = synth_multiview(40, 2, (5,), (6.0,), noise_dims=(5, 5), seed=2)
    assert not np.array_equal(a.views[-1], b.views[-1])
    assert not np.array_equal(a.views[1], a.views[2])


def test_dataset_rejects_row_mismatch():
    with pytest.raises(ValueError, match="sample counts"):
        MultiViewDataset([np.zeros((3, 2)), np.zeros((4, 2))])


@pytest.mark.parametrize("shape", [(10,), (10, 0), (0, 3), (10, 2, 2)])
def test_dataset_rejects_a_view_that_is_not_a_non_empty_matrix(shape):
    message = f"view 1 must be a 2-D matrix with at least one row and one column, got shape {shape}"
    with pytest.raises(ValueError, match=re.escape(message)):
        MultiViewDataset([np.zeros((10, 2)), np.zeros(shape)])


@pytest.mark.parametrize("cell", [np.nan, np.inf, -np.inf])
def test_dataset_rejects_non_finite_view_cell_with_view_index(cell):
    bad = np.array([[0.0, 1.0], [cell, 1.0]])
    with pytest.raises(ValueError, match=r"view 1 has a non-finite value at index \(1, 0\)"):
        MultiViewDataset([np.zeros((2, 3)), bad])


@pytest.mark.parametrize("labels", [[0.5, 1.7, 2.2], [0.0, 1.0, np.nan]])
def test_dataset_rejects_non_integral_labels(labels):
    with pytest.raises(ValueError, match="is not an integer"):
        MultiViewDataset([np.zeros((3, 2))], labels=labels)


@pytest.mark.parametrize("labels", [[0.0, 2.0, 1.0], ["0", "2.0", "1.0"]])
def test_dataset_accepts_integral_float_labels(labels):
    data = MultiViewDataset([np.zeros((3, 2))], labels=labels)
    assert data.labels.tolist() == [0, 2, 1]
    assert data.labels.dtype == np.int64


def test_dataset_remaps_any_integer_coding_to_contiguous_classes():
    data = MultiViewDataset([np.zeros((4, 2))], labels=[10**9, 5, -3, 5])
    assert data.labels.tolist() == [2, 1, 0, 1]
    assert data.labels.dtype == np.int64


@pytest.mark.parametrize("name", [[1], 5, None])
def test_dataset_rejects_a_name_that_is_not_a_string(name):
    with pytest.raises(ValueError, match=re.escape(f"name must be a string, got {name!r}")):
        MultiViewDataset([np.ones((3, 2))], name=name)


def test_save_load_round_trip_is_exact(tmp_path):
    data = synth_multiview(50, 3, (4, 4), (6.0, 6.0), seed=10)
    manifest = save_multiview(data, tmp_path / "ds")
    loaded = load_multiview(manifest)
    assert loaded.name == data.name
    for a, b in zip(data.views, loaded.views):
        assert a.tobytes() == b.tobytes()
    assert np.array_equal(data.labels, loaded.labels)


def test_save_load_without_labels(tmp_path):
    data = MultiViewDataset([np.eye(3), np.ones((3, 2))], name="plain")
    loaded = load_multiview(save_multiview(data, tmp_path))
    assert loaded.name == "plain"
    assert loaded.labels is None
    assert loaded.n_views == 2


def test_load_smoke_two_small_views(tmp_path):
    for v in range(2):
        (tmp_path / f"v{v}.csv").write_text("1,2\n3,4\n5,6\n7,8\n")
    (tmp_path / "y.csv").write_text("0\n1\n0\n1\n")
    (tmp_path / "manifest.json").write_text(
        json.dumps({"name": "smoke", "views": ["v0.csv", "v1.csv"], "labels": "y.csv"})
    )
    data = load_multiview(tmp_path / "manifest.json")
    assert data.n_views == 2
    assert data.n_samples == 4
    assert data.name == "smoke"


def test_load_reports_both_row_counts_on_mismatch(tmp_path):
    (tmp_path / "v0.csv").write_text("1,2\n3,4\n")
    (tmp_path / "v1.csv").write_text("1\n2\n3\n")
    (tmp_path / "manifest.json").write_text(
        json.dumps({"views": ["v0.csv", "v1.csv"], "labels": None})
    )
    with pytest.raises(ValueError) as err:
        load_multiview(tmp_path / "manifest.json")
    assert "2 rows" in str(err.value)
    assert "3 rows" in str(err.value)


def test_load_names_file_and_line_for_bad_cell(tmp_path):
    (tmp_path / "v0.csv").write_text("1,2\n3,oops\n")
    (tmp_path / "manifest.json").write_text(json.dumps({"views": ["v0.csv"]}))
    with pytest.raises(ValueError) as err:
        load_multiview(tmp_path / "manifest.json")
    assert "v0.csv:2" in str(err.value)
    assert "oops" in str(err.value)


def write_labelled(tmp_path, label_text):
    (tmp_path / "v0.csv").write_text("1,2\n3,4\n5,6\n7,8\n")
    (tmp_path / "y.csv").write_text(label_text)
    (tmp_path / "manifest.json").write_text(json.dumps({"views": ["v0.csv"], "labels": "y.csv"}))
    return tmp_path / "manifest.json"


def test_load_remaps_labels_to_contiguous_classes(tmp_path):
    data = load_multiview(write_labelled(tmp_path, "3\n1\n7\n3\n"))
    assert data.name == "dataset"  # the manifest has no "name"
    assert data.labels.tolist() == [1, 0, 2, 1]
    assert data.labels.dtype == np.int64


@pytest.mark.parametrize(
    "label_text, expected",
    [
        # through float64 both codes read as 2**53 and would merge
        ("9007199254740993\n9007199254740992\n9007199254740993\n1\n", [2, 1, 2, 0]),
        ("1.0\n2\n\n-1.0\n2\n", [1, 2, 0, 2]),
    ],
    ids=["above_2_53", "float_text"],
)
def test_load_reads_integer_label_text_exactly(tmp_path, label_text, expected):
    data = load_multiview(write_labelled(tmp_path, label_text))
    assert data.labels.tolist() == expected
    assert data.labels.dtype == np.int64


@pytest.mark.parametrize("cell", ["1.5", "nan", "inf"])
def test_load_rejects_non_integer_label_with_file_and_line(tmp_path, cell):
    # the blank line is not a data row but still counts as a file line
    manifest = write_labelled(tmp_path, f"1\n\n2\n{cell}\n1\n")
    with pytest.raises(ValueError, match=r"y\.csv:4: label .* is not an integer"):
        load_multiview(manifest)


@pytest.mark.parametrize(
    "manifest, message",
    [
        (["view_0.csv"], "manifest must be a JSON object"),
        ({"labels": None}, '"views" must be a non-empty list of file names, got None'),
        ({"views": []}, '"views" must be a non-empty list of file names, got []'),
        ({"views": "view_0.csv"}, '"views" must be a non-empty list of file names'),
        ({"views": ["view_0.csv", 3]}, '"views" must be a non-empty list of file names'),
        ({"views": ["view_0.csv"], "labels": 5}, '"labels" must be null or a file name, got 5'),
        ({"views": ["view_0.csv"], "labels": ["y.csv"]}, '"labels" must be null or a file name'),
        ({"views": ["view_0.csv"], "name": [1]}, '"name" must be a string, got [1]'),
        ({"views": ["view_0.csv"], "name": 7}, '"name" must be a string, got 7'),
        ({"views": ["view_0.csv"], "name": None}, '"name" must be a string, got None'),
    ],
    ids=[
        "list", "no-views", "empty-views", "string-views", "int-view", "int-labels", "list-labels",
        "list-name", "int-name", "null-name",
    ],
)
def test_load_rejects_a_malformed_manifest_naming_it_and_the_key(tmp_path, manifest, message):
    (tmp_path / "view_0.csv").write_text("1,2\n3,4\n")
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    with pytest.raises(ValueError) as err:
        load_multiview(path)
    assert str(err.value).startswith(f"{path}: ")
    assert message in str(err.value)


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_load_names_file_and_line_for_a_non_finite_cell(tmp_path, cell):
    # the blank line is not a data row but still counts as a file line
    (tmp_path / "v0.csv").write_text("1,2\n3,4\n")
    (tmp_path / "v1.csv").write_text(f"1,2\n\n3,4\n5,{cell}\n")
    (tmp_path / "manifest.json").write_text(json.dumps({"views": ["v0.csv", "v1.csv"]}))
    with pytest.raises(ValueError) as err:
        load_multiview(tmp_path / "manifest.json")
    assert str(err.value) == f"{tmp_path / 'v1.csv'}:4: non-finite value {cell} in column 2"


def test_load_missing_file_names_it(tmp_path):
    (tmp_path / "manifest.json").write_text(json.dumps({"views": ["ghost.csv"]}))
    with pytest.raises(FileNotFoundError, match="ghost.csv"):
        load_multiview(tmp_path / "manifest.json")


BOM = "\ufeff".encode("utf-8")  # what Excel's "CSV UTF-8" puts before the first byte


def test_bom_prefixed_files_load_equal_to_their_plain_twins(tmp_path):
    data = synth_multiview(30, 3, (4, 2), (6.0, 6.0), seed=5, name="twin")
    plain = save_multiview(data, tmp_path / "plain")
    (tmp_path / "bom").mkdir()
    for path in plain.parent.iterdir():
        (tmp_path / "bom" / path.name).write_bytes(BOM + path.read_bytes())
    a, b = load_multiview(plain), load_multiview(tmp_path / "bom" / plain.name)
    assert b.name == a.name == "twin"
    assert all(x.tobytes() == y.tobytes() for x, y in zip(a.views, b.views))
    assert np.array_equal(a.labels, b.labels)


@pytest.mark.parametrize(
    "cell, message",
    [("oops", ":3: non-numeric value 'oops'"), ("nan", ":3: non-finite value nan")],
    ids=["non-numeric", "non-finite"],
)
def test_bad_cell_in_a_bom_prefixed_csv_is_reported_at_its_line(tmp_path, cell, message):
    (tmp_path / "v0.csv").write_bytes(BOM + f"1,2\n3,4\n5,{cell}\n".encode())
    (tmp_path / "manifest.json").write_text(json.dumps({"views": ["v0.csv"]}))
    with pytest.raises(ValueError) as err:
        load_multiview(tmp_path / "manifest.json")
    assert str(err.value).startswith(f"{tmp_path / 'v0.csv'}{message}")


def test_load_rejects_a_manifest_that_is_not_valid_json(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text('{"views": [')
    with pytest.raises(ValueError) as err:
        load_multiview(path)
    assert str(err.value).startswith(f"{path}: manifest is not valid JSON: ")


# bit patterns that save_multiview -> load_multiview must keep: signed
# zero, subnormals, the extremes of float64, and 17-digit mantissas
_ROUND_TRIP = np.array([
    [-0.0, 5e-324, np.finfo(np.float64).max],
    [np.finfo(np.float64).tiny, -1.0 / 3.0, 0.1 + 0.2],
])


@pytest.mark.parametrize(
    "text, expected",
    [
        ("1,2\n\n3,4\n\n", [[1.0, 2.0], [3.0, 4.0]]),
        ("1,2\r\n\r\n3,4\r\n", [[1.0, 2.0], [3.0, 4.0]]),
        (" 1 , 2 \n3,\t4\n", [[1.0, 2.0], [3.0, 4.0]]),
        ("1\n2\n3", [[1.0], [2.0], [3.0]]),
        ("1.5,-2e3,nan,inf\n", [[1.5, -2000.0, np.nan, np.inf]]),
        (_ROUND_TRIP, _ROUND_TRIP),
        ("1,2\n# note\n3,4\n", r"f\.csv:2: non-numeric value '# note'"),
        ("1,2\n3,4,5\n", r"f\.csv:2: expected 2 columns, got 3"),
        ("1,2\n\n3,oops\n", r"f\.csv:3: non-numeric value 'oops'"),
        ("1,2,\n", r"f\.csv:1: non-numeric value ''"),
        ("", r"f\.csv: file contains no data rows"),
        ("\n \n\t\n", r"f\.csv: file contains no data rows"),
        # accepted by the line-by-line parser before np.loadtxt, now rejected
        ("1,2\n \n3,4\n", r"f\.csv:2: line holds only whitespace"),
        ("1_0,2\n", r"f\.csv: could not convert string '1_0'"),
    ],
    ids=[
        "blank-lines", "crlf", "spaces", "one-column", "one-row", "round-trip",
        "hash-line", "ragged", "non-numeric", "trailing-comma", "empty", "blank-only",
        "whitespace-line", "underscore-digits",
    ],
)
def test_reader_contract(tmp_path, text, expected):
    """`text` is a CSV file's contents, or a view to save and load back."""
    path = tmp_path / "f.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if isinstance(text, np.ndarray):
            mat = load_multiview(save_multiview(MultiViewDataset([text]), tmp_path)).views[0]
        else:
            path.write_text(text, encoding="utf-8", newline="")
            if isinstance(expected, str):
                with pytest.raises(ValueError, match=expected):
                    _read_numeric_csv(path)
                return
            mat = _read_numeric_csv(path)
    expected = np.asarray(expected, dtype=np.float64)
    assert mat.dtype == np.float64
    assert mat.shape == expected.shape
    assert mat.tobytes() == expected.tobytes()
