import json

import numpy as np
import pytest

from cemvc.clustering import kmeans
from cemvc.data import (
    MultiViewDataset,
    inject_noise_view,
    load_multiview,
    save_multiview,
    synth_multiview,
)
from cemvc.infometrics import mutual_information
from cemvc.metrics import clustering_accuracy


def test_synth_balanced_labels():
    data = synth_multiview(600, 3, 2, 10, 8.0, seed=0)
    assert data.n_views == 2
    assert data.n_samples == 600
    assert np.bincount(data.labels).tolist() == [200, 200, 200]


def test_synth_views_differ_but_labels_agree():
    data = synth_multiview(120, 3, 2, 10, 8.0, seed=1)
    assert not np.array_equal(data.views[0], data.views[1])
    assert data.labels.shape == (120,)


def test_synth_per_view_kmeans_recovers_clusters():
    data = synth_multiview(600, 3, 2, 10, 8.0, seed=2)
    for v, x in enumerate(data.views):
        _, labels = kmeans(x, 3, seed=(2, v), n_init=4)
        assert clustering_accuracy(labels, data.labels) >= 0.9


def test_synth_reproducible_per_seed():
    a = synth_multiview(90, 3, 2, 5, 6.0, seed=7)
    b = synth_multiview(90, 3, 2, 5, 6.0, seed=7)
    assert all(np.array_equal(x, y) for x, y in zip(a.views, b.views))
    assert np.array_equal(a.labels, b.labels)
    c = synth_multiview(90, 3, 2, 5, 6.0, seed=8)
    assert not np.array_equal(a.views[0], c.views[0])


def test_synth_accepts_per_view_dims_and_separation():
    data = synth_multiview(60, 3, 2, [4, 9], [5.0, 7.0], seed=3)
    assert data.dims == [4, 9]


def test_synth_rejects_tiny_sample_count():
    with pytest.raises(ValueError, match="samples"):
        synth_multiview(5, 3, 2, 4, 6.0)


def test_inject_noise_appends_one_view_sharing_others():
    data = synth_multiview(60, 3, 2, 5, 6.0, seed=4)
    noisy = inject_noise_view(data, 7, seed=5)
    assert noisy.n_views == data.n_views + 1
    assert noisy.dims[-1] == 7
    # existing views are the same arrays, bit for bit
    for before, after in zip(data.views, noisy.views):
        assert np.array_equal(before, after)


def test_inject_noise_default_dim_is_mean_of_views():
    data = synth_multiview(60, 3, 2, [4, 8], 6.0, seed=4)
    noisy = inject_noise_view(data, seed=5)
    assert noisy.dims[-1] == 6


def test_inject_noise_is_label_independent():
    data = synth_multiview(600, 3, 2, 5, 6.0, seed=6)
    noisy = inject_noise_view(data, 10, seed=7)
    _, labels = kmeans(noisy.views[-1], 3, seed=8, n_init=4)
    assert mutual_information(labels, data.labels) <= 0.05


def test_inject_noise_seeds_differ():
    data = synth_multiview(40, 2, 2, 5, 6.0, seed=9)
    a = inject_noise_view(data, 5, seed=1)
    b = inject_noise_view(data, 5, seed=2)
    assert not np.array_equal(a.views[-1], b.views[-1])


def test_dataset_rejects_row_mismatch():
    with pytest.raises(ValueError, match="sample counts"):
        MultiViewDataset([np.zeros((3, 2)), np.zeros((4, 2))])


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


def test_save_load_round_trip_is_exact(tmp_path):
    data = synth_multiview(50, 3, 2, 4, 6.0, seed=10)
    manifest = save_multiview(data, tmp_path / "ds")
    loaded = load_multiview(manifest)
    assert loaded.name == data.name
    for a, b in zip(data.views, loaded.views):
        assert np.array_equal(a, b)
    assert np.array_equal(data.labels, loaded.labels)


def test_save_load_without_labels(tmp_path):
    data = MultiViewDataset([np.eye(3), np.ones((3, 2))], name="plain")
    loaded = load_multiview(save_multiview(data, tmp_path))
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
    assert data.labels.tolist() == [1, 0, 2, 1]
    assert data.labels.dtype == np.int64


@pytest.mark.parametrize("cell", ["1.5", "nan", "inf"])
def test_load_rejects_non_integer_label_with_file_and_line(tmp_path, cell):
    # the blank line is not a data row but still counts as a file line
    manifest = write_labelled(tmp_path, f"1\n\n2\n{cell}\n1\n")
    with pytest.raises(ValueError, match=r"y\.csv:4: label .* is not an integer"):
        load_multiview(manifest)


def test_load_missing_file_names_it(tmp_path):
    (tmp_path / "manifest.json").write_text(json.dumps({"views": ["ghost.csv"]}))
    with pytest.raises(FileNotFoundError, match="ghost.csv"):
        load_multiview(tmp_path / "manifest.json")
