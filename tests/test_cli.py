import json
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest

from cemvc.bench import PRESETS, preset_dataset
from cemvc.cli import _load_config_file, main
from cemvc.data import load_multiview, save_multiview
from cemvc.pipeline import PipelineConfig, RoundTrace


def run_cli(*args):
    return main([str(a) for a in args])


@pytest.fixture()
def dataset_dir(tmp_path):
    out = tmp_path / "ds"
    code = run_cli(
        "synth", "--out", out, "--n", 90, "--k", 3, "--views", 2,
        "--dims", 5, "--sep", 7.0, "--seed", 3,
    )
    assert code == 0
    return out


def fast_config(tmp_path, **extra):
    cfg = {
        "n_clusters": 3,
        "latent_dim": 4,
        "hidden_dims": [8],
        "max_outer_iters": 3,
        "train": {"pretrain_epochs": 30, "finetune_steps_per_round": 8},
    }
    cfg.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def only_run_dir(root):
    dirs = [p for p in Path(root).iterdir() if p.is_dir()]
    assert len(dirs) == 1
    return dirs[0]


def test_synth_writes_loadable_dataset(dataset_dir):
    data = load_multiview(dataset_dir / "manifest.json")
    assert data.n_views == 2
    assert data.n_samples == 90
    assert data.labels is not None


def test_synth_same_seed_byte_identical(tmp_path):
    for sub in ("a", "b"):
        assert run_cli("synth", "--out", tmp_path / sub, "--n", 40, "--seed", 11) == 0
    for name in ("view_0.csv", "view_1.csv", "labels.csv", "manifest.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_synth_noise_views_listed_in_manifest(tmp_path):
    out = tmp_path / "noisy"
    assert run_cli("synth", "--out", out, "--n", 40, "--noise-views", 1, "--noise-dim", 7) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["views"]) == 3
    data = load_multiview(out / "manifest.json")
    assert data.dims[-1] == 7


def test_synth_noise_dim_defaults_to_view_dim(tmp_path):
    out = tmp_path / "noisy"
    assert run_cli("synth", "--out", out, "--n", 40, "--dims", 4, "--noise-views", 2) == 0
    assert load_multiview(out / "manifest.json").dims == [4, 4, 4, 4]


def test_readme_synth_example_writes_noisy3view_seed_0(tmp_path):
    assert run_cli(
        "synth", "--out", tmp_path / "cli", "--n", 600, "--k", 3, "--views", 2, "--dims", 6,
        "--sep", 4.0, "--noise-views", 1, "--noise-dim", 200, "--seed", 0,
    ) == 0
    save_multiview(preset_dataset(PRESETS["noisy3view"], 0, noisy=True), tmp_path / "preset")
    for name in ("view_0.csv", "view_1.csv", "view_2.csv", "labels.csv"):
        assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / "preset" / name).read_bytes()


def test_readme_config_block_is_the_default_config():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Config file", 1)[1]
    block = section.split("```json\n", 1)[1].split("```", 1)[0]
    expected = json.loads(json.dumps(asdict(PipelineConfig(n_clusters=3))))
    # dumped again, so key order counts as well as values
    assert json.dumps(json.loads(block)) == json.dumps(expected)


def test_synth_rejects_negative_noise_views(tmp_path, capsys):
    out = tmp_path / "ds"
    assert run_cli("synth", "--out", out, "--n", 40, "--noise-views", -1) == 1
    assert "--noise-views must be >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_synth_unwritable_path_fails_nonzero(tmp_path, capsys):
    target = tmp_path / "blocked"
    target.write_text("a file, not a directory")
    assert run_cli("synth", "--out", target, "--n", 40) == 1
    assert "error:" in capsys.readouterr().err


def test_run_cemvc_writes_report_and_embedding(dataset_dir, tmp_path):
    out = tmp_path / "runs"
    cfg = fast_config(tmp_path)
    code = run_cli(
        "run", "--data", dataset_dir / "manifest.json", "--out", out,
        "--mode", "cemvc", "--config", cfg, "--seed", 0,
    )
    assert code == 0
    run_dir = only_run_dir(out)
    report = json.loads((run_dir / "report.json").read_text())
    assert report["mode"] == "cemvc"
    assert report["result"]["metrics"]["acc"] >= 0.9
    assert len(report["result"]["rounds"]) >= 1
    # each round is its RoundTrace, field for field
    for rnd in report["result"]["rounds"]:
        assert list(rnd) == [f.name for f in fields(RoundTrace)]
    # fully resolved config is embedded
    assert report["config"]["train"]["pretrain_epochs"] == 30
    assert report["config"]["tolerance"] == 0.001
    emb = np.loadtxt(run_dir / "embedding.csv", delimiter=",")
    assert emb.shape == (90, 8)


def test_run_infers_k_from_labels(dataset_dir, tmp_path):
    out = tmp_path / "runs"
    cfg = fast_config(tmp_path)
    data = json.loads((tmp_path / "config.json").read_text())
    del data["n_clusters"]
    (tmp_path / "config.json").write_text(json.dumps(data))
    assert run_cli("run", "--data", dataset_dir / "manifest.json", "--out", out, "--config", cfg) == 0
    report = json.loads((only_run_dir(out) / "report.json").read_text())
    assert report["config"]["n_clusters"] == 3


def test_run_infers_k_from_one_based_labels(dataset_dir, tmp_path):
    labels = np.loadtxt(dataset_dir / "labels.csv", dtype=np.int64)
    np.savetxt(dataset_dir / "labels.csv", labels[:, None] + 1, fmt="%d")
    cfg = json.loads(fast_config(tmp_path).read_text())
    del cfg["n_clusters"]
    (tmp_path / "config.json").write_text(json.dumps(cfg))
    out = tmp_path / "runs"
    code = run_cli(
        "run", "--data", dataset_dir / "manifest.json", "--out", out,
        "--config", tmp_path / "config.json",
    )
    assert code == 0
    report = json.loads((only_run_dir(out) / "report.json").read_text())
    assert report["config"]["n_clusters"] == 3


def test_run_ablation_has_three_keyed_blocks(dataset_dir, tmp_path):
    out = tmp_path / "runs"
    cfg = fast_config(tmp_path, max_outer_iters=2)
    code = run_cli(
        "run", "--data", dataset_dir / "manifest.json", "--out", out,
        "--mode", "ablation", "--config", cfg, "--seed", 1,
    )
    assert code == 0
    run_dir = only_run_dir(out)
    report = json.loads((run_dir / "report.json").read_text())
    assert sorted(report["results"]) == ["enmi", "enmi_ce", "nmi"]
    for mode in ("nmi", "enmi", "enmi_ce"):
        assert (run_dir / f"embedding-{mode}.csv").is_file()


def test_run_shared_mode(dataset_dir, tmp_path):
    out = tmp_path / "runs"
    cfg = fast_config(tmp_path)
    assert run_cli(
        "run", "--data", dataset_dir / "manifest.json", "--out", out,
        "--mode", "shared", "--config", cfg,
    ) == 0
    report = json.loads((only_run_dir(out) / "report.json").read_text())
    assert report["mode"] == "shared"
    assert report["result"]["rounds"][0]["cond_entropies"][0] is None


def test_run_rejects_invalid_mode(dataset_dir, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(
            "run", "--data", dataset_dir / "manifest.json",
            "--out", tmp_path / "runs", "--mode", "bogus",
        )
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "cemvc" in err and "shared" in err and "ablation" in err


def test_run_missing_data_fails_cleanly(tmp_path, capsys):
    assert run_cli("run", "--data", tmp_path / "nope.json", "--out", tmp_path / "o") == 1
    assert "error:" in capsys.readouterr().err


def test_run_reports_are_byte_identical_for_same_seed(dataset_dir, tmp_path):
    cfg = fast_config(tmp_path)
    outs = []
    for sub in ("r1", "r2"):
        out = tmp_path / sub
        assert run_cli(
            "run", "--data", dataset_dir / "manifest.json", "--out", out,
            "--mode", "cemvc", "--config", cfg, "--seed", 7,
        ) == 0
        outs.append(only_run_dir(out))
    assert (outs[0] / "report.json").read_bytes() == (outs[1] / "report.json").read_bytes()
    assert (outs[0] / "embedding.csv").read_bytes() == (outs[1] / "embedding.csv").read_bytes()


def test_run_twice_appends_new_directory(dataset_dir, tmp_path):
    out = tmp_path / "runs"
    cfg = fast_config(tmp_path)
    for _ in range(2):
        assert run_cli(
            "run", "--data", dataset_dir / "manifest.json", "--out", out,
            "--mode", "cemvc", "--config", cfg,
        ) == 0
    assert len([p for p in out.iterdir() if p.is_dir()]) == 2


def test_run_rejects_unknown_config_keys(dataset_dir, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n_clusters": 3, "typo_key": 1}))
    assert run_cli(
        "run", "--data", dataset_dir / "manifest.json",
        "--out", tmp_path / "o", "--config", bad,
    ) == 1
    assert "typo_key" in capsys.readouterr().err


@pytest.mark.parametrize(
    "override, field",
    [
        ({"latent_dim": 2.5}, "latent_dim"),
        ({"hidden_dims": [8.5]}, "hidden_dims[0]"),
        ({"n_clusters": 3.0}, "n_clusters"),
        ({"train": {"pretrain_epochs": 2.5}}, "pretrain_epochs"),
        ({"latent_dim": True}, "latent_dim"),
        ({"max_outer_iters": 1.5}, "max_outer_iters"),
        ({"seed": 1.5}, "seed"),
        ({"seed": -1}, "seed"),
        ({"hidden_dims": 8}, "hidden_dims"),
        ({"train": {"learning_rate": "0.1"}}, "learning_rate"),
        ({"train": {"clustering_weight": True}}, "clustering_weight"),
        ({"train": {"clustering_weight": float("nan")}}, "clustering_weight"),
        ({"train": {"learning_rate": float("inf")}}, "learning_rate"),
        ({"tolerance": None}, "tolerance"),
        ({"standardize": "no"}, "standardize"),
        # a "train" value that is not an object is named with the file
        *[({"train": value}, '{config}: "train"') for value in ([], None, 5, "abc", [["learning_rate", 0.01]])],
    ],
)
def test_run_rejects_non_integer_counts_before_making_a_run_dir(
    dataset_dir, tmp_path, capsys, override, field
):
    # the message names the field first; test_config_validation checks the
    # rest of each message
    out = tmp_path / "runs"
    cfg = fast_config(tmp_path, **override)
    assert run_cli("run", "--data", dataset_dir / "manifest.json", "--out", out, "--config", cfg) == 1
    assert capsys.readouterr().err.startswith(f"error: {field.format(config=cfg)} must be ")
    assert not out.exists()


def test_run_rejects_a_negative_seed_flag_before_making_a_run_dir(dataset_dir, tmp_path, capsys):
    out = tmp_path / "runs"
    args = ("run", "--data", dataset_dir / "manifest.json", "--out", out, "--config", fast_config(tmp_path))
    assert run_cli(*args, "--seed", "-1") == 1
    assert capsys.readouterr().err.startswith("error: seed must be >= 0")
    assert not out.exists()


def test_run_with_more_clusters_than_rows_makes_no_run_dir(dataset_dir, tmp_path, capsys):
    # the data is checked against the config inside the fit, which runs
    # before the run directory is made
    out = tmp_path / "runs"
    cfg = fast_config(tmp_path, n_clusters=200)
    assert run_cli("run", "--data", dataset_dir / "manifest.json", "--out", out, "--config", cfg) == 1
    err = capsys.readouterr().err
    assert "200" in err and "90" in err
    assert not out.exists()


def test_run_with_a_malformed_manifest_makes_no_run_dir(dataset_dir, tmp_path, capsys):
    manifest = dataset_dir / "manifest.json"
    manifest.write_text(json.dumps({"name": "ds", "views": "view_0.csv", "labels": "labels.csv"}))
    out = tmp_path / "runs"
    assert run_cli("run", "--data", manifest, "--out", out, "--config", fast_config(tmp_path)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {manifest}: ")
    assert '"views" must be a non-empty list of file names' in err
    assert not out.exists()


@pytest.mark.parametrize("cell", ["nan", "inf"])
def test_run_with_a_non_finite_cell_names_file_and_line_and_makes_no_run_dir(
    dataset_dir, tmp_path, capsys, cell
):
    # after the blank line, data row 2 is file line 4
    view = dataset_dir / "view_1.csv"
    lines = view.read_text().splitlines()
    view.write_text("\n".join([lines[0], "", lines[1], f"{cell},{lines[2].split(',', 1)[1]}", *lines[3:]]) + "\n")
    out = tmp_path / "runs"
    assert run_cli("run", "--data", dataset_dir / "manifest.json", "--out", out, "--config", fast_config(tmp_path)) == 1
    assert capsys.readouterr().err == f"error: {view}:4: non-finite value {cell} in column 1\n"
    assert not out.exists()


@pytest.mark.parametrize("broken", ["manifest", "config"])
def test_run_names_the_file_that_is_not_valid_json(dataset_dir, tmp_path, capsys, broken):
    paths = {"manifest": dataset_dir / "manifest.json", "config": fast_config(tmp_path)}
    paths[broken].write_text('{"views": ["view_0.csv", ')
    out = tmp_path / "runs"
    assert run_cli("run", "--data", paths["manifest"], "--out", out, "--config", paths["config"]) == 1
    what = "manifest" if broken == "manifest" else "config file"
    assert capsys.readouterr().err.startswith(f"error: {paths[broken]}: {what} is not valid JSON: ")
    assert not out.exists()


def test_bom_prefixed_config_loads_equal_to_its_plain_twin(tmp_path):
    plain = fast_config(tmp_path, weighting_mode="nmi")
    bom = tmp_path / "bom.json"
    bom.write_bytes("\ufeff".encode("utf-8") + plain.read_bytes())
    assert _load_config_file(str(bom)) == _load_config_file(str(plain))


@pytest.mark.parametrize("below", [False, True], ids=["file", "below-a-file"])
@pytest.mark.parametrize("command", ["run", "bench"])
def test_out_that_cannot_hold_a_directory_fails_before_any_fit(
    dataset_dir, tmp_path, capsys, monkeypatch, command, below
):
    import cemvc.cli as cli_module

    fits = []
    monkeypatch.setattr(cli_module, "run_cemvc", lambda *a: fits.append(a))
    monkeypatch.setattr(cli_module, "summarize", lambda *a: fits.append(a))
    blocker = tmp_path / "notadir"
    blocker.write_text("keep me\n")
    out = blocker / "runs" if below else blocker
    args = {
        "run": ("run", "--data", dataset_dir / "manifest.json", "--config", fast_config(tmp_path)),
        "bench": ("bench", "--seeds", 1),
    }[command]
    assert run_cli(*args, "--out", out) == 1
    assert capsys.readouterr().err == f"error: --out {out}: {blocker} is not a directory\n"
    assert fits == []
    assert blocker.read_text() == "keep me\n"
    assert not below or not out.exists()


def test_run_accepts_every_documented_config_key(dataset_dir, tmp_path):
    # every PipelineConfig and TrainConfig field, each set away from its default
    documented = {
        "n_clusters": 3,
        "latent_dim": 3,
        "hidden_dims": [6],
        "max_outer_iters": 2,
        "tolerance": 0.0,
        "weighting_mode": "enmi",
        "standardize": False,
        "kmeans_restarts": 2,
        "seed": 5,
        "train": {
            "pretrain_epochs": 5,
            "finetune_steps_per_round": 2,
            "batch_size": 32,
            "learning_rate": 0.002,
            "clustering_weight": 0.2,
        },
    }
    path = tmp_path / "every_key.json"
    path.write_text(json.dumps(documented))
    out = tmp_path / "runs"
    assert run_cli("run", "--data", dataset_dir / "manifest.json", "--out", out, "--config", path) == 0
    config = json.loads((only_run_dir(out) / "report.json").read_text())["config"]
    assert config == documented


def test_bench_rejects_zero_seeds(tmp_path, capsys):
    assert run_cli("bench", "--out", tmp_path / "b", "--seeds", 0) == 1
    assert "seeds" in capsys.readouterr().err


def test_bench_writes_eight_row_summary(tmp_path, monkeypatch):
    import cemvc.cli as cli_module
    from cemvc.bench import BenchPreset
    from cemvc.model import TrainConfig

    tiny = BenchPreset(
        name="noisy3view",
        n_samples=90,
        dims=(5, 5),
        separation=(7.0, 7.0),
        noise_dims=(10,),
        pipeline=PipelineConfig(
            n_clusters=3,
            latent_dim=4,
            hidden_dims=(8,),
            max_outer_iters=2,
            train=TrainConfig(pretrain_epochs=25, finetune_steps_per_round=5),
        ),
    )
    monkeypatch.setitem(cli_module.PRESETS, "noisy3view", tiny)
    out = tmp_path / "bench"
    assert run_cli("bench", "--out", out, "--seeds", 2, "--preset", "noisy3view") == 0
    table = (only_run_dir(out) / "summary.csv").read_text().strip().split("\n")
    assert table[0].startswith("method,variant,acc_mean")
    assert len(table) == 9
    assert [line.split(",")[:2] for line in table[1:]] == [
        [method, variant]
        for method in ("nmi", "enmi", "enmi_ce", "shared")
        for variant in ("clean", "noisy")
    ]
