"""End-to-end CLI tests: argument handling, exit codes, and the chained
subcommand flow on a tiny manifest."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mimosense
from mimosense.channel import Activity
from mimosense.cli import main
from mimosense.errors import NumericError


@pytest.fixture(scope="module")
def work_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def manifest_path(work_dir):
    raw = {
        "sim": {"t": 40, "f": 3, "m": 4, "snr_db": 20.0, "seed": 11},
        "t_w": 20,
        "r_max": 2,
        "als": {"max_iters": 3, "rel_tol": 1e-3, "seed": 0},
        "train": {"epochs": 4, "batch_size": 8, "seed": 0},
        "experiments_per_activity": {k.name: 3 for k in Activity},
        "antenna_sweep": [2, 4],
        "output_dir": str(work_dir / "out"),
    }
    path = work_dir / "manifest.json"
    path.write_text(json.dumps(raw))
    return str(path)


def test_simulate_then_featurize_then_train(manifest_path, capsys):
    assert main(["simulate", "--manifest", manifest_path]) == 0
    dataset = capsys.readouterr().out.strip()
    assert dataset.split("/")[-1].startswith("dataset-")

    assert main(["featurize", "--manifest", manifest_path]) == 0
    features = capsys.readouterr().out.strip()
    assert features.split("/")[-1].startswith("features-")

    assert main(["train-eval", "--manifest", manifest_path]) == 0
    out = capsys.readouterr().out
    assert "accuracy" in out


def test_sweep_and_control(manifest_path, capsys):
    # Its own simulate and featurize, so the test passes when run alone.
    for command in ("simulate", "featurize"):
        assert main([command, "--manifest", manifest_path]) == 0
    capsys.readouterr()
    assert main(["sweep-antennas", "--manifest", manifest_path]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 2 and out[0].startswith("M=2 ")

    assert main(["control", "--manifest", manifest_path]) == 0
    out = capsys.readouterr().out
    assert "verdict" in out


def test_featurize_before_simulate_is_data_error(manifest_path, work_dir, capsys):
    code = main(
        [
            "featurize",
            "--manifest",
            manifest_path,
            "--out",
            str(work_dir / "fresh"),
        ]
    )
    assert code == 3
    assert "data error" in capsys.readouterr().err


def test_bad_manifest_is_validation_error(work_dir, capsys):
    bad = work_dir / "bad.json"
    bad.write_text("{broken")
    assert main(["simulate", "--manifest", str(bad)]) == 2
    assert "validation error" in capsys.readouterr().err
    assert main(["simulate", "--manifest", str(work_dir / "ghost.json")]) == 2


def test_non_list_sweep_is_validation_error(manifest_path, work_dir, capsys):
    raw = json.loads(Path(manifest_path).read_text())
    raw["antenna_sweep"] = 4
    bad = work_dir / "scalar-sweep.json"
    bad.write_text(json.dumps(raw))
    assert main(["simulate", "--manifest", str(bad)]) == 2
    assert "antenna_sweep must be a list" in capsys.readouterr().err


def test_corrupt_feature_label_is_data_error(work_dir, capsys):
    raw = {
        "sim": {"t": 20, "f": 3, "m": 4, "seed": 6},
        "t_w": 10,
        "r_max": 2,
        "als": {"max_iters": 3, "rel_tol": 1e-3},
        "train": {"epochs": 1},
        "experiments_per_activity": {k.name: 2 for k in Activity},
        "antenna_sweep": [4],
        "output_dir": str(work_dir / "corrupt-label"),
    }
    path = work_dir / "corrupt-label.json"
    path.write_text(json.dumps(raw))
    assert main(["simulate", "--manifest", str(path)]) == 0
    assert main(["featurize", "--manifest", str(path)]) == 0
    features = Path(capsys.readouterr().out.split()[-1]) / "features.bin"
    rows = np.fromfile(features, dtype="<f8").reshape(20, -1)
    rows[3, 1] = 9.0  # no such activity
    rows.tofile(features)
    assert main(["train-eval", "--manifest", str(path)]) == 3
    assert "labels must be activity indices" in capsys.readouterr().err


@pytest.mark.parametrize("n_kinds", [5, 4], ids=["five-activities", "four-activities"])
def test_degenerate_split_is_data_error(work_dir, capsys, n_kinds):
    # One window per record: the 85/15 split trains on every row of
    # four (ceil(0.85 * 4) = 4) or five (ceil(0.85 * 5) = 5), so both
    # fail as an empty test set.
    raw = {
        "sim": {"t": 20, "f": 3, "m": 4, "seed": 5},
        "t_w": 20,
        "r_max": 2,
        "als": {"max_iters": 3, "rel_tol": 1e-3},
        "train": {"epochs": 1},
        "experiments_per_activity": {k.name: 1 for k in list(Activity)[:n_kinds]},
        "antenna_sweep": [4],
        "output_dir": str(work_dir / f"degenerate-{n_kinds}"),
    }
    path = work_dir / f"degenerate-{n_kinds}.json"
    path.write_text(json.dumps(raw))
    for command in ("simulate", "featurize"):
        assert main([command, "--manifest", str(path)]) == 0
    capsys.readouterr()
    for command in ("train-eval", "sweep-antennas"):
        assert main([command, "--manifest", str(path)]) == 3
        assert "data error" in capsys.readouterr().err


def test_bad_workers_is_validation_error(manifest_path, capsys):
    assert main(["simulate", "--manifest", manifest_path, "--workers", "0"]) == 2
    assert "--workers" in capsys.readouterr().err


def test_workers_only_on_pooled_stages(manifest_path, capsys):
    # train-eval and control run no process pool, so argparse rejects it.
    with pytest.raises(SystemExit) as exc:
        main(["train-eval", "--manifest", manifest_path, "--workers", "2"])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err


def test_numeric_failure_exit_code(manifest_path, monkeypatch, capsys):
    import mimosense.cli as cli_mod

    def boom(manifest, workers=1):
        raise NumericError("synthetic divergence")

    monkeypatch.setattr(cli_mod, "run_simulate", boom)
    assert main(["simulate", "--manifest", manifest_path]) == 4
    assert "numeric failure" in capsys.readouterr().err


def test_seed_override_changes_dataset_name(manifest_path, work_dir, capsys):
    assert main(["simulate", "--manifest", manifest_path]) == 0
    base = capsys.readouterr().out.strip()
    assert (
        main(["simulate", "--manifest", manifest_path, "--seed", "123"]) == 0
    )
    reseeded = capsys.readouterr().out.strip()
    assert reseeded != base
    assert reseeded.split("/")[-1].startswith("dataset-")


def test_out_override_relocates_outputs(manifest_path, work_dir, capsys):
    target = work_dir / "elsewhere"
    assert (
        main(["simulate", "--manifest", manifest_path, "--out", str(target)])
        == 0
    )
    produced = capsys.readouterr().out.strip()
    assert produced.startswith(str(target))


def test_uncreatable_output_directory_is_data_error(manifest_path, work_dir, capsys):
    blocker = work_dir / "a-regular-file"
    blocker.write_text("")
    target = blocker / "runs"
    assert main(["simulate", "--manifest", manifest_path, "--out", str(target)]) == 3
    err = capsys.readouterr().err
    assert "data error" in err
    assert str(target) in err


def test_module_entry_point_prints_help():
    src = str(Path(mimosense.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-m", "mimosense", "--help"],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    assert "simulate" in result.stdout
