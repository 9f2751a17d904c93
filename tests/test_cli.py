"""End-to-end CLI tests: argument handling, exit codes, and the chained
subcommand flow on a tiny manifest."""

import json

import pytest

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
