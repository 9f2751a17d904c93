"""Pipeline stage tests on a tiny end-to-end manifest.

The shared fixtures simulate and featurize one small dataset once per
module; determinism checks hash every produced file and rerun the
stage.
"""

import csv
import hashlib
import json
import math
import time
from dataclasses import replace as dc_replace
from pathlib import Path

import numpy as np
import pytest

from mimosense import nn, pipeline
from mimosense.channel import (
    Activity,
    SimulatedRecord,
    load_record,
    save_record,
    simulate_record,
)
from mimosense.errors import DataError
from mimosense.features import (
    feature_names,
    load_features_bin,
    save_features_bin,
)
from mimosense.manifest import manifest_from_dict
from mimosense.nn import load_model, split
from mimosense.pipeline import (
    _dataset_from_features,
    _featurize_dataset,
    _featurize_one,
    control_dir,
    dataset_dir,
    features_dir,
    record_plan,
    report_dir,
    run_control,
    run_featurize,
    run_simulate,
    run_sweep,
    run_train_eval,
    sweep_dir,
)


def tiny_dict(out_dir, **over):
    raw = {
        "sim": {"t": 40, "f": 3, "m": 4, "snr_db": 20.0, "seed": 5},
        "t_w": 20,
        "r_max": 2,
        "als": {"max_iters": 3, "rel_tol": 1e-3, "seed": 0},
        "train": {"epochs": 4, "batch_size": 8, "seed": 0},
        "experiments_per_activity": {k.name: 2 for k in Activity},
        "antenna_sweep": [2, 4],
        "output_dir": str(out_dir),
    }
    for key, value in over.items():
        if isinstance(value, dict) and isinstance(raw.get(key), dict):
            raw[key] = {**raw[key], **value}
        else:
            raw[key] = value
    return raw


def dir_hashes(path: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(path.iterdir())
        if p.is_file()
    }


@pytest.fixture(scope="module")
def work_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("pipe")


@pytest.fixture(scope="module")
def man(work_dir):
    return manifest_from_dict(tiny_dict(work_dir))


@pytest.fixture(scope="module")
def dataset(man):
    return run_simulate(man)


@pytest.fixture(scope="module")
def features(man, dataset):
    return run_featurize(man)


# ---------------------------------------------------------------- simulate


def test_record_plan_layout(man):
    plan = record_plan(man)
    assert [idx for idx, _, _ in plan] == list(range(10))
    kinds = [kind for _, kind, _ in plan]
    assert kinds == sorted(kinds)  # activity-ordered
    assert all(kinds.count(k) == 2 for k in Activity)
    seeds = [seed for _, _, seed in plan]
    assert len(set(seeds)) == len(seeds)


def test_simulate_writes_record_pairs(man, dataset):
    assert dataset == dataset_dir(man)
    assert len(list(dataset.glob("rec-*.mmt3"))) == 10
    assert len(list(dataset.glob("rec-*.json"))) == 10
    meta = json.loads((dataset / "dataset.json").read_text())
    assert meta["records"] == 10
    assert meta["per_activity"]["STATIC"] == 2
    # Sidecar labels follow the plan ordering.
    rec = load_record(dataset / "rec-0000.mmt3")
    assert rec.label == Activity.STATIC
    assert rec.tensor.shape == (40, 3, 4)


def test_simulate_rerun_is_byte_identical(man, dataset):
    before = dir_hashes(dataset)
    run_simulate(man)
    assert dir_hashes(dataset) == before


def test_simulate_worker_count_does_not_change_bytes(work_dir):
    raw = tiny_dict(work_dir, sim={"t": 40, "f": 3, "m": 4, "seed": 21})
    man = manifest_from_dict(raw)
    out = run_simulate(man, workers=1)
    serial = dir_hashes(out)
    run_simulate(man, workers=2)
    assert dir_hashes(out) == serial


def test_simulate_single_experiments_make_five_files(work_dir):
    raw = tiny_dict(
        work_dir,
        sim={"t": 40, "f": 3, "m": 4, "seed": 22},
        experiments_per_activity={k.name: 1 for k in Activity},
    )
    out = run_simulate(manifest_from_dict(raw))
    assert len(list(out.glob("rec-*.mmt3"))) == 5


def test_simulate_default_counts_make_108_files(work_dir):
    raw = tiny_dict(work_dir, sim={"t": 20, "f": 2, "m": 4, "seed": 23})
    raw.pop("experiments_per_activity")
    raw["t_w"] = 10
    out = run_simulate(manifest_from_dict(raw))
    assert len(list(out.glob("rec-*.mmt3"))) == 108


# --------------------------------------------------------------- featurize


def test_featurize_row_counts_and_labels(man, features):
    feats = load_features_bin(features / "features.bin")
    assert len(feats) == 20  # 10 records x 2 windows
    assert all(fs.lambdas.shape == (31, 2) for fs in feats)
    assert [fs.window_id for fs in feats] == list(range(20))
    # Record r covers windows 2r and 2r+1 with that record's label.
    plan_labels = [k for k in Activity for _ in range(2)]
    for fs in feats:
        assert fs.label == plan_labels[fs.window_id // 2]
    summary = json.loads((features / "summary.json").read_text())
    assert summary["rows"] == 20
    assert all(v == 4 for v in summary["per_class"].values())
    assert summary["input_width"] == 31


def test_featurize_summary_reports_cp_fits_per_slot(man, features):
    summary = json.loads((features / "summary.json").read_text())
    fits = summary["cp_fits"]
    assert [f["slot"] for f in fits] == feature_names()
    # The feature files keep no diagnostics; a fresh extraction has them.
    assert load_features_bin(features / "features.bin")[0].n_sweeps == ()
    feats = _featurize_dataset(man, man.sim.m)
    assert [f["sweeps"] for f in fits] == [
        sum(fs.n_sweeps[slot] for fs in feats) for slot in range(31)
    ]
    assert [f["converged"] for f in fits] == [
        sum(fs.converged[slot] for fs in feats) for slot in range(31)
    ]
    # 20 fits per slot (max_iters=3): one that did not converge ran 3
    # sweeps, one that did ran 2 or 3.
    for f in fits:
        assert 60 - f["converged"] <= f["sweeps"] <= 60
    assert any(f["converged"] for f in fits)


def test_featurize_csv_and_bin_agree(features):
    with open(features / "features.csv", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert header[:3] == ["window_id", "label", "window_amp[0]"]
    assert len(header) == 2 + 31 * 2
    by_bin = np.fromfile(features / "features.bin", dtype="<f8")
    np.testing.assert_array_equal(
        np.array(rows, dtype=float), by_bin.reshape(len(rows), len(header))
    )


def test_featurize_rerun_is_byte_identical(man, features):
    before = dir_hashes(features)
    run_featurize(man)
    assert dir_hashes(features) == before


def test_featurize_worker_count_does_not_change_bytes(man, features):
    before = dir_hashes(features)
    run_featurize(man, workers=2)
    assert dir_hashes(features) == before


def test_featurize_without_dataset_raises(work_dir):
    ghost = manifest_from_dict(
        tiny_dict(work_dir, sim={"t": 40, "f": 3, "m": 4, "seed": 99})
    )
    with pytest.raises(DataError, match="run simulate first"):
        run_featurize(ghost)


def test_featurize_keeps_the_first_m_antennas(tmp_path):
    # Featurize at m_keep = 4 of an 8-antenna record must equal featurize
    # of a record that holds only those 4 antennas, frame loss included.
    man = manifest_from_dict(
        tiny_dict(tmp_path, sim={"m": 8, "frame_loss_prob": 0.1, "seed": 3})
    )
    full = simulate_record(man.sim, Activity.ROTATE)
    assert full.mask.any()
    save_record(tmp_path / "full.mmt3", full)
    cut = SimulatedRecord(
        tensor=full.tensor[:, :, :4],
        mask=full.mask,
        label=full.label,
        manifest=dc_replace(full.manifest, m=4),
    )
    save_record(tmp_path / "cut.mmt3", cut)
    got, want = (
        _featurize_one((str(tmp_path / name), 2, man.t_w, man.als, 4))
        for name in ("full.mmt3", "cut.mmt3")
    )
    assert len(got) == len(want) == 2
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g.lambdas, w.lambdas)
        assert (g.window_id, g.label) == (w.window_id, w.label)


def _truncate_payload(ds, idx):
    path = ds / f"rec-{idx:04d}.mmt3"
    path.write_bytes(path.read_bytes()[:40])


def _lose_first_snapshot(ds, idx):
    sidecar = ds / f"rec-{idx:04d}.json"
    raw = json.loads(sidecar.read_text())
    raw["lost_runs"] = [[0, 1]]
    sidecar.write_text(json.dumps(raw))


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize(
    "corrupt", [_truncate_payload, _lose_first_snapshot], ids=["payload", "boundary"]
)
def test_featurize_stops_at_the_first_unreadable_record(tmp_path, corrupt, workers):
    # One unreadable record in ten stops featurize and the sweep before
    # they write anything; with two bad records, the error names the
    # first in record order, whatever the worker count.
    man = manifest_from_dict(tiny_dict(tmp_path))
    ds = run_simulate(man)
    corrupt(ds, 4)
    _truncate_payload(ds, 7)
    for stage in (run_featurize, run_sweep):
        with pytest.raises(DataError, match="rec-0004.mmt3") as exc:
            stage(man, workers=workers)
        assert "rec-0007" not in str(exc.value)
    assert not features_dir(man).exists()
    assert not sweep_dir(man).exists()


def _mark_or_fail(job):
    index, marks = job
    if index == 0:
        raise DataError("job 0 fails")
    Path(marks, f"{index}").touch()
    time.sleep(0.2)
    return index


def test_pool_map_stops_at_the_first_failure(tmp_path):
    # The first failure cancels the jobs the pool has not started: of 40
    # jobs, only those already handed to its two workers run.
    jobs = [(index, str(tmp_path)) for index in range(40)]
    with pytest.raises(DataError, match="job 0 fails"):
        pipeline._pool_map(_mark_or_fail, jobs, workers=2)
    assert len(list(tmp_path.iterdir())) < 10


def test_featurize_refuses_a_killed_simulate(work_dir):
    # A simulate killed after record 8 of 15 leaves records 0-8 and no
    # dataset.json, which it writes last.
    raw = tiny_dict(
        work_dir,
        sim={"t": 40, "f": 3, "m": 4, "seed": 28},
        experiments_per_activity={k.name: 3 for k in Activity},
    )
    man = manifest_from_dict(raw)
    ds = run_simulate(man)
    for idx in range(9, 15):
        (ds / f"rec-{idx:04d}.mmt3").unlink()
        (ds / f"rec-{idx:04d}.json").unlink()
    meta = ds / "dataset.json"
    meta_bytes = meta.read_bytes()
    meta.unlink()
    with pytest.raises(DataError, match="run simulate first"):
        run_featurize(man)
    assert not features_dir(man).exists()
    # With dataset.json back, the first missing record stops featurize.
    meta.write_bytes(meta_bytes)
    with pytest.raises(DataError, match="rec-0009"):
        run_featurize(man)


# -------------------------------------------------------------- train/eval


def test_train_eval_reports(man, features):
    result = run_train_eval(man)
    out = report_dir(man)
    assert result["report_dir"] == out
    assert 0.0 <= result["accuracy"] <= 1.0
    assert result["n_train"] == 17 and result["n_test"] == 3

    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["accuracy"] == result["accuracy"]
    assert metrics["rows"] == 20

    # Confusion row sums must equal test-set class counts.
    ds = _dataset_from_features(load_features_bin(features / "features.bin"))
    _, test_part = split(ds, man.train)
    expected = np.bincount(test_part.class_indices(), minlength=5)
    np.testing.assert_array_equal(
        result["confusion"].sum(axis=1), expected
    )
    lines = (out / "confusion.csv").read_text().strip().splitlines()
    assert lines[0] == "true,STATIC,PERIODIC,RANDOM,ROTATE_SHIFT,ROTATE"
    assert len(lines) == 6

    loss_lines = (out / "loss_history.csv").read_text().strip().splitlines()
    assert len(loss_lines) == 1 + man.train.epochs

    model, header = load_model(out / "model.ckpt")
    assert model.layer_dims == (31, 64, 32, 32, 32, 5)
    assert header["train_config"]["epochs"] == 4

    # confusion.csv holds every count a per-class report would derive.
    assert sorted(p.name for p in out.iterdir()) == [
        "confusion.csv",
        "loss_history.csv",
        "metrics.json",
        "model.ckpt",
    ]


def test_train_eval_rerun_is_byte_identical(man, features):
    run_train_eval(man)
    before = dir_hashes(report_dir(man))
    run_train_eval(man)
    assert dir_hashes(report_dir(man)) == before


def test_train_eval_without_features_raises(work_dir):
    ghost = manifest_from_dict(
        tiny_dict(work_dir, sim={"t": 40, "f": 3, "m": 4, "seed": 98})
    )
    with pytest.raises(DataError, match="run featurize first"):
        run_train_eval(ghost)


# ------------------------------------------------------------------- sweep


def test_sweep_rows_and_full_m_consistency(man, features):
    rows = run_sweep(man)
    assert [m for m, _ in rows] == [2, 4]
    # The full-M sweep row reproduces train/eval on untruncated data.
    reference = run_train_eval(man)
    assert rows[1][1] == reference["accuracy"]

    lines = (sweep_dir(man) / "sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "m,accuracy"
    parsed = [line.split(",") for line in lines[1:]]
    assert [int(p[0]) for p in parsed] == [2, 4]
    assert float(parsed[1][1]) == reference["accuracy"]


# ----------------------------------------------------------------- control


def test_control_report(work_dir):
    raw = tiny_dict(
        work_dir,
        sim={"t": 40, "f": 3, "m": 4, "seed": 25},
        t_w=8,
        experiments_per_activity={k.name: 2 for k in Activity},
        train={"epochs": 6, "batch_size": 4, "seed": 0},
    )
    man = manifest_from_dict(raw)
    run_simulate(man)
    run_featurize(man)
    result = run_control(man)
    assert result["verdict"] in ("pass", "fail")
    assert sorted(result["accuracies"]) == sorted(k.name for k in Activity)
    assert all(0.0 <= a <= 1.0 for a in result["accuracies"].values())

    out = control_dir(man)
    assert sorted(p.name for p in out.iterdir()) == ["control.json"]
    report = json.loads((out / "control.json").read_text())
    assert report["verdict"] == result["verdict"]
    assert report["accuracies"] == result["accuracies"]
    assert report["bounds"] == [0.35, 0.65]


def test_control_flags_injected_drift(work_dir):
    raw = tiny_dict(
        work_dir,
        sim={"t": 40, "f": 3, "m": 4, "seed": 27},
        t_w=8,
        experiments_per_activity={k.name: 3 for k in Activity},
        train={"epochs": 150, "batch_size": 8, "seed": 0},
    )
    man = manifest_from_dict(raw)
    run_simulate(man)
    run_featurize(man)

    # Tamper the persisted feature table: give one activity's weight
    # vectors a blatant linear drift across window position.
    path = features_dir(man) / "features.bin"
    feats = load_features_bin(path)
    k = man.windows_per_record
    static = [fs for fs in feats if fs.label == Activity.STATIC]
    sigma = np.std(np.stack([fs.lambdas for fs in static]), axis=0)
    tampered = []
    for fs in feats:
        if fs.label == Activity.STATIC:
            pos = fs.window_id % k
            fs = dc_replace(fs, lambdas=fs.lambdas + pos * 12.0 * sigma)
        tampered.append(fs)
    save_features_bin(path, tampered)

    result = run_control(man)
    assert result["verdict"] == "fail"
    assert result["accuracies"]["STATIC"] > 0.9


def test_control_single_record_activity_is_data_error(work_dir):
    raw = tiny_dict(
        work_dir,
        sim={"t": 40, "f": 3, "m": 4, "seed": 26},
        t_w=8,
        experiments_per_activity={k.name: 1 for k in Activity},
        train={"epochs": 2, "batch_size": 4, "seed": 0},
    )
    man = manifest_from_dict(raw)
    run_simulate(man)
    run_featurize(man)
    with pytest.raises(DataError, match="at least 2 records"):
        run_control(man)


# ---------------------------------------------------------- trace hooks


def test_stages_train_and_step_through_module_globals(work_dir, monkeypatch):
    # The benchmark's tracer counts trainings and Adam steps by wrapping
    # nn.train (and pipeline's imported train) and nn.adam_step by name,
    # and checks the counts against the manifest: one training per
    # train-eval call, per sweep value and per control activity, and
    # epochs * ceil(rows / batch) steps per training.  A stage that
    # reached them another way would break those counts.
    raw = tiny_dict(
        work_dir,
        sim={"t": 40, "f": 3, "m": 4, "seed": 28},
        t_w=10,
        experiments_per_activity={
            "STATIC": 3, "PERIODIC": 2, "RANDOM": 2, "ROTATE_SHIFT": 2, "ROTATE": 4
        },
        train={"epochs": 2, "batch_size": 7, "seed": 0},
    )
    man = manifest_from_dict(raw)
    run_simulate(man)
    run_featurize(man)

    steps_per_training = []
    steps = [0]
    real_train, real_step = nn.train, nn.adam_step

    def counted_train(ds, cfg):
        before = steps[0]
        result = real_train(ds, cfg)
        steps_per_training.append(steps[0] - before)
        return result

    def counted_step(model, g, state):
        steps[0] += 1
        return real_step(model, g, state)

    for module in (pipeline, nn):
        monkeypatch.setattr(module, "train", counted_train)
    monkeypatch.setattr(nn, "adam_step", counted_step)
    run_train_eval(man)
    run_sweep(man)
    run_control(man)

    k = man.windows_per_record
    per_activity = [n for _, n in man.record_counts()]
    epochs, batch = man.train.epochs, man.train.batch_size
    n_train = math.ceil(man.train.split_fraction * sum(per_activity) * k)
    # Train-eval and each sweep value train on the same split; the
    # control trains once per activity on all but its held-out records.
    rows = [n_train] * (1 + len(man.antenna_sweep))
    rows += [min(n - 1, math.ceil(0.8 * n)) * k for n in per_activity]
    assert steps_per_training == [epochs * math.ceil(r / batch) for r in rows]
    assert steps[0] == sum(steps_per_training)


# ------------------------------------------------------- content addressing


def test_output_names_are_content_addressed(work_dir, man):
    other_seed = manifest_from_dict(
        tiny_dict(work_dir, sim={"t": 40, "f": 3, "m": 4, "seed": 6})
    )
    assert dataset_dir(other_seed).name != dataset_dir(man).name

    other_rank = manifest_from_dict(tiny_dict(work_dir, r_max=3))
    assert dataset_dir(other_rank).name == dataset_dir(man).name
    assert features_dir(other_rank).name != features_dir(man).name

    other_train = manifest_from_dict(
        tiny_dict(work_dir, train={"epochs": 4, "batch_size": 8, "seed": 1})
    )
    assert features_dir(other_train).name == features_dir(man).name
    assert report_dir(other_train).name != report_dir(man).name

    elsewhere = manifest_from_dict(tiny_dict(work_dir / "other"))
    assert dataset_dir(elsewhere).name == dataset_dir(man).name
    assert dataset_dir(elsewhere).parent != dataset_dir(man).parent


def test_output_names_of_a_fixed_manifest():
    # The names address files already written; a refactor of the
    # addressing must leave every one of them where it was.  These are
    # the names of the canonical dict without the channel and Adam
    # constants, which were manifest fields before.
    man = manifest_from_dict(tiny_dict("unused"))
    names = [
        d(man).name
        for d in (dataset_dir, features_dir, report_dir, sweep_dir, control_dir)
    ]
    assert names == [
        "dataset-9bf8eefef001",
        "features-02fcd3ea0e74",
        "report-c3ce429d91bb",
        "sweep-d7168ac3a94c",
        "control-c3ce429d91bb",
    ]
