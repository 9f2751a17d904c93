"""Manifest parsing and validation tests."""

import dataclasses
import json

import pytest

from mimosense.channel import Activity
from mimosense.manifest import (
    DEFAULT_ANTENNA_SWEEP,
    DEFAULT_EXPERIMENT_COUNTS,
    canonical_dict,
    load_manifest,
    manifest_from_dict,
    reseed,
)


def minimal(**over):
    raw = {"sim": {"t": 3000, "f": 100, "m": 100}}
    raw.update(over)
    return raw


def test_defaults_resolve():
    man = manifest_from_dict(minimal())
    assert man.t_w == 200
    assert man.r_max == 100
    assert man.als.rank == 100
    assert man.antenna_sweep == DEFAULT_ANTENNA_SWEEP
    assert man.experiments_per_activity == DEFAULT_EXPERIMENT_COUNTS
    assert man.windows_per_record == 15
    assert man.train.epochs == 200 and man.train.batch_size == 32
    assert man.train.split_fraction == 0.85


def test_default_counts_full_scale_layout():
    man = manifest_from_dict(minimal())
    counts = man.record_counts()
    assert [kind for kind, _ in counts] == list(Activity)
    assert dict(counts)[Activity.STATIC] == 36
    assert sum(n for _, n in counts) == 108


def test_activity_aliases_accepted():
    man = manifest_from_dict(
        minimal(
            experiments_per_activity={"A1": 3, "a2": 1, "RANDOM": 2}
        )
    )
    got = man.experiments_per_activity
    assert got[Activity.STATIC] == 3
    assert got[Activity.PERIODIC] == 1
    assert got[Activity.RANDOM] == 2


def test_zero_count_classes_dropped_from_plan():
    man = manifest_from_dict(
        minimal(experiments_per_activity={"STATIC": 2, "ROTATE": 0})
    )
    assert man.record_counts() == [(Activity.STATIC, 2)]


def test_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown manifest keys"):
        manifest_from_dict(minimal(windowing=5))
    with pytest.raises(ValueError, match="unknown sim keys"):
        manifest_from_dict({"sim": {"t": 10, "f": 2, "m": 2, "tt": 1}})
    with pytest.raises(ValueError, match="unknown als keys"):
        manifest_from_dict(minimal(als={"iterations": 5}))
    with pytest.raises(ValueError, match="unknown train keys"):
        manifest_from_dict(minimal(train={"lr": 0.1}))
    # The channel and Adam constants are module constants, not fields.
    for block, key, value in [
        ("sim", "snapshot_interval", 0.01),
        ("sim", "n_paths", 8),
        ("sim", "rician_k_db", 10.0),
        ("train", "learning_rate", 0.001),
        ("train", "beta1", 0.9),
        ("train", "beta2", 0.999),
        ("train", "eps", 1e-8),
    ]:
        raw = minimal()
        raw.setdefault(block, {})[key] = value
        with pytest.raises(ValueError, match=rf"unknown {block} keys: \['{key}'\]"):
            manifest_from_dict(raw)


def test_rejects_aliases_naming_one_activity():
    for counts, pair in [
        ({"A1": 2, "STATIC": 5}, "'A1' and 'STATIC'"),
        ({"A1": 2, "a1": 3}, "'A1' and 'a1'"),
    ]:
        with pytest.raises(ValueError, match=f"keys {pair} both name STATIC"):
            manifest_from_dict(minimal(experiments_per_activity=counts))


def test_rejects_non_container_counts_and_sweep():
    with pytest.raises(ValueError, match="experiments_per_activity must be an object"):
        manifest_from_dict(minimal(experiments_per_activity=[1, 2]))
    with pytest.raises(ValueError, match="antenna_sweep must be a list"):
        manifest_from_dict(minimal(antenna_sweep=4))


def test_rejects_missing_sim_dims():
    with pytest.raises(ValueError, match="sim.m is required"):
        manifest_from_dict({"sim": {"t": 10, "f": 2}})
    with pytest.raises(ValueError, match="'sim' object"):
        manifest_from_dict({"t_w": 10})


def test_rejects_bad_sweep():
    with pytest.raises(ValueError, match="strictly increasing"):
        manifest_from_dict(minimal(antenna_sweep=[10, 10, 20]))
    with pytest.raises(ValueError, match="strictly increasing"):
        manifest_from_dict(minimal(antenna_sweep=[20, 10]))
    with pytest.raises(ValueError, match=r"lie in \[1, 100\]"):
        manifest_from_dict(minimal(antenna_sweep=[3, 101]))
    with pytest.raises(ValueError, match="must not be empty"):
        manifest_from_dict(minimal(antenna_sweep=[]))


def test_rejects_bad_window_and_rank():
    with pytest.raises(ValueError, match="t_w"):
        manifest_from_dict(minimal(t_w=3001))
    with pytest.raises(ValueError, match="rank|r_max"):
        manifest_from_dict(minimal(r_max=0))
    # The CP rank is r_max; als.rank is not a manifest key.
    with pytest.raises(ValueError, match="unknown als keys"):
        manifest_from_dict(minimal(r_max=10, als={"rank": 10}))


@pytest.mark.parametrize(
    "over, key",
    [
        ({"sim": {"t": 600.9, "f": 100, "m": 100}}, "sim.t"),
        ({"sim": {"t": 3000, "f": 100, "m": 100, "seed": True}}, "sim.seed"),
        ({"sim": {"t": 3000, "f": 100, "m": 100, "snr_db": True}}, "sim.snr_db"),
        ({"sim": {"t": 3000, "f": "100", "m": 100}}, "sim.f"),
        ({"t_w": 100.5}, "t_w"),
        ({"r_max": True}, "r_max"),
        ({"als": {"max_iters": float("inf")}}, "als.max_iters"),
        ({"als": {"seed": float("nan")}}, "als.seed"),
        ({"train": {"epochs": 2.7}}, "train.epochs"),
        ({"train": {"seed": False}}, "train.seed"),
        ({"experiments_per_activity": {"A1": 2.5}}, "experiments_per_activity.A1"),
        ({"antenna_sweep": [3, 10.5]}, r"antenna_sweep\[1\]"),
        ({"sim": {"t": 3000, "f": 100, "m": 100, "seed": -1}}, "seed must be >= 0"),
        ({"als": {"seed": -1}}, "seed must be >= 0"),
        ({"train": {"seed": -1}}, "seed must be >= 0"),
        # A config's own check names the block it came from.
        ({"sim": {"t": 3000, "f": 100, "m": 100, "seed": -1}}, "sim: seed must"),
        ({"als": {"seed": -1}}, "als: seed must be >= 0, got -1"),
        ({"train": {"seed": -1}}, "train: seed must"),
        ({"train": {"epochs": -1}}, "train: epochs must be >= 0, got -1"),
        ({"train": {"batch_size": 0}}, "train: batch_size must be >= 1, got 0"),
    ],
)
def test_rejects_booleans_and_non_integral_ints(over, key):
    with pytest.raises(ValueError, match=key):
        manifest_from_dict(minimal(**over))


def test_rejects_r_max_below_two():
    # The classifier input drops each weight vector's largest weight:
    # r_max = 1 would leave 31 * 0 input columns.
    with pytest.raises(ValueError, match="r_max must be >= 2"):
        manifest_from_dict(minimal(r_max=1))
    assert manifest_from_dict(minimal(r_max=2)).r_max == 2


SIM = {"t": 3000, "f": 100, "m": 100}


@pytest.mark.parametrize(
    "over, key",
    [
        ({"sim": dict(SIM, snr_db=float("nan"))}, "sim.snr_db"),
        ({"sim": dict(SIM, frame_loss_prob=float("inf"))}, "sim.frame_loss_prob"),
        ({"sim": dict(SIM, frame_loss_prob=float("nan"))}, "sim.frame_loss_prob"),
        ({"als": {"rel_tol": float("nan")}}, "als.rel_tol"),
        ({"train": {"split_fraction": float("nan")}}, "train.split_fraction"),
        ({"train": {"split_fraction": float("-inf")}}, "train.split_fraction"),
        ({"als": {"rel_tol": float("inf")}}, "als.rel_tol"),
    ],
)
def test_rejects_non_finite_floats(over, key):
    with pytest.raises(ValueError, match=rf"{key} must be finite"):
        manifest_from_dict(minimal(**over))


def test_non_finite_json_literals_rejected(tmp_path):
    # Python's json module reads the NaN and Infinity literals.
    path = tmp_path / "m.json"
    path.write_text('{"sim": {"t": 3000, "f": 100, "m": 100, "snr_db": NaN}}')
    with pytest.raises(ValueError, match="sim.snr_db must be finite"):
        load_manifest(path)


def test_integral_floats_are_ints():
    man = manifest_from_dict(
        minimal(t_w=100.0, train={"epochs": 3.0}, antenna_sweep=[3.0, 100])
    )
    assert man.t_w == 100 and type(man.t_w) is int
    assert man.train.epochs == 3 and type(man.train.epochs) is int
    assert man.antenna_sweep == (3, 100)
    assert canonical_dict(man) == canonical_dict(
        manifest_from_dict(minimal(t_w=100, train={"epochs": 3}, antenna_sweep=[3, 100]))
    )


def test_rejects_bad_counts():
    with pytest.raises(ValueError, match="unknown activity"):
        manifest_from_dict(minimal(experiments_per_activity={"WALK": 3}))
    with pytest.raises(ValueError, match="negative"):
        manifest_from_dict(minimal(experiments_per_activity={"A1": -1}))
    with pytest.raises(ValueError, match="at least one experiment"):
        manifest_from_dict(minimal(experiments_per_activity={"A1": 0}))


def test_load_manifest_errors(tmp_path):
    with pytest.raises(ValueError, match="cannot read"):
        load_manifest(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ValueError, match="invalid JSON"):
        load_manifest(bad)


def test_load_manifest_round_trip(tmp_path):
    raw = minimal(t_w=100, r_max=10, output_dir="results")
    path = tmp_path / "man.json"
    path.write_text(json.dumps(raw))
    man = load_manifest(path)
    assert man.t_w == 100
    assert man.output_dir == "results"
    assert canonical_dict(man) == canonical_dict(manifest_from_dict(raw))


def test_canonical_dict_excludes_output_dir():
    a = manifest_from_dict(minimal(output_dir="x"))
    b = manifest_from_dict(minimal(output_dir="y"))
    assert canonical_dict(a) == canonical_dict(b)
    assert "output_dir" not in canonical_dict(a)


def _another_value(value):
    """A different, still valid value of one config field."""
    if isinstance(value, str):
        return {"LOS": "NLOS"}[value]
    if isinstance(value, int):
        return value + 1
    return value / 2 + 0.001


def test_canonical_dict_reflects_every_knob():
    man = manifest_from_dict(minimal())
    base = canonical_dict(man)
    overs = [
        {"t_w": 100},
        {"r_max": 50},
        {"experiments_per_activity": {"A1": 2}},
        {"antenna_sweep": [3, 100]},
    ]
    for block, cfg in (("sim", man.sim), ("als", man.als), ("train", man.train)):
        raw = minimal()[block] if block == "sim" else {}
        for f in dataclasses.fields(cfg):
            if (block, f.name) != ("als", "rank"):
                value = _another_value(getattr(cfg, f.name))
                overs.append({block: dict(raw, **{f.name: value})})
    for over in overs:
        assert canonical_dict(manifest_from_dict(minimal(**over))) != base, over


def test_reseed_overrides_all_three_seeds():
    man = manifest_from_dict(minimal())
    out = reseed(man, 77)
    assert out.sim.seed == 77 and out.als.seed == 77 and out.train.seed == 77
    assert out.sim.t == man.sim.t and out.t_w == man.t_w
    with pytest.raises(ValueError):
        reseed(man, -1)
