"""Experiment manifests.

An :class:`ExperimentManifest` fully determines a pipeline run: the
simulation scenario, windowing, CP settings, training hyperparameters,
experiment counts per activity, and the antenna sweep.  Manifests load
from JSON; each of the ``sim``, ``als`` and ``train`` blocks takes the
fields of its config dataclass (the ALS rank is ``r_max``), unknown keys
are rejected so typos fail loudly, and no number is truncated.  The
canonical-dict form (everything resolved, sorted keys, output location
excluded) is what the pipeline hashes to name its outputs.
"""

from __future__ import annotations

import dataclasses
import json
import math
import typing
from dataclasses import MISSING, dataclass, field
from pathlib import Path

from .channel import Activity, SimConfig
from .cp import AlsConfig
from .nn import TrainConfig

__all__ = [
    "DEFAULT_ANTENNA_SWEEP",
    "DEFAULT_EXPERIMENT_COUNTS",
    "ExperimentManifest",
    "canonical_dict",
    "load_manifest",
    "manifest_from_dict",
    "reseed",
]

DEFAULT_ANTENNA_SWEEP = (3, 10, 25, 50, 75, 100)

# The static class gets twice the experiments of each dynamic class.
DEFAULT_EXPERIMENT_COUNTS = {
    Activity.STATIC: 36,
    Activity.PERIODIC: 18,
    Activity.RANDOM: 18,
    Activity.ROTATE_SHIFT: 18,
    Activity.ROTATE: 18,
}

# Activity names and their A1..A5 aliases, matched case-insensitively.
_ACTIVITY_NAMES = {**Activity.__members__, **{f"A{k + 1}": k for k in Activity}}


def _parse_activity(name: str) -> Activity:
    try:
        return _ACTIVITY_NAMES[str(name).upper()]
    except KeyError:
        raise ValueError(f"unknown activity {name!r}") from None


def _parse_counts(raw) -> dict[Activity, int]:
    """The ``experiments_per_activity`` object; two keys that name the
    same activity are an error, not a silent overwrite."""
    if not isinstance(raw, dict):
        raise ValueError(f"experiments_per_activity must be an object, got {raw!r}")
    counts: dict[Activity, int] = {}
    keys: dict[Activity, str] = {}
    for key, value in raw.items():
        kind = _parse_activity(key)
        if kind in keys:
            raise ValueError(
                f"experiments_per_activity keys {keys[kind]!r} and {key!r} "
                f"both name {kind.name}"
            )
        keys[kind] = key
        counts[kind] = _as(int, value, f"experiments_per_activity.{key}")
    return counts


@dataclass(frozen=True)
class ExperimentManifest:
    sim: SimConfig
    t_w: int
    r_max: int
    als: AlsConfig
    train: TrainConfig
    experiments_per_activity: dict[Activity, int] = field(
        default_factory=lambda: dict(DEFAULT_EXPERIMENT_COUNTS)
    )
    antenna_sweep: tuple[int, ...] = DEFAULT_ANTENNA_SWEEP
    output_dir: str = "out"

    def __post_init__(self):
        if not 1 <= self.t_w <= self.sim.t:
            raise ValueError(
                f"t_w must be in [1, {self.sim.t}], got {self.t_w}"
            )
        # The classifier drops each weight vector's largest weight, so
        # r_max = 1 would leave it no input.
        if self.r_max < 2:
            raise ValueError(f"r_max must be >= 2, got {self.r_max}")
        counts = self.experiments_per_activity
        for kind, count in counts.items():
            if not isinstance(kind, Activity):
                raise ValueError(f"bad activity key {kind!r}")
            if count < 0:
                raise ValueError(f"negative experiment count for {kind.name}")
        if sum(counts.values()) < 1:
            raise ValueError("at least one experiment is required")
        sweep = self.antenna_sweep
        if not sweep:
            raise ValueError("antenna_sweep must not be empty")
        if any(b <= a for a, b in zip(sweep, sweep[1:])):
            raise ValueError(f"antenna_sweep must be strictly increasing: {sweep}")
        if sweep[0] < 1 or sweep[-1] > self.sim.m:
            raise ValueError(
                f"antenna_sweep values must lie in [1, {self.sim.m}]: {sweep}"
            )
        if not str(self.output_dir):
            raise ValueError("output_dir must be non-empty")

    @property
    def windows_per_record(self) -> int:
        return self.sim.t // self.t_w

    def record_counts(self) -> list[tuple[Activity, int]]:
        """Counts in activity order, zero-count classes dropped."""
        return [
            (kind, self.experiments_per_activity.get(kind, 0))
            for kind in Activity
            if self.experiments_per_activity.get(kind, 0) > 0
        ]


def _as(kind: type, value, key: str):
    """One JSON value as ``kind``.  Booleans are refused, and so is any
    value an int conversion would change, so nothing is truncated, and
    any non-finite float (JSON's NaN and Infinity)."""
    try:
        out = kind(value)
    except (TypeError, ValueError, OverflowError):
        out = None
    if out is None or isinstance(value, bool) or (kind is int and out != value):
        raise ValueError(f"{key} must be {kind.__name__}, got {value!r}")
    if kind is float and not math.isfinite(out):
        raise ValueError(f"{key} must be finite, got {value!r}")
    return out


def _config(cls, raw, block: str, **fixed):
    """Build config dataclass ``cls`` from a JSON object whose keys are
    its fields (minus those ``fixed`` by the caller)."""
    if not isinstance(raw, dict):
        raise ValueError(f"manifest requires a '{block}' object")
    fields = [f for f in dataclasses.fields(cls) if f.name not in fixed]
    unknown = set(raw) - {f.name for f in fields}
    if unknown:
        raise ValueError(f"unknown {block} keys: {sorted(unknown)}")
    for f in fields:
        if f.default is MISSING and f.name not in raw:
            raise ValueError(f"{block}.{f.name} is required")
    types = typing.get_type_hints(cls)
    kwargs = {k: _as(types[k], v, f"{block}.{k}") for k, v in raw.items()}
    try:
        return cls(**kwargs, **fixed)
    except ValueError as exc:
        raise ValueError(f"{block}: {exc}") from None


def manifest_from_dict(raw: dict) -> ExperimentManifest:
    if not isinstance(raw, dict):
        raise ValueError("manifest must be a JSON object")
    top = dict(raw)
    sim = _config(SimConfig, top.pop("sim", None), "sim")
    r_max = _as(int, top.pop("r_max", 100), "r_max")
    kwargs = {
        "sim": sim,
        "t_w": _as(int, top.pop("t_w", 200), "t_w"),
        "r_max": r_max,
        "als": _config(AlsConfig, top.pop("als", {}), "als", rank=r_max),
        "train": _config(TrainConfig, top.pop("train", {}), "train"),
    }
    counts_raw = top.pop("experiments_per_activity", None)
    if counts_raw is not None:
        kwargs["experiments_per_activity"] = _parse_counts(counts_raw)
    if "antenna_sweep" in top:
        sweep = top.pop("antenna_sweep")
        if not isinstance(sweep, (list, tuple)):
            raise ValueError(f"antenna_sweep must be a list, got {sweep!r}")
        kwargs["antenna_sweep"] = tuple(
            _as(int, m, f"antenna_sweep[{i}]") for i, m in enumerate(sweep)
        )
    if "output_dir" in top:
        kwargs["output_dir"] = str(top.pop("output_dir"))
    if top:
        raise ValueError(f"unknown manifest keys: {sorted(top)}")
    return ExperimentManifest(**kwargs)


def load_manifest(path) -> ExperimentManifest:
    """Parse a JSON manifest; any problem is a validation error."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"{path}: cannot read manifest ({exc})") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON ({exc})") from exc
    return manifest_from_dict(raw)


def canonical_dict(manifest: ExperimentManifest) -> dict:
    """Fully resolved manifest as plain JSON types, minus the output
    location (outputs are addressed by computation, not destination)."""
    full = dataclasses.asdict(manifest)
    del full["output_dir"]
    counts = manifest.experiments_per_activity
    full["experiments_per_activity"] = {
        kind.name: counts.get(kind, 0) for kind in Activity
    }
    full["antenna_sweep"] = list(manifest.antenna_sweep)
    return full


def reseed(manifest: ExperimentManifest, seed: int) -> ExperimentManifest:
    """Apply a global seed override to simulation, CP, and training;
    each config rejects a negative seed."""
    return dataclasses.replace(
        manifest,
        sim=dataclasses.replace(manifest.sim, seed=seed),
        als=dataclasses.replace(manifest.als, seed=seed),
        train=dataclasses.replace(manifest.train, seed=seed),
    )
