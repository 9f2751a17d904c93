"""Pipeline stages behind the CLI subcommands.

Every stage is a pure function of the manifest: outputs land in
directories named by a hash of the parameters that produced them
(content addressing), so reruns with an identical manifest overwrite
the same files with identical bytes, and downstream stages locate their
inputs without extra arguments.  Per-record work can fan out over a
process pool; results are reassembled in record order so worker count
never changes the output.
"""

from __future__ import annotations

import hashlib
import json
import logging
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np

from .channel import Activity, load_record, simulate_record, save_record
from .errors import DataError
from .features import (
    N_FEATURE_VECTORS,
    FeatureSet,
    assemble_input,
    extract_features,
    feature_names,
    load_features_bin,
    save_features_bin,
    save_features_csv,
)
from .manifest import ExperimentManifest, canonical_dict
from .nn import (
    LabeledDataset,
    early_late_control,
    evaluate,
    save_model,
    split,
    train,
)
from .preprocess import interpolate_lost_frames, segment
from .tensor_io import write_csv, write_json

__all__ = [
    "CONTROL_BOUNDS",
    "N_CLASSES",
    "control_dir",
    "dataset_dir",
    "features_dir",
    "record_plan",
    "report_dir",
    "run_control",
    "run_featurize",
    "run_simulate",
    "run_sweep",
    "run_train_eval",
    "sweep_dir",
]

logger = logging.getLogger("mimosense")

N_CLASSES = len(Activity)
CONTROL_BOUNDS = (0.35, 0.65)


# ------------------------------------------------------- content addressing


def _addressed(manifest: ExperimentManifest, prefix: str, **inputs) -> Path:
    """``<output_dir>/<prefix>-<key>``, the key a hash of ``inputs``."""
    blob = json.dumps(inputs, sort_keys=True, separators=(",", ":"))
    key = hashlib.sha256(blob.encode()).hexdigest()[:12]
    return Path(manifest.output_dir) / f"{prefix}-{key}"


def dataset_dir(manifest: ExperimentManifest) -> Path:
    full = canonical_dict(manifest)
    return _addressed(
        manifest,
        "dataset",
        sim=full["sim"],
        experiments=full["experiments_per_activity"],
    )


def features_dir(manifest: ExperimentManifest) -> Path:
    full = canonical_dict(manifest)
    return _addressed(
        manifest,
        "features",
        dataset=dataset_dir(manifest).name,
        t_w=full["t_w"],
        r_max=full["r_max"],
        als=full["als"],
    )


def _trained_dir(manifest: ExperimentManifest, prefix: str, **inputs) -> Path:
    """An output of training on the features: keyed by the features
    directory's name, the train block and ``inputs``."""
    train = canonical_dict(manifest)["train"]
    return _addressed(
        manifest, prefix, features=features_dir(manifest).name, train=train, **inputs
    )


def report_dir(manifest: ExperimentManifest) -> Path:
    return _trained_dir(manifest, "report")


def sweep_dir(manifest: ExperimentManifest) -> Path:
    return _trained_dir(
        manifest, "sweep", sweep=canonical_dict(manifest)["antenna_sweep"]
    )


def control_dir(manifest: ExperimentManifest) -> Path:
    return _trained_dir(manifest, "control")


# ----------------------------------------------------------------- helpers


def _record_path(dataset: Path, idx: int) -> Path:
    return dataset / f"rec-{idx:04d}.mmt3"


def _record_seed(base_seed: int, index: int) -> int:
    seq = np.random.SeedSequence(entropy=base_seed, spawn_key=(1, index))
    return int(seq.generate_state(1, dtype=np.uint64)[0])


def record_plan(manifest: ExperimentManifest) -> list[tuple[int, Activity, int]]:
    """(record index, activity, record seed) triples, activity-ordered."""
    plan: list[tuple[int, Activity, int]] = []
    idx = 0
    for kind, count in manifest.record_counts():
        for _ in range(count):
            plan.append((idx, kind, _record_seed(manifest.sim.seed, idx)))
            idx += 1
    return plan


def _pool_map(fn, jobs, workers: int):
    """``fn`` of every job, in job order.  Over a pool, the first job in
    that order to raise cancels those not yet started and is re-raised."""
    if workers <= 1:
        return [fn(job) for job in jobs]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(fn, job) for job in jobs]
        try:
            return [future.result() for future in futures]
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise


# ---------------------------------------------------------------- simulate


def _simulate_one(job) -> int:
    index, kind_value, cfg, path = job
    record = simulate_record(cfg, Activity(kind_value))
    save_record(Path(path), record)
    return index


def run_simulate(manifest: ExperimentManifest, workers: int = 1) -> Path:
    """Write one record pair (.mmt3 + .json) per planned experiment."""
    out = dataset_dir(manifest)
    plan = record_plan(manifest)
    jobs = [
        (idx, int(kind), replace(manifest.sim, seed=seed), str(_record_path(out, idx)))
        for idx, kind, seed in plan
    ]
    _pool_map(_simulate_one, jobs, workers)
    per_activity = {
        kind.name: count for kind, count in manifest.record_counts()
    }
    # Written last: its presence marks a complete dataset.
    write_json(
        out / "dataset.json",
        {
            "records": len(plan),
            "per_activity": per_activity,
            "dims": [manifest.sim.t, manifest.sim.f, manifest.sim.m],
            "scenario": manifest.sim.scenario,
        },
    )
    logger.info("simulated %d records into %s", len(plan), out)
    return out


# --------------------------------------------------------------- featurize


def _featurize_one(job) -> list[FeatureSet]:
    """Windows of one record → FeatureSets.  An unreadable record raises
    load_record's DataError, which names the file."""
    path, rec_idx, t_w, als, m_keep = job
    record = load_record(path)
    label = record.label
    clean = interpolate_lost_frames(record.tensor[:, :, :m_keep], record.mask)
    # The windows are copies: release the record and its repaired copy
    # before the CP fits.
    del record
    windows = segment(clean, t_w).windows
    del clean
    k = len(windows)
    return [
        extract_features(window, als, window_id=rec_idx * k + i, label=label)
        for i, window in enumerate(windows)
    ]


def _featurize_dataset(
    manifest: ExperimentManifest, m_keep: int, workers: int = 1
) -> list[FeatureSet]:
    """The FeatureSets of every record window, in record order, each
    record cut to its first ``m_keep`` antennas.  The first unreadable
    record in record order, whatever the worker count, raises."""
    source = dataset_dir(manifest)
    if not (source / "dataset.json").is_file():
        raise DataError(
            f"no complete dataset at {source} (dataset.json missing); "
            "run simulate first"
        )
    jobs = [
        (str(_record_path(source, idx)), idx, manifest.t_w, manifest.als, m_keep)
        for idx, _, _ in record_plan(manifest)
    ]
    return [fs for feats in _pool_map(_featurize_one, jobs, workers) for fs in feats]


def run_featurize(manifest: ExperimentManifest, workers: int = 1) -> Path:
    """interpolate → segment → CP features for every record window;
    writes the CSV/binary feature tables plus a summary of the counts and
    of each slot's CP fits (total sweeps, converged fits)."""
    feats = _featurize_dataset(manifest, manifest.sim.m, workers)
    out = features_dir(manifest)
    save_features_csv(out / "features.csv", feats)
    save_features_bin(out / "features.bin", feats)
    # Per-slot CP diagnostics over every window: deterministic, so they
    # may sit beside the features without breaking reproducible outputs.
    sweeps = np.sum([fs.n_sweeps for fs in feats], axis=0)
    converged = np.sum([fs.converged for fs in feats], axis=0)
    write_json(
        out / "summary.json",
        {
            "rows": len(feats),
            "per_class": Counter(fs.label.name for fs in feats),
            "t_w": manifest.t_w,
            "r_max": manifest.r_max,
            "input_width": N_FEATURE_VECTORS * (manifest.r_max - 1),
            "cp_fits": [
                {"slot": name, "sweeps": int(s), "converged": int(c)}
                for name, s, c in zip(feature_names(), sweeps, converged)
            ],
        },
    )
    logger.info("featurized %d windows into %s", len(feats), out)
    return out


# -------------------------------------------------------------- train/eval


def _dataset_from_features(feature_sets) -> LabeledDataset:
    if not feature_sets:
        raise DataError("feature table is empty")
    inputs = np.stack([assemble_input(fs) for fs in feature_sets])
    labels = np.zeros((len(feature_sets), N_CLASSES))
    for i, fs in enumerate(feature_sets):
        labels[i, int(fs.label)] = 1.0
    ids = np.array([fs.window_id for fs in feature_sets])
    return LabeledDataset(inputs=inputs, labels=labels, ids=ids)


def _train_eval_features(feature_sets, manifest: ExperimentManifest) -> dict:
    ds = _dataset_from_features(feature_sets)
    train_part, test_part = split(ds, manifest.train)
    if len(test_part) == 0:
        raise DataError(f"split of {len(ds)} windows leaves an empty test set")
    model, history = train(train_part, manifest.train)
    counts, accuracy = evaluate(model, test_part)
    return {
        "model": model,
        "history": history,
        "confusion": counts,
        "accuracy": accuracy,
        "n_train": len(train_part),
        "n_test": len(test_part),
    }


def _load_features(manifest: ExperimentManifest) -> list[FeatureSet]:
    source = features_dir(manifest) / "features.bin"
    if not source.exists():
        raise DataError(f"features not found at {source}; run featurize first")
    return load_features_bin(source)


def run_train_eval(manifest: ExperimentManifest) -> dict:
    feats = _load_features(manifest)
    result = _train_eval_features(feats, manifest)
    out = report_dir(manifest)
    counts = result["confusion"]
    names = [Activity(c).name for c in range(counts.shape[0])]
    write_json(
        out / "metrics.json",
        {
            "accuracy": float(result["accuracy"]),
            "n_train": result["n_train"],
            "n_test": result["n_test"],
            "rows": len(feats),
        },
    )
    write_csv(
        out / "confusion.csv",
        ["true"] + names,
        [[names[i]] + counts[i].tolist() for i in range(len(names))],
    )
    write_csv(
        out / "loss_history.csv",
        ["epoch", "loss"],
        list(enumerate(result["history"])),
    )
    save_model(out / "model.ckpt", result["model"], manifest.train)
    logger.info(
        "train/eval accuracy %.4f (%d train / %d test) -> %s",
        result["accuracy"],
        result["n_train"],
        result["n_test"],
        out,
    )
    result["report_dir"] = out
    return result


# ------------------------------------------------------------------- sweep


def run_sweep(manifest: ExperimentManifest, workers: int = 1) -> list[tuple[int, float]]:
    """Accuracy versus antenna count: truncate every record to its
    first M antennas, rerun featurize + train/eval per sweep value."""
    rows: list[tuple[int, float]] = []
    for m in manifest.antenna_sweep:
        feats = _featurize_dataset(manifest, m, workers)
        result = _train_eval_features(feats, manifest)
        rows.append((m, float(result["accuracy"])))
        logger.info("sweep M=%d accuracy=%.4f", m, result["accuracy"])
    write_csv(sweep_dir(manifest) / "sweep.csv", ["m", "accuracy"], rows)
    return rows


# ----------------------------------------------------------------- control


def run_control(manifest: ExperimentManifest) -> dict:
    """Early/late leakage check per activity over the feature table."""
    feats = _load_features(manifest)
    k = manifest.windows_per_record
    accuracies: dict[str, float] = {}
    for kind in Activity:
        subset = [fs for fs in feats if fs.label == kind]
        if not subset:
            continue
        inputs = np.stack([assemble_input(fs) for fs in subset])
        window_ids = np.array([fs.window_id for fs in subset])
        try:
            accuracy = early_late_control(inputs, window_ids, k, manifest.train)
        except ValueError as exc:
            raise DataError(f"activity {kind.name}: {exc}") from None
        accuracies[kind.name] = accuracy
    lo, hi = CONTROL_BOUNDS
    verdict = "pass" if all(lo <= a <= hi for a in accuracies.values()) else "fail"
    out = control_dir(manifest)
    write_json(
        out / "control.json",
        {"verdict": verdict, "accuracies": accuracies, "bounds": list(CONTROL_BOUNDS)},
    )
    logger.info("early/late control verdict: %s", verdict)
    return {"verdict": verdict, "accuracies": accuracies, "control_dir": out}
