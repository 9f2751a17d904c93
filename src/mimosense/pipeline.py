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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np

from .channel import Activity, load_record, simulate_record, save_record, truncate_antennas
from .errors import DataError
from .features import (
    N_FEATURE_VECTORS,
    FeatureSet,
    assemble_input,
    extract_features,
    load_features_bin,
    save_features_bin,
    save_features_csv,
)
from .manifest import ExperimentManifest, canonical_dict
from .nn import (
    ConfusionMatrix,
    LabeledDataset,
    early_late_control,
    evaluate,
    save_model,
    split,
    train,
)
from .preprocess import interpolate_lost_frames, segment

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


def _digest(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def dataset_dir(manifest: ExperimentManifest) -> Path:
    full = canonical_dict(manifest)
    key = _digest(
        {
            "sim": full["sim"],
            "experiments": full["experiments_per_activity"],
        }
    )
    return Path(manifest.output_dir) / f"dataset-{key}"


def features_dir(manifest: ExperimentManifest) -> Path:
    full = canonical_dict(manifest)
    key = _digest(
        {
            "dataset": dataset_dir(manifest).name,
            "t_w": full["t_w"],
            "r_max": full["r_max"],
            "als": full["als"],
        }
    )
    return Path(manifest.output_dir) / f"features-{key}"


def report_dir(manifest: ExperimentManifest) -> Path:
    train = canonical_dict(manifest)["train"]
    key = _digest({"features": features_dir(manifest).name, "train": train})
    return Path(manifest.output_dir) / f"report-{key}"


def sweep_dir(manifest: ExperimentManifest) -> Path:
    full = canonical_dict(manifest)
    key = _digest(
        {
            "features": features_dir(manifest).name,
            "train": full["train"],
            "sweep": full["antenna_sweep"],
        }
    )
    return Path(manifest.output_dir) / f"sweep-{key}"


def control_dir(manifest: ExperimentManifest) -> Path:
    train = canonical_dict(manifest)["train"]
    key = _digest({"features": features_dir(manifest).name, "train": train})
    return Path(manifest.output_dir) / f"control-{key}"


# ----------------------------------------------------------------- helpers


def _mkdir(path: Path) -> Path:
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DataError(f"cannot create output directory {path}: {exc}") from exc
    return path


def _write_text(path: Path, text: str) -> None:
    try:
        path.write_text(text)
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc


def _write_json(path: Path, obj) -> None:
    _write_text(path, json.dumps(obj, sort_keys=True, indent=1) + "\n")


def _fmt_cell(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_csv(path: Path, header, rows) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt_cell(v) for v in row) for row in rows)
    _write_text(path, "\n".join(lines) + "\n")


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
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, jobs))
    return [fn(job) for job in jobs]


# ---------------------------------------------------------------- simulate


def _simulate_one(job) -> int:
    index, kind_value, cfg, path = job
    record = simulate_record(cfg, Activity(kind_value))
    save_record(Path(path), record)
    return index


def run_simulate(manifest: ExperimentManifest, workers: int = 1) -> Path:
    """Write one record pair (.mmt3 + .json) per planned experiment."""
    out = _mkdir(dataset_dir(manifest))
    plan = record_plan(manifest)
    jobs = [
        (
            idx,
            int(kind),
            replace(manifest.sim, seed=seed),
            str(out / f"rec-{idx:04d}.mmt3"),
        )
        for idx, kind, seed in plan
    ]
    try:
        _pool_map(_simulate_one, jobs, workers)
    except OSError as exc:
        raise DataError(f"cannot write dataset under {out}: {exc}") from exc
    per_activity = {
        kind.name: count for kind, count in manifest.record_counts()
    }
    _write_json(
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


def _featurize_one(job):
    """Windows of one record → FeatureSets; unreadable records are
    reported, not raised, so one bad file cannot sink the whole batch."""
    path, rec_idx, t_w, als, m_keep = job
    try:
        record = load_record(path)
    except DataError as exc:
        return rec_idx, None, str(exc)
    if m_keep is not None and m_keep < record.tensor.shape[2]:
        record = truncate_antennas(record, m_keep)
    clean = interpolate_lost_frames(record.tensor, record.mask)
    windowed = segment(clean, t_w, label=record.label)
    k = len(windowed.windows)
    out = [
        extract_features(
            window, als, window_id=rec_idx * k + i, label=record.label
        )
        for i, window in enumerate(windowed.windows)
    ]
    return rec_idx, out, None


def _featurize_dataset(
    manifest: ExperimentManifest,
    m_keep: int | None = None,
    workers: int = 1,
) -> list[FeatureSet]:
    source = dataset_dir(manifest)
    if not source.is_dir():
        raise DataError(f"dataset not found at {source}; run simulate first")
    files = sorted(source.glob("rec-*.mmt3"))
    if not files:
        raise DataError(f"no record files under {source}")
    jobs = [
        (str(path), int(path.stem.split("-")[1]), manifest.t_w, manifest.als, m_keep)
        for path in files
    ]
    results = sorted(_pool_map(_featurize_one, jobs, workers), key=lambda r: r[0])
    feature_sets: list[FeatureSet] = []
    skipped = 0
    for rec_idx, feats, problem in results:
        if problem is not None:
            skipped += 1
            logger.warning("skipping record %04d: %s", rec_idx, problem)
            continue
        feature_sets.extend(feats)
    if skipped > 0.1 * len(files):
        raise DataError(
            f"{skipped}/{len(files)} records unreadable; dataset too corrupt"
        )
    return feature_sets


def run_featurize(manifest: ExperimentManifest, workers: int = 1) -> Path:
    """interpolate → segment → CP features for every record window;
    writes the CSV/binary feature tables plus a count summary."""
    feats = _featurize_dataset(manifest, workers=workers)
    out = _mkdir(features_dir(manifest))
    try:
        save_features_csv(out / "features.csv", feats)
        save_features_bin(out / "features.bin", feats)
    except OSError as exc:
        raise DataError(f"cannot write features under {out}: {exc}") from exc
    per_class: dict[str, int] = {}
    for fs in feats:
        name = fs.label.name if fs.label is not None else "UNLABELED"
        per_class[name] = per_class.get(name, 0) + 1
    _write_json(
        out / "summary.json",
        {
            "rows": len(feats),
            "per_class": per_class,
            "t_w": manifest.t_w,
            "r_max": manifest.r_max,
            "input_width": N_FEATURE_VECTORS * (manifest.r_max - 1),
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
        if fs.label is None:
            raise DataError(f"window {fs.window_id} carries no label")
        labels[i, int(fs.label)] = 1.0
    ids = np.array([fs.window_id for fs in feature_sets])
    return LabeledDataset(inputs=inputs, labels=labels, ids=ids)


def _precision_recall(cm: ConfusionMatrix) -> list[tuple[str, float, float]]:
    counts = cm.counts
    out = []
    for c in range(counts.shape[0]):
        tp = float(counts[c, c])
        col = float(counts[:, c].sum())
        row = float(counts[c, :].sum())
        out.append(
            (
                Activity(c).name,
                tp / col if col > 0 else 0.0,
                tp / row if row > 0 else 0.0,
            )
        )
    return out


def _train_eval_features(feature_sets, manifest: ExperimentManifest) -> dict:
    ds = _dataset_from_features(feature_sets)
    train_part, test_part = split(ds, manifest.train)
    model, history = train(train_part, manifest.train)
    cm, accuracy = evaluate(model, test_part)
    return {
        "model": model,
        "history": history,
        "confusion": cm,
        "accuracy": accuracy,
        "n_train": len(train_part),
        "n_test": len(test_part),
    }


def run_train_eval(manifest: ExperimentManifest) -> dict:
    source = features_dir(manifest) / "features.bin"
    if not source.exists():
        raise DataError(f"features not found at {source}; run featurize first")
    feats = load_features_bin(source)
    result = _train_eval_features(feats, manifest)
    out = _mkdir(report_dir(manifest))
    cm: ConfusionMatrix = result["confusion"]
    names = [Activity(c).name for c in range(cm.counts.shape[0])]
    _write_json(
        out / "metrics.json",
        {
            "accuracy": float(result["accuracy"]),
            "n_train": result["n_train"],
            "n_test": result["n_test"],
            "rows": len(feats),
        },
    )
    _write_csv(
        out / "confusion.csv",
        ["true"] + names,
        [[names[i]] + cm.counts[i].tolist() for i in range(len(names))],
    )
    _write_csv(
        out / "precision_recall.csv",
        ["class", "precision", "recall"],
        _precision_recall(cm),
    )
    _write_csv(
        out / "loss_history.csv",
        ["epoch", "loss"],
        list(enumerate(result["history"])),
    )
    try:
        save_model(out / "model.ckpt", result["model"], manifest.train)
    except OSError as exc:
        raise DataError(f"cannot write checkpoint under {out}: {exc}") from exc
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
        feats = _featurize_dataset(manifest, m_keep=m, workers=workers)
        result = _train_eval_features(feats, manifest)
        rows.append((m, float(result["accuracy"])))
        logger.info("sweep M=%d accuracy=%.4f", m, result["accuracy"])
    out = _mkdir(sweep_dir(manifest))
    _write_csv(out / "sweep.csv", ["m", "accuracy"], rows)
    return rows


# ----------------------------------------------------------------- control


def run_control(manifest: ExperimentManifest) -> dict:
    """Early/late leakage check per activity over the feature table."""
    source = features_dir(manifest) / "features.bin"
    if not source.exists():
        raise DataError(f"features not found at {source}; run featurize first")
    feats = load_features_bin(source)
    k = manifest.windows_per_record
    rows: list[tuple[str, float]] = []
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
        rows.append((kind.name, accuracy))
    accuracies = dict(rows)
    lo, hi = CONTROL_BOUNDS
    verdict = "pass" if all(lo <= a <= hi for a in accuracies.values()) else "fail"
    out = _mkdir(control_dir(manifest))
    _write_csv(out / "control.csv", ["activity", "accuracy"], rows)
    _write_json(
        out / "control.json",
        {"verdict": verdict, "accuracies": accuracies, "bounds": list(CONTROL_BOUNDS)},
    )
    logger.info("early/late control verdict: %s", verdict)
    return {"verdict": verdict, "accuracies": accuracies, "control_dir": out}
