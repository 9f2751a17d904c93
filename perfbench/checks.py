"""Output checks made once per benchmark run, after the timed rounds.

Each check compares the pipeline's outputs with a computation written
here or with a property the method guarantees.  A check returns
(name, ok, detail); the run is correct only if every check passes.
"""

from __future__ import annotations

import math

import numpy as np

import mimosense.features as features
from mimosense.channel import load_record
from mimosense.cp import AlsConfig, rank_upper_bound
from mimosense.features import correlation_set, phase_reference
from mimosense.manifest import ExperimentManifest
from mimosense.pipeline import dataset_dir, record_plan
from mimosense.preprocess import interpolate_lost_frames, segment

# Chance accuracy of the five-class problem is 0.2; the full array must
# score at least twice that.
MIN_FULL_ACCURACY = 0.4

# (einsum, CorrelationSet field, whether the first operand is conjugated);
# g is the (T_w, F, M) window.
_CORRELATIONS = (
    ("afm,bfm->abm", "time_corr_per_antenna", False),
    ("tam,tbm->abm", "freq_corr_per_antenna", True),
    ("afm,bfm->abf", "time_corr_per_subcarrier", False),
    ("tfa,tfb->abf", "space_corr_per_subcarrier", True),
    ("tam,tbm->abt", "freq_corr_per_snapshot", False),
    ("tfa,tfb->abt", "space_corr_per_snapshot", True),
)


def sample_window(manifest: ExperimentManifest, seed: int) -> tuple[int, np.ndarray]:
    """(window id, window) of one record window drawn from the seed."""
    rng = np.random.default_rng([seed, 7])  # a stream apart from the pipeline's
    k = manifest.windows_per_record
    rec = int(rng.integers(len(record_plan(manifest))))
    win = int(rng.integers(k))
    record = load_record(dataset_dir(manifest) / f"rec-{rec:04d}.mmt3")
    clean = interpolate_lost_frames(record.tensor, record.mask)
    return rec * k + win, segment(clean, manifest.t_w).windows[win]


def check_correlations(window: np.ndarray) -> tuple[str, bool, str]:
    g = phase_reference(window)
    got = correlation_set(g)
    worst = 0.0
    for spec, field, conj_first in _CORRELATIONS:
        a, b = (g.conj(), g) if conj_first else (g, g.conj())
        want = np.einsum(spec, a, b)
        err = np.linalg.norm(getattr(got, field) - want) / np.linalg.norm(want)
        worst = max(worst, float(err))
    return "correlations_match_einsum", worst <= 1e-12, f"worst relative error {worst:.2e} (tol 1e-12)"


def check_feature_table(manifest, feats) -> tuple[str, bool, str]:
    k = manifest.windows_per_record
    expected = {kind.name: n * k for kind, n in manifest.record_counts()}
    got: dict[str, int] = {}
    for fs in feats:
        got[fs.label.name] = got.get(fs.label.name, 0) + 1
    rows = sum(n for _, n in manifest.record_counts()) * k
    ids_ok = sorted(fs.window_id for fs in feats) == list(range(rows))
    ok = len(feats) == rows and got == expected and ids_ok
    return "feature_rows", ok, f"{len(feats)} rows (expect {rows}), per class {got}"


def check_weights(feats, shapes, r_max: int) -> tuple[str, bool, str]:
    bounds = [min(r_max, rank_upper_bound(s)) for s in shapes]
    bad = 0
    for fs in feats:
        lam = fs.lambdas
        ok = (
            np.isfinite(lam).all()
            and (lam >= 0).all()
            and (np.diff(lam, axis=1) <= 0).all()
            and all(not lam[i, b:].any() for i, b in enumerate(bounds))
        )
        bad += not ok
    return (
        "weights_descending",
        bad == 0,
        f"{bad} of {len(feats)} windows break finite/non-negative/descending/rank bound",
    )


def check_fits(manifest, window_id, window, feats) -> list[tuple[str, bool, str]]:
    """Refit the sampled window through extract_features, keeping every
    CP model, and check the fits against the stored features."""
    fits = []
    real = features.cp_als

    def keep(tensor, cfg):
        model = real(tensor, cfg)
        fits.append((np.asarray(tensor), model))
        return model

    als = AlsConfig(
        rank=manifest.r_max,
        max_iters=manifest.als.max_iters,
        rel_tol=manifest.als.rel_tol,
        seed=manifest.als.seed,
    )
    features.cp_als = keep
    try:
        fs = features.extract_features(window, als, window_id=window_id)
    finally:
        features.cp_als = real
    stored = next(f for f in feats if f.window_id == window_id)
    rises, worst, merged = 0, 0.0, 0
    for tensor, model in fits:
        history = np.asarray(model.diagnostics.fit_errors)
        # The slack of acceptance criterion 02: rounding, not a rise.
        rises += bool(np.any(np.diff(history) > 1e-10))
        if not model.weights.all():
            # A zeroed weight means cp_als merged duplicate components
            # after its last sweep, so the model no longer is the one the
            # last fit describes.
            merged += 1
            continue
        norm = np.linalg.norm(tensor)
        x, y, z = model.factors
        rebuilt = np.einsum("r,ir,jr,kr->ijk", model.weights, x, y, z)
        fit = np.linalg.norm(tensor - rebuilt) / norm
        # Only rounding separates two correct residuals: allow 1e-9 of
        # the larger of the tensor and the model.
        tol = 1e-9 * (1.0 + model.weights.sum() / norm)
        worst = max(worst, abs(fit - history[-1]) / tol)
    return [
        (
            "refit_matches_features",
            np.array_equal(fs.lambdas, stored.lambdas),
            f"window {window_id}: refit weights equal the stored row",
        ),
        (
            "fit_history_monotone",
            rises == 0 and len(fits) == features.N_FEATURE_VECTORS,
            f"{rises} of {len(fits)} fit histories rise",
        ),
        (
            "final_fit_matches_model",
            worst <= 1.0,
            f"worst |recomputed - recorded| is {worst:.2e} of its tolerance; "
            f"{merged} merged models skipped",
        ),
    ]


def check_loss(history) -> tuple[str, bool, str]:
    h = np.asarray(history)
    ok = bool(np.isfinite(h).all()) and len(h) > 1 and h[-1] < h[0]
    return "loss_decreases", ok, f"loss {h[0]:.4f} -> {h[-1]:.4f} over {len(h)} epochs"


def check_accuracy(manifest, accuracy: float, sweep) -> tuple[str, bool, str]:
    full = manifest.sim.m
    by_m = dict(sweep)
    if full in by_m:
        # Same features, same seed: the sweep's full-array row is the
        # train-eval result.
        return (
            "sweep_full_array_equals_train_eval",
            by_m[full] == accuracy,
            f"M={full}: sweep {by_m[full]:.4f}, train-eval {accuracy:.4f}",
        )
    return (
        "full_array_above_chance",
        accuracy >= MIN_FULL_ACCURACY,
        f"M={full}: {accuracy:.4f} (need >= {MIN_FULL_ACCURACY})",
    )


def expected_counts(manifest) -> dict[str, int]:
    """Work counts of one traced round, worked out from the manifest:
    windows featurized, CP fits, training runs and Adam steps."""
    k = manifest.windows_per_record
    per_activity = [n for _, n in manifest.record_counts()]
    windows = sum(per_activity) * k
    extract = windows * (1 + len(manifest.antenna_sweep))
    epochs, batch = manifest.train.epochs, manifest.train.batch_size
    # Train-eval and each sweep value train on the same split.
    trainings = 1 + len(manifest.antenna_sweep)
    n_train = math.ceil(manifest.train.split_fraction * windows)
    steps = trainings * epochs * math.ceil(n_train / batch)
    # The control trains once per activity, on all but its held-out records.
    for n in per_activity:
        train_records = min(n - 1, math.ceil(0.8 * n))
        steps += epochs * math.ceil(train_records * k / batch)
    return {
        "features.extract_calls": extract,
        "cp.calls": features.N_FEATURE_VECTORS * extract,
        "nn.train_calls": trainings + len(per_activity),
        "nn.steps": steps,
    }


def check_trace_counts(manifest, rounds) -> tuple[str, bool, str]:
    """Every traced round's counts against ``expected_counts``, and its
    ALS sweeps against the stopping rule: a fit that did not converge
    ran exactly ``max_iters`` sweeps, one that did ran at most that."""
    want = expected_counts(manifest)
    max_iters = manifest.als.max_iters
    bad = []
    for i, (metrics, counters) in enumerate(rounds):
        got = {name: metrics[name] for name in want}
        if got != want:
            bad.append(f"round {i}: {got}")
        calls, converged = metrics["cp.calls"], metrics["cp.converged"]
        converged_sweeps = counters.get("cp.converged_sweeps", 0.0)
        if (
            metrics["cp.sweeps"] - converged_sweeps != max_iters * (calls - converged)
            or converged_sweeps > max_iters * converged
        ):
            bad.append(f"round {i}: {metrics['cp.sweeps']} sweeps, {converged} converged")
    return (
        "trace_counts_match_manifest",
        not bad,
        "; ".join(bad) or f"{len(rounds)} rounds: {want}, sweeps follow max_iters={max_iters}",
    )


def run_checks(manifest, seed: int, feats, train_eval: dict, sweep) -> list[tuple[str, bool, str]]:
    window_id, window = sample_window(manifest, seed)
    shapes = [t.shape for t in features.real_feature_tensors(window)]
    return [
        check_correlations(window),
        check_feature_table(manifest, feats),
        check_weights(feats, shapes, manifest.r_max),
        *check_fits(manifest, window_id, window, feats),
        check_loss(train_eval["history"]),
        check_accuracy(manifest, float(train_eval["accuracy"]), sweep),
    ]
