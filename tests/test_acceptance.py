"""Acceptance suite: the ten criteria the pipeline must meet.

Each test prints one bracketed PASS/FAIL line with its measured numbers
(shown for failures, and for passes under ``pytest -rA``).  The
desk-scale criteria (7, 8, 9) share one module-scoped fixture that
simulates and featurizes the full antenna sweep in both scenarios.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
import time
from dataclasses import replace

import numpy as np
import pytest

from mimosense.cli import main as cli_main
from mimosense.cp import AlsConfig, cp_als, fit_error
from mimosense.features import (
    assemble_input,
    correlation_set,
    extract_features,
)
from mimosense.manifest import manifest_from_dict
from mimosense.nn import (
    MlpModel,
    _layout,
    early_late_control,
    evaluate,
    grad,
    init_model,
    loss,
    split,
    train,
)
from mimosense.pipeline import (
    _dataset_from_features,
    _featurize_one,
    dataset_dir,
    run_simulate,
)
from mimosense.tensor_ops import fold, frobenius_norm, hadamard, khatri_rao, unfold


def _verdict(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}", flush=True)
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------- 1: tensor algebra


def test_01_tensor_algebra_matches_loop_oracles():
    """unfold/fold round trips, Khatri-Rao, Hadamard, and Frobenius
    norms agree with brute-force loops on 100 random tensors (dims <= 6)
    within 1e-12, in under 5 s."""
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        d1, d2, d3 = (int(d) for d in rng.integers(1, 7, size=3))
        x = rng.standard_normal((d1, d2, d3)) + 1j * rng.standard_normal(
            (d1, d2, d3)
        )

        oracles = {
            1: np.zeros((d1, d2 * d3), dtype=complex),
            2: np.zeros((d2, d1 * d3), dtype=complex),
            3: np.zeros((d3, d1 * d2), dtype=complex),
        }
        for i in range(d1):
            for j in range(d2):
                for k in range(d3):
                    oracles[1][i, j + k * d2] = x[i, j, k]
                    oracles[2][j, i + k * d1] = x[i, j, k]
                    oracles[3][k, i + j * d1] = x[i, j, k]
        for mode in (1, 2, 3):
            u = unfold(x, mode)
            worst = max(worst, float(np.max(np.abs(u - oracles[mode]))))
            back = fold(u, mode, x.shape)
            worst = max(worst, float(np.max(np.abs(back - x))))

        acc = 0.0
        for i in range(d1):
            for j in range(d2):
                for k in range(d3):
                    acc += abs(x[i, j, k]) ** 2
        worst = max(worst, abs(frobenius_norm(x) - math.sqrt(acc)))

        a = rng.standard_normal((d1, d2)) + 1j * rng.standard_normal((d1, d2))
        b = rng.standard_normal((d1, d2)) + 1j * rng.standard_normal((d1, d2))
        had = hadamard(a, b)
        for i in range(d1):
            for j in range(d2):
                worst = max(worst, abs(had[i, j] - a[i, j] * b[i, j]))

        r = int(rng.integers(1, 5))
        ka = rng.standard_normal((d1, r)) + 1j * rng.standard_normal((d1, r))
        kb = rng.standard_normal((d2, r)) + 1j * rng.standard_normal((d2, r))
        kr = khatri_rao(ka, kb)
        for i in range(d1):
            for j in range(d2):
                for c in range(r):
                    worst = max(
                        worst, abs(kr[i * d2 + j, c] - ka[i, c] * kb[j, c])
                    )
    elapsed = time.perf_counter() - t0
    _verdict(
        "criterion 01 tensor algebra",
        worst < 1e-12 and elapsed < 5.0,
        f"max |delta| {worst:.2e} (tol 1e-12), runtime {elapsed:.2f}s (cap 5s)",
    )


# ------------------------------------------------------- 2: CP recovery


def test_02_cp_recovery_on_synthetic_low_rank():
    """50 seeded construct-then-recover instances (8x9x10, true rank
    <= 3, weight condition ratio <= 10): relative fit < 1e-4 in >= 45,
    per-sweep residual non-increasing (1e-10 slack) in all, under 60 s."""
    rng = np.random.default_rng(202)
    t0 = time.perf_counter()
    hits = 0
    monotone = True
    worst_rise = 0.0
    for i in range(50):
        r = int(rng.integers(1, 4))
        lam = rng.uniform(1.0, 10.0, size=r)  # ratio within [1, 10]
        factors = []
        for d in (8, 9, 10):
            f = rng.standard_normal((d, r))
            factors.append(f / np.linalg.norm(f, axis=0))
        tensor = np.einsum(
            "r,ir,jr,kr->ijk", lam, factors[0], factors[1], factors[2]
        )
        model = cp_als(
            tensor, AlsConfig(rank=r, max_iters=300, rel_tol=1e-12, seed=i)
        )
        if fit_error(model, tensor) < 1e-4:
            hits += 1
        rises = np.diff(np.asarray(model.diagnostics.fit_errors))
        if rises.size:
            worst_rise = max(worst_rise, float(rises.max()))
        monotone = monotone and bool(np.all(rises <= 1e-10))
    elapsed = time.perf_counter() - t0
    _verdict(
        "criterion 02 CP recovery",
        hits >= 45 and monotone and elapsed < 60.0,
        f"fit<1e-4 in {hits}/50 (need >=45), worst residual rise "
        f"{worst_rise:.2e} (slack 1e-10), runtime {elapsed:.1f}s (cap 60s)",
    )


# ------------------------------------------------ 3: correlation oracles


def _correlation_oracles(g: np.ndarray):
    """Triple-loop versions of the six per-window correlation tensors."""
    t_w, f_n, m_n = g.shape
    time_ant = np.zeros((t_w, t_w, m_n), dtype=complex)
    freq_ant = np.zeros((f_n, f_n, m_n), dtype=complex)
    time_sub = np.zeros((t_w, t_w, f_n), dtype=complex)
    space_sub = np.zeros((m_n, m_n, f_n), dtype=complex)
    freq_snap = np.zeros((f_n, f_n, t_w), dtype=complex)
    space_snap = np.zeros((m_n, m_n, t_w), dtype=complex)
    for m in range(m_n):
        for t in range(t_w):
            for u in range(t_w):
                time_ant[t, u, m] = sum(
                    g[t, f, m] * np.conj(g[u, f, m]) for f in range(f_n)
                )
        for f in range(f_n):
            for h in range(f_n):
                freq_ant[f, h, m] = sum(
                    np.conj(g[t, f, m]) * g[t, h, m] for t in range(t_w)
                )
    for f in range(f_n):
        for t in range(t_w):
            for u in range(t_w):
                time_sub[t, u, f] = sum(
                    g[t, f, m] * np.conj(g[u, f, m]) for m in range(m_n)
                )
        for m in range(m_n):
            for q in range(m_n):
                space_sub[m, q, f] = sum(
                    np.conj(g[t, f, m]) * g[t, f, q] for t in range(t_w)
                )
    for t in range(t_w):
        for f in range(f_n):
            for h in range(f_n):
                freq_snap[f, h, t] = sum(
                    g[t, f, m] * np.conj(g[t, h, m]) for m in range(m_n)
                )
        for m in range(m_n):
            for q in range(m_n):
                space_snap[m, q, t] = sum(
                    np.conj(g[t, f, m]) * g[t, f, q] for f in range(f_n)
                )
    return time_ant, freq_ant, time_sub, space_sub, freq_snap, space_snap


def test_03_correlation_tensors_match_loop_oracles():
    """The six correlation tensors agree with triple-loop oracles within
    1e-12 and every frontal slice is Hermitian PSD, on 100 random
    windows with dims <= 8, in under 10 s."""
    rng = np.random.default_rng(303)
    t0 = time.perf_counter()
    worst = 0.0
    min_eig = np.inf
    herm_exact = True
    for _ in range(100):
        dims = tuple(int(d) for d in rng.integers(1, 9, size=3))
        g = rng.standard_normal(dims) + 1j * rng.standard_normal(dims)
        computed = correlation_set(g).in_slot_order()
        for got, want in zip(computed, _correlation_oracles(g)):
            worst = max(worst, float(np.max(np.abs(got - want))))
            for s in range(got.shape[2]):
                sl = got[:, :, s]
                herm_exact = herm_exact and bool(
                    np.array_equal(sl, np.conj(sl.T))
                )
                min_eig = min(min_eig, float(np.linalg.eigvalsh(sl).min()))
    elapsed = time.perf_counter() - t0
    _verdict(
        "criterion 03 correlation oracles",
        worst < 1e-12 and herm_exact and min_eig > -1e-10 and elapsed < 10.0,
        f"max |delta| {worst:.2e} (tol 1e-12), Hermitian exact: {herm_exact}, "
        f"min eigenvalue {min_eig:.2e} (floor -1e-10), runtime {elapsed:.1f}s "
        f"(cap 10s)",
    )


# ------------------------------------------- 4: normalization invariance


def test_04_feature_normalization_invariance():
    """Scaling a window by alpha in {0.1, 10} moves weight vectors 2-31
    by < 1e-6 relative and leaves assemble_input equal beyond the first
    vector's block; a constant per-antenna phase rotation leaves weight
    vectors 2-11 within 1e-8."""
    rng = np.random.default_rng(404)
    g = rng.standard_normal((10, 6, 4)) + 1j * rng.standard_normal((10, 6, 4))
    als = AlsConfig(rank=5, max_iters=60, rel_tol=1e-9, seed=7)
    base = extract_features(g, als)
    base_input = assemble_input(base)
    block = als.rank - 1  # width of one vector's block after drop-largest

    worst_scale = 0.0
    worst_tail = 0.0
    for alpha in (0.1, 10.0):
        scaled = extract_features(alpha * g, als)
        denom = np.maximum(np.abs(base.lambdas[1:]), 1e-30)
        worst_scale = max(
            worst_scale,
            float(np.max(np.abs(scaled.lambdas[1:] - base.lambdas[1:]) / denom)),
        )
        tail = assemble_input(scaled)[block:]
        ref = base_input[block:]
        worst_tail = max(
            worst_tail,
            float(
                np.max(np.abs(tail - ref) / np.maximum(np.abs(ref), 1e-30))
            ),
        )

    theta = rng.uniform(0.0, 2.0 * np.pi, size=g.shape[2])
    rotated = extract_features(g * np.exp(1j * theta)[None, None, :], als)
    denom = np.maximum(np.abs(base.lambdas[1:11]), 1e-30)
    worst_phase = float(
        np.max(np.abs(rotated.lambdas[1:11] - base.lambdas[1:11]) / denom)
    )
    _verdict(
        "criterion 04 normalization invariance",
        worst_scale < 1e-6 and worst_tail < 1e-6 and worst_phase < 1e-8,
        f"scale: vectors 2-31 rel {worst_scale:.2e} / input tail rel "
        f"{worst_tail:.2e} (tol 1e-6); per-antenna phase: vectors 2-11 rel "
        f"{worst_phase:.2e} (tol 1e-8)",
    )


# ----------------------------------------------------- 5: gradient check


def test_05_gradient_matches_finite_differences():
    """Every parameter gradient of a 7-input 3-class model matches
    central finite differences (step 1e-5) within max(1e-6, 1e-4*|g|)."""
    rng = np.random.default_rng(505)
    model = init_model(7, 3, seed=55)
    x = rng.standard_normal((2, 7))
    labels = np.zeros((2, 3))
    labels[0, 1] = labels[1, 2] = 1.0
    d_ws, d_bs = _layout(grad(model, (x, labels)), model.layer_dims)

    h = 1e-5
    worst_ratio = 0.0  # |fd - g| / max(1e-6, 1e-4 |g|)
    checked = 0
    for layer in range(len(model.weights)):
        for arrays, grads in (
            (model.weights, d_ws),
            (model.biases, d_bs),
        ):
            flat = arrays[layer].reshape(-1)
            gflat = grads[layer].reshape(-1)
            for idx in range(flat.size):
                orig = flat[idx]

                def perturbed(value: float) -> float:
                    pert = [w.copy() for w in model.weights], [
                        b.copy() for b in model.biases
                    ]
                    target = (
                        pert[0][layer]
                        if arrays is model.weights
                        else pert[1][layer]
                    )
                    target.reshape(-1)[idx] = value
                    probe = MlpModel(
                        weights=tuple(pert[0]), biases=tuple(pert[1])
                    )
                    return sum(
                        loss(probe, x[i], labels[i]) for i in range(2)
                    ) / 2.0

                fd = (perturbed(orig + h) - perturbed(orig - h)) / (2.0 * h)
                g = gflat[idx]
                worst_ratio = max(
                    worst_ratio, abs(fd - g) / max(1e-6, 1e-4 * abs(g))
                )
                checked += 1
    _verdict(
        "criterion 05 gradient check",
        worst_ratio < 1.0,
        f"{checked} parameters, worst |fd-g| at {worst_ratio:.3f}x its "
        f"tolerance max(1e-6, 1e-4|g|)",
    )


# ----------------------------------------- 6: feature-dimension contract


def test_06_feature_dimension_and_row_counts(tmp_path):
    """With r_max=100 and drop-largest, assemble_input has exactly 3069
    entries; a featurize run with the default experiment counts yields
    exactly 1620 rows."""
    rng = np.random.default_rng(606)
    g = rng.standard_normal((4, 3, 2)) + 1j * rng.standard_normal((4, 3, 2))
    fs = extract_features(g, AlsConfig(rank=100, max_iters=2, rel_tol=0.5))
    width = assemble_input(fs).size

    man = manifest_from_dict(
        {
            "sim": {"t": 30, "f": 2, "m": 2, "snr_db": 20.0, "seed": 3},
            "t_w": 2,
            "r_max": 2,
            "als": {"max_iters": 2, "rel_tol": 1e-3, "seed": 0},
            "train": {"epochs": 1, "batch_size": 8, "seed": 0},
            "antenna_sweep": [1, 2],
            "output_dir": str(tmp_path),
        }
    )
    run_simulate(man)
    files = sorted(dataset_dir(man).glob("rec-*.mmt3"))
    rows = 0
    for idx, path in enumerate(files):
        rows += len(_featurize_one((path, idx, man.t_w, man.als, man.sim.m)))
    _verdict(
        "criterion 06 feature dimensions",
        width == 3069 and rows == 1620,
        f"assemble_input width {width} (want 3069), default-count rows "
        f"{rows} (want 1620, {len(files)} records x {man.windows_per_record} "
        f"windows)",
    )


# --------------------------------------- desk-scale fixture for 7, 8, 9


DESK_SWEEP = (4, 8, 16, 32)
DESK_SEEDS = range(5)
_WPR = 6  # 600 snapshots / 100-snapshot windows


def _desk_manifest(out_dir: str, scenario: str):
    return manifest_from_dict(
        {
            "sim": {
                "t": 600,
                "f": 16,
                "m": 32,
                "snr_db": 20.0,
                "seed": 0,
                "scenario": scenario,
            },
            "t_w": 100,
            "r_max": 10,
            "als": {"max_iters": 16, "rel_tol": 1e-6, "seed": 0},
            "train": {"epochs": 200, "batch_size": 32, "seed": 0},
            "experiments_per_activity": {
                "A1": 12,
                "A2": 6,
                "A3": 6,
                "A4": 6,
                "A5": 6,
            },
            "antenna_sweep": list(DESK_SWEEP),
            "output_dir": out_dir,
        }
    )


def _featurize_timed(man, m_keep):
    """Feature sets for one scenario/antenna count, plus per-window
    extraction seconds (one sample per record).  The seconds are the
    process's CPU time, so what else runs on the host does not count."""
    files = sorted(dataset_dir(man).glob("rec-*.mmt3"))
    assert files, "simulated records missing"
    fsets, per_window = [], []
    for idx, path in enumerate(files):
        t0 = time.process_time()
        out = _featurize_one((path, idx, man.t_w, man.als, m_keep))
        per_window.append((time.process_time() - t0) / len(out))
        fsets.extend(out)
    return fsets, per_window


def _median_accuracy(man, fsets) -> float:
    ds = _dataset_from_features(fsets)
    accs = []
    for seed in DESK_SEEDS:
        cfg = replace(man.train, seed=seed)
        tr, te = split(ds, cfg)
        model, _ = train(tr, cfg)
        accs.append(evaluate(model, te)[1])
    return float(statistics.median(accs))


@pytest.fixture(scope="module")
def desk(tmp_path_factory):
    """Simulate and featurize the desk-scale experiment in both
    scenarios, train across seeds, and run the early/late controls."""
    t0 = time.perf_counter()
    root = tmp_path_factory.mktemp("desk")
    results = {
        "acc": {},  # (scenario, m) -> median accuracy
        "per_window_s": {},  # m -> median extraction seconds per window
    }

    man_los = _desk_manifest(str(root / "LOS"), "LOS")
    run_simulate(man_los)
    los32_fsets = None
    for m in DESK_SWEEP:
        fsets, per_window = _featurize_timed(man_los, m)
        results["per_window_s"][m] = float(statistics.median(per_window))
        results["acc"][("LOS", m)] = _median_accuracy(man_los, fsets)
        if m == 32:
            los32_fsets = fsets

    man_nlos = _desk_manifest(str(root / "NLOS"), "NLOS")
    run_simulate(man_nlos)
    nlos_fsets, _ = _featurize_timed(man_nlos, 32)
    results["acc"][("NLOS", 32)] = _median_accuracy(man_nlos, nlos_fsets)

    # Early/late control on the LOS M=32 features: per activity, relabel
    # windows by record position and check the classifier stays near
    # chance; then inject a linear position drift (12x each coordinate's
    # spread per step — unambiguous by construction) to show the control
    # detects leakage when it exists.
    by_label = {}
    for fs in los32_fsets:
        by_label.setdefault(fs.label, []).append(fs)
    control, drifted = {}, {}
    for label, group in sorted(by_label.items()):
        inputs = np.stack([assemble_input(fs) for fs in group])
        ids = np.array([fs.window_id for fs in group])
        pos = ids % _WPR
        step = 12.0 * inputs.std(axis=0)
        leaky = inputs + pos[:, None] * step[None, :]
        accs, drift_accs = [], []
        for seed in DESK_SEEDS:
            cfg = replace(man_los.train, seed=seed)
            accs.append(early_late_control(inputs, ids, _WPR, cfg))
            drift_accs.append(early_late_control(leaky, ids, _WPR, cfg))
        control[label] = float(statistics.median(accs))
        drifted[label] = float(statistics.median(drift_accs))
    results["control"] = control
    results["drift"] = drifted
    results["elapsed_s"] = time.perf_counter() - t0
    return results


# ------------------------------------------------- 7: desk-scale trend


@pytest.mark.desk
def test_07_desk_scale_accuracy_trend(desk):
    """Desk-scale manifest (T=600, F=16, M=32, T_w=100, r_max=10,
    snr_db=20, 12 static + 6 per dynamic activity, sweep {4,8,16,32}):
    median-of-5-seed accuracy must reach >= 0.80 at M=32 in LOS, beat
    M=4 by >= 0.05, and match or beat NLOS at M=32; all desk-scale work
    finishes in under 15 minutes."""
    acc = desk["acc"]
    los32, los4, nlos32 = acc[("LOS", 32)], acc[("LOS", 4)], acc[("NLOS", 32)]
    sweep_str = " ".join(
        f"M={m}:{acc[('LOS', m)]:.3f}" for m in DESK_SWEEP
    )
    elapsed = desk["elapsed_s"]
    _verdict(
        "criterion 07 desk-scale trend",
        los32 >= 0.80
        and los32 >= los4 + 0.05
        and los32 >= nlos32
        and elapsed < 900.0,
        f"LOS {sweep_str}; NLOS M=32:{nlos32:.3f}; need LOS32>=0.80, "
        f"LOS32>=LOS4+0.05, LOS32>=NLOS32; desk runtime {elapsed:.0f}s "
        f"(cap 900s)",
    )


# ------------------------------------------------- 8: early/late control


@pytest.mark.desk
def test_08_early_late_control(desk):
    """Per-activity early/late accuracy stays in [0.35, 0.65] (median of
    5 seeds) on the desk-scale LOS M=32 features, and the injected-drift
    variant exceeds 0.9."""
    control, drifted = desk["control"], desk["drift"]
    worst_lo = min(control.values())
    worst_hi = max(control.values())
    drift_power = min(drifted.values())
    detail = ", ".join(
        f"{label.name}:{value:.3f}" for label, value in control.items()
    )
    _verdict(
        "criterion 08 early/late control",
        worst_lo >= 0.35 and worst_hi <= 0.65 and drift_power > 0.9,
        f"{detail} (bounds [0.35, 0.65]); weakest injected-drift accuracy "
        f"{drift_power:.3f} (need > 0.9)",
    )


# ---------------------------------------------- 9: complexity regression


@pytest.mark.desk
def test_09_extraction_time_scales_gently_with_antennas(desk):
    """Doubling M from 16 to 32 (T_w=100, F=16) grows the median
    per-window feature-extraction time by at most 2.5x."""
    t16, t32 = desk["per_window_s"][16], desk["per_window_s"][32]
    ratio = t32 / t16
    _verdict(
        "criterion 09 complexity regression",
        ratio <= 2.5,
        f"median per-window extraction {t16 * 1e3:.0f} ms at M=16 vs "
        f"{t32 * 1e3:.0f} ms at M=32, ratio {ratio:.2f} (cap 2.5)",
    )


# ----------------------------------------------------- 10: determinism


def test_10_subcommands_are_deterministic(tmp_path):
    """Every subcommand run twice on the same manifest produces
    byte-identical data and report files."""
    out = tmp_path / "runs"
    manifest = {
        "sim": {"t": 40, "f": 3, "m": 4, "snr_db": 20.0, "seed": 17},
        "t_w": 8,
        "r_max": 2,
        "als": {"max_iters": 3, "rel_tol": 1e-3, "seed": 0},
        "train": {"epochs": 4, "batch_size": 8, "seed": 0},
        "experiments_per_activity": {
            "A1": 3,
            "A2": 3,
            "A3": 3,
            "A4": 3,
            "A5": 3,
        },
        "antenna_sweep": [2, 4],
        "output_dir": str(out),
    }
    man_path = tmp_path / "manifest.json"
    man_path.write_text(json.dumps(manifest))

    def tree_hashes() -> dict[str, bytes]:
        return {
            str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).digest()
            for p in sorted(out.rglob("*"))
            if p.is_file()
        }

    mismatches = []
    for command in ("simulate", "featurize", "train-eval", "sweep-antennas", "control"):
        first = None
        for attempt in range(2):
            code = cli_main([command, "--manifest", str(man_path)])
            assert code == 0, f"{command} exited {code}"
            hashes = tree_hashes()
            if attempt == 0:
                first = hashes
            elif hashes != first:
                mismatches.append(command)
    _verdict(
        "criterion 10 determinism",
        not mismatches,
        "all five subcommands byte-identical across reruns"
        if not mismatches
        else f"non-identical outputs from: {', '.join(mismatches)}",
    )
