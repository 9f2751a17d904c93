"""Feature-extraction tests: correlation oracles, normalization rules,
CP-weight layout, and persistence."""

import csv
import hashlib
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose, assert_array_equal

import mimosense.features as features
from mimosense.channel import Activity, SimConfig, simulate_record
from mimosense.cp import AlsConfig
from mimosense.errors import DataError
from mimosense.features import (
    FeatureSet,
    _tensor_seed,
    _unwrap,
    assemble_input,
    corr_per_antenna,
    corr_per_subcarrier,
    corr_per_time,
    correlation_set,
    extract_features,
    family_tensors,
    feature_names,
    load_features_bin,
    phase_reference,
    real_feature_tensors,
    save_features_bin,
    save_features_csv,
)


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def gram_oracle(slices_first, conj_first):
    """Loop oracle for stacked Gram matrices: out(i,j,s) =
    Σ_r x(i,r,s)·conj(x(j,r,s)) or the conjugate-transposed pairing."""


# --------------------------------------------------------- correlations


def test_corr_per_antenna_identity_window():
    g = np.zeros((2, 2, 1), dtype=complex)
    g[:, :, 0] = np.eye(2)
    time, freq = corr_per_antenna(g)
    assert_allclose(time[:, :, 0], np.eye(2), atol=1e-15)
    assert_allclose(freq[:, :, 0], np.eye(2), atol=1e-15)


def test_corr_per_antenna_matches_loop_oracle():
    rng = np.random.default_rng(0)
    g = random_complex(rng, (3, 4, 2))
    time, freq = corr_per_antenna(g)
    for m in range(2):
        for i in range(3):
            for j in range(3):
                want = sum(g[i, f, m] * np.conj(g[j, f, m]) for f in range(4))
                assert abs(time[i, j, m] - want) < 1e-12
        for a in range(4):
            for b in range(4):
                want = sum(np.conj(g[t, a, m]) * g[t, b, m] for t in range(3))
                assert abs(freq[a, b, m] - want) < 1e-12


def test_corr_per_antenna_trace_identity():
    rng = np.random.default_rng(1)
    g = random_complex(rng, (4, 5, 3))
    time, freq = corr_per_antenna(g)
    for m in range(3):
        tr_t = np.trace(time[:, :, m]).real
        tr_f = np.trace(freq[:, :, m]).real
        sq = np.sum(np.abs(g[:, :, m]) ** 2)
        assert abs(tr_t - sq) < 1e-10
        assert abs(tr_f - sq) < 1e-10


def test_corr_per_subcarrier_one_hot():
    g = np.zeros((2, 1, 3), dtype=complex)
    g[0, 0, 1] = 1.0  # G_0 has a single one-hot column
    _, space = corr_per_subcarrier(g)
    assert_allclose(space[:, :, 0], np.diag([0.0, 1.0, 0.0]), atol=1e-15)


def test_corr_per_subcarrier_matches_loop_oracle():
    rng = np.random.default_rng(2)
    g = random_complex(rng, (3, 2, 4))
    time, space = corr_per_subcarrier(g)
    for f in range(2):
        for i in range(3):
            for j in range(3):
                want = sum(g[i, f, m] * np.conj(g[j, f, m]) for m in range(4))
                assert abs(time[i, j, f] - want) < 1e-12
        for a in range(4):
            for b in range(4):
                want = sum(np.conj(g[t, f, a]) * g[t, f, b] for t in range(3))
                assert abs(space[a, b, f] - want) < 1e-12


def test_correlation_slices_exactly_hermitian():
    rng = np.random.default_rng(3)
    g = random_complex(rng, (4, 3, 5))
    for c in correlation_set(g).in_slot_order():
        flipped = np.conj(np.transpose(c, (1, 0, 2)))
        assert_array_equal(c, flipped)


def test_corr_per_time_all_ones():
    f_len, m_len = 3, 4
    g = np.ones((2, f_len, m_len), dtype=complex)
    freq, _ = corr_per_time(g)
    assert_allclose(freq[:, :, 0], m_len * np.ones((f_len, f_len)), atol=1e-15)


def test_corr_per_time_matches_loop_oracle():
    rng = np.random.default_rng(4)
    g = random_complex(rng, (2, 3, 4))
    freq, space = corr_per_time(g)
    for t in range(2):
        for a in range(3):
            for b in range(3):
                want = sum(g[t, a, m] * np.conj(g[t, b, m]) for m in range(4))
                assert abs(freq[a, b, t] - want) < 1e-12
        for a in range(4):
            for b in range(4):
                want = sum(np.conj(g[t, f, a]) * g[t, f, b] for f in range(3))
                assert abs(space[a, b, t] - want) < 1e-12


def test_correlation_slices_psd():
    rng = np.random.default_rng(5)
    g = random_complex(rng, (5, 4, 3))
    for c in correlation_set(g).in_slot_order():
        for s in range(c.shape[2]):
            sl = c[:, :, s]
            eigs = np.linalg.eigvalsh(sl)
            assert eigs.min() >= -1e-8 * np.trace(sl).real


# ------------------------------------- family_tensors: amplitude and phase


def test_amp_phase_real_positive_slice():
    c = np.abs(np.random.default_rng(6).standard_normal((3, 3, 1))) + 0j
    a, _, p = tuple(family_tensors(c))[:3]
    assert_array_equal(p, np.zeros_like(p.real))
    assert_allclose(a[:, :, 0], c[:, :, 0].real / np.linalg.norm(c[:, :, 0]), atol=1e-14)


def test_amp_phase_quarter_turn():
    c = np.array([1.0, 1.0j]).reshape(1, 2, 1)
    a, _, p = tuple(family_tensors(c))[:3]
    assert_allclose(p[0, :, 0], [0.0, 1.0], atol=1e-12)
    assert_allclose(a[0, :, 0], [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-12)


def test_amp_phase_unwrap_adjacent_jump():
    c = np.exp(1j * np.array([0.1, 6.2])).reshape(1, 2, 1)
    p = tuple(family_tensors(c))[2]
    want = np.array([0.1, 6.2 - 2 * np.pi])
    want = want / np.linalg.norm(want)
    assert_allclose(p[0, :, 0], want, atol=1e-12)


def test_amp_phase_unwrap_recovers_continuous_ramp():
    raw = np.array([0.1, 3.0, 6.0])
    c = np.exp(1j * raw).reshape(1, 3, 1)
    p = tuple(family_tensors(c))[2]
    want = raw / np.linalg.norm(raw)
    assert_allclose(p[0, :, 0], want, atol=1e-12)


def _unwrap_oracle(ang):
    """Scalar oracle for the documented 2-D unwrap rule."""

    def step(prev, cur):
        d = cur - prev
        if abs(d) <= np.pi:
            return prev + d
        dd = (d + np.pi) % (2 * np.pi) - np.pi
        if dd == -np.pi and d > 0:
            dd = np.pi
        return prev + dd

    rows, cols = ang.shape
    w = np.zeros_like(ang)
    for i in range(rows):
        w[i, 0] = ang[i, 0]
        for j in range(1, cols):
            w[i, j] = step(w[i, j - 1], ang[i, j])
    col = np.zeros(rows)
    col[0] = w[0, 0]
    for i in range(1, rows):
        col[i] = step(col[i - 1], w[i, 0])
    for i in range(rows):
        w[i, :] += col[i] - w[i, 0]
    return w


def test_amp_phase_matches_scalar_unwrap_oracle():
    rng = np.random.default_rng(7)
    c = random_complex(rng, (4, 5, 3))
    p = tuple(family_tensors(c))[2]
    for s in range(3):
        w = _unwrap_oracle(np.angle(c[:, :, s]))
        assert_allclose(p[:, :, s], w / np.linalg.norm(w), atol=1e-12)


def test_amp_phase_zero_slice():
    c = np.zeros((2, 2, 2), dtype=complex)
    c[:, :, 1] = 1.0  # second slice nonzero, first all-zero
    a, _, p = tuple(family_tensors(c))[:3]
    assert_array_equal(a[:, :, 0], np.zeros((2, 2)))
    assert_array_equal(p[:, :, 0], np.zeros((2, 2)))
    assert np.linalg.norm(a[:, :, 1]) > 0


# ----------------------------- family_tensors: normalized complex parts


def test_normalized_complex_unit_slice_unchanged():
    rng = np.random.default_rng(8)
    c = random_complex(rng, (3, 3, 1))
    c /= np.linalg.norm(c[:, :, 0])
    amp, _, _, re, im = family_tensors(c)
    assert_allclose(re[:, :, 0], c[:, :, 0].real, atol=1e-12)
    assert_allclose(im[:, :, 0], c[:, :, 0].imag, atol=1e-12)
    assert_allclose(amp[:, :, 0], np.abs(c[:, :, 0]), atol=1e-12)


def test_normalized_complex_scalar_slice():
    c = np.full((1, 1, 1), 2.0 + 0.0j)
    amp, _, _, re, im = family_tensors(c)
    assert_allclose([re[0, 0, 0], im[0, 0, 0], amp[0, 0, 0]], [1.0, 0.0, 1.0], atol=1e-15)


def test_normalized_complex_matches_scalar_oracle():
    rng = np.random.default_rng(9)
    c = random_complex(rng, (3, 3, 2))
    amp, _, _, re, im = family_tensors(c)
    for s in range(2):
        n = np.sqrt(sum(abs(c[i, j, s]) ** 2 for i in range(3) for j in range(3)))
        total = 0.0
        for i in range(3):
            for j in range(3):
                want = c[i, j, s] / n
                assert abs(re[i, j, s] - want.real) < 1e-12
                assert abs(im[i, j, s] - want.imag) < 1e-12
                assert abs(amp[i, j, s] - abs(want)) < 1e-12
                total += re[i, j, s] ** 2 + im[i, j, s] ** 2
        assert abs(total - 1.0) < 1e-10


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert_array_equal(got.view(np.int64), want.view(np.int64))


# Angles that hit np.unwrap's edge cases: signed zeros and steps of
# exactly π.
_SPECIAL_ANGLES = st.sampled_from([0.0, -0.0, np.pi, -np.pi])


@settings(max_examples=300, deadline=None)
@given(
    p=hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=2, max_dims=3, max_side=6),
        elements=st.one_of(_SPECIAL_ANGLES, st.floats(-1.5, 1.5)),
    )
    | hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=2, max_dims=3, max_side=6),
        elements=st.one_of(_SPECIAL_ANGLES, st.floats(-10.0, 10.0)),
    ),
    order=st.sampled_from("CF"),
    axis=st.sampled_from([0, 1]),
)
def test_unwrap_equals_numpy_bit_for_bit(p, order, axis):
    # Small angles never step by π, so those inputs take the fast path
    # unless a special angle lands next to its opposite; wide ones
    # usually do step by π.
    p = np.array(p, order=order)
    got, want = _unwrap(p, axis), np.unwrap(p, axis=axis)
    assert_same_bits(got, want)
    assert_array_equal(np.signbit(got), np.signbit(want))
    assert got.strides == want.strides


def _reference_family(c):
    """Loop-free reference for the slot tensors: |C| and the unwrapped
    phase, each over its own per-slice norm, and C / ‖C‖."""

    def slice_norms(x):
        return np.sqrt(np.sum(np.abs(x) ** 2, axis=(0, 1)))

    def unwrap_slices(ang):
        if ang.shape[1] > 1:
            u = np.unwrap(ang, axis=1)
        else:
            u = ang.copy()
        if ang.shape[0] > 1:
            col = np.unwrap(u[:, 0, :], axis=0)
            u = u + (col - u[:, 0, :])[:, None, :]
        return u

    mag = np.abs(c)
    a_norm = slice_norms(mag)
    a = mag / np.where(a_norm == 0.0, 1.0, a_norm)
    u = unwrap_slices(np.angle(c))
    p_norm = slice_norms(u)
    p = u / np.where(p_norm == 0.0, 1.0, p_norm)
    norms = slice_norms(c)
    return a, p, c / np.where(norms == 0.0, 1.0, norms)


def assert_family_matches_reference(c):
    amp, norm_amp, phase, re, im = family_tensors(c)
    want_amp, want_phase, ct = _reference_family(c)
    assert_same_bits(amp, want_amp)
    assert_same_bits(phase, want_phase)
    # assert_array_equal counts -0.0 and +0.0 as equal.
    assert_array_equal(re, ct.real)
    assert_array_equal(im, ct.imag)
    assert norm_amp is amp
    assert_allclose(norm_amp, np.abs(ct), rtol=1e-15, atol=1e-300)


def test_family_tensors_match_reference_on_correlations():
    rng = np.random.default_rng(11)
    for shape in [(12, 5, 8), (30, 4, 3), (5, 1, 2)]:
        g = random_complex(rng, shape)
        g[:, :, 0] = 0.0  # a dead antenna: zero slices per antenna
        g[2] = 0.0  # a dead snapshot: zero slices per snapshot
        for c in correlation_set(phase_reference(g)).in_slot_order():
            assert_family_matches_reference(c)


@settings(max_examples=200, deadline=None)
@given(
    parts=hnp.arrays(
        np.float64,
        st.tuples(
            st.just(2),
            st.integers(1, 5),
            st.integers(1, 5),
            st.integers(1, 3),
        ),
        elements=st.one_of(
            st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-4.0, 4.0)
        ),
    ),
    order=st.sampled_from("CF"),
    zero_slice=st.booleans(),
)
def test_family_tensors_match_reference_with_signed_zeros(parts, order, zero_slice):
    c = np.empty(parts.shape[1:], dtype=complex, order=order)
    c.real, c.imag = parts  # part by part, keeping the signed zeros
    if zero_slice:
        c[:, :, 0] = 0.0
    assert_family_matches_reference(c)


def test_amp_and_norm_amp_slots_hold_the_same_tensor():
    # ||abs(C)||_F = ||C||_F, so abs(C) / ||abs(C)|| equals abs(C / ||C||)
    # in every correlation family: one tensor fills both slots, and only
    # their ALS seeds differ.
    rng = np.random.default_rng(10)
    g = random_complex(rng, (12, 5, 8)) * rng.uniform(0.1, 10.0, (1, 5, 8))
    # real_feature_tensors yields in fit order; _FIT_SLOTS maps it to slots.
    assert sorted(features._FIT_SLOTS) == list(range(31))
    by_slot = dict(zip(features._FIT_SLOTS, real_feature_tensors(g), strict=True))
    tensors = [by_slot[slot] for slot in range(31)]
    names = feature_names()
    for family in range(6):
        amp_slot, norm_slot = 1 + 5 * family, 5 + 5 * family
        assert names[amp_slot].endswith(".amp")
        assert names[norm_slot].endswith(".norm_amp")
        assert_same_bits(tensors[norm_slot], tensors[amp_slot])


# ------------------------------------------------------ extract_features


def small_window(seed=0, shape=(6, 4, 4)):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_extract_features_shape_and_names():
    fs = extract_features(small_window(), AlsConfig(rank=3, max_iters=10))
    assert fs.lambdas.shape == (31, 3)
    assert len(feature_names()) == 31
    # every vector descending, nonnegative
    assert np.all(np.diff(fs.lambdas, axis=1) <= 1e-12)
    assert np.all(fs.lambdas >= 0)


def test_extract_features_zero_window():
    fs = extract_features(
        np.zeros((4, 3, 3), dtype=complex), AlsConfig(rank=2, max_iters=5)
    )
    assert_array_equal(fs.lambdas, np.zeros((31, 2)))
    # A zero tensor needs no sweep and counts as converged.
    assert fs.n_sweeps == (0,) * 31
    assert fs.converged == (True,) * 31


def test_extract_features_keeps_each_slots_cp_diagnostics(monkeypatch):
    fits = []
    real = features.cp_als

    def keep(tensor, cfg):
        model = real(tensor, cfg)
        fits.append((cfg.seed, model.diagnostics))
        return model

    monkeypatch.setattr(features, "cp_als", keep)
    als = AlsConfig(rank=3, max_iters=40)
    fs = extract_features(small_window(seed=3), als)
    # The fits run in fit order; each is seeded and stored by its slot.
    by_slot = dict(zip(features._FIT_SLOTS, fits, strict=True))
    seeds, diagnostics = zip(*(by_slot[slot] for slot in range(31)))
    assert seeds == tuple(_tensor_seed(als.seed, slot) for slot in range(31))
    assert fs.n_sweeps == tuple(d.n_sweeps for d in diagnostics)
    assert fs.converged == tuple(d.converged for d in diagnostics)
    # Both outcomes occur, so the test tells the two fields apart.
    assert 0 < sum(fs.converged) < 31


def test_extract_features_deterministic():
    g = small_window(seed=11)
    als = AlsConfig(rank=3, max_iters=15, seed=5)
    f1 = extract_features(g, als)
    f2 = extract_features(g, als)
    assert_array_equal(f1.lambdas, f2.lambdas)


def test_extract_features_streams_the_slot_tensors():
    # A desk-shaped window (T_w=100, F=16, M=32): extract_features must
    # fit each slot tensor as it is built and drop it, and build the
    # correlations, norms and phases in place or a chunk of slices at a
    # time, so its allocation peak stays below 0.65 of the bytes of the
    # window's distinct slot tensors (about 20.6 MB).  Building all 31
    # before the first fit peaked at 33.3 MB; streaming them with
    # whole-tensor temporaries peaked at 16.3 MB; in place, 11.5 MB.
    record = simulate_record(
        SimConfig(t=100, f=16, m=32, snr_db=20.0, scenario="LOS", seed=1),
        Activity.ROTATE,
    )
    g = record.tensor
    als = AlsConfig(rank=10, max_iters=16, rel_tol=1e-6, seed=1)
    distinct = {id(t): t.nbytes for t in tuple(real_feature_tensors(g))}
    assert len(distinct) == 25  # each family's norm_amp repeats its amp
    slot_bytes = sum(distinct.values())
    # The first fit loads scipy; keep that import out of the trace.
    extract_features(small_window(), als)
    tracemalloc.start()
    try:
        extract_features(g, als)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.65 * slot_bytes, (peak, slot_bytes)


def test_phase_unwrap_fallback_stays_within_the_slot_tensors():
    # On complex noise, phase steps reach π, so _unwrap calls np.unwrap.
    # Run on a chunk of slices at a time, it must keep extract_features'
    # allocation peak below 0.65 of the bytes of the window's distinct
    # slot tensors (about 20.6 MB), as on simulated windows.
    g = random_complex(np.random.default_rng(0), (100, 16, 32))
    als = AlsConfig(rank=10, max_iters=16, rel_tol=1e-6, seed=1)
    families = correlation_set(phase_reference(g)).in_slot_order()
    assert any(np.abs(np.diff(np.angle(c), axis=1)).max() >= np.pi for c in families)
    del families
    distinct = {id(t): t.nbytes for t in tuple(real_feature_tensors(g))}
    slot_bytes = sum(distinct.values())
    # The first fit loads scipy; keep that import out of the trace.
    extract_features(small_window(), als)
    tracemalloc.start()
    try:
        extract_features(g, als)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.65 * slot_bytes, (peak, slot_bytes)


@pytest.mark.parametrize("shape", [(20, 8, 8), (100, 16, 32)])
def test_correlation_slots_are_fortran_ordered(shape):
    # Every correlation tensor comes out in one layout, whatever its
    # size: each frontal slice contiguous, first index fastest.  The
    # phase slots' per-slice norms are summed in memory order, so their
    # last bits depend on it, and cp_als reads its unfolding as a view.
    g = random_complex(np.random.default_rng(1), shape)
    for c in correlation_set(phase_reference(g)).in_slot_order():
        assert c.flags.f_contiguous, c.shape
    for slot, tensor in zip(features._FIT_SLOTS, real_feature_tensors(g)):
        if slot > 0:
            assert tensor.flags.f_contiguous, (slot, tensor.shape)


# sha256 of extract_features(...).lambdas.tobytes() as the multi-sweep
# dimension tree computes it (each pair of sweeps forms P = X x3 C for
# the first sweep's mode-1 and mode-2 MTTKRPs, N = X x2 B for its mode-3
# and the next sweep's mode-1 MTTKRP, and Q = X x1 A for the second
# sweep's mode-2 and mode-3 MTTKRPs, never through a Khatri-Rao
# product), with raw factors through the sweeps, normalized once after
# the last, the ridge retry taken in the Jacobi-scaled frame, each
# family's norm_amp slot fitting the amp slot's tensor, every model
# returned as fitted, and every correlation tensor in Fortran order,
# which sets the summation order of the phase slots' norms.
# Speed-ups to feature extraction must leave the features bit-identical:
# the stored feature files, the trained model and every reported
# accuracy derive from these bytes.  A change that moves a hash changes
# the features and must say so, not update the hash.  The second window
# is near rank one, so several slots fit below 1e-3 and take cp_als's
# dense residual; the first never does.  Its (2, 2, n) slots 17, 19, 27
# and 29 are fitted at their rank bound of 4, where exact fits are not
# unique, so their weights follow the sweep's rounding: a change to the
# order of the sweep's sums moves them far more than its ulps.
@pytest.mark.parametrize(
    "shape,rank,near_rank_one,digest",
    [
        (
            (12, 6, 5),
            6,
            False,
            "8c8647bc14ad3a4c0cad1a3719e04e1b8eb0d1890a66f5e21bfffd1727371890",
        ),
        (
            (8, 3, 2),
            4,
            True,
            "ce60e70e0d32ebebc0585e70047d0e13c365a6508ee01a998411a2c38537653b",
        ),
    ],
    ids=["random", "near_rank_one"],
)
def test_extract_features_golden_hash(shape, rank, near_rank_one, digest):
    g = golden_window(shape, near_rank_one)
    fs = extract_features(g, AlsConfig(rank=rank, max_iters=16, seed=7))
    assert hashlib.sha256(fs.lambdas.tobytes()).hexdigest() == digest


def golden_window(shape, near_rank_one):
    rng = np.random.default_rng(2024)
    if near_rank_one:
        u, v, w = (random_complex(rng, d) for d in shape)
        return np.einsum("i,j,k->ijk", u, v, w) + 0.3 * random_complex(rng, shape)
    return random_complex(rng, shape)


@pytest.mark.parametrize(
    "shape,rank,near_rank_one",
    [((12, 6, 5), 6, False), ((8, 3, 2), 4, True)],
    ids=["random", "near_rank_one"],
)
def test_fit_histories_rise_only_near_an_exact_fit(
    monkeypatch, shape, rank, near_rank_one
):
    # cp_als's one exception to a non-increasing fit history: ridge-
    # retried solves near an exact fit.  In the near-rank-one window the
    # (2, 2, n) slots 17, 19, 27 and 29, fitted at their rank bound, rise
    # by up to about 1.1e-8, always from a fit below 1e-8.
    histories = []
    real = features.cp_als

    def keep(tensor, cfg):
        model = real(tensor, cfg)
        histories.append(np.asarray(model.diagnostics.fit_errors))
        return model

    monkeypatch.setattr(features, "cp_als", keep)
    g = golden_window(shape, near_rank_one)
    extract_features(g, AlsConfig(rank=rank, max_iters=16, seed=7))
    assert len(histories) == 31
    for slot, fits in zip(features._FIT_SLOTS, histories, strict=True):
        rises = np.nonzero(np.diff(fits) > 1e-10)[0]
        assert np.all(fits[rises] < 1e-8), (slot, fits)


def test_fit_histories_stay_flat_on_small_exact_fit_slots(monkeypatch):
    # 150 near-rank-one windows whose (2, 2, n) slots are fitted at their
    # rank bound of 4 and fit nearly exactly, where the ridge retry runs.
    # A ridge that depends on the factors' column scales lets such fits
    # rise by up to 4.1e-4; the Jacobi-scaled one by 1.04e-7 at most.
    histories = []
    real = features.cp_als

    def keep(tensor, cfg):
        model = real(tensor, cfg)
        histories.append(np.asarray(model.diagnostics.fit_errors))
        return model

    monkeypatch.setattr(features, "cp_als", keep)
    shapes = [(8, 3, 2), (6, 2, 3), (12, 6, 5), (5, 4, 2)]
    for i in range(150):
        shape, sigma = shapes[i % 4], (0.3, 1.0)[i // 4 % 2]
        rng = np.random.default_rng(i)
        u, v, w = (random_complex(rng, d) for d in shape)
        g = np.einsum("i,j,k->ijk", u, v, w) + sigma * random_complex(rng, shape)
        rank = 6 if shape == (12, 6, 5) else 4
        extract_features(g, AlsConfig(rank=rank, max_iters=16, seed=7))
    assert len(histories) == 150 * 31
    worst = max(np.diff(fits).max(initial=0.0) for fits in histories)
    assert worst <= 1e-6, worst


def test_constant_antenna_phase_leaves_correlation_features():
    g = small_window(seed=12, shape=(8, 5, 4))
    als = AlsConfig(rank=3, max_iters=60, rel_tol=1e-9, seed=1)
    rng = np.random.default_rng(13)
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=4))
    base = extract_features(g, als)
    spun = extract_features(g * phases[None, None, :], als)
    # slots 1..10: per-antenna correlations see |e^{jφ}|² = 1
    assert_allclose(spun.lambdas[1:11], base.lambdas[1:11], rtol=1e-8, atol=1e-8)


def test_global_scale_touches_only_first_slot():
    g = small_window(seed=14)
    als = AlsConfig(rank=3, max_iters=60, rel_tol=1e-9, seed=2)
    base = extract_features(g, als)
    for alpha in (0.1, 10.0):
        scaled = extract_features(alpha * g, als)
        assert_allclose(
            scaled.lambdas[1:], base.lambdas[1:], rtol=1e-6, atol=1e-8
        )
        assert_allclose(scaled.lambdas[0], alpha * base.lambdas[0], rtol=1e-6)


# --------------------------------------------------------- phase_reference


def test_phase_reference_preserves_magnitudes_and_zeros():
    g = small_window(seed=20, shape=(5, 3, 2))
    g[:, 1, 0] = 0.0  # dead chain must stay untouched, not become NaN
    out = phase_reference(g)
    assert_allclose(np.abs(out), np.abs(g), rtol=0, atol=1e-14)
    assert_array_equal(out[:, 1, 0], np.zeros(5))
    # each live chain's mean is rotated onto the positive real axis
    mean = out.mean(axis=0)
    live = np.abs(g).sum(axis=0) > 0
    assert np.all(mean.real[live] > 0)
    assert_allclose(mean.imag, 0.0, atol=1e-13)


def test_phase_reference_cancels_per_chain_phase_offsets():
    g = small_window(seed=21, shape=(7, 4, 3))
    rng = np.random.default_rng(22)
    offsets = np.exp(1j * rng.uniform(0, 2 * np.pi, size=(4, 3)))
    assert_allclose(
        phase_reference(g * offsets[None, :, :]), phase_reference(g), atol=1e-12
    )


def test_phase_reference_keeps_within_window_phase_dynamics():
    g = small_window(seed=23, shape=(9, 3, 3))
    out = phase_reference(g)
    step_in = np.angle(g[1:] * np.conj(g[:-1]))
    step_out = np.angle(out[1:] * np.conj(out[:-1]))
    assert_allclose(step_out, step_in, atol=1e-12)


def test_per_chain_phase_offsets_leave_every_feature():
    g = small_window(seed=24, shape=(8, 4, 3))
    als = AlsConfig(rank=3, max_iters=60, rel_tol=1e-9, seed=3)
    rng = np.random.default_rng(25)
    offsets = np.exp(1j * rng.uniform(0, 2 * np.pi, size=(4, 3)))
    base = extract_features(g, als)
    spun = extract_features(g * offsets[None, :, :], als)
    assert_allclose(spun.lambdas, base.lambdas, rtol=1e-7, atol=1e-9)


# -------------------------------------------------------- assemble_input


def indexed_feature_set(r_max):
    lam = np.zeros((31, r_max))
    for i in range(31):
        lam[i] = np.arange(r_max)[::-1] + 1000 * i
    return FeatureSet(lambdas=lam, window_id=0, label=Activity.STATIC)


def test_assemble_input_lengths():
    assert assemble_input(indexed_feature_set(100)).shape == (3069,)
    assert assemble_input(indexed_feature_set(10)).shape == (279,)


def test_assemble_input_drops_leading_weight_per_vector():
    fs = indexed_feature_set(4)
    out = assemble_input(fs)
    assert out.shape == (31 * 3,)
    for i in range(31):
        assert_array_equal(out[i * 3 : (i + 1) * 3], fs.lambdas[i, 1:])


# ----------------------------------------------------------- persistence


def make_feature_sets(n=4, r_max=3, seed=15):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        lam = np.sort(rng.uniform(0, 5, size=(31, r_max)), axis=1)[:, ::-1]
        out.append(
            FeatureSet(
                lambdas=np.ascontiguousarray(lam),
                window_id=i,
                label=Activity(i % 5),
            )
        )
    return out


def test_feature_csv_round_trip(tmp_path):
    # Nothing reads features.csv back; parsed with the csv module, it
    # must hold the rows of features.bin exactly.
    sets = make_feature_sets()
    save_features_csv(tmp_path / "features.csv", sets)
    save_features_bin(tmp_path / "features.bin", sets)
    with open(tmp_path / "features.csv", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert header[:2] == ["window_id", "label"]
    assert header[2:5] == ["window_amp[0]", "window_amp[1]", "window_amp[2]"]
    assert len(header) == 2 + 31 * 3
    assert [int(row[0]) for row in rows] == [fs.window_id for fs in sets]
    assert [int(row[1]) for row in rows] == [int(fs.label) for fs in sets]
    by_bin = np.fromfile(tmp_path / "features.bin", dtype="<f8")
    assert_array_equal(
        np.array(rows, dtype=float), by_bin.reshape(len(sets), len(header))
    )


def test_feature_bin_round_trip(tmp_path):
    sets = make_feature_sets(seed=16)
    path = tmp_path / "features.bin"
    save_features_bin(path, sets)
    back = load_features_bin(path)
    for a, b in zip(back, sets):
        assert a.window_id == b.window_id
        assert a.label == b.label
        assert_array_equal(a.lambdas, b.lambdas)


def test_feature_bin_rejects_size_mismatch(tmp_path):
    sets = make_feature_sets(seed=17)
    path = tmp_path / "features.bin"
    save_features_bin(path, sets)
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(DataError):
        load_features_bin(path)


@pytest.mark.parametrize(
    "save", [save_features_csv, save_features_bin], ids=["csv", "bin"]
)
def test_feature_writers_refuse_an_unlabeled_set(tmp_path, save):
    sets = make_feature_sets(n=3)
    sets[1] = replace(sets[1], label=None)
    path = tmp_path / "features.out"
    with pytest.raises(ValueError, match="window 1 carries no label"):
        save(path, sets)
    assert not path.exists()


def test_feature_bin_missing_schema(tmp_path):
    sets = make_feature_sets(seed=18)
    path = tmp_path / "features.bin"
    save_features_bin(path, sets)
    path.with_suffix(".schema.json").unlink()
    with pytest.raises(DataError):
        load_features_bin(path)


@pytest.mark.parametrize(
    "column, value, message",
    [
        (1, 0.5, "labels"),
        (1, 9.0, "labels"),
        (1, np.nan, "labels"),
        (1, -1.0, "labels"),
        (0, 1.5, "window ids"),
        (0, np.nan, "window ids"),
        (0, -1.0, "window ids"),
        (0, 0.0, "duplicate window ids"),
    ],
    ids=[
        "label-0.5",
        "label-9",
        "label-nan",
        "label-minus-1",
        "id-1.5",
        "id-nan",
        "id-negative",
        "id-duplicate",
    ],
)
def test_feature_bin_rejects_corrupt_rows(tmp_path, column, value, message):
    # A row the writer cannot have produced is a corrupt file, not a
    # label or window id to truncate.
    sets = make_feature_sets(seed=19)
    path = tmp_path / "features.bin"
    save_features_bin(path, sets)
    rows = np.fromfile(path, dtype="<f8").reshape(len(sets), -1)
    rows[2, column] = value
    rows.tofile(path)
    with pytest.raises(DataError, match=message) as raised:
        load_features_bin(path)
    assert str(path) in str(raised.value)


@pytest.mark.parametrize(
    "edit",
    [{"r_max": 0}, {"rows": -1}, {"r_max": 3.0}, {"rows": "4"}],
    ids=["r_max-0", "rows-negative", "r_max-float", "rows-string"],
)
def test_feature_bin_rejects_invalid_schema(tmp_path, edit):
    import json

    sets = make_feature_sets(seed=20)
    path = tmp_path / "features.bin"
    save_features_bin(path, sets)
    schema_path = path.with_suffix(".schema.json")
    schema = json.loads(schema_path.read_text())
    schema.update(edit)
    schema_path.write_text(json.dumps(schema))
    with pytest.raises(DataError, match="invalid feature schema"):
        load_features_bin(path)
