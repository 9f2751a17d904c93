"""Feature-extraction tests: correlation oracles, normalization rules,
CP-weight layout, and persistence."""

import hashlib

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from mimosense.channel import Activity
from mimosense.cp import AlsConfig
from mimosense.errors import DataError
from mimosense.features import (
    FeatureSet,
    amp_phase_tensors,
    assemble_input,
    corr_per_antenna,
    corr_per_subcarrier,
    corr_per_time,
    correlation_set,
    extract_features,
    feature_names,
    load_features_bin,
    load_features_csv,
    normalized_complex,
    phase_reference,
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


# ---------------------------------------------------- amp_phase_tensors


def test_amp_phase_real_positive_slice():
    c = np.abs(np.random.default_rng(6).standard_normal((3, 3, 1))) + 0j
    a, p = amp_phase_tensors(c)
    assert_array_equal(p, np.zeros_like(p.real))
    assert_allclose(a[:, :, 0], c[:, :, 0].real / np.linalg.norm(c[:, :, 0]), atol=1e-14)


def test_amp_phase_quarter_turn():
    c = np.array([1.0, 1.0j]).reshape(1, 2, 1)
    a, p = amp_phase_tensors(c)
    assert_allclose(p[0, :, 0], [0.0, 1.0], atol=1e-12)
    assert_allclose(a[0, :, 0], [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-12)


def test_amp_phase_unwrap_adjacent_jump():
    c = np.exp(1j * np.array([0.1, 6.2])).reshape(1, 2, 1)
    _, p = amp_phase_tensors(c)
    want = np.array([0.1, 6.2 - 2 * np.pi])
    want = want / np.linalg.norm(want)
    assert_allclose(p[0, :, 0], want, atol=1e-12)


def test_amp_phase_unwrap_recovers_continuous_ramp():
    raw = np.array([0.1, 3.0, 6.0])
    c = np.exp(1j * raw).reshape(1, 3, 1)
    _, p = amp_phase_tensors(c)
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
    _, p = amp_phase_tensors(c)
    for s in range(3):
        w = _unwrap_oracle(np.angle(c[:, :, s]))
        assert_allclose(p[:, :, s], w / np.linalg.norm(w), atol=1e-12)


def test_amp_phase_zero_slice():
    c = np.zeros((2, 2, 2), dtype=complex)
    c[:, :, 1] = 1.0  # second slice nonzero, first all-zero
    a, p = amp_phase_tensors(c)
    assert_array_equal(a[:, :, 0], np.zeros((2, 2)))
    assert_array_equal(p[:, :, 0], np.zeros((2, 2)))
    assert np.linalg.norm(a[:, :, 1]) > 0


# --------------------------------------------------- normalized_complex


def test_normalized_complex_unit_slice_unchanged():
    rng = np.random.default_rng(8)
    c = random_complex(rng, (3, 3, 1))
    c /= np.linalg.norm(c[:, :, 0])
    re, im, amp = normalized_complex(c)
    assert_allclose(re[:, :, 0], c[:, :, 0].real, atol=1e-12)
    assert_allclose(im[:, :, 0], c[:, :, 0].imag, atol=1e-12)
    assert_allclose(amp[:, :, 0], np.abs(c[:, :, 0]), atol=1e-12)


def test_normalized_complex_scalar_slice():
    c = np.full((1, 1, 1), 2.0 + 0.0j)
    re, im, amp = normalized_complex(c)
    assert_allclose([re[0, 0, 0], im[0, 0, 0], amp[0, 0, 0]], [1.0, 0.0, 1.0], atol=1e-15)


def test_normalized_complex_matches_scalar_oracle():
    rng = np.random.default_rng(9)
    c = random_complex(rng, (3, 3, 2))
    re, im, amp = normalized_complex(c)
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


# ------------------------------------------------------ extract_features


def small_window(seed=0, shape=(6, 4, 4)):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_extract_features_shape_and_names():
    fs = extract_features(small_window(), AlsConfig(rank=3, max_iters=10))
    assert fs.lambdas.shape == (31, 3)
    assert len(feature_names()) == 31
    assert not fs.degenerate
    # every vector descending, nonnegative
    assert np.all(np.diff(fs.lambdas, axis=1) <= 1e-12)
    assert np.all(fs.lambdas >= 0)


def test_extract_features_zero_window():
    fs = extract_features(
        np.zeros((4, 3, 3), dtype=complex), AlsConfig(rank=2, max_iters=5)
    )
    assert fs.degenerate
    assert_array_equal(fs.lambdas, np.zeros((31, 2)))


def test_extract_features_rank_one_leading_weight():
    rng = np.random.default_rng(10)
    u, v, w = (rng.standard_normal(d) + 1j * rng.standard_normal(d) for d in (6, 5, 4))
    u, v, w = (x / np.linalg.norm(x) for x in (u, v, w))
    sigma = 3.5
    g = sigma * np.einsum("i,j,k->ijk", u, v, w)
    fs = extract_features(g, AlsConfig(rank=3, max_iters=200, rel_tol=1e-12))
    lam1 = fs.lambdas[0]
    assert abs(lam1[0] - sigma) / sigma < 1e-4
    assert np.all(lam1[1:] < 1e-6 * sigma)


def test_extract_features_deterministic():
    g = small_window(seed=11)
    als = AlsConfig(rank=3, max_iters=15, seed=5)
    f1 = extract_features(g, als)
    f2 = extract_features(g, als)
    assert_array_equal(f1.lambdas, f2.lambdas)


# sha256 of extract_features(...).lambdas.tobytes() as the plain dense-
# residual, scipy-Cholesky ALS computed it.  Speed-ups to feature
# extraction must leave the features bit-identical: the stored feature
# files, the trained model and every reported accuracy derive from these
# bytes.  A change that moves a hash changes the features and must say
# so, not update the hash.  The second window is near rank one, so
# several slots fit below 1e-3 and take cp_als's dense residual; the
# first never does.
@pytest.mark.parametrize(
    "shape,rank,near_rank_one,digest",
    [
        (
            (12, 6, 5),
            6,
            False,
            "15824241a78a6dac45759e8847e746285bab9812b32c87602e2bb9a4780e2029",
        ),
        (
            (8, 3, 2),
            4,
            True,
            "44a394971f3fe0d74c0a383628a823f71ec6db028b6cb35dfa99bf898aa588f4",
        ),
    ],
    ids=["random", "near_rank_one"],
)
def test_extract_features_golden_hash(shape, rank, near_rank_one, digest):
    rng = np.random.default_rng(2024)
    if near_rank_one:
        u, v, w = (random_complex(rng, d) for d in shape)
        g = np.einsum("i,j,k->ijk", u, v, w) + 0.3 * random_complex(rng, shape)
    else:
        g = random_complex(rng, shape)
    fs = extract_features(g, AlsConfig(rank=rank, max_iters=16, seed=7))
    assert hashlib.sha256(fs.lambdas.tobytes()).hexdigest() == digest


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
    assert assemble_input(indexed_feature_set(100), drop_largest=False).shape == (3100,)


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
    sets = make_feature_sets()
    path = tmp_path / "features.csv"
    save_features_csv(path, sets)
    back = load_features_csv(path)
    assert len(back) == len(sets)
    for a, b in zip(back, sets):
        assert a.window_id == b.window_id
        assert a.label == b.label
        assert_array_equal(a.lambdas, b.lambdas)


def test_feature_bin_round_trip(tmp_path):
    sets = make_feature_sets(seed=16)
    path = tmp_path / "features.bin"
    save_features_bin(path, sets)
    back = load_features_bin(path)
    for a, b in zip(back, sets):
        assert a.window_id == b.window_id
        assert a.label == b.label
        assert_array_equal(a.lambdas, b.lambdas)


def test_feature_csv_rejects_corrupt(tmp_path):
    path = tmp_path / "features.csv"
    path.write_text("window_id,label,bogus\n1,2\n")
    with pytest.raises(DataError):
        load_features_csv(path)


def test_feature_bin_rejects_size_mismatch(tmp_path):
    sets = make_feature_sets(seed=17)
    path = tmp_path / "features.bin"
    save_features_bin(path, sets)
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(DataError):
        load_features_bin(path)


def test_feature_bin_missing_schema(tmp_path):
    sets = make_feature_sets(seed=18)
    path = tmp_path / "features.bin"
    save_features_bin(path, sets)
    path.with_suffix(".schema.json").unlink()
    with pytest.raises(DataError):
        load_features_bin(path)
