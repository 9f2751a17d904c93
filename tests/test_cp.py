"""CP-ALS solver tests against construct-then-recover oracles."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import mimosense
import mimosense.cp as cp
from mimosense.cp import (
    AlsConfig,
    CpModel,
    cp_als,
    fit_error,
    rank_upper_bound,
    reconstruct,
)
from mimosense.features import _tensor_seed, real_feature_tensors
from mimosense.tensor_ops import frobenius_norm, khatri_rao, unfold


def build_cp_tensor(weights, factors):
    """Triple-loop oracle for Σ_l λ_l x_l ∘ y_l ∘ z_l."""
    x, y, z = factors
    d1, d2, d3 = x.shape[0], y.shape[0], z.shape[0]
    t = np.zeros((d1, d2, d3))
    for l, w in enumerate(weights):
        for i in range(d1):
            for j in range(d2):
                for k in range(d3):
                    t[i, j, k] += w * x[i, l] * y[j, l] * z[k, l]
    return t


def random_unit_factors(rng, dims, rank):
    factors = []
    for d in dims:
        f = rng.standard_normal((d, rank))
        factors.append(f / np.linalg.norm(f, axis=0))
    return factors


def rank3_oracle(seed=42):
    rng = np.random.default_rng(seed)
    weights = np.array([5.0, 3.0, 1.0])
    factors = random_unit_factors(rng, (8, 9, 10), 3)
    return build_cp_tensor(weights, factors), weights


# ------------------------------------------------------------ cp_als


def test_rank_one_exact_recovery():
    rng = np.random.default_rng(0)
    factors = random_unit_factors(rng, (4, 5, 6), 1)
    t = build_cp_tensor([7.0], factors)
    model = cp_als(t, AlsConfig(rank=1))
    assert_allclose(model.weights[0], 7.0, atol=1e-6)
    assert fit_error(model, t) < 1e-8


def test_rank3_construct_then_recover():
    t, weights = rank3_oracle()
    model = cp_als(t, AlsConfig(rank=3, max_iters=500, rel_tol=1e-10))
    assert fit_error(model, t) < 1e-6
    assert_allclose(np.sort(model.weights), np.sort(weights), atol=1e-4)


def test_monotone_fit_errors():
    rng = np.random.default_rng(21)
    t = rng.standard_normal((6, 7, 8))
    model = cp_als(t, AlsConfig(rank=4, max_iters=60, rel_tol=1e-14))
    fits = np.array(model.diagnostics.fit_errors)
    assert len(fits) >= 2
    assert np.all(np.diff(fits) <= 1e-10)


def test_unit_factor_columns():
    t, _ = rank3_oracle()
    model = cp_als(t, AlsConfig(rank=3))
    for f in model.factors:
        assert_allclose(np.linalg.norm(f, axis=0), 1.0, atol=1e-9)


def test_weights_nonnegative_descending():
    rng = np.random.default_rng(3)
    t = rng.standard_normal((5, 5, 5))
    model = cp_als(t, AlsConfig(rank=5))
    assert np.all(model.weights >= 0)
    assert np.all(np.diff(model.weights) <= 0)


def test_seeded_determinism():
    rng = np.random.default_rng(4)
    t = rng.standard_normal((5, 6, 7))
    cfg = AlsConfig(rank=3, seed=99)
    m1, m2 = cp_als(t, cfg), cp_als(t, cfg)
    assert_array_equal(m1.weights, m2.weights)
    for f1, f2 in zip(m1.factors, m2.factors):
        assert_array_equal(f1, f2)
    assert m1.diagnostics == m2.diagnostics


def test_zero_tensor_degenerate():
    model = cp_als(np.zeros((3, 3, 3)), AlsConfig(rank=2))
    assert_array_equal(model.weights, np.zeros(2))
    assert model.diagnostics.n_sweeps == 0
    assert_allclose(np.linalg.norm(model.factors[0], axis=0), 1.0)


def test_rank_above_smallest_dim_fits():
    rng = np.random.default_rng(5)
    t = rng.standard_normal((2, 6, 6))
    model = cp_als(t, AlsConfig(rank=4, max_iters=20))
    assert model.weights.size == 4


def test_rank_above_upper_bound_rejected():
    with pytest.raises(ValueError):
        cp_als(np.zeros((2, 3, 4)), AlsConfig(rank=7))


def test_non_finite_tensor_rejected():
    t = np.zeros((2, 2, 2))
    t[0, 0, 0] = np.inf
    with pytest.raises(ValueError):
        cp_als(t, AlsConfig(rank=1))


@pytest.mark.parametrize("bad", [np.nan, -np.inf])
def test_nan_and_negative_inf_rejected(bad):
    t = np.ones((3, 2, 2))
    t[1, 0, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        cp_als(t, AlsConfig(rank=1))


def test_finite_tensor_with_overflowing_norm_not_rejected():
    # cp_als checks entries only when the norm is not finite; a norm that
    # overflows on finite entries must not read as non-finite input.
    t = np.full((2, 2, 2), 1e200)
    with np.errstate(over="ignore", invalid="ignore"):
        model = cp_als(t, AlsConfig(rank=1, max_iters=2))
    assert model.weights.size == 1


def test_scale_equivariance():
    t, _ = rank3_oracle(seed=8)
    cfg = AlsConfig(rank=3, max_iters=300, rel_tol=1e-12, seed=1)
    base = cp_als(t, cfg)
    scaled = cp_als(2.5 * t, cfg)
    assert_allclose(scaled.weights, 2.5 * base.weights, rtol=1e-6)
    assert_allclose(fit_error(scaled, 2.5 * t), fit_error(base, t), atol=1e-8)


def test_mode_permutation_leaves_sorted_weights():
    t, _ = rank3_oracle(seed=12)
    cfg = AlsConfig(rank=3, max_iters=300, rel_tol=1e-12, seed=2)
    base = cp_als(t, cfg).weights
    rng = np.random.default_rng(30)
    for axis in range(3):
        perm = rng.permutation(t.shape[axis])
        shuffled = np.take(t, perm, axis=axis)
        got = cp_als(shuffled, cfg).weights
        assert_allclose(got, base, rtol=1e-6, atol=1e-8)


# ---------------------------------------------- residual and solve


def record_updates(monkeypatch):
    """Record the factors (A, B, C) every cp_als sweep leaves: its three
    ``_solve_factor`` solutions in mode order, as the sweep keeps them,
    with no column normalized."""
    sweeps, pending = [], []
    real_solve = cp._solve_factor

    def solve(gram, mttkrp):
        new = real_solve(gram, mttkrp)
        pending.append(new.copy())
        if len(pending) == 3:
            sweeps.append(tuple(pending))
            pending.clear()
        return new

    monkeypatch.setattr(cp, "_solve_factor", solve)
    return sweeps


def dense_fit(t, a, b, c):
    model = np.einsum("ir,jr,kr->ijk", a, b, c)
    return np.linalg.norm(t - model) / np.linalg.norm(t)


@pytest.mark.parametrize(
    "dims",
    [
        (100, 16, 32),  # window amplitude, (T_w, F, M)
        (100, 100, 32),  # time correlation, (T_w, T_w, M)
        (8, 8, 20),  # space correlation per snapshot, (M, M, T_w)
    ],
)
def test_fit_errors_match_dense_residual(monkeypatch, dims):
    t = np.abs(np.random.default_rng(sum(dims)).standard_normal(dims))
    sweeps = record_updates(monkeypatch)
    model = cp_als(t, AlsConfig(rank=10, max_iters=16, seed=3))
    fits = model.diagnostics.fit_errors
    assert len(sweeps) == len(fits) == model.diagnostics.n_sweeps
    for fit, factors in zip(fits, sweeps):
        assert abs(fit - dense_fit(t, *factors)) <= 1e-10


def test_near_exact_fit_takes_dense_residual(monkeypatch):
    # A near-exact fit: the Gram identity would lose the residual to
    # cancellation here, so the recorded fits must come from the dense
    # residual and still never rise.
    t, _ = rank3_oracle(seed=9)
    sweeps = record_updates(monkeypatch)
    model = cp_als(t, AlsConfig(rank=3, max_iters=100, rel_tol=1e-12))
    fits = np.array(model.diagnostics.fit_errors)
    assert fits[0] > 1e-3 > fits.min()
    assert np.all(np.diff(fits) <= 1e-10)
    for fit, factors in zip(fits, sweeps):
        assert abs(fit - dense_fit(t, *factors)) <= 1e-10


def test_dead_columns_restart_as_e1(monkeypatch):
    # A zero mode-1 solution column drops its component: A's column
    # restarts as e1 and C's is zeroed, so the mode-2 solution's column
    # is zero too and restarts as e1, and the mode-3 update refits the
    # component.  The first sweep's fit must be that of the restarted
    # factors, and the fit must go on falling.
    t = np.abs(np.random.default_rng(2).standard_normal((6, 7, 8)))
    real_solve, calls = cp._solve_factor, []

    def kill_first(gram, mttkrp):
        new = real_solve(gram, mttkrp)
        calls.append(None)
        if len(calls) == 1:
            new[:, 2] = 0.0
        return new

    monkeypatch.setattr(cp, "_solve_factor", kill_first)
    sweeps = record_updates(monkeypatch)
    model = cp_als(t, AlsConfig(rank=4, max_iters=8, seed=5))
    dead = np.arange(4) == 2
    a, b, c = sweeps[0]
    assert_array_equal(a[:, 2], 0.0)
    assert_array_equal(b[:, 2], 0.0)
    restarted = (cp._restart_dead(a, dead), cp._restart_dead(b, dead), c)
    fits = np.array(model.diagnostics.fit_errors)
    assert abs(fits[0] - dense_fit(t, *restarted)) <= 1e-10
    assert np.all(np.diff(fits) <= 1e-10)


def rel_err(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


@pytest.mark.parametrize(
    "dims",
    [
        (100, 16, 32),  # window amplitude, (T_w, F, M)
        (100, 100, 32),  # time correlation per antenna, (T_w, T_w, M)
        (100, 100, 16),  # time correlation per subcarrier, (T_w, T_w, F)
        (16, 16, 32),  # frequency correlation per antenna, (F, F, M)
        (32, 32, 100),  # space correlation per snapshot, (M, M, T_w)
    ],
)
def test_tree_mttkrps_match_unfolding_oracle(dims):
    rng = np.random.default_rng(sum(dims))
    t = rng.standard_normal(dims)
    a_raw, b, c = (rng.standard_normal((d, 10)) for d in dims)
    a_raw[:, 3] = 0.0  # a dead mode-1 solution column
    dead = np.arange(10) == 3
    x3 = cp._unfold3(t)
    x1 = x3.reshape(dims[2] * dims[1], dims[0]).T

    # The three first-level nodes, each X contracted with one factor.
    p = cp._partial_mode3(x3, c, dims)
    n = cp._partial_mode2(x3, b, dims)
    q = cp._partial_mode1(x1, a_raw, dims)
    assert rel_err(p, np.einsum("ijk,kr->rji", t, c)) <= 1e-12
    assert rel_err(n, np.einsum("ijk,jr->rki", t, b)) <= 1e-12
    assert rel_err(q, np.einsum("ijk,ir->rkj", t, a_raw)) <= 1e-12
    assert_array_equal(q[3], 0.0)

    # P serves modes 1 and 2.  The sweep's mode-2 update sees A with
    # the dead column restarted as e1 and C with that column zeroed, and
    # contracts P, formed before the zeroing, with the mode-1 solution
    # as solved, whose dead column is zero.
    want1 = unfold(t, 1) @ khatri_rao(c, b)
    assert rel_err(cp._contract_middle(p, b), want1) <= 1e-12
    c_zeroed = np.where(dead, 0.0, c)
    want2 = unfold(t, 2) @ khatri_rao(c_zeroed, cp._restart_dead(a_raw, dead))
    got2 = cp._contract_last(p, a_raw)
    assert rel_err(got2, want2) <= 1e-12
    assert_array_equal(got2[:, 3], 0.0)

    # N serves modes 3 and 1, Q modes 2 and 3; no sweep forms a
    # Khatri-Rao product.
    want3 = unfold(t, 3) @ khatri_rao(b, a_raw)
    got3 = cp._contract_last(n, a_raw)
    assert rel_err(got3, want3) <= 1e-12
    assert_array_equal(got3[:, 3], 0.0)
    assert rel_err(cp._contract_middle(n, c), want1) <= 1e-12
    want2 = unfold(t, 2) @ khatri_rao(c, a_raw)
    assert rel_err(cp._contract_middle(q, c), want2) <= 1e-12
    assert rel_err(cp._contract_last(q, b), want3) <= 1e-12


@pytest.mark.parametrize("max_iters,contractions", [(16, 24), (1, 2), (5, 8)])
def test_sweep_pairs_share_three_contractions(monkeypatch, max_iters, contractions):
    # A pair of sweeps forms P, N and Q once each; a fit cut after the
    # first sweep of a pair has formed P and N.
    calls = dict.fromkeys(("_partial_mode1", "_partial_mode2", "_partial_mode3"), 0)
    for name in calls:
        real = getattr(cp, name)

        def counted(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(cp, name, counted)
    t = np.random.default_rng(11).standard_normal((6, 7, 8))
    model = cp_als(t, AlsConfig(rank=4, max_iters=max_iters, rel_tol=1e-300))
    assert not model.diagnostics.converged
    assert model.diagnostics.n_sweeps == max_iters
    assert sum(calls.values()) == contractions
    pairs, odd = divmod(max_iters, 2)
    assert calls == {
        "_partial_mode1": pairs,
        "_partial_mode2": pairs + odd,
        "_partial_mode3": pairs + odd,
    }


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("dims", [(100, 100, 32), (7, 1, 5), (3, 4, 1)])
def test_unfolding_norm_matches_frobenius_norm(dims, order):
    t = np.asarray(
        np.random.default_rng(sum(dims)).standard_normal(dims), order=order
    )
    x3 = cp._unfold3(t)
    assert_array_equal(x3, unfold(t, 3))
    # A Fortran-ordered tensor's unfolding is a view: no copy for the norm.
    assert np.shares_memory(x3, t) == (order == "F")
    assert_allclose(np.linalg.norm(x3), frobenius_norm(t), rtol=1e-15)


def test_init_factors_are_a_read_only_seeded_draw():
    dims, rank, seed = (6, 5, 4), 3, 1234
    got = cp._init_factors(seed, dims, rank)
    assert cp._init_factors(seed, dims, rank) is got
    rng = np.random.default_rng(seed)
    for d, f in zip(dims, got):
        draw = rng.standard_normal((d, rank))
        assert_array_equal(f, draw / np.linalg.norm(draw, axis=0))
        assert not f.flags.writeable
    # The zero-tensor return hands out copies, not the memo's arrays.
    model = cp_als(np.zeros(dims), AlsConfig(rank=rank, seed=seed))
    for f, cached in zip(model.factors, got):
        assert_array_equal(f, cached)
        assert f.flags.writeable and not np.shares_memory(f, cached)


def over_rank_fits():
    """Over-rank (tensor, config) pairs: slot 0 of four exact rank-one
    windows at rank 3 under 25 config seeds each, where ALS splits the
    one weight over components that share its direction, and a random
    (4, 4, 20) tensor at rank 10."""
    for window in range(10, 14):
        rng = np.random.default_rng(window)
        u, v, w = (
            rng.standard_normal(d) + 1j * rng.standard_normal(d) for d in (6, 5, 4)
        )
        u, v, w = (x / np.linalg.norm(x) for x in (u, v, w))
        slot0 = next(real_feature_tensors(3.5 * np.einsum("i,j,k->ijk", u, v, w)))
        for seed in range(25):
            als = AlsConfig(
                rank=3, max_iters=200, rel_tol=1e-12, seed=_tensor_seed(seed, 0)
            )
            yield slot0, als
    yield np.random.default_rng(8).standard_normal((4, 4, 20)), AlsConfig(rank=10)


def test_over_rank_fits_return_their_last_sweeps_model():
    # cp_als returns the model its last sweep fitted, components sharing
    # a direction included, so its residual is the last recorded fit.
    # The tolerance is the benchmark's final-fit check's: only rounding
    # separates the two residuals.
    for t, als in over_rank_fits():
        model = cp_als(t, als)
        tol = 1e-9 * (1.0 + model.weights.sum() / np.linalg.norm(t))
        gap = abs(fit_error(model, t) - model.diagnostics.fit_errors[-1])
        assert gap <= tol, (t.shape, als.seed, gap, tol)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_rank_two_fit_of_border_rank_tensor_diverges(seed):
    # T = a∘a∘b + a∘b∘a + b∘a∘a, with a and b orthonormal, has rank 3 but
    # border rank 2 (de Silva & Lim 2008): rank-2 models come arbitrarily
    # close, and no rank-2 model is the best.  ALS chases the infimum, so
    # as the sweep cap grows the fit keeps falling while two components
    # grow and cancel each other.  This pins the ill-posed case that a
    # CP feature can fall into: its weights depend on the sweep cap.
    rng = np.random.default_rng(0)
    a = rng.standard_normal(4)
    a /= np.linalg.norm(a)
    b = rng.standard_normal(4)
    b -= (b @ a) * a
    b /= np.linalg.norm(b)

    def outer(x, y, z):
        return np.einsum("i,j,k->ijk", x, y, z)

    t = outer(a, a, b) + outer(a, b, a) + outer(b, a, a)
    norm = np.linalg.norm(t)
    scale, fit = [], []
    for max_iters in (256, 1024):
        cfg = AlsConfig(rank=2, max_iters=max_iters, rel_tol=1e-15, seed=seed)
        model = cp_als(t, cfg)
        assert model.diagnostics.n_sweeps == max_iters  # never converges
        scale.append(model.weights.sum() / norm)
        fit.append(fit_error(model, t))
    # Seeds 0-2 read Σw/‖T‖ 3.77 → 5.50, 3.99 → 5.57, 4.01 → 5.58 and a
    # fit of 1.46e-2 → 6.58e-3, 1.29e-2 → 6.40e-3, 1.28e-2 → 6.38e-3.
    assert scale[1] >= 1.3 * scale[0], scale
    assert fit[0] >= 1.8 * fit[1], fit


def test_scipy_loads_only_when_a_fit_solves():
    # Simulate, train-eval and control never fit CP, so importing the
    # CLI must not pay for scipy.linalg; the first solve loads it.  Nor
    # must it load the process pool, which only --workers above 1 uses.
    code = (
        "import sys\n"
        "import numpy as np\n"
        "import mimosense.cli\n"
        "assert 'scipy' not in sys.modules, 'scipy loaded at import'\n"
        "assert 'concurrent.futures.process' not in sys.modules, "
        "'the process pool loaded at import'\n"
        "from mimosense.cp import AlsConfig, cp_als, fit_error\n"
        "rng = np.random.default_rng(0)\n"
        "a, b, c = (rng.standard_normal((d, 2)) for d in (4, 5, 6))\n"
        "t = np.einsum('ir,jr,kr->ijk', a, b, c)\n"
        "model = cp_als(t, AlsConfig(rank=2, max_iters=200, rel_tol=1e-12))\n"
        "assert fit_error(model, t) < 1e-6\n"
        "assert 'scipy' in sys.modules\n"
    )
    src = str(Path(mimosense.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr


def test_solve_factor_equals_scipy_cholesky():
    rng = np.random.default_rng(14)
    a, b = rng.standard_normal((30, 6)), rng.standard_normal((25, 6))
    gram = (a.T @ a) * (b.T @ b)
    mttkrp = rng.standard_normal((40, 6))
    want = scipy.linalg.cho_solve(
        scipy.linalg.cho_factor(gram, check_finite=False),
        mttkrp.T,
        check_finite=False,
    ).T
    assert np.array_equal(cp._solve_factor(gram, mttkrp), want)


def test_ridge_retry_is_scale_invariant():
    # The sweep keeps raw factors, so the same model can reach a solve
    # with its column scales split differently across the factors.  A
    # column scaling D of the problem must scale the solution by D^-1,
    # on the ridge retry too, whose ridge is taken in the Jacobi-scaled
    # frame.
    a = np.array([[1.0, 2.0], [0.0, 1.0], [3.0, 1.0], [1.0, 1.0]])
    gram = a @ a.T  # rank 2 of 4
    assert cp._dposv(gram, np.eye(4))[2] > 0
    d = np.diag([1e3, 1.0, 1e-2, 4.0])
    mttkrp = np.random.default_rng(17).standard_normal((6, 4))
    want = cp._solve_factor(gram, mttkrp)
    got = cp._solve_factor(d @ gram @ d, mttkrp @ d) @ d
    assert rel_err(got, want) <= 1e-12


def test_solve_factor_singular_gram_takes_ridge():
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((7, 4)), rng.standard_normal((6, 4))
    # A duplicated component, as over-rank fits produce.
    a[:, 1], b[:, 1] = a[:, 0], b[:, 0]
    gram = (a.T @ a) * (b.T @ b)
    with pytest.raises(scipy.linalg.LinAlgError):
        scipy.linalg.cho_factor(gram, check_finite=False)
    got = cp._solve_factor(gram, rng.standard_normal((5, 4)))
    assert got.shape == (5, 4)
    assert np.isfinite(got).all()


# ------------------------------------------------------- reconstruct


def test_reconstruct_all_dims_one():
    model = CpModel(
        weights=np.array([1.0]),
        factors=(np.ones((1, 1)), np.ones((1, 1)), np.ones((1, 1))),
    )
    assert_array_equal(reconstruct(model), np.ones((1, 1, 1)))


def test_reconstruct_matches_triple_loop():
    rng = np.random.default_rng(6)
    weights = np.array([2.0, 3.0])
    factors = tuple(rng.standard_normal((2, 2)) for _ in range(3))
    model = CpModel(weights=weights, factors=factors)
    assert_allclose(
        reconstruct(model), build_cp_tensor(weights, factors), atol=1e-13
    )


# --------------------------------------------------------- fit_error


def test_fit_error_exact_model():
    rng = np.random.default_rng(7)
    weights = np.array([4.0])
    factors = random_unit_factors(rng, (3, 4, 5), 1)
    t = build_cp_tensor(weights, factors)
    model = CpModel(weights=weights, factors=tuple(factors))
    assert fit_error(model, t) < 1e-12


def test_fit_error_zero_model():
    rng = np.random.default_rng(8)
    t = rng.standard_normal((3, 3, 3))
    model = CpModel(
        weights=np.zeros(1),
        factors=tuple(np.ones((3, 1)) / np.sqrt(3) for _ in range(3)),
    )
    assert fit_error(model, t) == 1.0


def test_fit_error_rank1_worse_than_rank3():
    t, _ = rank3_oracle(seed=9)
    cfg = dict(max_iters=300, rel_tol=1e-12)
    e1 = fit_error(cp_als(t, AlsConfig(rank=1, **cfg)), t)
    e3 = fit_error(cp_als(t, AlsConfig(rank=3, **cfg)), t)
    assert e1 > e3


def test_fit_error_dim_mismatch():
    model = CpModel(
        weights=np.array([1.0]),
        factors=(np.ones((2, 1)), np.ones((2, 1)), np.ones((2, 1))),
    )
    with pytest.raises(ValueError):
        fit_error(model, np.zeros((3, 3, 3)))


# -------------------------------------------------- rank_upper_bound


@pytest.mark.parametrize(
    "dims,expected",
    [((200, 100, 100), 10000), ((1, 1, 1), 1), ((2, 3, 4), 6)],
)
def test_rank_upper_bound_values(dims, expected):
    assert rank_upper_bound(dims) == expected


@given(
    d1=st.integers(1, 20), d2=st.integers(1, 20), d3=st.integers(1, 20)
)
@settings(max_examples=50, deadline=None)
def test_rank_upper_bound_is_min_pair_product(d1, d2, d3):
    assert rank_upper_bound((d1, d2, d3)) == min(d1 * d2, d1 * d3, d2 * d3)
