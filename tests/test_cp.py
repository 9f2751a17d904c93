"""CP-ALS solver tests against construct-then-recover oracles."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import mimosense.cp as cp
from mimosense.cp import (
    AlsConfig,
    CpModel,
    cp_als,
    fit_error,
    rank_upper_bound,
    reconstruct,
    sorted_weights,
)


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
    assert model.diagnostics.degenerate
    assert_allclose(np.linalg.norm(model.factors[0], axis=0), 1.0)


def test_rank_above_smallest_dim_fits():
    rng = np.random.default_rng(5)
    t = rng.standard_normal((2, 6, 6))
    model = cp_als(t, AlsConfig(rank=4, max_iters=20))
    assert model.rank == 4


def test_rank_above_upper_bound_rejected():
    with pytest.raises(ValueError):
        cp_als(np.zeros((2, 3, 4)), AlsConfig(rank=7))


def test_non_finite_tensor_rejected():
    t = np.zeros((2, 2, 2))
    t[0, 0, 0] = np.inf
    with pytest.raises(ValueError):
        cp_als(t, AlsConfig(rank=1))


def test_scale_equivariance():
    t, _ = rank3_oracle(seed=8)
    cfg = AlsConfig(rank=3, max_iters=300, rel_tol=1e-12, seed=1)
    base = cp_als(t, cfg)
    scaled = cp_als(2.5 * t, cfg)
    assert_allclose(
        sorted_weights(scaled), 2.5 * sorted_weights(base), rtol=1e-6
    )
    assert_allclose(fit_error(scaled, 2.5 * t), fit_error(base, t), atol=1e-8)


def test_mode_permutation_leaves_sorted_weights():
    t, _ = rank3_oracle(seed=12)
    cfg = AlsConfig(rank=3, max_iters=300, rel_tol=1e-12, seed=2)
    base = sorted_weights(cp_als(t, cfg))
    rng = np.random.default_rng(30)
    for axis in range(3):
        perm = rng.permutation(t.shape[axis])
        shuffled = np.take(t, perm, axis=axis)
        got = sorted_weights(cp_als(shuffled, cfg))
        assert_allclose(got, base, rtol=1e-6, atol=1e-8)


# ---------------------------------------------- residual and solve


def record_updates(monkeypatch):
    """Record every mode update of cp_als as (X, Y, solution), X and Y
    being the two fixed factors in mode order.  Every third update is
    the mode-3 one: it holds (A, B, C) as that sweep leaves them, with
    the weights carried by C."""
    updates = []
    real_kr, real_solve = cp.khatri_rao, cp._solve_factor

    def kr(y, x):
        updates.append((x.copy(), y.copy()))
        return real_kr(y, x)

    def solve(gram, mttkrp):
        new = real_solve(gram, mttkrp)
        updates[-1] += (new.copy(),)
        return new

    monkeypatch.setattr(cp, "khatri_rao", kr)
    monkeypatch.setattr(cp, "_solve_factor", solve)
    return updates


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
    updates = record_updates(monkeypatch)
    model = cp_als(t, AlsConfig(rank=10, max_iters=16, seed=3))
    fits = model.diagnostics.fit_errors
    sweeps = updates[2::3]
    assert len(sweeps) == len(fits) == model.diagnostics.n_sweeps
    for fit, factors in zip(fits, sweeps):
        assert abs(fit - dense_fit(t, *factors)) <= 1e-10


def test_near_exact_fit_takes_dense_residual(monkeypatch):
    # A near-exact fit: the Gram identity would lose the residual to
    # cancellation here, so the recorded fits must come from the dense
    # residual and still never rise.
    t, _ = rank3_oracle(seed=9)
    updates = record_updates(monkeypatch)
    model = cp_als(t, AlsConfig(rank=3, max_iters=100, rel_tol=1e-12))
    fits = np.array(model.diagnostics.fit_errors)
    assert fits[0] > 1e-3 > fits.min()
    assert np.all(np.diff(fits) <= 1e-10)
    for fit, factors in zip(fits, updates[2::3]):
        assert abs(fit - dense_fit(t, *factors)) <= 1e-10


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


# ---------------------------------------------------- sorted_weights


def test_sorted_weights_preserves_ties():
    model = CpModel(
        weights=np.array([3.0, 3.0, 1.0]),
        factors=tuple(np.eye(3) for _ in range(3)),
    )
    assert_array_equal(sorted_weights(model), [3.0, 3.0, 1.0])


def test_sorted_weights_rejects_unsorted():
    model = CpModel(
        weights=np.array([1.0, 3.0]),
        factors=tuple(np.eye(2) for _ in range(3)),
    )
    with pytest.raises(RuntimeError):
        sorted_weights(model)


def test_sorted_weights_rank3_multiset():
    t, weights = rank3_oracle(seed=10)
    model = cp_als(t, AlsConfig(rank=3, max_iters=500, rel_tol=1e-10))
    assert_allclose(
        np.sort(sorted_weights(model)), np.sort(weights), atol=1e-4
    )
