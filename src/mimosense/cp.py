"""Canonical polyadic (CP) decomposition of real third-order tensors.

The decomposition approximates a tensor by a weighted sum of rank-one
outer products; the solver alternates linear least-squares updates of
the three factor matrices (classic ALS).  Weight vectors sorted in
descending order are the feature primitive of the sensing pipeline.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from .tensor_ops import frobenius_norm, khatri_rao, unfold

__all__ = [
    "AlsConfig",
    "CpDiagnostics",
    "CpModel",
    "cp_als",
    "fit_error",
    "rank_upper_bound",
    "reconstruct",
    "sorted_weights",
]


# Below this share of ||X||^2 the sweep recomputes the squared residual
# densely instead of through the Gram identity.  The identity subtracts
# terms of size ||X||^2, so its absolute error is a few ulps of ||X||^2
# and the relative fit f it gives is off by about 1e-16 / f: past
# f ~ 1e-6 that exceeds the 1e-10 rise a non-increasing fit history may
# show.  Switching at f = 1e-3 keeps three orders of margin; above it the
# identity stays within ~1e-12 of the dense residual.
_DENSE_RESIDUAL_BELOW = 1e-6


def rank_upper_bound(dims) -> int:
    """Weak upper bound on the rank of a third-order tensor: the smallest
    product of two of its dimensions."""
    d1, d2, d3 = (int(d) for d in dims)
    if min(d1, d2, d3) < 1:
        raise ValueError(f"dims must be positive, got {dims}")
    return min(d1 * d2, d1 * d3, d2 * d3)


@dataclass(frozen=True)
class AlsConfig:
    """Iteration controls for :func:`cp_als`.

    rank is the number of rank-one components; rel_tol is the relative
    change in fit residual between sweeps below which iteration stops.
    """

    rank: int
    max_iters: int = 100
    rel_tol: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError(f"rank must be >= 1, got {self.rank}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.rel_tol <= 0:
            raise ValueError(f"rel_tol must be > 0, got {self.rel_tol}")


@dataclass(frozen=True)
class CpDiagnostics:
    """Per-run ALS bookkeeping, serializable via ``vars()``-style access."""

    fit_errors: tuple[float, ...] = ()
    n_sweeps: int = 0
    converged: bool = False
    degenerate: bool = False


@dataclass(frozen=True)
class CpModel:
    """Finalized CP factorization.

    weights are nonnegative and sorted descending; every factor column
    has unit Euclidean norm.  Factors are ordered (mode-1, mode-2,
    mode-3).
    """

    weights: np.ndarray
    factors: tuple[np.ndarray, np.ndarray, np.ndarray]
    diagnostics: CpDiagnostics = field(default_factory=CpDiagnostics)

    @property
    def rank(self) -> int:
        return self.weights.shape[0]

    @property
    def dims(self) -> tuple[int, int, int]:
        return tuple(f.shape[0] for f in self.factors)


def _unit_columns(m: np.ndarray) -> np.ndarray:
    """Normalize columns to unit norm; zero columns become e1."""
    out = m.copy()
    norms = np.linalg.norm(out, axis=0)
    dead = norms == 0.0
    if dead.any():
        out[:, dead] = 0.0
        out[0, dead] = 1.0
        norms = np.where(dead, 1.0, norms)
    return out / norms


def _cholesky_solve(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray | None:
    """``gram⁻¹ @ rhs`` through LAPACK's Cholesky routines, or None when
    ``gram`` is not positive definite.

    These are the calls ``scipy.linalg.cho_factor``/``cho_solve`` make,
    without their per-call argument handling, which dominates on the
    small Gram matrices of an ALS sweep; the results are identical.
    """
    c, info = dpotrf(gram, lower=0, clean=0)
    if info != 0:
        return None
    x, info = dpotrs(c, rhs, lower=0)
    return x if info == 0 else None


def _solve_factor(gram: np.ndarray, mttkrp: np.ndarray) -> np.ndarray:
    """Solve ``new @ gram = mttkrp`` for the factor update.

    A singular or indefinite Gram matrix gets a ridge of 1e-10 times its
    trace before retrying; correlation-derived tensors are routinely
    numerically low-rank.
    """
    x = _cholesky_solve(gram, mttkrp.T)
    if x is not None:
        return x.T
    tr = float(np.trace(gram))
    if tr <= 0.0:
        # all-dead factors: least-squares target is identically zero
        return np.zeros_like(mttkrp)
    ridged = gram + (1e-10 * tr) * np.eye(gram.shape[0])
    x = _cholesky_solve(ridged, mttkrp.T)
    if x is not None:
        return x.T
    return np.linalg.lstsq(ridged, mttkrp.T, rcond=None)[0].T


def cp_als(tensor, config: AlsConfig) -> CpModel:
    """Fit a CP model by alternating least squares.

    Each sweep solves the mode-1, mode-2, then mode-3 linear
    least-squares problem through the Khatri-Rao normal equations; the
    fit residual recorded after every sweep is non-increasing.  Factors
    are initialized with seeded i.i.d. standard normal columns
    (normalized), so identical (tensor, config) pairs reproduce
    bit-identical models.

    The residual after a sweep comes from the Gram identity (Kolda &
    Bader, SIAM Review 2009; the fit step of Tensor Toolbox ``cp_als``)

        ||X - [[A, B, C]]||^2 = ||X||^2 - 2<C, X_(3) (B ⊙ A)>
                                + sum((A^T A * B^T B) * C^T C),

    which reuses the MTTKRP and the Gram matrix of the mode-3 update and
    so costs O(R^2 (I + J + K)) instead of the O(IJKR) of forming the
    model densely.  Its rounding error is absolute, a few ulps of
    ||X||^2, so near an exact fit it would swamp the residual and could
    make the fit history rise.  Once the identity puts the squared
    residual at or below ``_DENSE_RESIDUAL_BELOW`` of ||X||^2 (a relative
    fit of 1e-3), the sweep recomputes it densely.  Either way the fit
    only decides when to stop; the factors, and so the weights, do not
    depend on which residual was taken.
    """
    t = np.asarray(tensor, dtype=np.float64)
    if t.ndim != 3:
        raise ValueError(f"expected a third-order tensor, got ndim={t.ndim}")
    if not np.isfinite(t).all():
        raise ValueError("tensor has non-finite entries")
    dims = t.shape
    bound = rank_upper_bound(dims)
    if config.rank > bound:
        raise ValueError(
            f"rank {config.rank} exceeds the rank upper bound {bound} "
            f"for dims {dims}"
        )
    if config.rank > min(dims):
        warnings.warn(
            f"rank {config.rank} exceeds the smallest dimension of {dims}; "
            "the fit may be underdetermined",
            stacklevel=2,
        )

    rng = np.random.default_rng(config.seed)
    factors = [
        _unit_columns(rng.standard_normal((d, config.rank))) for d in dims
    ]

    norm_t = frobenius_norm(t)
    if norm_t == 0.0:
        return CpModel(
            weights=np.zeros(config.rank),
            factors=tuple(factors),
            diagnostics=CpDiagnostics(degenerate=True, converged=True),
        )

    # Unfoldings are reused every sweep; pay the reshuffle cost once.
    unfoldings = [np.ascontiguousarray(unfold(t, n)) for n in (1, 2, 3)]

    norm_sq = norm_t * norm_t
    # grams[j] is factors[j].T @ factors[j], refreshed whenever factor j
    # changes, so each sweep builds every Gram matrix once.
    grams = [f.T @ f for f in factors]

    fits: list[float] = []
    prev_fit = None
    converged = False
    n_sweeps = 0
    for _ in range(config.max_iters):
        for n in range(3):
            i, j = (m for m in range(3) if m != n)
            kr = khatri_rao(factors[j], factors[i])
            gram = grams[i] * grams[j]
            mttkrp = unfoldings[n] @ kr
            updated = _solve_factor(gram, mttkrp)
            if n < 2:
                # Move the column scales onto the third factor so the
                # represented tensor is unchanged; each update then only
                # ever lowers the residual, keeping sweep-end fits
                # monotone non-increasing.
                norms = np.linalg.norm(updated, axis=0)
                factors[2] = factors[2] * norms
                factors[n] = _unit_columns(updated)
                grams[n] = factors[n].T @ factors[n]
            else:
                factors[n] = updated
            grams[2] = factors[2].T @ factors[2]
        n_sweeps += 1
        # gram, mttkrp and kr are those of the mode-3 update.
        resid_sq = (
            norm_sq
            - 2.0 * float(np.vdot(factors[2], mttkrp))
            + float(np.vdot(gram, grams[2]))
        )
        if resid_sq > _DENSE_RESIDUAL_BELOW * norm_sq:
            resid = float(np.sqrt(resid_sq))
        else:
            resid = float(np.linalg.norm(unfoldings[2] - factors[2] @ kr.T))
        fit = resid / norm_t
        fits.append(fit)
        if prev_fit is not None:
            if abs(prev_fit - fit) / max(prev_fit, 1e-15) < config.rel_tol:
                converged = True
                break
        prev_fit = fit

    scales = np.linalg.norm(factors[2], axis=0)
    factors[2] = _unit_columns(factors[2])
    # Over-rank fits on low-rank data leave several components on the
    # same rank-one direction with an arbitrary split of the scale; the
    # individual weights are not identifiable but their signed sum is,
    # so collapse duplicates onto one component.  The ridge bias keeps
    # duplicates ~1e-6 off perfect alignment, hence the loose threshold;
    # genuinely distinct components sit nowhere near it.
    cos = grams[0] * grams[1] * (factors[2].T @ factors[2])
    for i in range(config.rank):
        if scales[i] == 0.0:
            continue
        for j in range(i + 1, config.rank):
            if scales[j] != 0.0 and abs(cos[i, j]) >= 1.0 - 1e-5:
                merged = scales[i] + np.sign(cos[i, j]) * scales[j]
                if merged < 0.0:
                    factors[0][:, i] = -factors[0][:, i]
                    merged = -merged
                scales[i] = merged
                scales[j] = 0.0
    order = np.argsort(-scales, kind="stable")
    model = CpModel(
        weights=scales[order],
        factors=tuple(f[:, order] for f in factors),
        diagnostics=CpDiagnostics(
            fit_errors=tuple(fits), n_sweeps=n_sweeps, converged=converged
        ),
    )
    return model


def reconstruct(model: CpModel) -> np.ndarray:
    """Dense tensor reconstructed from the CP factors and weights."""
    x, y, z = model.factors
    return np.einsum("l,il,jl,kl->ijk", model.weights, x, y, z, optimize=True)


def fit_error(model: CpModel, tensor) -> float:
    """Relative reconstruction residual; absolute for a zero tensor."""
    t = np.asarray(tensor, dtype=np.float64)
    if t.shape != model.dims:
        raise ValueError(f"dims mismatch: model {model.dims} vs tensor {t.shape}")
    resid = frobenius_norm(t - reconstruct(model))
    norm_t = frobenius_norm(t)
    return resid / norm_t if norm_t > 0.0 else resid


def sorted_weights(model: CpModel) -> np.ndarray:
    """Copy of the descending weight vector, re-verified before return."""
    w = model.weights
    if np.any(np.diff(w) > 0) or np.any(w < 0):
        raise RuntimeError("CP model weights are not finalized descending")
    return w.copy()
