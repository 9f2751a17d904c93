"""Canonical polyadic (CP) decomposition of real third-order tensors.

The decomposition approximates a tensor by a weighted sum of rank-one
outer products; the solver alternates linear least-squares updates of
the three factor matrices (classic ALS).  Weight vectors sorted in
descending order are the feature primitive of the sensing pipeline.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .tensor_ops import frobenius_norm, khatri_rao

__all__ = [
    "AlsConfig",
    "CpDiagnostics",
    "CpModel",
    "cp_als",
    "fit_error",
    "rank_upper_bound",
    "reconstruct",
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
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class CpDiagnostics:
    """Per-run ALS bookkeeping, serializable via ``vars()``-style access.
    Only a zero tensor is fitted in no sweep."""

    fit_errors: tuple[float, ...] = ()
    n_sweeps: int = 0
    converged: bool = False


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
    def dims(self) -> tuple[int, int, int]:
        return tuple(f.shape[0] for f in self.factors)


def _restart_dead(m: np.ndarray, dead: np.ndarray) -> np.ndarray:
    """A copy of ``m`` whose ``dead`` columns are e1."""
    m = m.copy()
    m[:, dead] = 0.0
    m[0, dead] = 1.0
    return m


def _dead_columns(gram: np.ndarray) -> np.ndarray | None:
    """The mask of the zero columns of the factor whose Gram matrix is
    ``gram``, read off its diagonal, or None when no column is zero."""
    d = gram.diagonal()
    # np.count_nonzero has under half the call cost of d.all(), and this
    # runs twice a sweep
    if np.count_nonzero(d) == d.shape[0]:
        return None
    return d == 0.0


def _unit_columns(m: np.ndarray, norms: np.ndarray | None = None) -> np.ndarray:
    """Normalize columns to unit norm; zero columns become e1.  ``norms``,
    when given, must be the column norms of ``m``."""
    if norms is None:
        # np.linalg.norm(m, axis=0)'s arithmetic, without its dispatch
        norms = np.sqrt(np.add.reduce(m * m, axis=0))
    if np.count_nonzero(norms) == norms.shape[0]:
        return m / norms
    dead = norms == 0.0
    return _restart_dead(m, dead) / np.where(dead, 1.0, norms)


@functools.lru_cache(maxsize=256)
def _init_factors(seed: int, dims: tuple[int, int, int], rank: int):
    """Seeded i.i.d. standard normal factors with unit columns, read-only
    and cached: a fit's draw depends on (seed, dims, rank) alone and
    costs 20-50 µs, which small fits pay on every window.  The bound
    holds a window's 31 slots at several antenna counts."""
    rng = np.random.default_rng(seed)
    factors = tuple(_unit_columns(rng.standard_normal((d, rank))) for d in dims)
    for f in factors:
        f.flags.writeable = False
    return factors


def _unfold3(t: np.ndarray) -> np.ndarray:
    """The C-contiguous mode-3 unfolding (K, JI) of a (I, J, K) tensor,
    the only copy of it a fit's sweeps read: a view of a Fortran-ordered
    ``t``, else one transposing copy."""
    return np.ascontiguousarray(t.transpose(2, 1, 0)).reshape(t.shape[2], -1)


# The first-level nodes of the dimension tree: X contracted with one
# factor, each laid out (R, m, n) (P and N as views) so that both MTTKRPs
# read off it are batched matrix-vector products over its last two axes.


def _partial_mode3(x3: np.ndarray, c: np.ndarray, dims) -> np.ndarray:
    """``P = X ×₃ Cᵀ`` of a (I, J, K) tensor from its mode-3 unfolding
    ``x3``: one batched GEMM of Cᵀ with the (J, K, I) view of ``x3``,
    stored (J, R, I) and returned as its (R, J, I) view:
    ``p[r, j, i] = Σ_k X[i, j, k] C[k, r]``.  The single GEMM
    ``c.T @ x3`` forms the same node but measured slower on the large
    slot tensors, such as (T_w, T_w, M)."""
    _, j, k = dims
    return (c.T @ x3.reshape(k, j, -1).transpose(1, 0, 2)).transpose(1, 0, 2)


def _partial_mode2(x3: np.ndarray, b: np.ndarray, dims) -> np.ndarray:
    """``N = X ×₂ Bᵀ``: one batched GEMM of Bᵀ with the (K, J, I) view of
    ``x3``, stored (K, R, I) and returned as its (R, K, I) view:
    ``n[r, k, i] = Σ_j X[i, j, k] B[j, r]``."""
    _, j, k = dims
    return (b.T @ x3.reshape(k, j, -1)).transpose(1, 0, 2)


def _partial_mode1(x1: np.ndarray, a: np.ndarray, dims) -> np.ndarray:
    """``Q = X ×₁ Aᵀ`` from ``x1``, the (I, KJ) view
    ``x3.reshape(K * J, I).T`` of the mode-3 unfolding, laid out
    (R, K, J): ``q[r, k, j] = Σ_i X[i, j, k] A[i, r]``.  One wide GEMM,
    taken only for tensors whose slices are neither symmetric nor skew
    (see ``_slice_symmetry``): it contracts the unfolding's contiguous
    axis, and on the large slot tensors measured slower than
    ``_partial_mode2``'s batched GEMM, which contracts its middle axis."""
    _, j, k = dims
    return (a.T @ x1).reshape(a.shape[1], k, j)


# The skew test negates this many bytes of slices at a time, and at
# least one slice, so its float temporary stays small on large tensors.
_SKEW_CHUNK_BYTES = 1 << 18


def _slice_symmetry(x3: np.ndarray, dims) -> int:
    """+1 if every frontal slice X[:, :, k] of the (I, J, K) tensor whose
    mode-3 unfolding is ``x3`` is exactly symmetric, -1 if every one is
    exactly skew (X[j, i, k] = -X[i, j, k]), else 0.

    Then ``X ×₁ Aᵀ = ±(X ×₂ Aᵀ)`` term by term, which lets the sweep
    form Q with ``_partial_mode2``.  A non-square tensor is turned away
    at once.  A skew slice has a zero diagonal, so the diagonal picks
    the one test worth a pass: symmetry when it holds a non-zero entry,
    skewness when it is all zero (a symmetric stack with a zero diagonal
    reads 0, which only costs the faster kernel).  Neither test makes a
    full-size float temporary: the symmetric one compares into a bool
    mask, the skew one negates a chunk of slices at a time."""
    i, j, k = dims
    if i != j:
        return 0
    v = x3.reshape(k, j, i)  # v[k] is slice k transposed
    vt = v.transpose(0, 2, 1)
    # x3[:, :: i + 1] is every slice's diagonal.  np.count_nonzero has a
    # lower call cost than .all(), and small fits pay this on every call.
    if np.count_nonzero(x3[:, :: i + 1]):
        return 1 if np.count_nonzero(v == vt) == v.size else 0
    step = max(1, _SKEW_CHUNK_BYTES // v[0].nbytes)
    for s in range(0, k, step):
        part = v[s : s + step]
        if np.count_nonzero(-part == vt[s : s + step]) != part.size:
            return 0
    return -1


def _contract_middle(node: np.ndarray, f: np.ndarray) -> np.ndarray:
    """The MTTKRP read off a (R, m, n) node by contracting its middle
    axis with ``f`` (m, R), one GEMV per column: (n, R)."""
    return (f.T[:, None, :] @ node)[:, 0, :].T


def _contract_last(node: np.ndarray, f: np.ndarray) -> np.ndarray:
    """The MTTKRP read off a (R, m, n) node by contracting its last axis
    with ``f`` (n, R), one GEMV per column: (m, R)."""
    return (node @ f.T[:, :, None])[:, :, 0].T


def _dposv(*args):
    """LAPACK ``dposv``; the first call binds scipy's in this name's place,
    so scipy.linalg loads only once a fit solves."""
    global _dposv
    from scipy.linalg.lapack import dposv as _dposv

    return _dposv(*args)


def _solve_factor(gram: np.ndarray, mttkrp: np.ndarray) -> np.ndarray:
    """Solve ``new @ gram = mttkrp`` for the factor update, each try one
    LAPACK ``dposv`` call (what ``cho_factor`` and ``cho_solve`` compute).

    A singular or indefinite Gram matrix is retried in its Jacobi-scaled
    frame (van der Sluis 1969): with d = sqrt(diag(gram)), zeros taken
    as 1, the scaled matrix gram / d dᵀ gets a ridge of 1e-10 times its
    trace, and ``(new * d) @ scaled = mttkrp / d`` is solved.  The ridge
    so acts alike on every component, however the sweep's factors split
    the column scales: ``_solve_factor(D gram D, mttkrp D) @ D`` equals
    ``_solve_factor(gram, mttkrp)`` for any positive diagonal D.
    Correlation-derived tensors are routinely numerically low-rank.
    """
    _, x, info = _dposv(gram, mttkrp.T)
    if info == 0:
        return x.T
    d = np.sqrt(gram.diagonal())
    d[d == 0.0] = 1.0
    scaled = gram / d / d[:, None]
    tr = float(np.trace(scaled))
    if tr <= 0.0:
        # all-dead factors: least-squares target is identically zero
        return np.zeros_like(mttkrp)
    scaled += (1e-10 * tr) * np.eye(gram.shape[0])
    rhs = (mttkrp / d).T
    _, y, info = _dposv(scaled, rhs)
    if info != 0:
        y = np.linalg.lstsq(scaled, rhs, rcond=None)[0]
    return y.T / d


def cp_als(tensor, config: AlsConfig) -> CpModel:
    """Fit a CP model by alternating least squares.

    Each sweep solves the mode-1, mode-2, then mode-3 linear
    least-squares problem through the Khatri-Rao normal equations, so
    the fit residual recorded after every sweep is non-increasing, with
    one exception: where a Gram matrix is singular, the ridge-retried
    solve (``_solve_factor``) is not an exact least-squares step, and a
    fit below about 5e-8 can rise, as (2, 2, n) tensors fitted at their
    rank bound of 4 do: by at most 1.04e-7 over 4,650 such near-exact
    fits.  Factors are initialized with seeded i.i.d. standard normal
    columns (normalized), so identical (tensor, config) pairs reproduce
    bit-identical models.

    The sweeps keep one copy of the tensor, its mode-3 unfolding, and
    read every MTTKRP off a first-level node of a dimension tree: X
    contracted with one factor, which serves the updates of the other
    two modes for as long as that factor stays unchanged (Phan,
    Tichavský & Cichocki 2013; Kaya & Uçar 2018).  In the update order
    A, B, C, A, B, C, ... each node serves two consecutive updates, so
    three nodes cover two sweeps, which run in pairs (the multi-sweep
    dimension tree of Ma & Solomonik 2021):

    * first sweep: P = X ×₃ Cᵀ serves A (contracted with B) and B (with
      A); N = X ×₂ Bᵀ, formed once B is updated, serves C (with A);
    * second sweep: the same N serves A (with C), since B has not
      changed; Q = X ×₁ Aᵀ serves B (with C) and C (with B).

    So a pair of sweeps contracts the tensor three times instead of
    four: a 16-sweep fit 24 times.  No node outlives the updates it
    serves, so a fit that stops after either sweep wasted no
    contraction; P is dropped before N is formed, so the two are never
    held together.  P and N are batched GEMMs over slabs of the
    unfolding, and no sweep forms a Khatri-Rao product (Hayashi,
    Ballard, Jiang & Tobia 2018).  Q is one wide GEMM for a general
    tensor.  When every frontal slice is exactly symmetric or exactly
    skew, as the Gram-derived slot tensors of the features are,
    X ×₁ Aᵀ equals X ×₂ (±A)ᵀ term by term, so Q is formed by N's
    batched kernel, which measured faster on the large slot tensors and
    alike on small ones; ``_slice_symmetry`` finds this out once per
    fit, in about one pass over the tensor.  Each term of Q is the same
    product either way, and only the order of its sum can differ.

    The sweeps keep each solution as solved and form one Gram matrix per
    update, three per sweep.  ALS updates are scale-equivariant (Kolda &
    Bader, SIAM Review 2009): rescaling a factor's columns rescales the
    next solutions inversely and leaves the represented tensor and the
    residual as they are, so normalizing after every update would only
    keep the numbers tidy.  After the last sweep A and B are normalized
    once and their column norms move onto C.  The one step that is not
    scale-equivariant by itself, the ridge retry of a singular solve,
    works in the Jacobi-scaled frame of its Gram matrix, where it is.
    A zero mode-1 or mode-2 solution column, read off the diagonal of
    its Gram matrix, restarts as e1; a dead mode-1 column also zeroes
    its component's C column, and the first sweep of a pair contracts P
    with the solution as solved, whose zero column matches it.

    Every update solves the normal equations of plain ALS; only the
    order of the sums in its MTTKRP depends on the node, so the iterates
    are plain ALS's up to rounding and column scale.  The
    residual after a sweep comes from the Gram identity (Kolda & Bader,
    SIAM Review 2009; the fit step of Tensor Toolbox ``cp_als``)

        ||X - [[A, B, C]]||^2 = ||X||^2 - 2<C, X_(3) (B ⊙ A)>
                                + sum((A^T A * B^T B) * C^T C),

    which reuses the mode-3 MTTKRP, whichever node gave it, and the Gram
    matrix of the mode-3 update, and so costs O(R^2 (I + J + K)) instead
    of the O(IJKR) of forming the model densely.  Its rounding error is
    absolute, a few ulps of ||X||^2, so near an exact fit it would swamp
    the residual and could make the fit history rise.  Once the identity
    puts the squared residual at or below ``_DENSE_RESIDUAL_BELOW`` of
    ||X||^2 (a relative fit of 1e-3), the sweep recomputes it densely.
    Either way the fit only decides when to stop, after any sweep; the
    factors, and so the weights, do not depend on which residual was
    taken.  ||X|| is summed over the unfolding in memory order.

    Over-rank fits may leave components that share a direction and
    split a weight; ``cp_als`` returns them as fitted, so the returned
    model's residual is its last recorded fit.
    """
    t = np.asarray(tensor, dtype=np.float64)
    if t.ndim != 3:
        raise ValueError(f"expected a third-order tensor, got ndim={t.ndim}")
    dims = t.shape
    x3 = _unfold3(t)
    norm_t = float(np.linalg.norm(x3))
    # A finite norm rules out inf and NaN entries without a pass of its own.
    if not math.isfinite(norm_t) and not np.isfinite(x3).all():
        raise ValueError("tensor has non-finite entries")
    bound = rank_upper_bound(dims)
    if config.rank > bound:
        raise ValueError(
            f"rank {config.rank} exceeds the rank upper bound {bound} "
            f"for dims {dims}"
        )

    factors = list(_init_factors(config.seed, dims, config.rank))

    if norm_t == 0.0:
        return CpModel(
            weights=np.zeros(config.rank),
            factors=tuple(f.copy() for f in factors),
            diagnostics=CpDiagnostics(converged=True),
        )

    x1 = x3.reshape(dims[2] * dims[1], dims[0]).T
    sign = _slice_symmetry(x3, dims)

    norm_sq = norm_t * norm_t
    # grams[j] is factors[j].T @ factors[j], refreshed whenever factor j
    # changes, so each sweep builds three Gram matrices, one per update.
    grams = [f.T @ f for f in factors]

    fits: list[float] = []
    converged = False
    for sweep in range(config.max_iters):
        first = sweep % 2 == 0  # the first sweep of a pair
        if first:
            p = _partial_mode3(x3, factors[2], dims)
            mttkrp = _contract_middle(p, factors[1])
        else:  # B is unchanged since N was formed
            mttkrp = _contract_middle(n, factors[2])
        a = _solve_factor(grams[1] * grams[2], mttkrp)
        factors[0], grams[0] = a, a.T @ a
        dead = _dead_columns(grams[0])
        if dead is not None:
            # The component drops out: A's column restarts as e1 and
            # C's is zeroed.
            factors[0] = _restart_dead(a, dead)
            factors[2] = np.where(dead, 0.0, factors[2])
            grams[0] = factors[0].T @ factors[0]
            grams[2] = factors[2].T @ factors[2]
        if first:  # P predates a zeroed C column, but a's is zero too
            mttkrp = _contract_last(p, a)
            del p  # spent: drop it before N is formed
        else:  # Q = X ×₁ Aᵀ, or X ×₂ (±A)ᵀ; negation is exact
            if sign > 0:
                q = _partial_mode2(x3, factors[0], dims)
            elif sign < 0:
                q = _partial_mode2(x3, -factors[0], dims)
            else:
                q = _partial_mode1(x1, factors[0], dims)
            mttkrp = _contract_middle(q, factors[2])
        b = _solve_factor(grams[0] * grams[2], mttkrp)
        factors[1], grams[1] = b, b.T @ b
        dead = _dead_columns(grams[1])
        if dead is not None:
            factors[1] = _restart_dead(b, dead)
            grams[1] = factors[1].T @ factors[1]
        if first:  # N serves this C update and the next A update
            n = _partial_mode2(x3, factors[1], dims)
            mttkrp = _contract_last(n, factors[0])
        else:
            mttkrp = _contract_last(q, factors[1])
        gram = grams[0] * grams[1]
        factors[2] = _solve_factor(gram, mttkrp)
        grams[2] = factors[2].T @ factors[2]
        resid_sq = (
            norm_sq
            - 2.0 * float(np.vdot(factors[2], mttkrp))
            + float(np.vdot(gram, grams[2]))
        )
        if resid_sq > _DENSE_RESIDUAL_BELOW * norm_sq:
            resid = math.sqrt(resid_sq)
        else:
            kr = khatri_rao(factors[1], factors[0])
            resid = float(np.linalg.norm(x3 - factors[2] @ kr.T))
        fits.append(resid / norm_t)
        if len(fits) > 1:
            if abs(fits[-2] - fits[-1]) / max(fits[-2], 1e-15) < config.rel_tol:
                converged = True
                break

    # Normalize A and B once and move their column norms onto C.
    norms_a, norms_b = (np.sqrt(g.diagonal()) for g in grams[:2])
    factors = [
        factors[0] / norms_a,
        factors[1] / norms_b,
        factors[2] * (norms_a * norms_b),
    ]
    scales = np.linalg.norm(factors[2], axis=0)
    factors[2] = _unit_columns(factors[2], scales)
    order = np.argsort(-scales, kind="stable")
    return CpModel(
        weights=scales[order],
        factors=tuple(f[:, order] for f in factors),
        diagnostics=CpDiagnostics(
            fit_errors=tuple(fits), n_sweeps=len(fits), converged=converged
        ),
    )


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

