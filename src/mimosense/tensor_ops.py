"""Dense third-order tensor and matrix primitives.

Every third-order array in this package follows a single linearization
convention: the first index varies fastest, i.e. entry (i, j, k) of a
(d1, d2, d3) tensor lives at flat offset ``i + j*d1 + k*d1*d2`` (Fortran
ravel order).  The mode-n unfoldings below are derived from that
convention and are its single source of truth.  The on-disk codec in
:mod:`mimosense.tensor_io` stores tensors in this order, and the ALS
solver's own mode-3 unfolding (``cp._unfold3``) equals ``unfold(t, 3)``.

Real and complex tensors are plain numpy arrays (float64 / complex128);
all operations allocate fresh outputs and never mutate their inputs.
"""

from __future__ import annotations

import numpy as np

__all__ = ["unfold", "fold", "frobenius_norm", "hadamard", "khatri_rao"]


def _as_tensor3(x) -> np.ndarray:
    t = np.asarray(x)
    if t.ndim != 3:
        raise ValueError(f"expected a third-order tensor, got ndim={t.ndim}")
    return t


def unfold(tensor, mode: int) -> np.ndarray:
    """Mode-n unfolding of a third-order tensor.

    With dims (d1, d2, d3) the unfoldings and their column indices are

    ====  =================  ==================
    mode  result shape       column of (i,j,k)
    ====  =================  ==================
    1     d1 x (d2*d3)       j + k*d2
    2     d2 x (d1*d3)       i + k*d1
    3     d3 x (d1*d2)       i + j*d1
    ====  =================  ==================

    ``fold(unfold(t, n), n, t.shape)`` is an exact round trip.
    """
    t = _as_tensor3(tensor)
    if mode not in (1, 2, 3):
        raise ValueError(f"mode must be 1, 2 or 3, got {mode}")
    return np.moveaxis(t, mode - 1, 0).reshape(t.shape[mode - 1], -1, order="F")


def fold(matrix, mode: int, dims) -> np.ndarray:
    """Exact inverse of :func:`unfold` for the given mode and dims."""
    m = np.asarray(matrix)
    if mode not in (1, 2, 3):
        raise ValueError(f"mode must be 1, 2 or 3, got {mode}")
    d1, d2, d3 = (int(d) for d in dims)
    if min(d1, d2, d3) < 1:
        raise ValueError(f"dims must be positive, got {dims}")
    rest = [d for i, d in enumerate((d1, d2, d3)) if i != mode - 1]
    lead = (d1, d2, d3)[mode - 1]
    if m.ndim != 2 or m.shape != (lead, rest[0] * rest[1]):
        raise ValueError(
            f"matrix shape {m.shape} does not match mode-{mode} unfolding "
            f"of dims {(d1, d2, d3)}"
        )
    cube = m.reshape((lead, rest[0], rest[1]), order="F")
    return np.ascontiguousarray(np.moveaxis(cube, 0, mode - 1))


def frobenius_norm(x) -> float:
    """Square root of the sum of squared entry magnitudes (any shape)."""
    return float(np.linalg.norm(np.asarray(x).ravel()))


def hadamard(a, b) -> np.ndarray:
    """Entrywise product of two equally shaped matrices."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch for Hadamard product: {a.shape} vs {b.shape}")
    return a * b


def khatri_rao(a, b) -> np.ndarray:
    """Column-wise Kronecker product.

    For a (I x R) and b (J x R) the result is (I*J x R); column l is
    ``np.kron(a[:, l], b[:, l])``, so b's row index varies fastest.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("khatri_rao expects two matrices")
    if a.shape[1] != b.shape[1]:
        raise ValueError(
            f"column-count mismatch for Khatri-Rao product: "
            f"{a.shape[1]} vs {b.shape[1]}"
        )
    return np.einsum("ir,jr->ijr", a, b).reshape(a.shape[0] * b.shape[0], a.shape[1])
