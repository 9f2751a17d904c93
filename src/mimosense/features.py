"""Per-window feature extraction.

Each time window becomes 31 real tensors: the window's own amplitude,
plus five derived tensors (amplitude, unwrapped phase, real part,
imaginary part, normalized amplitude) for each of six complex
correlation tensors.  The correlation tensors stack Gram matrices of
the window along one mode:

  slot 0        |window|                              (T_w, F, M)
  slots 1-5     time x time correlation per antenna    (T_w, T_w, M)
  slots 6-10    freq x freq correlation per antenna    (F, F, M)
  slots 11-15   time x time correlation per subcarrier (T_w, T_w, F)
  slots 16-20   space x space correlation per subcarrier (M, M, F)
  slots 21-25   freq x freq correlation per snapshot   (F, F, T_w)
  slots 26-30   space x space correlation per snapshot (M, M, T_w)

In each family the ``amp`` and ``norm_amp`` slots hold the same tensor
(‖|C|‖_F = ‖C‖_F, so |C| / ‖|C|‖ = |C / ‖C‖|): it is built once and
serves both slots, whose two fits differ only in the ALS seed.

Every real tensor is CP-decomposed and its descending weight vector
(zero-padded to the requested rank) becomes one feature vector; the
classifier consumes their concatenation with each vector's largest
weight dropped.

The slot tensors stream through their fits: ``real_feature_tensors``
yields them one at a time in slot order, computing one Gram pair of
correlations at a time and dropping each correlation once its family is
done, and ``extract_features`` drops each tensor after its fit.  On a
simulated LOS desk window (T_w=100, F=16, M=32) the numpy allocations
of one ``extract_features`` call peak at 16.3 MB, below the 20.6 MB of
the window's 25 distinct slot tensors; building all 31 before the
first fit peaked at 33.3 MB.
"""

from __future__ import annotations

import csv
import functools
from collections.abc import Iterator
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .channel import Activity
from .cp import AlsConfig, cp_als, rank_upper_bound, sorted_weights
from .errors import DataError, NumericError
from .tensor_io import atomic_write, read_bytes, read_json, write_json

__all__ = [
    "CorrelationSet",
    "FeatureSet",
    "N_FEATURE_VECTORS",
    "assemble_input",
    "corr_per_antenna",
    "corr_per_subcarrier",
    "corr_per_time",
    "correlation_set",
    "extract_features",
    "family_tensors",
    "feature_names",
    "load_features_bin",
    "phase_reference",
    "save_features_bin",
    "save_features_csv",
]

N_FEATURE_VECTORS = 31

_CORR_NAMES = (
    "time_corr_per_antenna",
    "freq_corr_per_antenna",
    "time_corr_per_subcarrier",
    "space_corr_per_subcarrier",
    "freq_corr_per_snapshot",
    "space_corr_per_snapshot",
)
_VARIANT_NAMES = ("amp", "phase", "re", "im", "norm_amp")


def feature_names() -> list[str]:
    """The 31 feature-vector names in their fixed slot order."""
    names = ["window_amp"]
    for corr in _CORR_NAMES:
        names.extend(f"{corr}.{v}" for v in _VARIANT_NAMES)
    return names


@dataclass(frozen=True)
class CorrelationSet:
    """The six correlation tensors of one window; every frontal slice is
    Hermitian positive semidefinite."""

    time_corr_per_antenna: np.ndarray  # (T_w, T_w, M)
    freq_corr_per_antenna: np.ndarray  # (F, F, M)
    time_corr_per_subcarrier: np.ndarray  # (T_w, T_w, F)
    space_corr_per_subcarrier: np.ndarray  # (M, M, F)
    freq_corr_per_snapshot: np.ndarray  # (F, F, T_w)
    space_corr_per_snapshot: np.ndarray  # (M, M, T_w)

    def in_slot_order(self) -> tuple[np.ndarray, ...]:
        return (
            self.time_corr_per_antenna,
            self.freq_corr_per_antenna,
            self.time_corr_per_subcarrier,
            self.space_corr_per_subcarrier,
            self.freq_corr_per_snapshot,
            self.space_corr_per_snapshot,
        )


@dataclass(frozen=True)
class FeatureSet:
    """CP-weight vectors of one window: row i is feature vector i,
    descending-sorted and zero-padded to the shared rank.  ``n_sweeps``
    and ``converged`` hold each slot's CP diagnostics when the set was
    just extracted; the feature files do not store them, so loaded sets
    leave them empty."""

    lambdas: np.ndarray  # (31, r_max)
    window_id: int
    label: Activity | None
    n_sweeps: tuple[int, ...] = ()
    converged: tuple[bool, ...] = ()

    @property
    def r_max(self) -> int:
        return self.lambdas.shape[1]


def _hermitize(c: np.ndarray) -> np.ndarray:
    """Average each frontal slice with its conjugate transpose so the
    Hermitian symmetry holds exactly despite gemm rounding.  The result
    keeps the layout numpy picks for the sum."""
    h = c + np.conj(np.transpose(c, (1, 0, 2)))
    np.multiply(0.5, h, out=h)
    return h


def _gram_pair(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For slices X_s of a C-contiguous (S, A, B) stack: X_s·X_s^H (A x A)
    and X_s^H·X_s (B x B), each stacked along the third mode."""
    xh = np.conj(np.transpose(x, (0, 2, 1)))
    left = np.moveaxis(x @ xh, 0, 2)
    right = np.moveaxis(xh @ x, 0, 2)
    return _hermitize(left), _hermitize(right)


def corr_per_antenna(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per antenna m, with G_m the T_w x F window slice: the Gram pair
    G_m·G_m^H (time x time) and G_m^H·G_m (freq x freq)."""
    return _gram_pair(np.ascontiguousarray(np.moveaxis(g, 2, 0)))


def corr_per_subcarrier(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per subcarrier f, with G_f the T_w x M slice: G_f·G_f^H
    (time x time) and G_f^H·G_f (space x space)."""
    return _gram_pair(np.ascontiguousarray(np.moveaxis(g, 1, 0)))


def corr_per_time(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per snapshot t, with G_t the F x M slice: G_t·G_t^H
    (freq x freq) and G_t^H·G_t (space x space)."""
    return _gram_pair(np.ascontiguousarray(g))


def correlation_set(g: np.ndarray) -> CorrelationSet:
    t_ant, f_ant = corr_per_antenna(g)
    t_sub, s_sub = corr_per_subcarrier(g)
    f_snap, s_snap = corr_per_time(g)
    return CorrelationSet(t_ant, f_ant, t_sub, s_sub, f_snap, s_snap)


def _slice_norms(x: np.ndarray) -> np.ndarray:
    """Per-slice Frobenius norms of a real tensor, summed in memory order."""
    return np.sqrt(np.sum(x * x, axis=(0, 1)))


def _unwrap(p: np.ndarray, axis: int) -> np.ndarray:
    """``np.unwrap(p, axis=axis)`` of a float64 array, bit for bit.  Unless
    a step reaches π, np.unwrap only copies ``p`` in its layout and adds
    +0.0 past the first element, turning -0.0 into +0.0.  Otherwise
    np.unwrap's operations run in its order, in place on one array of
    corrections, where np.unwrap holds about six temporaries."""
    steps = np.diff(p, axis=axis)
    rest = (slice(None),) * axis + (slice(1, None),)
    out = p.copy(order="K")
    if not steps.size or -np.pi < steps.min() <= steps.max() < np.pi:
        out[rest] += 0.0
        return out
    # Each step's residue in [-π, π), +π for a step of exactly +π, minus
    # the step; zero where |step| < π; summed along the axis.
    corr = steps - -np.pi
    np.mod(corr, 2 * np.pi, out=corr)
    corr += -np.pi
    np.copyto(corr, np.pi, where=(corr == -np.pi) & (steps > 0))
    corr -= steps
    np.copyto(corr, 0.0, where=(-np.pi < steps) & (steps < np.pi))
    np.cumsum(corr, axis=axis, out=corr)
    np.add(p[rest], corr, out=out[rest])
    return out


def _unwrap_slices(ang: np.ndarray) -> np.ndarray:
    """2-D phase unwrap per frontal slice: along each row first, then
    the first column's unwrapped values shift whole rows (2π jumps,
    threshold π)."""
    u = _unwrap(ang, axis=1) if ang.shape[1] > 1 else ang.copy()
    if ang.shape[0] > 1:
        col = _unwrap(u[:, 0, :], axis=0)
        u += (col - u[:, 0, :])[:, None, :]
    return u


def family_tensors(c: np.ndarray) -> Iterator[np.ndarray]:
    """Yield the five real tensors of a complex correlation tensor C in
    slot order, each in C's memory layout: |C| and the unwrapped phase,
    each divided by its own per-slice Frobenius norm, then the real and
    the imaginary part of C with each slice divided by its Frobenius
    norm.  As ‖|C|‖ = ‖C‖, the modulus of that normalized C is the first
    tensor, and the same array is yielded again for the ``norm_amp``
    slot.  Zero-norm slices map to zero slices.

    Each tensor is built only when the caller asks for it, so a caller
    that drops each tensor before asking for the next holds one at a
    time, plus |C|/‖C‖, which the generator keeps for the last slot."""
    mag = np.abs(c)
    norms = _slice_norms(mag)  # ‖|C|‖ = ‖C‖ bit for bit: same squares
    norms[norms == 0.0] = 1.0
    mag /= norms
    yield mag
    phase = _unwrap_slices(np.angle(c))
    phase_norms = _slice_norms(phase)
    phase_norms[phase_norms == 0.0] = 1.0
    phase /= phase_norms
    yield phase
    del phase
    inv = 1.0 / norms
    yield c.real * inv
    yield c.imag * inv
    yield mag


@functools.cache
def _tensor_seed(base_seed: int, slot: int) -> int:
    """Per-slot ALS seed: a fixed function of the config seed and the
    feature slot only, so features stay comparable across window ids
    and antenna truncations; cached, as a SeedSequence costs ~20 µs."""
    seq = np.random.SeedSequence(entropy=int(base_seed), spawn_key=(slot,))
    return int(seq.generate_state(1)[0])


def phase_reference(g: np.ndarray) -> np.ndarray:
    """Rotate each (subcarrier, antenna) chain by the conjugate unit
    phase of its window mean.

    Absolute oscillator phase — the initial drift plus however much
    carrier-frequency offset accumulated before the window started — is
    arbitrary and, worse, encodes the window's position inside its
    recording; referencing every chain to its own mean cancels it while
    leaving all within-window dynamics (and chain magnitudes) intact.
    Zero-mean chains are left unrotated.
    """
    ref = np.mean(g, axis=0, keepdims=True)
    mag = np.abs(ref)
    unit = np.divide(
        ref, mag, out=np.ones_like(ref), where=mag > 0.0
    )
    return g * np.conj(unit)


def real_feature_tensors(g: np.ndarray) -> Iterator[np.ndarray]:
    """Yield the 31 real tensors of one window in slot order.  The
    correlation tensors are computed one Gram pair at a time, and each
    is dropped once its five tensors have been yielded."""
    g = phase_reference(g)
    yield np.abs(g)
    for gram_pair in (corr_per_antenna, corr_per_subcarrier, corr_per_time):
        first, second = gram_pair(g)
        yield from family_tensors(first)
        del first
        yield from family_tensors(second)


def extract_features(
    g: np.ndarray,
    als: AlsConfig,
    window_id: int = 0,
    label: Activity | None = None,
) -> FeatureSet:
    """CP-decompose the window's 31 real tensors into weight vectors.

    The tensors are fitted in slot order as ``real_feature_tensors``
    yields them, and each is released before the next is built.  Each
    tensor is fitted at rank min(als.rank, rank_upper_bound(dims))
    and its sorted weights are zero-padded to als.rank; each fit's sweep
    count and convergence flag are kept per slot.  Raises
    NumericError if any fit diverges (non-finite residual).
    """
    g = np.asarray(g)
    if g.ndim != 3:
        raise ValueError(f"expected a third-order window, got ndim={g.ndim}")
    lambdas = np.zeros((N_FEATURE_VECTORS, als.rank))
    diagnostics = []
    for slot, tensor in enumerate(real_feature_tensors(g)):
        r_eff = min(als.rank, rank_upper_bound(tensor.shape))
        cfg = replace(als, rank=r_eff, seed=_tensor_seed(als.seed, slot))
        model = cp_als(tensor, cfg)
        if not np.all(np.isfinite(model.diagnostics.fit_errors)):
            raise NumericError(
                f"CP fit diverged on feature slot {slot} "
                f"({feature_names()[slot]})"
            )
        lambdas[slot, :r_eff] = sorted_weights(model)
        diagnostics.append(model.diagnostics)
        # Free the tensor before the generator builds the next one.
        del tensor, model
    return FeatureSet(
        lambdas=lambdas,
        window_id=window_id,
        label=label,
        n_sweeps=tuple(d.n_sweeps for d in diagnostics),
        converged=tuple(d.converged for d in diagnostics),
    )


def assemble_input(fs: FeatureSet) -> np.ndarray:
    """Concatenate the 31 weight vectors into one input row, discarding
    each vector's largest (first) weight."""
    return fs.lambdas[:, 1:].reshape(-1).copy()


# ------------------------------------------------------------ persistence


def _label_int(label: Activity | None) -> int:
    return -1 if label is None else int(label)


def _label_from_int(value: int) -> Activity | None:
    return None if value == -1 else Activity(value)


def _feature_rows(feature_sets) -> tuple[np.ndarray, int]:
    """The float64 rows (window_id, label, the 31·r_max weights in slot
    order) that both feature files store, and r_max; raises ValueError
    on an empty input or on mixed r_max."""
    feature_sets = list(feature_sets)
    if not feature_sets:
        raise ValueError("refusing to write an empty feature file")
    r_max = feature_sets[0].r_max
    if any(fs.r_max != r_max for fs in feature_sets):
        raise ValueError("mixed r_max across feature sets")
    rows = np.empty(
        (len(feature_sets), 2 + N_FEATURE_VECTORS * r_max), dtype="<f8"
    )
    for i, fs in enumerate(feature_sets):
        rows[i, 0] = fs.window_id
        rows[i, 1] = _label_int(fs.label)
        rows[i, 2:] = fs.lambdas.reshape(-1)
    return rows, r_max


def save_features_csv(path, feature_sets) -> None:
    """One row per window: window_id, label, then the 31·r_max weights
    in slot order."""
    rows, r_max = _feature_rows(feature_sets)
    header = ["window_id", "label"]
    for name in feature_names():
        header.extend(f"{name}[{j}]" for j in range(r_max))
    with atomic_write(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                [int(row[0]), int(row[1])] + list(map(repr, row[2:].tolist()))
            )


def save_features_bin(path, feature_sets) -> None:
    """Compact binary twin of the CSV: little-endian float64 rows of
    (window_id, label, weights…), described by a JSON schema sidecar."""
    rows, r_max = _feature_rows(feature_sets)
    path = Path(path)
    with atomic_write(path) as fh:
        fh.write(rows.tobytes())
    schema = {
        "format": "mimosense-features",
        "version": 1,
        "rows": len(rows),
        "r_max": r_max,
        "dtype": "<f8",
        "row_layout": ["window_id", "label"]
        + [f"{n}[0..{r_max - 1}]" for n in feature_names()],
    }
    write_json(path.with_suffix(".schema.json"), schema)


def load_features_bin(path) -> list[FeatureSet]:
    path = Path(path)
    schema = read_json(path.with_suffix(".schema.json"))
    raw = read_bytes(path)
    try:
        n_rows, r_max = schema["rows"], schema["r_max"]
    except (KeyError, TypeError) as exc:
        raise DataError(f"{path}: invalid feature schema ({exc})") from exc
    if type(n_rows) is not int or type(r_max) is not int or n_rows < 0 or r_max < 1:
        raise DataError(
            f"{path}: invalid feature schema (rows={n_rows!r}, r_max={r_max!r})"
        )
    width = 2 + N_FEATURE_VECTORS * r_max
    if len(raw) != n_rows * width * 8:
        raise DataError(f"{path}: feature payload size mismatch")
    rows = np.frombuffer(raw, dtype="<f8").reshape(n_rows, width)
    ids = rows[:, 0]
    if not np.all(np.isfinite(ids) & (ids >= 0) & (ids == np.round(ids))):
        raise DataError(f"{path}: window ids must be non-negative integers")
    if not np.all(np.isin(rows[:, 1], [-1] + [int(k) for k in Activity])):
        raise DataError(f"{path}: labels must be -1 or an activity index")
    out = []
    for row in rows:
        out.append(
            FeatureSet(
                lambdas=row[2:].reshape(N_FEATURE_VECTORS, r_max).copy(),
                window_id=int(row[0]),
                label=_label_from_int(int(row[1])),
            )
        )
    return out
