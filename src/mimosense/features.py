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
yields them one at a time, computing one Gram pair of correlations at a
time and dropping each correlation once its family is done, and
``extract_features`` drops each tensor after its fit.  Each family is
fitted in the order amp, norm_amp, phase, re, im, so that the amp array
is dropped before the phase is built; ``_FIT_SLOTS`` maps that order to
the slots, which keep their ALS seeds.  Every correlation tensor is in
Fortran order (each frontal slice contiguous, first index fastest),
whatever its size: its Hermitian average is written over the Gram
product's buffer in place.  That average, the per-slice norms and the
phase are built a chunk of slices (``_CHUNK_BYTES``) at a time, so their
temporaries stay a chunk in size.  So besides the window, one Gram pair
of correlation tensors, one real slot tensor and one fit's working set
are held at a time.  On a simulated LOS desk window (T_w=100, F=16,
M=32) the numpy allocations of one ``extract_features`` call peak at
11.5 MB, 0.56 of the 20.6 MB of the window's 25 distinct slot tensors;
on a (100, 16, 100) window they peak at 35.3 MB.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .channel import Activity
from .cp import AlsConfig, cp_als, rank_upper_bound
from .errors import DataError, NumericError
from .tensor_io import atomic_write, read_bytes, read_json, write_csv, write_json

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
# The order in which ``family_tensors`` yields a family's tensors, as
# indices into _VARIANT_NAMES: norm_amp repeats amp's array, so it is
# fitted right after amp, and the array is dropped before the phase.
_FIT_VARIANTS = (0, 4, 1, 2, 3)
# The slot of each tensor ``real_feature_tensors`` yields, in yield order.
_FIT_SLOTS = (0,) + tuple(
    1 + 5 * family + v for family in range(len(_CORR_NAMES)) for v in _FIT_VARIANTS
)


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
    leave them empty.  The feature files store only labeled sets."""

    lambdas: np.ndarray  # (31, r_max)
    window_id: int
    label: Activity | None
    n_sweeps: tuple[int, ...] = ()
    converged: tuple[bool, ...] = ()

    @property
    def r_max(self) -> int:
        return self.lambdas.shape[1]


# A chunk of slices that the slot builds walk at a time holds at most
# this many bytes of the tensor it reads, and at least one slice.
_CHUNK_BYTES = 1 << 18


def _chunks(n: int, slice_bytes: int) -> list[slice]:
    """Consecutive runs of ``n`` slices of ``slice_bytes`` each, each run
    at most ``_CHUNK_BYTES`` long but at least one slice."""
    step = max(1, _CHUNK_BYTES // max(1, slice_bytes))
    return [slice(i, i + step) for i in range(0, n, step)]


def _hermitize(stack: np.ndarray) -> np.ndarray:
    """The (A, A, S) tensor whose frontal slice s averages slice s of a
    C-contiguous (S, A, A) stack with its conjugate transpose, so the
    Hermitian symmetry holds exactly despite gemm rounding.

    The average overwrites the stack's own buffer, one chunk of slices
    at a time, each slice transposed.  The result reads that buffer as
    (A, A, S), so it is in Fortran order whatever the sizes: each
    frontal slice is contiguous, first index fastest.  Averaging needs
    one chunk of scratch, where ``c + conj(cᵀ)`` needs two copies of
    the tensor."""
    for s in _chunks(stack.shape[0], stack[:1].nbytes):
        chunk = stack[s]
        h = np.conj(chunk)
        h += chunk.transpose(0, 2, 1)
        np.multiply(0.5, h, out=chunk)
    return stack.transpose(2, 1, 0)


def _gram_pair(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For slices X_s of a C-contiguous (S, A, B) stack: X_s·X_s^H (A x A)
    and X_s^H·X_s (B x B), each stacked along the third mode in Fortran
    order."""
    xh = np.conj(np.transpose(x, (0, 2, 1)))
    return _hermitize(x @ xh), _hermitize(xh @ x)


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
    """Per-slice Frobenius norms of a real tensor, each slice summed in
    memory order, squared one chunk of slices at a time."""
    out = np.empty(x.shape[2])
    for s in _chunks(x.shape[2], x[:, :, :1].nbytes):
        part = x[:, :, s]
        out[s] = np.sqrt(np.sum(part * part, axis=(0, 1)))
    return out


def _unwrap(p: np.ndarray, axis: int) -> np.ndarray:
    """``np.unwrap(p, axis=axis)`` of a float64 array, bit for bit.  Most
    phase chunks have no step that reaches π.  On those, np.unwrap only
    copies ``p`` in its layout and adds +0.0 past the first element
    (turning -0.0 into +0.0), which is done here without np.unwrap's
    temporaries; other chunks go to np.unwrap."""
    steps = np.diff(p, axis=axis)
    if steps.size and not -np.pi < steps.min() <= steps.max() < np.pi:
        return np.unwrap(p, axis=axis)
    out = p.copy(order="K")
    out[(slice(None),) * axis + (slice(1, None),)] += 0.0
    return out


def _unwrap_slices(ang: np.ndarray) -> np.ndarray:
    """2-D phase unwrap per frontal slice: along each row first, then
    the first column's unwrapped values shift whole rows (2π jumps,
    threshold π)."""
    u = _unwrap(ang, axis=1)
    if ang.shape[0] > 1:
        col = _unwrap(u[:, 0, :], axis=0)
        u += (col - u[:, 0, :])[:, None, :]
    return u


def family_tensors(c: np.ndarray) -> Iterator[np.ndarray]:
    """Yield the five real tensors of a complex correlation tensor C, each
    in C's memory layout, in the order ``_FIT_VARIANTS`` lists: |C|
    divided by its per-slice Frobenius norm, the same array again for the
    ``norm_amp`` slot (as ‖|C|‖ = ‖C‖, it is also the modulus of C with
    each slice divided by its norm), the unwrapped phase divided by its
    own per-slice norm, then the real and the imaginary part of C with
    each slice divided by its norm.  Zero-norm slices map to zero slices.

    Each tensor is built only when the caller asks for it, and the
    generator drops |C|/‖C‖ before it builds the phase, so a caller that
    drops each tensor before asking for the next holds one at a time.
    The phase and the norms are built a chunk of slices at a time, so
    their temporaries stay a chunk in size; unwrapping works within a
    slice, so the chunks change no bit."""
    mag = np.abs(c)
    norms = _slice_norms(mag)  # ‖|C|‖ = ‖C‖ bit for bit: same squares
    norms[norms == 0.0] = 1.0
    mag /= norms
    yield mag  # amp
    yield mag  # norm_amp
    del mag
    phase = np.empty_like(c, dtype=np.float64)
    for s in _chunks(c.shape[2], c[:, :, :1].nbytes):
        phase[:, :, s] = _unwrap_slices(np.angle(c[:, :, s]))
    phase_norms = _slice_norms(phase)
    phase_norms[phase_norms == 0.0] = 1.0
    phase /= phase_norms
    yield phase
    del phase
    inv = 1.0 / norms
    yield c.real * inv
    yield c.imag * inv


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
    """Yield the 31 real tensors of one window in fit order: slot 0, then
    each correlation family's five tensors as ``family_tensors`` yields
    them; ``_FIT_SLOTS`` gives the slot of each.  The correlation
    tensors are computed one Gram pair at a time, each in Fortran order,
    and each is dropped once its five tensors have been yielded."""
    g = phase_reference(g)
    yield np.abs(g)
    for gram_pair in (corr_per_antenna, corr_per_subcarrier, corr_per_time):
        first, second = gram_pair(g)
        yield from family_tensors(first)
        del first
        yield from family_tensors(second)
        del second


def extract_features(
    g: np.ndarray,
    als: AlsConfig,
    window_id: int = 0,
    label: Activity | None = None,
) -> FeatureSet:
    """CP-decompose the window's 31 real tensors into weight vectors.

    The tensors are fitted in the order ``real_feature_tensors`` yields
    them, and each is released before the next is built, so one Gram
    pair of correlation tensors, one real slot tensor and one fit's
    working set are held at a time.  Each fit fills the slot that
    ``_FIT_SLOTS`` names, under that slot's ALS seed.  Each tensor is
    fitted at rank min(als.rank, rank_upper_bound(dims)) and its sorted
    weights are zero-padded to als.rank; each fit's sweep count and
    convergence flag are kept per slot.  Raises NumericError if any fit
    diverges (non-finite residual).
    """
    lambdas = np.zeros((N_FEATURE_VECTORS, als.rank))
    n_sweeps = [0] * N_FEATURE_VECTORS
    converged = [False] * N_FEATURE_VECTORS
    for slot, tensor in zip(_FIT_SLOTS, real_feature_tensors(g), strict=True):
        r_eff = min(als.rank, rank_upper_bound(tensor.shape))
        cfg = replace(als, rank=r_eff, seed=_tensor_seed(als.seed, slot))
        model = cp_als(tensor, cfg)
        if not np.all(np.isfinite(model.diagnostics.fit_errors)):
            raise NumericError(
                f"CP fit diverged on feature slot {slot} "
                f"({feature_names()[slot]})"
            )
        lambdas[slot, :r_eff] = model.weights
        n_sweeps[slot] = model.diagnostics.n_sweeps
        converged[slot] = model.diagnostics.converged
        # Free the tensor before the generator builds the next one.
        del tensor, model
    return FeatureSet(
        lambdas=lambdas,
        window_id=window_id,
        label=label,
        n_sweeps=tuple(n_sweeps),
        converged=tuple(converged),
    )


def assemble_input(fs: FeatureSet) -> np.ndarray:
    """Concatenate the 31 weight vectors into one input row, discarding
    each vector's largest (first) weight."""
    return fs.lambdas[:, 1:].reshape(-1).copy()


# ------------------------------------------------------------ persistence


def _feature_rows(feature_sets) -> tuple[np.ndarray, int]:
    """The float64 rows (window_id, label, the 31·r_max weights in slot
    order) that both feature files store, and r_max; raises ValueError
    on a set without a label.  ``feature_sets`` is a non-empty sequence
    of one r_max, as featurize builds it."""
    r_max = feature_sets[0].r_max
    rows = np.empty(
        (len(feature_sets), 2 + N_FEATURE_VECTORS * r_max), dtype="<f8"
    )
    for i, fs in enumerate(feature_sets):
        if fs.label is None:
            raise ValueError(f"window {fs.window_id} carries no label")
        rows[i, 0] = fs.window_id
        rows[i, 1] = int(fs.label)
        rows[i, 2:] = fs.lambdas.reshape(-1)
    return rows, r_max


def save_features_csv(path, feature_sets) -> None:
    """One row per window: window_id, label, then the 31·r_max weights
    in slot order."""
    rows, r_max = _feature_rows(feature_sets)
    header = ["window_id", "label"]
    for name in feature_names():
        header.extend(f"{name}[{j}]" for j in range(r_max))
    write_csv(
        path,
        header,
        ([int(row[0]), int(row[1])] + row[2:].tolist() for row in rows),
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
    if np.unique(ids).size != ids.size:
        # The writer stores each window once; a repeated id could put one
        # window in both the training and the test split.
        raise DataError(f"{path}: duplicate window ids")
    if not np.all(np.isin(rows[:, 1], [int(k) for k in Activity])):
        raise DataError(f"{path}: labels must be activity indices")
    out = []
    for row in rows:
        out.append(
            FeatureSet(
                lambdas=row[2:].reshape(N_FEATURE_VECTORS, r_max).copy(),
                window_id=int(row[0]),
                label=Activity(int(row[1])),
            )
        )
    return out
