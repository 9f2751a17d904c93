"""Synthetic massive-MIMO channel records for five activity classes.

The received tensor follows Y_f = H_f ⊙ Γ_f + N_f per subcarrier: a
path-based channel H, a per-RF-chain impairment Γ (amplitude, initial
phase, carrier-frequency offset), additive complex Gaussian noise, and
occasional frame loss.

The channel itself is a sum of propagation paths.  Each path carries a
complex gain, a planar-array phase (half-wavelength 4 x (M/4)
rectangular grid when M is divisible by 4, else a uniform line),
and a baseband delay phase across subcarriers.  The line-of-sight
scenario adds one dominant static path whose power is K times the
diffuse total (Rician K, 10 dB); the non-line-of-sight scenario
omits it and instead attenuates the scattered field (the obstruction
loss), which against an absolute receiver noise floor is what makes
NLOS records noisier than LOS ones.  Activity classes differ only in
the time evolution of the paths:

  STATIC        all paths frozen
  PERIODIC      one path's gain modulated sinusoidally (0.5-2 s period)
  RANDOM        every diffuse path's phase does an independent random walk
  ROTATE_SHIFT  one path rotates at a fast constant rate and its delay
                drifts linearly by a few nanoseconds over the record
  ROTATE        one path rotates at a slow constant rate

All randomness comes from fixed substreams of the config seed, so a
record is a pure function of its config.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from enum import IntEnum
from pathlib import Path

import numpy as np

from .errors import DataError
from .tensor_io import load_tensor, read_json, save_tensor, write_json

__all__ = [
    "Activity",
    "RfChainModel",
    "SimConfig",
    "SimulatedRecord",
    "add_noise",
    "apply_rf_chain",
    "draw_rf_chain",
    "effective_snr_db",
    "generate_channel",
    "inject_frame_loss",
    "load_record",
    "motion_parameters",
    "save_record",
    "simulate_record",
]


class Activity(IntEnum):
    """The five activity classes, in label order 0..4."""

    STATIC = 0
    PERIODIC = 1
    RANDOM = 2
    ROTATE_SHIFT = 3
    ROTATE = 4


# Invented channel constants (the source measurements publish no channel
# statistics).  Kept module-level: they define the synthetic world, not
# per-experiment knobs.
SNAPSHOT_INTERVAL_S = 0.01  # the 100 Hz sampling the pipeline is built around
N_PATHS = 8
RICIAN_K_DB = 10.0  # LOS dominant-path power over the scattered total
_RICIAN_K = 10.0 ** (RICIAN_K_DB / 10.0)
BANDWIDTH_HZ = 20e6
DELAY_SPREAD_S = 300e-9
LOS_DELAY_MAX_S = 50e-9
# Share of the scattered-field power carried by the single moving path
# (a body reflection illuminated by the ambient field); the same share
# applies in both scenarios.
MOVING_POWER_SHARE = 0.02
# The obstruction that defines the NLOS scenario attenuates the
# scattered field itself; with an absolute receiver noise floor this is
# what makes NLOS sensing harder than LOS.
NLOS_OBSTRUCTION_LOSS_DB = 12.0
AMPLITUDE_MOD_DEPTH = 0.8
AMPLITUDE_MOD_PERIOD_S = (0.5, 2.0)
PHASE_WALK_STD = 0.8  # rad per snapshot, RANDOM
ROTATE_SHIFT_RATE = (0.25, 0.60)  # |rad| per snapshot, ROTATE_SHIFT
ROTATE_RATE = (0.05, 0.15)  # |rad| per snapshot, ROTATE
DELAY_DRIFT_S = (2e-9, 6e-9)  # total delay drift over the record, ROTATE_SHIFT

# Fixed substream indices off the config seed.
_STREAM_PATHS = 0
_STREAM_RF = 1
_STREAM_NOISE = 2
_STREAM_LOSS = 3


def _substream(seed: int, role: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), int(role)])


@dataclass(frozen=True)
class SimConfig:
    """One record's generation parameters.

    t/f/m are snapshot, subcarrier, and antenna counts.  The snapshot
    interval, path count and Rician K are the module constants
    SNAPSHOT_INTERVAL_S, N_PATHS and RICIAN_K_DB.
    """

    t: int
    f: int
    m: int
    scenario: str = "LOS"
    snr_db: float = 20.0
    frame_loss_prob: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if min(self.t, self.f, self.m) < 1:
            raise ValueError(f"t, f, m must be >= 1, got {(self.t, self.f, self.m)}")
        if not 0.0 <= self.frame_loss_prob < 0.5:
            raise ValueError(
                f"frame_loss_prob must be in [0, 0.5), got {self.frame_loss_prob}"
            )
        if self.scenario not in ("LOS", "NLOS"):
            raise ValueError(f"scenario must be LOS or NLOS, got {self.scenario!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class RfChainModel:
    """Per-chain impairment Γ(m, t) = d_m · exp(j(φ_m − t·η_{m,f}))."""

    d: np.ndarray  # (M,) amplitudes, > 0
    phi: np.ndarray  # (M,) initial phases, rad
    eta: np.ndarray  # (M, F) frequency offsets, rad per snapshot


@dataclass(frozen=True)
class SimulatedRecord:
    """A finished record: received tensor, loss mask, label, and the
    config it was generated from."""

    tensor: np.ndarray  # (T, F, M) complex
    mask: np.ndarray  # (T,) bool, True = snapshot lost
    label: Activity
    manifest: SimConfig

    def __post_init__(self):
        expected = (self.manifest.t, self.manifest.f, self.manifest.m)
        if self.tensor.shape != expected:
            raise ValueError(
                f"tensor shape {self.tensor.shape} does not match manifest {expected}"
            )
        if self.mask.shape != (self.manifest.t,):
            raise ValueError("mask length must equal the snapshot count")


def _array_phase_grid(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-antenna (row, col) half-wavelength grid coordinates.

    Antennas are numbered row-wise from the upper-left corner of a
    4 x (M/4) rectangle; an M not divisible by 4 degrades to a line.
    """
    idx = np.arange(m)
    if m % 4 == 0 and m >= 4:
        n_cols = m // 4
        return idx // n_cols, idx % n_cols
    return np.zeros(m), idx


def _draw_paths(cfg: SimConfig, kind: Activity, rng: np.random.Generator):
    """Draw path geometry, gains, and motion descriptors (fixed order)."""
    moving = kind in (Activity.PERIODIC, Activity.ROTATE_SHIFT, Activity.ROTATE)
    # Expected path powers with the scattered field normalized to 1 in
    # total; the mover takes its fixed share of that, and the dominant
    # path carries K times the scattered total on top.
    share = np.full(N_PATHS, 1.0 / N_PATHS)
    if moving:
        share = np.full(N_PATHS, (1.0 - MOVING_POWER_SHARE) / (N_PATHS - 1))
        share[0] = MOVING_POWER_SHARE

    los = None
    if cfg.scenario == "LOS":
        los = {
            "gain": np.sqrt(_RICIAN_K) * np.exp(2j * np.pi * rng.uniform()),
            "u": rng.uniform(-1.0, 1.0),
            "v": rng.uniform(-1.0, 1.0),
            "tau": rng.uniform(0.0, LOS_DELAY_MAX_S),
        }
    re = rng.standard_normal(N_PATHS)
    im = rng.standard_normal(N_PATHS)
    u = rng.uniform(-1.0, 1.0, size=N_PATHS)
    v = rng.uniform(-1.0, 1.0, size=N_PATHS)
    tau = rng.uniform(0.0, DELAY_SPREAD_S, size=N_PATHS)

    gains = np.sqrt(share / 2.0) * (re + 1j * im)
    if moving:
        # Pin the moving path's power to its share exactly so its
        # signature never vanishes on an unlucky draw.
        phase = np.exp(1j * np.angle(gains[0]))
        gains[0] = np.sqrt(share[0]) * phase

    motion: dict[str, float] = {}
    if kind == Activity.PERIODIC:
        period_s = rng.uniform(*AMPLITUDE_MOD_PERIOD_S)
        motion["period_snapshots"] = period_s / SNAPSHOT_INTERVAL_S
        motion["mod_phase"] = rng.uniform(0.0, 2.0 * np.pi)
    elif kind in (Activity.ROTATE_SHIFT, Activity.ROTATE):
        lo, hi = ROTATE_SHIFT_RATE if kind == Activity.ROTATE_SHIFT else ROTATE_RATE
        sign = 1.0 if rng.uniform() < 0.5 else -1.0
        motion["rotation_rate"] = sign * rng.uniform(lo, hi)
        if kind == Activity.ROTATE_SHIFT:
            motion["delay_drift_s"] = rng.uniform(*DELAY_DRIFT_S)
    return gains, u, v, tau, los, motion


def motion_parameters(cfg: SimConfig, kind: Activity) -> dict[str, float]:
    """The motion descriptors a record of this config would be built
    with (modulation period in snapshots, rotation rate in rad per
    snapshot, total delay drift in seconds — whichever apply)."""
    rng = _substream(cfg.seed, _STREAM_PATHS)
    *_, motion = _draw_paths(cfg, kind, rng)
    return motion


def generate_channel(cfg: SimConfig, kind: Activity) -> np.ndarray:
    """Noise- and impairment-free channel tensor, shape (T, F, M)."""
    rng = _substream(cfg.seed, _STREAM_PATHS)
    gains, u, v, tau, los, motion = _draw_paths(cfg, kind, rng)
    t_arr = np.arange(cfg.t)
    f_grid = np.arange(cfg.f) * (BANDWIDTH_HZ / cfg.f)
    rows, cols = _array_phase_grid(cfg.m)

    def steering(u_p, v_p):
        return np.exp(1j * np.pi * (cols * u_p + rows * v_p))

    # Static per-path building blocks.
    a = np.exp(1j * np.pi * (cols[:, None] * u + rows[:, None] * v))  # (M, P)
    b = np.exp(-2j * np.pi * np.outer(f_grid, tau))  # (F, P)

    # Time evolution per path.
    c = np.broadcast_to(gains, (cfg.t, N_PATHS)).copy()  # (T, P)
    if kind == Activity.PERIODIC:
        period = motion["period_snapshots"]
        mod = 1.0 + AMPLITUDE_MOD_DEPTH * np.sin(
            2.0 * np.pi * t_arr / period + motion["mod_phase"]
        )
        c[:, 0] = gains[0] * mod
    elif kind == Activity.RANDOM:
        steps = rng.standard_normal((cfg.t - 1, N_PATHS)) if cfg.t > 1 else None
        walk = np.zeros((cfg.t, N_PATHS))
        if steps is not None:
            walk[1:] = PHASE_WALK_STD * np.cumsum(steps, axis=0)
        c = c * np.exp(1j * walk)
    elif kind in (Activity.ROTATE_SHIFT, Activity.ROTATE):
        c[:, 0] = gains[0] * np.exp(1j * motion["rotation_rate"] * t_arr)

    drifting = kind == Activity.ROTATE_SHIFT
    if drifting:
        # Path 0's delay drifts linearly; handle it outside the static
        # einsum below.
        c_move, c = c[:, 0], c[:, 1:]
        a_move, a = a[:, 0], a[:, 1:]
        b = b[:, 1:]
        tau_move = tau[0]

    h = np.einsum("tp,fp,mp->tfm", c, b, a, optimize=True)

    if drifting:
        slope = motion["delay_drift_s"] / max(cfg.t, 1)
        delay = tau_move + slope * t_arr  # (T,)
        d_tf = np.exp(-2j * np.pi * delay[:, None] * f_grid[None, :])  # (T, F)
        h = h + c_move[:, None, None] * d_tf[:, :, None] * a_move[None, None, :]

    if los is not None:
        b_los = np.exp(-2j * np.pi * f_grid * los["tau"])  # (F,)
        a_los = steering(los["u"], los["v"])  # (M,)
        h = h + los["gain"] * b_los[None, :, None] * a_los[None, None, :]
    return h


def draw_rf_chain(cfg: SimConfig) -> RfChainModel:
    """Seeded impairment draw: d ~ U[0.8, 1.2], φ ~ U[0, 2π),
    η ~ U[−0.01, 0.01] rad per snapshot."""
    rng = _substream(cfg.seed, _STREAM_RF)
    return RfChainModel(
        d=rng.uniform(0.8, 1.2, size=cfg.m),
        phi=rng.uniform(0.0, 2.0 * np.pi, size=cfg.m),
        eta=rng.uniform(-0.01, 0.01, size=(cfg.m, cfg.f)),
    )


def apply_rf_chain(h: np.ndarray, rf: RfChainModel) -> np.ndarray:
    """out(t,f,m) = h(t,f,m) · d_m · exp(j(φ_m − t·η_{m,f}))."""
    t_arr = np.arange(h.shape[0])
    phase = rf.phi[None, None, :] - t_arr[:, None, None] * rf.eta.T[None, :, :]
    return h * (rf.d[None, None, :] * np.exp(1j * phase))


def add_noise(y: np.ndarray, snr_db: float, seed) -> np.ndarray:
    """Add circularly-symmetric complex Gaussian noise at the requested
    tensor-wide SNR (dB, in expectation).  `seed` is anything
    ``np.random.default_rng`` accepts."""
    y = np.asarray(y)
    p_sig = float(np.mean(np.abs(y) ** 2))
    if p_sig == 0.0:
        raise ValueError("SNR undefined for a zero-power tensor")
    rng = np.random.default_rng(seed)
    sigma = np.sqrt(p_sig * 10.0 ** (-snr_db / 10.0) / 2.0)
    noise = sigma * (
        rng.standard_normal(y.shape) + 1j * rng.standard_normal(y.shape)
    )
    return y + noise


def inject_frame_loss(y: np.ndarray, p: float, seed) -> tuple[np.ndarray, np.ndarray]:
    """Zero each interior snapshot with probability p (never the first
    or last); returns (tensor, mask) with mask True at lost snapshots."""
    t = y.shape[0]
    mask = np.zeros(t, dtype=bool)
    if p > 0.0 and t > 2:
        rng = np.random.default_rng(seed)
        mask[1 : t - 1] = rng.uniform(size=t - 2) < p
    out = y.copy()
    out[mask] = 0.0
    return out, mask


def effective_snr_db(cfg: SimConfig) -> float:
    """Tensor-wide SNR a record of this config is generated at.

    The receiver noise floor is absolute: cfg.snr_db states the ratio of
    the scattered-field power to that floor in the unobstructed case.
    The dominant line-of-sight path adds its power on top of the scatter
    (raising the tensor-wide ratio by 1+K), while the obstruction that
    defines the NLOS scenario attenuates the scattered field itself by
    NLOS_OBSTRUCTION_LOSS_DB against the unchanged floor.
    """
    if cfg.scenario == "LOS":
        return cfg.snr_db + 10.0 * float(np.log10(1.0 + _RICIAN_K))
    return cfg.snr_db - NLOS_OBSTRUCTION_LOSS_DB


def simulate_record(cfg: SimConfig, kind: Activity) -> SimulatedRecord:
    """Full record generation: channel → RF chain → noise → frame loss."""
    h = generate_channel(cfg, kind)
    y = apply_rf_chain(h, draw_rf_chain(cfg))
    y = add_noise(y, effective_snr_db(cfg), _substream(cfg.seed, _STREAM_NOISE))
    tensor, mask = inject_frame_loss(
        y, cfg.frame_loss_prob, _substream(cfg.seed, _STREAM_LOSS)
    )
    return SimulatedRecord(tensor=tensor, mask=mask, label=kind, manifest=cfg)


# ------------------------------------------------------------ record IO


def _mask_to_runs(mask: np.ndarray) -> list[list[int]]:
    """Run-length encode the True stretches as [start, length] pairs."""
    runs = []
    start = None
    for i, lost in enumerate(mask):
        if lost and start is None:
            start = i
        elif not lost and start is not None:
            runs.append([start, i - start])
            start = None
    if start is not None:
        runs.append([start, len(mask) - start])
    return runs


def _runs_to_mask(runs, t: int) -> np.ndarray:
    mask = np.zeros(t, dtype=bool)
    for start, length in runs:
        # Interpolation needs the first and last snapshots; none is lost.
        if start < 1 or length < 0 or start + length > t - 1:
            raise ValueError(f"invalid lost-frame run [{start}, {length}] for T={t}")
        mask[start : start + length] = True
    return mask


def save_record(path, record: SimulatedRecord) -> None:
    """Write the tensor as .mmt3 plus a .json sidecar manifest."""
    path = Path(path)
    save_tensor(path, record.tensor)
    sidecar = {
        "sim": dataclasses.asdict(record.manifest),
        "activity": record.label.name,
        "label": int(record.label),
        "lost_runs": _mask_to_runs(record.mask),
    }
    write_json(path.with_suffix(".json"), sidecar)


def load_record(path) -> SimulatedRecord:
    """Inverse of save_record; raises DataError on any inconsistency."""
    path = Path(path)
    tensor = load_tensor(path)
    sidecar = read_json(path.with_suffix(".json"))
    try:
        cfg = SimConfig(**sidecar["sim"])
        # SimulatedRecord checks the tensor shape against (t, f, m).
        return SimulatedRecord(
            tensor=tensor,
            mask=_runs_to_mask(sidecar["lost_runs"], cfg.t),
            label=Activity(sidecar["label"]),
            manifest=cfg,
        )
    except (KeyError, ValueError, TypeError) as exc:
        raise DataError(f"{path}: invalid sidecar manifest ({exc})") from exc

