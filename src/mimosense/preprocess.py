"""Frame-loss repair and time segmentation.

Lost snapshots (zeroed, flagged in the record mask) are rebuilt by
linear interpolation between the nearest present snapshots — linear in
the complex field, i.e. independently on real and imaginary parts.  A
record without loss takes the same path and comes back as a copy.  The
repaired record is then cut into non-overlapping windows of t_w
snapshots, all slices of one array and so all of one shape; trailing
remainder snapshots are discarded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["WindowedRecord", "interpolate_lost_frames", "segment"]


@dataclass(frozen=True)
class WindowedRecord:
    """Ordered windows of one record, all with identical dims."""

    windows: tuple[np.ndarray, ...]


def interpolate_lost_frames(tensor: np.ndarray, mask) -> np.ndarray:
    """Linearly interpolate lost snapshots from their present neighbors.

    ``mask`` holds one flag per snapshot, and the first and last
    snapshots must be present: the simulator never loses them, and
    ``channel.load_record`` refuses a sidecar whose mask would.  Every
    (f, m) series is repaired independently, into a new C-ordered
    array, so ``tensor`` may be a strided view.
    """
    mask = np.asarray(mask, dtype=bool)
    idx = np.arange(tensor.shape[0])
    present = idx[~mask]
    lost = idx[mask]
    left = present[np.searchsorted(present, lost, side="right") - 1]
    right = present[np.searchsorted(present, lost, side="left")]
    w = ((lost - left) / (right - left))[:, None, None]
    out = tensor.copy()
    out[lost] = tensor[left] * (1.0 - w) + tensor[right] * w
    return out


def segment(tensor: np.ndarray, t_w: int) -> WindowedRecord:
    """Cut the record into floor(T / t_w) windows of t_w snapshots.

    Window k holds snapshots [k·t_w, (k+1)·t_w); the remainder is
    dropped so every window has identical dims.
    """
    t = tensor.shape[0]
    if not 1 <= t_w <= t:
        raise ValueError(f"window length {t_w} must be in [1, T={t}]")
    windows = tuple(
        tensor[k * t_w : (k + 1) * t_w].copy() for k in range(t // t_w)
    )
    return WindowedRecord(windows=windows)
