"""Interpolation and segmentation tests with scalar oracles."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from mimosense.preprocess import interpolate_lost_frames, segment


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


# ------------------------------------------------- interpolate_lost_frames


def test_interpolate_no_loss_is_identity():
    rng = np.random.default_rng(0)
    t = random_complex(rng, (10, 3, 2))
    out = interpolate_lost_frames(t, np.zeros(10, dtype=bool))
    assert_array_equal(out, t)


def test_interpolate_midpoint():
    t = np.zeros((3, 1, 1), dtype=complex)
    t[0] = 1 + 1j
    t[2] = 3 + 3j
    out = interpolate_lost_frames(t, np.array([False, True, False]))
    assert_allclose(out[1, 0, 0], 2 + 2j, atol=1e-15)


def test_interpolate_matches_scalar_oracle():
    rng = np.random.default_rng(1)
    t = random_complex(rng, (20, 3, 2))
    mask = np.zeros(20, dtype=bool)
    mask[[2, 3, 7, 12, 13, 14, 18]] = True
    t[mask] = 0.0
    out = interpolate_lost_frames(t, mask)
    for f in range(3):
        for m in range(2):
            for i in range(20):
                if not mask[i]:
                    assert out[i, f, m] == t[i, f, m]
                    continue
                lo = i
                while mask[lo]:
                    lo -= 1
                hi = i
                while mask[hi]:
                    hi += 1
                w = (i - lo) / (hi - lo)
                want = t[lo, f, m] * (1 - w) + t[hi, f, m] * w
                assert abs(out[i, f, m] - want) < 1e-12


def test_interpolate_present_snapshots_untouched():
    rng = np.random.default_rng(2)
    t = random_complex(rng, (15, 2, 2))
    mask = np.zeros(15, dtype=bool)
    mask[5:8] = True
    out = interpolate_lost_frames(t, mask)
    assert_array_equal(out[~mask], t[~mask])


def test_interpolate_idempotent():
    rng = np.random.default_rng(3)
    t = random_complex(rng, (12, 2, 3))
    mask = np.zeros(12, dtype=bool)
    mask[[4, 5, 9]] = True
    once = interpolate_lost_frames(t, mask)
    twice = interpolate_lost_frames(once, mask)
    assert_array_equal(once, twice)


# ----------------------------------------------------------------- segment


def test_segment_window_count_full_scale():
    t = np.zeros((3000, 1, 1), dtype=complex)
    rec = segment(t, 200)
    assert len(rec.windows) == 15
    assert all(w.shape == (200, 1, 1) for w in rec.windows)


def test_segment_full_length_window():
    rng = np.random.default_rng(4)
    t = random_complex(rng, (8, 2, 2))
    rec = segment(t, 8)
    assert len(rec.windows) == 1
    assert_array_equal(rec.windows[0], t)


def test_segment_floor_rule():
    t = np.arange(7, dtype=complex).reshape(7, 1, 1)
    rec = segment(t, 3)
    assert len(rec.windows) == 2
    assert_array_equal(rec.windows[0][:, 0, 0], [0, 1, 2])
    assert_array_equal(rec.windows[1][:, 0, 0], [3, 4, 5])


def test_segment_partition_property():
    rng = np.random.default_rng(5)
    t = random_complex(rng, (23, 2, 2))
    rec = segment(t, 5)
    glued = np.concatenate(rec.windows, axis=0)
    assert_array_equal(glued, t[: len(rec.windows) * 5])


def test_segment_rejects_oversized_window():
    t = np.zeros((5, 1, 1), dtype=complex)
    with pytest.raises(ValueError):
        segment(t, 6)
    with pytest.raises(ValueError):
        segment(t, 0)


def test_segment_commutes_with_interpolation_away_from_boundaries():
    # Losses at t=3 and t=14 interpolate from neighbors inside their own
    # windows (t_w=10), so repairing before or after segmentation agrees.
    rng = np.random.default_rng(6)
    t = random_complex(rng, (20, 2, 2))
    mask = np.zeros(20, dtype=bool)
    mask[[3, 14]] = True
    t[mask] = 0.0

    whole = segment(interpolate_lost_frames(t, mask), 10)
    parts = segment(t, 10)
    for k, win in enumerate(parts.windows):
        win_mask = mask[k * 10 : (k + 1) * 10]
        assert_array_equal(
            interpolate_lost_frames(win, win_mask), whole.windows[k]
        )
