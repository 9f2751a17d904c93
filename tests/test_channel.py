"""Channel simulator tests: formula oracles, statistics, persistence."""

import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from mimosense.channel import (
    NLOS_OBSTRUCTION_LOSS_DB,
    RICIAN_K_DB,
    SNAPSHOT_INTERVAL_S,
    Activity,
    RfChainModel,
    SimConfig,
    add_noise,
    apply_rf_chain,
    draw_rf_chain,
    effective_snr_db,
    generate_channel,
    inject_frame_loss,
    load_record,
    motion_parameters,
    save_record,
    simulate_record,
)
from mimosense.errors import DataError


def small_cfg(**kw):
    base = dict(t=50, f=4, m=8, seed=0)
    base.update(kw)
    return SimConfig(**base)


# ------------------------------------------------------ generate_channel


def test_static_activity_is_time_constant():
    h = generate_channel(small_cfg(t=40), Activity.STATIC)
    assert np.max(np.abs(h - h[0][None, :, :])) == 0.0


def test_periodic_autocorrelation_peak_at_modulation_period():
    cfg = small_cfg(t=300, seed=0)
    period = motion_parameters(cfg, Activity.PERIODIC)["period_snapshots"]
    h = generate_channel(cfg, Activity.PERIODIC)
    x = np.abs(h[:, 0, 0])
    x = x - x.mean()
    t = len(x)
    # Unbiased autocorrelation by direct loop; the sinusoidal gain
    # modulation must put a peak at the drawn period.
    lags = np.arange(int(0.6 * period), int(1.4 * period) + 1)
    r = [np.dot(x[: t - tau], x[tau:]) / (t - tau) for tau in lags]
    peak = lags[int(np.argmax(r))]
    assert abs(peak - period) <= 2


def test_full_scale_record_shape():
    cfg = SimConfig(t=3000, f=100, m=100, seed=1)
    h = generate_channel(cfg, Activity.ROTATE)
    assert h.shape == (3000, 100, 100)
    assert h.dtype == np.complex128


def test_activity_temporal_correlation_ordering():
    # More static activity => higher mean lag-10 correlation; guards the
    # activity-to-dynamics mapping.  Correlation coefficient computed by
    # direct loop over (f, m) series without demeaning, as is standard
    # for channel coherence.
    cfg = SimConfig(t=200, f=4, m=16, seed=0)
    lag = 10

    def mean_lag_corr(h):
        t_len, f_len, m_len = h.shape
        vals = []
        for f in range(f_len):
            for m in range(m_len):
                x = h[:, f, m]
                num = np.vdot(x[: t_len - lag], x[lag:])
                den = np.sqrt(
                    np.vdot(x[: t_len - lag], x[: t_len - lag]).real
                    * np.vdot(x[lag:], x[lag:]).real
                )
                vals.append(abs(num) / den)
        return float(np.mean(vals))

    rho = {
        kind: mean_lag_corr(generate_channel(cfg, kind))
        for kind in (Activity.STATIC, Activity.ROTATE, Activity.RANDOM)
    }
    assert rho[Activity.STATIC] > rho[Activity.ROTATE] > rho[Activity.RANDOM]


def test_nlos_has_no_dominant_static_path():
    # LOS mean power is dominated by the static path; NLOS diffuse-only
    # power stays near 1.
    cfg_los = small_cfg(t=20, scenario="LOS")
    cfg_nlos = small_cfg(t=20, scenario="NLOS")
    p_los = np.mean(np.abs(generate_channel(cfg_los, Activity.STATIC)) ** 2)
    p_nlos = np.mean(np.abs(generate_channel(cfg_nlos, Activity.STATIC)) ** 2)
    assert p_los > 4.0 * p_nlos


def test_motion_parameters_ranges():
    for seed in range(5):
        cfg = small_cfg(seed=seed)
        per = motion_parameters(cfg, Activity.PERIODIC)["period_snapshots"]
        assert 0.5 / SNAPSHOT_INTERVAL_S <= per <= 2.0 / SNAPSHOT_INTERVAL_S
        rot = motion_parameters(cfg, Activity.ROTATE)["rotation_rate"]
        assert 0.05 <= abs(rot) <= 0.15
        ms = motion_parameters(cfg, Activity.ROTATE_SHIFT)
        assert 0.25 <= abs(ms["rotation_rate"]) <= 0.60
        assert 2e-9 <= ms["delay_drift_s"] <= 6e-9
        assert motion_parameters(cfg, Activity.STATIC) == {}
        assert motion_parameters(cfg, Activity.RANDOM) == {}


# -------------------------------------------------------- apply_rf_chain


def test_rf_chain_identity():
    h = generate_channel(small_cfg(t=10), Activity.STATIC)
    rf = RfChainModel(
        d=np.ones(8), phi=np.zeros(8), eta=np.zeros((8, 4))
    )
    assert_array_equal(apply_rf_chain(h, rf), h)


def test_rf_chain_single_entry_formula():
    h = np.full((1, 1, 1), 1.0 + 0.0j)
    rf = RfChainModel(d=np.array([2.0]), phi=np.array([np.pi / 2]), eta=np.zeros((1, 1)))
    assert_allclose(apply_rf_chain(h, rf), np.full((1, 1, 1), 2.0j), atol=1e-12)


def test_rf_chain_matches_triple_loop_oracle():
    rng = np.random.default_rng(2)
    h = rng.standard_normal((4, 3, 2)) + 1j * rng.standard_normal((4, 3, 2))
    rf = RfChainModel(
        d=rng.uniform(0.5, 1.5, 2),
        phi=rng.uniform(0, 2 * np.pi, 2),
        eta=rng.uniform(-0.1, 0.1, (2, 3)),
    )
    got = apply_rf_chain(h, rf)
    for t in range(4):
        for f in range(3):
            for m in range(2):
                want = h[t, f, m] * rf.d[m] * np.exp(
                    1j * (rf.phi[m] - t * rf.eta[m, f])
                )
                assert abs(got[t, f, m] - want) < 1e-12


def test_rf_chain_dim_mismatch():
    h = np.zeros((4, 3, 2), dtype=complex)
    rf = RfChainModel(d=np.ones(2), phi=np.zeros(2), eta=np.zeros((2, 5)))
    with pytest.raises(ValueError):
        apply_rf_chain(h, rf)


def test_draw_rf_chain_ranges_and_determinism():
    cfg = small_cfg()
    rf1, rf2 = draw_rf_chain(cfg), draw_rf_chain(cfg)
    assert_array_equal(rf1.d, rf2.d)
    assert_array_equal(rf1.eta, rf2.eta)
    assert np.all((rf1.d >= 0.8) & (rf1.d <= 1.2))
    assert np.all(np.abs(rf1.eta) <= 0.01)
    assert rf1.eta.shape == (8, 4)


# ------------------------------------------------------------- add_noise


def test_add_noise_vanishing_at_high_snr():
    h = generate_channel(small_cfg(t=10), Activity.STATIC)
    out = add_noise(h, 300.0, 0)
    assert_allclose(out, h, rtol=1e-10)


def test_add_noise_power_calibration():
    y = np.ones((100, 100, 10), dtype=complex)  # unit power, 1e5 entries
    out = add_noise(y, 0.0, 7)
    p_noise = np.mean(np.abs(out - y) ** 2)
    assert 0.97 <= p_noise <= 1.03


def test_add_noise_seeded_determinism():
    rng = np.random.default_rng(3)
    y = rng.standard_normal((5, 4, 3)) + 1j * rng.standard_normal((5, 4, 3))
    assert_array_equal(add_noise(y, 10.0, 42), add_noise(y, 10.0, 42))


def test_add_noise_rejects_zero_power():
    with pytest.raises(ValueError):
        add_noise(np.zeros((2, 2, 2), dtype=complex), 10.0, 0)


# ----------------------------------------------------- inject_frame_loss


def test_frame_loss_p_zero():
    rng = np.random.default_rng(4)
    y = rng.standard_normal((10, 2, 2)) + 0j
    out, mask = inject_frame_loss(y, 0.0, 0)
    assert not mask.any()
    assert_array_equal(out, y)


def test_frame_loss_binomial_bound():
    y = np.ones((3000, 2, 2), dtype=complex)
    _, mask = inject_frame_loss(y, 0.1, 0)
    assert 230 <= int(mask.sum()) <= 370


def test_frame_loss_zeroes_lost_snapshots():
    y = np.ones((200, 2, 2), dtype=complex)
    out, mask = inject_frame_loss(y, 0.3, 1)
    assert mask.any()
    assert np.all(out[mask] == 0)
    assert_array_equal(out[~mask], y[~mask])


@given(p=st.floats(0.0, 0.49), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_frame_loss_never_hits_boundaries(p, seed):
    y = np.ones((30, 1, 1), dtype=complex)
    _, mask = inject_frame_loss(y, p, seed)
    assert not mask[0] and not mask[-1]


# ------------------------------------------------------- whole-record ops


def test_composition_identity_rf_high_snr():
    cfg = small_cfg(t=20)
    h = generate_channel(cfg, Activity.ROTATE)
    rf = RfChainModel(d=np.ones(8), phi=np.zeros(8), eta=np.zeros((8, 4)))
    out = add_noise(apply_rf_chain(h, rf), 300.0, 5)
    assert_allclose(out, h, rtol=1e-10)


def test_effective_snr_scenario_semantics():
    # snr_db references the scattered field against an absolute noise
    # floor: the dominant path lifts the LOS tensor-wide ratio by 1+K,
    # the obstruction drops the NLOS one by its loss.
    los = small_cfg(scenario="LOS", snr_db=20.0)
    nlos = small_cfg(scenario="NLOS", snr_db=20.0)
    k_lin = 10.0 ** (RICIAN_K_DB / 10.0)
    assert effective_snr_db(los) == pytest.approx(
        20.0 + 10.0 * np.log10(1.0 + k_lin), abs=1e-12
    )
    assert effective_snr_db(nlos) == 20.0 - NLOS_OBSTRUCTION_LOSS_DB
    assert effective_snr_db(los) > effective_snr_db(nlos)


@pytest.mark.parametrize("scenario", ["LOS", "NLOS"])
def test_simulate_record_noise_sits_at_effective_snr(scenario):
    # Sample-statistics oracle: subtract the noiseless composition and
    # compare the empirical noise power with the effective-SNR target
    # (12800 entries => relative sampling error well under 5%).
    cfg = small_cfg(t=200, f=8, m=8, snr_db=10.0, scenario=scenario, seed=3)
    clean = apply_rf_chain(generate_channel(cfg, Activity.STATIC), draw_rf_chain(cfg))
    rec = simulate_record(cfg, Activity.STATIC)
    p_signal = np.mean(np.abs(clean) ** 2)
    p_noise = np.mean(np.abs(rec.tensor - clean) ** 2)
    expected = p_signal * 10.0 ** (-effective_snr_db(cfg) / 10.0)
    assert 0.95 <= p_noise / expected <= 1.05


def test_simulate_record_reproducible():
    cfg = small_cfg(t=30, frame_loss_prob=0.05, seed=9)
    r1 = simulate_record(cfg, Activity.PERIODIC)
    r2 = simulate_record(cfg, Activity.PERIODIC)
    assert_array_equal(r1.tensor, r2.tensor)
    assert_array_equal(r1.mask, r2.mask)
    assert r1.label == r2.label == Activity.PERIODIC


def test_record_round_trip(tmp_path):
    cfg = small_cfg(t=30, frame_loss_prob=0.1, seed=11, scenario="NLOS")
    rec = simulate_record(cfg, Activity.RANDOM)
    path = tmp_path / "rec.mmt3"
    save_record(path, rec)
    back = load_record(path)
    assert_array_equal(back.tensor, rec.tensor)
    assert_array_equal(back.mask, rec.mask)
    assert back.label == rec.label
    assert back.manifest == rec.manifest


def test_load_record_missing_sidecar(tmp_path):
    rec = simulate_record(small_cfg(t=10), Activity.STATIC)
    path = tmp_path / "rec.mmt3"
    save_record(path, rec)
    (tmp_path / "rec.json").unlink()
    with pytest.raises(DataError):
        load_record(path)


def test_load_record_corrupt_sidecar(tmp_path):
    rec = simulate_record(small_cfg(t=10), Activity.STATIC)
    path = tmp_path / "rec.mmt3"
    save_record(path, rec)
    (tmp_path / "rec.json").write_text("{not json")
    with pytest.raises(DataError):
        load_record(path)


def test_load_record_dim_disagreement(tmp_path):
    import json

    rec = simulate_record(small_cfg(t=10), Activity.STATIC)
    path = tmp_path / "rec.mmt3"
    save_record(path, rec)
    sidecar = json.loads((tmp_path / "rec.json").read_text())
    sidecar["sim"]["t"] += 1
    (tmp_path / "rec.json").write_text(json.dumps(sidecar))
    with pytest.raises(DataError, match="does not match manifest"):
        load_record(path)


@pytest.mark.parametrize("run", [[0, 1], [7, 3]], ids=["first", "last"])
def test_load_record_rejects_boundary_lost_run(tmp_path, run):
    import json

    rec = simulate_record(small_cfg(t=10), Activity.STATIC)
    path = tmp_path / "rec.mmt3"
    save_record(path, rec)
    sidecar = json.loads((tmp_path / "rec.json").read_text())
    sidecar["lost_runs"] = [run]
    (tmp_path / "rec.json").write_text(json.dumps(sidecar))
    with pytest.raises(DataError, match="invalid lost-frame run"):
        load_record(path)


def _old_layout(sidecar):
    sim = sidecar.pop("sim")
    sidecar["dims"] = [sim.pop(k) for k in ("t", "f", "m")]
    sidecar.update(sim, carrier_hz=3.7e9)


@pytest.mark.parametrize(
    "edit",
    [
        lambda s: s["sim"].update(carrier_hz=3.7e9),
        _old_layout,
        lambda s: s["sim"].update(snapshot_interval=0.01, n_paths=8),
    ],
    ids=["unknown-sim-key", "old-layout", "channel-constant-key"],
)
def test_load_record_rejects_foreign_sidecar(tmp_path, edit):
    import json

    rec = simulate_record(small_cfg(t=10), Activity.STATIC)
    path = tmp_path / "rec.mmt3"
    save_record(path, rec)
    sidecar = json.loads((tmp_path / "rec.json").read_text())
    edit(sidecar)
    (tmp_path / "rec.json").write_text(json.dumps(sidecar))
    with pytest.raises(DataError, match="invalid sidecar"):
        load_record(path)


# ------------------------------------------------------------- SimConfig


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(t=0, f=1, m=1)
    with pytest.raises(ValueError):
        SimConfig(t=1, f=1, m=1, frame_loss_prob=0.5)
    with pytest.raises(ValueError):
        SimConfig(t=1, f=1, m=1, scenario="INDOOR")


def test_sim_config_immutable():
    cfg = small_cfg()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.t = 99


# sha256 of the .mmt3 file of small records, recorded when the snapshot
# interval, path count and Rician K were still SimConfig fields with
# defaults 0.01 s, 8 and 10 dB.  PERIODIC reads the snapshot interval,
# LOS reads K, and RANDOM's phase walk draws one step per path, so the
# three cases pin each channel constant to that default.
@pytest.mark.parametrize(
    "scenario, kind, seed, digest",
    [
        ("LOS", "PERIODIC", 11,
         "9d01f0596379e245997741d5b9d930820f3993c825ddd3e7383e54624ab7acc5"),
        ("NLOS", "RANDOM", 12,
         "2eb8312c396c8b813a13cb458928b174f78dab47bc73bbed02a8cd66d73ba7d0"),
        ("LOS", "ROTATE_SHIFT", 13,
         "01af7e8f7afc1e903cc817df1add37d61dfc3dc5627d8f525ed19634c965cf9c"),
    ],
    ids=["LOS-PERIODIC", "NLOS-RANDOM", "LOS-ROTATE_SHIFT"],
)
def test_record_golden_hash(tmp_path, scenario, kind, seed, digest):
    cfg = SimConfig(t=60, f=4, m=8, scenario=scenario, seed=seed)
    path = tmp_path / "rec.mmt3"
    save_record(path, simulate_record(cfg, Activity[kind]))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
