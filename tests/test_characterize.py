import math
from dataclasses import replace

import numpy as np
import pytest

from unicsim import (
    AcquisitionConfig,
    DetectorConfig,
    SourceConfig,
    TdcSpec,
    afterpulse_probability,
    charge_from_photocurrent,
    count_rate_vs_flux,
    efficiency_at_afterpulse,
    efficiency_sweep,
    expected_afterpulses,
    get_preset,
    net_efficiency,
    renewal_clicks_per_gate,
    run_characterization,
)
from unicsim.apd import _CHUNK
from unicsim.characterize import (
    SweepPoint,
    SweepResult,
    _characterize_streams,
    read_run_report,
    read_sweep_csv,
    write_run_report,
    write_sweep_csv,
)

ACQ0 = AcquisitionConfig(tdc=TdcSpec(resolution=1e-12, dead_time=0.0))


# ---------------------------------------------------------------------------
# Estimators
# ---------------------------------------------------------------------------

def test_afterpulse_probability_arithmetic():
    assert afterpulse_probability(0.02, 2e-5, 4e-6, 125) == pytest.approx(
        (2e-5 - 4e-6) * 125 / (0.02 - 2e-5), rel=1e-12
    )
    assert afterpulse_probability(0.02, 2e-5, 4e-6, 125) == pytest.approx(0.1001, abs=1e-4)


def test_afterpulse_probability_no_excess_counts():
    assert afterpulse_probability(0.02, 4e-6, 4e-6, 125) == 0.0


def test_afterpulse_probability_errors():
    with pytest.raises(ValueError, match="no net photon signal"):
        afterpulse_probability(1e-5, 2e-5, 1e-6, 125)
    # p_ni below p_d is reported as a signed, negative excess
    assert afterpulse_probability(0.02, 1e-6, 2e-6, 125) == (1e-6 - 2e-6) * 125 / (0.02 - 1e-6)
    assert afterpulse_probability(0.02, 1e-6, 2e-6, 125) == pytest.approx(-0.00625031, rel=1e-6)
    with pytest.raises(ValueError, match="r must"):
        afterpulse_probability(0.02, 2e-5, 1e-6, 0)


def test_net_efficiency_arithmetic():
    expected = math.log((1.0 - 1e-5) / (1.0 - 0.0211)) / 0.1
    assert net_efficiency(0.0211, 1e-5, 0.1) == pytest.approx(expected, rel=1e-12)
    assert net_efficiency(0.0211, 1e-5, 0.1) == pytest.approx(0.213158, abs=1e-6)


def test_net_efficiency_trivial_and_small_signal():
    assert net_efficiency(0.02, 0.02, 0.1) == 0.0
    assert net_efficiency(1e-4, 0.0, 0.1) == pytest.approx(1e-3, rel=1e-4)


def test_net_efficiency_errors():
    with pytest.raises(ValueError):
        net_efficiency(1.0, 0.0, 0.1)
    with pytest.raises(ValueError):
        net_efficiency(0.02, 0.03, 0.1)
    with pytest.raises(ValueError):
        net_efficiency(0.02, 0.01, 0.0)


# ---------------------------------------------------------------------------
# Characterization runs
# ---------------------------------------------------------------------------

def test_run_characterization_recovers_configured_efficiency():
    det = DetectorConfig(eta_gate=0.25, dark_per_gate=0.0, traps_per_avalanche=0.0)
    src = SourceConfig(mode="pulsed", laser_rate=1e7, mu=0.1, illuminated_gate_phase=5)
    report = run_characterization(det, src, ACQ0, n_gates=12_500_000, seed=101)
    assert report.p_a == 0.0  # p_ni == p_d == 0: no excess
    assert report.p_ni == 0.0 and report.p_d == 0.0
    assert abs(report.eta_net - 0.25) <= 3 * report.eta_net_sigma
    assert report.r == 125 and report.mu == 0.1


def test_run_characterization_requires_pulsed_source():
    det = DetectorConfig()
    src = SourceConfig(mode="cw_carved", laser_rate=1.25e9, mu=0.5)
    with pytest.raises(ValueError, match="pulsed"):
        run_characterization(det, src, ACQ0, n_gates=10_000, seed=1)
    with pytest.raises(ValueError, match="10 \\* R"):
        run_characterization(det, SourceConfig(), ACQ0, n_gates=100, seed=1)


def test_run_characterization_afterpulse_vs_label_oracle():
    det = DetectorConfig(eta_gate=0.25, dark_per_gate=1e-6, traps_per_avalanche=2.0,
                         detrap_tau=2e-9, p_trigger=0.1)
    src = SourceConfig(mode="pulsed", laser_rate=1e7, mu=0.1, illuminated_gate_phase=5)
    report, on = _characterize_streams(det, src, ACQ0, 250_000_000, seed=303)
    counts = on.counts
    label_ratio = counts["afterpulse"] / counts["photon"]
    assert abs(report.p_a - label_ratio) <= 3 * report.p_a_sigma
    # the estimator also lands near the closed-form trap expectation
    assert report.p_a == pytest.approx(expected_afterpulses(det), rel=0.2)


def test_run_characterization_afterpulses_masked_by_dead_time():
    # a 2 ns TDC dead time hides the afterpulses of the next two gates (0.8 ns
    # apart), so p_a estimates A exp(-2 T / tau), about 45% of A
    det = get_preset("apd1_minus30C")
    src = SourceConfig(mode="pulsed", laser_rate=1e7, mu=0.1, illuminated_gate_phase=5)
    acq = AcquisitionConfig(tdc=TdcSpec(resolution=1e-12, dead_time=2e-9))
    report = run_characterization(det, src, acq, n_gates=250_000_000, seed=2027)
    masked = expected_afterpulses(det, dead_time=2e-9)
    assert masked == pytest.approx(0.449329 * expected_afterpulses(det), rel=1e-5)
    assert abs(report.p_a - masked) <= 3 * report.p_a_sigma
    assert abs(report.p_a - expected_afterpulses(det)) > 3 * report.p_a_sigma


def test_report_recomputable_and_roundtrip(tmp_path):
    det = DetectorConfig(eta_gate=0.3, dark_per_gate=1e-6, traps_per_avalanche=1.0,
                         detrap_tau=2e-9, p_trigger=0.1)
    src = SourceConfig(mode="pulsed", laser_rate=1e7, mu=0.1, illuminated_gate_phase=2)
    report = run_characterization(det, src, ACQ0, n_gates=25_000_000, seed=7)
    # stored inputs regenerate the derived quantities exactly
    assert report.eta_net == net_efficiency(report.p_i, report.p_ni, report.mu)
    if report.p_a > 0:
        assert report.p_a == afterpulse_probability(report.p_i, report.p_ni, report.p_d, report.r)
    assert report.p_i == report.clicks_illuminated / report.n_gates_illuminated
    assert report.p_ni == report.clicks_non_illuminated / report.n_gates_non_illuminated

    path = tmp_path / "report.json"
    write_run_report(path, report)
    assert read_run_report(path) == report


def test_interval_scaling_with_gate_count():
    det = DetectorConfig(eta_gate=0.25, dark_per_gate=0.0, traps_per_avalanche=0.0)
    src = SourceConfig(mode="pulsed", laser_rate=1e7, mu=0.1, illuminated_gate_phase=5)
    r1 = run_characterization(det, src, ACQ0, n_gates=5_000_000, seed=11)
    r2 = run_characterization(det, src, ACQ0, n_gates=20_000_000, seed=11)
    assert r2.eta_net_sigma == pytest.approx(0.5 * r1.eta_net_sigma, rel=0.1)
    assert r2.p_i_sigma == pytest.approx(0.5 * r1.p_i_sigma, rel=0.1)


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

def _trap_det(eta, traps):
    return DetectorConfig(eta_gate=eta, dark_per_gate=1e-6, traps_per_avalanche=traps,
                          detrap_tau=2e-9, p_trigger=0.1)


def test_efficiency_sweep_monotone_and_deterministic():
    src = SourceConfig(mode="pulsed", laser_rate=1e7, mu=0.1, illuminated_gate_phase=5)
    scenarios = [
        ("low", _trap_det(0.10, 0.7)),
        ("low_dup", _trap_det(0.10, 0.7)),
        ("high", _trap_det(0.30, 2.1)),
    ]
    sweep = efficiency_sweep(scenarios, src, ACQ0, n_gates=100_000_000, seed=77)
    low, dup, high = sweep.points
    # identical scenarios give identical points apart from the label
    assert (low.eta_net, low.p_a, low.p_d, low.rate_hz) == (dup.eta_net, dup.p_a, dup.p_d, dup.rate_hz)
    # afterpulsing rises with detection efficiency
    assert high.eta_net > low.eta_net
    assert high.p_a > low.p_a


def test_sweeps_do_not_depend_on_the_thread_count(monkeypatch):
    """Each run owns its generators, so threads sharing the sweep change nothing."""
    src = SourceConfig(mode="pulsed", laser_rate=1e7, mu=1.0, illuminated_gate_phase=5)
    scenarios = [(f"s{traps}", _trap_det(0.25, traps)) for traps in (0.5, 1.0, 2.0)]
    results = []
    for threads in ("1", "3"):
        monkeypatch.setenv("UNIC_SIM_THREADS", threads)
        results.append((count_rate_vs_flux(_trap_det(0.25, 1.0), AcquisitionConfig(), [0.1, 1.0, 3.0],
                                           2 * _CHUNK, 5),
                        efficiency_sweep(scenarios, src, ACQ0, 2 * _CHUNK, 5)))
    assert results[0] == results[1]


def test_efficiency_sweep_trap_scaling():
    src = SourceConfig(mode="pulsed", laser_rate=1e7, mu=0.1, illuminated_gate_phase=5)
    sweep = efficiency_sweep(
        [("x1", _trap_det(0.25, 1.0)), ("x2", _trap_det(0.25, 2.0))],
        src, ACQ0, n_gates=100_000_000, seed=55,
    )
    p1, p2 = sweep.points
    r1, r2 = sweep.reports
    sigma = math.sqrt(r2.p_a_sigma ** 2 + 4 * r1.p_a_sigma ** 2)
    assert abs(p2.p_a - 2 * p1.p_a) <= 3 * sigma


def test_efficiency_sweep_requires_two_scenarios():
    src = SourceConfig()
    with pytest.raises(ValueError, match="2 scenarios"):
        efficiency_sweep([("only", DetectorConfig())], src, ACQ0, 10_000, 1)


def test_efficiency_at_afterpulse_interpolation():
    sweep = SweepResult(points=(
        SweepPoint("a", 0.10, 0.004, 0.0, 0.1, 0.0, 0.0),
        SweepPoint("b", 0.20, 0.012, 0.0, 0.1, 0.0, 0.0),
    ))
    assert efficiency_at_afterpulse(sweep, 0.01) == pytest.approx(0.175, rel=1e-12)
    with pytest.raises(ValueError, match="outside"):
        efficiency_at_afterpulse(sweep, 0.001)
    with pytest.raises(ValueError, match="outside"):
        efficiency_at_afterpulse(sweep, 0.10)


def test_efficiency_at_afterpulse_recovers_calibrated_preset():
    # bias sweep around the -30C operating point: efficiency and trap count
    # rise together, putting the 1% afterpulse crossing at eta 0.212
    src = SourceConfig(mode="pulsed", laser_rate=1e7, mu=0.1, illuminated_gate_phase=5)
    scenarios = []
    for label, eta in (("low", 0.15), ("mid", 0.212), ("high", 0.28)):
        traps = 0.68066 * eta / 0.212
        scenarios.append((label, DetectorConfig(eta_gate=eta, dark_per_gate=5.4e-7,
                                                traps_per_avalanche=traps,
                                                detrap_tau=2e-9, p_trigger=0.1)))
    sweep = efficiency_sweep(scenarios, src, ACQ0, n_gates=100_000_000, seed=909)
    eta_at_1pct = efficiency_at_afterpulse(sweep, 0.010)
    assert eta_at_1pct == pytest.approx(0.212, abs=0.02)


def test_efficiency_at_afterpulse_monotone_in_target():
    sweep = SweepResult(points=(
        SweepPoint("a", 0.10, 0.004, 0.0, 0.1, 0.0, 0.0),
        SweepPoint("b", 0.20, 0.012, 0.0, 0.1, 0.0, 0.0),
        SweepPoint("c", 0.30, 0.030, 0.0, 0.1, 0.0, 0.0),
    ))
    targets = np.linspace(0.004, 0.030, 17)
    etas = [efficiency_at_afterpulse(sweep, t) for t in targets]
    assert all(b >= a for a, b in zip(etas, etas[1:]))


# ---------------------------------------------------------------------------
# Count rate and charge
# ---------------------------------------------------------------------------

def test_count_rate_vs_flux_small_signal_linearity():
    det = DetectorConfig(eta_gate=0.253, dark_per_gate=0.0, traps_per_avalanche=0.0)
    flux = [0.0079051, 0.0158103, 0.0316206]  # mu*eta = 0.002, 0.004, 0.008
    sweep = count_rate_vs_flux(det, ACQ0, flux, n_gates=20_000_000, seed=31)
    for p in sweep.points:
        ideal = det.f_g * p.flux * det.eta_gate
        assert p.rate_hz == pytest.approx(ideal, rel=0.02)


def test_count_rate_vs_flux_charge_recovery():
    det = DetectorConfig(eta_gate=0.253, dark_per_gate=0.0, traps_per_avalanche=0.0,
                         mean_charge=3.8e-14, charge_cv=0.3)
    sweep = count_rate_vs_flux(det, ACQ0, [3.0], n_gates=2_000_000, seed=37)
    p = sweep.points[0]
    n_clicks = p.rate_hz * (2_000_000 / det.f_g)
    q = charge_from_photocurrent(p.photocurrent_a, p.rate_hz)
    sigma = 0.3 * 3.8e-14 / math.sqrt(n_clicks)
    assert q == pytest.approx(3.8e-14, abs=3 * sigma)


@pytest.mark.parametrize("dead_time, flux, seed", [
    (2e-9, 3.0, 2028),     # the README's dead time: two whole gates hidden, about 303 MC/s
    (0.4e-9, 3.87, 2028),  # under one gate period, at the paper's 700 MC/s
    (2e-9, 30.0, 3030),    # saturated: nearly every gate clicks, about 416 MC/s
], ids=["2ns", "0.4ns", "saturated"])
def test_count_rate_vs_flux_matches_renewal_oracle(dead_time, flux, seed):
    # no traps and no dark counts: the renewal model is then the whole process
    det = replace(get_preset("apd1_minus30C"), traps_per_avalanche=0.0, dark_per_gate=0.0)
    acq = AcquisitionConfig(tdc=TdcSpec(resolution=1e-12, dead_time=dead_time))
    n = 12_500_000
    point = count_rate_vs_flux(det, acq, [flux], n, seed=seed).points[0]
    clicks = point.rate_hz / det.f_g * n
    model = renewal_clicks_per_gate(det, flux, dead_time)
    p, k = -math.expm1(-flux * det.eta_gate), math.floor(dead_time * det.f_g)
    sigma = math.sqrt(n * p * (1 - p) / (1 + k * p) ** 3)  # renewal counting noise
    assert abs(clicks - n * model) <= 3 * sigma


def test_renewal_clicks_per_gate_arithmetic():
    det = DetectorConfig(f_g=1.25e9, eta_gate=0.25)
    p = 1 - math.exp(-0.25)
    assert renewal_clicks_per_gate(det, 1.0, 0.0) == pytest.approx(p, rel=1e-12)
    assert renewal_clicks_per_gate(det, 1.0, 0.79e-9) == pytest.approx(p, rel=1e-12)
    assert renewal_clicks_per_gate(det, 1.0, 2e-9) == pytest.approx(p / (1 + 2 * p), rel=1e-12)


def test_count_rate_vs_flux_validation():
    det = DetectorConfig()
    with pytest.raises(ValueError, match="nondecreasing"):
        count_rate_vs_flux(det, ACQ0, [0.3, 0.1], 10_000, 1)
    with pytest.raises(ValueError, match="empty"):
        count_rate_vs_flux(det, ACQ0, [], 10_000, 1)


def test_charge_from_photocurrent():
    assert charge_from_photocurrent(26.6e-6, 7e8) == pytest.approx(38e-15, rel=1e-9)
    assert charge_from_photocurrent(0.0, 1e6) == 0.0
    with pytest.raises(ValueError):
        charge_from_photocurrent(1e-6, 0.0)


# ---------------------------------------------------------------------------
# Reported operating point, large run
# ---------------------------------------------------------------------------

def test_characterization_reproduces_low_afterpulse_operating_point():
    # eta 0.212, dark 5.4e-7, traps tuned for a 1.0% afterpulse probability
    det = DetectorConfig(eta_gate=0.212, dark_per_gate=5.4e-7, traps_per_avalanche=0.68066,
                         detrap_tau=2e-9, p_trigger=0.1)
    src = SourceConfig(mode="pulsed", laser_rate=1e7, mu=0.1, illuminated_gate_phase=5)
    report, on = _characterize_streams(det, src, ACQ0, 1_250_000_000, seed=404)
    label_ratio = on.counts["afterpulse"] / on.counts["photon"]
    assert abs(report.p_a - label_ratio) <= 3 * report.p_a_sigma
    assert report.p_a == pytest.approx(0.010, abs=3 * report.p_a_sigma + 5e-4)
    assert abs(report.eta_net - 0.212) <= 3 * report.eta_net_sigma
    assert abs(report.p_d - 5.4e-7) <= 3 * report.p_d_sigma


# ---------------------------------------------------------------------------
# Sweep CSV format
# ---------------------------------------------------------------------------

def test_sweep_csv_roundtrip(tmp_path):
    sweep = SweepResult(points=(
        SweepPoint("apd1_minus30C", 0.212, 0.01, 5.4e-7, 0.1, 2.1e5, 8.1e-9),
        SweepPoint("apd1_0C", 0.28, 0.008, 2.5e-6, 0.1, 2.8e5, 1.07e-8),
    ))
    path = tmp_path / "sweep.csv"
    write_sweep_csv(path, sweep)
    back = read_sweep_csv(path)
    assert back.points == sweep.points
