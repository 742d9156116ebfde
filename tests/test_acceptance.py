"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them while the suite executes)."""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest
import scipy.signal

from unicsim import (
    AcquisitionConfig,
    DetectorConfig,
    DiscriminatorSpec,
    GateWaveSpec,
    ImpulseSpec,
    SourceConfig,
    TdcSpec,
    Waveform,
    add_impulses,
    apply_response,
    cascade,
    count_rate_vs_flux,
    get_preset,
    histogram,
    metrics_grid,
    null_metrics,
    simulate,
    solve_unic_delay,
    synth_capacitive,
    tdc,
    unic_response,
)
from unicsim import discriminate
from unicsim.characterize import _characterize_streams

from conftest import F_G, chain_response, record_bin_grid, rel_rms

RATE = 40e9
ACQ0 = AcquisitionConfig(tdc=TdcSpec(resolution=1e-12, dead_time=0.0))


def _report(num: int, ok: bool, detail: str):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


# ---------------------------------------------------------------------------
# 1. Delay-condition solver reproduces the design point in under a millisecond
# ---------------------------------------------------------------------------

def test_criterion_1_design_point_solver():
    runtimes = []
    for _ in range(5):
        t0 = time.perf_counter()
        d = solve_unic_delay(33.845e-9, 1.25e9)
        runtimes.append(time.perf_counter() - t0)
    ok = (
        d.n == 42
        and d.delta_t == pytest.approx(155e-12, rel=1e-12)
        and min(runtimes) < 1e-3
    )
    _report(1, ok, f"n={d.n} delta_t={d.delta_t:.6g}s runtime={min(runtimes)*1e6:.1f}us")


# ---------------------------------------------------------------------------
# 2. Null depth and width of the balanced interference stage
# ---------------------------------------------------------------------------

def test_criterion_2_null_depth_and_width(saw, design):
    grid = metrics_grid()
    single = unic_response(design, saw, grid)
    m1 = null_metrics(single, F_G)
    m2 = null_metrics(cascade([single, single]), F_G)
    ok = (
        m1.depth_db >= 80.0
        and m2.depth_db >= 100.0
        and abs(m1.width_30db - 295e3) <= 0.02 * 295e3
    )
    _report(
        2,
        ok,
        f"single depth={m1.depth_db:.1f}dB cascade depth={m2.depth_db:.1f}dB "
        f"width={m1.width_30db/1e3:.1f}kHz (model value; the measured 30 kHz "
        f"linewidth needs dispersion beyond the constant-group-delay model)",
    )


# ---------------------------------------------------------------------------
# 3. Waveform pipeline: rejection, recovery and convolution cross-check
# ---------------------------------------------------------------------------

def test_criterion_3_waveform_pipeline(saw, design):
    t_start = time.perf_counter()
    duration = 10e-6
    n = int(duration * RATE)
    resp = chain_response(design, saw, record_bin_grid(RATE, 1 << 17), stages=2)

    period = 1.0 / F_G
    inject = np.arange(100, 12400, 100) * period
    w = synth_capacitive(GateWaveSpec(F_G, 0.42), duration, RATE)
    w = add_impulses(w, ImpulseSpec(fwhm=150e-12, peak=1e-3), inject)
    out = apply_response(w, resp)

    # residual background away from the avalanche impulses
    mask = np.ones(n, dtype=bool)
    for tc in inject:
        i = int(tc * RATE)
        mask[max(0, i - 40) : i + 160] = False
    bg_rms = float(np.sqrt(np.mean(out.samples[mask] ** 2)))

    # recovery at 5x background RMS, click delay calibrated on a lone pulse
    ref = add_impulses(Waveform(RATE, 0.0, np.zeros(1 << 16)),
                       ImpulseSpec(fwhm=150e-12, peak=1e-3), [8e-7])
    ref_clicks = discriminate(apply_response(ref, resp),
                              DiscriminatorSpec(threshold=5 * bg_rms, dead_time=2e-9))
    delay = ref_clicks[0] - 8e-7
    clicks = discriminate(out, DiscriminatorSpec(threshold=5 * bg_rms, dead_time=0.0))
    recovered = sum(
        bool(np.any(np.abs(clicks - (tc + delay)) <= 0.5e-9)) for tc in inject
    )

    # independent cross-check: scipy linear convolution with the sampled
    # impulse response, tail wrapped for circular semantics
    L = 1 << 17
    bins = np.arange(L // 2 + 1) * (RATE / L)
    f = resp.frequencies()
    h = np.fft.irfft(np.interp(bins, f, resp.values.real)
                     + 1j * np.interp(bins, f, resp.values.imag), L)
    y = scipy.signal.fftconvolve(w.samples, h)
    y[: L - 1] += y[n:]
    conv_err = rel_rms(out.samples, y[:n])

    elapsed = time.perf_counter() - t_start
    ok = (
        bg_rms <= 10e-6
        and recovered >= 0.5 * inject.size
        and conv_err < 1e-9
        and elapsed < 60.0
    )
    _report(
        3,
        ok,
        f"bg_rms={bg_rms:.3g}V recovered={recovered}/{inject.size} "
        f"conv_err={conv_err:.2e} elapsed={elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 4. Estimator consistency on >= 1e8 simulated gates
# ---------------------------------------------------------------------------

def test_criterion_4_estimator_consistency():
    t_start = time.perf_counter()
    src = SourceConfig(mode="pulsed", laser_rate=1e7, mu=0.1, illuminated_gate_phase=5)

    det_clean = DetectorConfig(eta_gate=0.25, dark_per_gate=0.0, traps_per_avalanche=0.0)
    report = _characterize_streams(det_clean, src, ACQ0, 125_000_000, seed=1001)[0]
    eta_ok = abs(report.eta_net - 0.25) <= 3 * report.eta_net_sigma

    det_trap = DetectorConfig(eta_gate=0.25, dark_per_gate=1e-6, traps_per_avalanche=2.0,
                              detrap_tau=2e-9, p_trigger=0.1)
    rep2, on = _characterize_streams(det_trap, src, ACQ0, 250_000_000, seed=1002)
    counts = on.counts
    label_ratio = counts["afterpulse"] / counts["photon"]
    pa_ok = abs(rep2.p_a - label_ratio) <= 3 * rep2.p_a_sigma

    elapsed = time.perf_counter() - t_start
    ok = eta_ok and pa_ok and elapsed < 300.0
    _report(
        4,
        ok,
        f"eta_net={report.eta_net:.5f}+/-{report.eta_net_sigma:.5f} (target 0.25), "
        f"p_a={rep2.p_a:.5f} label={label_ratio:.5f} sigma={rep2.p_a_sigma:.5f}, "
        f"elapsed={elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 5. Count-rate curve: saturation point and linear regime
# ---------------------------------------------------------------------------

def test_criterion_5_count_rate_curve():
    det = DetectorConfig(eta_gate=0.253, dark_per_gate=0.0, traps_per_avalanche=0.0)

    n_sat = 20_000_000
    sat = count_rate_vs_flux(det, ACQ0, [3.0], n_gates=n_sat, seed=501).points[0]
    p = 1.0 - math.exp(-3.0 * 0.253)
    expected = det.f_g * p
    sigma = det.f_g * math.sqrt(p * (1 - p) / n_sat)
    sat_ok = abs(sat.rate_hz - expected) <= 3 * sigma

    x_targets = [0.004, 0.008, 0.016, 0.032, 0.064, 0.0832]
    flux = [x / 0.253 for x in x_targets]
    pts = count_rate_vs_flux(det, ACQ0, flux, n_gates=40_000_000, seed=502).points
    rates = np.array([pt.rate_hz for pt in pts])
    assert rates.max() < 100e6
    # strict proportionality in the small-flux regime
    prop_dev = np.array([
        abs(pt.rate_hz - det.f_g * pt.flux * det.eta_gate) / (det.f_g * pt.flux * det.eta_gate)
        for pt in pts if pt.flux * det.eta_gate <= 0.032 + 1e-12
    ])
    # log-log straightness across every point below 100 MHz
    lx = np.log([pt.flux for pt in pts])
    ly = np.log(rates)
    a, b = np.polyfit(lx, ly, 1)
    loglog_dev = np.abs(np.exp(a * lx + b) - rates) / rates

    ok = sat_ok and prop_dev.max() <= 0.02 and loglog_dev.max() <= 0.02
    _report(
        5,
        ok,
        f"rate(mu=3)={sat.rate_hz/1e6:.2f}MHz (expected {expected/1e6:.2f}), "
        f"max proportional dev={prop_dev.max()*100:.2f}% (mu*eta<=0.032), "
        f"max log-log dev={loglog_dev.max()*100:.2f}% below 100 MHz",
    )


# ---------------------------------------------------------------------------
# 6. Avalanche charge recovered from photocurrent over rate
# ---------------------------------------------------------------------------

def test_criterion_6_charge_extraction():
    det = DetectorConfig(eta_gate=0.253, dark_per_gate=0.0, traps_per_avalanche=0.0,
                         mean_charge=38e-15, charge_cv=0.3)
    n_gates = 10_000_000
    pt = count_rate_vs_flux(det, ACQ0, [3.0], n_gates=n_gates, seed=601).points[0]
    q = pt.photocurrent_a / pt.rate_hz
    n_clicks = pt.rate_hz * n_gates / det.f_g
    sigma = det.charge_cv * det.mean_charge / math.sqrt(n_clicks)
    ok = abs(q - 38e-15) <= 3 * sigma
    _report(6, ok, f"charge={q*1e15:.4f}fC (target 38 fC, 3sigma={3*sigma*1e15:.4f}fC)")


# ---------------------------------------------------------------------------
# 7. Fold histogram: peak width and illuminated/non-illuminated contrast
# ---------------------------------------------------------------------------

def test_criterion_7_histogram():
    det = get_preset("apd1_minus30C")
    src = SourceConfig(mode="pulsed", laser_rate=1e7, mu=0.1, illuminated_gate_phase=5)
    n_gates = 50_000_000
    stream = simulate(det, src, n_gates, seed=701)
    ts = tdc(stream.time, TdcSpec(resolution=1e-12, dead_time=0.0))
    h = histogram(ts, period=100e-9, bin_width=1e-11)

    peak = int(np.argmax(h.bins))
    thr = h.bins[peak] / 1000.0
    lo = peak
    while lo - 1 >= 0 and h.bins[lo - 1] > thr:
        lo -= 1
    hi = peak
    while hi + 1 < h.n_bins and h.bins[hi + 1] > thr:
        hi += 1
    width = (hi - lo + 1) * h.bin_width

    # counts inside the illuminated gate period slot vs the mean of the others
    gate_bins = int(round(0.8e-9 / h.bin_width))
    half = gate_bins // 2
    window = np.zeros(h.n_bins, dtype=bool)
    window[peak - half : peak + half] = True
    ill_counts = int(h.bins[window].sum())
    other_mean = h.bins[~window].sum() / 124.0
    contrast = ill_counts / other_mean

    ok = width < 800e-12 and contrast >= 1000.0
    _report(7, ok, f"30dB width={width*1e12:.0f}ps contrast={contrast:.0f}x "
                   f"({ill_counts} illuminated-slot counts)")


# ---------------------------------------------------------------------------
# 8. Byte-identical reruns of every subcommand
# ---------------------------------------------------------------------------

def _run_cli(*args):
    return subprocess.run([sys.executable, "-m", "unicsim", *args],
                          capture_output=True, text=True)


def test_criterion_8_determinism(tmp_path):
    network = {
        "f_g": 1.25e9,
        "coupler_tap": 0.9,
        "stages": 2,
        "saw": {"f_center": 1.25e9, "passband_20db": 35e6, "insertion_loss": 3.0,
                "group_delay": 33.845e-9},
        "band_stop": {"f_center": 2.5e9, "depth": 10.0, "width_10db": 1e8},
        "spectrum": {"f_start": 1e8, "f_stop": 2.5e9, "coarse_step": 1e6,
                     "fine_step": 1e3, "fine_span": 2e6},
    }
    hot = {"eta_gate": 0.342, "dark_per_gate": 1e-6, "traps_per_avalanche": 2.0,
           "detrap_tau": 2e-9, "p_trigger": 0.1}
    base = {
        "seed": 808,
        "emit": ["csv", "json"],
        "network": network,
        "detector_preset": "apd1_minus30C",
        "source": {"mode": "pulsed", "laser_rate": 1e7, "mu": 0.1,
                   "illuminated_gate_phase": 5},
        "acquisition": {"tdc": {"resolution": 1e-12, "dead_time": 0.0}},
        "waveform": {"duration": 2e-7, "sample_rate": 4e10, "fundamental_amp": 0.42,
                     "harmonics": [[2, 0.084, 0.0]], "impulse_gate_stride": 50,
                     "impulse_peak": 1e-3, "impulse_fwhm": 1.5e-10, "noise_rms": 1e-6,
                     "filtered": True},
        "sweep": {"scenarios": ["apd1_minus30C", {"label": "hot", "detector": hot}]},
        "maxrate": {"flux_list": [0.1, 3.0]},
    }
    # gate counts sized per command so every estimator is statistically sound
    n_gates = {"simulate": 1_250_000, "characterize": 12_500_000,
               "sweep": 12_500_000, "maxrate": 1_250_000}

    mismatches = []
    for cmd in ("design", "spectrum", "waveform", "simulate", "characterize",
                "sweep", "maxrate"):
        cfg = dict(base)
        if cmd in n_gates:
            cfg["n_gates"] = n_gates[cmd]
        cfg_path = tmp_path / f"config_{cmd}.json"
        cfg_path.write_text(json.dumps(cfg))
        outs = []
        for run in ("a", "b"):
            out_dir = tmp_path / f"{cmd}_{run}"
            res = _run_cli(cmd, "-c", str(cfg_path), "--output-dir", str(out_dir))
            assert res.returncode == 0, f"{cmd}: {res.stderr}"
            outs.append({p.name: p.read_bytes() for p in sorted(out_dir.iterdir())})
        if outs[0] != outs[1]:
            mismatches.append(cmd)
    ok = not mismatches
    _report(8, ok, f"7 subcommands byte-identical across reruns"
                   + (f"; mismatches: {mismatches}" if mismatches else ""))
