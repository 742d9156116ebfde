import math
from dataclasses import replace

import numpy as np
import pytest

from unicsim import (
    DetectorConfig,
    DiscriminatorSpec,
    GateWaveSpec,
    ImpulseSpec,
    SourceConfig,
    TdcSpec,
    Waveform,
    add_impulses,
    add_noise,
    apply_response,
    classify,
    count_rate,
    discriminate,
    expected_click_prob,
    get_preset,
    histogram,
    simulate,
    synth_avalanche,
    synth_capacitive,
    tdc,
)
from unicsim import acquisition
from unicsim.acquisition import (
    _apply_dead_time,
    read_gate_counts_json,
    read_histogram_csv,
    read_timestamps_binary,
    write_gate_counts_json,
    write_histogram_csv,
    write_timestamps_binary,
)
from unicsim.apd import _CHUNK, simulate_blocks

from conftest import F_G, chain_response, record_bin_grid

RATE = 40e9


# ---------------------------------------------------------------------------
# Discriminator
# ---------------------------------------------------------------------------

def test_discriminate_silent_waveform():
    w = Waveform(RATE, 0.0, np.zeros(4096))
    assert discriminate(w, DiscriminatorSpec(threshold=1e-3)).size == 0


def test_discriminate_single_pulse_at_half_maximum():
    spec = ImpulseSpec(fwhm=400e-12, peak=10e-3, onset=5e-9)
    w = synth_avalanche(spec, rate=RATE)
    clicks = discriminate(w, DiscriminatorSpec(threshold=5e-3))
    assert clicks.size == 1
    # rising half-maximum of the Gaussian is onset - fwhm/2
    assert clicks[0] == pytest.approx(5e-9 - 200e-12, abs=1.0 / RATE)


def test_discriminate_dead_time_semantics():
    w = Waveform(RATE, 0.0, np.zeros(200))
    w = add_impulses(w, ImpulseSpec(fwhm=100e-12, peak=10e-3), [1e-9, 2e-9])
    assert discriminate(w, DiscriminatorSpec(threshold=5e-3, dead_time=2e-9)).size == 1
    assert discriminate(w, DiscriminatorSpec(threshold=5e-3, dead_time=0.5e-9)).size == 2


def test_discriminate_dead_time_monotonicity():
    rng = np.random.default_rng(31)
    w = Waveform(RATE, 0.0, rng.normal(0.0, 1.0, 65536))
    counts = [
        discriminate(w, DiscriminatorSpec(threshold=1.5, dead_time=d)).size
        for d in (0.0, 1e-10, 5e-10, 2e-9, 1e-8)
    ]
    assert all(a >= b for a, b in zip(counts, counts[1:]))


# ---------------------------------------------------------------------------
# TDC
# ---------------------------------------------------------------------------

def test_tdc_dead_time_example():
    out = tdc(np.array([0.0, 1.0e-9, 2.5e-9]), TdcSpec(resolution=1e-12, dead_time=2e-9))
    assert np.allclose(out, [0.0, 2.5e-9])


def _dead_time_reference(times, dead_time):
    """The earlier dead-time loop: keep a click, then jump past its window by bisection."""
    if dead_time <= 0 or times.size == 0:
        return times
    kept = []
    i = 0
    while i < times.size:
        t = times[i]
        kept.append(t)
        i = int(np.searchsorted(times, t + dead_time, side="left"))
    return np.asarray(kept)


def _clustered_times(seed, n):
    # Bursts of sub-dead-time gaps between long quiet gaps, on a 1 ps grid so
    # that some stamps coincide.
    rng = np.random.default_rng(seed)
    gaps = np.where(rng.random(n) < 0.7, rng.exponential(0.4e-9, n), rng.exponential(10e-9, n))
    return np.round(np.cumsum(gaps) / 1e-12) * 1e-12


UNIT = 2.0 ** -30  # ties at exactly one dead time are exact in binary
TIES = np.array([0.0, 2.0, 3.0, 4.0, 6.0, 6.0, 7.0, 8.5, 10.0]) * UNIT


@pytest.mark.parametrize("times,dead_time", [
    (_clustered_times(71, 200_000), 2e-9),
    (_clustered_times(72, 5_000), 0.7e-9),
    (TIES, 2.0 * UNIT),
    (np.array([1e-9]), 2e-9),
    (_clustered_times(73, 1_000), 0.0),
    (np.arange(10.0) * 3e-9, 2e-9),
], ids=["clustered", "clustered-short", "ties", "single", "no-dead-time", "no-overlap"])
@pytest.mark.parametrize("slice_len", [None, 7])
def test_dead_time_matches_reference_loop(times, dead_time, slice_len, monkeypatch):
    if slice_len is not None:
        monkeypatch.setattr(acquisition, "_DEAD_TIME_SLICE", slice_len)
    out = _apply_dead_time(times, dead_time)
    ref = _dead_time_reference(times, dead_time)
    assert out.dtype == ref.dtype == np.float64
    assert out.tobytes() == ref.tobytes()


def _dense_times(seed, n_gates, p_click=0.47):
    # A carved source: about half the 0.8 ns gates click (every gate at
    # saturation), with jitter, on the TDC's 1 ps grid; a 2 ns dead time spans
    # two to three gates.
    rng = np.random.default_rng(seed)
    gates = np.flatnonzero(rng.random(n_gates) < p_click)
    jitter = np.clip(rng.normal(0.0, 50e-12, gates.size), -75e-12, 75e-12)
    return np.round((gates * 0.8e-9 + jitter) / 1e-12) * 1e-12


def _dense_ties(seed, n):
    # Steps of 0, 1 or 2 dead-time halves: many gaps of exactly one dead time.
    rng = np.random.default_rng(seed)
    return np.cumsum(rng.integers(0, 3, n)) * UNIT


@pytest.mark.parametrize("times,dead_time", [
    (_dense_times(74, 300_000), 2e-9),
    (_dense_ties(75, 20_000), 2.0 * UNIT),
    (np.full(50, 1e-9), 2e-9),
    (_dense_times(76, 200_000, 1.0), 2e-9),
    (np.arange(100_000) * 0.8e-9, 2e-9),
    (np.sort(np.concatenate([_dense_times(77, 150_000), 1.3e-4 + _dense_times(78, 150_000, 1.0)])), 2e-9),
], ids=["dense", "dense-ties", "one-cluster", "saturated", "evenly-spaced", "dense-then-saturated"])
@pytest.mark.parametrize("slice_len", [None, 7, 64])
def test_dead_time_matches_reference_on_dense_streams(times, dead_time, slice_len, monkeypatch):
    # Slices of 7 and 64 cut through clusters, and through whole slices that
    # lie inside one click's window.
    if slice_len is not None:
        monkeypatch.setattr(acquisition, "_DEAD_TIME_SLICE", slice_len)
    out = _apply_dead_time(times, dead_time)
    assert out.tobytes() == _dead_time_reference(times, dead_time).tobytes()


def test_dead_time_ties_at_window_end_are_kept():
    out = _apply_dead_time(TIES, 2.0 * UNIT)
    assert out.tolist() == [x * UNIT for x in (0.0, 2.0, 4.0, 6.0, 8.5)]


def test_tdc_quantization_round_half_even():
    spec = TdcSpec(resolution=10e-12, dead_time=0.0)
    assert tdc(np.array([1.2345e-9]), spec)[0] == pytest.approx(1.23e-9, rel=1e-12)
    # exact ties (power-of-two resolution) go to the even step count
    res = 2.0 ** -40
    spec2 = TdcSpec(resolution=res, dead_time=0.0)
    assert tdc(np.array([1.5 * res]), spec2)[0] == 2 * res
    assert tdc(np.array([2.5 * res]), spec2)[0] == 2 * res


# Three whole blocks and a partial one, so every stream crosses three block edges.
EDGE_N_GATES = 3 * _CHUNK + 12_345
EDGE_DET = get_preset("apd1_minus30C")


@pytest.mark.parametrize("det, src", [
    (EDGE_DET, SourceConfig(mode="cw_carved", laser_rate=1.25e9, mu=3.0)),
    # saturated: no gap reaches the dead time, so clusters cross the block edges
    (EDGE_DET, SourceConfig(mode="cw_carved", laser_rate=1.25e9, mu=30.0)),
    (replace(EDGE_DET, traps_per_avalanche=2.0),
     SourceConfig(mode="pulsed", laser_rate=1e7, mu=0.5, illuminated_gate_phase=3)),
    # jitter-free at 1 GHz the 2 ns dead time is two periods, so a carried
    # window end ties with a stamp past a block edge, which must be kept
    (replace(EDGE_DET, f_g=1e9, jitter_sigma=0.0), SourceConfig(mode="cw_carved", laser_rate=1e9, mu=30.0)),
], ids=["carved", "saturated", "pulsed-traps", "ties"])
def test_block_tdc_matches_tdc_across_block_edges(det, src):
    spec = TdcSpec(resolution=1e-12, dead_time=2e-9)
    tdc_block = acquisition._block_tdc(spec)
    kept = np.concatenate([tdc_block(time) for _, time, _, _ in simulate_blocks(det, src, EDGE_N_GATES, seed=5)])
    assert np.array_equal(kept, tdc(simulate(det, src, EDGE_N_GATES, seed=5).time, spec))


def test_tdc_empty_and_unsorted():
    spec = TdcSpec()
    assert tdc(np.array([]), spec).size == 0
    with pytest.raises(ValueError, match="sorted"):
        tdc(np.array([2e-9, 1e-9]), spec)


# ---------------------------------------------------------------------------
# Histogram
# ---------------------------------------------------------------------------

def test_histogram_single_bin():
    ts = np.arange(10) * 100e-9
    h = histogram(ts, period=100e-9, bin_width=1e-9)
    assert h.bins[0] == 10
    assert h.bins.sum() == 10
    assert np.count_nonzero(h.bins) == 1


def test_histogram_uniform_counts_within_3_sigma():
    rng = np.random.default_rng(17)
    ts = np.sort(rng.uniform(0.0, 1e-3, 1_000_000))
    h = histogram(ts, period=1e-4, bin_width=1e-6)
    assert h.n_bins == 100
    expected = 10_000
    sigma = math.sqrt(expected)
    assert np.all(np.abs(h.bins - expected) <= 3 * sigma)
    assert h.bins.sum() == 1_000_000


def test_histogram_conservation_property():
    rng = np.random.default_rng(23)
    ts = rng.uniform(0.0, 5e-4, 12345)
    for bin_width in (1e-6, 2e-6, 5e-6, 1e-5):
        assert histogram(ts, period=1e-4, bin_width=bin_width).bins.sum() == ts.size


def test_histogram_validation():
    with pytest.raises(ValueError, match="period"):
        histogram(np.array([0.0]), period=0.0, bin_width=1e-9)
    with pytest.raises(ValueError, match="exceed"):
        histogram(np.array([0.0]), period=1e-9, bin_width=2e-9)
    with pytest.raises(ValueError, match="divide"):
        histogram(np.array([0.0]), period=1e-7, bin_width=3e-9)


def test_histogram_pulsed_peak_width():
    det = DetectorConfig(eta_gate=0.25, dark_per_gate=1e-6, traps_per_avalanche=0.0,
                         jitter_sigma=5e-11)
    src = SourceConfig(mode="pulsed", laser_rate=1e7, mu=0.1, illuminated_gate_phase=5)
    s = simulate(det, src, 5_000_000, seed=41)
    ts = tdc(s.time, TdcSpec(resolution=1e-12, dead_time=0.0))
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
    assert width < 800e-12


# ---------------------------------------------------------------------------
# Gate classification
# ---------------------------------------------------------------------------

def test_classify_illuminated_only():
    period = 1.0 / F_G
    ts = np.arange(0, 1000, 125) * period
    gc = classify(ts, F_G, r=125, illuminated_index=0, n_gates=1000)
    assert gc.p_ni == 0.0
    assert gc.clicks_illuminated == 8
    assert gc.n_gates_illuminated == 8


def test_classify_every_illuminated_gate_clicked():
    period = 1.0 / F_G
    n_gates = 12_500
    ts = np.arange(3, n_gates, 125) * period
    gc = classify(ts, F_G, r=125, illuminated_index=3, n_gates=n_gates)
    assert gc.p_i == 1.0
    assert gc.p_ni == 0.0


def test_classify_at_most_one_click_per_gate():
    period = 1.0 / F_G
    ts = np.sort(np.array([5 * period, 5 * period + 1e-11, 5 * period - 1e-11]))
    gc = classify(ts, F_G, r=5, illuminated_index=0, n_gates=100)
    assert gc.clicks_illuminated == 1
    assert gc.clicks_non_illuminated == 0


def test_classify_against_generator_oracle():
    det = DetectorConfig(eta_gate=0.25, dark_per_gate=1e-6, traps_per_avalanche=0.0)
    src = SourceConfig(mode="pulsed", laser_rate=1e7, mu=0.1, illuminated_gate_phase=5)
    n_gates = 12_500_000
    s = simulate(det, src, n_gates, seed=13)
    gc = classify(s.time, det.f_g, 125, 5, n_gates)
    exp = expected_click_prob(det, src)
    sig_i = math.sqrt(exp.p_illuminated * (1 - exp.p_illuminated) / gc.n_gates_illuminated)
    sig_ni = math.sqrt(exp.p_non_illuminated / gc.n_gates_non_illuminated)
    assert gc.p_i == pytest.approx(exp.p_illuminated, abs=3 * sig_i)
    assert gc.p_ni == pytest.approx(exp.p_non_illuminated, abs=3 * sig_ni)


def test_classify_out_of_range_timestamp():
    period = 1.0 / F_G
    # gates -1 (non-illuminated) and n_gates (illuminated) lie outside the run
    # and count for nothing; gate 125 still counts
    gc = classify(np.array([-period, 125 * period, 1000 * period, 1.0]), F_G, r=125, illuminated_index=0,
                  n_gates=1000)
    assert (gc.clicks_illuminated, gc.clicks_non_illuminated) == (1, 0)
    assert gc.p_i == 1 / 8 and gc.p_ni == 0.0
    with pytest.raises(ValueError, match="illuminated_index"):
        classify(np.array([0.0]), F_G, r=125, illuminated_index=125, n_gates=1000)


def test_count_rate():
    assert count_rate(np.zeros(700), 1e-6) == pytest.approx(7e8)
    assert count_rate(np.array([]), 1.0) == 0.0
    with pytest.raises(ValueError):
        count_rate(np.array([0.0]), 0.0)


def test_count_rate_saturates_at_gate_rate():
    det = DetectorConfig(eta_gate=1.0, dark_per_gate=0.0, traps_per_avalanche=0.0)
    src = SourceConfig(mode="cw_carved", laser_rate=1.25e9, mu=50.0)
    n_gates = 125_000
    s = simulate(det, src, n_gates, seed=2)
    ts = tdc(s.time, TdcSpec(resolution=1e-12, dead_time=0.0))
    assert count_rate(ts, n_gates / det.f_g) == pytest.approx(1.25e9, rel=1e-9)


# ---------------------------------------------------------------------------
# Event-level vs waveform-level pipeline
# ---------------------------------------------------------------------------

def _chain_delay(resp, threshold):
    """Calibration: click delay of a lone reference pulse through the chain."""
    n = 1 << 16
    ref_time = n / RATE / 2
    w = add_impulses(Waveform(RATE, 0.0, np.zeros(n)), ImpulseSpec(fwhm=150e-12, peak=1e-3),
                     [ref_time])
    filtered = apply_response(w, resp)
    clicks = discriminate(filtered, DiscriminatorSpec(threshold=threshold, dead_time=2e-9))
    assert clicks.size == 1
    return clicks[0] - ref_time


def test_pipeline_equivalence_event_vs_waveform(saw, design):
    det = DetectorConfig(eta_gate=0.5, dark_per_gate=1e-4, traps_per_avalanche=0.0,
                         jitter_sigma=3e-11)
    r = 20
    src = SourceConfig(mode="pulsed", laser_rate=det.f_g / r, mu=1.0, illuminated_gate_phase=7)
    n_gates = 20_000
    stream = simulate(det, src, n_gates, seed=19)
    gc_event = classify(stream.time, det.f_g, r, 7, n_gates)

    # render the same events into the analog record and read them back out
    duration = n_gates / det.f_g
    gate = GateWaveSpec(det.f_g, 0.42)
    w = synth_capacitive(gate, duration, RATE)
    w = add_impulses(w, ImpulseSpec(fwhm=150e-12, peak=1e-3), stream.time)
    threshold = 5e-6
    w = add_noise(w, threshold / 5.0, seed=20)
    resp = chain_response(design, saw, record_bin_grid(RATE, 1 << 17), stages=2)
    filtered = apply_response(w, resp)

    offset = _chain_delay(resp, threshold)
    clicks = discriminate(filtered, DiscriminatorSpec(threshold=threshold, dead_time=4e-10))
    ts = tdc(clicks, TdcSpec(resolution=1e-12, dead_time=0.0))
    gc_wave = classify(ts, det.f_g, r, 7, n_gates, offset=offset)

    sig_i = math.sqrt(gc_event.p_i * (1 - gc_event.p_i) / gc_event.n_gates_illuminated)
    sig_ni = math.sqrt(max(gc_event.p_ni, 1e-9) / gc_event.n_gates_non_illuminated)
    assert gc_wave.p_i == pytest.approx(gc_event.p_i, abs=3 * max(sig_i, 1e-4))
    assert gc_wave.p_ni == pytest.approx(gc_event.p_ni, abs=3 * sig_ni + 1e-4)


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

def test_histogram_csv_roundtrip(tmp_path):
    h = histogram(np.array([0.0, 1e-9, 5e-8, 99e-9]), period=1e-7, bin_width=1e-9)
    path = tmp_path / "hist.csv"
    write_histogram_csv(path, h)
    starts, counts = read_histogram_csv(path)
    assert np.array_equal(counts, h.bins)
    assert starts[1] - starts[0] == pytest.approx(1e-9)


@pytest.mark.parametrize("row", ["1e-09,0,7", "1e-09"])
def test_histogram_csv_ragged_row_names_its_row(tmp_path, row):
    path = tmp_path / "hist.csv"
    path.write_text(f"bin_start_s,counts\r\n0.0,1\r\n{row}\r\n2e-09,3\r\n")
    with pytest.raises(ValueError, match=r"hist\.csv, row 3: expected 2 cells"):
        read_histogram_csv(path)


def test_timestamps_binary_roundtrip(tmp_path):
    ts = np.array([0.0, 1e-12, 2.5e-9, 1.0])
    path = tmp_path / "stamps.bin"
    write_timestamps_binary(path, ts)
    back = read_timestamps_binary(path)
    assert np.allclose(back, ts, atol=0.5e-12)


def test_gate_counts_json_roundtrip(tmp_path):
    gc = classify(np.array([0.0, 8e-10]), F_G, r=2, illuminated_index=0, n_gates=10)
    path = tmp_path / "gc.json"
    write_gate_counts_json(path, gc)
    assert read_gate_counts_json(path) == gc
