import math

import numpy as np
import pytest

from unicsim import (
    FrequencyGrid,
    GateWaveSpec,
    ImpulseSpec,
    TwoPortResponse,
    Waveform,
    add_impulses,
    add_noise,
    apply_response,
    block_response,
    null_metrics,
    metrics_grid,
    synth_avalanche,
    synth_capacitive,
    synth_record,
    unic_response,
)
from unicsim import waveform
from unicsim.network import Delay
from unicsim.waveform import (
    read_waveform_binary,
    read_waveform_csv,
    write_waveform_binary,
    write_waveform_csv,
)

from conftest import F_G, chain_response, record_bin_grid, rel_rms

RATE = 40e9


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", [0, 3, -1])
def test_waveform_rejects_non_finite_samples(bad, where):
    samples = np.linspace(-1.0, 1.0, 8)
    samples[where] = bad
    with pytest.raises(ValueError, match="finite"):
        Waveform(RATE, 0.0, samples)


def test_waveform_accepts_an_empty_record():
    assert len(Waveform(RATE, 0.0, np.empty(0))) == 0


# ---------------------------------------------------------------------------
# Synthesis
# ---------------------------------------------------------------------------

def test_capacitive_peak_to_peak():
    w = synth_capacitive(GateWaveSpec(F_G, 0.42), duration=1e-7, rate=RATE)
    assert w.samples.max() - w.samples.min() == pytest.approx(0.84, rel=1e-9)


def test_capacitive_zero_amplitude_is_silent():
    w = synth_capacitive(GateWaveSpec(F_G, 0.0), duration=1e-7, rate=RATE)
    assert np.all(w.samples == 0.0)


def test_capacitive_harmonic_spectrum_has_two_lines():
    spec = GateWaveSpec(F_G, 0.42, ((2, 0.084, 0.0),))
    w = synth_capacitive(spec, duration=1e-7, rate=RATE)  # 125 gate periods
    spectrum = np.abs(np.fft.rfft(w.samples))
    freqs = np.fft.rfftfreq(len(w), 1.0 / RATE)
    peaks = np.nonzero(spectrum > 1e-6 * spectrum.max())[0]
    assert set(np.round(freqs[peaks] / 1e9, 6)) == {1.25, 2.5}


def test_capacitive_preconditions():
    with pytest.raises(ValueError, match="10 gate periods"):
        synth_capacitive(GateWaveSpec(F_G, 0.1), duration=1e-9, rate=RATE)
    with pytest.raises(ValueError, match="Nyquist"):
        synth_capacitive(GateWaveSpec(F_G, 0.1, ((20, 0.01, 0.0),)), duration=1e-7, rate=RATE)


def test_avalanche_peak_and_area():
    spec = ImpulseSpec(fwhm=150e-12, peak=1e-3, onset=2e-9)
    w = synth_avalanche(spec, rate=RATE)
    assert w.samples.max() == pytest.approx(1e-3, rel=0.01)
    # quadrature oracle for the area identity peak * fwhm * 1.0645
    area_num = np.trapezoid(w.samples, dx=1.0 / RATE)
    assert spec.area == pytest.approx(1e-3 * 150e-12 * 1.0644670, rel=1e-6)
    assert area_num == pytest.approx(spec.area, rel=1e-3)
    assert spec.area == pytest.approx(1.597e-13, rel=1e-3)


def test_avalanche_onset_shift_moves_correlation_peak():
    a = synth_avalanche(ImpulseSpec(fwhm=150e-12, peak=1e-3, onset=2e-9), rate=RATE, duration=4e-9)
    b = synth_avalanche(ImpulseSpec(fwhm=150e-12, peak=1e-3, onset=2.1e-9), rate=RATE, duration=4e-9)
    xc = np.correlate(b.samples, a.samples, mode="full")
    lag = (np.argmax(xc) - (len(a) - 1)) / RATE
    assert lag == pytest.approx(100e-12, abs=1.0 / RATE)


def test_avalanche_unresolvable_pulse():
    with pytest.raises(ValueError, match="unresolvable"):
        synth_avalanche(ImpulseSpec(fwhm=150e-12, peak=1e-3), rate=1e10)


@pytest.mark.parametrize("harmonics", [
    (), ((2, 0.084, 0.0),), ((2, 0.084, 0.3), (3, 0.01, -1.0), (5, 2e-3, 2.0))], ids=["none", "one", "three"])
def test_synth_capacitive_equals_whole_array_reference(harmonics):
    spec = GateWaveSpec(F_G, 0.42, harmonics)
    assert synth_capacitive(spec, duration=2e-7, rate=RATE).samples.tobytes() == _synth_reference(spec, 8000).tobytes()


def test_gate_tones_are_no_further_from_the_exact_tones_than_np_sin():
    # f_g / rate = 1/32, so sample j of a tone of order k is periodic in j:
    # amp sin(2 pi (k j mod 32) / 32), with no large angle to reduce
    n = 1 << 20
    spec = GateWaveSpec(F_G, 0.42, ((2, 0.084, 0.0),))
    assert F_G / RATE == 1 / 32
    j, t = np.arange(n), np.arange(n) / RATE
    exact = 0.42 * np.sin(2.0 * np.pi * (j % 32) / 32) + 0.084 * np.sin(2.0 * np.pi * (2 * j % 32) / 32)
    direct = 0.42 * np.sin(2.0 * np.pi * F_G * t) + 0.084 * np.sin(2.0 * np.pi * 2 * F_G * t)
    got = synth_capacitive(spec, n / RATE, RATE).samples
    assert np.abs(got - exact).max() <= np.abs(direct - exact).max()


# ---------------------------------------------------------------------------
# Filtering
# ---------------------------------------------------------------------------

def test_apply_response_unity_identity():
    w = synth_capacitive(GateWaveSpec(F_G, 0.3), duration=2e-7, rate=RATE)
    grid = FrequencyGrid(0.0, RATE / 2, 4097)
    unity = TwoPortResponse(grid, np.ones(grid.n_points, dtype=complex))
    out = apply_response(w, unity)
    assert rel_rms(out.samples, w.samples) < 1e-9


def test_gating_tone_suppressed_by_two_stage_chain(saw, design):
    n = 1 << 17  # tone lands exactly on a record bin
    w = synth_capacitive(GateWaveSpec(F_G, 0.42), duration=n / RATE, rate=RATE)
    resp = chain_response(design, saw, record_bin_grid(RATE, n), stages=2, band_stop=False)
    out = apply_response(w, resp)
    assert out.rms() <= 1e-5 * w.rms()


def test_impulse_through_one_stage_vs_direct_convolution(saw, design):
    n = 8192
    w = synth_avalanche(ImpulseSpec(fwhm=150e-12, peak=1e-3, onset=30e-9), rate=RATE, duration=n / RATE)
    grid = record_bin_grid(RATE, n)
    resp = unic_response(design, saw, grid)
    out = apply_response(w, resp)

    # independent oracle: time-domain convolution with the sampled impulse
    # response, tail wrapped for circular semantics
    h = np.fft.irfft(resp.values, n)
    y = np.convolve(w.samples, h)
    y[: n - 1] += y[n:]
    assert rel_rms(out.samples, y[:n]) < 1e-9


def test_impulse_fidelity_through_one_stage(saw, design):
    n = 32768
    w = synth_avalanche(ImpulseSpec(fwhm=150e-12, peak=1e-3, onset=100e-9), rate=RATE, duration=n / RATE)
    resp = unic_response(design, saw, record_bin_grid(RATE, n))
    out = apply_response(w, resp)

    background_loss_db = null_metrics(unic_response(design, saw, metrics_grid()), F_G).background_loss_db
    peak_ratio_db = -20.0 * math.log10(out.samples.max() / w.samples.max())
    assert abs(peak_ratio_db - background_loss_db) <= 3.0

    def width_30db(s):
        thr = s.max() / 10 ** 1.5
        above = np.nonzero(s >= thr)[0]
        return (above[-1] - above[0]) / RATE

    assert width_30db(out.samples) <= 2.0 * width_30db(w.samples)


def _add_impulses_loop(w, spec, times):
    """`add_impulses` as one window per impulse, added in order: the reference."""
    y = w.samples.copy()
    n = y.size
    half = max(1, int(round(6.0 * spec.fwhm * w.sample_rate)))
    coeff = -4.0 * math.log(2.0) / spec.fwhm ** 2
    for tc in np.asarray(times, dtype=np.float64):
        c = (tc - w.t0) * w.sample_rate
        lo = max(0, int(c) - half)
        hi = min(n, int(c) + half + 1)
        if hi <= lo:
            continue
        t_rel = (np.arange(lo, hi) / w.sample_rate) + w.t0 - tc
        y[lo:hi] += spec.peak * np.exp(coeff * t_rel ** 2)
    return y


@pytest.mark.parametrize("case", ["strided", "overlapping", "edges"])
def test_add_impulses_matches_loop_reference_bytes(case, monkeypatch):
    rng = np.random.default_rng(11)
    n, t0 = 8000, 3e-9
    w = Waveform(RATE, t0, rng.standard_normal(n) * 1e-4)
    span = n / RATE
    times = {
        "strided": t0 + np.arange(0.0, span, 0.8e-9 * 50),
        # windows overlap heavily, in random order, so the order of the adds matters
        "overlapping": t0 + rng.uniform(-0.5e-9, span + 0.5e-9, 3000),
        # centres just inside and outside both ends, and far outside
        "edges": t0 + np.array([-2e-9, -1e-12, 0.0, 1e-12, span - 1e-12, span, span + 1e-12,
                                span + 2e-9, -1e6, 1e6]),
    }[case]
    spec = ImpulseSpec(fwhm=150e-12, peak=1e-3)
    want = _add_impulses_loop(w, spec, times)
    assert add_impulses(w, spec, times).samples.tobytes() == want.tobytes()
    # and when the impulses are placed a few at a time
    monkeypatch.setattr(waveform, "_BLOCK", 200)
    assert add_impulses(w, spec, times).samples.tobytes() == want.tobytes()


def test_add_impulses_rejects_non_finite_times():
    w = Waveform(RATE, 0.0, np.zeros(100))
    with pytest.raises(ValueError, match="finite"):
        add_impulses(w, ImpulseSpec(fwhm=150e-12, peak=1e-3), [1e-9, math.nan])


def test_apply_response_linearity(saw, design):
    n = 16384
    grid = record_bin_grid(RATE, n)
    resp = chain_response(design, saw, grid, stages=1)
    w1 = synth_capacitive(GateWaveSpec(F_G, 0.3), duration=n / RATE, rate=RATE)
    w2 = add_impulses(
        Waveform(RATE, 0.0, np.zeros(n)), ImpulseSpec(fwhm=150e-12, peak=1e-3), [50e-9, 150e-9]
    )
    a, b = 2.0, -0.7
    combined = Waveform(RATE, 0.0, a * w1.samples + b * w2.samples)
    lhs = apply_response(combined, resp).samples
    rhs = a * apply_response(w1, resp).samples + b * apply_response(w2, resp).samples
    assert rel_rms(lhs, rhs) < 1e-9


def _parseval_ratio(resp, n, h_window=None):
    """Response-weighted spectral energy ratio for a centered test impulse."""
    w = add_impulses(
        Waveform(RATE, 0.0, np.zeros(n)), ImpulseSpec(fwhm=150e-12, peak=1e-3), [n / RATE / 4]
    )
    out = apply_response(w, resp)
    # two-sided Parseval weights: DC and Nyquist bins count once
    weights = np.full(n // 2 + 1, 2.0)
    weights[0] = weights[-1] = 1.0
    x_spec = weights * np.abs(np.fft.rfft(w.samples)) ** 2
    f = resp.frequencies()
    if h_window is None:
        bins = np.arange(n // 2 + 1) * (RATE / n)
        h_bins = np.interp(bins, f, resp.values.real) + 1j * np.interp(bins, f, resp.values.imag)
    else:
        # DTFT of the sampled impulse response actually applied to long records
        bins_l = np.arange(h_window // 2 + 1) * (RATE / h_window)
        h_l = np.interp(bins_l, f, resp.values.real) + 1j * np.interp(bins_l, f, resp.values.imag)
        h_bins = np.fft.rfft(np.fft.irfft(h_l, h_window), n)
    expected = np.sum(x_spec * np.abs(h_bins) ** 2) / np.sum(x_spec)
    measured = np.sum(out.samples ** 2) / np.sum(w.samples ** 2)
    return measured, expected


def test_apply_response_parseval_short_record(saw, design):
    resp = chain_response(design, saw, record_bin_grid(RATE, 1 << 17), stages=2)
    measured, expected = _parseval_ratio(resp, 1 << 16)
    assert measured == pytest.approx(expected, rel=1e-6)


def test_apply_response_parseval_long_record(saw, design):
    # Records beyond the impulse-response window are filtered with the
    # sampled IR; energy bookkeeping against its transfer must stay exact.
    resp = chain_response(design, saw, record_bin_grid(RATE, 1 << 17), stages=2)
    measured, expected = _parseval_ratio(resp, 1 << 18, h_window=1 << 17)
    assert measured == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("shape", [(512, 512), (128, 64)])
def test_four_step_transform_equals_the_flat_fft(shape):
    rng = np.random.default_rng(11)
    x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    tw = waveform._twiddles(shape)
    z = x.copy()
    waveform._fft_in_place(z, tw)
    # bin k1 + rows * k2 at [k1, k2]
    want = np.fft.fft(x.reshape(-1)).reshape(shape[::-1]).T
    assert np.abs(z - want).max() <= 1e-12 * np.abs(want).max()
    # along axis 1 first, the scrambled order is transformed into row-major order
    z = x.reshape(shape[::-1]).T.copy()
    waveform._fft_in_place(z, tw, 1)
    want = np.fft.fft(x.reshape(-1)).reshape(shape)
    assert np.abs(z - want).max() <= 1e-12 * np.abs(want).max()


L_IR = waveform.DEFAULT_IR_LENGTH


@pytest.mark.parametrize("n", [L_IR + 1, 2 * L_IR, 3 * L_IR - 1, 2 * L_IR + 1, 4 * L_IR, 5 * L_IR - 1],
                         ids=["one-sample last segment", "2 segments", "3 segments",
                              "one-sample last pair", "whole pairs", "odd segments, the last one short"])
def test_overlap_add_equals_whole_record_fft(n, saw, design):
    # the oracle: one FFT of the whole record, with the 2**17-tap impulse
    # response that _filtered samples from the chain response
    w = Waveform(RATE, 0.0, np.random.default_rng(7).normal(0.0, 1e-3, n))
    resp = chain_response(design, saw, record_bin_grid(RATE, 1 << 17), stages=2)
    L = waveform.DEFAULT_IR_LENGTH
    h = np.fft.irfft(waveform._interp_response(resp, np.arange(L // 2 + 1) * (RATE / L)), L)
    want = np.fft.irfft(np.fft.rfft(w.samples) * np.fft.rfft(h, n), n)
    assert rel_rms(apply_response(w, resp).samples, want) < 1e-9


@pytest.mark.parametrize("n", [L_IR + 1, 2 * L_IR + 1, 5 * L_IR - 1])
def test_filtered_pieces_cover_every_sample_once(n, saw, design):
    resp = chain_response(design, saw, record_bin_grid(RATE, 1 << 17), stages=2)
    x = np.random.default_rng(8).normal(0.0, 1e-3, n)
    hits = np.zeros(n, dtype=np.int64)
    for start, p in waveform._filtered(waveform._slicer(x), n, RATE, resp):
        assert 0 <= start and start + p.size <= n
        hits[start:start + p.size] += 1
    assert np.all(hits == 1)


def test_apply_response_grid_coverage_error(saw, design):
    w = synth_capacitive(GateWaveSpec(F_G, 0.1), duration=1e-7, rate=RATE)
    resp = unic_response(design, saw, FrequencyGrid(1e8, 2e9, 1001))
    with pytest.raises(ValueError, match="coverage"):
        apply_response(w, resp)


def test_group_delay_shifts_pulse():
    n = 8192
    w = synth_avalanche(ImpulseSpec(fwhm=150e-12, peak=1e-3, onset=20e-9), rate=RATE, duration=n / RATE)
    grid = record_bin_grid(RATE, n)
    out = apply_response(w, block_response(Delay(t=5e-9), grid))
    shift = (np.argmax(out.samples) - np.argmax(w.samples)) / RATE
    assert shift == pytest.approx(5e-9, abs=1.0 / RATE)


# ---------------------------------------------------------------------------
# Noise
# ---------------------------------------------------------------------------

def test_add_noise_zero_rms_identity():
    w = synth_capacitive(GateWaveSpec(F_G, 0.1), duration=1e-7, rate=RATE)
    out = add_noise(w, 0.0, seed=1)
    assert np.array_equal(out.samples, w.samples)


def test_add_noise_std_and_determinism():
    w = Waveform(RATE, 0.0, np.zeros(1_000_000))
    a = add_noise(w, 1e-3, seed=123)
    b = add_noise(w, 1e-3, seed=123)
    c = add_noise(w, 1e-3, seed=124)
    assert np.array_equal(a.samples, b.samples)
    assert not np.array_equal(a.samples, c.samples)
    assert np.std(a.samples) == pytest.approx(1e-3, rel=5e-3)


def test_add_noise_negative_rms_rejected():
    w = Waveform(RATE, 0.0, np.zeros(16))
    with pytest.raises(ValueError):
        add_noise(w, -1.0, seed=0)


@pytest.mark.parametrize("rms", [math.nan, math.inf, -1.0])
@pytest.mark.parametrize("make", [
    lambda rms: add_noise(Waveform(RATE, 0.0, np.zeros(16)), rms, seed=0),
    lambda rms: synth_record(GateWaveSpec(F_G, 0.42), 1e-8, RATE, noise_rms=rms),
], ids=["add_noise", "synth_record"])
def test_noise_rms_must_be_finite_and_non_negative(make, rms):
    with pytest.raises(ValueError, match="rms must be finite and >= 0"):
        make(rms)


# ---------------------------------------------------------------------------
# Segment by segment: the same samples as the whole-record calls
# ---------------------------------------------------------------------------

GATE_SPECS = [GateWaveSpec(F_G, 0.42), GateWaveSpec(F_G, 0.42, ((2, 0.084, 0.0),)),
              GateWaveSpec(F_G, 0.42, ((2, 0.084, 0.3), (3, 0.02, -1.0)))]
IMPULSE = ImpulseSpec(fwhm=150e-12, peak=1e-3)
N_SEGMENTED = 20_001  # 1000-sample segments or blocks, the last one a single sample
# (segment, block): block edges on the segment edges, then inside each read
SEGMENT_BLOCKS = [(1000, waveform._BLOCK), (waveform._SEGMENT, 1000)]


def _synth_reference(spec, n):
    """The gate response computed on the whole record at once: sample
    j = a + r, a a multiple of 2**13, of a tone (order, amp, phase) is
    amp * (sin(t_a) cos(r w) + cos(t_a) sin(r w)), each angle 2 pi times its
    turns modulo 1, t_a plus the phase."""
    anchor = 1 << 13
    a, r = np.divmod(np.arange(n), anchor)
    y = np.zeros(n)
    for order, amp, phase in ((1, spec.fundamental_amp, 0.0),) + spec.harmonics:
        turns = order * spec.f_g / RATE
        rw = 2.0 * np.pi * (np.arange(anchor) * turns % 1.0)
        t_a = 2.0 * np.pi * (np.arange(a[-1] + 1) * anchor * turns % 1.0) + phase
        sin_a = np.array([math.sin(t) for t in t_a])
        cos_a = np.array([math.cos(t) for t in t_a])
        y += np.cos(rw)[r] * (amp * sin_a)[a] + np.sin(rw)[r] * (amp * cos_a)[a]
    return y


def _philox_normal(seed, rms, n):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed))).normal(0.0, rms, n)


@pytest.mark.parametrize("segment", [1000, waveform._SEGMENT])
@pytest.mark.parametrize("spec", GATE_SPECS, ids=["fundamental", "one harmonic", "two harmonics"])
def test_synth_capacitive_by_segment_equals_whole_record(spec, segment, monkeypatch):
    monkeypatch.setattr(waveform, "_SEGMENT", segment)
    for block in (waveform._BLOCK, 1000):
        monkeypatch.setattr(waveform, "_BLOCK", block)
        w = synth_capacitive(spec, N_SEGMENTED / RATE, RATE)
        assert w.samples.tobytes() == _synth_reference(spec, N_SEGMENTED).tobytes(), block


@pytest.mark.parametrize("case", ["straddling", "overlapping unsorted", "edges"])
def test_impulses_by_segment_equal_whole_record_impulses(case, monkeypatch):
    rng = np.random.default_rng(12)
    span = N_SEGMENTED / RATE
    times = {
        # each 73-sample window cut by a segment edge at its own offset; the last by the record end
        "straddling": (np.arange(1000, 20_001, 1000) + np.arange(-38, 39, 4)) / RATE,
        "overlapping unsorted": rng.uniform(-0.5e-9, span + 0.5e-9, 3000),
        "edges": np.array([-2e-9, -1e-12, 0.0, 1e-12, span - 1e-12, span, span + 1e-12, span + 2e-9, 1e6]),
    }[case]
    spec = GATE_SPECS[1]
    want = _add_impulses_loop(Waveform(RATE, 0.0, _synth_reference(spec, N_SEGMENTED)), IMPULSE, times)
    for segment, block in SEGMENT_BLOCKS:
        monkeypatch.setattr(waveform, "_SEGMENT", segment)
        monkeypatch.setattr(waveform, "_BLOCK", block)
        got = synth_record(spec, span, RATE, impulse=IMPULSE, times=times)
        assert got.samples.tobytes() == want.tobytes(), (segment, block)


def test_noise_by_segment_equals_one_normal_call(monkeypatch):
    spec = GATE_SPECS[1]
    want = _synth_reference(spec, N_SEGMENTED) + _philox_normal(9, 1e-3, N_SEGMENTED)
    for segment, block in SEGMENT_BLOCKS:
        monkeypatch.setattr(waveform, "_SEGMENT", segment)
        monkeypatch.setattr(waveform, "_BLOCK", block)
        got = synth_record(spec, N_SEGMENTED / RATE, RATE, noise_rms=1e-3, seed=9)
        assert got.samples.tobytes() == want.tobytes(), (segment, block)
    w = Waveform(RATE, 0.0, _synth_reference(spec, N_SEGMENTED))
    assert add_noise(w, 1e-3, 9).samples.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [
    1 << 16,  # short record: its own bin grid
    200_001,  # overlap-add segments of 2**17 samples, the last one short
    300_001,
], ids=["short", "overlap-add 2 segments", "overlap-add"])
def test_synth_record_equals_the_four_whole_record_calls(n, saw, design):
    spec = GATE_SPECS[2]
    resp = chain_response(design, saw, record_bin_grid(RATE, 1 << 17))
    times = np.random.default_rng(5).uniform(0.0, n / RATE, 200)
    w = add_noise(add_impulses(synth_capacitive(spec, n / RATE, RATE), IMPULSE, times), 1e-4, 3)
    want = apply_response(w, resp).samples
    got = synth_record(spec, n / RATE, RATE, impulse=IMPULSE, times=times, noise_rms=1e-4, seed=3,
                       response=resp)
    assert got.samples.tobytes() == want.tobytes()


RMS_SIZES = [1, 2, 7, 8, 9, 127, 128, 129, 1000, 8191, 65_535, 65_536, 65_543, 131_071, 131_073,
             262_151, 1_000_003, 2_097_159]


@pytest.mark.parametrize("leaf", [128, 1000, waveform._SEGMENT])
def test_rms_equals_numpys_mean_of_squares(leaf, monkeypatch):
    monkeypatch.setattr(waveform, "_SEGMENT", leaf)
    for block in (waveform._BLOCK, 128, 1000):  # the leaf cap
        monkeypatch.setattr(waveform, "_BLOCK", block)
        rng = np.random.default_rng(8)
        for n in RMS_SIZES:
            s = rng.standard_normal(n) * 1e-3
            assert Waveform(RATE, 0.0, s).rms() == float(np.sqrt(np.mean(s ** 2))), (block, n)


@pytest.mark.parametrize("leaf", [128, waveform._SEGMENT])
def test_rms_of_samples_whose_squares_overflow_is_finite(leaf, monkeypatch):
    # squares past float64's range (samples above about 1.3e154) make the
    # record be scaled by its largest magnitude; `big` is `s` times a power of
    # two, so its rms is 2**600 times the rescaled rms of `s` exactly, and the
    # plain rms of `s` to within rounding
    monkeypatch.setattr(waveform, "_SEGMENT", leaf)
    s = np.random.default_rng(9).standard_normal(1000)
    big = s * 2.0 ** 600
    peak = np.abs(s).max()
    for block in (waveform._BLOCK, 128, 1000):
        monkeypatch.setattr(waveform, "_BLOCK", block)
        assert Waveform(RATE, 0.0, big).rms() == pytest.approx(Waveform(RATE, 0.0, s).rms() * 2.0 ** 600, rel=1e-14)
        assert Waveform(RATE, 0.0, big).rms() == peak * 2.0 ** 600 * math.sqrt(np.mean((s / peak) ** 2))


# ---------------------------------------------------------------------------
# Waveform value semantics and file formats
# ---------------------------------------------------------------------------

def test_waveform_add_requires_matching_layout():
    a = Waveform(RATE, 0.0, np.zeros(16))
    b = Waveform(RATE, 1e-9, np.zeros(16))
    with pytest.raises(ValueError):
        _ = a + b
    c = a + Waveform(RATE, 0.0, np.ones(16))
    assert np.all(c.samples == 1.0)


def test_waveform_csv_roundtrip(tmp_path):
    w = synth_avalanche(ImpulseSpec(fwhm=200e-12, peak=2e-3, onset=1e-9), rate=RATE)
    path = tmp_path / "wave.csv"
    write_waveform_csv(path, w)
    t, v = read_waveform_csv(path)
    assert np.array_equal(v, w.samples)
    assert np.array_equal(t, w.times())


def test_streamed_binary_writer_places_pieces_and_removes_a_partial_file(tmp_path):
    path = tmp_path / "wave.bin"
    waveform._write_binary(path, RATE, 1e-9, 5, iter([(2, np.ones(3)), (0, np.array([2.0, -0.0]))]))
    back = read_waveform_binary(path)
    assert (back.sample_rate, back.t0) == (RATE, 1e-9)
    assert back.samples.tobytes() == np.array([2.0, -0.0, 1.0, 1.0, 1.0]).tobytes()
    with pytest.raises(ValueError, match="finite"):
        waveform._write_binary(path, RATE, 0.0, 5, iter([(2, np.ones(3)), (0, np.array([0.0, np.inf]))]))
    assert not path.exists()


def test_waveform_binary_roundtrip(tmp_path):
    w = synth_avalanche(ImpulseSpec(fwhm=200e-12, peak=2e-3, onset=1e-9), rate=RATE)
    path = tmp_path / "wave.bin"
    write_waveform_binary(path, w)
    back = read_waveform_binary(path)
    assert back.sample_rate == w.sample_rate
    assert back.t0 == w.t0
    assert np.array_equal(back.samples, w.samples)
