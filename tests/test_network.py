import math

import numpy as np
import pytest

from unicsim import (
    Amplifier,
    Attenuator,
    BalanceInfeasibleError,
    Coupler,
    Delay,
    FrequencyGrid,
    Notch,
    SawBpf,
    TwoPortResponse,
    balance_attenuation,
    balanced_design,
    block_response,
    cascade,
    design_report,
    metrics_grid,
    null_metrics,
    solve_unic_delay,
    unic_response,
)
from unicsim import network
from unicsim.network import read_spectrum_csv, write_spectrum_csv

from conftest import F_G, T_G_SAW, chain_response


# ---------------------------------------------------------------------------
# Delay condition solver
# ---------------------------------------------------------------------------

def test_solve_design_point():
    d = solve_unic_delay(T_G_SAW, F_G)
    assert d.n == 42
    assert d.delta_t == pytest.approx(155e-12, rel=1e-12)
    assert not d.half_wave_warning


def test_solve_zero_group_delay_sets_half_wave_warning():
    d = solve_unic_delay(0.0, F_G)
    assert d.n == 0
    assert d.delta_t == pytest.approx(400e-12, rel=1e-12)
    assert d.half_wave_warning


def test_solve_exact_half_integer_gives_zero_track_delay():
    # (42 + 1/2) / 1.25 GHz = 34.0 ns exactly
    d = solve_unic_delay(34.0e-9, F_G)
    assert d.n == 42
    assert d.delta_t == pytest.approx(0.0, abs=1e-15)
    assert not d.half_wave_warning


def test_solve_identity_and_minimality_random():
    rng = np.random.default_rng(20240817)
    for _ in range(300):
        t_g = float(rng.uniform(0.0, 100e-9))
        f_g = float(rng.uniform(1e8, 1e10))
        d = solve_unic_delay(t_g, f_g)
        target = (d.n + 0.5) / f_g
        assert abs(target - (d.t_g_saw + d.delta_t)) <= 1e-12 * target
        assert 0.0 <= d.delta_t < 1.0 / f_g
        # minimality: n - 1 would give a negative track delay
        assert d.n == 0 or (d.n - 0.5) / f_g < t_g
        assert d.half_wave_warning == (d.delta_t >= 0.5 / f_g)


def test_solve_invalid_inputs():
    with pytest.raises(ValueError):
        solve_unic_delay(-1e-9, F_G)
    with pytest.raises(ValueError):
        solve_unic_delay(1e-9, 0.0)


# ---------------------------------------------------------------------------
# Block responses
# ---------------------------------------------------------------------------

def _flat_grid():
    return FrequencyGrid(1e8, 3e9, 30)


def test_attenuator_20db_is_amplitude_tenth():
    r = block_response(Attenuator(loss=20.0), _flat_grid())
    assert np.allclose(np.abs(r.values), 0.1, rtol=1e-12)


def test_delay_half_period_phase():
    grid = FrequencyGrid(F_G, 2 * F_G, 2)
    r = block_response(Delay(t=0.4e-9), grid)
    phase = np.angle(r.values[0])
    assert abs(abs(phase) - math.pi) < 1e-9  # -pi mod 2*pi


def test_coupler_port_amplitudes():
    tap = block_response(Coupler(tap_fraction=0.9, port="tap"), _flat_grid())
    thru = block_response(Coupler(tap_fraction=0.9, port="through"), _flat_grid())
    assert np.allclose(np.abs(tap.values), math.sqrt(0.9))
    assert np.allclose(np.abs(thru.values), math.sqrt(0.1))


def test_saw_center_loss_group_delay_and_20db_width(saw):
    # center magnitude equals the insertion loss
    grid = FrequencyGrid(F_G - 5e7, F_G + 5e7, 100001)
    r = block_response(saw, grid)
    f = r.frequencies()
    i0 = np.argmin(np.abs(f - F_G))
    assert abs(r.values[i0]) == pytest.approx(10 ** (-3.0 / 20.0), rel=1e-9)

    # group delay via finite difference of the phase
    phase = np.unwrap(np.angle(r.values))
    gd = -np.gradient(phase, f) / (2 * np.pi)
    assert gd[i0] == pytest.approx(T_G_SAW, rel=1e-6)

    # -20 dB full width equals the configured passband
    mags = np.abs(r.values)
    thr = mags[i0] * 0.1
    below = np.nonzero(mags >= thr)[0]
    width = f[below[-1]] - f[below[0]]
    assert width == pytest.approx(35e6, rel=1e-3)


def test_amplifier_gain_and_corner():
    amp = Amplifier(gain=20.0, bandwidth=6e9)
    r = block_response(amp, FrequencyGrid(1e6, 6e9, 2))
    assert abs(r.values[0]) == pytest.approx(10.0, rel=1e-6)
    assert abs(r.values[-1]) == pytest.approx(10.0 / math.sqrt(2.0), rel=1e-9)


def test_notch_null_and_edge_width():
    notch = Notch(f_center=2.5e9, depth=10.0, width_10db=1e8)
    grid = FrequencyGrid(2.3e9, 2.7e9, 400001)
    r = block_response(notch, grid)
    f = r.frequencies()
    mags = np.abs(r.values)
    assert mags.min() < 1e-6  # ideal null at center
    # width of the region rejected by >= depth matches the configured width
    below = np.nonzero(mags <= 10 ** (-10.0 / 20.0))[0]
    width = f[below[-1]] - f[below[0]]
    assert width == pytest.approx(1e8, rel=1e-3)


def test_block_invariants_rejected():
    with pytest.raises(ValueError):
        Coupler(tap_fraction=1.0)
    with pytest.raises(ValueError):
        SawBpf(f_center=F_G, passband_20db=-1.0, insertion_loss=3.0, group_delay=34e-9)
    with pytest.raises(ValueError):
        Notch(f_center=2.5e9, depth=10.0, width_10db=0.0)


# ---------------------------------------------------------------------------
# Arm balancing
# ---------------------------------------------------------------------------

def test_balance_attenuation_nine_to_one(saw, design):
    att = balance_attenuation(design, saw)
    # independent bisection on tap * 10^-(loss+att)/20 == 1 - tap
    lo, hi = 0.0, 60.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if 0.9 * 10 ** (-(3.0 + mid) / 20.0) > 0.1:
            lo = mid
        else:
            hi = mid
    assert att == pytest.approx(0.5 * (lo + hi), abs=1e-9)
    assert att == pytest.approx(16.08485019, abs=1e-6)


def test_balance_symmetric_interferometer():
    saw0 = SawBpf(f_center=F_G, passband_20db=35e6, insertion_loss=0.0, group_delay=34.0e-9)
    d = solve_unic_delay(34.0e-9, F_G, coupler_tap=0.5)
    assert balance_attenuation(d, saw0) == pytest.approx(0.0, abs=1e-12)


def test_balance_infeasible_names_amplitudes(saw):
    d = solve_unic_delay(T_G_SAW, F_G, coupler_tap=0.1)
    with pytest.raises(BalanceInfeasibleError) as exc:
        balance_attenuation(d, saw)
    msg = str(exc.value)
    assert "0.0707946" in msg and "0.9" in msg


# ---------------------------------------------------------------------------
# Interferometer response
# ---------------------------------------------------------------------------

def test_unic_null_at_gating_frequency(saw, design):
    grid = metrics_grid()
    r = unic_response(design, saw, grid)
    f = r.frequencies()
    i0 = np.argmin(np.abs(f - F_G))
    background = 1.0 - design.coupler_tap
    assert abs(r.values[i0]) <= 1e-5 * background


def test_unic_out_of_band_equals_through_arm(saw, design):
    grid = FrequencyGrid(0.6e9, 0.7e9, 2)
    r = unic_response(design, saw, grid)
    assert abs(r.values[0]) == pytest.approx(1.0 - design.coupler_tap, rel=1e-6)


def test_unic_imbalance_depth_matches_two_phasor_formula(saw, design):
    from dataclasses import replace

    # 0.2 dB extra attenuation in the filtered arm
    unbalanced = replace(design, att_balance_db=design.att_balance_db + 0.2)
    m = null_metrics(unic_response(unbalanced, saw, metrics_grid()), F_G)
    expected = -20.0 * math.log10(1.0 - 10.0 ** (-0.2 / 20.0))
    assert expected == pytest.approx(32.856, abs=2e-3)
    assert m.depth_db == pytest.approx(expected, abs=0.3)


def test_unic_group_delay_mismatch_rejected(saw, design):
    bad_saw = SawBpf(f_center=F_G, passband_20db=35e6, insertion_loss=3.0, group_delay=30e-9)
    with pytest.raises(ValueError, match="group_delay"):
        unic_response(design, bad_saw, FrequencyGrid(1e9, 2e9, 11))


# ---------------------------------------------------------------------------
# Cascade
# ---------------------------------------------------------------------------

def test_cascade_identity_and_commutativity(saw, design):
    grid = FrequencyGrid(1e8, 2.5e9, 1001)
    r = unic_response(design, saw, grid)
    unity = TwoPortResponse(grid, np.ones(grid.n_points, dtype=complex))
    assert np.array_equal(cascade([r, unity]).values, r.values)
    a = block_response(Attenuator(3.0), grid)
    assert np.array_equal(cascade([r, a]).values, cascade([a, r]).values)


def test_cascade_grid_mismatch_rejected(saw, design):
    r1 = unic_response(design, saw, FrequencyGrid(1e8, 2.5e9, 101))
    r2 = unic_response(design, saw, FrequencyGrid(1e8, 2.5e9, 201))
    with pytest.raises(ValueError, match="grid"):
        cascade([r1, r2])


def test_cascade_depth_additivity(saw, design):
    from dataclasses import replace

    grid = metrics_grid()
    r1 = unic_response(replace(design, att_balance_db=design.att_balance_db + 0.5), saw, grid)
    r2 = unic_response(replace(design, att_balance_db=design.att_balance_db + 0.25), saw, grid)
    d1 = null_metrics(r1, F_G).depth_db
    d2 = null_metrics(r2, F_G).depth_db
    d12 = null_metrics(cascade([r1, r2]), F_G).depth_db
    assert d12 >= d1 + d2 - 1.0


# ---------------------------------------------------------------------------
# Null metrics
# ---------------------------------------------------------------------------

def test_null_width_against_phasor_root(saw, design):
    m = null_metrics(unic_response(design, saw, metrics_grid()), F_G)
    # two equal phasors: |H|/background = 2 sin(pi * df * delay); solve for
    # the -30 dB crossing by bisection
    delay = design.differential_delay
    target = 10.0 ** (-1.5)
    lo, hi = 0.0, 1.0 / (2.0 * delay)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if 2.0 * math.sin(math.pi * mid * delay) < target:
            lo = mid
        else:
            hi = mid
    expected_width = 2.0 * 0.5 * (lo + hi)
    assert expected_width == pytest.approx(10 ** (-1.5) / (math.pi * delay), rel=1e-4)
    assert m.width_30db == pytest.approx(expected_width, rel=0.01)


def test_null_metrics_location_tracks_f_g(saw):
    grid = metrics_grid()
    for t_g in (33.845e-9, 20.0e-9, 5.3e-9):
        s = SawBpf(f_center=F_G, passband_20db=35e6, insertion_loss=3.0, group_delay=t_g)
        d = balanced_design(solve_unic_delay(t_g, F_G), s)
        m = null_metrics(unic_response(d, s, grid), F_G)
        assert abs(m.f_null - F_G) <= grid.step


def test_null_depth_clamped_for_perfect_null(saw, design):
    m = null_metrics(unic_response(design, saw, metrics_grid()), F_G)
    assert m.depth_db >= 100.0
    assert m.background_loss_db == pytest.approx(20.0, abs=0.1)


def test_null_metrics_monotone_degradation(saw, design):
    from dataclasses import replace

    depths = []
    for mismatch in (0.25, 0.5, 1.0, 2.0, 3.0):
        u = replace(design, att_balance_db=design.att_balance_db + mismatch)
        depths.append(null_metrics(unic_response(u, saw, metrics_grid()), F_G).depth_db)
    assert all(a > b for a, b in zip(depths, depths[1:]))


def test_null_metrics_background_relative(saw, design):
    grid = metrics_grid()
    r = unic_response(design, saw, grid)
    scaled = TwoPortResponse(grid, r.values * 0.25)
    m1 = null_metrics(r, F_G)
    m2 = null_metrics(scaled, F_G)
    assert m2.depth_db == pytest.approx(m1.depth_db, abs=1e-6)
    assert m2.width_30db == pytest.approx(m1.width_30db, rel=1e-9)
    assert m2.background_loss_db == pytest.approx(m1.background_loss_db + 12.041, abs=1e-3)


def _full_background(resp, f_g):
    """(median |H|, count) over every background point of the grid, as a
    mask of the whole grid selects them."""
    f = resp.frequencies()
    bg = (f >= 1e8) & (f <= 2e9) & (np.abs(f - f_g) > 5e7)
    return float(np.median(np.abs(resp.values[bg]))), int(np.count_nonzero(bg))


def test_lattice_background_matches_the_full_grid_median(saw, design):
    resp = chain_response(design, saw, metrics_grid())  # the README chain
    full, _ = _full_background(resp, F_G)
    assert null_metrics(resp, F_G).background_loss_db == pytest.approx(-20.0 * math.log10(full), abs=1e-5)


@pytest.mark.parametrize("below, above", [(1000, 1000), (100, 0), (60, 41), (50, 51)])
def test_narrow_grids_read_at_least_100_background_points(monkeypatch, saw, design, below, above):
    # 1 kHz steps, `below` and `above` points past the +/-50 MHz keep-out
    grid = metrics_grid(F_G - 5e7 - below * 1e3, F_G + 5e7 + above * 1e3, 1e3)
    resp = chain_response(design, saw, grid)
    full, count = _full_background(resp, F_G)
    assert count >= 100
    read = []
    median = network._median
    monkeypatch.setattr(network, "_median", lambda a: read.append(a.size) or median(a))
    m = null_metrics(resp, F_G)
    assert read[0] >= 100 and (count > 1000 or read[0] == count)
    assert m.background_loss_db == pytest.approx(-20.0 * math.log10(full), abs=1e-3)
    assert network.chain_null_metrics([(design, saw), (design, saw), Notch(2.5e9, 10.0, 1e8)], grid, F_G) == m


def test_null_metrics_no_dip_error():
    grid = metrics_grid()
    flat = TwoPortResponse(grid, np.full(grid.n_points, 0.1, dtype=complex))
    with pytest.raises(ValueError, match="no null"):
        null_metrics(flat, F_G)


def test_null_metrics_coarse_grid_error(saw, design):
    grid = FrequencyGrid(1e8, 2.1e9, 2001)  # 1 MHz step
    with pytest.raises(ValueError, match="coarse"):
        null_metrics(unic_response(design, saw, grid), F_G)


def test_null_metrics_requires_bracketing(saw, design):
    grid = metrics_grid(1.3e9, 1.4e9, 1e3)
    with pytest.raises(ValueError, match="bracket"):
        null_metrics(unic_response(design, saw, grid), F_G)


# ---------------------------------------------------------------------------
# Exports
# ---------------------------------------------------------------------------

def test_design_report_fields(design):
    rep = design_report(design)
    assert set(rep) == {"f_g_hz", "t_g_saw_s", "n", "delta_t_s", "att_balance_db", "half_wave_warning"}
    assert rep["n"] == 42
    assert rep["half_wave_warning"] is False


def test_spectrum_csv_roundtrip_and_group_delay(tmp_path):
    grid = FrequencyGrid(1e9, 1.1e9, 1001)
    r = block_response(Delay(t=5e-9), grid)
    path = tmp_path / "spectrum.csv"
    write_spectrum_csv(path, [r])
    f, mag_db, phase, gd_ns = read_spectrum_csv(path)
    assert f.size == grid.n_points
    assert np.allclose(mag_db, 0.0, atol=1e-9)
    assert np.allclose(gd_ns, 5.0, rtol=1e-6)


def test_spectrum_csv_merges_dense_first(tmp_path, saw, design):
    fine = FrequencyGrid(F_G - 1e6, F_G + 1e6, 2001)
    coarse = FrequencyGrid(1e8, 2.5e9, 2401)
    path = tmp_path / "merged.csv"
    write_spectrum_csv(path, [unic_response(design, saw, fine), unic_response(design, saw, coarse)])
    f, mag_db, _, _ = read_spectrum_csv(path)
    assert np.all(np.diff(f) > 0)
    # the dense region resolves the null far below the coarse background
    assert mag_db.min() < -90.0


# ---------------------------------------------------------------------------
# Block evaluation against whole-array expressions
# ---------------------------------------------------------------------------

def _reference_saw(b, f):
    b3 = b.passband_20db / 99.0 ** 0.125
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x = (f * f - b.f_center * b.f_center) / (f * b3)
        x = np.where(f > 0, x, np.inf)
        x2 = x * x
        x4 = x2 * x2
        mag = 10.0 ** (-b.insertion_loss / 20.0) / np.sqrt(1.0 + x4 * x4)
    mag = np.where(np.isfinite(x), mag, 0.0)
    return mag * np.exp(-2j * np.pi * f * b.group_delay)


def _reference_notch(b, f):
    x_edge = 1.0 / math.sqrt(10.0 ** (b.depth / 10.0) - 1.0)
    q = x_edge * b.f_center / b.width_10db
    with np.errstate(divide="ignore", invalid="ignore"):
        x = q * (f * f - b.f_center * b.f_center) / (f * b.f_center)
    x = np.where(f > 0, x, np.inf)
    out = np.ones(f.shape, dtype=np.complex128)
    m = np.isfinite(x)
    out[m] = x[m] / (x[m] - 1j)
    return out


REFERENCE_BLOCKS = [
    (SawBpf(F_G, 35e6, 3.0, T_G_SAW), _reference_saw),
    (Notch(2.5e9, 10.0, 1e8), _reference_notch),
    (Notch(F_G, 40.0, 1e6), _reference_notch),
    (Delay(1.3e-9), lambda b, f: np.exp(-2j * np.pi * f * b.t)),
    (Amplifier(20.0, 3e9), lambda b, f: 10.0 ** (b.gain / 20.0) / (1.0 + 1j * f / b.bandwidth)),
    (Coupler(0.9, "tap"), lambda b, f: np.full(f.shape, math.sqrt(b.tap_fraction), complex)),
    (Coupler(0.9, "through"), lambda b, f: np.full(f.shape, math.sqrt(1.0 - b.tap_fraction), complex)),
    (Attenuator(3.0), lambda b, f: np.full(f.shape, 10.0 ** (-b.loss / 20.0), complex)),
]
REFERENCE_GRIDS = [FrequencyGrid(0.0, 5e9, 100_001), FrequencyGrid(1.2e9, 1.3e9, 7777)]


@pytest.mark.parametrize("grid", REFERENCE_GRIDS, ids=["from 0 Hz", "around f_g"])
@pytest.mark.parametrize("block, reference", REFERENCE_BLOCKS, ids=lambda x: type(x).__name__)
def test_block_values_equal_whole_array_reference(grid, block, reference):
    assert block_response(block, grid).values.tobytes() == reference(block, grid.frequencies()).tobytes()


@pytest.mark.parametrize("grid", REFERENCE_GRIDS, ids=["from 0 Hz", "around f_g"])
def test_unic_and_cascade_equal_whole_array_reference(design, saw, grid):
    f = grid.frequencies()
    tap = design.coupler_tap
    through = np.full(f.shape, 1.0 - tap, dtype=np.complex128)
    pad = 10.0 ** (-design.att_balance_db / 20.0)
    unic = through + tap * pad * _reference_saw(saw, f) * np.exp(-2j * np.pi * f * design.delta_t)
    notch = Notch(2.5e9, 10.0, 1e8)
    resp = unic_response(design, saw, grid)
    assert resp.values.tobytes() == unic.tobytes()
    chain = cascade([resp, resp, block_response(notch, grid)])
    assert chain.values.tobytes() == (unic * unic * _reference_notch(notch, f)).tobytes()


# ---------------------------------------------------------------------------
# Block evaluation: the same values whatever the block
# ---------------------------------------------------------------------------

BLOCK_GRIDS = [
    FrequencyGrid(0.0, 5e9, 2),
    FrequencyGrid(0.0, 2.5e9, 3 * network._BLOCK + 1),  # the endpoint is a block of its own
    FrequencyGrid(0.0, 2.5e9, 3 * network._BLOCK + 2),  # the last block holds two points
    FrequencyGrid(0.0, 2.5e9, 2 * network._BLOCK),
    FrequencyGrid(1.2e9 + 0.1, 1.3e9 - 0.3, 100_003),
    metrics_grid(),
]


@pytest.mark.parametrize("grid", BLOCK_GRIDS, ids=[
    "n=2", "endpoint alone", "two-point last block", "whole blocks", "odd", "metrics"])
def test_grid_blocks_equal_linspace_slices(grid):
    want = np.linspace(grid.f_start, grid.f_stop, grid.n_points)
    slices = []
    for s, f in network._blocks(grid):
        assert f.tobytes() == want[s].tobytes()
        slices.append(s)
    assert [s.start for s in slices] == [0] + [s.stop for s in slices[:-1]]
    assert slices[-1].stop == grid.n_points
    assert all(1 <= s.stop - s.start <= network._BLOCK for s in slices)


def test_grid_blocks_equal_linspace_slices_on_random_grids(monkeypatch):
    monkeypatch.setattr(network, "_BLOCK", 7)
    rng = np.random.default_rng(3)
    for _ in range(200):
        f_start = float(rng.choice([0.0, rng.uniform(0.0, 3e9)]))
        grid = FrequencyGrid(f_start, f_start + rng.uniform(1e-3, 3e9), int(rng.integers(2, 60)))
        want = np.linspace(grid.f_start, grid.f_stop, grid.n_points)
        assert np.concatenate([f for _, f in network._blocks(grid)]).tobytes() == want.tobytes()


def test_strided_grid_blocks_equal_linspace_slices(monkeypatch):
    # the null metrics read every k-th index of a run: the last point is set
    # to f_stop only when the stride lands on it
    monkeypatch.setattr(network, "_BLOCK", 7)
    rng = np.random.default_rng(4)
    for _ in range(200):
        grid = FrequencyGrid(float(rng.uniform(0.0, 3e9)), 3.1e9 + rng.uniform(0.0, 1e9), int(rng.integers(2, 90)))
        want = np.linspace(grid.f_start, grid.f_stop, grid.n_points)
        start, stop = sorted(int(i) for i in rng.integers(0, grid.n_points + 1, 2))
        stride = int(rng.integers(1, 9))
        blocks = list(network._blocks(grid, start, stop, stride))
        got = np.concatenate([f for _, f in blocks] or [np.empty(0)])
        assert got.tobytes() == want[start:stop:stride].tobytes()
        assert all(f.tobytes() == want[s].tobytes() for s, f in blocks)


def test_chain_equals_the_cascade_of_whole_responses_at_any_block(monkeypatch, design, saw):
    grid = FrequencyGrid(1.19e9, 1.31e9, 120_001)  # 1 kHz steps, a background band either side
    parts = [(design, saw), (design, saw), Notch(f_center=2.5e9, depth=10.0, width_10db=1e8)]
    whole = chain_response(design, saw, grid)
    metrics = null_metrics(whole, F_G)
    # 1000 and 120_000 leave a one-point last block: it must give the same bytes
    for block in (network._BLOCK, 1000, 129, 120_000):
        monkeypatch.setattr(network, "_BLOCK", block)
        assert network.chain_response(parts, grid).values.tobytes() == whole.values.tobytes()
        assert network.chain_null_metrics(parts, grid, F_G) == metrics
        assert null_metrics(whole, F_G) == metrics


def test_chain_requires_a_part():
    with pytest.raises(ValueError, match="at least one part"):
        network.chain_response([], FrequencyGrid(0.0, 1.0, 8))
