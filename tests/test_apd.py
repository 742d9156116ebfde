import hashlib
import math

import numpy as np
import pytest

from unicsim import (
    DetectorConfig,
    SourceConfig,
    expected_afterpulses,
    expected_click_prob,
    pulse_ratio,
    simulate,
)
from unicsim import apd, presets
from unicsim.apd import (
    _CHUNK,
    _KEY_BATCH,
    KIND_AFTERPULSE,
    KIND_DARK,
    KIND_PHOTON,
    read_events_csv,
    write_events_csv,
)

TRAP_DET = dict(traps_per_avalanche=2.0, detrap_tau=2e-9, p_trigger=0.1,
                f_g=1.25e9, gate_width=1.5e-10)


# ---------------------------------------------------------------------------
# Closed-form oracles
# ---------------------------------------------------------------------------

def test_expected_afterpulses_matches_numeric_summation():
    det = DetectorConfig(**TRAP_DET)
    # independent oracle: literal summation of the per-gate window integrals
    tau = det.detrap_tau
    period = 1.0 / det.f_g
    total = 0.0
    for k in range(1, 10_000):
        total += math.exp(-k * period / tau) - math.exp(-(k * period + det.gate_width) / tau)
    expected = det.traps_per_avalanche * det.p_trigger * total
    a = expected_afterpulses(det)
    assert a == pytest.approx(expected, rel=1e-12)
    assert a == pytest.approx(0.0293830, abs=5e-7)


@pytest.mark.parametrize("n", [0, 1, 2, 7, 1000])
def test_distinct_matches_np_unique(n):
    # unsorted, with repeats far apart: afterpulse targets of nearby avalanches interleave
    a = np.random.default_rng(n).integers(0, max(1, n // 3), n)
    assert np.array_equal(apd._distinct(a), np.unique(a))


@pytest.mark.parametrize("dead_time, masked", [(0.0, 0), (0.5e-9, 0), (2e-9, 2), (4.1e-9, 5)])
def test_expected_afterpulses_under_dead_time_drops_the_masked_gates(dead_time, masked):
    det = DetectorConfig(**TRAP_DET)
    tau = det.detrap_tau
    period = 1.0 / det.f_g
    # literal summation over the gates after the dead time
    total = sum(math.exp(-k * period / tau) - math.exp(-(k * period + det.gate_width) / tau)
                for k in range(masked + 1, 10_000))
    a = expected_afterpulses(det, dead_time=dead_time)
    assert a == pytest.approx(det.traps_per_avalanche * det.p_trigger * total, rel=1e-12)
    assert a == pytest.approx(expected_afterpulses(det) * math.exp(-masked * period / tau), rel=1e-12)


def test_expected_afterpulses_default_is_no_dead_time():
    det = presets.get_preset("apd1_minus30C")
    assert expected_afterpulses(det) == expected_afterpulses(det, dead_time=0.0)
    with pytest.raises(ValueError, match="dead_time"):
        expected_afterpulses(det, dead_time=-1e-9)


def test_expected_afterpulses_limits():
    base = dict(TRAP_DET)
    assert expected_afterpulses(DetectorConfig(**{**base, "detrap_tau": 1e-15})) == 0.0
    assert expected_afterpulses(DetectorConfig(**{**base, "p_trigger": 0.0})) == 0.0
    assert expected_afterpulses(DetectorConfig(**{**base, "traps_per_avalanche": 0.0})) == 0.0


def test_expected_click_prob_arithmetic():
    det = DetectorConfig(eta_gate=0.25, dark_per_gate=1e-6, traps_per_avalanche=0.0)
    src = SourceConfig(mode="pulsed", laser_rate=1e7, mu=0.1)
    p = expected_click_prob(det, src)
    assert p.p_illuminated == pytest.approx(1.0 - (1.0 - 1e-6) * math.exp(-0.025), rel=1e-12)
    assert p.p_illuminated == pytest.approx(0.0246911, abs=5e-7)
    assert p.p_non_illuminated == 1e-6


def test_expected_click_prob_trivial_cases():
    det = DetectorConfig(eta_gate=0.25, dark_per_gate=1e-4, traps_per_avalanche=0.0)
    src = SourceConfig(mode="pulsed", laser_rate=1e7, mu=0.0)
    p = expected_click_prob(det, src)
    assert p.p_illuminated == pytest.approx(1e-4, rel=1e-12)

    det0 = DetectorConfig(eta_gate=0.25, dark_per_gate=0.0, traps_per_avalanche=0.0)
    p0 = expected_click_prob(det0, SourceConfig(mode="pulsed", laser_rate=1e7, mu=0.1))
    assert p0.p_non_illuminated == 0.0


def test_expected_click_prob_includes_afterpulse_correction():
    det = DetectorConfig(eta_gate=0.25, dark_per_gate=1e-6, **{k: v for k, v in TRAP_DET.items()
                                                               if k not in ("f_g", "gate_width")})
    src = SourceConfig(mode="pulsed", laser_rate=1e7, mu=0.1)
    p = expected_click_prob(det, src)
    a = expected_afterpulses(det)
    base = 1.0 - (1.0 - 1e-6) * math.exp(-0.025)
    rate = (base + 124 * 1e-6) / 125
    assert p.p_illuminated == pytest.approx(base + a * rate, rel=1e-12)
    assert p.p_non_illuminated == pytest.approx(1e-6 + a * rate, rel=1e-12)


# ---------------------------------------------------------------------------
# Simulation statistics
# ---------------------------------------------------------------------------

def test_simulate_empty_when_all_sources_off():
    det = DetectorConfig(eta_gate=0.0, dark_per_gate=0.0, traps_per_avalanche=0.0)
    src = SourceConfig(mode="pulsed", laser_rate=1e7, mu=0.1)
    assert len(simulate(det, src, 100_000, seed=1)) == 0


def test_simulate_illuminated_click_fraction():
    det = DetectorConfig(eta_gate=0.25, dark_per_gate=0.0, traps_per_avalanche=0.0)
    src = SourceConfig(mode="pulsed", laser_rate=1e7, mu=0.1, illuminated_gate_phase=5)
    n_gates = 10_000_000
    s = simulate(det, src, n_gates, seed=11)
    n_ill = len(range(5, n_gates, 125))
    p = 1.0 - math.exp(-0.025)
    sigma = math.sqrt(p * (1 - p) / n_ill)
    assert s.counts()["photon"] / n_ill == pytest.approx(p, abs=3 * sigma)


def test_simulate_afterpulses_match_oracle_within_3_sigma():
    # dark-driven gates give >= 1e6 avalanches quickly; the rate is kept low
    # so gate-collision suppression stays far below the statistical bound
    det = DetectorConfig(eta_gate=0.0, dark_per_gate=0.002, jitter_sigma=0.0, **TRAP_DET)
    src = SourceConfig(mode="cw_carved", laser_rate=1.25e9, mu=0.0)
    s = simulate(det, src, 500_000_000, seed=99)
    c = s.counts()
    n_primary = c["photon"] + c["dark"]
    assert n_primary >= 1_000_000
    a_mc = c["afterpulse"] / n_primary
    a = expected_afterpulses(det)
    assert a <= 0.1
    sigma = math.sqrt(c["afterpulse"]) / n_primary
    assert a_mc == pytest.approx(a, abs=3 * sigma)


def test_simulate_labels_and_windows():
    det = DetectorConfig(eta_gate=0.5, dark_per_gate=1e-4, jitter_sigma=5e-11, **{
        k: v for k, v in TRAP_DET.items() if k not in ("f_g", "gate_width")})
    src = SourceConfig(mode="pulsed", laser_rate=1e7, mu=0.5, illuminated_gate_phase=3)
    n_gates = 2_000_000
    s = simulate(det, src, n_gates, seed=5)
    assert set(np.unique(s.kind)) <= {KIND_PHOTON, KIND_DARK, KIND_AFTERPULSE}
    # photons occur only on illuminated gates
    photon_gates = s.gate_index[s.kind == KIND_PHOTON]
    assert np.all(photon_gates % 125 == 3)
    # at most one event per gate, nondecreasing order
    assert np.all(np.diff(s.gate_index) >= 1)
    # times stay inside the gate window around the gate center
    period = 1.0 / det.f_g
    offsets = s.time - s.gate_index * period
    assert np.all(np.abs(offsets) <= det.gate_width / 2 + 1e-15)
    assert np.all(s.gate_index < n_gates)


def test_simulate_charge_statistics():
    det = DetectorConfig(eta_gate=1.0, dark_per_gate=0.0, traps_per_avalanche=0.0,
                         mean_charge=3.8e-14, charge_cv=0.3)
    src = SourceConfig(mode="cw_carved", laser_rate=1.25e9, mu=5.0)
    s = simulate(det, src, 300_000, seed=21)
    n = len(s)
    assert np.all(s.charge > 0)
    sigma = 0.3 * 3.8e-14 / math.sqrt(n)
    assert np.mean(s.charge) == pytest.approx(3.8e-14, abs=3 * sigma)


def test_simulate_seed_determinism():
    det = DetectorConfig(eta_gate=0.3, dark_per_gate=1e-5, **{
        k: v for k, v in TRAP_DET.items() if k not in ("f_g", "gate_width")})
    src = SourceConfig(mode="pulsed", laser_rate=1e7, mu=0.2, illuminated_gate_phase=1)
    a = simulate(det, src, 3_000_000, seed=1234)
    b = simulate(det, src, 3_000_000, seed=1234)
    for name in ("gate_index", "time", "kind", "charge"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
    c = simulate(det, src, 3_000_000, seed=1235)
    assert c.gate_index.tobytes() != a.gate_index.tobytes()


def test_simulate_trap_toggle_preserves_primaries():
    base = dict(eta_gate=0.3, dark_per_gate=1e-4, detrap_tau=2e-9, p_trigger=0.1)
    det_off = DetectorConfig(traps_per_avalanche=0.0, **base)
    det_on = DetectorConfig(traps_per_avalanche=2.0, **base)
    src = SourceConfig(mode="pulsed", laser_rate=1e7, mu=0.5, illuminated_gate_phase=0)
    s_off = simulate(det_off, src, 2_000_000, seed=77)
    s_on = simulate(det_on, src, 2_000_000, seed=77)
    assert len(s_on) >= len(s_off)
    primaries_on = s_on.gate_index[s_on.kind != KIND_AFTERPULSE]
    assert np.array_equal(primaries_on, s_off.gate_index)


# Pulsed, mu = 0.5: photons occupy about 12% of the illuminated gates, so the
# dark lane has to step around them.  Three blocks, the last one partial.
DARK_SRC = SourceConfig(mode="pulsed", laser_rate=1e7, mu=0.5, illuminated_gate_phase=2)
DARK_N_GATES = 2 * _CHUNK + 700_001


def _dark_det(p_d):
    return DetectorConfig(eta_gate=0.25, dark_per_gate=p_d, traps_per_avalanche=0.0)


@pytest.mark.parametrize("p_d", [1e-3, 0.3])
def test_simulate_dark_count_within_3_sigma(p_d):
    s = simulate(_dark_det(p_d), DARK_SRC, DARK_N_GATES, seed=404)
    c = s.counts()
    # Given the photon gates, the dark count is Binomial(free gates, p_d).
    n_free = DARK_N_GATES - c["photon"]
    sigma = math.sqrt(n_free * p_d * (1 - p_d))
    assert c["dark"] == pytest.approx(n_free * p_d, abs=3 * sigma)
    dark_gates = s.gate_index[s.kind == KIND_DARK]
    per_block = np.bincount(dark_gates // _CHUNK, minlength=3)
    assert np.all(per_block > 0)


def test_dark_lane_leaves_photon_gates_unchanged():
    no_dark = simulate(_dark_det(0.0), DARK_SRC, DARK_N_GATES, seed=405)
    dark = simulate(_dark_det(1e-4), DARK_SRC, DARK_N_GATES, seed=405)
    assert dark.counts()["dark"] > 0
    assert np.array_equal(dark.gate_index[dark.kind == KIND_PHOTON], no_dark.gate_index)


@pytest.mark.parametrize("p_d", [1e-18, 1e-300, 5e-324])
def test_simulate_tiny_dark_probability_terminates_in_range(p_d):
    s = simulate(_dark_det(p_d), DARK_SRC, DARK_N_GATES, seed=406)
    assert s.counts()["photon"] > 0
    assert s.counts()["dark"] == 0
    assert np.all((s.gate_index >= 0) & (s.gate_index < DARK_N_GATES))
    assert np.all(np.diff(s.gate_index) >= 1)


def test_simulate_certain_dark_fills_every_free_gate():
    s = simulate(_dark_det(1.0), DARK_SRC, DARK_N_GATES, seed=407)
    # One event on every gate, first and last gate of each block included.
    assert np.array_equal(s.gate_index, np.arange(DARK_N_GATES))
    photon = s.kind == KIND_PHOTON
    assert photon.any()
    assert np.all(s.gate_index[photon] % 125 == 2)
    assert np.all(s.kind[~photon] == KIND_DARK)


# ---------------------------------------------------------------------------
# Random streams
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", [0, 42, 2**32 - 1, 2**32, 2**64 - 1, 2**130 + 3])
def test_block_keys_are_numpy_spawn_keys(seed):
    blocks = np.array([0, 1, _KEY_BATCH - 1, _KEY_BATCH, _KEY_BATCH + 1, 1192])
    keys = apd._block_keys(seed)(blocks)
    assert keys.shape == (blocks.size, 6, 2) and keys.dtype == np.uint64
    gen = np.random.Generator(np.random.Philox(0))
    for block, lane_keys in zip(blocks.tolist(), keys):
        for lane, key in enumerate(lane_keys):
            ss = np.random.SeedSequence(entropy=seed, spawn_key=(block, lane))
            assert key.tolist() == ss.generate_state(2, np.uint64).tolist()
            # a used generator (buffer part-read, a cached uint32) resets to a new one
            gen.integers(0, 2**32, size=3, dtype=np.uint32)
            got, want = apd._philox_at(gen, key), np.random.Generator(np.random.Philox(ss))
            for draw in (lambda g: g.integers(0, 2**32, size=3, dtype=np.uint32), lambda g: g.random(5)):
                assert draw(got).tolist() == draw(want).tolist()


def test_keys_reject_a_negative_seed_and_a_block_past_one_word():
    with pytest.raises(ValueError, match="non-negative"):
        apd._block_keys(-1)
    with pytest.raises(ValueError, match="2\\*\\*52"):
        next(apd.simulate_blocks(DetectorConfig(), SourceConfig(), (_CHUNK << 32) + 1, 1))


# sha256 of simulate's four arrays, recorded when every (block, lane)
# stream was built from its own numpy SeedSequence.  Both runs span several
# blocks, so a key batch of 2 crosses batch edges.
MULTI_BLOCK_RUNS = {
    "pulsed-traps": (
        "apd1_30C", SourceConfig(mode="pulsed", laser_rate=1e7, mu=2.0, illuminated_gate_phase=5),
        3 * _CHUNK + 17, 11,
        ("fe09bedd87193ca9275c8740addb339cb1b636599500030758d1462cb7240e8e",
         "d227ea5c5600c66a6e20a1e63b72d7fb9631c18a82d2ed1f946d549b6c9fb655",
         "2a0a9ac2d3485bffa481e6364b783dddef2542ec9b439142a873d0ef989b00a0",
         "f4a06e9c59ce35dd21671ac81ce51f9ad152bbb46935b5d125cc5511b8397299")),
    "carved": (
        "apd1_minus30C", SourceConfig(mode="cw_carved", laser_rate=1.25e9, mu=3.0),
        2 * _CHUNK + 5, 2**64 + 7,
        ("e9a30b0908af0c776cf78ee1ef4d85597dc3690f88d6963ed5e5e2c6f7faaa98",
         "b4599de64aafbb0f541f5bf3f501466e76c76db598980ee337d387f8248f45a5",
         "6aeff5e9409336490e7e8236bdf41a75d5d5ef11a7eb88ed4fd22d027c836358",
         "3fd30f4fd0110a92331f93aa151e7178f5d2402b5f46487d0a517b8262b34c40")),
}


@pytest.mark.parametrize("key_batch", [2, _KEY_BATCH])
@pytest.mark.parametrize("run", MULTI_BLOCK_RUNS, ids=list(MULTI_BLOCK_RUNS))
def test_multi_block_streams_are_pinned(run, key_batch, monkeypatch):
    monkeypatch.setattr(apd, "_KEY_BATCH", key_batch)
    preset, src, n_gates, seed, want = MULTI_BLOCK_RUNS[run]
    s = simulate(presets.get_preset(preset), src, n_gates, seed)
    assert s.counts()["afterpulse"] > 0
    got = tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in (s.gate_index, s.time, s.kind, s.charge))
    assert got == want


def test_afterpulses_carry_across_block_edges():
    # Traps that release over about 1250 gates: a block's first tau after
    # its edge gets most of its afterpulses from the block before, which
    # reach it only as carried targets (without them it sees about 40% as many).
    det = DetectorConfig(eta_gate=0.25, dark_per_gate=1e-4, traps_per_avalanche=10.0, detrap_tau=1e-6,
                         p_trigger=0.5)
    src = SourceConfig(mode="cw_carved", laser_rate=det.f_g, mu=0.4)
    n_gates, tau_gates = 4 * _CHUNK, round(det.detrap_tau * det.f_g)
    s = simulate(det, src, n_gates, seed=4242)
    region = np.zeros(n_gates, dtype=np.int8)  # 1: a tau after a block edge; 2: the run's start, left out
    for edge in range(_CHUNK, n_gates, _CHUNK):
        region[edge:edge + tau_gates] = 1
    region[:10 * tau_gates] = 2
    where = region[s.gate_index]
    after = s.kind == KIND_AFTERPULSE
    rate = np.sum(after & (where == 0)) / np.sum(~after & (where == 0))  # afterpulses per primary avalanche
    expected = rate * np.sum(~after & (where == 1))
    # each primary's afterpulses come as one cluster of mean `rate`, so the
    # count's variance is expected * (1 + rate), not the Poisson expected
    sigma = math.sqrt(expected * (1.0 + rate))
    assert np.sum(after & (where == 1)) == pytest.approx(expected, abs=3 * sigma)


def test_pulse_ratio_validation():
    det = DetectorConfig()
    assert pulse_ratio(det, SourceConfig(mode="pulsed", laser_rate=1e7, mu=0.1)) == 125
    assert pulse_ratio(det, SourceConfig(mode="cw_carved", laser_rate=1.25e9, mu=0.1)) == 1
    with pytest.raises(ValueError, match="divide"):
        pulse_ratio(det, SourceConfig(mode="pulsed", laser_rate=3e7, mu=0.1))
    with pytest.raises(ValueError, match="phase"):
        pulse_ratio(det, SourceConfig(mode="pulsed", laser_rate=1e7, mu=0.1,
                                      illuminated_gate_phase=125))


def test_config_validation():
    with pytest.raises(ValueError, match="eta_gate"):
        DetectorConfig(eta_gate=1.5)
    with pytest.raises(ValueError, match="gate_width"):
        DetectorConfig(gate_width=1e-9)
    with pytest.raises(ValueError, match="mean_charge"):
        DetectorConfig(mean_charge=0.0)
    with pytest.raises(ValueError, match="mode"):
        SourceConfig(mode="chopped")
    with pytest.raises(ValueError):
        simulate(DetectorConfig(), SourceConfig(), 0, seed=1)


def test_events_csv_roundtrip(tmp_path):
    det = DetectorConfig(eta_gate=0.3, dark_per_gate=1e-4, **{
        k: v for k, v in TRAP_DET.items() if k not in ("f_g", "gate_width")})
    src = SourceConfig(mode="pulsed", laser_rate=1e7, mu=0.5)
    s = simulate(det, src, 500_000, seed=8)
    path = tmp_path / "events.csv"
    write_events_csv(path, s)
    back = read_events_csv(path)
    assert np.array_equal(back.gate_index, s.gate_index)
    assert np.array_equal(back.time, s.time)
    assert np.array_equal(back.kind, s.kind)
    assert np.array_equal(back.charge, s.charge)
