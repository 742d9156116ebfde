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
    # dark-driven gates give about 1e6 avalanches quickly; the rate is kept
    # low so that gate collisions (a dark count, or a second afterpulse of the
    # same avalanche, on a target gate) cost only about 0.5% of the afterpulses
    det = DetectorConfig(eta_gate=0.0, dark_per_gate=0.002, jitter_sigma=0.0, **TRAP_DET)
    src = SourceConfig(mode="cw_carved", laser_rate=1.25e9, mu=0.0)
    n_gates = 500_000_000
    s = simulate(det, src, n_gates, seed=99)
    c = s.counts()
    # no photons, so the dark count is Binomial(n_gates, dark_per_gate)
    expected = n_gates * det.dark_per_gate
    assert c["dark"] == pytest.approx(expected, abs=5 * math.sqrt(expected * (1 - det.dark_per_gate)))
    n_primary = c["photon"] + c["dark"]
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


def test_traps_are_thinned_to_their_triggered_mean():
    # a Poisson(n) count of traps, each triggering with probability p, is
    # drawn as Poisson(n*p) triggered traps: only the product matters
    base = dict(eta_gate=0.3, dark_per_gate=1e-4, detrap_tau=2e-9)
    src = SourceConfig(mode="pulsed", laser_rate=1e7, mu=0.5, illuminated_gate_phase=0)
    assert 2.0 * 0.1 == 4.0 * 0.05
    runs = [simulate(DetectorConfig(traps_per_avalanche=n, p_trigger=p, **base), src, 2 * _CHUNK + 9, seed=78)
            for n, p in [(2.0, 0.1), (4.0, 0.05), (10.0, 0.5)]]
    assert runs[0].counts()["afterpulse"] > 0
    for name in ("gate_index", "time", "kind", "charge"):
        assert np.array_equal(getattr(runs[0], name), getattr(runs[1], name))
    # more triggered traps: more afterpulses, and the photon and dark gates stay where they were
    assert runs[2].counts()["afterpulse"] > runs[0].counts()["afterpulse"]
    for kind in (KIND_PHOTON, KIND_DARK):
        assert np.array_equal(runs[2].gate_index[runs[2].kind == kind], runs[0].gate_index[runs[0].kind == kind])


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

@pytest.mark.parametrize("seed", [0, 2**64 + 7])
def test_a_reset_generator_draws_its_blocks_counter_range(seed):
    lane_keys = np.random.SeedSequence(seed).generate_state(2 * apd._N_LANES, np.uint64).reshape(apd._N_LANES, 2)
    gen = np.random.Generator(np.random.Philox(0))
    for block in (0, 1, 1192):
        for key in lane_keys:
            # a used generator (buffer part-read, a cached uint32) resets to a new one
            gen.integers(0, 2**32, size=3, dtype=np.uint32)
            got = apd._philox_at(gen, key, block)
            want = np.random.Generator(np.random.Philox(key=key, counter=[0, block, 0, 0]))
            for draw in (lambda g: g.integers(0, 2**32, size=3, dtype=np.uint32), lambda g: g.random(5)):
                assert draw(got).tolist() == draw(want).tolist()


def test_simulate_rejects_a_negative_seed_and_n_gates_past_2_52():
    with pytest.raises(ValueError, match="non-negative"):
        next(apd.simulate_blocks(DetectorConfig(), SourceConfig(), 1, -1))
    with pytest.raises(ValueError, match="2\\*\\*52"):
        next(apd.simulate_blocks(DetectorConfig(), SourceConfig(), (_CHUNK << 32) + 1, 1))


# sha256 of simulate's four arrays, recorded when block b of each lane was
# that lane's Philox counter range (0, b, 0, 0) under its SeedSequence key,
# and the traps were thinned.  Both runs span several blocks, and a draw
# slice of 2 variates crosses many slice edges in each block.
MULTI_BLOCK_RUNS = {
    "pulsed-traps": (
        "apd1_30C", SourceConfig(mode="pulsed", laser_rate=1e7, mu=2.0, illuminated_gate_phase=5),
        3 * _CHUNK + 17, 11,
        ("725d4eae011cdaf720e3488c4b7ad7ac8a139d31ffffaa99a7b0a15d84f30be3",
         "81b5e3b1d407e08978d48713ffc92b7fcef0560e238253665beef2712f5ea52d",
         "f6b9b1b91df1097100839c53f46da83bf3b8e539cf0076f1e06a900fef957c24",
         "4258052f2b61e7066fc5a5880df8578bbd3d1537609f965c2b42858d48f87008")),
    "carved": (
        "apd1_minus30C", SourceConfig(mode="cw_carved", laser_rate=1.25e9, mu=3.0),
        2 * _CHUNK + 5, 2**64 + 7,
        ("7d33f559a76a4ff28f99c2262e7b71a111d5a2fc9bb71bd5d895d72e3098bc25",
         "10df7bdbf104f98489e8b7851ade86799bdb5e670bf488194c41bd29c029af76",
         "e9506e65c6d203ee50021cc0a38d29eb23b1536ea265f9f4705f843e486183e7",
         "17ac00b456302696970b3dbb04531f6f943e48dc57150f44c5bc921c823e636d")),
}


@pytest.mark.parametrize("draw", [2, 256])
@pytest.mark.parametrize("run", MULTI_BLOCK_RUNS, ids=list(MULTI_BLOCK_RUNS))
def test_multi_block_streams_are_pinned(run, draw, monkeypatch):
    monkeypatch.setattr(apd, "_DRAW", draw)
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
