"""Config validation: every defect the config alone reveals exits 2 and names its path."""

import copy
import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from test_golden import CONFIG as README

from unicsim import cli, load_presets
from unicsim.acquisition import AcquisitionConfig, DiscriminatorSpec, Histogram, TdcSpec
from unicsim.apd import DetectorConfig, EventStream, SourceConfig
from unicsim.cli import ConfigError, NetworkConfig, SpectrumConfig, WaveformConfig
from unicsim.network import (Amplifier, Attenuator, Coupler, Delay, FrequencyGrid, Notch, SawBpf,
                             UnicDesign)
from unicsim.waveform import GateWaveSpec, ImpulseSpec, Waveform


def _set(cfg, path, value):
    *parents, last = path
    for key in parents:
        cfg = cfg[key]
    cfg[last] = value


def _mutated(*changes):
    cfg = copy.deepcopy(README)
    for path, value in changes:
        _set(cfg, path, value)
    return cfg


def _presets_file(tmp_path):
    path = tmp_path / "presets.json"
    path.write_text(json.dumps({"hot": {"eta_gate": 0.3, "mean_charge": math.nan}}))
    return str(path)


NAN, INF = math.nan, math.inf
R_ONE = [(("source", "laser_rate"), 1.25e9), (("source", "illuminated_gate_phase"), 0)]

# (subcommand, [(key path, value), ...], the path the error must name)
DEFECTS = {
    "source.mu NaN": ("characterize", [(("source", "mu"), NAN)], "source.mu"),
    "detector.mean_charge NaN": (
        "simulate", [(("detector",), {"mean_charge": NAN})], "detector.mean_charge"),
    "detector.jitter_sigma NaN": (
        "simulate", [(("detector",), {"jitter_sigma": NAN})], "detector.jitter_sigma"),
    "preset field NaN": (
        "simulate", [(("detector_preset",), "hot"), (("presets_file",), "PRESETS")],
        "presets_file.hot.mean_charge"),
    "tdc.resolution NaN": (
        "simulate", [(("acquisition", "tdc", "resolution"), NAN)], "acquisition.tdc.resolution"),
    "waveform.noise_rms NaN": (
        "waveform", [(("waveform", "noise_rms"), NAN)], "waveform.noise_rms"),
    "flux_list NaN entry": ("maxrate", [(("maxrate", "flux_list"), [0.1, NAN])], "maxrate.flux_list[1]"),
    "network.stages true": ("design", [(("network", "stages"), True)], "network.stages"),
    "network.f_g Infinity": ("design", [(("network", "f_g"), INF)], "network.f_g"),
    "network.f_g NaN": ("spectrum", [(("network", "f_g"), NAN)], "network.f_g"),
    "saw.f_center Infinity": ("design", [(("network", "saw", "f_center"), INF)], "network.saw.f_center"),
    "gate_offset NaN": ("characterize", [(("acquisition", "gate_offset"), NAN)], "acquisition.gate_offset"),
    # |gate_offset| >= n_gates / f_g: every stamp maps outside [0, n_gates)
    **{f"gate_offset {v} {c}": (c, [(("acquisition", "gate_offset"), v)], "acquisition.gate_offset")
       for c in ("simulate", "characterize", "sweep") for v in (-1.0, 2e200)},
    # mu * eta_gate so large that 1 - exp(-mu * eta_gate) rounds to 1: every illuminated gate clicks
    **{f"source.mu {v} {c}": (c, [(("source", "mu"), v)], "source.mu")
       for c in ("characterize", "sweep") for v in (1e308, 200)},
    # 1 - exp(-mu * eta_gate) == 0: no illuminated gate ever sees a photon
    **{f"source.mu 0 {c}": (c, [(("source", "mu"), 0.0)], "source.mu") for c in ("characterize", "sweep")},
    "eta_gate 0 characterize": (
        "characterize", [(("detector_preset",), None), (("detector",), {"eta_gate": 0.0})], "source.mu"),
    "eta_gate 0 sweep": (
        "sweep", [(("sweep", "scenarios"), [{"label": "blind", "detector": {"eta_gate": 0.0}}, "apd1_0C"])],
        "source.mu"),
    "pulsed R = 1 simulate": ("simulate", R_ONE, "source.laser_rate"),
    "n_gates past 2**52": ("simulate", [(("n_gates",), 2 ** 52 + 1)], "n_gates"),
    "pulsed R = 1 characterize": ("characterize", R_ONE, "source.laser_rate"),
    "n_gates below 10 R": ("characterize", [(("n_gates",), 1000)], "n_gates"),
    "n_gates below 10 R sweep": ("sweep", [(("n_gates",), 1000)], "n_gates"),
    "decreasing flux_list": ("maxrate", [(("maxrate", "flux_list"), [0.3, 0.1])], "maxrate.flux_list"),
    "illuminated_gate_phase float": (
        "simulate", [(("source", "illuminated_gate_phase"), 5.0)], "source.illuminated_gate_phase"),
    "string in spectrum": (
        "spectrum", [(("network", "spectrum", "fine_step"), "1e3")], "network.spectrum.fine_step"),
    "string in waveform": ("waveform", [(("waveform", "duration"), "2e-7")], "waveform.duration"),
    "string histogram_bin": ("characterize", [(("histogram_bin",), "1e-11")], "histogram_bin"),
    "histogram_bin not dividing R/f_g": ("characterize", [(("histogram_bin",), 3e-11)], "histogram_bin"),
    "negative seed": ("design", [(("seed",), -1)], "seed"),
    "negative noise_rms": ("waveform", [(("waveform", "noise_rms"), -1e-6)], "waveform.noise_rms"),
    "unknown source.mode": ("simulate", [(("source", "mode"), "chopped")], "source.mode"),
    "cw_carved source characterize": ("characterize", [(("source", "mode"), "cw_carved")], "source.mode"),
    "illuminated_gate_phase >= R": (
        "characterize", [(("source", "illuminated_gate_phase"), 125)], "source.illuminated_gate_phase"),
    "laser_rate not dividing f_g": ("simulate", [(("source", "laser_rate"), 4.4e7)], "source.laser_rate"),
    "zero stages": ("design", [(("network", "stages"), 0)], "network.stages"),
    "zero n_gates": ("simulate", [(("n_gates",), 0)], "n_gates"),
    "negative impulse_gate_stride": (
        "waveform", [(("waveform", "impulse_gate_stride"), -1)], "waveform.impulse_gate_stride"),
    "waveform shorter than 10 gates": ("waveform", [(("waveform", "duration"), 1e-9)], "waveform.duration"),
    "waveform below Nyquist": ("waveform", [(("waveform", "sample_rate"), 1e9)], "waveform.sample_rate"),
    "harmonic order 1": ("waveform", [(("waveform", "harmonics"), [[1, 0.084, 0.0]])], "waveform.harmonics"),
    "duplicate harmonic order": (
        "waveform", [(("waveform", "harmonics"), [[2, 0.084, 0.0], [2, 0.01, 0.0]])], "waveform.harmonics"),
    "negative fundamental_amp": (
        "waveform", [(("waveform", "fundamental_amp"), -1)], "waveform.fundamental_amp"),
    "unresolvable impulse_fwhm": (
        "waveform", [(("waveform", "impulse_fwhm"), 1e-12)], "waveform.impulse_fwhm"),
    "negative impulse_peak": ("waveform", [(("waveform", "impulse_peak"), -1e-3)], "waveform.impulse_peak"),
    "negative waveform.f_g": ("waveform", [(("waveform", "f_g"), -1.0)], "waveform.f_g"),
    "waveform too long to count": ("waveform", [(("waveform", "duration"), 1e300)], "waveform"),
    "fine_span below fine_step": (
        "spectrum", [(("network", "spectrum", "fine_span"), 1e2)], "network.spectrum.fine_span"),
    "fine_span past 0 Hz": (
        "spectrum", [(("network", "spectrum", "fine_span"), 1e10)], "network.spectrum.fine_span"),
    "coarse_step past f_stop": (
        "spectrum", [(("network", "spectrum", "coarse_step"), 1e10)], "network.spectrum.coarse_step"),
    # f_g outside the fixed 0.1-2.1 GHz null-metrics grid, with the SAW and band-stop moved to match
    **{f"network.f_g {v} outside the metrics grid": (
        "spectrum", [(("network", "f_g"), v), (("network", "saw", "f_center"), v),
                     (("network", "band_stop", "f_center"), 2 * v)], "network.f_g") for v in (3e9, 5e7)},
    "infeasible balance for spectrum": (
        "spectrum", [(("network", "coupler_tap"), 0.1)], "network.coupler_tap"),
    "infeasible balance for filtered waveform": (
        "waveform", [(("network", "coupler_tap"), 0.1)], "network.coupler_tap"),
}


@pytest.mark.parametrize("name", list(DEFECTS))
def test_config_defect_exits_2_naming_its_path(tmp_path, capsys, name):
    command, changes, expected = DEFECTS[name]
    changes = [(p, _presets_file(tmp_path) if v == "PRESETS" else v) for p, v in changes]
    cfg = _mutated(*changes)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    rc = cli.main([command, "-c", str(path), "--output-dir", str(tmp_path / "out")])
    err = json.loads(capsys.readouterr().err)
    assert rc == cli.EXIT_CONFIG, err
    assert err["error"] == "config"
    assert expected in [p.split(": ", 1)[0] for p in err["paths"]], err["paths"]
    assert not (tmp_path / "out").exists()


def test_load_presets_names_each_bad_field(tmp_path):
    path = tmp_path / "presets.json"
    path.write_text(json.dumps({"ok": {}, "hot": {"mean_charge": math.nan, "typo": 1}}))
    with pytest.raises(ConfigError) as e:
        load_presets(path)
    assert sorted(p.split(": ", 1)[0] for p in e.value.paths) == ["hot.mean_charge", "hot.typo"]


def test_simulate_without_summary_takes_any_gate_offset():
    cli.parse("simulate", _mutated((("emit",), ["csv"]), (("acquisition", "gate_offset"), -1.0)))


def test_mu_short_of_saturation_parses():
    for command in ("characterize", "sweep"):
        assert cli.parse(command, _mutated((("source", "mu"), 50))).source.mu == 50


def test_int_for_float_is_passed_through():
    cfg = cli.parse("characterize", _mutated((("source", "mu"), 1)))
    assert cfg.source.mu == 1 and type(cfg.source.mu) is int


# ---------------------------------------------------------------------------
# Field bounds of the library constructors: NaN and an out-of-range value
# each raise a ValueError that opens with the field's name.
# ---------------------------------------------------------------------------

SAW = {"f_center": 1.25e9, "passband_20db": 35e6, "insertion_loss": 3.0, "group_delay": 3e-7}
UNIC = {"f_g": 1.25e9, "t_g_saw": 0.0, "n": 0, "delta_t": 4e-10}  # (0 + 1/2) / f_g = 0.4 ns
EVENT = {"gate_index": [0], "time": [1e-9], "kind": [0], "charge": [1e-15]}  # one event

# (class, its other arguments, field, a value outside the field's range)
BOUNDS = [
    (DetectorConfig, {}, "eta_gate", 1.5),
    (DetectorConfig, {}, "mean_charge", 0.0),
    (DetectorConfig, {}, "gate_width", 1e-9),
    (DetectorConfig, {}, "jitter_sigma", -1e-12),
    (SourceConfig, {}, "mu", -0.1),
    (SourceConfig, {}, "mode", "chopped"),
    (SourceConfig, {}, "illuminated_gate_phase", -1),
    (TdcSpec, {}, "resolution", 0.0),
    (DiscriminatorSpec, {"threshold": 5e-6}, "dead_time", -1e-9),
    (DiscriminatorSpec, {}, "threshold", INF),
    (AcquisitionConfig, {}, "gate_offset", -INF),
    (FrequencyGrid, {"f_stop": 1e9, "n_points": 3}, "f_start", -1.0),
    (FrequencyGrid, {"f_start": 0.0, "n_points": 3}, "f_stop", 0.0),
    (FrequencyGrid, {"f_start": 0.0, "n_points": 3}, "f_stop", INF),
    (FrequencyGrid, {"f_start": 0.0, "f_stop": 1e9}, "n_points", 1),
    (Coupler, {}, "tap_fraction", 1.0),
    (Coupler, {"tap_fraction": 0.5}, "port", "tee"),
    (Attenuator, {}, "loss", INF),
    (Delay, {}, "t", -INF),
    (SawBpf, SAW, "f_center", 0.0),
    (SawBpf, SAW, "group_delay", -1e-9),
    (Amplifier, {"gain": 20.0}, "bandwidth", -1.0),
    (Notch, {"f_center": 1.25e9, "depth": 10.0}, "width_10db", 0.0),
    (UnicDesign, UNIC, "coupler_tap", 0.0),
    (UnicDesign, UNIC, "n", -1),
    (UnicDesign, UNIC, "delta_t", 1e-9),
    (GateWaveSpec, {"fundamental_amp": 0.42}, "f_g", -1.0),
    (ImpulseSpec, {"peak": 1e-3}, "fwhm", 0.0),
    (ImpulseSpec, {"fwhm": 1.5e-10, "peak": 1e-3}, "onset", INF),
    (SpectrumConfig, {}, "fine_step", 0.0),
    (SpectrumConfig, {}, "f_start", -1.0),
    (SpectrumConfig, {}, "f_stop", INF),
    (NetworkConfig, {"saw": SawBpf(**SAW)}, "coupler_tap", 1.0),
    (NetworkConfig, {"saw": SawBpf(**SAW)}, "stages", 0),
    (WaveformConfig, {}, "noise_rms", -1e-6),
    (WaveformConfig, {}, "duration", INF),
    (Waveform, {"sample_rate": 4e10, "samples": [0.0]}, "t0", INF),
    (EventStream, EVENT, "time", -INF),
    (EventStream, EVENT, "charge", 0.0),
    (Histogram, {"period": 8e-11, "bins": [1]}, "bin_width", -1e-11),
    (Histogram, {"bin_width": 1e-11, "bins": [1]}, "period", 0.0),
]

PINNED = {
    "eta_gate": "eta_gate must be a probability in [0, 1]",
    "mean_charge": "mean_charge must be positive",
    "gate_width": "gate_width must lie in (0, 1/f_g)",
    "mode": "mode must be 'pulsed' or 'cw_carved'",
    "port": "port must be 'tap' or 'through'",
}


# "<class>.<field>", and "=<bad>" after a field's second row
BOUND_IDS = [f"{c.__name__}.{f}" for c, _, f, _ in BOUNDS]
BOUND_IDS = [i if BOUND_IDS.index(i) == k else f"{i}={BOUNDS[k][3]}" for k, i in enumerate(BOUND_IDS)]


@pytest.mark.parametrize("cls, args, field, bad", BOUNDS, ids=BOUND_IDS)
def test_constructor_rejects_nan_and_out_of_range_naming_the_field(cls, args, field, bad):
    for value in (NAN, bad):
        with pytest.raises(ValueError) as e:
            cls(**{**args, field: value})
        assert str(e.value).startswith(f"{field} must "), (value, str(e.value))
        if field in PINNED:
            assert str(e.value) == PINNED[field]


# ---------------------------------------------------------------------------
# Property: parsing a mutated README config returns a typed config or raises
# ConfigError with a non-empty path list, and raises nothing else.
# ---------------------------------------------------------------------------

def _key_paths(obj, prefix=()):
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield prefix + (k,)
            yield from _key_paths(v, prefix + (k,))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield prefix + (i,)
            yield from _key_paths(v, prefix + (i,))


KEY_PATHS = list(_key_paths(README))
BAD_VALUES = st.sampled_from([NAN, INF, -INF, -1, -1.0, 0, 0.0, 1e308, 10 ** 400, True, False,
                              None, "x", "1.0", [], [1.0], {}, {"a": 1}])


@st.composite
def mutations(draw):
    cfg = copy.deepcopy(README)
    for _ in range(draw(st.integers(1, 3))):
        *parents, last = draw(st.sampled_from(KEY_PATHS))
        node = cfg
        try:
            for key in parents:
                node = node[key]
            action = draw(st.sampled_from(["drop", "negate", "bad", "bad"]))
            if action == "drop" and isinstance(node, dict):
                del node[last]
            elif action == "negate" and isinstance(node[last], (int, float)):
                node[last] = -node[last]
            else:
                node[last] = draw(BAD_VALUES)
        except (KeyError, IndexError, TypeError):
            continue  # an earlier mutation replaced or removed a parent
    if draw(st.booleans()):
        key = draw(st.sampled_from(["histogram_bin", "presets_file", "detector", "unknown_key"]))
        cfg[key] = draw(BAD_VALUES)
    return cfg


@settings(derandomize=True, deadline=None, max_examples=400,
          suppress_health_check=[HealthCheck.too_slow])
@given(cfg=mutations())
def test_parse_returns_config_or_config_error(cfg):
    for command in cli._COMMANDS:
        try:
            parsed = cli.parse(command, copy.deepcopy(cfg))
        except cli.ConfigError as e:
            assert e.paths and all(isinstance(p, str) and ": " in p for p in e.paths)
        else:
            assert isinstance(parsed, cli.ExperimentConfig)
