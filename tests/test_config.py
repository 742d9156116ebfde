"""Config validation: every defect the config alone reveals exits 2 and names its path."""

import copy
import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from test_golden import CONFIG as README

from unicsim import cli, load_presets
from unicsim.cli import ConfigError


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
    "pulsed R = 1 simulate": ("simulate", R_ONE, "source.laser_rate"),
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
    "cw_carved source characterize": ("characterize", [(("source", "mode"), "cw_carved")], "source.mode"),
    "illuminated_gate_phase >= R": (
        "characterize", [(("source", "illuminated_gate_phase"), 125)], "source.illuminated_gate_phase"),
    "laser_rate not dividing f_g": ("simulate", [(("source", "laser_rate"), 4.4e7)], "source.laser_rate"),
    "zero stages": ("design", [(("network", "stages"), 0)], "network.stages"),
    "zero n_gates": ("simulate", [(("n_gates",), 0)], "n_gates"),
    "negative impulse_gate_stride": (
        "waveform", [(("waveform", "impulse_gate_stride"), -1)], "waveform.impulse_gate_stride"),
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


def test_int_for_float_is_passed_through():
    cfg = cli.parse("characterize", _mutated((("source", "mu"), 1)))
    assert cfg.source.mu == 1 and type(cfg.source.mu) is int


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
