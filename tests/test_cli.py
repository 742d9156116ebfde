import contextlib
import copy
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from unicsim import _io, acquisition, apd, characterize, cli, network, waveform
from unicsim.acquisition import read_gate_counts_json, read_histogram_csv, read_timestamps_binary
from unicsim.apd import read_events_csv
from unicsim.characterize import read_run_report, read_sweep_csv
from unicsim.network import read_spectrum_csv
from unicsim.waveform import read_waveform_binary, read_waveform_csv

from test_config import mutations
from test_golden import CONFIG as GOLDEN_CONFIG

NETWORK = {
    "f_g": 1.25e9,
    "coupler_tap": 0.9,
    "stages": 2,
    "saw": {"f_center": 1.25e9, "passband_20db": 35e6, "insertion_loss": 3.0,
            "group_delay": 33.845e-9},
    "band_stop": {"f_center": 2.5e9, "depth": 10.0, "width_10db": 1e8},
    "spectrum": {"f_start": 1e8, "f_stop": 2.5e9, "coarse_step": 1e6,
                 "fine_step": 1e3, "fine_span": 2e6},
}

DETECTOR = {
    "eta_gate": 0.25,
    "dark_per_gate": 1e-6,
    "traps_per_avalanche": 0.68066,
    "detrap_tau": 2e-9,
    "p_trigger": 0.1,
}

SOURCE = {"mode": "pulsed", "laser_rate": 1e7, "mu": 0.1, "illuminated_gate_phase": 5}

ACQ0 = {"tdc": {"resolution": 1e-12, "dead_time": 0.0}}


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "unicsim", *args],
        capture_output=True,
        text=True,
        env=env,
    )


def write_config(tmp_path, name="config.json", **overrides):
    cfg = {"seed": 42, "output_dir": str(tmp_path / "out"), **overrides}
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def tree_bytes(root: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir()) if p.is_file()}


# ---------------------------------------------------------------------------
# Happy paths with round-trip parsing
# ---------------------------------------------------------------------------

def test_design_command(tmp_path):
    cfg = write_config(tmp_path, network=NETWORK)
    res = run_cli("design", "-c", str(cfg))
    assert res.returncode == 0, res.stderr
    report = json.loads((tmp_path / "out" / "design.json").read_text())
    assert report["n"] == 42
    assert report["delta_t_s"] == pytest.approx(155e-12, rel=1e-12)
    assert report["att_balance_db"] == pytest.approx(16.0849, abs=1e-4)
    assert report["half_wave_warning"] is False
    assert set(report) == {"f_g_hz", "t_g_saw_s", "n", "delta_t_s", "att_balance_db",
                           "half_wave_warning"}


def test_spectrum_command(tmp_path):
    cfg = write_config(tmp_path, network=NETWORK)
    res = run_cli("spectrum", "-c", str(cfg))
    assert res.returncode == 0, res.stderr
    metrics = json.loads((tmp_path / "out" / "null_metrics.json").read_text())
    assert metrics["depth_db"] >= 100.0
    assert metrics["f_null_hz"] == pytest.approx(1.25e9, abs=1e3)
    f, mag_db, phase, gd = read_spectrum_csv(tmp_path / "out" / "spectrum.csv")
    assert np.all(np.diff(f) > 0)
    assert mag_db.min() < -100.0


def test_waveform_command(tmp_path):
    cfg = write_config(
        tmp_path,
        network=NETWORK,
        waveform={"duration": 2e-7, "sample_rate": 4e10, "fundamental_amp": 0.42,
                  "harmonics": [[2, 0.084, 0.0]], "impulse_gate_stride": 50,
                  "impulse_peak": 1e-3, "impulse_fwhm": 1.5e-10, "noise_rms": 0.0,
                  "filtered": True},
    )
    res = run_cli("waveform", "-c", str(cfg))
    assert res.returncode == 0, res.stderr
    w = read_waveform_binary(tmp_path / "out" / "waveform.bin")
    assert len(w) == 8000
    t, v = read_waveform_csv(tmp_path / "out" / "waveform.csv")
    assert np.array_equal(v, w.samples)
    # the filtered record keeps the avalanche impulses well above the residual
    assert v.max() > 5e-6


@pytest.mark.parametrize("filtered", [True, False], ids=["overlap-add", "unfiltered"])
def test_streamed_waveform_files_equal_the_library_record(tmp_path, capsys, filtered):
    # 304,000 samples, not a multiple of the 2**17-sample segment, take the
    # overlap-add path, or unfiltered come in three segments: the command
    # writes its pieces into waveform.bin and reads the file back for the
    # CSV and the rms
    raw = copy.deepcopy(GOLDEN_CONFIG)
    raw["waveform"].update(duration=7.6e-6, noise_rms=1e-4, filtered=filtered)
    raw["output_dir"] = str(tmp_path / "cli")
    cfg = cli.parse("waveform", raw)
    cli.cmd_waveform(cfg)
    printed = capsys.readouterr().out

    wf = cfg.waveform
    net = cfg.network if filtered else None
    spec = cli._gate_spec(wf, net)
    times = np.arange(wf.impulse_gate_stride, int(wf.duration * spec.f_g) - 1,
                      wf.impulse_gate_stride) * (1.0 / spec.f_g)
    response = None
    if filtered:
        grid = network.FrequencyGrid(0.0, wf.sample_rate / 2.0, waveform.DEFAULT_IR_LENGTH // 2 + 1)
        response = network.chain_response(cli._chain(net), grid)
    w = waveform.synth_record(spec, wf.duration, wf.sample_rate, impulse=cli._impulse(wf), times=times,
                              noise_rms=wf.noise_rms, seed=cfg.seed, response=response)
    assert len(w) == 304_000
    waveform.write_waveform_binary(tmp_path / "waveform.bin", w)
    waveform.write_waveform_csv(tmp_path / "waveform.csv", w)
    for name in ("waveform.bin", "waveform.csv"):
        assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / name).read_bytes(), name
    assert printed == f"waveform: n_samples=304000 rms_v={w.rms()!r}\n"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the filter overflows
@pytest.mark.parametrize("duration", [
    2e-7,    # one piece
    7.6e-6,  # overlap-add pieces
], ids=["short", "overlap-add"])
def test_non_finite_record_exits_3_and_leaves_no_file(tmp_path, capsys, duration):
    raw = copy.deepcopy(GOLDEN_CONFIG)
    raw["waveform"].update(duration=duration, impulse_peak=1e308)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["waveform", "-c", str(path), "--output-dir", str(tmp_path / "out")]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "runtime", "message": "ValueError: samples must be finite"}
    assert not (tmp_path / "out" / "waveform.bin").exists()


def test_waveform_rms_of_a_record_past_1e154_volts_is_finite(tmp_path, capsys):
    # the README example with 1e300 V impulses: their squares overflow float64,
    # and the printed rms must still be finite, with no overflow warning
    # (RuntimeWarning is an error under this suite's settings)
    raw = copy.deepcopy(GOLDEN_CONFIG)
    raw["waveform"]["impulse_peak"] = 1e300
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["waveform", "-c", str(path), "--output-dir", str(tmp_path / "out")]) == 0
    rms = float(capsys.readouterr().out.splitlines()[0].split("rms_v=")[1])
    samples = read_waveform_binary(tmp_path / "out" / "waveform.bin").samples
    peak = np.abs(samples).max()
    assert 1e295 < rms == pytest.approx(peak * np.sqrt(np.mean((samples / peak) ** 2)), rel=1e-12)


def test_simulate_command(tmp_path):
    cfg = write_config(tmp_path, n_gates=1_250_000, detector=DETECTOR, source=SOURCE,
                       acquisition=ACQ0)
    res = run_cli("simulate", "-c", str(cfg))
    assert res.returncode == 0, res.stderr
    stream = read_events_csv(tmp_path / "out" / "events.csv")
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["n_events"] == len(stream)
    assert summary["counts"]["photon"] > 0
    ts = read_timestamps_binary(tmp_path / "out" / "timestamps.bin")
    assert ts.size == summary["n_timestamps"]
    assert 0.015 < summary["p_i"] < 0.035


def test_characterize_command(tmp_path):
    cfg = write_config(tmp_path, n_gates=12_500_000, detector=DETECTOR, source=SOURCE,
                       acquisition=ACQ0)
    res = run_cli("characterize", "-c", str(cfg))
    assert res.returncode == 0, res.stderr
    report = read_run_report(tmp_path / "out" / "run_report.json")
    assert abs(report.eta_net - 0.25) <= 4 * report.eta_net_sigma
    gc = read_gate_counts_json(tmp_path / "out" / "gate_counts.json")
    assert gc.p_i == report.p_i
    starts, counts = read_histogram_csv(tmp_path / "out" / "histogram.csv")
    assert counts.sum() > 0
    assert starts.size == 10_000  # 100 ns fold at 10 ps bins


def test_sweep_command_with_presets_and_threads(tmp_path):
    cfg = write_config(
        tmp_path,
        n_gates=2_500_000,
        sweep={"scenarios": ["apd1_minus30C", {"label": "hot", "detector": {**DETECTOR,
                                                                            "eta_gate": 0.342}}]},
        source=SOURCE,
        acquisition=ACQ0,
    )
    res = run_cli("sweep", "-c", str(cfg), env_extra={"UNIC_SIM_THREADS": "2"})
    assert res.returncode == 0, res.stderr
    sweep = read_sweep_csv(tmp_path / "out" / "sweep.csv")
    assert [p.label for p in sweep.points] == ["apd1_minus30C", "hot"]
    reports = json.loads((tmp_path / "out" / "sweep.json").read_text())["reports"]
    assert len(reports) == 2


def test_maxrate_command(tmp_path):
    cfg = write_config(
        tmp_path,
        n_gates=1_250_000,
        detector={**DETECTOR, "eta_gate": 0.253, "dark_per_gate": 0.0,
                  "traps_per_avalanche": 0.0},
        acquisition=ACQ0,
        maxrate={"flux_list": [0.1, 3.0]},
    )
    res = run_cli("maxrate", "-c", str(cfg))
    assert res.returncode == 0, res.stderr
    sweep = read_sweep_csv(tmp_path / "out" / "maxrate.csv")
    assert sweep.points[1].rate_hz > sweep.points[0].rate_hz
    data = json.loads((tmp_path / "out" / "maxrate.json").read_text())
    assert data["points"][1]["charge_c"] == pytest.approx(3.8e-14, rel=0.05)


# Runs one command on the golden config in a fresh interpreter and reports
# the modules loaded before (with numpy) and after it.
_RUN_AND_REPORT_MODULES = """
import json, sys
import numpy
eager = sorted(sys.modules)
from unicsim import cli
code = cli.main(sys.argv[1:])
print(json.dumps({"code": code, "eager": eager, "loaded": sorted(sys.modules)}))
"""


def _modules_of(tmp_path, command) -> dict:
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({**GOLDEN_CONFIG, "output_dir": str(tmp_path / "out")}))
    res = subprocess.run([sys.executable, "-c", _RUN_AND_REPORT_MODULES, command, "-c", str(cfg)],
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    report = json.loads(res.stdout.splitlines()[-1])
    assert report["code"] == 0, res.stderr
    return report


# numpy 2 imports numpy.ma lazily, and np.unique and np.median pull it in
# (18-28 ms of import per process); no subcommand needs it.
@pytest.mark.parametrize("command", ["design", "spectrum", "waveform", "simulate", "characterize",
                                     "sweep", "maxrate"])
def test_no_command_imports_numpy_ma(tmp_path, command):
    report = _modules_of(tmp_path, command)
    if "numpy.ma" in report["eager"]:
        pytest.skip("this numpy imports numpy.ma with numpy itself")
    assert "numpy.ma" not in report["loaded"]


# Each command imports only the kernels it runs: the readout-chain commands
# no simulator (nor the thread pool and logging it brings), the counting
# commands no readout chain.
@pytest.mark.parametrize("command, unused", [
    ("design", ["unicsim.apd", "unicsim.acquisition", "unicsim.characterize", "concurrent.futures"]),
    ("characterize", ["unicsim.network", "unicsim.waveform"]),
])
def test_a_command_imports_only_the_kernels_it_runs(tmp_path, command, unused):
    assert not set(unused) & set(_modules_of(tmp_path, command)["loaded"])


# The names `unicsim` has exported since its __init__ imported every module,
# by the module each came from.
_PACKAGE_NAMES = {
    "network": ["Amplifier", "Attenuator", "BalanceInfeasibleError", "Coupler", "Delay", "FrequencyGrid",
                "Notch", "NullMetrics", "SawBpf", "TwoPortResponse", "UnicDesign", "balance_attenuation",
                "balanced_design", "block_response", "cascade", "chain_null_metrics", "chain_response",
                "design_report", "metrics_grid", "null_metrics", "solve_unic_delay", "unic_response"],
    "waveform": ["GateWaveSpec", "ImpulseSpec", "Waveform", "add_impulses", "add_noise", "apply_response",
                 "synth_avalanche", "synth_capacitive", "synth_record"],
    "apd": ["ClickProbabilities", "DetectorConfig", "EventStream", "SourceConfig", "expected_afterpulses",
            "expected_click_prob", "pulse_ratio", "renewal_clicks_per_gate", "simulate", "simulate_blocks"],
    "acquisition": ["AcquisitionConfig", "DiscriminatorSpec", "GateCounts", "Histogram", "TdcSpec", "classify",
                    "count_rate", "discriminate", "histogram", "tdc"],
    "characterize": ["RunReport", "SweepPoint", "SweepResult", "afterpulse_probability",
                     "charge_from_photocurrent", "count_rate_vs_flux", "efficiency_at_afterpulse",
                     "efficiency_sweep", "net_efficiency", "run_characterization"],
    "presets": ["DETECTOR_PRESETS", "get_preset", "load_presets", "save_presets"],
}

_RESOLVE_PACKAGE_NAMES = """
import importlib, json, sys
import unicsim
eager = sorted(m for m in sys.modules if m.startswith("unicsim."))
listed = set(dir(unicsim))
wrong = [f"{module}.{name}" for module, names in json.loads(sys.argv[1]).items() for name in names
         if name not in listed
         or getattr(unicsim, name) is not getattr(importlib.import_module(f"unicsim.{module}"), name)]
print(json.dumps({"eager": eager, "wrong": wrong, "version": unicsim.__version__}))
"""


def test_package_names_resolve_on_use_to_their_modules_objects():
    res = subprocess.run([sys.executable, "-c", _RESOLVE_PACKAGE_NAMES, json.dumps(_PACKAGE_NAMES)],
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    report = json.loads(res.stdout.splitlines()[-1])
    assert report == {"eager": [], "wrong": [], "version": "0.1.0"}


# ---------------------------------------------------------------------------
# The streamed simulate subcommand against the library's whole-stream path
# ---------------------------------------------------------------------------

# Three whole blocks and a partial one, so every run crosses three block edges.
EDGE_N_GATES = 3 * apd._CHUNK + 12_345
README_ACQ = GOLDEN_CONFIG["acquisition"]  # a 2 ns TDC dead time
# A dense pulsed source (R = 2) read with a half-gate offset and no dead
# time: a stamp of a block's first gate with early jitter maps onto the last
# gate of the block before, which that block's last stamp can hit too.
OFFSET_RUN = {"detector": {**DETECTOR, "dark_per_gate": 0.9},
              "source": {"mode": "pulsed", "laser_rate": 6.25e8, "mu": 5.0, "illuminated_gate_phase": 1},
              "acquisition": {"tdc": {"resolution": 1e-12, "dead_time": 0.0}, "gate_offset": 4e-10}}

STREAMED = {
    "carved": {"seed": 5, "detector_preset": "apd1_minus30C", "acquisition": README_ACQ,
               "source": {"mode": "cw_carved", "laser_rate": 1.25e9, "mu": 3.0}},
    "pulsed-traps": {"seed": 6, "detector": {**DETECTOR, "traps_per_avalanche": 2.0}, "source": SOURCE,
                     "acquisition": README_ACQ},
    "pulsed-offset": {"seed": 12, "emit": ["json"], **OFFSET_RUN},
}


def _digests(root: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(root.iterdir())}


@pytest.mark.parametrize("name", list(STREAMED))
def test_streamed_simulate_equals_the_whole_stream_path(tmp_path, capsys, name):
    path = write_config(tmp_path, n_gates=EDGE_N_GATES, **STREAMED[name])
    assert cli.main(["simulate", "-c", str(path)]) == 0
    printed = capsys.readouterr().out.splitlines()[0]

    cfg = cli.parse("simulate", json.loads(path.read_text()))
    det, src, acq, n = cfg.detector, cfg.source, cfg.acquisition, cfg.n_gates
    stream = apd.simulate(det, src, n, cfg.seed)
    ts = acquisition.tdc(stream.time, acq.tdc)
    lib = tmp_path / "lib"
    lib.mkdir()
    acquisition.write_timestamps_binary(lib / "timestamps.bin", ts)
    if "csv" in cfg.emit:
        apd.write_events_csv(lib / "events.csv", stream)
    summary = {"n_gates": n, "n_events": len(stream), "counts": stream.counts(), "n_timestamps": int(ts.size)}
    if src.mode == "pulsed":
        gc = acquisition.classify(ts, det.f_g, apd.pulse_ratio(det, src), src.illuminated_gate_phase, n,
                                  offset=acq.gate_offset)
        summary.update(p_i=gc.p_i, p_ni=gc.p_ni)
    _io.write_json(lib / "summary.json", summary)

    assert _digests(tmp_path / "out") == _digests(lib)
    assert printed == f"simulate: n_events={len(stream)} counts={stream.counts()}"
    if name == "pulsed-offset":  # one gate is hit from both sides of a block edge
        assert ts.size == len(stream)  # no dead time: stamp i is event i's
        block = stream.gate_index // apd._CHUNK
        gates = np.rint((ts - acq.gate_offset) * det.f_g)
        assert np.any((block[1:] > block[:-1]) & (gates[1:] == gates[:-1]))


def test_simulate_stamp_before_gate_zero_counts_for_no_gate(tmp_path):
    # a 2 ns readout offset maps the stamps of the first two gates below gate 0
    run = {**OFFSET_RUN, "acquisition": {**OFFSET_RUN["acquisition"], "gate_offset": 2e-9}}
    path = write_config(tmp_path, n_gates=10_000, **run)
    assert cli.main(["simulate", "-c", str(path)]) == 0
    out = tmp_path / "out"
    assert sorted(p.name for p in out.iterdir()) == ["events.csv", "summary.json", "timestamps.bin"]
    ts = read_timestamps_binary(out / "timestamps.bin")
    gates = np.rint((ts - 2e-9) * 1.25e9)
    assert np.any(gates < 0)
    gc = acquisition.classify(ts[gates >= 0], 1.25e9, 2, 1, 10_000, offset=2e-9)
    summary = json.loads((out / "summary.json").read_text())
    assert (summary["p_i"], summary["p_ni"]) == (gc.p_i, gc.p_ni)


def test_characterize_block_tallies_equal_the_whole_run_reduce(tmp_path):
    # a dense pulsed source (R = 2) over three block edges, read with a
    # readout offset and the README's 2 ns dead time; the reference gathers
    # each run's kept stamps and reduces them whole
    path = write_config(tmp_path, n_gates=EDGE_N_GATES, seed=9, emit=["csv", "json"], histogram_bin=1e-11,
                        detector={**DETECTOR, "dark_per_gate": 1e-3},
                        source={"mode": "pulsed", "laser_rate": 6.25e8, "mu": 3.0, "illuminated_gate_phase": 1},
                        acquisition={**README_ACQ, "gate_offset": 3e-10})
    assert cli.main(["characterize", "-c", str(path)]) == 0
    out = tmp_path / "out"

    cfg = cli.parse("characterize", json.loads(path.read_text()))
    det, src, acq, n = cfg.detector, cfg.source, cfg.acquisition, cfg.n_gates
    seed_on, seed_off = characterize._derived_seeds(cfg.seed)

    def gathered(source, seed):
        blocks = []
        characterize._run(det, source, acq.tdc, n, seed, stamps=(blocks.append,))
        assert len(blocks) == 4
        ts = np.concatenate(blocks)
        return ts, acquisition.classify(ts, det.f_g, 2, 1, n, offset=acq.gate_offset)

    ts, gc = gathered(src, seed_on)
    _, gc_off = gathered(replace(src, mu=0.0), seed_off)
    assert read_gate_counts_json(out / "gate_counts.json") == gc
    report = read_run_report(out / "run_report.json")
    assert report.dark_clicks == gc_off.clicks_illuminated + gc_off.clicks_non_illuminated > 0
    hist = acquisition.histogram(ts, 2 / det.f_g, cfg.histogram_bin)
    starts, counts = read_histogram_csv(out / "histogram.csv")
    assert np.array_equal(counts, hist.bins) and np.array_equal(starts, hist.bin_starts())


# ---------------------------------------------------------------------------
# Overrides and determinism
# ---------------------------------------------------------------------------

def test_flag_overrides(tmp_path):
    cfg = write_config(tmp_path, n_gates=1_250_000, detector=DETECTOR, source=SOURCE,
                       acquisition=ACQ0)
    other = tmp_path / "other"
    res = run_cli("simulate", "-c", str(cfg), "--n-gates", "250000",
                  "--output-dir", str(other), "--seed", "7")
    assert res.returncode == 0, res.stderr
    summary = json.loads((other / "summary.json").read_text())
    assert summary["n_gates"] == 250_000


def test_reruns_byte_identical(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    cfg = write_config(tmp_path, n_gates=1_250_000, network=NETWORK, detector=DETECTOR,
                       source=SOURCE, acquisition=ACQ0)
    for cmd in ("design", "simulate"):
        ra = run_cli(cmd, "-c", str(cfg), "--output-dir", str(out_a))
        rb = run_cli(cmd, "-c", str(cfg), "--output-dir", str(out_b))
        assert ra.returncode == 0 and rb.returncode == 0
        assert tree_bytes(out_a) == tree_bytes(out_b)


# ---------------------------------------------------------------------------
# Failure modes
# ---------------------------------------------------------------------------

def test_missing_seed_and_bad_fields_listed(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({
        "n_gates": -5,
        "detector": {"eta_gate": 2.0},
        "source": SOURCE,
        "output_dir": str(tmp_path / "out"),
    }))
    res = run_cli("simulate", "-c", str(cfg))
    assert res.returncode == 2
    err = json.loads(res.stderr)
    assert err["error"] == "config"
    joined = " ".join(err["paths"])
    assert "seed" in joined and "n_gates" in joined and "detector" in joined


def test_invalid_json_is_config_error(tmp_path):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    res = run_cli("design", "-c", str(cfg))
    assert res.returncode == 2
    assert json.loads(res.stderr)["error"] == "config"


def test_unknown_preset_is_config_error(tmp_path):
    cfg = write_config(tmp_path, n_gates=10_000, detector_preset="apd9_300K", source=SOURCE)
    res = run_cli("simulate", "-c", str(cfg))
    assert res.returncode == 2
    assert "apd9_300K" in " ".join(json.loads(res.stderr)["paths"])


def test_infeasible_balance_is_config_error(tmp_path):
    net = {**NETWORK, "coupler_tap": 0.1}
    cfg = write_config(tmp_path, network=net)
    res = run_cli("design", "-c", str(cfg))
    assert res.returncode == 2
    err = json.loads(res.stderr)
    assert err["error"] == "config"
    [path] = err["paths"]
    assert path.startswith("network.coupler_tap: ") and "below through arm" in path


# ---------------------------------------------------------------------------
# Property: a mutated README config, run end to end, exits 0 or exits 2 and
# names the offending paths; it never raises.
# ---------------------------------------------------------------------------

@settings(derandomize=True, deadline=None, max_examples=250, suppress_health_check=[HealthCheck.too_slow])
@given(cfg=mutations(), command=st.sampled_from(list(cli._COMMANDS)))
def test_mutated_config_runs_or_exits_2_naming_its_paths(cfg, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main([command, "-c", path, "--output-dir", os.path.join(tmp, "out")])
    assert code == 0 or code == 2 and json.loads(err.getvalue())["paths"], err.getvalue()
