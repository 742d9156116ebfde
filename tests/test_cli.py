import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from unicsim import cli, network, waveform
from unicsim.acquisition import read_gate_counts_json, read_histogram_csv, read_timestamps_binary
from unicsim.apd import read_events_csv
from unicsim.characterize import read_run_report, read_sweep_csv
from unicsim.network import read_spectrum_csv
from unicsim.waveform import read_waveform_binary, read_waveform_csv

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
def test_streamed_waveform_files_equal_the_library_record(tmp_path, monkeypatch, capsys, filtered):
    # 304,000 samples, not a multiple of the 2**17-sample segment, take the
    # overlap-add path, or unfiltered come in three segments: the command
    # writes its pieces into waveform.bin and reads the file back for the
    # CSV and the rms
    monkeypatch.setattr(waveform, "_MAX_SINGLE_FFT", 1 << 17)
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
@pytest.mark.parametrize("duration, max_single_fft", [
    (2e-7, waveform._MAX_SINGLE_FFT),  # one piece
    (7.6e-6, 1 << 17),                 # overlap-add pieces
], ids=["short", "overlap-add"])
def test_non_finite_record_exits_3_and_leaves_no_file(tmp_path, monkeypatch, capsys, duration,
                                                      max_single_fft):
    monkeypatch.setattr(waveform, "_MAX_SINGLE_FFT", max_single_fft)
    raw = copy.deepcopy(GOLDEN_CONFIG)
    raw["waveform"].update(duration=duration, impulse_peak=1e308)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["waveform", "-c", str(path), "--output-dir", str(tmp_path / "out")]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "runtime", "message": "ValueError: samples must be finite"}
    assert not (tmp_path / "out" / "waveform.bin").exists()


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


# numpy 2 imports numpy.ma lazily, and np.unique and np.median pull it in
# (18-28 ms of import per process); no subcommand needs it.
_RUN_AND_REPORT_NUMPY_MA = """
import json, sys
import numpy
eager = "numpy.ma" in sys.modules
from unicsim import cli
code = cli.main(sys.argv[1:])
print(json.dumps({"code": code, "eager": eager, "loaded": "numpy.ma" in sys.modules}))
"""


@pytest.mark.parametrize("command", ["design", "spectrum", "waveform", "simulate", "characterize",
                                     "sweep", "maxrate"])
def test_no_command_imports_numpy_ma(tmp_path, command):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({**GOLDEN_CONFIG, "output_dir": str(tmp_path / "out")}))
    res = subprocess.run([sys.executable, "-c", _RUN_AND_REPORT_NUMPY_MA, command, "-c", str(cfg)],
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    report = json.loads(res.stdout.splitlines()[-1])
    if report["eager"]:
        pytest.skip("this numpy imports numpy.ma with numpy itself")
    assert report["code"] == 0, res.stderr
    assert not report["loaded"]


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
