"""Benchmark workloads: the configs each pass runs and the checks on its outputs.

Every config starts from the README example config (``base_config.json``)
with the workload seed written into its ``seed`` key.  A check returns a
list of problems; an empty list means the subcommand's outputs are correct.
Checks read files through the package's own readers and run outside the
timed region.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import unicsim as u
from unicsim.apd import read_events_csv
from unicsim.acquisition import read_gate_counts_json, read_histogram_csv, read_timestamps_binary
from unicsim.characterize import read_run_report, read_sweep_csv
from unicsim.network import read_spectrum_csv
from unicsim.waveform import read_waveform_binary

BASE_CONFIG = json.loads((Path(__file__).parent / "base_config.json").read_text())

Check = Callable[[Path, dict], list]


@dataclass(frozen=True)
class Step:
    """One subcommand invocation of a pass; it writes into <pass>/<sub>/."""

    sub: str
    config: dict
    check: Check


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[int], list]  # seed -> steps
    # Share of a traced pass predicted for the workload's headline layer:
    # share(per-layer metrics, seconds per layer module, pass wall) >= predicted.
    share: Callable[[dict, dict, float], float]
    predicted: float


def _base(seed: int) -> dict:
    cfg = copy.deepcopy(BASE_CONFIG)
    cfg["seed"] = int(seed)
    return cfg


def _json(path: Path):
    return json.loads(path.read_text())


# A pulsed pass checks eight estimates (eta_net and p_a of four reports).  At
# 3 sigma each, about 3% of seeds would fail one by chance alone; at 4.5 sigma
# fewer than 1 in 2000 do, while a bias of 5% in eta_net or 45% in p_a of the
# apd1_minus30C reports still fails.
K_SIGMA = 4.5


def _within(name, value, target, sigma, k=K_SIGMA) -> list:
    if abs(value - target) <= k * sigma:
        return []
    return [f"{name}={value!r} not within {k:g} sigma ({sigma!r}) of {target!r}"]


def _near(name, value, target, rel) -> list:
    if abs(value - target) <= rel * abs(target):
        return []
    return [f"{name}={value!r} not within {rel:.0%} of {target!r}"]


# ---------------------------------------------------------------------------
# pulsed-characterize
# ---------------------------------------------------------------------------

def _estimates_ok(label: str, report: u.RunReport, det: u.DetectorConfig) -> list:
    return (_within(f"{label} eta_net", report.eta_net, det.eta_gate, report.eta_net_sigma)
            + _within(f"{label} p_a", report.p_a, u.expected_afterpulses(det), report.p_a_sigma))


def _check_characterize(out: Path, cfg: dict) -> list:
    det = u.get_preset(cfg["detector_preset"])
    report = read_run_report(out / "run_report.json")
    gc = read_gate_counts_json(out / "gate_counts.json")
    _, counts = read_histogram_csv(out / "histogram.csv")
    problems = _estimates_ok("characterize", report, det)
    if (gc.clicks_illuminated, gc.clicks_non_illuminated) != (report.clicks_illuminated,
                                                             report.clicks_non_illuminated):
        problems.append("gate_counts.json disagrees with run_report.json")
    # At most one avalanche per gate and no dead time: every laser-on click is binned.
    if int(counts.sum()) != report.clicks_illuminated + report.clicks_non_illuminated:
        problems.append(f"histogram holds {int(counts.sum())} clicks, run report counts "
                        f"{report.clicks_illuminated + report.clicks_non_illuminated}")
    return problems


def _check_sweep(out: Path, cfg: dict) -> list:
    names = cfg["sweep"]["scenarios"]
    reports = [u.RunReport(**r) for r in _json(out / "sweep.json")["reports"]]
    points = read_sweep_csv(out / "sweep.csv").points
    if [p.label for p in points] != names or len(reports) != len(names):
        return [f"sweep labels {[p.label for p in points]} != scenarios {names}"]
    problems = []
    for name, report, point in zip(names, reports, points):
        problems += _estimates_ok(f"sweep[{name}]", report, u.get_preset(name))
        if (point.eta_net, point.p_a, point.p_d) != (report.eta_net, report.p_a, report.p_d):
            problems.append(f"sweep.csv row {name} disagrees with sweep.json")
    # Same detector and seed as the characterize step of this pass: same report.
    if names[0] == cfg["detector_preset"]:
        own = read_run_report(out.parent / "characterize" / "run_report.json")
        if reports[0] != own:
            problems.append(f"sweep[{names[0]}] differs from the characterize run report")
    return problems


def _pulsed(seed: int) -> list:
    cfg = _base(seed)
    cfg["n_gates"] = 125_000_000
    # The estimator check compares p_a with the first-generation oracle, which
    # has no dead time; the README's 2 ns would hide the afterpulses of the
    # next two gates.
    cfg["acquisition"]["tdc"]["dead_time"] = 0.0
    return [Step("characterize", cfg, _check_characterize), Step("sweep", cfg, _check_sweep)]


# ---------------------------------------------------------------------------
# carved-saturation
# ---------------------------------------------------------------------------

def renewal_clicks_per_gate(det: u.DetectorConfig, mu: float, dead_time: float) -> float:
    """Non-paralyzable renewal model f_g*p/(1 + k*p), per gate.

    p = 1 - exp(-mu*eta) is the per-gate click probability and k the number
    of whole gates that fall inside the dead time after a click.
    """
    p = -math.expm1(-mu * det.eta_gate)
    k = math.floor(dead_time * det.f_g)
    return p / (1.0 + k * p)


def _check_simulate(out: Path, cfg: dict) -> list:
    summary = _json(out / "summary.json")
    events = read_events_csv(out / "events.csv")
    ts = read_timestamps_binary(out / "timestamps.bin")
    problems = []
    if len(events) != summary["n_events"] or events.counts() != summary["counts"]:
        problems.append(f"events.csv counts {events.counts()} != summary.json {summary['counts']}")
    if ts.size != summary["n_timestamps"]:
        problems.append(f"timestamps.bin holds {ts.size}, summary.json says {summary['n_timestamps']}")
    det = u.get_preset(cfg["detector_preset"])
    model = renewal_clicks_per_gate(det, cfg["source"]["mu"], cfg["acquisition"]["tdc"]["dead_time"])
    return problems + _near("clicks per gate", ts.size / cfg["n_gates"], model, 0.01)


def _check_maxrate(out: Path, cfg: dict) -> list:
    rows = _json(out / "maxrate.json")["points"]
    points = read_sweep_csv(out / "maxrate.csv").points
    flux = cfg["maxrate"]["flux_list"]
    if [r["flux"] for r in rows] != flux or [p.flux for p in points] != flux:
        return [f"maxrate fluxes differ from the config list {flux}"]
    problems = []
    if [p.rate_hz for p in points] != [r["rate_hz"] for r in rows]:
        problems.append("maxrate.csv rates disagree with maxrate.json")
    rates = [r["rate_hz"] for r in rows]
    if any(b < a for a, b in zip(rates, rates[1:])):
        problems.append(f"rate decreases with flux: {rates}")
    det = u.get_preset(cfg["detector_preset"])
    top = rows[-1]  # the highest flux, 3 photons per gate in the README list
    model = renewal_clicks_per_gate(det, top["flux"], cfg["acquisition"]["tdc"]["dead_time"])
    return problems + _near(f"clicks per gate at flux {top['flux']}", top["rate_hz"] / det.f_g, model, 0.01)


def _carved(seed: int) -> list:
    sim = _base(seed)
    sim["n_gates"] = 500_000
    sim["source"] = {"mode": "cw_carved", "laser_rate": sim["network"]["f_g"], "mu": 3.0}
    rate = _base(seed)
    rate["n_gates"] = 1_250_000
    return [Step("simulate", sim, _check_simulate), Step("maxrate", rate, _check_maxrate)]


# ---------------------------------------------------------------------------
# chain-filter
# ---------------------------------------------------------------------------

def _check_design(out: Path, cfg: dict) -> list:
    n = _json(out / "design.json")["n"]
    return [] if n == 42 else [f"design n={n}, expected 42"]


def _check_spectrum(out: Path, cfg: dict) -> list:
    depth = _json(out / "null_metrics.json")["depth_db"]
    freq, *cols = read_spectrum_csv(out / "spectrum.csv")
    problems = [] if depth >= 100.0 else [f"cascaded null depth {depth!r} dB < 100 dB"]
    if freq.size < 2 or np.any(np.diff(freq) <= 0) or not all(np.all(np.isfinite(c)) for c in cols):
        problems.append("spectrum.csv is not a sorted, finite table")
    return problems


def _check_waveform(out: Path, cfg: dict) -> list:
    wf = cfg["waveform"]
    record = read_waveform_binary(out / "waveform.bin")  # rejects non-finite samples
    n = int(round(wf["duration"] * wf["sample_rate"]))
    if len(record) != n or record.sample_rate != wf["sample_rate"]:
        return [f"waveform.bin holds {len(record)} samples at {record.sample_rate!r} Hz, "
                f"expected {n} at {wf['sample_rate']!r} Hz"]
    return []


def _chain(seed: int) -> list:
    cfg = _base(seed)
    wave = _base(seed)
    # 8e6 samples: past the single-FFT limit, so apply_response runs overlap-add.
    wave["waveform"]["duration"] = 2e-4
    wave["emit"] = ["json"]
    return [Step("design", cfg, _check_design), Step("spectrum", cfg, _check_spectrum),
            Step("waveform", wave, _check_waveform)]


WORKLOADS = {w.name: w for w in (
    Workload(
        "pulsed-characterize",
        "The paper's core measurement: sparse events, so time goes to per-gate draws in apd.simulate "
        "and TDC dead time barely runs.",
        _pulsed, lambda m, layers, wall: m["apd.simulate_s"] / wall, 0.8),
    Workload(
        "carved-saturation",
        "Dense events (a click on ~47% of gates): time goes to TDC dead time and the events writer, "
        "and apd is used unlike the sparse pulsed case.",
        _carved, lambda m, layers, wall: (m["acquisition.tdc_s"] + m["apd.write_s"]) / m["trace.thread_s"],
        0.5),
    Workload(
        "chain-filter",
        "Readout-chain design, 2M-point spectrum and an 8e6-sample overlap-add filter: only network "
        "and waveform work, nothing is simulated.",
        _chain, lambda m, layers, wall: (layers["network"] + layers["waveform"]) / wall, 0.7),
)}
