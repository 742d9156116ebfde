"""Config-driven command line for reproducible, file-emitting experiments.

One JSON config file describes an experiment; flags may override only seed,
n_gates and output_dir so provenance stays in the config.  The file is read
into `ExperimentConfig` by one builder driven by the dataclass type hints.
Exit codes: 0 success, 2 config error, 3 runtime error; failures print a
machine-readable JSON object to stderr.  Each subcommand, and each check of
its config, imports only the kernel modules it calls.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from dataclasses import fields, replace

import numpy as np

from . import _io, presets
from ._schema import ConfigError, at, build
from .config import (ExperimentConfig, FrequencyGrid, MaxrateConfig, NetworkConfig, Scenario, SourceConfig,
                     SpectrumConfig, SweepConfig, WaveformConfig)  # each section is re-exported

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

# Sections each subcommand needs; the waveform command also needs `network` when filtered.
_NEEDS = {"design": ("network",), "spectrum": ("network",), "waveform": ("waveform",),
          "simulate": ("n_gates", "detector", "source"), "characterize": ("n_gates", "detector", "source"),
          "sweep": ("n_gates", "sweep", "source"), "maxrate": ("n_gates", "detector", "maxrate")}


def _raise_if(errors: list):
    if errors:
        raise ConfigError(dict.fromkeys(errors))


def _load_config(path: str, args) -> dict:
    try:
        cfg = _io.read_json(path)
    except OSError as e:
        raise ConfigError([f"config: cannot read {path}: {e}"]) from None
    except ValueError as e:
        raise ConfigError([f"config: invalid JSON in {path}: {e}"]) from None
    if not isinstance(cfg, dict):
        raise ConfigError(["config: top level must be a JSON object"])
    for key in ("seed", "n_gates", "output_dir"):
        if getattr(args, key) is not None:
            cfg[key] = getattr(args, key)
    return cfg


def _resolve_detectors(cfg: ExperimentConfig, errors: list) -> ExperimentConfig:
    """`cfg` with `detector_preset` and the preset names in `sweep` looked up."""
    extra = {}
    if cfg.presets_file is not None:
        try:
            extra = presets.load_presets(cfg.presets_file)
        except ConfigError as e:
            errors.extend(f"presets_file.{p}" for p in e.paths)
        except (OSError, ValueError) as e:
            errors.append(f"presets_file: cannot read {cfg.presets_file}: {e}")

    def preset(name, path):
        try:
            return presets.get_preset(name, extra)
        except KeyError as e:
            errors.append(f"{path}: {e.args[0]}")

    detector = cfg.detector if cfg.detector_preset is None else preset(cfg.detector_preset, "detector_preset")
    sweep = cfg.sweep and SweepConfig(tuple(
        s if isinstance(s, Scenario) else Scenario(s, preset(s, f"sweep.scenarios[{i}]"))
        for i, s in enumerate(cfg.sweep.scenarios)))
    return replace(cfg, detector=detector, sweep=sweep)


def _checked(errors: list, path: str, check, *args, names=()):
    """`check(*args)`, or None with its ValueError or ArithmeticError appended
    to `errors` under `path`."""
    try:
        return check(*args)
    except (ValueError, ArithmeticError) as e:
        errors.append(at(path, str(e), names))


def _check_runs(command: str, cfg: ExperimentConfig, errors: list) -> None:
    """Checks that need the detector together with the source or n_gates."""
    if command == "sweep":
        detectors = [s.detector for s in cfg.sweep.scenarios]
    elif command == "characterize" or command == "simulate" and cfg.source.mode == "pulsed":
        detectors = [cfg.detector]
    else:
        return
    from . import acquisition, characterize
    for det in detectors:
        r = _checked(errors, "source", characterize._pulsed_ratio, det, cfg.source,
                     names=SourceConfig.__dataclass_fields__)
        span = cfg.n_gates / det.f_g  # at an offset this large every stamp maps outside [0, n_gates)
        if (command != "simulate" or "json" in cfg.emit) and abs(cfg.acquisition.gate_offset) >= span:
            errors.append(f"acquisition.gate_offset: |gate_offset| must be < n_gates / f_g = {span!r} s")
        if command != "simulate" and not 0.0 < -math.expm1(-cfg.source.mu * det.eta_gate) < 1.0:
            errors.append("source.mu: 1 - exp(-mu * eta_gate) must lie in (0, 1) in floating point: at 0 no photon "
                          "is detected, at 1 every illuminated gate clicks; either way eta_net has no estimate")
        if r is None:
            continue
        if command != "simulate":
            _checked(errors, "n_gates", characterize._pulsed_ratio, det, cfg.source, cfg.n_gates)
        if command == "characterize":  # R/f_g: the fold period
            _checked(errors, "histogram_bin", acquisition._fold_bins, r / det.f_g, cfg.histogram_bin)


def _check_spectrum(cfg: ExperimentConfig, errors: list) -> None:
    """The null-metrics grid and the spectrum.csv grids, built as `cmd_spectrum` builds them."""
    from . import network
    sp = cfg.network.spectrum
    _checked(errors, "network.f_g", network._check_metrics_grid, network.metrics_grid(), float(cfg.network.f_g))
    _checked(errors, "network.spectrum.fine_span", _fine_grid, cfg.network)
    _checked(errors, "network.spectrum.coarse_step", network.metrics_grid,
             sp.f_start, sp.f_stop, sp.coarse_step)


def _check_waveform(cfg: ExperimentConfig, errors: list) -> None:
    """The library's checks of the gate response, record and impulses of `cmd_waveform`."""
    from . import waveform
    wf, names = cfg.waveform, WaveformConfig.__dataclass_fields__
    spec = _checked(errors, "waveform", _gate_spec, wf, cfg.network, names=names)
    if spec is not None:
        _checked(errors, "waveform", waveform._record_length, spec, wf.duration, wf.sample_rate, names=names)
    if wf.impulse_gate_stride > 0:
        n_errors = len(errors)
        _checked(errors, "waveform.impulse_fwhm", waveform._check_resolvable, wf.impulse_fwhm, wf.sample_rate)
        if len(errors) == n_errors:  # a resolvable fwhm is positive: only the peak is left to fault
            _checked(errors, "waveform.impulse_peak", _impulse, wf)


def parse(command: str, raw: dict) -> ExperimentConfig:
    """The typed config for `command`, or ConfigError naming every offending path.

    Field errors are listed together; preset names, required sections and
    cross-section checks are checked once the fields they rest on are valid.
    """
    errors: list[str] = []
    cfg = build(ExperimentConfig, raw, "", errors)
    _raise_if(errors)
    cfg = _resolve_detectors(cfg, errors)
    _raise_if(errors)
    needs = _NEEDS[command]
    if command == "waveform" and cfg.waveform is not None and cfg.waveform.filtered:
        needs += ("network",)
    _raise_if([f"{key}: missing required key" for key in needs if getattr(cfg, key) is None])
    if "network" in needs:  # the interferometer arms must balance at f_g
        _checked(errors, "network.coupler_tap", _build_design, cfg.network)
    _check_runs(command, cfg, errors)
    if command == "spectrum":
        _check_spectrum(cfg, errors)
    elif command == "waveform":
        _check_waveform(cfg, errors)
    _raise_if(errors)
    return cfg


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _build_design(net: NetworkConfig):
    from . import network
    design = network.solve_unic_delay(net.saw.group_delay, float(net.f_g), net.coupler_tap)
    return network.balanced_design(design, net.saw)


def _chain(net: NetworkConfig) -> list:
    """The readout chain's parts: `stages` balanced interferometers, then the band-stop."""
    parts = [(_build_design(net), net.saw)] * net.stages
    return parts if net.band_stop is None else parts + [net.band_stop]


def _fine_grid(net: NetworkConfig) -> FrequencyGrid:
    """The spectrum.csv grid of fine_step steps over fine_span centred on f_g."""
    sp = net.spectrum
    n_fine = int(round(sp.fine_span / sp.fine_step)) + 1
    fine_start = float(net.f_g) - sp.fine_span / 2
    return FrequencyGrid(fine_start, fine_start + (n_fine - 1) * sp.fine_step, n_fine)


def _gate_spec(wf: WaveformConfig, net: NetworkConfig | None):
    from . import waveform
    f_g = float(wf.f_g if wf.f_g is not None else net.f_g if wf.filtered and net else 1.25e9)
    return waveform.GateWaveSpec(f_g, wf.fundamental_amp, wf.harmonics)


def _impulse(wf: WaveformConfig):
    from . import waveform
    return waveform.ImpulseSpec(fwhm=wf.impulse_fwhm, peak=wf.impulse_peak)


def _out(cfg: ExperimentConfig, name: str, written: list) -> str:
    """Path of output file `name`, recorded in `written`."""
    os.makedirs(cfg.output_dir, exist_ok=True)
    path = os.path.join(cfg.output_dir, name)
    written.append(path)
    return path


def cmd_design(cfg: ExperimentConfig) -> list[str]:
    from . import network
    design = _build_design(cfg.network)
    written: list[str] = []
    if "json" in cfg.emit:
        network.write_design_report(_out(cfg, "design.json", written), design)
    print(f"design: n={design.n} delta_t_s={design.delta_t!r} "
          f"att_balance_db={design.att_balance_db!r} half_wave_warning={design.half_wave_warning}")
    return written


def cmd_spectrum(cfg: ExperimentConfig) -> list[str]:
    from . import network
    net, sp = cfg.network, cfg.network.spectrum
    chain = _chain(net)
    metrics = network.chain_null_metrics(chain, network.metrics_grid(), float(net.f_g))

    written: list[str] = []
    if "csv" in cfg.emit:
        coarse_grid = network.metrics_grid(sp.f_start, sp.f_stop, sp.coarse_step)
        network.write_spectrum_csv(_out(cfg, "spectrum.csv", written), [
            network.chain_response(chain, _fine_grid(net)), network.chain_response(chain, coarse_grid)])
    if "json" in cfg.emit:
        _io.write_json(_out(cfg, "null_metrics.json", written), {
            "f_null_hz": metrics.f_null, "depth_db": metrics.depth_db,
            "width_30db_hz": metrics.width_30db, "background_loss_db": metrics.background_loss_db})
    print(f"spectrum: depth_db={metrics.depth_db:.2f} width_30db_hz={metrics.width_30db:.6g} "
          f"background_loss_db={metrics.background_loss_db:.2f}")
    return written


def cmd_waveform(cfg: ExperimentConfig) -> list[str]:
    from . import network, waveform
    wf = cfg.waveform
    net = cfg.network if wf.filtered else None
    gate_spec = _gate_spec(wf, net)
    f_g = gate_spec.f_g
    stride = wf.impulse_gate_stride
    impulse, times = None, ()
    if stride > 0:
        impulse = _impulse(wf)
        times = np.arange(stride, int(wf.duration * f_g) - 1, stride) * (1.0 / f_g)
    response = None
    if net is not None:
        n_pts = waveform.DEFAULT_IR_LENGTH // 2 + 1
        response = network.chain_response(_chain(net), FrequencyGrid(0.0, wf.sample_rate / 2.0, n_pts))
    # the record of synth_record, streamed into waveform.bin a piece at a
    # time and read back a slice at a time: no record-sized array is held
    n, pieces = waveform._record(gate_spec, wf.duration, wf.sample_rate, impulse, times, wf.noise_rms,
                                 cfg.seed, response)
    del response  # the filter drops it once it has its taps

    written: list[str] = []
    path = _out(cfg, "waveform.bin", written)
    waveform._write_binary(path, wf.sample_rate, 0.0, n, pieces)
    with open(path, "rb") as fh:
        read = waveform._binary_reader(fh)
        if "csv" in cfg.emit:
            waveform._write_csv(_out(cfg, "waveform.csv", written), wf.sample_rate, 0.0, n, read)
        rms = waveform._rms(n, read)
    print(f"waveform: n_samples={n} rms_v={rms!r}")
    return written


def cmd_simulate(cfg: ExperimentConfig) -> list[str]:
    from . import acquisition, apd, characterize
    det, src, acq, n_gates = cfg.detector, cfg.source, cfg.acquisition, cfg.n_gates
    # the run is written into its files a block at a time; a failed run leaves none
    written: list[str] = []
    with contextlib.ExitStack() as files:
        stamps = [files.enter_context(acquisition._timestamps_writer(_out(cfg, "timestamps.bin", written)))]
        tally = None
        if src.mode == "pulsed" and "json" in cfg.emit:
            tally = acquisition._GateTally(det.f_g, apd.pulse_ratio(det, src), src.illuminated_gate_phase,
                                           n_gates, acq.gate_offset)
            stamps.append(tally.add)
        events = None
        if "csv" in cfg.emit:
            rows = files.enter_context(_io.csv_rows(_out(cfg, "events.csv", written), apd._EVENTS_HEADER))

            def events(*block):
                rows(apd._event_columns(*block))

        run = characterize._run(det, src, acq.tdc, n_gates, cfg.seed, events, stamps)
    n_events = sum(run.counts.values())
    if "json" in cfg.emit:
        summary = {"n_gates": n_gates, "n_events": n_events, "counts": run.counts, "n_timestamps": run.kept}
        if tally is not None:
            gc = tally.counts()
            summary.update(p_i=gc.p_i, p_ni=gc.p_ni)
        _io.write_json(_out(cfg, "summary.json", written), summary)
    print(f"simulate: n_events={n_events} counts={run.counts}")
    return written


def cmd_characterize(cfg: ExperimentConfig) -> list[str]:
    from . import acquisition, apd, characterize
    det, src = cfg.detector, cfg.source
    period = apd.pulse_ratio(det, src) / det.f_g  # R / f_g: the fold period
    bins = np.zeros(acquisition._fold_bins(period, cfg.histogram_bin), dtype=np.int64)  # summed a block at a time
    fold = [lambda ts: np.add(bins, acquisition.histogram(ts, period, cfg.histogram_bin).bins, out=bins)]
    report, _ = characterize._characterize_streams(det, src, cfg.acquisition, cfg.n_gates, cfg.seed,
                                                   fold if "csv" in cfg.emit else [])
    written: list[str] = []
    if "json" in cfg.emit:
        characterize.write_run_report(_out(cfg, "run_report.json", written), report)
        gc = acquisition.GateCounts(**{f.name: getattr(report, f.name) for f in fields(acquisition.GateCounts)})
        acquisition.write_gate_counts_json(_out(cfg, "gate_counts.json", written), gc)
    if "csv" in cfg.emit:
        hist = acquisition.Histogram(cfg.histogram_bin, period, bins)
        acquisition.write_histogram_csv(_out(cfg, "histogram.csv", written), hist)
    print(f"characterize: eta_net={report.eta_net!r} p_a={report.p_a!r} p_d={report.p_d!r}")
    return written


def cmd_sweep(cfg: ExperimentConfig) -> list[str]:
    from . import characterize
    scenarios = [(s.label, s.detector) for s in cfg.sweep.scenarios]
    result = characterize.efficiency_sweep(scenarios, cfg.source, cfg.acquisition, cfg.n_gates, cfg.seed)
    written: list[str] = []
    if "csv" in cfg.emit:
        characterize.write_sweep_csv(_out(cfg, "sweep.csv", written), result)
    if "json" in cfg.emit:
        _io.write_json(_out(cfg, "sweep.json", written), {"reports": [r.to_dict() for r in result.reports]})
    for p in result.points:
        print(f"sweep[{p.label}]: eta_net={p.eta_net!r} p_a={p.p_a!r} p_d={p.p_d!r}")
    return written


def cmd_maxrate(cfg: ExperimentConfig) -> list[str]:
    from . import characterize
    flux_list = [float(x) for x in cfg.maxrate.flux_list]
    result = characterize.count_rate_vs_flux(cfg.detector, cfg.acquisition, flux_list, cfg.n_gates, cfg.seed)
    written: list[str] = []
    if "csv" in cfg.emit:
        characterize.write_sweep_csv(_out(cfg, "maxrate.csv", written), result)
    if "json" in cfg.emit:
        rows = [
            {"flux": p.flux, "rate_hz": p.rate_hz, "photocurrent_a": p.photocurrent_a,
             "charge_c": characterize.charge_from_photocurrent(p.photocurrent_a, p.rate_hz)
             if p.rate_hz > 0 else 0.0}
            for p in result.points
        ]
        _io.write_json(_out(cfg, "maxrate.json", written), {"points": rows})
    for p in result.points:
        print(f"maxrate[{p.label}]: flux={p.flux!r} rate_hz={p.rate_hz!r}")
    return written


_COMMANDS = {"design": cmd_design, "spectrum": cmd_spectrum, "waveform": cmd_waveform,
             "simulate": cmd_simulate, "characterize": cmd_characterize, "sweep": cmd_sweep,
             "maxrate": cmd_maxrate}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unicsim", description="Gated-detector readout chain simulator and characterization toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("-c", "--config", required=True, help="experiment config JSON")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--n-gates", type=int, default=None, help="override config n_gates")
        p.add_argument("--output-dir", default=None, help="override config output_dir")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = parse(args.command, _load_config(args.config, args))
        written = _COMMANDS[args.command](cfg)
    except ConfigError as e:
        print(json.dumps({"error": "config", "paths": e.paths}), file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, TypeError, KeyError, OSError, ArithmeticError) as e:
        print(json.dumps({"error": "runtime", "message": f"{type(e).__name__}: {e}"}), file=sys.stderr)
        return EXIT_RUNTIME
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
