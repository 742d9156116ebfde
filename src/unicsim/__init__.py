"""Desk-scale simulator and characterization toolkit for sub-nanosecond
gated avalanche-photodiode readout chains.

The package models the readout network (a narrowband-interference rejection
stage plus conventional RF blocks) as linear two-ports, synthesizes and
filters readout waveforms, simulates the gated detector stochastically with
an afterpulsing trap model, and implements the counting estimators used to
characterize afterpulse probability, net detection efficiency, count-rate
saturation and avalanche charge.
"""

import importlib

# Each public name and the module it is read from when used (PEP 562), so
# that `import unicsim` loads no kernel and a subcommand only the ones it runs.
# Nothing is cached here: `unicsim.X` is always its module's current `X`.
_NAMES = {
    "config": ("AcquisitionConfig", "DetectorConfig", "DiscriminatorSpec", "FrequencyGrid", "Notch", "SawBpf",
               "SourceConfig", "TdcSpec"),
    "network": ("Amplifier", "Attenuator", "BalanceInfeasibleError", "Coupler", "Delay", "NullMetrics",
                "TwoPortResponse", "UnicDesign", "balance_attenuation", "balanced_design", "block_response",
                "cascade", "chain_null_metrics", "chain_response", "design_report", "metrics_grid", "null_metrics",
                "solve_unic_delay", "unic_response"),
    "waveform": ("GateWaveSpec", "ImpulseSpec", "Waveform", "add_impulses", "add_noise", "apply_response",
                 "synth_avalanche", "synth_capacitive", "synth_record"),
    "apd": ("ClickProbabilities", "EventStream", "expected_afterpulses", "expected_click_prob", "pulse_ratio",
            "renewal_clicks_per_gate", "simulate", "simulate_blocks"),
    "acquisition": ("GateCounts", "Histogram", "classify", "count_rate", "discriminate", "histogram", "tdc"),
    "characterize": ("RunReport", "SweepPoint", "SweepResult", "afterpulse_probability", "charge_from_photocurrent",
                     "count_rate_vs_flux", "efficiency_at_afterpulse", "efficiency_sweep", "net_efficiency",
                     "run_characterization"),
    "presets": ("DETECTOR_PRESETS", "get_preset", "load_presets", "save_presets"),
}
_HOME = {name: module for module, names in _NAMES.items() for name in names}
__all__ = sorted(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _NAMES:  # a module's attribute is set by its import
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__():
    return sorted({*globals(), *_NAMES, *_HOME})
