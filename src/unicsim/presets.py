"""Named detector scenario presets.

These are illustrative operating points for two fiber-pigtailed diodes at a
few regulated temperatures, calibrated so the trap parameters land near the
afterpulse probabilities observed at each temperature (the bias-to-parameter
mapping is empirical, so presets are meant to be re-fit per device).  Preset
files are plain JSON objects keyed by name, each holding DetectorConfig
fields, checked by the same builder as the command-line config.
"""

from __future__ import annotations

from dataclasses import asdict

from ._io import read_json, write_json
from ._schema import ConfigError, build
from .config import DetectorConfig

__all__ = ["DETECTOR_PRESETS", "get_preset", "load_presets", "save_presets"]


def _preset(eta, dark, traps, mean_charge=3.8e-14):
    return DetectorConfig(
        f_g=1.25e9,
        gate_width=1.5e-10,
        eta_gate=eta,
        dark_per_gate=dark,
        mean_charge=mean_charge,
        charge_cv=0.3,
        traps_per_avalanche=traps,
        detrap_tau=2e-9,
        p_trigger=0.1,
        jitter_sigma=5e-11,
    )


# traps_per_avalanche values put the first-generation afterpulse expectation
# (expected_afterpulses) at roughly 1.0% / 0.8% / 0.6% for diode 1 and
# 2.3% / 5.9% for diode 2.
DETECTOR_PRESETS: dict[str, DetectorConfig] = {
    "apd1_minus30C": _preset(eta=0.212, dark=5.4e-7, traps=0.68066),
    "apd1_0C": _preset(eta=0.28, dark=2.5e-6, traps=0.54453),
    "apd1_30C": _preset(eta=0.342, dark=1.3e-5, traps=0.40840),
    "apd2_minus20C": _preset(eta=0.30, dark=1.6e-6, traps=1.56552),
    "apd2_30C": _preset(eta=0.50, dark=1.1e-4, traps=4.01589, mean_charge=6.5e-14),
}


def get_preset(name: str, extra: dict[str, DetectorConfig] | None = None) -> DetectorConfig:
    table = dict(DETECTOR_PRESETS)
    if extra:
        table.update(extra)
    try:
        return table[name]
    except KeyError:
        known = ", ".join(sorted(table))
        raise KeyError(f"unknown detector preset {name!r}; known presets: {known}") from None


def load_presets(path) -> dict[str, DetectorConfig]:
    """Presets in the JSON file `path`.  Raises ConfigError (a ValueError)
    naming each defect as `name.field: message`."""
    raw = read_json(path)
    if not isinstance(raw, dict):
        raise ValueError("preset file must be a JSON object keyed by preset name")
    errors: list[str] = []
    loaded = {name: build(DetectorConfig, entry, name, errors) for name, entry in raw.items()}
    if errors:
        raise ConfigError(errors)
    return loaded


def save_presets(path, presets: dict[str, DetectorConfig]) -> None:
    write_json(path, {name: asdict(cfg) for name, cfg in presets.items()})
