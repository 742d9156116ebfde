"""Every dataclass that an experiment config reaches, and their checks.

`ExperimentConfig` is the typed form of one command-line config file; its
sections are the library's own parameter classes (the detector, source,
acquisition chain, SAW and band-stop) plus the sections that have no library
class.  They live apart from the kernels that use them, so reading and
checking a config imports no kernel: each subcommand then imports only the
modules it runs.  The kernel modules re-export the classes they take.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Annotated, Literal

import numpy as np

from ._schema import Bound, Finite, NonNegative, OpenUnit, Positive, Probability, at_least, check_fields

DEFAULT_SAMPLE_RATE = 40e9  # 32 samples per 1.25 GHz gate period


def _check_n_gates(n_gates: int) -> None:
    if n_gates < 1:
        raise ValueError("n_gates must be >= 1")
    if n_gates > 1 << 52:  # apd's trap release times carry gate indices in float64
        raise ValueError("n_gates must be <= 2**52 (gate indices must stay exact in float64)")


def _check_flux_list(flux_list) -> list:
    flux_list = list(flux_list)
    if not flux_list:
        raise ValueError("flux_list must not be empty")
    if any(b < a for a, b in zip(flux_list, flux_list[1:])):
        raise ValueError("flux_list must be nondecreasing")
    if flux_list[0] < 0:
        raise ValueError("flux_list entries must be >= 0")
    return flux_list


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform frequency grid in Hz over [f_start, f_stop] with n_points."""

    f_start: NonNegative
    f_stop: Finite
    n_points: at_least(2)

    def __post_init__(self):
        check_fields(self)
        if not self.f_stop > self.f_start:
            raise ValueError("f_stop must exceed f_start")

    @property
    def step(self) -> float:
        return (self.f_stop - self.f_start) / (self.n_points - 1)

    def frequencies(self) -> np.ndarray:
        return np.linspace(self.f_start, self.f_stop, self.n_points)


@dataclass(frozen=True)
class SawBpf:
    """SAW band-pass: order-4 Butterworth magnitude, constant group delay.

    The magnitude is scaled so the full width between the -20 dB points
    (relative to the passband peak) equals `passband_20db`; the phase is
    linear with slope -2*pi*group_delay.
    """

    f_center: Positive        # Hz
    passband_20db: Positive   # Hz, full width at -20 dB
    insertion_loss: Finite    # dB
    group_delay: NonNegative  # seconds

    __post_init__ = check_fields


@dataclass(frozen=True)
class Notch:
    """Second-order band-stop (ideal RLC null at f_center).

    `width_10db` is the full width of the band rejected by at least `depth`
    dB, i.e. |H| = -depth dB at f_center +/- width_10db/2 (geometric
    symmetry) and deeper in between.
    """

    f_center: Positive    # Hz
    depth: Positive       # dB, rejection at the band edges
    width_10db: Positive  # Hz

    __post_init__ = check_fields


@dataclass(frozen=True)
class DetectorConfig:
    """Gated-detector parameters; probabilities are per gate."""

    f_g: Positive = 1.25e9                # gate rate, Hz
    gate_width: float = 1.5e-10           # effective gate width, s
    eta_gate: Probability = 0.25          # single-gate photon detection efficiency
    dark_per_gate: Probability = 1e-6     # dark avalanche probability per gate
    mean_charge: Positive = 3.8e-14       # average avalanche charge, C
    charge_cv: NonNegative = 0.3          # charge coefficient of variation
    traps_per_avalanche: NonNegative = 0.0  # mean trapped carriers per avalanche
    detrap_tau: Positive = 2e-9           # trap release time constant, s
    p_trigger: Probability = 0.1          # afterpulse trigger probability per released carrier
    jitter_sigma: NonNegative = 5e-11     # avalanche timing spread, s

    def __post_init__(self):
        check_fields(self)
        if not 0 < self.gate_width < 1.0 / self.f_g:
            raise ValueError("gate_width must lie in (0, 1/f_g)")


@dataclass(frozen=True)
class SourceConfig:
    """Illumination: 10 MHz-style pulsed laser or a gate-synchronous carved train."""

    mode: Literal["pulsed", "cw_carved"] = "pulsed"
    laser_rate: Positive = 1e7         # Hz
    mu: NonNegative = 0.1              # mean photons per illumination pulse
    illuminated_gate_phase: at_least(0) = 0  # gate index offset of the illuminated gates

    __post_init__ = check_fields


@dataclass(frozen=True)
class DiscriminatorSpec:
    threshold: Finite             # volts
    dead_time: NonNegative = 0.0  # seconds, non-paralyzable

    __post_init__ = check_fields


@dataclass(frozen=True)
class TdcSpec:
    resolution: Positive = 1e-12    # seconds per timestamp step
    dead_time: NonNegative = 2e-9   # seconds, non-paralyzable

    __post_init__ = check_fields


@dataclass(frozen=True)
class AcquisitionConfig:
    """Acquisition chain settings shared by the experiment drivers."""

    tdc: TdcSpec = TdcSpec()
    discriminator: DiscriminatorSpec = DiscriminatorSpec(threshold=5e-6)
    gate_offset: Finite = 0.0  # calibrated readout delay subtracted before gate assignment

    def __post_init__(self):
        check_fields(self)
        if not isinstance(self.tdc, TdcSpec) or not isinstance(self.discriminator, DiscriminatorSpec):
            raise TypeError("tdc/discriminator must be TdcSpec/DiscriminatorSpec")


# The sections of the command-line config that have no library class

@dataclass(frozen=True)
class SpectrumConfig:
    """Grids of spectrum.csv: [f_start, f_stop] coarse, fine_span around f_g fine."""

    f_start: NonNegative = 1e8
    f_stop: Finite = 2.5e9
    coarse_step: Positive = 1e5
    fine_step: Positive = 1e3
    fine_span: Positive = 2e6

    def __post_init__(self):
        check_fields(self)
        FrequencyGrid(self.f_start, self.f_stop, 2)  # f_start < f_stop


@dataclass(frozen=True)
class NetworkConfig:
    """Readout chain: `stages` balanced interferometers plus an optional band-stop."""

    saw: SawBpf
    f_g: Positive = 1.25e9
    coupler_tap: OpenUnit = 0.9
    stages: at_least(1) = 2
    band_stop: Notch | None = None
    spectrum: SpectrumConfig = SpectrumConfig()

    __post_init__ = check_fields


@dataclass(frozen=True)
class WaveformConfig:
    """Synthesized record; f_g defaults to network.f_g when filtered, else 1.25 GHz."""

    duration: Finite = 1e-6
    sample_rate: Finite = DEFAULT_SAMPLE_RATE
    f_g: float | None = None
    fundamental_amp: Finite = 0.42
    harmonics: tuple[tuple[int, float, float], ...] = ()
    impulse_gate_stride: int = 0
    impulse_fwhm: Finite = 1.5e-10
    impulse_peak: Finite = 1e-3
    noise_rms: NonNegative = 0.0
    filtered: bool = True

    __post_init__ = check_fields


@dataclass(frozen=True)
class Scenario:
    label: str
    detector: DetectorConfig


@dataclass(frozen=True)
class SweepConfig:
    """Scenarios are preset names until `cli.parse` resolves them to `Scenario`s."""

    scenarios: Annotated[tuple[str | Scenario, ...], Bound(lambda s: len(s) >= 2, "list at least 2 entries")]

    __post_init__ = check_fields


@dataclass(frozen=True)
class MaxrateConfig:
    flux_list: tuple[float, ...]

    def __post_init__(self):
        _check_flux_list(self.flux_list)


@dataclass(frozen=True)
class ExperimentConfig:
    """The top-level keys; `cli.parse` resolves `detector_preset` into `detector`."""

    seed: int
    n_gates: int | None = None
    output_dir: str = "."
    emit: tuple[Literal["csv", "json"], ...] = ("csv", "json")
    network: NetworkConfig | None = None
    detector_preset: str | None = None
    detector: DetectorConfig | None = None
    presets_file: str | None = None
    source: SourceConfig | None = None
    acquisition: AcquisitionConfig = AcquisitionConfig()
    histogram_bin: float = 1e-11
    waveform: WaveformConfig | None = None
    sweep: SweepConfig | None = None
    maxrate: MaxrateConfig | None = None

    def __post_init__(self):
        if self.n_gates is not None:
            _check_n_gates(self.n_gates)
