"""Desk-scale simulator and characterization toolkit for sub-nanosecond
gated avalanche-photodiode readout chains.

The package models the readout network (a narrowband-interference rejection
stage plus conventional RF blocks) as linear two-ports, synthesizes and
filters readout waveforms, simulates the gated detector stochastically with
an afterpulsing trap model, and implements the counting estimators used to
characterize afterpulse probability, net detection efficiency, count-rate
saturation and avalanche charge.
"""

from .network import (
    Amplifier,
    Attenuator,
    BalanceInfeasibleError,
    Coupler,
    Delay,
    FrequencyGrid,
    Notch,
    NullMetrics,
    SawBpf,
    TwoPortResponse,
    UnicDesign,
    balance_attenuation,
    balanced_design,
    block_response,
    cascade,
    chain_null_metrics,
    chain_response,
    design_report,
    metrics_grid,
    null_metrics,
    solve_unic_delay,
    unic_response,
)
from .waveform import (
    GateWaveSpec,
    ImpulseSpec,
    Waveform,
    add_impulses,
    add_noise,
    apply_response,
    synth_avalanche,
    synth_capacitive,
    synth_record,
)
from .apd import (
    ClickProbabilities,
    DetectorConfig,
    EventStream,
    SourceConfig,
    expected_afterpulses,
    expected_click_prob,
    pulse_ratio,
    renewal_clicks_per_gate,
    simulate,
    simulate_blocks,
)
from .acquisition import (
    AcquisitionConfig,
    DiscriminatorSpec,
    GateCounts,
    Histogram,
    TdcSpec,
    classify,
    count_rate,
    discriminate,
    histogram,
    tdc,
)
from .characterize import (
    RunReport,
    SweepPoint,
    SweepResult,
    afterpulse_probability,
    charge_from_photocurrent,
    count_rate_vs_flux,
    efficiency_at_afterpulse,
    efficiency_sweep,
    net_efficiency,
    run_characterization,
)
from .presets import DETECTOR_PRESETS, get_preset, load_presets, save_presets

__version__ = "0.1.0"
