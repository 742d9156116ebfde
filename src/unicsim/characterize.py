"""Counting estimators and experiment drivers.

From the per-gate click probabilities of a pulsed run (P_I on illuminated
gates, P_NI on the others) and a separate laser-off dark run (P_D), the
afterpulse probability per photon-induced event is

    P_A = (P_NI - P_D) * R / (P_I - P_NI)

with R the gate-to-laser ratio, and the net detection efficiency is

    eta_net = (1/mu) * ln((1 - P_NI) / (1 - P_I))

which removes dark and afterpulse contributions from the Poisson source
statistics.  Uncertainties are normal-approximation binomial intervals
propagated to the derived quantities to first order.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace

import numpy as np

from ._io import read_csv, read_json, write_csv, write_json
from .acquisition import classify, tdc, AcquisitionConfig
from .apd import DetectorConfig, SourceConfig, pulse_ratio, simulate

__all__ = [
    "RunReport",
    "SweepPoint",
    "SweepResult",
    "afterpulse_probability",
    "net_efficiency",
    "run_characterization",
    "efficiency_sweep",
    "efficiency_at_afterpulse",
    "count_rate_vs_flux",
    "charge_from_photocurrent",
    "worker_count",
    "write_run_report",
    "read_run_report",
    "write_sweep_csv",
    "read_sweep_csv",
]


@dataclass(frozen=True)
class RunReport:
    """Estimates, raw counts and 1-sigma intervals for one characterization run."""

    p_i: float
    p_ni: float
    p_d: float
    r: int
    mu: float
    p_a: float
    eta_net: float
    n_gates_illuminated: int
    n_gates_non_illuminated: int
    clicks_illuminated: int
    clicks_non_illuminated: int
    dark_gates: int
    dark_clicks: int
    p_i_sigma: float
    p_ni_sigma: float
    p_d_sigma: float
    p_a_sigma: float
    eta_net_sigma: float

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


@dataclass(frozen=True)
class SweepPoint:
    label: str
    eta_net: float
    p_a: float
    p_d: float
    flux: float          # photons per illumination pulse
    rate_hz: float
    photocurrent_a: float


@dataclass(frozen=True)
class SweepResult:
    points: tuple[SweepPoint, ...]
    reports: tuple[RunReport, ...] = ()


def worker_count() -> int:
    """Parallel workers for sweep fan-out, capped by UNIC_SIM_THREADS."""
    env = os.environ.get("UNIC_SIM_THREADS")
    if env is not None:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(f"UNIC_SIM_THREADS must be an integer, got {env!r}") from None
    return max(1, min(4, os.cpu_count() or 1))


# ---------------------------------------------------------------------------
# Estimators
# ---------------------------------------------------------------------------

def afterpulse_probability(p_i: float, p_ni: float, p_d: float, r: int) -> float:
    """Afterpulses per photon-induced event from gate-class click probabilities."""
    if r < 1:
        raise ValueError("r must be >= 1")
    if p_d < 0:
        raise ValueError("p_d must be >= 0")
    if p_ni < p_d:
        raise ValueError(
            f"non-illuminated below dark (p_ni={p_ni:.6g} < p_d={p_d:.6g}); "
            "statistical anomaly or misconfigured run"
        )
    if p_i <= p_ni:
        raise ValueError(f"no net photon signal (p_i={p_i:.6g} <= p_ni={p_ni:.6g})")
    return (p_ni - p_d) * r / (p_i - p_ni)


def net_efficiency(p_i: float, p_ni: float, mu: float) -> float:
    """Net single-photon detection efficiency for a Poisson source of mean mu."""
    if mu <= 0:
        raise ValueError("mu must be positive")
    if not 0.0 <= p_ni <= p_i < 1.0:
        raise ValueError("require 0 <= p_ni <= p_i < 1")
    return math.log((1.0 - p_ni) / (1.0 - p_i)) / mu


def _binomial_sigma(p: float, n: int) -> float:
    return math.sqrt(max(p * (1.0 - p), 0.0) / n) if n > 0 else 0.0


def _afterpulse_sigma(p_i, p_ni, p_d, r, s_i, s_ni, s_d) -> float:
    d = p_i - p_ni
    dpi = -(p_ni - p_d) * r / d ** 2
    dpni = (p_i - p_d) * r / d ** 2
    dpd = -r / d
    return math.sqrt((dpi * s_i) ** 2 + (dpni * s_ni) ** 2 + (dpd * s_d) ** 2)


def _efficiency_sigma(p_i, p_ni, mu, s_i, s_ni) -> float:
    return math.sqrt((s_i / (1.0 - p_i)) ** 2 + (s_ni / (1.0 - p_ni)) ** 2) / mu


# ---------------------------------------------------------------------------
# Experiment drivers
# ---------------------------------------------------------------------------

def _derived_seeds(seed: int) -> tuple[int, int]:
    on, off = np.random.SeedSequence(int(seed)).generate_state(2, dtype=np.uint64)
    return int(on), int(off)


def _pulsed_ratio(det: DetectorConfig, src: SourceConfig, n_gates: int | None = None) -> int:
    """Gate-to-laser ratio R of a pulsed source, checked for gate
    classification (R >= 2) and, given n_gates, for estimation (>= 10 R gates)."""
    if src.mode != "pulsed":
        raise ValueError("mode must be 'pulsed' to characterize a detector")
    r = pulse_ratio(det, src)
    if r < 2:
        raise ValueError(f"laser_rate must leave R = f_g/laser_rate >= 2 in pulsed mode, got R = {r}")
    if n_gates is not None and n_gates < 10 * r:
        raise ValueError(f"n_gates must be at least 10 * R = {10 * r}")
    return r


def _characterize_streams(det, src, acq, n_gates, seed):
    """(report, laser-on stream, on-run timestamps) for reuse by sweep drivers."""
    r = _pulsed_ratio(det, src, n_gates)
    seed_on, seed_off = _derived_seeds(seed)

    stream_on = simulate(det, src, n_gates, seed_on)
    ts_on = tdc(stream_on.time, acq.tdc)
    gc = classify(ts_on, det.f_g, r, src.illuminated_gate_phase, n_gates, offset=acq.gate_offset)

    stream_off = simulate(det, replace(src, mu=0.0), n_gates, seed_off)
    ts_off = tdc(stream_off.time, acq.tdc)
    gc_off = classify(ts_off, det.f_g, r, src.illuminated_gate_phase, n_gates, offset=acq.gate_offset)
    dark_clicks = gc_off.clicks_illuminated + gc_off.clicks_non_illuminated
    p_d = dark_clicks / n_gates

    p_i, p_ni = gc.p_i, gc.p_ni  # RunReport takes every GateCounts field
    s_i = _binomial_sigma(p_i, gc.n_gates_illuminated)
    s_ni = _binomial_sigma(p_ni, gc.n_gates_non_illuminated)
    s_d = _binomial_sigma(p_d, n_gates)

    if p_ni == p_d:
        p_a, s_a = 0.0, 0.0  # no excess non-illuminated counts
    else:
        p_a = afterpulse_probability(p_i, p_ni, p_d, r)
        s_a = _afterpulse_sigma(p_i, p_ni, p_d, r, s_i, s_ni, s_d)
    eta = net_efficiency(p_i, p_ni, src.mu)
    s_eta = _efficiency_sigma(p_i, p_ni, src.mu, s_i, s_ni)

    report = RunReport(**asdict(gc), p_d=p_d, r=r, mu=src.mu, p_a=p_a, eta_net=eta,
                       dark_gates=n_gates, dark_clicks=dark_clicks, p_i_sigma=s_i, p_ni_sigma=s_ni,
                       p_d_sigma=s_d, p_a_sigma=s_a, eta_net_sigma=s_eta)
    return report, stream_on, ts_on


def run_characterization(det: DetectorConfig, src: SourceConfig, acq: AcquisitionConfig,
                         n_gates: int, seed: int) -> RunReport:
    """Pulsed laser-on run plus an equal-length laser-off run for P_D."""
    report, _, _ = _characterize_streams(det, src, acq, n_gates, seed)
    return report


def efficiency_sweep(scenarios, src: SourceConfig, acq: AcquisitionConfig,
                     n_gates: int, seed: int) -> SweepResult:
    """One characterization per (label, DetectorConfig) scenario.

    Every point reuses the same base seed, so duplicated scenarios produce
    identical points; points are evaluated in parallel workers and assembled
    in input order.
    """
    scenarios = list(scenarios)
    if len(scenarios) < 2:
        raise ValueError("efficiency_sweep requires at least 2 scenarios")

    def one(item):
        label, det = item
        report, stream_on, ts_on = _characterize_streams(det, src, acq, n_gates, seed)
        span = n_gates / det.f_g
        return SweepPoint(
            label=label,
            eta_net=report.eta_net,
            p_a=report.p_a,
            p_d=report.p_d,
            flux=src.mu,
            rate_hz=len(ts_on) / span,
            photocurrent_a=float(np.sum(stream_on.charge)) / span,
        ), report

    with ThreadPoolExecutor(max_workers=worker_count()) as pool:
        results = list(pool.map(one, scenarios))
    return SweepResult(points=tuple(p for p, _ in results), reports=tuple(r for _, r in results))


def efficiency_at_afterpulse(sweep: SweepResult, target_pa: float) -> float:
    """Interpolate eta_net at a target afterpulse probability from a sweep."""
    pts = sorted(sweep.points, key=lambda p: p.p_a)
    pa = np.asarray([p.p_a for p in pts])
    eta = np.asarray([p.eta_net for p in pts])
    if len(pts) < 2:
        raise ValueError("need at least 2 sweep points")
    if not pa[0] <= target_pa <= pa[-1]:
        raise ValueError(
            f"target_pa {target_pa:.6g} outside sweep range [{pa[0]:.6g}, {pa[-1]:.6g}]"
        )
    return float(np.interp(target_pa, pa, eta))


def _check_flux_list(flux_list) -> list:
    flux_list = list(flux_list)
    if not flux_list:
        raise ValueError("flux_list must not be empty")
    if any(b < a for a, b in zip(flux_list, flux_list[1:])):
        raise ValueError("flux_list must be nondecreasing")
    if flux_list[0] < 0:
        raise ValueError("flux_list entries must be >= 0")
    return flux_list


def count_rate_vs_flux(det: DetectorConfig, acq: AcquisitionConfig, flux_list,
                       n_gates: int, seed: int) -> SweepResult:
    """Click rate and photocurrent versus flux for a gate-synchronous source.

    The source is a pulse train carved at the gating frequency (every gate
    illuminated).  Photocurrent integrates every avalanche charge; the click
    rate sees the configured TDC dead time.  eta_net/p_a/p_d columns carry
    the configured values (a rate sweep does not re-estimate them).
    """
    flux_list = _check_flux_list(flux_list)
    span = n_gates / det.f_g

    def one(item):
        idx, mu = item
        src = SourceConfig(mode="cw_carved", laser_rate=det.f_g, mu=mu)
        stream = simulate(det, src, n_gates, seed)
        ts = tdc(stream.time, acq.tdc)
        return SweepPoint(
            label=f"flux_{idx:03d}",
            eta_net=det.eta_gate,
            p_a=0.0,
            p_d=det.dark_per_gate,
            flux=mu,
            rate_hz=len(ts) / span,
            photocurrent_a=float(np.sum(stream.charge)) / span,
        )

    with ThreadPoolExecutor(max_workers=worker_count()) as pool:
        points = list(pool.map(one, enumerate(flux_list)))
    return SweepResult(points=tuple(points))


def charge_from_photocurrent(current: float, rate: float) -> float:
    """Average avalanche charge from a DC current and click rate."""
    if rate <= 0:
        raise ValueError("rate must be positive")
    return current / rate


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

def write_run_report(path, report: RunReport) -> None:
    write_json(path, report.to_dict())


def read_run_report(path) -> RunReport:
    return RunReport(**read_json(path))


_SWEEP_HEADER = ["label", "eta_net", "p_a", "p_d", "flux", "rate_hz", "photocurrent_a"]


def write_sweep_csv(path, sweep: SweepResult) -> None:
    labels = [p.label for p in sweep.points]
    values = [np.array([getattr(p, k) for p in sweep.points], dtype=np.float64) for k in _SWEEP_HEADER[1:]]
    write_csv(path, _SWEEP_HEADER, [labels, *values])


def read_sweep_csv(path) -> SweepResult:
    labels, *values = read_csv(path, _SWEEP_HEADER)
    rows = zip(labels, *[[float(x) for x in col] for col in values])
    return SweepResult(points=tuple(SweepPoint(*row) for row in rows))
