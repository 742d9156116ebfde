"""Stochastic model of a sub-nanosecond gated avalanche photodiode.

Each gate can host at most one avalanche, with cause precedence
photon > dark > afterpulse.  Every avalanche fills a Poisson number of
carrier traps that release with an exponential time constant; a carrier
released inside a later gate window triggers an afterpulse with a fixed
probability.  The trap clock is anchored at gate window starts so the
simulation matches the closed-form first-generation oracle
`expected_afterpulses` exactly.

Gates are processed in fixed-size blocks, each drawing from its own
counter-based (Philox) random streams keyed by (seed, block, purpose), so a
run is bit-reproducible and the primary photon/dark draws are unaffected by
trap settings.  The photon lane draws one uniform per illuminated gate; the
dark lane draws only the dark hits, as geometric gaps between them, so its
cost scales with the number of dark events rather than with the gates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._io import read_csv, write_csv

__all__ = [
    "DetectorConfig",
    "SourceConfig",
    "EventStream",
    "ClickProbabilities",
    "KIND_NAMES",
    "KIND_PHOTON",
    "KIND_DARK",
    "KIND_AFTERPULSE",
    "simulate",
    "expected_afterpulses",
    "expected_click_prob",
    "pulse_ratio",
    "write_events_csv",
    "read_events_csv",
]

KIND_PHOTON = 0
KIND_DARK = 1
KIND_AFTERPULSE = 2
KIND_NAMES = ("photon", "dark", "afterpulse")

_CHUNK = 1 << 20
_LANE_PHOTON, _LANE_DARK, _LANE_TRAP, _LANE_TRIGGER, _LANE_CHARGE, _LANE_JITTER = range(6)


@dataclass(frozen=True)
class DetectorConfig:
    """Gated-detector parameters; probabilities are per gate."""

    f_g: float = 1.25e9                # gate rate, Hz
    gate_width: float = 1.5e-10        # effective gate width, s
    eta_gate: float = 0.25             # single-gate photon detection efficiency
    dark_per_gate: float = 1e-6        # dark avalanche probability per gate
    mean_charge: float = 3.8e-14       # average avalanche charge, C
    charge_cv: float = 0.3             # charge coefficient of variation
    traps_per_avalanche: float = 0.0   # mean trapped carriers per avalanche
    detrap_tau: float = 2e-9           # trap release time constant, s
    p_trigger: float = 0.1             # afterpulse trigger probability per released carrier
    jitter_sigma: float = 5e-11        # avalanche timing spread, s

    def __post_init__(self):
        if self.f_g <= 0:
            raise ValueError("f_g must be positive")
        if not 0 < self.gate_width < 1.0 / self.f_g:
            raise ValueError("gate_width must lie in (0, 1/f_g)")
        for name in ("eta_gate", "dark_per_gate", "p_trigger"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be a probability in [0, 1]")
        if self.mean_charge <= 0:
            raise ValueError("mean_charge must be positive")
        if self.charge_cv < 0:
            raise ValueError("charge_cv must be >= 0")
        if self.traps_per_avalanche < 0:
            raise ValueError("traps_per_avalanche must be >= 0")
        if self.detrap_tau <= 0:
            raise ValueError("detrap_tau must be positive")
        if self.jitter_sigma < 0:
            raise ValueError("jitter_sigma must be >= 0")


@dataclass(frozen=True)
class SourceConfig:
    """Illumination: 10 MHz-style pulsed laser or a gate-synchronous carved train."""

    mode: str = "pulsed"               # "pulsed" | "cw_carved"
    laser_rate: float = 1e7            # Hz
    mu: float = 0.1                    # mean photons per illumination pulse
    illuminated_gate_phase: int = 0    # gate index offset of the illuminated gates

    def __post_init__(self):
        if self.mode not in ("pulsed", "cw_carved"):
            raise ValueError("mode must be 'pulsed' or 'cw_carved'")
        if self.laser_rate <= 0:
            raise ValueError("laser_rate must be positive")
        if self.mu < 0:
            raise ValueError("mu must be >= 0")
        if self.illuminated_gate_phase < 0:
            raise ValueError("illuminated_gate_phase must be >= 0")


def pulse_ratio(det: DetectorConfig, src: SourceConfig) -> int:
    """Gate-to-laser ratio R; 1 for a gate-synchronous carved source."""
    if src.mode == "cw_carved":
        return 1
    r = round(det.f_g / src.laser_rate)
    if r < 1 or not math.isclose(r * src.laser_rate, det.f_g, rel_tol=1e-9):
        raise ValueError("laser_rate must divide f_g in pulsed mode")
    if src.illuminated_gate_phase >= r:
        raise ValueError("illuminated_gate_phase must be < f_g/laser_rate")
    return r


@dataclass
class EventStream:
    """Labeled avalanche events in gate order (at most one per gate)."""

    gate_index: np.ndarray  # int64
    time: np.ndarray        # float64 seconds
    kind: np.ndarray        # uint8, see KIND_NAMES
    charge: np.ndarray      # float64 coulombs

    def __post_init__(self):
        self.gate_index = np.asarray(self.gate_index, dtype=np.int64)
        self.time = np.asarray(self.time, dtype=np.float64)
        self.kind = np.asarray(self.kind, dtype=np.uint8)
        self.charge = np.asarray(self.charge, dtype=np.float64)
        n = self.gate_index.size
        if not (self.time.size == self.kind.size == self.charge.size == n):
            raise ValueError("event arrays must have equal length")
        if n:
            if np.any(np.diff(self.gate_index) < 0):
                raise ValueError("gate_index must be nondecreasing")
            if np.any(self.kind >= len(KIND_NAMES)):
                raise ValueError("unknown event kind code")
            if np.any(self.charge <= 0):
                raise ValueError("charges must be positive")
        for a in (self.gate_index, self.time, self.kind, self.charge):
            a.flags.writeable = False

    def __len__(self) -> int:
        return self.gate_index.size

    def counts(self) -> dict[str, int]:
        return {name: int(np.sum(self.kind == code)) for code, name in enumerate(KIND_NAMES)}


@dataclass(frozen=True)
class ClickProbabilities:
    p_illuminated: float
    p_non_illuminated: float


def _rng(seed: int, chunk: int, lane: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(chunk), int(lane)))
    return np.random.Generator(np.random.Philox(ss))


def _spawn_candidates(sources: np.ndarray, det: DetectorConfig, n_gates: int,
                      rng_trap: np.random.Generator, rng_trig: np.random.Generator) -> np.ndarray:
    """Afterpulse target gates triggered by traps from the given avalanches."""
    if sources.size == 0:
        return sources
    counts = rng_trap.poisson(det.traps_per_avalanche, sources.size)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    offsets = rng_trap.exponential(det.detrap_tau, total)
    triggered = rng_trig.random(total) < det.p_trigger
    origin = np.repeat(sources, counts)
    period = 1.0 / det.f_g
    half_w = 0.5 * det.gate_width
    release = (origin * period - half_w) + offsets  # anchored at the window start
    target = np.rint(release * det.f_g).astype(np.int64)
    in_window = np.abs(release - target * period) <= half_w
    valid = in_window & triggered & (target > origin) & (target < n_gates)
    return target[valid]


def _bernoulli_hits(rng: np.random.Generator, m: int, p: float) -> np.ndarray:
    """Sorted int64 indices of the successes among m independent Bernoulli(p) trials.

    The gaps between successive successes are independent Geometric(p), so
    summing them visits only the successes (Devroye, Non-Uniform Random
    Variate Generation, 1986) and the cost scales with m*p instead of m.
    The indices are the running sums of the stream's geometric variates, so
    they do not depend on the batch size.  Each gap is capped at m + 1
    before summing: a gap that long already leaves the block, and numpy
    returns gaps up to INT64_MAX for tiny p, which would wrap the sum.
    """
    mean = m * p
    batch = min(m + 1, int(mean + 4.0 * math.sqrt(mean)) + 16)
    parts = []
    last = -1
    while True:
        hits = last + np.cumsum(np.minimum(rng.geometric(p, batch), m + 1))
        if hits[-1] >= m:
            parts.append(hits[hits < m])
            return np.concatenate(parts)
        parts.append(hits)
        last = int(hits[-1])


def _truncated_normal(rng: np.random.Generator, sigma: float, bound: float, size: int) -> np.ndarray:
    """Rejection-sampled N(0, sigma) conditioned on |x| <= bound."""
    if sigma == 0.0 or size == 0:
        return np.zeros(size)
    out = rng.normal(0.0, sigma, size)
    bad = np.abs(out) > bound
    for _ in range(64):
        k = int(bad.sum())
        if k == 0:
            break
        out[bad] = rng.normal(0.0, sigma, k)
        bad = np.abs(out) > bound
    np.clip(out, -bound, bound, out=out)
    return out


def simulate(det: DetectorConfig, src: SourceConfig, n_gates: int, seed: int,
             allow_afterpulse_cascades: bool = False) -> EventStream:
    """Run the gated detector for n_gates gates; deterministic for a fixed seed.

    Per gate: a photon avalanche fires with probability 1 - exp(-mu*eta) on
    illuminated gates, otherwise a dark avalanche with dark_per_gate,
    otherwise an afterpulse if a previously trapped carrier releases inside
    the gate window and triggers.  Photon draws take one uniform per
    illuminated gate.  Dark hits are independent Bernoulli(dark_per_gate)
    trials over every gate of a block, drawn by geometric skips between
    hits; a hit on a photon gate is dropped.  Avalanche times are gate
    center plus truncated Gaussian jitter; charges are log-normal with the
    configured mean and coefficient of variation.

    By default afterpulse avalanches do not refill traps (first generation
    only, matching `expected_afterpulses`); `allow_afterpulse_cascades` is an
    experimental switch that lets them cascade.
    """
    if n_gates < 1:
        raise ValueError("n_gates must be >= 1")
    r = pulse_ratio(det, src)
    phase = src.illuminated_gate_phase if src.mode == "pulsed" else 0
    p_photon = -math.expm1(-src.mu * det.eta_gate)
    period = 1.0 / det.f_g
    half_w = 0.5 * det.gate_width
    traps_on = det.traps_per_avalanche > 0 and det.p_trigger > 0

    sigma_ln = math.sqrt(math.log1p(det.charge_cv ** 2))
    mu_ln = math.log(det.mean_charge) - 0.5 * sigma_ln ** 2

    gates_out: list[np.ndarray] = []
    kinds_out: list[np.ndarray] = []
    times_out: list[np.ndarray] = []
    charges_out: list[np.ndarray] = []
    pending = np.empty(0, dtype=np.int64)  # afterpulse targets beyond the current block

    for chunk_idx, g0 in enumerate(range(0, n_gates, _CHUNK)):
        g1 = min(g0 + _CHUNK, n_gates)
        m = g1 - g0
        occupied = np.zeros(m, dtype=bool)

        # Primary photon avalanches on illuminated gates.
        if src.mode == "pulsed":
            first = g0 + (phase - g0) % r
            illuminated = np.arange(first, g1, r, dtype=np.int64)
        else:
            illuminated = np.arange(g0, g1, dtype=np.int64)
        if p_photon > 0 and illuminated.size:
            u = _rng(seed, chunk_idx, _LANE_PHOTON).random(illuminated.size)
            photon_gates = illuminated[u < p_photon]
        else:
            photon_gates = np.empty(0, dtype=np.int64)
        occupied[photon_gates - g0] = True

        # Dark avalanches anywhere a photon did not already fire.
        if det.dark_per_gate > 0:
            hits = _bernoulli_hits(_rng(seed, chunk_idx, _LANE_DARK), m, det.dark_per_gate)
            dark_gates = g0 + hits[~occupied[hits]]
        else:
            dark_gates = np.empty(0, dtype=np.int64)
        occupied[dark_gates - g0] = True

        primaries = np.concatenate([photon_gates, dark_gates])
        primaries.sort()

        # Afterpulses: pending arrivals from earlier blocks, then traps from
        # this block's avalanches.
        ap_parts: list[np.ndarray] = []
        if pending.size:
            here = pending[pending < g1]
            pending = pending[pending >= g1]
            arrived = np.unique(here)
            arrived = arrived[~occupied[arrived - g0]]
            occupied[arrived - g0] = True
            ap_parts.append(arrived)
        else:
            arrived = np.empty(0, dtype=np.int64)

        if traps_on:
            rng_trap = _rng(seed, chunk_idx, _LANE_TRAP)
            rng_trig = _rng(seed, chunk_idx, _LANE_TRIGGER)
            sources = np.concatenate([primaries, arrived]) if allow_afterpulse_cascades else primaries
            while sources.size:
                cand = _spawn_candidates(sources, det, n_gates, rng_trap, rng_trig)
                if cand.size:
                    pending = np.concatenate([pending, cand[cand >= g1]])
                    stay = np.unique(cand[cand < g1])
                    stay = stay[~occupied[stay - g0]]
                    occupied[stay - g0] = True
                    ap_parts.append(stay)
                else:
                    stay = np.empty(0, dtype=np.int64)
                if not allow_afterpulse_cascades:
                    break
                sources = stay

        afterpulses = np.concatenate(ap_parts) if ap_parts else np.empty(0, dtype=np.int64)

        gates = np.concatenate([photon_gates, dark_gates, afterpulses])
        kinds = np.concatenate([
            np.full(photon_gates.size, KIND_PHOTON, dtype=np.uint8),
            np.full(dark_gates.size, KIND_DARK, dtype=np.uint8),
            np.full(afterpulses.size, KIND_AFTERPULSE, dtype=np.uint8),
        ])
        order = np.argsort(gates, kind="stable")
        gates = gates[order]
        kinds = kinds[order]

        n_ev = gates.size
        jitter = _truncated_normal(_rng(seed, chunk_idx, _LANE_JITTER), det.jitter_sigma, half_w, n_ev)
        times = gates * period + jitter
        charges = _rng(seed, chunk_idx, _LANE_CHARGE).lognormal(mu_ln, sigma_ln, n_ev)

        gates_out.append(gates)
        kinds_out.append(kinds)
        times_out.append(times)
        charges_out.append(charges)

    return EventStream(
        gate_index=np.concatenate(gates_out) if gates_out else np.empty(0, dtype=np.int64),
        time=np.concatenate(times_out) if times_out else np.empty(0),
        kind=np.concatenate(kinds_out) if kinds_out else np.empty(0, dtype=np.uint8),
        charge=np.concatenate(charges_out) if charges_out else np.empty(0),
    )


def expected_afterpulses(det: DetectorConfig) -> float:
    """First-generation afterpulses per avalanche, closed form.

    A carrier trapped at the gate window start releases after Exp(tau); it
    lands in the k-th later window (offsets [k*T, k*T + w]) with probability
    exp(-k*T/tau) * (1 - exp(-w/tau)).  Summing the geometric series over
    k >= 1 and scaling by the mean trap count and trigger probability:

        A = n * p * (1 - exp(-w/tau)) * exp(-T/tau) / (1 - exp(-T/tau))
    """
    t_over_tau = 1.0 / (det.f_g * det.detrap_tau)
    w_term = -math.expm1(-det.gate_width / det.detrap_tau)
    decay = math.exp(-t_over_tau)
    if decay == 0.0:
        return 0.0
    geometric = decay / -math.expm1(-t_over_tau)
    return det.traps_per_avalanche * det.p_trigger * w_term * geometric


def expected_click_prob(det: DetectorConfig, src: SourceConfig) -> ClickProbabilities:
    """Per-gate click probabilities with a first-order afterpulse correction.

    The afterpulse term adds A times the mean avalanche rate per gate to
    both gate classes (afterpulses spread over all gates); this is a
    documented first-order approximation, not an exact solution of the
    coupled rates.
    """
    r = pulse_ratio(det, src)
    p_primary_ill = 1.0 - (1.0 - det.dark_per_gate) * math.exp(-src.mu * det.eta_gate)
    p_primary_ni = det.dark_per_gate
    if src.mode == "pulsed":
        avalanche_rate = (p_primary_ill + (r - 1) * p_primary_ni) / r
    else:
        avalanche_rate = p_primary_ill
    correction = expected_afterpulses(det) * avalanche_rate
    return ClickProbabilities(
        p_illuminated=p_primary_ill + correction,
        p_non_illuminated=p_primary_ni + correction,
    )


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------

_EVENTS_HEADER = ["gate_index", "time_s", "kind", "charge_c"]


def write_events_csv(path, stream: EventStream) -> None:
    kinds = np.asarray(KIND_NAMES, dtype=object)[stream.kind]
    write_csv(path, _EVENTS_HEADER, [stream.gate_index, stream.time, kinds, stream.charge])


def read_events_csv(path) -> EventStream:
    gates, times, kinds, charges = read_csv(path, _EVENTS_HEADER)
    code = {name: i for i, name in enumerate(KIND_NAMES)}
    return EventStream(
        gate_index=np.asarray([int(g) for g in gates], dtype=np.int64),
        time=np.asarray([float(t) for t in times]),
        kind=np.asarray([code[k] for k in kinds], dtype=np.uint8),
        charge=np.asarray([float(c) for c in charges]),
    )
