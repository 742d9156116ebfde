"""Stochastic model of a sub-nanosecond gated avalanche photodiode.

Each gate can host at most one avalanche, with cause precedence
photon > dark > afterpulse.  Every avalanche fills a Poisson number of
carrier traps that release with an exponential time constant; a carrier
released inside a later gate window triggers an afterpulse with a fixed
probability.  Only the triggering traps are drawn: a Poisson(n) trap count
thinned with probability p is a Poisson(n*p) count.  The trap clock is
anchored at gate window starts so the simulation matches the closed-form
first-generation oracle `expected_afterpulses` exactly.

Gates are processed in fixed-size blocks.  Each purpose (lane) has one
counter-based Philox key, derived from the seed by numpy's SeedSequence,
and block b of a lane draws from its own counter range (0, b, 0, 0) under
that key (Salmon et al., SC'11).  So a run is bit-reproducible, and the
primary photon/dark draws are unaffected by trap settings.  The photon lane
draws one uniform per illuminated gate; the dark lane draws only the dark
hits, as geometric gaps between them, so its cost scales with the number of
dark events rather than with the gates.  `simulate_blocks` yields the events of
each block as it is drawn; `simulate` joins them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._io import Coded, read_csv, write_csv
from ._schema import check_finite
from .config import DetectorConfig, SourceConfig, _check_n_gates

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
    "simulate_blocks",
    "expected_afterpulses",
    "expected_click_prob",
    "renewal_clicks_per_gate",
    "pulse_ratio",
    "write_events_csv",
    "read_events_csv",
]

KIND_PHOTON = 0
KIND_DARK = 1
KIND_AFTERPULSE = 2
KIND_NAMES = ("photon", "dark", "afterpulse")

_CHUNK = 1 << 20
_DRAW = 1 << 16  # variates drawn at once; a Philox stream gives the same values in any slicing
_KIND_BITS = 2  # low bits of the sort key that hold the event kind
_LANE_PHOTON, _LANE_DARK, _LANE_TRAP, _LANE_CHARGE, _LANE_JITTER = range(5)


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
        self.gate_index = np.asarray(self.gate_index, dtype=np.int64).view()
        self.time = np.asarray(self.time, dtype=np.float64).view()
        self.kind = np.asarray(self.kind, dtype=np.uint8).view()
        self.charge = np.asarray(self.charge, dtype=np.float64).view()
        n = self.gate_index.size
        if not (self.time.size == self.kind.size == self.charge.size == n):
            raise ValueError("event arrays must have equal length")
        if n:
            if np.any(np.diff(self.gate_index) < 0):
                raise ValueError("gate_index must be nondecreasing")
            if np.any(self.kind >= len(KIND_NAMES)):
                raise ValueError("unknown event kind code")
            if not np.all(self.charge > 0):
                raise ValueError("charge must be positive")
            check_finite(self.time, "time")
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


_N_LANES = _LANE_JITTER + 1
_PHILOX_ZEROS = np.zeros(4, dtype=np.uint64)


def _philox_at(gen: np.random.Generator, key: np.ndarray, block: int) -> np.random.Generator:
    """`gen` reset to the start of `block`'s counter range under `key`: the
    state of a new Generator(Philox(key=key, counter=(0, block, 0, 0))),
    with an empty buffer and no cached uint32."""
    counter = np.array([0, block, 0, 0], dtype=np.uint64)
    gen.bit_generator.state = {"bit_generator": "Philox", "state": {"counter": counter, "key": key},
                               "buffer": _PHILOX_ZEROS, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return gen


def _spawn_candidates(sources: np.ndarray, det: DetectorConfig, n_gates: int,
                      rng_trap: np.random.Generator) -> np.ndarray:
    """Afterpulse target gates triggered by traps from the given avalanches.

    A Poisson(n) trap count whose traps each trigger with probability p is a
    Poisson(n*p) count of triggered traps, so only those are drawn: first a
    count per avalanche, a slice of sources at a time, then one release
    offset per triggered trap."""
    mean = det.traps_per_avalanche * det.p_trigger
    origin = []
    for i in range(0, sources.size, _DRAW):
        chunk = sources[i:i + _DRAW]
        origin.append(np.repeat(chunk, rng_trap.poisson(mean, chunk.size)))
    origin = np.concatenate(origin)
    release = rng_trap.exponential(det.detrap_tau, origin.size)
    period = 1.0 / det.f_g
    half_w = 0.5 * det.gate_width
    release += origin * period - half_w  # anchored at the window start
    target = np.rint(release * det.f_g).astype(np.int64)
    in_window = np.abs(release - target * period) <= half_w
    return target[in_window & (target > origin) & (target < n_gates)]


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


def _distinct(a: np.ndarray) -> np.ndarray:
    """The distinct values of `a`, sorted: `np.unique` without the numpy.ma
    import it makes."""
    a = np.sort(a)
    first = np.ones(a.size, dtype=bool)
    first[1:] = a[1:] != a[:-1]
    return a[first]


def simulate_blocks(det: DetectorConfig, src: SourceConfig, n_gates: int, seed: int):
    """The events of `simulate`, as (gate_index, time, kind, charge) arrays of
    each 2**20-gate block in gate order; afterpulse targets carry from block
    to block.  A block's arrays are its own: the caller may overwrite them."""
    _check_n_gates(n_gates)
    r = pulse_ratio(det, src)
    phase = src.illuminated_gate_phase if src.mode == "pulsed" else 0
    p_photon = -math.expm1(-src.mu * det.eta_gate)
    period = 1.0 / det.f_g
    half_w = 0.5 * det.gate_width
    traps_on = det.traps_per_avalanche > 0 and det.p_trigger > 0

    sigma_ln = math.sqrt(math.log1p(det.charge_cv ** 2))
    mu_ln = math.log(det.mean_charge) - 0.5 * sigma_ln ** 2

    pending = np.empty(0, dtype=np.int64)  # afterpulse targets beyond the current block
    occupied = np.zeros(min(n_gates, _CHUNK), dtype=bool)  # a block's gates that fired; cleared after it
    lane_keys = np.random.SeedSequence(seed).generate_state(2 * _N_LANES, np.uint64).reshape(_N_LANES, 2)
    gens = [np.random.Generator(np.random.Philox(0)) for _ in range(_N_LANES)]  # reset per block

    def block(b: int, g0: int):
        # a function, so that this block's temporaries are freed before the next
        # is drawn; each is also freed once used, so that a dense block holds
        # little more than its four event arrays
        nonlocal pending

        def rng(lane: int) -> np.random.Generator:
            return _philox_at(gens[lane], lane_keys[lane], b)

        g1 = min(g0 + _CHUNK, n_gates)
        m = g1 - g0
        occ = occupied[:m]

        # Primary photon avalanches on illuminated gates first, first + r, ...,
        # drawn straight into their entries of `occ`
        first = g0 + (phase - g0) % r
        lit = occ[first - g0::r]
        if p_photon > 0 and lit.size:
            gen = rng(_LANE_PHOTON)
            for i in range(0, lit.size, _DRAW):
                np.less(gen.random(min(_DRAW, lit.size - i)), p_photon, out=lit[i:i + _DRAW])
            photon_gates = np.flatnonzero(lit)
            photon_gates *= r  # in place: two more temporaries per block cost maxrate 40 MB of RSS
            photon_gates += first
        else:
            photon_gates = np.empty(0, dtype=np.int64)

        # Dark avalanches anywhere a photon did not already fire.
        if det.dark_per_gate > 0:
            hits = _bernoulli_hits(rng(_LANE_DARK), m, det.dark_per_gate)
            dark_gates = g0 + hits[~occ[hits]]
        else:
            dark_gates = np.empty(0, dtype=np.int64)
        occ[dark_gates - g0] = True

        # Afterpulses: pending arrivals from earlier blocks, then traps from
        # this block's primary avalanches (first generation only).
        afterpulses = np.empty(0, dtype=np.int64)
        if pending.size:
            arrived = _distinct(pending[pending < g1])
            pending = pending[pending >= g1]
            afterpulses = arrived[~occ[arrived - g0]]
            occ[afterpulses - g0] = True
        if traps_on and photon_gates.size + dark_gates.size:
            primaries = np.concatenate([photon_gates, dark_gates])
            primaries.sort()
            cand = _spawn_candidates(primaries, det, n_gates, rng(_LANE_TRAP))
            del primaries
            if cand.size:
                pending = np.concatenate([pending, cand[cand >= g1]])
                stay = _distinct(cand[cand < g1])
                afterpulses = np.concatenate([afterpulses, stay[~occ[stay - g0]]])

        # One sort of the gates, each tagged with its kind in the low bits
        # (a gate holds at most one avalanche, so the tags never reorder).
        n_photon, n_primary = photon_gates.size, photon_gates.size + dark_gates.size
        keys = np.concatenate([photon_gates, dark_gates, afterpulses])
        del photon_gates, dark_gates, afterpulses
        keys <<= _KIND_BITS
        keys[n_photon:n_primary] |= KIND_DARK  # KIND_PHOTON is 0
        keys[n_primary:] |= KIND_AFTERPULSE
        keys.sort()
        kinds = keys.astype(np.uint8)  # the low byte, then its kind bits
        kinds &= (1 << _KIND_BITS) - 1
        keys >>= _KIND_BITS
        gates = keys
        gates -= g0
        occ[gates] = False  # every gate that fired: `occupied` is clear for the next block
        gates += g0

        times = _truncated_normal(rng(_LANE_JITTER), det.jitter_sigma, half_w, gates.size)
        times += gates * period  # the gate centres plus the jitter
        charges = rng(_LANE_CHARGE).lognormal(mu_ln, sigma_ln, gates.size)
        return gates, times, kinds, charges

    for b, g0 in enumerate(range(0, n_gates, _CHUNK)):
        yield block(b, g0)


def simulate(det: DetectorConfig, src: SourceConfig, n_gates: int, seed: int) -> EventStream:
    """Run the gated detector for n_gates gates; deterministic for a fixed seed.

    Per gate: a photon avalanche fires with probability 1 - exp(-mu*eta) on
    illuminated gates, otherwise a dark avalanche with dark_per_gate,
    otherwise an afterpulse if a previously trapped carrier releases inside
    the gate window and triggers.  Photon draws take one uniform per
    illuminated gate.  Dark hits are independent Bernoulli(dark_per_gate)
    trials over every gate of a block, drawn by geometric skips between
    hits; a hit on a photon gate is dropped.  Avalanche times are gate
    center plus truncated Gaussian jitter; charges are log-normal with the
    configured mean and coefficient of variation.  Afterpulse avalanches do
    not refill traps (first generation only, matching `expected_afterpulses`).
    The events are the blocks of `simulate_blocks`, joined.
    """
    return EventStream(*(np.concatenate(col) for col in zip(*simulate_blocks(det, src, n_gates, seed))))


def expected_afterpulses(det: DetectorConfig, dead_time: float = 0.0) -> float:
    """First-generation afterpulses per avalanche, closed form.

    A carrier trapped at the gate window start releases after Exp(tau); it
    lands in the k-th later window (offsets [k*T, k*T + w]) with probability
    exp(-k*T/tau) * (1 - exp(-w/tau)).  Summing the geometric series over
    k >= 1 and scaling by the mean trap count and trigger probability:

        A = n * p * (1 - exp(-w/tau)) * exp(-T/tau) / (1 - exp(-T/tau))

    A TDC `dead_time` after each kept click hides the afterpulses of the
    next m = floor(dead_time / T) gates, those whose centre lies inside it,
    so the series starts at m + 1 and the counted afterpulses per avalanche
    are A * exp(-m*T/tau).  The jitter edge: the clicks of a gate whose
    centre lies within a few jitter sigma of the dead-time end are masked
    only in part, and m counts that gate only when its centre is inside.
    """
    if dead_time < 0:
        raise ValueError("dead_time must be >= 0")
    t_over_tau = 1.0 / (det.f_g * det.detrap_tau)
    w_term = -math.expm1(-det.gate_width / det.detrap_tau)
    decay = math.exp(-t_over_tau)
    if decay == 0.0:
        return 0.0
    geometric = decay / -math.expm1(-t_over_tau)
    masked = math.floor(dead_time * det.f_g)
    return det.traps_per_avalanche * det.p_trigger * w_term * geometric * math.exp(-masked * t_over_tau)


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


def renewal_clicks_per_gate(det: DetectorConfig, mu: float, dead_time: float) -> float:
    """Kept clicks per gate of a gate-synchronous source of `mu` photons per
    gate behind a non-paralyzable dead time: the renewal model p / (1 + k*p).

    p = 1 - exp(-mu * eta) is the per-gate click probability and k the number
    of whole gates inside the dead time after a click.  Dark counts and
    afterpulses are left out; afterpulses raise the rate above the model.
    """
    p = -math.expm1(-mu * det.eta_gate)
    k = math.floor(dead_time * det.f_g)
    return p / (1.0 + k * p)


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------

_EVENTS_HEADER = ["gate_index", "time_s", "kind", "charge_c"]


def _event_columns(gate_index, time, kind, charge) -> list:
    """The events.csv columns of these event arrays."""
    return [gate_index, time, Coded(KIND_NAMES, kind), charge]


def write_events_csv(path, stream: EventStream) -> None:
    write_csv(path, _EVENTS_HEADER, _event_columns(stream.gate_index, stream.time, stream.kind, stream.charge))


def read_events_csv(path) -> EventStream:
    gates, times, kinds, charges = read_csv(path, _EVENTS_HEADER)
    code = {name: i for i, name in enumerate(KIND_NAMES)}
    return EventStream(
        gate_index=np.asarray([int(g) for g in gates], dtype=np.int64),
        time=np.asarray([float(t) for t in times]),
        kind=np.asarray([code[k] for k in kinds], dtype=np.uint8),
        charge=np.asarray([float(c) for c in charges]),
    )
