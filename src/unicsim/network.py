"""Frequency-domain models of the RF readout network.

Every component of the readout chain is a unidirectional, matched two-port
described by a complex voltage transfer function sampled on a uniform
frequency grid.  The core block is an asymmetric RF interferometer: a
narrowband SAW band-pass arm extracts the gating fundamental, which then
interferes destructively with the wideband through arm at the gating
frequency.  Because cancellation happens only over a very narrow band, the
periodic capacitive response of the gated diode is rejected while broadband
avalanche impulses pass with little distortion.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from typing import Literal

import numpy as np

from ._io import read_csv, write_csv, write_json
from ._schema import Finite, NonNegative, OpenUnit, Positive, at_least, check_fields, check_finite
from .config import FrequencyGrid, Notch, SawBpf

__all__ = [
    "FrequencyGrid",
    "Coupler",
    "Attenuator",
    "Delay",
    "SawBpf",
    "Amplifier",
    "Notch",
    "UnicDesign",
    "TwoPortResponse",
    "NullMetrics",
    "BalanceInfeasibleError",
    "solve_unic_delay",
    "block_response",
    "unic_response",
    "balance_attenuation",
    "balanced_design",
    "cascade",
    "chain_response",
    "null_metrics",
    "chain_null_metrics",
    "metrics_grid",
    "design_report",
    "write_design_report",
    "write_spectrum_csv",
    "read_spectrum_csv",
    "spectrum_columns",
]

# Magnitudes below this floor (relative to 1) are treated as numerical zero
# when converting to dB, so exports stay finite.
_MAG_FLOOR = 1e-150
# Grid points evaluated at once.  Each complex temporary of a block is
# 64 KB, below glibc's 128 KB mmap threshold, so it comes from the heap;
# larger blocks map and fault in fresh pages for every temporary.
_BLOCK = 1 << 12


def metrics_grid(f_start: float = 1e8, f_stop: float = 2.1e9, step: float = 1e3) -> FrequencyGrid:
    """Grid from f_start in whole `step`s up to about f_stop; the defaults
    are dense enough for null metrics (step <= 1 kHz) over the background band."""
    n = int(round((f_stop - f_start) / step)) + 1
    return FrequencyGrid(f_start, f_start + (n - 1) * step, n)


# ---------------------------------------------------------------------------
# Network blocks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Coupler:
    """Power splitter; `tap_fraction` is the power fraction routed to the tap port.

    `port` selects which output the two-port response describes:
    amplitude sqrt(tap_fraction) for "tap", sqrt(1 - tap_fraction) for "through".
    """

    tap_fraction: OpenUnit
    port: Literal["tap", "through"] = "tap"

    __post_init__ = check_fields


@dataclass(frozen=True)
class Attenuator:
    loss: Finite  # dB, >= 0 for a passive pad

    __post_init__ = check_fields


@dataclass(frozen=True)
class Delay:
    t: Finite  # seconds

    __post_init__ = check_fields


@dataclass(frozen=True)
class Amplifier:
    gain: Finite          # dB
    bandwidth: Positive   # Hz, single-pole low-pass corner

    __post_init__ = check_fields


BlockSpec = Coupler | Attenuator | Delay | SawBpf | Amplifier | Notch


@dataclass(frozen=True)
class UnicDesign:
    """Interferometer design point: f_g * (t_g_saw + delta_t) = n + 1/2."""

    f_g: Positive
    t_g_saw: NonNegative
    n: at_least(0)
    delta_t: float
    att_balance_db: Finite = 0.0
    coupler_tap: OpenUnit = 0.9
    half_wave_warning: bool = False

    def __post_init__(self):
        check_fields(self)
        if not 0.0 <= self.delta_t < 1.0 / self.f_g:
            raise ValueError("delta_t must lie in [0, 1/f_g)")
        target = (self.n + 0.5) / self.f_g
        if abs(target - (self.t_g_saw + self.delta_t)) > 1e-12 * target:
            raise ValueError("t_g_saw + delta_t must equal (n + 1/2)/f_g")

    @property
    def differential_delay(self) -> float:
        return self.t_g_saw + self.delta_t


@dataclass
class TwoPortResponse:
    """Complex voltage transfer sampled on `grid`."""

    grid: FrequencyGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.complex128).view()
        if v.shape != (self.grid.n_points,):
            raise ValueError("values length must equal grid n_points")
        check_finite(v.real, "values")
        check_finite(v.imag, "values")
        v.flags.writeable = False
        self.values = v

    def frequencies(self) -> np.ndarray:
        return self.grid.frequencies()

    def magnitude_db(self) -> np.ndarray:
        return 20.0 * np.log10(np.maximum(np.abs(self.values), _MAG_FLOOR))


@dataclass(frozen=True)
class NullMetrics:
    f_null: float              # Hz
    depth_db: float            # dB below the off-band background
    width_30db: float          # Hz, full width >= 30 dB below background
    background_loss_db: float  # dB, -20 log10(median off-band |H|)


class BalanceInfeasibleError(ValueError):
    """Raised when no attenuation can equalize the interferometer arms."""


# ---------------------------------------------------------------------------
# Block evaluation
# ---------------------------------------------------------------------------

def _phase(f: np.ndarray, t: float) -> np.ndarray:
    """exp(-2j*pi*f*t)."""
    return np.exp(-2j * np.pi * f * t)


def _saw_values(b: SawBpf, f: np.ndarray) -> np.ndarray:
    # 3-dB width of the order-4 band-pass that puts the -20 dB points
    # passband_20db apart: x_20 = 99**(1/8).
    b3 = b.passband_20db / 99.0 ** 0.125
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x = (f * f - b.f_center * b.f_center) / (f * b3)
        x = np.where(f > 0, x, np.inf)
        mag = 10.0 ** (-b.insertion_loss / 20.0) / np.sqrt(1.0 + np.square(np.square(np.square(x))))
    mag = np.where(np.isfinite(x), mag, 0.0)
    return mag * _phase(f, b.group_delay)


def _notch_values(b: Notch, f: np.ndarray) -> np.ndarray:
    x_edge = 1.0 / math.sqrt(10.0 ** (b.depth / 10.0) - 1.0)
    q = x_edge * b.f_center / b.width_10db
    with np.errstate(divide="ignore", invalid="ignore"):
        x = q * (f * f - b.f_center * b.f_center) / (f * b.f_center)
    m = np.isfinite(x) & (f > 0)
    out = np.ones(f.shape, dtype=np.complex128)
    # causal RLC phase: lag above, lead below f_center
    out[m] = x[m] / (x[m] - 1j)
    return out


def _unic_values(design: UnicDesign, saw: SawBpf, f: np.ndarray) -> np.ndarray:
    if not isinstance(saw, SawBpf):
        raise TypeError("saw must be a SawBpf block")
    if not math.isclose(design.t_g_saw, saw.group_delay, rel_tol=1e-9, abs_tol=1e-15):
        raise ValueError(
            f"design t_g_saw {design.t_g_saw!r} does not match saw group_delay {saw.group_delay!r}"
        )
    tap = design.coupler_tap
    pad = 10.0 ** (-design.att_balance_db / 20.0)
    # the flat through arm plus the filtered arm
    return (1.0 - tap) + tap * pad * _saw_values(saw, f) * _phase(f, design.delta_t)


def _block_values(block, f: np.ndarray) -> np.ndarray:
    """Values at `f` of a network block or of a (UnicDesign, SawBpf)
    interferometer."""
    if isinstance(block, tuple):
        return _unic_values(*block, f)
    if isinstance(block, Coupler):
        amp = math.sqrt(block.tap_fraction if block.port == "tap" else 1.0 - block.tap_fraction)
        return np.full(f.shape, amp, dtype=np.complex128)
    if isinstance(block, Attenuator):
        return np.full(f.shape, 10.0 ** (-block.loss / 20.0), dtype=np.complex128)
    if isinstance(block, Delay):
        return _phase(f, block.t)
    if isinstance(block, SawBpf):
        return _saw_values(block, f)
    if isinstance(block, Amplifier):
        return 10.0 ** (block.gain / 20.0) / (1.0 + 1j * f / block.bandwidth)
    if isinstance(block, Notch):
        return _notch_values(block, f)
    raise TypeError(f"unknown block type {type(block).__name__}")


def _blocks(grid: FrequencyGrid, start: int = 0, stop: int | None = None, stride: int = 1):
    """(slice, frequencies) of each block of _BLOCK grid points of the indices
    start, start + stride, .. below stop (default: the whole grid), the last
    block holding what is left.  The frequencies equal
    grid.frequencies()[slice]: i * step + f_start with the last point set to
    f_stop, as np.linspace computes them."""
    stop = grid.n_points if stop is None else stop
    for i0 in range(start, stop, _BLOCK * stride):
        i1 = min(i0 + _BLOCK * stride, stop)
        f = np.arange(i0, i1, stride, dtype=np.float64) * grid.step + grid.f_start
        if i1 == grid.n_points and (i1 - 1 - i0) % stride == 0:
            f[-1] = grid.f_stop
        yield slice(i0, i1, stride), f


def _product(factors) -> np.ndarray:
    """The product of `factors` taken left to right."""
    if not factors:
        raise ValueError("a chain requires at least one part")
    out = factors[0]
    for v in factors[1:]:
        out = out * v
    return out


def _chain_values(parts, f: np.ndarray) -> np.ndarray:
    """The cascade of `parts` at the frequencies `f`; equal parts are
    evaluated once."""
    v = {part: _block_values(part, f) for part in dict.fromkeys(parts)}
    return _product([v[part] for part in parts])


def chain_response(parts, grid: FrequencyGrid) -> TwoPortResponse:
    """Response of the cascade of `parts` on `grid`, evaluated a block of grid
    points at a time.  A part is a network block or an interferometer, given
    as a (UnicDesign, SawBpf) pair as `unic_response` takes them."""
    values = np.empty(grid.n_points, dtype=np.complex128)
    for s, f in _blocks(grid):
        values[s] = _chain_values(parts, f)
    return TwoPortResponse(grid, values)


def block_response(block: BlockSpec, grid: FrequencyGrid) -> TwoPortResponse:
    """Two-port response of a single network block on `grid`."""
    return chain_response([block], grid)


# ---------------------------------------------------------------------------
# Interferometer design
# ---------------------------------------------------------------------------

def solve_unic_delay(t_g_saw: float, f_g: float, coupler_tap: float = 0.9) -> UnicDesign:
    """Solve for the minimal integer n with track delay delta_t >= 0.

    The differential delay t_g_saw + delta_t must equal (n + 1/2)/f_g.
    Sets `half_wave_warning` when delta_t >= 1/(2 f_g): a compact layout
    prefers the track-length delay below half a gating period.
    """
    if f_g <= 0:
        raise ValueError("f_g must be positive")
    if t_g_saw < 0:
        raise ValueError("t_g_saw must be >= 0")
    n = max(0, math.ceil(t_g_saw * f_g - 0.5))
    # Guard against float rounding in the product above.
    while (n + 0.5) / f_g < t_g_saw:
        n += 1
    while n > 0 and (n - 0.5) / f_g >= t_g_saw:
        n -= 1
    delta_t = (n + 0.5) / f_g - t_g_saw
    return UnicDesign(
        f_g=f_g,
        t_g_saw=t_g_saw,
        n=n,
        delta_t=delta_t,
        coupler_tap=coupler_tap,
        half_wave_warning=bool(delta_t >= 0.5 / f_g),
    )


def balance_attenuation(design: UnicDesign, saw: SawBpf) -> float:
    """Attenuation (dB) that equalizes the two arm amplitudes at f_g: the
    filtered arm's before the balance pad, and the through arm's.

    Raises BalanceInfeasibleError when the filtered arm is weaker than the
    through arm even without any pad.
    """
    saw_mag = float(np.abs(_saw_values(saw, np.asarray([design.f_g])))[0])
    filt, thru = design.coupler_tap * saw_mag, 1.0 - design.coupler_tap
    if filt < thru:
        raise BalanceInfeasibleError(
            f"filtered arm amplitude {filt:.6g} is below through arm {thru:.6g} at f_g;"
            " no attenuation can balance the interferometer"
        )
    return 20.0 * math.log10(filt / thru)


def balanced_design(design: UnicDesign, saw: SawBpf) -> UnicDesign:
    """Copy of `design` with att_balance_db solved for a null at f_g."""
    return replace(design, att_balance_db=balance_attenuation(design, saw))


def unic_response(design: UnicDesign, saw: SawBpf, grid: FrequencyGrid) -> TwoPortResponse:
    """Interferometer transfer function H = H_through + H_filtered.

    The filtered arm runs tap port -> balance pad -> SAW -> tap port with the
    track-length delay delta_t in series, so its phase lag relative to the
    flat through arm is 2*pi*f*(t_g_saw + delta_t): an odd multiple of pi at
    f_g.  With att_balance_db from `balance_attenuation` the arm amplitudes
    are equal there and the response has a null at f_g.
    """
    return chain_response([(design, saw)], grid)


def cascade(responses: list[TwoPortResponse]) -> TwoPortResponse:
    """Pointwise product of responses sharing one grid; suppression adds in dB."""
    if not responses:
        raise ValueError("cascade requires at least one response")
    g0 = responses[0].grid
    for r in responses[1:]:
        if (r.grid.f_start, r.grid.f_stop, r.grid.n_points) != (g0.f_start, g0.f_stop, g0.n_points):
            raise ValueError("cascade requires identical grids")
    return TwoPortResponse(g0, _product([r.values for r in responses]))


# ---------------------------------------------------------------------------
# Null metrics
# ---------------------------------------------------------------------------

_BACKGROUND_BAND = (1e8, 2e9)   # Hz, off-band comparison region
_BACKGROUND_STRIDE = 1e5        # Hz, spacing of the background points read
_NULL_SEARCH = 5e7              # Hz, search window around f_g, kept out of the background


def _cross(f0, m0, f1, m1, thr):
    # Linear interpolation of the frequency where |H| crosses thr.
    if m1 == m0:
        return f1
    return f0 + (f1 - f0) * (m0 - thr) / (m0 - m1)


def _median(a: np.ndarray) -> float:
    """`np.median` of a non-empty 1-d float array, partitioned in place and
    without the numpy.ma import it makes: the middle value, or the mean
    (a + b) / 2 of the middle two; NaN if any value is NaN."""
    lo, hi = (a.size - 1) // 2, a.size // 2
    a.partition([lo, hi, -1])
    if np.isnan(a[-1]):
        return math.nan
    return float(a[hi]) if lo == hi else float((a[lo] + a[hi]) / 2)


def _check_metrics_grid(grid: FrequencyGrid, f_g: float) -> None:
    """Raise ValueError unless `grid` brackets f_g with a step of at most 1 kHz."""
    if not grid.f_start < f_g < grid.f_stop:
        raise ValueError(f"grid {grid.f_start:.6g}-{grid.f_stop:.6g} Hz does not bracket f_g = {f_g:.6g} Hz")
    if grid.step > 1e3 * (1 + 1e-9):
        raise ValueError(f"grid too coarse near f_g: step {grid.step:.6g} Hz exceeds 1 kHz")


def _null_metrics(grid: FrequencyGrid, f_g: float, read) -> NullMetrics:
    """`null_metrics` of the |H| that read(s, f) returns at the grid indices
    of the slice s, whose frequencies are f."""
    _check_metrics_grid(grid, f_g)
    # the index runs that the masks of the whole grid would select, by
    # bisection in the same float arithmetic: f and f - f_g rise with the index
    step, idx = grid.step, range(grid.n_points)

    def at(i):
        return grid.f_stop if i == grid.n_points - 1 else i * step + grid.f_start

    near_lo = bisect_left(idx, -_NULL_SEARCH, key=lambda i: at(i) - f_g)
    near_hi = bisect_right(idx, _NULL_SEARCH, key=lambda i: at(i) - f_g)
    lo, hi = bisect_left(idx, _BACKGROUND_BAND[0], key=at), bisect_right(idx, _BACKGROUND_BAND[1], key=at)
    runs = [(lo, min(hi, near_lo)), (max(lo, near_hi), hi)]
    n_bg = sum(max(b - a, 0) for a, b in runs)
    if n_bg < 100:
        raise ValueError("grid does not cover enough of the 0.1-2 GHz background band")
    # every k-th grid index; each run loses under one point to the stride,
    # so k <= n_bg / 102 reads at least 100
    k = max(1, min(round(_BACKGROUND_STRIDE / step), n_bg // 102))
    background = _median(np.concatenate(
        [read(s, f) for a, b in runs for s, f in _blocks(grid, -(-a // k) * k, b, k)]))
    background_loss_db = -20.0 * math.log10(max(background, _MAG_FLOOR))

    near = list(_blocks(grid, near_lo, near_hi))
    f = np.concatenate([f for _, f in near])
    mag = np.concatenate([read(s, f) for s, f in near])
    i_min = int(np.argmin(mag))
    m_min = float(mag[i_min])
    depth_db = 20.0 * math.log10(background / max(m_min, background * _MAG_FLOOR))
    if depth_db < 3.0:
        raise ValueError("no null found near f_g (dip shallower than 3 dB)")

    width = 0.0
    thr = background * 10.0 ** (-30.0 / 20.0)
    if depth_db > 30.0:
        lo = i_min
        while lo - 1 >= 0 and mag[lo - 1] < thr:
            lo -= 1
        hi = i_min
        while hi + 1 < mag.size and mag[hi + 1] < thr:
            hi += 1
        f_lo = _cross(f[lo - 1], mag[lo - 1], f[lo], mag[lo], thr) if lo > 0 else f[lo]
        f_hi = _cross(f[hi + 1], mag[hi + 1], f[hi], mag[hi], thr) if hi < mag.size - 1 else f[hi]
        width = float(f_hi - f_lo)

    return NullMetrics(
        f_null=float(f[i_min]),
        depth_db=float(depth_db),
        width_30db=width,
        background_loss_db=float(background_loss_db),
    )


def null_metrics(resp: TwoPortResponse, f_g: float) -> NullMetrics:
    """Locate the rejection null near f_g and measure it against the background.

    The background is the median |H| over 0.1-2 GHz excluding +/-50 MHz
    around f_g, at every k-th grid index: k = round(100 kHz / step), or less
    to read at least 100 points.  Depth is reported in dB below that
    background; width_30db is the full width of the contiguous region at
    least 30 dB below it.  The grid must bracket f_g with a step no coarser
    than 1 kHz.
    """
    return _null_metrics(resp.grid, f_g, lambda s, f: np.abs(resp.values[s]))


def chain_null_metrics(parts, grid: FrequencyGrid, f_g: float) -> NullMetrics:
    """`null_metrics` of `chain_response(parts, grid)`, with the chain
    evaluated only at the grid points that the metrics read, a block of them
    at a time."""
    return _null_metrics(grid, f_g, lambda s, f: np.abs(_chain_values(parts, f)))


# ---------------------------------------------------------------------------
# Exports
# ---------------------------------------------------------------------------

def design_report(design: UnicDesign) -> dict:
    return {
        "f_g_hz": float(design.f_g),
        "t_g_saw_s": float(design.t_g_saw),
        "n": int(design.n),
        "delta_t_s": float(design.delta_t),
        "att_balance_db": float(design.att_balance_db),
        "half_wave_warning": bool(design.half_wave_warning),
    }


def write_design_report(path, design: UnicDesign) -> None:
    write_json(path, design_report(design))


def spectrum_columns(resp: TwoPortResponse):
    """(freq_hz, mag_db, phase_rad, group_delay_ns) arrays for CSV export.

    Group delay comes from a centered finite difference of the unwrapped
    phase, so it is only meaningful on a grid fine enough to unwrap.
    """
    f = resp.frequencies()
    mag_db = resp.magnitude_db()
    phase = np.unwrap(np.angle(resp.values))
    gd_ns = -np.gradient(phase, f) / (2.0 * np.pi) * 1e9
    return f, mag_db, phase, gd_ns


_SPECTRUM_HEADER = ["freq_hz", "mag_db", "phase_rad", "group_delay_ns"]


def write_spectrum_csv(path, responses: list[TwoPortResponse]) -> None:
    """Merge one or more responses into a single sorted spectrum CSV.

    Overlapping frequencies keep the value from the earliest response in the
    list (dense segments should be passed first).
    """
    cols = [np.concatenate(c) for c in zip(*[spectrum_columns(r) for r in responses])]
    _, first = np.unique(cols[0], return_index=True)
    write_csv(path, _SPECTRUM_HEADER, [c[first] for c in cols])


def read_spectrum_csv(path):
    """Read a spectrum CSV back into (freq_hz, mag_db, phase_rad, group_delay_ns)."""
    return tuple(np.asarray([float(x) for x in c]) for c in read_csv(path, _SPECTRUM_HEADER))
