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
from dataclasses import dataclass, replace

import numpy as np

from ._io import read_csv, write_csv, write_json

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
# Grid points evaluated at once: each complex temporary of a block is 1 MB.
_BLOCK = 1 << 16


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform frequency grid in Hz over [f_start, f_stop] with n_points."""

    f_start: float
    f_stop: float
    n_points: int

    def __post_init__(self):
        if self.f_start < 0:
            raise ValueError("f_start must be >= 0")
        if self.f_stop <= self.f_start:
            raise ValueError("f_stop must exceed f_start")
        if self.n_points < 2:
            raise ValueError("n_points must be >= 2")

    @property
    def step(self) -> float:
        return (self.f_stop - self.f_start) / (self.n_points - 1)

    def frequencies(self) -> np.ndarray:
        return np.linspace(self.f_start, self.f_stop, self.n_points)


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

    tap_fraction: float
    port: str = "tap"

    def __post_init__(self):
        if not 0.0 < self.tap_fraction < 1.0:
            raise ValueError("tap_fraction must be in (0, 1)")
        if self.port not in ("tap", "through"):
            raise ValueError("port must be 'tap' or 'through'")


@dataclass(frozen=True)
class Attenuator:
    loss: float  # dB, >= 0 for a passive pad

    def __post_init__(self):
        if not math.isfinite(self.loss):
            raise ValueError("loss must be finite")


@dataclass(frozen=True)
class Delay:
    t: float  # seconds

    def __post_init__(self):
        if not math.isfinite(self.t):
            raise ValueError("delay must be finite")


@dataclass(frozen=True)
class SawBpf:
    """SAW band-pass: order-4 Butterworth magnitude, constant group delay.

    The magnitude is scaled so the full width between the -20 dB points
    (relative to the passband peak) equals `passband_20db`; the phase is
    linear with slope -2*pi*group_delay.
    """

    f_center: float        # Hz
    passband_20db: float   # Hz, full width at -20 dB
    insertion_loss: float  # dB
    group_delay: float     # seconds

    def __post_init__(self):
        if self.f_center <= 0:
            raise ValueError("f_center must be positive")
        if self.passband_20db <= 0:
            raise ValueError("passband_20db must be positive")
        if not math.isfinite(self.insertion_loss):
            raise ValueError("insertion_loss must be finite")
        if self.group_delay < 0:
            raise ValueError("group_delay must be >= 0")


@dataclass(frozen=True)
class Amplifier:
    gain: float       # dB
    bandwidth: float  # Hz, single-pole low-pass corner

    def __post_init__(self):
        if not math.isfinite(self.gain):
            raise ValueError("gain must be finite")
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")


@dataclass(frozen=True)
class Notch:
    """Second-order band-stop (ideal RLC null at f_center).

    `width_10db` is the full width of the band rejected by at least `depth`
    dB, i.e. |H| = -depth dB at f_center +/- width_10db/2 (geometric
    symmetry) and deeper in between.
    """

    f_center: float    # Hz
    depth: float       # dB, rejection at the band edges
    width_10db: float  # Hz

    def __post_init__(self):
        if self.f_center <= 0:
            raise ValueError("f_center must be positive")
        if self.depth <= 0:
            raise ValueError("depth must be positive")
        if self.width_10db <= 0:
            raise ValueError("width_10db must be positive")


BlockSpec = Coupler | Attenuator | Delay | SawBpf | Amplifier | Notch


@dataclass(frozen=True)
class UnicDesign:
    """Interferometer design point: f_g * (t_g_saw + delta_t) = n + 1/2."""

    f_g: float
    t_g_saw: float
    n: int
    delta_t: float
    att_balance_db: float = 0.0
    coupler_tap: float = 0.9
    half_wave_warning: bool = False

    def __post_init__(self):
        if self.f_g <= 0:
            raise ValueError("f_g must be positive")
        if self.t_g_saw < 0:
            raise ValueError("t_g_saw must be >= 0")
        if self.n < 0:
            raise ValueError("n must be >= 0")
        if not 0.0 <= self.delta_t < 1.0 / self.f_g:
            raise ValueError("delta_t must lie in [0, 1/f_g)")
        if not 0.0 < self.coupler_tap < 1.0:
            raise ValueError("coupler_tap must be in (0, 1)")
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
        if not np.all(np.isfinite(v.real)) or not np.all(np.isfinite(v.imag)):
            raise ValueError("values must be finite")
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

def _phase(f: np.ndarray, t: float, out: np.ndarray) -> np.ndarray:
    """exp(-2j*pi*f*t), computed in `out`."""
    np.multiply(-2j * np.pi, f, out=out)
    out *= t
    return np.exp(out, out=out)


def _scratch(size: int):
    """view(m): scratch of m <= size points for the part evaluators below:
    floats x and y, two bool masks, and a complex z that holds the memory of
    x and y, so an evaluator writes z only once done with x and y."""
    z = np.empty(size, dtype=np.complex128)
    masks = np.empty((2, size), dtype=bool)

    def view(m: int) -> tuple:
        w = z[:m].view(np.float64)
        return w[:m], w[m:], masks[0, :m], masks[1, :m], z[:m]

    return view


def _saw_values(b: SawBpf, f: np.ndarray, out: np.ndarray, scratch: tuple) -> np.ndarray:
    x, y, off, stop, _ = scratch
    # 3-dB width of the order-4 band-pass that puts the -20 dB points
    # passband_20db apart: x_20 = 99**(1/8).
    b3 = b.passband_20db / 99.0 ** 0.125
    np.multiply(f, f, out=x)
    x -= b.f_center * b.f_center
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        np.divide(x, np.multiply(f, b3, out=y), out=x)
        np.copyto(x, np.inf, where=np.invert(np.greater(f, 0, out=off), out=off))
        np.invert(np.isfinite(x, out=stop), out=stop)
        mag = np.power(x, 8, out=x)
        mag += 1.0
        np.sqrt(mag, out=mag)
        np.divide(10.0 ** (-b.insertion_loss / 20.0), mag, out=mag)
    np.copyto(mag, 0.0, where=stop)
    v = _phase(f, b.group_delay, out)
    return np.multiply(mag, v, out=v)


def _notch_values(b: Notch, f: np.ndarray, out: np.ndarray, scratch: tuple) -> np.ndarray:
    x, y, m, pos, _ = scratch
    x_edge = 1.0 / math.sqrt(10.0 ** (b.depth / 10.0) - 1.0)
    q = x_edge * b.f_center / b.width_10db
    np.multiply(f, f, out=x)
    x -= b.f_center * b.f_center
    x *= q
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(x, np.multiply(f, b.f_center, out=y), out=x)
    np.isfinite(x, out=m)
    m &= np.greater(f, 0, out=pos)
    out.fill(1.0)
    # causal RLC phase: lag above, lead below f_center
    np.subtract(x, 1j, out=out, where=m)
    return np.divide(x, out, out=out, where=m)


def _unic_values(design: UnicDesign, saw: SawBpf, f: np.ndarray, out: np.ndarray,
                 scratch: tuple) -> np.ndarray:
    if not isinstance(saw, SawBpf):
        raise TypeError("saw must be a SawBpf block")
    if not math.isclose(design.t_g_saw, saw.group_delay, rel_tol=1e-9, abs_tol=1e-15):
        raise ValueError(
            f"design t_g_saw {design.t_g_saw!r} does not match saw group_delay {saw.group_delay!r}"
        )
    tap = design.coupler_tap
    pad = 10.0 ** (-design.att_balance_db / 20.0)
    v = _saw_values(saw, f, out, scratch)
    np.multiply(tap * pad, v, out=v)
    v *= _phase(f, design.delta_t, scratch[4])
    v += 1.0 - tap  # the flat through arm
    return v


def _block_values(block, f: np.ndarray, out: np.ndarray, scratch: tuple) -> np.ndarray:
    """Values at `f`, written into `out`, of a network block or of a
    (UnicDesign, SawBpf) interferometer."""
    if isinstance(block, tuple):
        return _unic_values(*block, f, out, scratch)
    if isinstance(block, Coupler):
        out.fill(math.sqrt(block.tap_fraction if block.port == "tap" else 1.0 - block.tap_fraction))
        return out
    if isinstance(block, Attenuator):
        out.fill(10.0 ** (-block.loss / 20.0))
        return out
    if isinstance(block, Delay):
        return _phase(f, block.t, out)
    if isinstance(block, SawBpf):
        return _saw_values(block, f, out, scratch)
    if isinstance(block, Amplifier):
        np.multiply(1j, f, out=out)
        out /= block.bandwidth
        out += 1.0
        return np.divide(10.0 ** (block.gain / 20.0), out, out=out)
    if isinstance(block, Notch):
        return _notch_values(block, f, out, scratch)
    raise TypeError(f"unknown block type {type(block).__name__}")


def _blocks(grid: FrequencyGrid):
    """(slice, frequencies) of each block of _BLOCK grid points, the last one
    holding the 2 to _BLOCK + 1 points left: numpy rounds an in-place complex
    product of one-element arrays differently.  The frequencies equal
    grid.frequencies()[slice]: i * step + f_start with the last point set to
    f_stop, as np.linspace computes them."""
    i0 = 0
    while i0 < grid.n_points:
        i1 = grid.n_points if grid.n_points - i0 <= _BLOCK + 1 else i0 + _BLOCK
        f = np.arange(i0, i1, dtype=np.float64)
        f *= grid.step
        f += grid.f_start
        if i1 == grid.n_points:
            f[-1] = grid.f_stop
        yield slice(i0, i1), f
        i0 = i1


def _product(factors, out: np.ndarray) -> np.ndarray:
    """The product of `factors` taken left to right, written into `out`."""
    if not factors:
        raise ValueError("a chain requires at least one part")
    np.copyto(out, factors[0])
    for v in factors[1:]:
        out *= v
    return out


def _chain_values(parts, size: int):
    """values(f, out): the cascade of `parts` at the at most `size`
    frequencies `f`, written into `out`.  Equal parts are evaluated once per
    call, each into its own buffer; those buffers and the scratch are
    allocated here, once."""
    distinct = list(dict.fromkeys(parts))
    buffers = [np.empty(size, dtype=np.complex128) for _ in distinct]
    scratch = _scratch(size)

    def values(f: np.ndarray, out: np.ndarray) -> np.ndarray:
        s = scratch(f.size)
        v = {part: _block_values(part, f, b[:f.size], s) for part, b in zip(distinct, buffers)}
        return _product([v[part] for part in parts], out)

    return values


def chain_response(parts, grid: FrequencyGrid) -> TwoPortResponse:
    """Response of the cascade of `parts` on `grid`, evaluated a block of grid
    points at a time.  A part is a network block or an interferometer, given
    as a (UnicDesign, SawBpf) pair as `unic_response` takes them."""
    values = np.empty(grid.n_points, dtype=np.complex128)
    chain = _chain_values(parts, min(grid.n_points, _BLOCK + 1))
    for s, f in _blocks(grid):
        chain(f, values[s])
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


def _arm_amplitudes(design: UnicDesign, saw: SawBpf) -> tuple[float, float]:
    """(filtered-arm amplitude before the balance pad, through-arm amplitude) at f_g."""
    f_g = np.asarray([design.f_g])
    saw_mag = float(np.abs(_saw_values(saw, f_g, np.empty(1, dtype=np.complex128), _scratch(1)(1)))[0])
    return design.coupler_tap * saw_mag, 1.0 - design.coupler_tap


def balance_attenuation(design: UnicDesign, saw: SawBpf) -> float:
    """Attenuation (dB) that equalizes the two arm amplitudes at f_g.

    Raises BalanceInfeasibleError when the filtered arm is weaker than the
    through arm even without any pad.
    """
    filt, thru = _arm_amplitudes(design, saw)
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
    values = np.empty(g0.n_points, dtype=np.complex128)
    return TwoPortResponse(g0, _product([r.values for r in responses], values))


# ---------------------------------------------------------------------------
# Null metrics
# ---------------------------------------------------------------------------

_BACKGROUND_BAND = (1e8, 2e9)   # Hz, off-band comparison region
_BACKGROUND_EXCLUDE = 5e7       # Hz, keep-out around f_g
_NULL_SEARCH = 5e7              # Hz, search window around f_g


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


def _null_metrics(grid: FrequencyGrid, f_g: float, blocks) -> NullMetrics:
    """`null_metrics` of the |H| that `blocks` yields as (frequencies, |H|)
    of consecutive grid blocks.  Only the background values and the search
    window around f_g are kept."""
    if not grid.f_start < f_g < grid.f_stop:
        raise ValueError("grid does not bracket f_g")
    if grid.step > 1e3 * (1 + 1e-9):
        raise ValueError(f"grid too coarse near f_g: step {grid.step:.6g} Hz exceeds 1 kHz")
    bg_mag = np.empty(grid.n_points)
    n_bg = 0
    near_f, near_mag = [], []
    for f, mag in blocks:
        off = np.abs(f - f_g)
        bg = (f >= _BACKGROUND_BAND[0]) & (f <= _BACKGROUND_BAND[1]) & (off > _BACKGROUND_EXCLUDE)
        k = int(np.count_nonzero(bg))
        bg_mag[n_bg:n_bg + k] = mag[bg]
        n_bg += k
        near = off <= _NULL_SEARCH  # one contiguous run of the grid
        near_f.append(f[near])
        near_mag.append(mag[near])
    if n_bg < 100:
        raise ValueError("grid does not cover enough of the 0.1-2 GHz background band")
    background = _median(bg_mag[:n_bg])
    background_loss_db = -20.0 * math.log10(max(background, _MAG_FLOOR))

    f, mag = np.concatenate(near_f), np.concatenate(near_mag)
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
    around f_g.  Depth is reported in dB below that background; width_30db
    is the full width of the contiguous region at least 30 dB below it.
    The grid must bracket f_g with a step no coarser than 1 kHz.
    """
    return _null_metrics(resp.grid, f_g, ((f, np.abs(resp.values[s])) for s, f in _blocks(resp.grid)))


def chain_null_metrics(parts, grid: FrequencyGrid, f_g: float) -> NullMetrics:
    """`null_metrics` of `chain_response(parts, grid)`, with no complex
    response held beyond one block of grid points."""
    def blocks():  # its buffers are freed once the last block is read
        size = min(_BLOCK + 1, grid.n_points)
        chain = _chain_values(parts, size)
        out, mag = np.empty(size, dtype=np.complex128), np.empty(size)
        for _, f in _blocks(grid):
            yield f, np.abs(chain(f, out[:f.size]), out=mag[:f.size])

    return _null_metrics(grid, f_g, blocks())


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
