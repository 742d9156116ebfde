"""Time-domain synthesis and frequency-domain filtering of readout waveforms.

Records are uniformly sampled voltage traces.  Filtering through a network
response is circular FFT convolution with a sampled impulse response: long
records by overlap-add, two segments per in-place complex transform, with
the tail wrapped so that the result equals one FFT of the whole record to
rounding.  Circular semantics mean an exactly record-periodic gate waveform
is suppressed at the steady-state null depth with no turn-on transient.

A record is made as a stream of (start, samples) pieces (`_record`), each
yielded once final.  The library gathers them into one array; the
`waveform` subcommand writes each into the binary file at its offset and
reads the file back a slice at a time for the CSV and the rms, so it holds
no record-sized array.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from ._io import csv_rows, output, read_csv, read_exact, read_values
from ._schema import Finite, NonNegative, Positive, check_fields, check_finite
from .config import DEFAULT_SAMPLE_RATE
from .network import TwoPortResponse

__all__ = [
    "Waveform",
    "GateWaveSpec",
    "ImpulseSpec",
    "DEFAULT_SAMPLE_RATE",
    "synth_capacitive",
    "synth_record",
    "synth_avalanche",
    "add_impulses",
    "apply_response",
    "add_noise",
    "write_waveform_csv",
    "read_waveform_csv",
    "write_waveform_binary",
    "read_waveform_binary",
]

# Impulse responses are sampled on this many points;
# 2**17 taps at 40 GS/s is a 3.3 us window, far beyond the SAW ring-down.
DEFAULT_IR_LENGTH = 1 << 17
# Samples computed at once: by synthesis, by Waveform.rms, and as impulse
# samples by add_impulses.  Each float64 temporary is then 64 KB, below
# glibc's 128 KB mmap threshold, so it comes from the heap.
_BLOCK = 1 << 13
_SEGMENT = 1 << 17  # samples per read of a synthesized record, and rows per CSV slice
_ANCHOR = 1 << 13  # gate-tone samples computed from the angle at each multiple of this


@dataclass
class Waveform:
    """Uniformly sampled real voltage trace."""

    sample_rate: Positive  # Hz
    t0: Finite             # seconds
    samples: np.ndarray

    def __post_init__(self):
        check_fields(self)
        s = np.asarray(self.samples, dtype=np.float64).view()  # read-only without freezing the caller's array
        if s.ndim != 1:
            raise ValueError("samples must be one-dimensional")
        check_finite(s, "samples")
        s.flags.writeable = False
        self.samples = s

    def __len__(self) -> int:
        return self.samples.size

    def times(self) -> np.ndarray:
        return self.t0 + np.arange(self.samples.size) / self.sample_rate

    @property
    def duration(self) -> float:
        return self.samples.size / self.sample_rate

    def rms(self) -> float:
        """sqrt(mean(samples**2)), with no squared copy of the record."""
        return _rms(self.samples.size, _slicer(self.samples))

    def __add__(self, other: "Waveform") -> "Waveform":
        if not isinstance(other, Waveform):
            return NotImplemented
        if other.sample_rate != self.sample_rate or other.t0 != self.t0 or len(other) != len(self):
            raise ValueError("waveforms must share sample_rate, t0 and length")
        return Waveform(self.sample_rate, self.t0, self.samples + other.samples)


@dataclass(frozen=True)
class GateWaveSpec:
    """Periodic capacitive response: fundamental sine plus listed harmonics.

    harmonics: tuple of (order, amplitude_v, phase_rad) with orders >= 2.
    """

    f_g: Positive
    fundamental_amp: NonNegative
    harmonics: tuple[tuple[int, float, float], ...] = ()

    def __post_init__(self):
        check_fields(self)
        orders = [h[0] for h in self.harmonics]
        if any(o < 2 for o in orders):
            raise ValueError("harmonics must have orders >= 2")
        if len(set(orders)) != len(orders):
            raise ValueError("harmonics must have distinct orders")

    @property
    def max_frequency(self) -> float:
        return self.f_g * max([1] + [h[0] for h in self.harmonics])


@dataclass(frozen=True)
class ImpulseSpec:
    """Gaussian avalanche impulse."""

    fwhm: Positive       # seconds
    peak: Positive       # volts
    onset: Finite = 0.0  # seconds, pulse center

    __post_init__ = check_fields

    @property
    def area(self) -> float:
        """Pulse integral peak * fwhm * sqrt(pi / (4 ln 2)) in V*s."""
        return self.peak * self.fwhm * math.sqrt(math.pi / (4.0 * math.log(2.0)))


# ---------------------------------------------------------------------------
# Synthesis
# ---------------------------------------------------------------------------

def _record_length(spec: GateWaveSpec, duration: float, rate: float) -> int:
    """Samples in a `duration` record of `spec` at `rate`; ValueError if the
    record is shorter than 10 gate periods or `rate` is below Nyquist."""
    if duration < 10.0 / spec.f_g:
        raise ValueError("duration must cover at least 10 gate periods")
    if rate <= 2.0 * spec.max_frequency:
        raise ValueError(
            f"sample_rate {rate:.4g} below Nyquist for highest harmonic {spec.max_frequency:.4g}"
        )
    return int(round(duration * rate))


def _slicer(s: np.ndarray):
    """read(i0, i1): the samples i0..i1 of `s`."""
    return lambda i0, i1: s[i0:i1]


def _sum_squares(read, i0: int, i1: int):
    """np.add.reduce(s ** 2) of the samples s = read(i0, i1) in numpy's
    pairwise order: halves split at a multiple of 8 down to leaves of up to
    _BLOCK samples, each read and squared on its own."""
    if i1 - i0 <= _BLOCK:
        return np.add.reduce(np.square(read(i0, i1)))
    n2 = (i1 - i0) // 2
    n2 -= n2 % 8
    return _sum_squares(read, i0, i0 + n2) + _sum_squares(read, i0 + n2, i1)


def _rms(n: int, read) -> float:
    """`Waveform.rms` of the n finite samples that read(i0, i1) returns a
    leaf of up to _BLOCK samples at a time.  Squares past the float64
    range (samples above about 1.3e154) overflow the sum to inf; only then
    is the record scaled by its largest magnitude, so every other record
    keeps the digits of numpy's mean of squares."""
    if n == 0:
        return 0.0
    with np.errstate(over="ignore"):
        total = _sum_squares(read, 0, n)
    if math.isfinite(total):
        return float(np.sqrt(total / n))
    peak = max(float(np.abs(read(i, min(i + _BLOCK, n))).max()) for i in range(0, n, _BLOCK))
    return peak * math.sqrt(_sum_squares(lambda i0, i1: read(i0, i1) / peak, 0, n) / n)


def _source(spec: GateWaveSpec, rate: float, n: int, impulse: ImpulseSpec | None = None, times=(),
            noise_rms: float = 0.0, seed: int = 0):
    """read(i0, i1): samples i0..i1 of the n-sample record that
    `synth_capacitive`, `add_impulses` and `add_noise` make in turn, computed
    from global sample indices: sample a + r of a gate tone, a a multiple of
    _ANCHOR, as amp * (sin(t_a) cos(r w) + cos(t_a) sin(r w)), each angle
    from its turns modulo 1; the noise a block of _BLOCK samples at a time;
    the impulses once per read.  Reads must go forward, as the noise is
    drawn in order; a read of up to _SEGMENT samples returns a buffer the
    next read reuses."""
    buf = np.empty(min(n, _SEGMENT))
    tones = []  # (turns a sample, amp, phase, cos(r w), sin(r w)) of each tone, 0 <= r < _ANCHOR
    for order, amp, phase in ((1, spec.fundamental_amp, 0.0),) + spec.harmonics:
        turns = order * spec.f_g / rate
        rw = 2.0 * np.pi * (np.arange(_ANCHOR) * turns % 1.0)
        tones.append((turns, amp, phase, np.cos(rw), np.sin(rw)))
    add = None if impulse is None else _impulse_adder(impulse, rate, 0.0, n, times)
    rng = _noise_rng(noise_rms, seed)

    def read(i0: int, i1: int) -> np.ndarray:
        out = buf[:i1 - i0] if i1 - i0 <= buf.size else np.empty(i1 - i0)
        out[:] = 0.0
        for a in range(i0 - i0 % _ANCHOR, i1, _ANCHOR):
            j0, j1 = max(a, i0), min(a + _ANCHOR, i1)
            for turns, amp, phase, cos_rw, sin_rw in tones:
                t_a = 2.0 * math.pi * (a * turns % 1.0) + phase
                out[j0 - i0:j1 - i0] += (cos_rw[j0 - a:j1 - a] * (amp * math.sin(t_a))
                                         + sin_rw[j0 - a:j1 - a] * (amp * math.cos(t_a)))
        if add is not None:
            add(out, i0)
        if rng is not None:
            for j in range(0, out.size, _BLOCK):
                y = out[j:j + _BLOCK]
                y += rng.standard_normal(y.size) * noise_rms
        return out

    return read


def synth_capacitive(spec: GateWaveSpec, duration: float, rate: float = DEFAULT_SAMPLE_RATE) -> Waveform:
    """Synthesize the periodic gate response over `duration` seconds."""
    n = _record_length(spec, duration, rate)
    return Waveform(rate, 0.0, _source(spec, rate, n)(0, n))


def synth_record(spec: GateWaveSpec, duration: float, rate: float = DEFAULT_SAMPLE_RATE, *,
                 impulse: ImpulseSpec | None = None, times=(), noise_rms: float = 0.0, seed: int = 0,
                 response: TwoPortResponse | None = None) -> Waveform:
    """`synth_capacitive`, then `add_impulses` of `impulse` at `times` if
    given, then `add_noise`, then `apply_response` of `response` if given,
    with the same samples.  A filtered record past DEFAULT_IR_LENGTH
    samples is synthesized and filtered two 2**17-sample overlap-add
    segments at a time, so only the output record is held whole."""
    n, pieces = _record(spec, duration, rate, impulse, times, noise_rms, seed, response)
    return Waveform(rate, 0.0, _gather(n, pieces))


def _record(spec: GateWaveSpec, duration: float, rate: float, impulse: ImpulseSpec | None = None,
            times=(), noise_rms: float = 0.0, seed: int = 0, response: TwoPortResponse | None = None):
    """(n, pieces): the length of the record that `synth_record` makes from
    these arguments, and its samples as (start, samples) pieces: those that
    `_filtered` yields, or unfiltered its _SEGMENT-sample segments in order.
    A piece is valid until the next is asked for."""
    n = _record_length(spec, duration, rate)
    if response is not None:
        _check_coverage(response, rate)
    read = _source(spec, rate, n, impulse, times, noise_rms, seed)
    if response is not None:
        return n, _filtered(read, n, rate, response)
    return n, ((i0, read(i0, min(i0 + _SEGMENT, n))) for i0 in range(0, n, _SEGMENT))


def _gather(n: int, pieces) -> np.ndarray:
    """The n samples that `pieces` yields, in one array; a piece that holds
    them all is returned as it is."""
    out = None
    for start, p in pieces:
        if p.size == n:
            return p
        if out is None:
            out = np.empty(n)
        out[start:start + p.size] = p
    return out


def _check_resolvable(fwhm: float, rate: float) -> None:
    if fwhm < 4.0 / rate:
        raise ValueError("unresolvable pulse: fwhm shorter than 4 sample intervals")


def synth_avalanche(spec: ImpulseSpec, rate: float = DEFAULT_SAMPLE_RATE,
                    duration: float | None = None) -> Waveform:
    """Gaussian impulse record; duration defaults to onset + 10 fwhm."""
    _check_resolvable(spec.fwhm, rate)
    if duration is None:
        duration = spec.onset + 10.0 * spec.fwhm
    n = max(16, int(round(duration * rate)))
    t = np.arange(n) / rate
    return Waveform(rate, 0.0, spec.peak * np.exp(-4.0 * math.log(2.0) * ((t - spec.onset) / spec.fwhm) ** 2))


def _impulse_adder(spec: ImpulseSpec, rate: float, t0: float, n: int, times):
    """add(y, i0): add to `y`, samples i0.. of an n-sample record starting at
    t0, its part of the impulses that `add_impulses` places at `times`."""
    _check_resolvable(spec.fwhm, rate)
    half = max(1, int(round(6.0 * spec.fwhm * rate)))
    coeff = -4.0 * math.log(2.0) / spec.fwhm ** 2
    times = np.asarray(times, dtype=np.float64).ravel()
    check_finite(times, "impulse times")
    # int(c) held as a float, as are the sample indices, so that no ufunc
    # casts (a casting ufunc's buffers raised the waveform peak RSS); a
    # centre further than half + 2 samples outside the record adds nothing
    centres = np.trunc(np.clip((times - t0) * rate, -half - 2.0, n + half + 2.0))
    offsets = np.arange(-half, half + 1, dtype=np.float64)
    step = max(1, _BLOCK // offsets.size)

    def add(y: np.ndarray, i0: int) -> None:
        i1 = i0 + y.size
        touching = np.flatnonzero((centres >= i0 - half) & (centres < i1 + half))
        for k in range(0, touching.size, step):
            chunk = touching[k:k + step]
            idx = np.add.outer(centres[chunk], offsets)
            inside = (idx >= i0) & (idx < i1)
            t_rel = (idx / rate + t0 - times[chunk, None])[inside]
            np.add.at(y, (idx[inside] - i0).astype(np.intp), np.exp(np.square(t_rel) * coeff) * spec.peak)

    return add


def add_impulses(w: Waveform, spec: ImpulseSpec, times) -> Waveform:
    """Add one Gaussian impulse (shape from `spec`) centered at each time.

    Impulse k covers the samples int(c_k) - half .. int(c_k) + half that lie
    in the record, c_k being its time in samples; where windows overlap the
    impulses add in the order given.
    """
    y = w.samples.copy()
    _impulse_adder(spec, w.sample_rate, w.t0, y.size, times)(y, 0)
    return Waveform(w.sample_rate, w.t0, y)


# ---------------------------------------------------------------------------
# Filtering
# ---------------------------------------------------------------------------

def _interp_response(resp: TwoPortResponse, bins: np.ndarray) -> np.ndarray:
    f = resp.frequencies()
    v = resp.values
    return np.interp(bins, f, v.real) + 1j * np.interp(bins, f, v.imag)


def _check_coverage(resp: TwoPortResponse, rate: float) -> None:
    if resp.grid.f_start > 0.0 or resp.grid.f_stop < 0.5 * rate * (1.0 - 1e-12):
        raise ValueError(
            f"grid coverage insufficient: response spans [{resp.grid.f_start:.4g}, "
            f"{resp.grid.f_stop:.4g}] Hz but the record needs [0, {0.5 * rate:.4g}] Hz"
        )


def _twiddles(shape: tuple[int, int]) -> list[np.ndarray]:
    """exp(-2 pi i k1 n2 / N) at [k1, n2] of a rows x cols = N transform, as
    two small tables over [k1, p, r], n2 = p q + r, whose product it is."""
    rows, cols = shape
    n, q = rows * cols, 1 << (cols.bit_length() // 2)
    k1 = np.arange(rows)[:, None, None]
    return [np.exp(-2j * np.pi * (k1 * n2 % n) / n) for n2 in (np.arange(0, cols, q)[:, None], np.arange(q))]


def _fft_in_place(z: np.ndarray, tw: list[np.ndarray], axis: int = 0) -> None:
    """z (rows x cols) := its rows * cols point DFT, four-step (Bailey 1990):
    FFT along `axis`, twiddles `tw`, FFT along the other axis.  Along axis 0
    it takes row-major order to bin k1 + rows k2 at [k1, k2], along axis 1
    that order to row-major.  No FFT buffers more than a row or column."""
    np.fft.fft(z, axis=axis, out=z)
    z3 = z.reshape(*tw[0].shape[:2], -1)
    for t in tw:
        z3 *= t
    np.fft.fft(z, axis=1 - axis, out=z)


def _overlap_add_circular(read, n: int, hf: np.ndarray, tw: list[np.ndarray]):
    """Circular convolution, by overlap-add and tail wrap, with the L taps
    whose 2 L-point DFT / 2 L is `hf` (in `_fft_in_place` order), of the n > L
    samples read(i0, i1) returns, as (start, samples) pieces once final: in
    order from sample L - 1 on, then the head 0..L - 1 with the tail added.
    Segments a, b share a transform as a + i b, whose real part (the taps are
    real) convolves a and imaginary part b.  A piece lasts until the next."""
    L = hf.size // 2
    z = np.empty_like(hf)
    x = z.reshape(-1)
    piece = np.zeros(L)  # the last pair's carry, then each piece in turn
    head = np.empty(L - 1)

    def place(w0: int):
        """Yield samples w0 .. w0 + L from `piece`; keep the head's, wrap those past n."""
        if not w0:
            head[:] = piece[:-1]
        if min(w0 + L, n) > max(w0, L - 1):
            yield max(w0, L - 1), piece[max(L - 1 - w0, 0):n - w0]
        t0, t1 = max(w0, n), min(w0 + L, n + L - 1)
        if t1 > t0:
            head[t0 - n:t1 - n] += piece[t0 - w0:t1 - w0]

    for start in range(0, n, 2 * L):
        for part, i0 in ((x.real, start), (x.imag, start + L)):
            seg = read(min(i0, n), min(i0 + L, n))
            part[:seg.size] = seg
            part[seg.size:] = 0.0
        _fft_in_place(z, tw)
        z *= hf
        np.conjugate(z, out=z)
        _fft_in_place(z, tw, 1)  # DFT(conj Z) = conj(a * h + i b * h)
        piece += x.real[:L]
        yield from place(start)
        np.subtract(x.real[L:], x.imag[:L], out=piece)
        yield from place(start + L)
        np.negative(x.imag[L:], out=piece)
    yield from place(start + 2 * L)
    yield 0, head


def _filtered(read, n: int, rate: float, resp: TwoPortResponse):
    """(start, samples) pieces of the n > 0 samples that read(i0, i1)
    returns, filtered as `apply_response` describes: one piece of a short
    record, or the overlap-add pieces of a longer one, whose loop holds the
    taps' spectrum but not `resp`, its bins or the taps."""
    if n <= DEFAULT_IR_LENGTH:
        # Short record: multiply on its own bin grid, no intermediate FIR.
        bins = np.arange(n // 2 + 1) * (rate / n)
        yield 0, np.fft.irfft(np.fft.rfft(read(0, n)) * _interp_response(resp, bins), n)
        return

    L = DEFAULT_IR_LENGTH
    hf = np.zeros((512, 2 * L // 512), complex)  # the 2 L points of a 512-row four-step transform
    hf.reshape(-1).real[:L] = np.fft.irfft(_interp_response(resp, np.arange(L // 2 + 1) * (rate / L)), L) / (2 * L)
    del resp
    tw = _twiddles(hf.shape)
    _fft_in_place(hf, tw)
    yield from _overlap_add_circular(read, n, hf, tw)


def apply_response(w: Waveform, resp: TwoPortResponse) -> Waveform:
    """Filter a record through a two-port response (circular FFT convolution).

    The response grid must cover [0, sample_rate/2]; it is linearly
    interpolated onto the transform bins.  A record of up to
    DEFAULT_IR_LENGTH samples is filtered on its own bin grid; a longer one
    with the response sampled as a DEFAULT_IR_LENGTH-tap impulse response,
    by overlap-add segments of that length, two per complex transform, in
    agreement with one FFT of the whole record to rounding.  The response
    group delay appears as a (circular) shift of pulse content.
    """
    _check_coverage(resp, w.sample_rate)
    x = w.samples
    if x.size == 0:
        return Waveform(w.sample_rate, w.t0, x)
    return Waveform(w.sample_rate, w.t0,
                    _gather(x.size, _filtered(_slicer(x), x.size, w.sample_rate, resp)))


def _noise_rng(rms: float, seed: int) -> np.random.Generator | None:
    """The counter-based (Philox) stream of `seed`, or None at rms 0;
    ValueError unless rms is finite and >= 0, written so that NaN fails."""
    if not 0 <= rms < math.inf:
        raise ValueError("rms must be finite and >= 0")
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed)))) if rms else None


def add_noise(w: Waveform, rms: float, seed: int) -> Waveform:
    """Add white Gaussian noise from a counter-based (Philox) stream."""
    rng = _noise_rng(rms, seed)
    if rng is None:
        return Waveform(w.sample_rate, w.t0, w.samples)
    return Waveform(w.sample_rate, w.t0, w.samples + rng.standard_normal(len(w)) * rms)


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

_CSV_HEADER = ["time_s", "volts"]


def _write_csv(path, rate: float, t0: float, n: int, read) -> None:
    """`write_waveform_csv` of the n samples that read(i0, i1) returns,
    appended _SEGMENT rows at a time with their `Waveform.times`."""
    with csv_rows(path, _CSV_HEADER) as append:
        for i0 in range(0, n, _SEGMENT):
            i1 = min(i0 + _SEGMENT, n)
            append([t0 + np.arange(i0, i1) / rate, read(i0, i1)])


def write_waveform_csv(path, w: Waveform) -> None:
    _write_csv(path, w.sample_rate, w.t0, len(w), _slicer(w.samples))


def read_waveform_csv(path) -> tuple[np.ndarray, np.ndarray]:
    t, v = read_csv(path, _CSV_HEADER)
    return np.asarray([float(x) for x in t]), np.asarray([float(x) for x in v])


_BIN_HEADER = struct.Struct("<ddQ")


def _write_binary(path, rate: float, t0: float, n: int, pieces) -> None:
    """`write_waveform_binary` of the n samples that `pieces` yields as
    (start, samples) pieces, each written at its offset as it comes.  A
    non-finite sample raises ValueError, and leaves no file."""
    with output(path, "wb") as fh:
        fh.write(_BIN_HEADER.pack(rate, t0, n))
        for start, p in pieces:
            check_finite(p, "samples")
            fh.seek(_BIN_HEADER.size + 8 * start)
            # a contiguous little-endian piece is written from its own buffer, uncopied
            fh.write(np.ascontiguousarray(p, dtype="<f8").data)


def _binary_reader(fh):
    """read(i0, i1): the samples i0..i1 of the waveform file open as `fh`."""
    def read(i0: int, i1: int) -> np.ndarray:
        fh.seek(_BIN_HEADER.size + 8 * i0)
        return np.frombuffer(fh.read(8 * (i1 - i0)), dtype="<f8")

    return read


def write_waveform_binary(path, w: Waveform) -> None:
    _write_binary(path, w.sample_rate, w.t0, len(w), [(0, w.samples)])


def read_waveform_binary(path) -> Waveform:
    with open(path, "rb") as fh:
        rate, t0, n = _BIN_HEADER.unpack(read_exact(fh, _BIN_HEADER.size, "waveform"))
        data = np.frombuffer(read_values(fh, n, "waveform"), dtype="<f8")
    return Waveform(rate, t0, data.copy())
