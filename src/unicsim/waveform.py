"""Time-domain synthesis and frequency-domain filtering of readout waveforms.

Records are uniformly sampled voltage traces.  Filtering through a network
response is circular FFT convolution with a sampled impulse response: long
records are processed by overlap-add segments whose wrapped tail makes the
segmented result identical to the single-block one.  Circular semantics mean
an exactly record-periodic gate waveform is suppressed at the steady-state
null depth with no turn-on transient.

A record is made as a stream of (start, samples) pieces (`_record`), each
yielded once final.  The library gathers them into one array; the
`waveform` subcommand writes each into the binary file at its offset and
reads the file back a slice at a time for the CSV and the rms, so it holds
no record-sized array.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from ._io import read_csv, write_csv
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

DEFAULT_SAMPLE_RATE = 40e9  # 32 samples per 1.25 GHz gate period

# Impulse responses are sampled on this many points unless overridden;
# 2**17 taps at 40 GS/s is a 3.3 us window, far beyond the SAW ring-down.
DEFAULT_IR_LENGTH = 1 << 17
_MAX_SINGLE_FFT = 1 << 22
_IMPULSE_CHUNK = 1 << 13  # impulse samples placed at once by add_impulses (64 KB per array)
_SEGMENT = 1 << 17  # samples synthesized at once, and squared at once by Waveform.rms


@dataclass
class Waveform:
    """Uniformly sampled real voltage trace."""

    sample_rate: float  # Hz
    t0: float           # seconds
    samples: np.ndarray

    def __post_init__(self):
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        s = np.asarray(self.samples, dtype=np.float64).view()  # read-only without freezing the caller's array
        if s.ndim != 1:
            raise ValueError("samples must be one-dimensional")
        _check_finite(s)
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

    f_g: float
    fundamental_amp: float
    harmonics: tuple[tuple[int, float, float], ...] = ()

    def __post_init__(self):
        if self.f_g <= 0:
            raise ValueError("f_g must be positive")
        if self.fundamental_amp < 0:
            raise ValueError("fundamental_amp must be >= 0")
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

    fwhm: float   # seconds
    peak: float   # volts
    onset: float = 0.0  # seconds, pulse center

    def __post_init__(self):
        if self.fwhm <= 0:
            raise ValueError("fwhm must be positive")
        if self.peak <= 0:
            raise ValueError("peak must be positive")

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


def _check_finite(s: np.ndarray) -> None:
    # min and max are NaN when any sample is, and infinite when one is:
    # two reductions, with no mask of the record.
    if s.size and not (math.isfinite(s.min()) and math.isfinite(s.max())):
        raise ValueError("samples must be finite")


def _slicer(s: np.ndarray):
    """read(i0, i1): the samples i0..i1 of `s`."""
    return lambda i0, i1: s[i0:i1]


def _sum_squares(read, i0: int, i1: int, scratch: np.ndarray):
    """np.add.reduce(s ** 2) of the samples s = read(i0, i1) in numpy's
    pairwise order: halves split at a multiple of 8 down to leaves that fit
    `scratch`, each read on its own and squared into it."""
    if i1 - i0 <= scratch.size:
        return np.add.reduce(np.square(read(i0, i1), out=scratch[:i1 - i0]))
    n2 = (i1 - i0) // 2
    n2 -= n2 % 8
    return _sum_squares(read, i0, i0 + n2, scratch) + _sum_squares(read, i0 + n2, i1, scratch)


def _rms(n: int, read) -> float:
    """`Waveform.rms` of the n samples that read(i0, i1) returns a leaf of
    up to _SEGMENT samples at a time."""
    if n == 0:
        return 0.0
    return float(np.sqrt(_sum_squares(read, 0, n, np.empty(min(n, _SEGMENT))) / n))


def _gate(spec: GateWaveSpec, t: np.ndarray, y: np.ndarray, scratch: np.ndarray | None) -> None:
    """The gate response at times `t` into `y`; each sine is evaluated in
    place, the last harmonic in `t`, any other in `scratch`."""
    np.multiply(2.0 * np.pi * spec.f_g, t, out=y)
    np.sin(y, out=y)
    y *= spec.fundamental_amp
    for i, (order, amp, phase) in enumerate(spec.harmonics):
        h = t if i == len(spec.harmonics) - 1 else scratch
        np.multiply(2.0 * np.pi * order * spec.f_g, t, out=h)
        h += phase
        np.sin(h, out=h)
        h *= amp
        y += h


def _source(spec: GateWaveSpec, rate: float, n: int, impulse: ImpulseSpec | None = None, times=(),
            noise_rms: float = 0.0, seed: int = 0):
    """read(i0, i1): samples i0..i1 of the n-sample record that
    `synth_capacitive`, `add_impulses` and `add_noise` make in turn, computed
    from global sample indices a segment of up to _SEGMENT samples at a time,
    in buffers allocated once.  Reads must go forward, as the noise is drawn
    in order; a read of one segment returns a buffer the next read reuses."""
    block = min(n, _SEGMENT)
    ramp = np.arange(block, dtype=np.float64)
    t, buf = np.empty(block), np.empty(block)
    scratch = np.empty(block) if len(spec.harmonics) > 1 else None
    add = None if impulse is None else _impulse_adder(impulse, rate, 0.0, n, times)
    if noise_rms < 0:
        raise ValueError("rms must be >= 0")
    rng = _philox(seed) if noise_rms > 0 else None

    def fill(i0: int, y: np.ndarray) -> None:
        m = y.size
        np.add(ramp[:m], i0, out=t[:m])  # the global indices, exact as floats
        t[:m] /= rate
        _gate(spec, t[:m], y, scratch if scratch is None else scratch[:m])
        if add is not None:
            add(y, i0)
        if rng is not None:
            _add_noise(y, rng, noise_rms, t[:m])

    def read(i0: int, i1: int) -> np.ndarray:
        out = buf[:i1 - i0] if i1 - i0 <= block else np.empty(i1 - i0)
        for j in range(i0, i1, block):
            fill(j, out[j - i0:min(j + block, i1) - i0])
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
    with the same samples.  A filtered record past _MAX_SINGLE_FFT samples
    is synthesized one 2**17-sample overlap-add segment at a time, so only
    the output record is held whole."""
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


def _gaussian(t: np.ndarray, spec: ImpulseSpec) -> np.ndarray:
    return spec.peak * np.exp(-4.0 * math.log(2.0) * ((t - spec.onset) / spec.fwhm) ** 2)


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
    return Waveform(rate, 0.0, _gaussian(t, spec))


def _impulse_adder(spec: ImpulseSpec, rate: float, t0: float, n: int, times):
    """add(y, i0): add to `y`, samples i0.. of an n-sample record starting at
    t0, its part of the impulses that `add_impulses` places at `times`."""
    _check_resolvable(spec.fwhm, rate)
    half = max(1, int(round(6.0 * spec.fwhm * rate)))
    coeff = -4.0 * math.log(2.0) / spec.fwhm ** 2
    times = np.asarray(times, dtype=np.float64).ravel()
    if not np.all(np.isfinite(times)):
        raise ValueError("impulse times must be finite")
    # int(c) held as a float, as are the sample indices, so that no ufunc
    # casts (a casting ufunc's buffers raised the waveform peak RSS); a
    # centre further than half + 2 samples outside the record adds nothing
    centres = np.trunc(np.clip((times - t0) * rate, -half - 2.0, n + half + 2.0))
    offsets = np.arange(-half, half + 1, dtype=np.float64)
    step = max(1, _IMPULSE_CHUNK // offsets.size)

    def add(y: np.ndarray, i0: int) -> None:
        i1 = i0 + y.size
        touching = np.flatnonzero((centres >= i0 - half) & (centres < i1 + half))
        for k in range(0, touching.size, step):
            chunk = touching[k:k + step]
            idx = np.add.outer(centres[chunk], offsets)
            inside = (idx >= i0) & (idx < i1)
            t_rel = idx / rate
            t_rel += t0
            t_rel -= times[chunk, None]
            v = t_rel[inside]  # peak * exp(coeff * t_rel**2), in place
            np.square(v, out=v)
            v *= coeff
            np.exp(v, out=v)
            v *= spec.peak
            idx -= i0
            np.add.at(y, idx[inside].astype(np.intp), v)

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

def _next_pow2(n: int) -> int:
    return 1 << max(0, n - 1).bit_length()


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


def _overlap_add_circular(read, n: int, h: np.ndarray, block: int):
    """Circular convolution with h, via overlap-add and tail wrap, of the n
    samples that read(i0, i1) returns a segment at a time, yielded as
    (start, samples) pieces once final: in order from sample L - 1 on, then
    the head 0..L - 1 with the linear-convolution tail added to it.  A piece
    is valid until the next is asked for."""
    L = h.size
    nfft = _next_pow2(block + L - 1)
    hf = np.fft.rfft(h, nfft)
    acc = np.zeros(block + L - 1)  # samples start .. start + block + L - 1
    head = np.empty(min(L - 1, n))
    for start in range(0, n, block):
        if start:
            acc[:L - 1] = acc[block:]  # the overlap moves to the front
            acc[L - 1:] = 0.0
        seg = read(start, min(start + block, n))
        x = np.fft.rfft(seg, nfft)
        x *= hf
        yk = np.fft.irfft(x, nfft)[: seg.size + L - 1]
        acc[:yk.size] += yk
        # samples start .. start + seg.size take no later segment
        k = min(max(head.size - start, 0), seg.size)
        head[start:start + k] = acc[:k]
        if k < seg.size:
            yield start + k, acc[k:seg.size]
    head += acc[seg.size:seg.size + head.size]  # wrap the tail: circular semantics
    if head.size:
        yield 0, head


def _filtered(read, n: int, rate: float, resp: TwoPortResponse, ir_length: int | None = None,
              block_size: int | None = None):
    """(start, samples) pieces of the n > 0 samples that read(i0, i1)
    returns, filtered as `apply_response` describes: one piece of the whole
    record, or the overlap-add pieces past _MAX_SINGLE_FFT samples or when
    `block_size` is given."""
    L = ir_length if ir_length is not None else min(DEFAULT_IR_LENGTH, _next_pow2(n))
    if n <= L and block_size is None:
        # Short record: multiply on its own bin grid, no intermediate FIR.
        bins = np.arange(n // 2 + 1) * (rate / n)
        yield 0, np.fft.irfft(np.fft.rfft(read(0, n)) * _interp_response(resp, bins), n)
        return

    bins = np.arange(L // 2 + 1) * (rate / L)
    h = np.fft.irfft(_interp_response(resp, bins), L)
    if block_size is None and n <= _MAX_SINGLE_FFT:
        yield 0, np.fft.irfft(np.fft.rfft(read(0, n)) * np.fft.rfft(h, n), n)
        return
    yield from _overlap_add_circular(read, n, h, L if block_size is None else int(block_size))


def apply_response(w: Waveform, resp: TwoPortResponse, *, ir_length: int | None = None,
                   block_size: int | None = None) -> Waveform:
    """Filter a record through a two-port response (circular FFT convolution).

    The response grid must cover [0, sample_rate/2]; it is linearly
    interpolated onto the transform bins.  Records longer than the impulse
    response window are filtered with an `ir_length`-tap sampled impulse
    response; passing `block_size` forces overlap-add segmentation, which is
    numerically identical to the single-block path.  The response group
    delay appears as a (circular) shift of pulse content.
    """
    _check_coverage(resp, w.sample_rate)
    x = w.samples
    if x.size == 0:
        return Waveform(w.sample_rate, w.t0, x)
    return Waveform(w.sample_rate, w.t0,
                    _gather(x.size, _filtered(_slicer(x), x.size, w.sample_rate, resp, ir_length, block_size)))


def _philox(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed))))


def _add_noise(y: np.ndarray, rng: np.random.Generator, rms: float, z: np.ndarray) -> None:
    """Add rms * z to `y`, z drawn into `z` as rng.normal(0.0, rms) draws it."""
    rng.standard_normal(out=z)
    z *= rms
    y += z


def add_noise(w: Waveform, rms: float, seed: int) -> Waveform:
    """Add white Gaussian noise from a counter-based (Philox) stream."""
    if rms < 0:
        raise ValueError("rms must be >= 0")
    if rms == 0:
        return Waveform(w.sample_rate, w.t0, w.samples)
    y = w.samples.copy()
    _add_noise(y, _philox(seed), rms, np.empty_like(y))
    return Waveform(w.sample_rate, w.t0, y)


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

_CSV_HEADER = ["time_s", "volts"]


class _Column:
    """n values whose slice [i0:i1] is read(i0, i1), as `write_csv` slices a column."""

    def __init__(self, n: int, read):
        self.n, self.read = n, read

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, rows: slice) -> np.ndarray:
        return self.read(*rows.indices(self.n)[:2])


def _write_csv(path, rate: float, t0: float, n: int, read) -> None:
    """`write_waveform_csv` of the n samples that read(i0, i1) returns, with
    `Waveform.times` computed a slice of rows at a time."""
    times = _Column(n, lambda i0, i1: t0 + np.arange(i0, i1) / rate)
    write_csv(path, _CSV_HEADER, [times, _Column(n, read)])


def write_waveform_csv(path, w: Waveform) -> None:
    _write_csv(path, w.sample_rate, w.t0, len(w), _slicer(w.samples))


def read_waveform_csv(path) -> tuple[np.ndarray, np.ndarray]:
    t, v = read_csv(path, _CSV_HEADER)
    return np.asarray([float(x) for x in t]), np.asarray([float(x) for x in v])


_BIN_HEADER = struct.Struct("<ddQ")


def _write_binary(path, rate: float, t0: float, n: int, pieces) -> None:
    """`write_waveform_binary` of the n samples that `pieces` yields as
    (start, samples) pieces, each written at its offset as it comes.  A
    non-finite sample raises ValueError; on any error the file is removed."""
    fh = open(path, "wb")
    try:
        with fh:
            fh.write(_BIN_HEADER.pack(rate, t0, n))
            for start, p in pieces:
                _check_finite(p)
                fh.seek(_BIN_HEADER.size + 8 * start)
                # a contiguous little-endian piece is written from its own buffer, uncopied
                fh.write(np.ascontiguousarray(p, dtype="<f8").data)
    except BaseException:
        os.remove(path)
        raise


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
        rate, t0, n = _BIN_HEADER.unpack(fh.read(_BIN_HEADER.size))
        data = np.frombuffer(fh.read(8 * n), dtype="<f8")
    if data.size != n:
        raise ValueError("truncated waveform file")
    return Waveform(rate, t0, data.copy())
