"""Time-domain synthesis and frequency-domain filtering of readout waveforms.

Records are uniformly sampled voltage traces.  Filtering through a network
response is circular FFT convolution with a sampled impulse response: long
records are processed by overlap-add segments whose wrapped tail makes the
segmented result identical to the single-block one.  Circular semantics mean
an exactly record-periodic gate waveform is suppressed at the steady-state
null depth with no turn-on transient.
"""

from __future__ import annotations

import math
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


@dataclass
class Waveform:
    """Uniformly sampled real voltage trace."""

    sample_rate: float  # Hz
    t0: float           # seconds
    samples: np.ndarray

    def __post_init__(self):
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        s = np.asarray(self.samples, dtype=np.float64)
        if s.ndim != 1:
            raise ValueError("samples must be one-dimensional")
        if not np.all(np.isfinite(s)):
            raise ValueError("samples must be finite")
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
        return float(np.sqrt(np.mean(self.samples ** 2))) if self.samples.size else 0.0

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
            raise ValueError("harmonic orders must be >= 2")
        if len(set(orders)) != len(orders):
            raise ValueError("harmonic orders must be distinct")

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

def synth_capacitive(spec: GateWaveSpec, duration: float, rate: float = DEFAULT_SAMPLE_RATE) -> Waveform:
    """Synthesize the periodic gate response over `duration` seconds."""
    if duration < 10.0 / spec.f_g:
        raise ValueError("duration must cover at least 10 gate periods")
    if rate <= 2.0 * spec.max_frequency:
        raise ValueError(
            f"sample rate {rate:.4g} below Nyquist for highest harmonic {spec.max_frequency:.4g}"
        )
    n = int(round(duration * rate))
    t = np.arange(n) / rate
    y = spec.fundamental_amp * np.sin(2.0 * np.pi * spec.f_g * t)
    for order, amp, phase in spec.harmonics:
        y += amp * np.sin(2.0 * np.pi * order * spec.f_g * t + phase)
    return Waveform(rate, 0.0, y)


def _gaussian(t: np.ndarray, spec: ImpulseSpec) -> np.ndarray:
    return spec.peak * np.exp(-4.0 * math.log(2.0) * ((t - spec.onset) / spec.fwhm) ** 2)


def synth_avalanche(spec: ImpulseSpec, rate: float = DEFAULT_SAMPLE_RATE,
                    duration: float | None = None) -> Waveform:
    """Gaussian impulse record; duration defaults to onset + 10 fwhm."""
    if spec.fwhm < 4.0 / rate:
        raise ValueError("unresolvable pulse: fwhm shorter than 4 sample intervals")
    if duration is None:
        duration = spec.onset + 10.0 * spec.fwhm
    n = max(16, int(round(duration * rate)))
    t = np.arange(n) / rate
    return Waveform(rate, 0.0, _gaussian(t, spec))


def add_impulses(w: Waveform, spec: ImpulseSpec, times) -> Waveform:
    """Add one Gaussian impulse (shape from `spec`) centered at each time."""
    if spec.fwhm < 4.0 / w.sample_rate:
        raise ValueError("unresolvable pulse: fwhm shorter than 4 sample intervals")
    y = w.samples.copy()
    n = y.size
    half = max(1, int(round(6.0 * spec.fwhm * w.sample_rate)))
    coeff = -4.0 * math.log(2.0) / spec.fwhm ** 2
    for tc in np.asarray(times, dtype=np.float64):
        c = (tc - w.t0) * w.sample_rate
        lo = max(0, int(c) - half)
        hi = min(n, int(c) + half + 1)
        if hi <= lo:
            continue
        t_rel = (np.arange(lo, hi) / w.sample_rate) + w.t0 - tc
        y[lo:hi] += spec.peak * np.exp(coeff * t_rel ** 2)
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


def _overlap_add_circular(x: np.ndarray, h: np.ndarray, block: int) -> np.ndarray:
    """Circular convolution of x with h via overlap-add and tail wrap."""
    n = x.size
    L = h.size
    nfft = _next_pow2(block + L - 1)
    hf = np.fft.rfft(h, nfft)
    y = np.zeros(n + L - 1)
    for start in range(0, n, block):
        seg = x[start:start + block]
        yk = np.fft.irfft(np.fft.rfft(seg, nfft) * hf, nfft)[: seg.size + L - 1]
        y[start:start + yk.size] += yk
    y[: L - 1] += y[n:]  # wrap the linear-convolution tail: circular semantics
    return y[:n]


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
    n = x.size
    if n == 0:
        return Waveform(w.sample_rate, w.t0, x)
    L = ir_length if ir_length is not None else min(DEFAULT_IR_LENGTH, _next_pow2(n))

    if n <= L and block_size is None:
        # Short record: multiply on its own bin grid, no intermediate FIR.
        bins = np.arange(n // 2 + 1) * (w.sample_rate / n)
        y = np.fft.irfft(np.fft.rfft(x) * _interp_response(resp, bins), n)
        return Waveform(w.sample_rate, w.t0, y)

    bins = np.arange(L // 2 + 1) * (w.sample_rate / L)
    h = np.fft.irfft(_interp_response(resp, bins), L)
    if block_size is not None:
        y = _overlap_add_circular(x, h, int(block_size))
    elif n <= _MAX_SINGLE_FFT:
        y = np.fft.irfft(np.fft.rfft(x) * np.fft.rfft(h, n), n)
    else:
        y = _overlap_add_circular(x, h, L)
    return Waveform(w.sample_rate, w.t0, y)


def add_noise(w: Waveform, rms: float, seed: int) -> Waveform:
    """Add white Gaussian noise from a counter-based (Philox) stream."""
    if rms < 0:
        raise ValueError("rms must be >= 0")
    if rms == 0:
        return Waveform(w.sample_rate, w.t0, w.samples)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed))))
    return Waveform(w.sample_rate, w.t0, w.samples + rng.normal(0.0, rms, w.samples.size))


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

_CSV_HEADER = ["time_s", "volts"]


def write_waveform_csv(path, w: Waveform) -> None:
    write_csv(path, _CSV_HEADER, [w.times(), w.samples])


def read_waveform_csv(path) -> tuple[np.ndarray, np.ndarray]:
    t, v = read_csv(path, _CSV_HEADER)
    return np.asarray([float(x) for x in t]), np.asarray([float(x) for x in v])


_BIN_HEADER = struct.Struct("<ddQ")


def write_waveform_binary(path, w: Waveform) -> None:
    with open(path, "wb") as fh:
        fh.write(_BIN_HEADER.pack(w.sample_rate, w.t0, len(w)))
        fh.write(w.samples.astype("<f8").tobytes())


def read_waveform_binary(path) -> Waveform:
    with open(path, "rb") as fh:
        rate, t0, n = _BIN_HEADER.unpack(fh.read(_BIN_HEADER.size))
        data = np.frombuffer(fh.read(8 * n), dtype="<f8")
    if data.size != n:
        raise ValueError("truncated waveform file")
    return Waveform(rate, t0, data.copy())
