"""Click extraction and time-resolved counting.

Converts filtered waveforms (or simulated event times) into discriminated
clicks, quantized timestamps, fold histograms and per-gate-class counting
probabilities.  Both the discriminator and the TDC apply non-paralyzable
dead time: an event inside the dead window is dropped and does not extend
the window.
"""

from __future__ import annotations

import math
import struct
from dataclasses import asdict, dataclass

import numpy as np

from ._io import read_csv, read_json, write_csv, write_json
from .waveform import Waveform

__all__ = [
    "DiscriminatorSpec",
    "TdcSpec",
    "AcquisitionConfig",
    "Histogram",
    "GateCounts",
    "discriminate",
    "tdc",
    "histogram",
    "classify",
    "count_rate",
    "write_histogram_csv",
    "read_histogram_csv",
    "write_timestamps_binary",
    "read_timestamps_binary",
    "write_gate_counts_json",
    "read_gate_counts_json",
]


@dataclass(frozen=True)
class DiscriminatorSpec:
    threshold: float        # volts
    dead_time: float = 0.0  # seconds, non-paralyzable
    mode: str = "rising-edge"

    def __post_init__(self):
        if self.dead_time < 0:
            raise ValueError("dead_time must be >= 0")
        if self.mode != "rising-edge":
            raise ValueError("only rising-edge discrimination is supported")


@dataclass(frozen=True)
class TdcSpec:
    resolution: float = 1e-12  # seconds per timestamp step
    dead_time: float = 2e-9    # seconds, non-paralyzable

    def __post_init__(self):
        if self.resolution <= 0:
            raise ValueError("resolution must be positive")
        if self.dead_time < 0:
            raise ValueError("dead_time must be >= 0")


@dataclass(frozen=True)
class AcquisitionConfig:
    """Acquisition chain settings shared by the experiment drivers."""

    tdc: TdcSpec = TdcSpec()
    discriminator: DiscriminatorSpec = DiscriminatorSpec(threshold=5e-6)
    gate_offset: float = 0.0  # calibrated readout delay subtracted before gate assignment

    def __post_init__(self):
        if not isinstance(self.tdc, TdcSpec) or not isinstance(self.discriminator, DiscriminatorSpec):
            raise TypeError("tdc/discriminator must be TdcSpec/DiscriminatorSpec")


@dataclass
class Histogram:
    bin_width: float   # seconds
    period: float      # seconds, fold period
    bins: np.ndarray   # int64 counts

    def __post_init__(self):
        self.bins = np.asarray(self.bins, dtype=np.int64)
        self.bins.flags.writeable = False

    @property
    def n_bins(self) -> int:
        return self.bins.size

    def bin_starts(self) -> np.ndarray:
        return np.arange(self.bins.size) * self.bin_width


@dataclass(frozen=True)
class GateCounts:
    n_gates_illuminated: int
    n_gates_non_illuminated: int
    clicks_illuminated: int
    clicks_non_illuminated: int
    p_i: float
    p_ni: float


_DEAD_TIME_SLICE = 1 << 16


def _apply_dead_time(times: np.ndarray, dead_time: float) -> np.ndarray:
    """Non-paralyzable dead time on a sorted time array."""
    if dead_time <= 0 or times.size == 0:
        return times
    if times.size == 1 or np.min(np.diff(times)) >= dead_time:
        return times
    kept = []
    next_ok = -math.inf
    # Slices bound the Python floats alive at once to _DEAD_TIME_SLICE.
    for start in range(0, times.size, _DEAD_TIME_SLICE):
        part = []
        for t in times[start:start + _DEAD_TIME_SLICE].tolist():
            if t >= next_ok:
                part.append(t)
                next_ok = t + dead_time
        kept.append(np.array(part, dtype=np.float64))
    return np.concatenate(kept)


def discriminate(w: Waveform, spec: DiscriminatorSpec) -> np.ndarray:
    """Click times at upward threshold crossings, sub-sample interpolated."""
    s = w.samples
    if s.size < 2:
        return np.empty(0)
    above = s >= spec.threshold
    idx = np.nonzero(above[1:] & ~above[:-1])[0] + 1
    if idx.size == 0:
        return np.empty(0)
    frac = (spec.threshold - s[idx - 1]) / (s[idx] - s[idx - 1])
    times = w.t0 + (idx - 1 + frac) / w.sample_rate
    return _apply_dead_time(times, spec.dead_time)


def tdc(clicks: np.ndarray, spec: TdcSpec) -> np.ndarray:
    """Quantize sorted click times to the TDC resolution, then apply dead time.

    Quantization is round-to-nearest with ties to even.
    """
    clicks = np.asarray(clicks, dtype=np.float64)
    if clicks.size and np.any(np.diff(clicks) < 0):
        raise ValueError("click times must be sorted")
    stamps = np.round(clicks / spec.resolution) * spec.resolution
    return _apply_dead_time(stamps, spec.dead_time)


def _fold_bins(period: float, bin_width: float) -> int:
    """Number of `bin_width` bins in one fold `period`; the width must divide it."""
    if period <= 0:
        raise ValueError("period must be positive")
    if bin_width <= 0:
        raise ValueError("bin_width must be positive")
    if bin_width > period:
        raise ValueError("bin_width must not exceed period")
    ratio = period / bin_width
    n_bins = round(ratio) if math.isfinite(ratio) else 0
    if n_bins < 1 or abs(n_bins * bin_width - period) > 1e-9 * period:
        raise ValueError("bin_width must divide period")
    return n_bins


def histogram(ts: np.ndarray, period: float, bin_width: float) -> Histogram:
    """Fold timestamps modulo `period` into bins of `bin_width`."""
    n_bins = _fold_bins(period, bin_width)
    ts = np.asarray(ts, dtype=np.float64)
    folded = np.mod(ts, period)
    idx = np.minimum((folded / bin_width).astype(np.int64), n_bins - 1)
    bins = np.bincount(idx, minlength=n_bins) if ts.size else np.zeros(n_bins, dtype=np.int64)
    return Histogram(bin_width=bin_width, period=period, bins=bins)


def classify(ts: np.ndarray, f_g: float, r: int, illuminated_index: int,
             n_gates: int, offset: float = 0.0) -> GateCounts:
    """Assign timestamps to gates and count clicks per gate class.

    Each timestamp maps to gate round((t - offset) * f_g); `offset` removes
    any calibrated readout-chain delay.  Gates congruent to
    illuminated_index (mod r) are illuminated.  At most one click counts per
    gate.
    """
    if r < 2:
        raise ValueError("r must be >= 2")
    if not 0 <= illuminated_index < r:
        raise ValueError("illuminated_index must lie in [0, r)")
    if n_gates < 1:
        raise ValueError("n_gates must be >= 1")
    ts = np.asarray(ts, dtype=np.float64)
    gates = np.rint((ts - offset) * f_g).astype(np.int64)
    if gates.size and (gates.min() < 0 or gates.max() >= n_gates):
        raise ValueError("timestamp maps outside [0, n_gates)")
    hit = np.unique(gates)
    ill = (hit % r) == illuminated_index
    clicks_ill = int(ill.sum())
    clicks_ni = int(hit.size - clicks_ill)
    n_ill = len(range(illuminated_index, n_gates, r))
    n_ni = n_gates - n_ill
    return GateCounts(
        n_gates_illuminated=n_ill,
        n_gates_non_illuminated=n_ni,
        clicks_illuminated=clicks_ill,
        clicks_non_illuminated=clicks_ni,
        p_i=clicks_ill / n_ill if n_ill else 0.0,
        p_ni=clicks_ni / n_ni if n_ni else 0.0,
    )


def count_rate(ts: np.ndarray, span: float) -> float:
    """Mean click rate over `span` seconds."""
    if span <= 0:
        raise ValueError("span must be positive")
    return len(ts) / span


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

_HISTOGRAM_HEADER = ["bin_start_s", "counts"]


def write_histogram_csv(path, hist: Histogram) -> None:
    write_csv(path, _HISTOGRAM_HEADER, [hist.bin_starts(), hist.bins])


def read_histogram_csv(path) -> tuple[np.ndarray, np.ndarray]:
    starts, counts = read_csv(path, _HISTOGRAM_HEADER)
    return np.asarray([float(x) for x in starts]), np.asarray([int(x) for x in counts], dtype=np.int64)


def write_timestamps_binary(path, ts: np.ndarray) -> None:
    """Little-endian u64 count then i64 picosecond timestamps."""
    ps = np.rint(np.asarray(ts, dtype=np.float64) * 1e12).astype("<i8")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<Q", ps.size))
        fh.write(ps.tobytes())


def read_timestamps_binary(path) -> np.ndarray:
    with open(path, "rb") as fh:
        (n,) = struct.unpack("<Q", fh.read(8))
        ps = np.frombuffer(fh.read(8 * n), dtype="<i8")
    if ps.size != n:
        raise ValueError("truncated timestamp file")
    return ps.astype(np.float64) * 1e-12


def write_gate_counts_json(path, gc: GateCounts) -> None:
    write_json(path, asdict(gc))


def read_gate_counts_json(path) -> GateCounts:
    return GateCounts(**read_json(path))
