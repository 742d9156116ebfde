"""Click extraction and time-resolved counting.

Converts filtered waveforms (or simulated event times) into discriminated
clicks, quantized timestamps, fold histograms and per-gate-class counting
probabilities.  Both the discriminator and the TDC apply non-paralyzable
dead time: an event inside the dead window is dropped and does not extend
the window.
"""

from __future__ import annotations

import contextlib
import math
import struct
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING

import numpy as np

from ._io import output, read_csv, read_exact, read_json, read_values, write_csv, write_json
from ._schema import Positive, check_fields
from .apd import _distinct
from .config import AcquisitionConfig, DiscriminatorSpec, TdcSpec

if TYPE_CHECKING:
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


@dataclass
class Histogram:
    bin_width: Positive  # seconds
    period: Positive     # seconds, fold period
    bins: np.ndarray     # int64 counts

    def __post_init__(self):
        check_fields(self)
        self.bins = np.asarray(self.bins, dtype=np.int64).view()
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
    """Non-paralyzable dead time on a sorted time array.

    A click is kept when it is at or past `next_ok`, the window end of the
    last kept click.  The array is cut in slices of `_DEAD_TIME_SLICE`,
    which carry `next_ok` across.  In a slice, the first click and every
    click at or past the window end of the click before it are sure to be
    kept.  A kept click's successor is the first click at or past its
    window end, so the kept clicks are the paths from the sure clicks along
    successors; they are found by pointer doubling, each round following
    every path as far again as the last, so a slice takes log2 of its
    longest path between sure clicks in rounds.
    """
    if dead_time <= 0 or times.size == 0:
        return times
    kept = np.empty_like(times)  # filled from the front, then shrunk to the kept clicks
    n_kept = 0
    next_ok = -math.inf
    for start in range(0, times.size, _DEAD_TIME_SLICE):
        part = times[start:start + _DEAD_TIME_SLICE]
        part = part[np.searchsorted(part, next_ok):]
        if part.size == 0:
            continue
        keep = np.ones(part.size + 1, dtype=bool)  # the slice end, index part.size, counts as kept
        np.greater_equal(part[1:], part[:-1] + dead_time, out=keep[1:-1])
        busy = np.flatnonzero(~keep[1:])  # clicks whose next click falls in their window
        stop = part[busy] + dead_time
        succ = busy + 2
        clicks = np.append(part, np.inf)  # the slice end lies past every window
        for _ in range(2):  # most successors lie two or three clicks on: step there, search past
            succ += clicks[succ] < stop
        far = clicks[succ] < stop
        succ[far] = np.searchsorted(part, stop[far])
        jump = np.append(np.arange(1, part.size + 1), part.size)  # successors; the slice end maps to itself
        jump[busy] = succ
        reach = np.flatnonzero(keep[:-1] & ~keep[1:])  # the sure clicks that start a path
        while reach.size:
            nxt = jump[reach]
            new = ~keep[nxt]
            keep[nxt] = True
            reach = np.concatenate((reach[new], nxt[new]))  # a path that met a kept click is done
            jump = jump[jump]
        part = part[keep[:-1]]
        next_ok = part[-1] + dead_time
        kept[n_kept:n_kept + part.size] = part
        n_kept += part.size
    kept.resize(n_kept, refcheck=False)
    return kept


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
    clicks = np.array(clicks, dtype=np.float64)  # a copy, quantized in place
    if clicks.size and np.any(np.diff(clicks) < 0):
        raise ValueError("click times must be sorted")
    return _block_tdc(spec)(clicks)


def _block_tdc(spec: TdcSpec):
    """`tdc` of a stream that arrives in blocks: call the returned function on
    each block of sorted float64 click times, in order, to get that block's
    kept stamps.  The block is quantized in place: its array then holds the
    stamps.

    The dead-time window end (the last kept stamp plus the dead time) carries
    from one block to the next, and a block's stamps before it are dropped.
    """
    next_ok = -math.inf

    def block(stamps: np.ndarray) -> np.ndarray:
        nonlocal next_ok
        stamps /= spec.resolution
        np.round(stamps, out=stamps)
        stamps *= spec.resolution
        kept = _apply_dead_time(stamps[np.searchsorted(stamps, next_ok):], spec.dead_time)
        if kept.size:
            next_ok = kept[-1] + spec.dead_time
        return kept

    return block


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
    gate, and a timestamp that maps outside [0, n_gates) counts for none.
    """
    tally = _GateTally(f_g, r, illuminated_index, n_gates, offset)
    tally.add(ts)
    return tally.counts()


class _GateTally:
    """`classify` of a stamp stream that arrives in blocks: `add` each block
    in order, then take `counts`.  Sorted stamps map to nondecreasing gates,
    so a gate hit at the end of one block and at the start of the next is
    the last hit gate, carried across, and counts once; a single block may
    be unsorted."""

    def __init__(self, f_g: float, r: int, illuminated_index: int, n_gates: int, offset: float = 0.0):
        if r < 2:
            raise ValueError("r must be >= 2")
        if not 0 <= illuminated_index < r:
            raise ValueError("illuminated_index must lie in [0, r)")
        if n_gates < 1:
            raise ValueError("n_gates must be >= 1")
        self.f_g, self.r, self.offset = f_g, r, offset
        self.illuminated_index, self.n_gates = illuminated_index, n_gates
        self.last = -1  # the last hit gate
        self.clicks = self.clicks_ill = 0

    def add(self, ts: np.ndarray) -> None:
        gates = np.rint((np.asarray(ts, dtype=np.float64) - self.offset) * self.f_g).astype(np.int64)
        hit = _distinct(gates)
        hit = hit[(hit > self.last) & (hit < self.n_gates)]  # self.last >= -1: no negative gate is kept
        if hit.size:
            self.last = int(hit[-1])
        self.clicks += hit.size
        self.clicks_ill += int(np.count_nonzero(hit % self.r == self.illuminated_index))

    def counts(self) -> GateCounts:
        n_ill = len(range(self.illuminated_index, self.n_gates, self.r))
        n_ni = self.n_gates - n_ill
        clicks_ni = self.clicks - self.clicks_ill
        return GateCounts(n_gates_illuminated=n_ill, n_gates_non_illuminated=n_ni,
                          clicks_illuminated=self.clicks_ill, clicks_non_illuminated=clicks_ni,
                          p_i=self.clicks_ill / n_ill if n_ill else 0.0, p_ni=clicks_ni / n_ni if n_ni else 0.0)


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
    with _timestamps_writer(path) as append:
        append(ts)


@contextlib.contextmanager
def _timestamps_writer(path):
    """A function that appends stamps to the timestamps file `path`; the
    count goes into its header when the `with` block ends."""
    with output(path, "wb") as fh:
        fh.write(struct.pack("<Q", 0))
        n = 0

        def append(ts: np.ndarray) -> None:
            nonlocal n
            ps = np.asarray(ts, dtype=np.float64) * 1e12
            np.rint(ps, out=ps)
            fh.write(ps.astype("<i8").data)
            n += ps.size

        yield append
        fh.seek(0)
        fh.write(struct.pack("<Q", n))


def read_timestamps_binary(path) -> np.ndarray:
    with open(path, "rb") as fh:
        (n,) = struct.unpack("<Q", read_exact(fh, 8, "timestamp"))
        ps = np.frombuffer(read_values(fh, n, "timestamp"), dtype="<i8")
    return ps.astype(np.float64) * 1e-12


def write_gate_counts_json(path, gc: GateCounts) -> None:
    write_json(path, asdict(gc))


def read_gate_counts_json(path) -> GateCounts:
    return GateCounts(**read_json(path))
