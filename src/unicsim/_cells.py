"""Byte layout of CSV cells in numpy, for `_io.write_csv`.

Each column slice becomes lists of content segments and of masks of the
bytes they keep (see `_io` for the digit algorithms and the `repr` layout).
"""

from __future__ import annotations

import functools
import threading

import numpy as np

from ._io import Coded, _texts

_U64 = np.uint64
_LO32 = _U64(0xFFFFFFFF)
_LO63 = _U64((1 << 63) - 1)
_K_MIN = -324  # k = floor(q log10 2) over the normal exponents q in [-1074, 971]
_K_COUNT = 617


def chars(text: str) -> np.ndarray:
    return np.frombuffer(text.encode("ascii"), dtype=np.uint8)


# ---------------------------------------------------------------------------
# Decimal digits
# ---------------------------------------------------------------------------

def _halves(a) -> tuple:
    return a & _LO32, a >> _U64(32)


def _mulhi(a: tuple, b: tuple) -> np.ndarray:
    """High 64 bits of the 128-bit products of uint64s given as their
    (low, high) 32-bit halves."""
    (a0, a1), (b0, b1) = a, b
    mid = a0 * b0
    mid >>= _U64(32)
    x = a0 * b1
    y = a1 * b0
    hi = a1 * b1
    part = x & _LO32
    mid += part
    np.bitwise_and(y, _LO32, out=part)
    mid += part
    mid >>= _U64(32)
    x >>= _U64(32)
    y >>= _U64(32)
    hi += x
    hi += y
    hi += mid
    return hi


_BY_1E8 = _halves(_U64(0xABCC77118461CEFD))  # floor(x / 10**8) = mulhi(x, this) >> 26, any uint64
_POW10 = np.array([10 ** i for i in range(1, 20)], dtype=_U64)


def _eight_digits(x: np.ndarray) -> np.ndarray:
    """The eight ASCII digits of each x < 10**8 (int64), packed into one
    int64 each, first digit in the lowest byte: two 4-digit lanes are split
    into four 2-digit lanes and those into eight digits, each step one
    multiply-shift on the whole word."""
    top = x * 0xD1B71759 >> 45  # floor(x / 10**4)
    w = x - top * 10000
    w <<= 32
    w |= top
    t = w * 10486 >> 20  # floor(lane / 100) in both 32-bit lanes
    t &= 0x0000007F0000007F
    w -= t * 100
    w <<= 16
    w |= t
    t = w * 103 >> 10  # floor(lane / 10) in all four 16-bit lanes
    t &= 0x000F000F000F000F
    w -= t * 10
    w <<= 8
    w |= t
    w |= 0x3030303030303030
    return w


def _digits(x: np.ndarray, width: int) -> np.ndarray:
    """The last `width` (at most 20) decimal digits of each uint64,
    zero-padded, as (n, width) ASCII."""
    hi = _mulhi(_halves(x), _BY_1E8) >> _U64(26)  # floor(x / 10**8)
    top = (hi.astype(np.float64) / 1e8).astype(np.int64)  # exact: hi < 2**38
    words = np.empty((x.size, 3), dtype=np.int64)
    words[:, 0] = _eight_digits(top)
    words[:, 1] = _eight_digits(hi.view(np.int64) - top * 10 ** 8)
    words[:, 2] = _eight_digits((x - hi * _U64(10 ** 8)).view(np.int64))
    return words.astype("<i8", copy=False).view(np.uint8)[:, 24 - width:]


def _int_cell(x: np.ndarray):
    """Content and kept bytes of an integer slice: a sign and its digits."""
    if x.dtype == np.uint64:
        neg, mag = np.zeros(x.size, dtype=bool), x
    else:
        x = x.astype(np.int64, copy=False)
        neg = x < 0
        mag = x.view(_U64).copy()
        np.negative(mag, out=mag, where=neg)  # wraps, so -2**63 becomes 2**63
    length = np.searchsorted(_POW10, mag, side="right") + 1
    width = int(length.max())
    contents, keeps = [_digits(mag, width)], [np.arange(width) >= (width - length)[:, None]]
    if neg.any():
        contents.insert(0, np.broadcast_to(chars("-"), (x.size, 1)))
        keeps.insert(0, neg[:, None])
    return contents, keeps


# ---------------------------------------------------------------------------
# Float digits (Schubfach)
# ---------------------------------------------------------------------------

class _PowerTable:
    """g = floor(10^-k 2^(125 - floor(-k log2 10))) + 1 for each decimal
    exponent k, as two 63-bit words g1 2^63 + g0, built only for the k a
    column needs; a lookup returns g1 and the 32-bit halves of g1 and g0."""

    def __init__(self):
        self.words = np.zeros((5, _K_COUNT), dtype=_U64)  # g1, its halves, g0's halves
        self.built = np.zeros(_K_COUNT, dtype=bool)
        self.lock = threading.Lock()  # files may be written from several threads

    def __call__(self, k: np.ndarray):
        i = k - _K_MIN
        need = np.zeros(_K_COUNT, dtype=bool)
        need[i] = True
        with self.lock:
            for j in np.flatnonzero(need & ~self.built).tolist():
                e = -(j + _K_MIN)
                r = 125 - (e * 913124641741 >> 38)  # 125 - floor(e log2 10)
                g = (10 ** max(e, 0) << max(r, 0)) // (10 ** max(-e, 0) << max(-r, 0)) + 1
                g1, g0 = g >> 63, g & ((1 << 63) - 1)
                self.words[:, j] = g1, g1 & 0xFFFFFFFF, g1 >> 32, g0 & 0xFFFFFFFF, g0 >> 32
            self.built |= need
            g1, *halves = np.take(self.words, i, axis=1)
        return g1, tuple(halves[:2]), tuple(halves[2:])


_POWERS = _PowerTable()


def _round_to_odd(g: tuple, cp: np.ndarray) -> np.ndarray:
    """floor(g cp / 2^127) with its lowest bit set when the rest is not zero,
    for g = g1 2^63 + g0."""
    g1, g1_halves, g0_halves = g
    c = _halves(cp)
    z = g1 * cp
    z >>= _U64(1)
    z += _mulhi(g0_halves, c)
    v = _mulhi(g1_halves, c)
    v += z >> _U64(63)
    z &= _LO63
    z += _LO63
    z >>= _U64(63)
    v |= z
    return v


_TENTH = _halves(_U64(0x19999999999999A0))  # floor(s / 10) = mulhi(s, this) for s < 2**60


def _shortest(body: np.ndarray):
    """(d, k) with d 10^k the shortest decimal that rounds to each positive
    normal float64 `body` whose significand bits are not all zero."""
    c = body & _U64((1 << 52) - 1)
    c |= _U64(1 << 52)
    q = (body >> _U64(52)).view(np.int64) - 1075
    k = q * 661971961083 >> 41  # floor(q log10 2)
    h = -k * 913124641741 >> 38  # floor(-k log2 10)
    h += q + 2
    h = h.view(_U64)
    g = _POWERS(k)
    odd = c & _U64(1)
    cb = c << _U64(2)
    vb = _round_to_odd(g, cb << h)
    vbl = _round_to_odd(g, cb - _U64(2) << h)
    vbl += odd
    vbr = _round_to_odd(g, cb + _U64(2) << h)
    vbr -= odd
    s = vb >> _U64(2)
    sp10 = _mulhi(_halves(s), _TENTH)
    sp10 *= _U64(10)
    # one decade up: keep whichever of sp10 and sp10 + 10 lies in the interval
    up_in = vbl <= sp10 << _U64(2)
    up_out = (sp10 + _U64(10) << _U64(2)) > vbr
    # else s or s + 1: the one in the interval, or the nearer, or the even one
    s4 = s << _U64(2)
    s_in = vbl <= s4
    t_in = s4 + _U64(4) <= vbr
    s4 |= _U64(2)  # 4 (s + 1/2), the midpoint
    take_s = np.where(s_in != t_in, s_in, (vb < s4) | (vb == s4) & (s & _U64(1) == 0))
    s += ~take_s
    return np.where(up_in == up_out, sp10 + _U64(10) * ~up_in, s), k


# ---------------------------------------------------------------------------
# Float layout
# ---------------------------------------------------------------------------

# A float cell's segments, in order.  The two digit segments each hold all
# 17 digits, each keeping the ones on its side of the decimal point.
_FLOAT_SEGMENTS = ("-", "0.000", None, ".", None, "000000000000000.0")
_FLOAT_WIDTHS = [17 if s is None else len(s) for s in _FLOAT_SEGMENTS]
_EXPO = 20  # point code of exponent notation; positional points -3..16 are 0..19


@functools.cache
def _float_keep() -> np.ndarray:
    """The kept bytes of a float cell's segments for each key
    (point code * 17 + digits - 1) * 2 + sign; one more row, all False, for
    cells printed by `repr`."""
    code, n, neg = (a.ravel()[:, None] for a in np.indices((21, 17, 2)))
    n = n + 1
    expo = code == _EXPO
    p = code - 3  # the decimal point: value = 0.d1d2... 10^p
    first = np.where(expo, 1, np.where(p <= 0, n, np.minimum(p, n)))  # digits before the dot
    i = np.arange(17)
    keep = np.concatenate([
        neg == 1,
        ~expo & (p <= 0) & (np.arange(5) < 2 - p),
        i < first,
        expo & (n > 1) | ~expo & (p > 0) & (p < n),
        (i >= first) & (i < n),
        ~expo & (p >= n) & ((i < p - n) | (i >= 15)),
    ], axis=1)
    return np.concatenate([keep, np.zeros((1, keep.shape[1]), dtype=bool)])


@functools.cache
def _exponents() -> tuple:
    """'e+XXX' text of every decimal exponent -324..308, and its kept bytes
    (two digits at least); one more row, all False, for positional cells."""
    text = np.frombuffer("".join(f"e{e:+04d}" for e in range(-324, 309)).encode("ascii"),
                         dtype=np.uint8).reshape(-1, 5)
    keep = np.ones(text.shape, dtype=bool)
    keep[:, 2] = np.abs(np.arange(-324, 309)) >= 100
    return np.concatenate([text, text[:1]]), np.concatenate([keep, np.zeros((1, 5), dtype=bool)])


def _float_cell(x: np.ndarray, encoding: str):
    """Content and kept bytes of a float64 slice, each cell its `repr`."""
    m = x.size
    bits = x.view(_U64)
    neg = (bits >> _U64(63)).view(np.int64)
    body = bits & _LO63
    regular = (body - _U64(1 << 52) < _U64(0x7FE << 52)) & (bits & _U64((1 << 52) - 1) != 0)
    zero = body == 0
    d, k = _shortest(np.where(regular, body, _U64(0x3FF8 << 48)))  # 1.5 stands in for the rest
    short = d < _U64(10 ** 16)  # 16 digits: scaled to 17, so digit 1 is the first column
    np.multiply(d, _U64(10), out=d, where=short)
    d[zero] = 0
    digits = _digits(d, 17)
    n = np.where(zero, 1, 17 - np.argmax(digits[:, ::-1] != ord("0"), axis=1))
    p = np.where(zero, 1, k + 17 - short)  # the decimal point
    expo = (p <= -4) | (p > 16)
    key = (np.where(expo, _EXPO, p + 3) * 17 + n - 1) * 2 + neg
    fallback = ~(regular | zero)
    key[fallback] = len(_float_keep()) - 1

    needed = [neg.any(), (~expo & (p <= 0)).any(), True, True, True, (~expo & (p >= n)).any()]
    contents, cols, start = [], [], 0
    for want, seg, width in zip(needed, _FLOAT_SEGMENTS, _FLOAT_WIDTHS):
        if want:
            contents.append(digits if seg is None else np.broadcast_to(chars(seg), (m, width)))
            cols.append(np.arange(start, start + width))
        start += width
    keeps = [np.take(_float_keep()[:, np.concatenate(cols)], key, axis=0)]
    if expo.any():
        text, keep = _exponents()
        e = np.where(expo & ~fallback, p - 1 + 324, len(text) - 1)
        contents.append(np.take(text, e, axis=0))
        keeps.append(np.take(keep, e, axis=0))
    if fallback.any():
        content, keep = _encoded([repr(v) if f else "" for v, f in zip(x.tolist(), fallback.tolist())],
                                 encoding)
        contents.append(content)
        keeps.append(keep)
    return contents, keeps


# ---------------------------------------------------------------------------
# Text cells and column slices
# ---------------------------------------------------------------------------

def _table(texts: list, encoding: str) -> tuple:
    """Content and kept bytes of text cells, one row per text."""
    blobs = [t.encode(encoding) for t in texts]
    width = max(map(len, blobs), default=0)
    table = np.zeros((len(blobs), width), dtype=np.uint8)
    for row, blob in zip(table, blobs):
        row[:len(blob)] = np.frombuffer(blob, dtype=np.uint8)
    return table, np.arange(width) < np.array([len(b) for b in blobs])[:, None]


def _encoded(texts: list, encoding: str) -> tuple:
    """Content and kept bytes of text cells, each distinct text encoded once."""
    distinct = {t: i for i, t in enumerate(dict.fromkeys(texts))}
    codes = np.fromiter(map(distinct.__getitem__, texts), dtype=np.intp, count=len(texts))
    return tuple(np.take(a, codes, axis=0) for a in _table(list(distinct), encoding))


def segments(part, lone: bool, encoding: str) -> tuple:
    """Lists of content and kept-byte segments of one column's slice."""
    if isinstance(part, Coded):
        return tuple([np.take(a, part.codes, axis=0)] for a in _table(_texts(part.names, lone), encoding))
    if isinstance(part, np.ndarray):
        if part.dtype.kind == "f" and part.dtype.itemsize <= 8:
            with np.errstate(invalid="ignore"):  # a signalling NaN widens quietly, as in .tolist()
                part = np.ascontiguousarray(part, dtype=np.float64)
            return _float_cell(part, encoding)
        if part.dtype.kind in "iu":
            return _int_cell(part)
        part = part.tolist()
    content, keep = _encoded(_texts(list(part), lone), encoding)
    return [content], [keep]


