"""`_io.write_csv` writes the bytes the standard library's CSV writer writes,
its floats the bytes of `repr`."""

import csv
import math
import struct
import sys
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from unicsim import _cells, _io, acquisition, apd, presets, waveform

FLOATS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e16, 1e-5, 0.1]),
    st.floats(allow_nan=True, allow_infinity=True))
INT64 = st.one_of(st.sampled_from([-(2 ** 63), 2 ** 63 - 1, 0, -1]), st.integers(-(2 ** 63), 2 ** 63 - 1))
TEXT = st.text(st.one_of(st.sampled_from([",", '"', "\r", "\n", " ", "é", "光"]),
                         st.characters(blacklist_categories=("Cs",))), max_size=6)
MIXED = st.one_of(st.none(), st.booleans(), FLOATS, FLOATS.map(np.float64), INT64, TEXT)


def _coded(n):
    return st.lists(TEXT, min_size=1, max_size=4).flatmap(lambda names: st.lists(
        st.integers(0, len(names) - 1), min_size=n, max_size=n).map(lambda codes: _io.Coded(names, codes)))


def _column(n):
    """A column of n cells: a float, integer or string array, a list, or
    coded text."""
    return st.one_of(
        _coded(n),
        st.lists(FLOATS, min_size=n, max_size=n).map(np.array),
        st.lists(st.floats(width=32), min_size=n, max_size=n).map(lambda c: np.array(c, dtype=np.float32)),
        st.lists(INT64, min_size=n, max_size=n).map(lambda c: np.array(c, dtype=np.int64)),
        st.lists(TEXT, min_size=n, max_size=n).map(lambda c: np.array(c, dtype=object)),
        st.lists(TEXT, min_size=n, max_size=n).map(lambda c: np.array(c, dtype=str)),
        st.lists(FLOATS, min_size=n, max_size=n),
        st.lists(TEXT, min_size=n, max_size=n),
        st.lists(MIXED, min_size=n, max_size=n),
    )


@st.composite
def tables(draw):
    n_cols = draw(st.integers(1, 4))
    n_rows = draw(st.integers(0, 12))
    header = draw(st.lists(TEXT, min_size=n_cols, max_size=n_cols))
    return header, [draw(_column(n_rows)) for _ in range(n_cols)]


def _reference(path, header, columns):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(zip(*[_row_cells(c) for c in columns]))


def _row_cells(column):
    if isinstance(column, _io.Coded):
        return [column.names[i] for i in column.codes]
    return column.tolist() if isinstance(column, np.ndarray) else column


@settings(derandomize=True, deadline=None, max_examples=250,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(table=tables(), rows_per_slice=st.sampled_from([None, 1, 5]))
def test_write_csv_matches_csv_writer(tmp_path, table, rows_per_slice):
    header, columns = table
    with mock.patch.object(_io, "_ROWS_PER_SLICE", rows_per_slice or _io._ROWS_PER_SLICE):
        _io.write_csv(tmp_path / "got.csv", header, columns)
    _reference(tmp_path / "want.csv", header, columns)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


@pytest.mark.parametrize("cells", [[""], [None], ["", "x"], ['a"b'], ["a\rb"]])
def test_write_csv_one_column_quotes_as_csv_writer(tmp_path, cells):
    _io.write_csv(tmp_path / "got.csv", ["h"], [cells])
    _reference(tmp_path / "want.csv", ["h"], [cells])
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_write_csv_rejects_columns_of_different_lengths(tmp_path):
    with pytest.raises(ValueError, match=r"columns differ in length: \[3, 1\]"):
        _io.write_csv(tmp_path / "short.csv", ["a", "b"], [[1, 2, 3], np.array([4.0])])
    assert not (tmp_path / "short.csv").exists()


def _ragged_second_block(path):
    with _io.csv_rows(path, ["a", "b"]) as append:
        append([np.arange(3), np.arange(3)])
        append([np.arange(3), np.arange(2)])


@pytest.mark.parametrize("write, error", [
    (lambda path: acquisition.write_timestamps_binary(path, ["x"]), ValueError),  # after the 8-byte header
    (_ragged_second_block, ValueError),  # after the header and 3 rows
    (lambda path: _io.write_json(path, {"a": object()}), TypeError),  # inside the object
], ids=["timestamps", "csv blocks", "json"])
def test_a_failed_write_leaves_no_file(tmp_path, write, error):
    path = tmp_path / "partial"
    with pytest.raises(error):
        write(path)
    assert not path.exists()


@pytest.mark.parametrize("content, read", [
    (struct.pack("<ddQ", 4e10, math.nan, 1) + struct.pack("<d", 0.0), waveform.read_waveform_binary),
    ("gate_index,time_s,kind,charge_c\r\n0,nan,photon,1e-15\r\n", apd.read_events_csv),
    ("gate_index,time_s,kind,charge_c\r\n0,1e-09,photon,nan\r\n", apd.read_events_csv),
], ids=["waveform t0", "event time", "event charge"])
def test_a_read_of_a_non_finite_value_raises(tmp_path, content, read):
    path = tmp_path / "file"
    if isinstance(content, str):
        path.write_text(content)
    else:
        path.write_bytes(content)
    with pytest.raises(ValueError, match="must be"):
        read(path)


@pytest.mark.parametrize("content, read, what", [
    (b"", waveform.read_waveform_binary, "waveform"),
    (b"\0\0\0", waveform.read_waveform_binary, "waveform"),
    (struct.pack("<ddQ", 4e10, 0.0, 2) + struct.pack("<d", 0.0), waveform.read_waveform_binary, "waveform"),
    (struct.pack("<ddQ", 4e10, 0.0, 1 << 61), waveform.read_waveform_binary, "waveform"),
    (b"", acquisition.read_timestamps_binary, "timestamp"),
    (b"\0\0\0", acquisition.read_timestamps_binary, "timestamp"),
    (struct.pack("<Qq", 2, 0) + b"\0\0\0", acquisition.read_timestamps_binary, "timestamp"),
    (struct.pack("<Q", 1 << 61), acquisition.read_timestamps_binary, "timestamp"),
], ids=["waveform empty", "waveform short header", "waveform short body", "waveform count 2**61",
        "timestamps empty", "timestamps short header", "timestamps short body", "timestamps count 2**61"])
def test_a_read_of_a_truncated_binary_file_raises(tmp_path, content, read, what):
    path = tmp_path / "file"
    path.write_bytes(content)
    with pytest.raises(ValueError, match=f"truncated {what} file"):
        read(path)


@pytest.mark.parametrize("content, read, what", [
    (struct.pack("<ddQ", 4e10, 0.0, 1) + struct.pack("<2d", 0.0, 1.0), waveform.read_waveform_binary, "waveform"),
    (struct.pack("<ddQ", 4e10, 0.0, 0) + b"\0", waveform.read_waveform_binary, "waveform"),
    (struct.pack("<Q2q", 1, 5, 6), acquisition.read_timestamps_binary, "timestamp"),
    (struct.pack("<Q", 0) + b"\0", acquisition.read_timestamps_binary, "timestamp"),
], ids=["waveform one sample too many", "waveform one byte after none",
        "timestamps one stamp too many", "timestamps one byte after none"])
def test_a_read_of_a_binary_file_with_trailing_bytes_raises(tmp_path, content, read, what):
    path = tmp_path / "file"
    path.write_bytes(content)
    with pytest.raises(ValueError, match=f"trailing bytes in {what} file"):
        read(path)


# ---------------------------------------------------------------------------
# Floats print as repr, integers as %d
# ---------------------------------------------------------------------------

def _lines(path) -> list:
    return path.read_bytes().split(b"\r\n")[1:-1]


def _assert_reprs(tmp_path, values):
    _io.write_csv(tmp_path / "got.csv", ["x"], [values])
    got = _lines(tmp_path / "got.csv")
    want = [repr(v).encode() for v in values.tolist()]
    bad = [(w, g) for w, g in zip(want, got) if w != g]
    assert len(got) == len(want) and not bad, bad[:5]


def test_float_cells_match_repr_on_random_bit_patterns(tmp_path):
    # every sign, exponent and significand, NaN payloads and subnormals included
    bits = np.random.default_rng(2020).integers(0, 2 ** 64, 1_000_000, dtype=np.uint64, endpoint=False)
    _assert_reprs(tmp_path, bits.view(np.float64))


def _edge_floats():
    powers_of_two = [math.ldexp(1.0, e) for e in range(-1074, 1024)]
    powers_of_ten = [float(f"1e{e}") for e in range(-324, 309)]
    edges = [0.0, 5e-324, 2.225073858507201e-308, 2.2250738585072014e-308, 1.7976931348623157e308,
             1e-4, 9.999999999999999e-05, 0.00010000000000000002, 1e-5, 1e15, 999999999999999.9,
             9999999999999998.0, 1e16, 1.0000000000000002e16, 1.5e16, 123456789012345.67,
             0.1, 0.2, 0.30000000000000004, 1 / 3, 2 / 3, 100.0, 123456.0, 1e22, 1e23,
             9007199254740993.0, 4.35, 2.675, math.pi, math.e, math.inf, math.nan]
    values = np.array(powers_of_two + powers_of_ten + edges)
    with np.errstate(over="ignore"):
        nearby = np.concatenate([np.nextafter(values, math.inf), np.nextafter(values, -math.inf)])
    values = np.concatenate([values, nearby])
    return np.concatenate([values, -values])


def test_float_cells_match_repr_on_edges(tmp_path):
    _assert_reprs(tmp_path, _edge_floats())


@pytest.mark.parametrize("rows_per_slice", [7, 1000])
def test_float_cells_match_repr_across_slices(tmp_path, rows_per_slice):
    values = _edge_floats()
    with mock.patch.object(_io, "_ROWS_PER_SLICE", rows_per_slice):
        _assert_reprs(tmp_path, values)


def test_threads_building_the_power_table_at_once_write_reprs(tmp_path, monkeypatch):
    # more writers than cores, each needing its own decades of the lazily built table
    monkeypatch.setattr(_cells, "_POWERS", _cells._PowerTable())
    columns = [np.float64(10.0) ** np.arange(-300 + 50 * i, -250 + 50 * i) * 1.2345 for i in range(12)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            futures = [pool.submit(_io.write_csv, tmp_path / f"{i}.csv", ["x"], [c]) for i, c in enumerate(columns)]
            for f in futures:
                f.result(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    for i, c in enumerate(columns):
        assert _lines(tmp_path / f"{i}.csv") == [repr(v).encode() for v in c.tolist()]
    assert 0 < _cells._POWERS.built.sum() < _cells._K_COUNT  # only the decades written


@pytest.mark.parametrize("dtype", [np.float32, np.float16])
def test_narrow_float_cells_match_repr_of_the_widened_value(tmp_path, dtype):
    width = np.dtype(dtype).itemsize * 8
    bits = np.random.default_rng(width).integers(0, 2 ** width, 200_000, dtype=f"uint{width}")
    _io.write_csv(tmp_path / "got.csv", ["x"], [bits.view(dtype)])
    assert _lines(tmp_path / "got.csv") == [repr(v).encode() for v in bits.view(dtype).tolist()]


@pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int32, np.uint32, np.int64, np.uint64])
def test_integer_cells_match_percent_d(tmp_path, dtype):
    info = np.iinfo(dtype)
    rng = np.random.default_rng(info.bits)
    extremes = [info.min, info.max, 0, 1] + [v for e in range(1, 20) for v in (10 ** e - 1, 10 ** e, -(10 ** e))]
    values = np.concatenate([np.array([v for v in extremes if info.min <= v <= info.max], dtype=dtype),
                             rng.integers(info.min, info.max, 100_000, dtype=dtype, endpoint=True)])
    _io.write_csv(tmp_path / "got.csv", ["x"], [values])
    assert _lines(tmp_path / "got.csv") == [b"%d" % v for v in values.tolist()]


# ---------------------------------------------------------------------------
# The earlier writer: one %-format string per file
# ---------------------------------------------------------------------------

def _percent_rows_writer(path, header, columns, rows_per_slice=1 << 12):
    """The writer the vectorised one replaced, kept as a byte reference: one
    `%r`/`%d`/`%s` row format per file, applied row by row."""
    def conversion(column):
        if isinstance(column, np.ndarray):
            if column.dtype.kind == "f" and column.dtype.itemsize <= 8:
                return "%r"
            if column.dtype.kind in "iu":
                return "%d"
        return "%s"

    conversions = [conversion(c) for c in columns]
    row = ",".join(conversions) + "\r\n"
    lone = len(columns) == 1
    with open(path, "w", newline="") as fh:
        fh.write(",".join(_io._texts(list(header), len(header) == 1)) + "\r\n")
        for start in range(0, len(columns[0]), rows_per_slice):
            parts = []
            for c, conv in zip(columns, conversions):
                part = c[start:start + rows_per_slice]
                part = part.tolist() if isinstance(part, np.ndarray) else list(part)
                parts.append(_io._texts(part, lone) if conv == "%s" else part)
            fh.write("".join(map(row.__mod__, zip(*parts))))


@pytest.mark.parametrize("rows_per_slice", [None, 999])
def test_events_csv_matches_percent_rows_writer_on_a_dense_carved_stream(tmp_path, rows_per_slice):
    # a click on about half the gates: every kind, and times and charges over
    # several decades of exponent notation
    det = presets.get_preset("apd1_minus30C")
    stream = apd.simulate(det, apd.SourceConfig(mode="cw_carved", laser_rate=det.f_g, mu=3.0), 200_000, 5)
    counts = stream.counts()
    assert len(stream) > 90_000 and counts["photon"] and counts["afterpulse"]
    with mock.patch.object(_io, "_ROWS_PER_SLICE", rows_per_slice or _io._ROWS_PER_SLICE):
        apd.write_events_csv(tmp_path / "got.csv", stream)
    kinds = np.asarray(apd.KIND_NAMES, dtype=object)[stream.kind]
    _percent_rows_writer(tmp_path / "want.csv", apd._EVENTS_HEADER,
                         [stream.gate_index, stream.time, kinds, stream.charge])
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_every_file_writer_matches_percent_rows_writer(tmp_path):
    """Spectrum, waveform, histogram and sweep columns: positional floats,
    negatives and integers."""
    rng = np.random.default_rng(8)
    t = np.arange(20_000) / 4e10
    tables = [
        ["freq_hz", "mag_db", "phase_rad", "group_delay_ns"],
        [np.linspace(1e8, 2.5e9, 20_000), -120 * rng.random(20_000), np.cumsum(-rng.random(20_000)),
         33.8 + rng.standard_normal(20_000)],
        ["time_s", "volts"], [t, 0.42 * np.sin(2 * np.pi * 1.25e9 * t)],
        ["bin_start_s", "counts"], [np.arange(10_000) * 1e-11, rng.integers(0, 5000, 10_000)],
        ["label", "eta_net", "p_a"], [["apd1_minus30C", "hot, wet"], np.array([0.212, 0.3]),
                                      np.array([0.0, 1e-3])],
    ]
    for i in range(0, len(tables), 2):
        header, columns = tables[i], tables[i + 1]
        _io.write_csv(tmp_path / "got.csv", header, columns)
        _percent_rows_writer(tmp_path / "want.csv", header, columns)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
