"""`_io.write_csv` writes the bytes the standard library's CSV writer writes."""

import csv
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from unicsim import _io

FLOATS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e16, 1e-5, 0.1]),
    st.floats(allow_nan=True, allow_infinity=True))
INT64 = st.one_of(st.sampled_from([-(2 ** 63), 2 ** 63 - 1, 0, -1]), st.integers(-(2 ** 63), 2 ** 63 - 1))
TEXT = st.text(st.one_of(st.sampled_from([",", '"', "\r", "\n", " ", "é", "光"]),
                         st.characters(blacklist_categories=("Cs",))), max_size=6)
MIXED = st.one_of(st.none(), st.booleans(), FLOATS, FLOATS.map(np.float64), INT64, TEXT)


def _column(n):
    """A column of n cells: a float, integer or string array, or a list."""
    return st.one_of(
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
        w.writerows(zip(*[c.tolist() if isinstance(c, np.ndarray) else c for c in columns]))


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
