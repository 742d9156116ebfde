"""CSV and JSON file IO shared by every module's file formats.

CSV files are written from columns, byte for byte as the standard library's
CSV writer with its default dialect writes them: ``\\r\\n`` line ends, and a
cell holding ``,``, ``"``, ``\\r`` or ``\\n`` wrapped in quotes with its
quotes doubled (minimal quoting).  JSON files are indented by two spaces and
end with a newline.  Every writer opens its file through `output`, so a
write that fails leaves no partial file.

The CSV writer lays out each slice of rows in numpy, with no Python call per
cell.  Every cell becomes a few fixed-width byte segments plus a mask of the
bytes it keeps (`_cells`); a slice's segments are joined into one row
matrix, and the kept bytes of that matrix, read in row order, are the
slice's text.

- An integer array prints its decimal digits, got by multiplying with magic
  constants and shifting (Granlund and Montgomery, PLDI 1994), never by
  ``//`` or ``%`` on ``uint64``; only the first four of twenty digits take
  an exact float64 division.
- A float array (float16 and float32 widened to float64, as ``.tolist()``
  widens them) prints as its shortest round-trip ``repr``.  The digits come
  from a port of Schubfach to ``uint64`` arrays (R. Giulietti, "The
  Schubfach way to render doubles", 2020): the decimal exponent is
  k = floor(q log10 2), and the three bounds of the rounding interval are
  scaled by g = floor(10^-k 2^(125 - floor(-k log2 10))) + 1 with
  round-to-odd 64x128-bit products built from 32-bit halves.  Of the two
  candidates one decade up, or else of s and s + 1, the one in the interval
  is kept, ties going to the nearer and then to the even one.  The digits
  are laid out as ``repr`` lays them out: positional for a decimal point
  in (-4, 16], else ``d.ddde±XX``, ``.0`` on integral values, ``-0.0``.
  Non-finite values, subnormals and exact powers of two (the irregular
  spacing Schubfach treats apart) take ``repr`` one element at a time.
- Any other column (lists, strings, objects) prints ``str`` of each cell
  (None as empty), quoted as above; each distinct text is encoded once.  A
  `Coded` column names its few distinct cells and each row's index into
  them, so no cell is looked at one by one.
"""

from __future__ import annotations

import contextlib
import csv
import json
import os

import numpy as np

# Rows laid out at once.  A slice's row matrix and its mask take about 200
# bytes a row, and each of its many uint64 temporaries 64 KB.  Past glibc's
# 128 KB mmap threshold the temporaries come and go as fresh mappings: at
# 32768 rows the events file of a 5e5-gate carved run took 14k page faults
# per write and 30% longer.
_ROWS_PER_SLICE = 1 << 13
_QUOTED = (",", '"', "\r", "\n")


def _cell(x, lone: bool) -> str:
    """One cell as the CSV writer prints it: None as empty, anything else as
    str, quoted if needed; `lone` for the only cell of a row, which is quoted
    when empty."""
    s = "" if x is None else str(x)
    if any(c in s for c in _QUOTED) or lone and not s:
        return '"' + s.replace('"', '""') + '"'
    return s


def _texts(cells: list, lone: bool) -> list:
    """`cells` as CSV text; plain strings pass unchanged."""
    if set(map(type, cells)) <= {str}:
        joined = "".join(cells)
        if not any(c in joined for c in _QUOTED) and not (lone and "" in cells):
            return cells
    return [_cell(x, lone) for x in cells]


@contextlib.contextmanager
def output(path, mode: str = "w", **kw):
    """The file `open(path, mode, **kw)`, removed again if the `with` block
    raises."""
    fh = open(path, mode, **kw)
    try:
        with fh:
            yield fh
    except BaseException:
        os.remove(path)
        raise


# ---------------------------------------------------------------------------
# Rows
# ---------------------------------------------------------------------------

class Coded:
    """A text column of few distinct cells, row i holding names[codes[i]]."""

    def __init__(self, names, codes):
        self.names, self.codes = list(names), np.asarray(codes)

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, rows) -> Coded:
        return Coded(self.names, self.codes[rows])


def _n_rows(path, columns) -> int:
    lengths = [len(c) for c in columns]
    if len(set(lengths)) > 1:
        raise ValueError(f"{path}: columns differ in length: {lengths}")
    return min(lengths)


def write_csv(path, header, columns) -> None:
    """Write `header`, then row i holding element i of every column; the
    columns must have one length."""
    with csv_rows(path, header) as append:
        append(columns)


@contextlib.contextmanager
def csv_rows(path, header):
    """`write_csv` of rows that arrive in blocks: the function this yields
    appends the rows of its columns (of one length) after the header, and
    the file holds the bytes that one `write_csv` of the joined columns
    writes."""
    with output(path, "w", newline="") as fh:
        out = fh.buffer  # the text layer only names the encoding
        out.write((",".join(_texts(list(header), len(header) == 1)) + "\r\n").encode(fh.encoding))

        def append(columns) -> None:
            # imported on first use: a process that writes no CSV file does not
            # compile the cell layout when bytecode is not cached
            from ._cells import chars, segments

            n_rows = _n_rows(path, columns)
            lone = len(columns) == 1
            for start in range(0, n_rows, _ROWS_PER_SLICE):
                m = min(_ROWS_PER_SLICE, n_rows - start)
                contents, keeps = [], []
                for i, column in enumerate(columns):
                    if i:
                        contents.append(np.broadcast_to(chars(","), (m, 1)))
                        keeps.append(np.ones((m, 1), dtype=bool))
                    content, keep = segments(column[start:start + m], lone, fh.encoding)
                    contents += content
                    keeps += keep
                contents.append(np.broadcast_to(chars("\r\n"), (m, 2)))
                keeps.append(np.ones((m, 2), dtype=bool))
                out.write(np.concatenate(contents, axis=1)[np.concatenate(keeps, axis=1)])

        yield append


def read_csv(path, header) -> list[list[str]]:
    """Columns of string cells, after checking the header row and that every
    row has one cell per header column."""
    with open(path, newline="") as fh:
        r = csv.reader(fh)
        got = next(r, None)
        if got != list(header):
            raise ValueError(f"unexpected CSV header in {path}: {got}, expected {list(header)}")
        rows = list(r)
    n = len(header)
    if any(map(n.__ne__, map(len, rows))):
        i = next(i for i, row in enumerate(rows) if len(row) != n)
        raise ValueError(f"{path}, row {i + 2}: expected {n} cells, got {len(rows[i])}")
    return [list(c) for c in zip(*rows)] if rows else [[] for _ in header]


def read_exact(fh, size: int, what: str) -> bytes:
    """The next `size` bytes of the binary file `fh`; ValueError if it ends
    first, told from the file's size before anything is read, so that a
    header's overstated count allocates nothing."""
    data = fh.read(size) if size <= os.fstat(fh.fileno()).st_size - fh.tell() else b""
    if len(data) != size:
        raise ValueError(f"truncated {what} file")
    return data


def read_values(fh, n: int, what: str) -> bytes:
    """The n 8-byte values that fill the rest of the binary file `fh`, as
    `read_exact` reads them; ValueError if bytes follow them."""
    if os.fstat(fh.fileno()).st_size - fh.tell() > 8 * n:
        raise ValueError(f"trailing bytes in {what} file")
    return read_exact(fh, 8 * n, what)


def write_json(path, obj) -> None:
    with output(path) as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def read_json(path):
    with open(path) as fh:
        return json.load(fh)
