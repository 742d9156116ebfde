"""CSV and JSON file IO shared by every module's file formats.

CSV files are written from columns, one ``%``-format string per file, byte
for byte as the standard library's CSV writer with its default dialect
writes them: ``\\r\\n`` line ends, and a cell holding ``,``, ``"``, ``\\r``
or ``\\n`` wrapped in quotes with its quotes doubled (minimal quoting).
Float columns print as the shortest round-trip ``repr``.  JSON files are
indented by two spaces and end with a newline.
"""

from __future__ import annotations

import csv
import json

import numpy as np

# Rows formatted at once: each slice's text is held whole before it is
# written, so a small slice keeps memory flat at no cost in speed.
_ROWS_PER_SLICE = 1 << 12
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
    """`cells` as strings ready for ``%s``; plain strings pass unchanged."""
    if set(map(type, cells)) <= {str}:
        joined = "".join(cells)
        if not any(c in joined for c in _QUOTED) and not (lone and "" in cells):
            return cells
    return [_cell(x, lone) for x in cells]


def _conversion(column) -> str:
    """The ``%`` conversion of a column: ``%r`` for a float array, ``%d`` for
    an integer array, ``%s`` for anything else (its cells go through `_texts`)."""
    if isinstance(column, np.ndarray):
        if column.dtype.kind == "f" and column.dtype.itemsize <= 8:
            return "%r"
        if column.dtype.kind in "iu":
            return "%d"
    return "%s"


def write_csv(path, header, columns) -> None:
    """Write `header`, then row i holding element i of every column."""
    conversions = [_conversion(c) for c in columns]
    row = ",".join(conversions) + "\r\n"
    lone = len(columns) == 1
    with open(path, "w", newline="") as fh:
        fh.write(",".join(_texts(list(header), len(header) == 1)) + "\r\n")
        for start in range(0, len(columns[0]), _ROWS_PER_SLICE):
            parts = []
            for c, conv in zip(columns, conversions):
                part = c[start:start + _ROWS_PER_SLICE]
                part = part.tolist() if isinstance(part, np.ndarray) else list(part)
                parts.append(_texts(part, lone) if conv == "%s" else part)
            fh.write("".join(map(row.__mod__, zip(*parts))))


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


def write_json(path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def read_json(path):
    with open(path) as fh:
        return json.load(fh)
