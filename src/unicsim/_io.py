"""CSV and JSON file IO shared by every module's file formats.

CSV files are written by `csv.writer` (minimal quoting, ``\\r\\n`` line
ends) from columns; numpy columns go through ``.tolist()``, so floats print
as the shortest round-trip ``repr``.  JSON files are indented by two spaces
and end with a newline.
"""

from __future__ import annotations

import csv
import json

import numpy as np

# Rows converted to Python objects at once, so memory stays bounded.
_ROWS_PER_SLICE = 1 << 16


def write_csv(path, header, columns) -> None:
    """Write `header`, then row i holding element i of every column."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for start in range(0, len(columns[0]), _ROWS_PER_SLICE):
            parts = [c[start:start + _ROWS_PER_SLICE] for c in columns]
            w.writerows(zip(*[p.tolist() if isinstance(p, np.ndarray) else p for p in parts]))


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
