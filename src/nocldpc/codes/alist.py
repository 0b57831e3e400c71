"""Reader for the MacKay alist sparse-matrix exchange format.

Layout: line 1 is ``N M``, line 2 the maximum column/row degrees, lines 3-4
the per-column and per-row degrees, then N column adjacency lines and M row
adjacency lines with 1-based indices.  Adjacency lines may be padded with
zeros up to the maximum degree (only after the declared degree is met).
"""

from __future__ import annotations

import numpy as np

from .matrix import ParityCheckMatrix, compute_layers


class AlistParseError(ValueError):
    """Malformed alist input; message carries the offending line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"alist line {line_no}: {message}")
        self.line_no = line_no


def _ints(line: str, line_no: int) -> list[int]:
    try:
        return [int(tok) for tok in line.split()]
    except ValueError:
        raise AlistParseError(line_no, f"non-integer token in {line.strip()!r}") from None


def _adjacency(line: str, line_no: int, degree: int, limit: int, kind: str) -> list[int]:
    values = _ints(line, line_no)
    if len(values) < degree:
        raise AlistParseError(line_no, f"expected {degree} {kind} indices, got {len(values)}")
    entries = values[:degree]
    for v in entries:
        if not 1 <= v <= limit:
            raise AlistParseError(line_no, f"{kind} index {v} out of range 1..{limit}")
    if any(v != 0 for v in values[degree:]):
        raise AlistParseError(line_no, f"nonzero padding beyond declared degree {degree}")
    return [v - 1 for v in entries]


def parse_alist(text: str, label: str = "") -> ParityCheckMatrix:
    """Parse alist text into a ParityCheckMatrix with first-fit layers."""
    lines = text.splitlines()
    pos = 0

    def next_line() -> tuple[str, int]:
        nonlocal pos
        while pos < len(lines):
            pos += 1
            if lines[pos - 1].strip():
                return lines[pos - 1], pos
        raise AlistParseError(len(lines), "unexpected end of file")

    line, no = next_line()
    header = _ints(line, no)
    if len(header) != 2:
        raise AlistParseError(no, "header must be 'N M'")
    n_cols, n_rows = header
    if n_cols < 1 or n_rows < 1:
        raise AlistParseError(no, f"bad dimensions N={n_cols} M={n_rows}")

    line, no = next_line()
    maxdeg = _ints(line, no)
    if len(maxdeg) != 2:
        raise AlistParseError(no, "expected 'max_col_degree max_row_degree'")
    max_col_deg, max_row_deg = maxdeg

    line, no = next_line()
    col_degs = _ints(line, no)
    if len(col_degs) != n_cols:
        raise AlistParseError(no, f"expected {n_cols} column degrees, got {len(col_degs)}")
    line, no = next_line()
    row_degs = _ints(line, no)
    if len(row_degs) != n_rows:
        raise AlistParseError(no, f"expected {n_rows} row degrees, got {len(row_degs)}")
    if col_degs and max(col_degs) > max_col_deg:
        raise AlistParseError(no, "column degree exceeds declared maximum")
    if row_degs and max(row_degs) > max_row_deg:
        raise AlistParseError(no, "row degree exceeds declared maximum")

    col_lists = []
    for j in range(n_cols):
        line, no = next_line()
        col_lists.append(_adjacency(line, no, col_degs[j], n_rows, "row"))

    rows: list[list[int]] = []
    for m in range(n_rows):
        line, no = next_line()
        rows.append(sorted(_adjacency(line, no, row_degs[m], n_cols, "column")))

    # Cross-check the two adjacency views.
    from_cols: list[list[int]] = [[] for _ in range(n_rows)]
    for j, rows_of_col in enumerate(col_lists):
        for m in rows_of_col:
            from_cols[m].append(j)
    for m in range(n_rows):
        if sorted(from_cols[m]) != rows[m]:
            raise AlistParseError(no, f"row {m + 1} adjacency disagrees with column lists")

    h = ParityCheckMatrix(
        n_cols=n_cols,
        n_rows=n_rows,
        rows=[np.asarray(r, dtype=np.int32) for r in rows],
        label=label,
    )
    h.validate()
    compute_layers(h)
    return h
