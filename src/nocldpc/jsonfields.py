"""Type checks and int-table codecs for the JSON files of the toolchain.

Mapping, trace and configuration-image loaders accept plain JSON integers
only: a float, a bool or a numeric string is malformed input, never coerced.
The trace and image tables are read into, and written from, int64 arrays in
whole-array passes; the text is the one json.dumps writes for the same rows
as lists of ints.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

_TEN_POWERS = 10 ** np.arange(20, dtype=np.uint64)
_BLOCK = 8192  # values per encoding pass; its int64 scratch arrays stay at 64 KiB


def all_ints(values) -> bool:
    """True iff every value is a plain int (JSON true/false and floats are not)."""
    return set(map(type, values)) <= {int}


def typed(obj: dict, key: str, kind: type = int):
    """obj[key], which must be exactly of the given type (an int is no bool)."""
    value = obj[key]
    if type(value) is not kind:
        raise ValueError(f"{key} must be of type {kind.__name__}, got {value!r}")
    return value


def int_list(values, key: str) -> list[int]:
    if not isinstance(values, list) or not all_ints(values):
        raise ValueError(f"{key} must be a list of integers")
    return values


def frozen_int64(values, copy: bool = True) -> np.ndarray:
    """values as a read-only int64 array: a view of a read-only array, so its
    writeable flag cannot be set back.  An array frozen so already is
    returned as it is; anything else is copied, unless copy is False, which
    freezes in place an int64 array that owns its data and that no one else
    holds."""
    if (isinstance(values, np.ndarray) and values.dtype == np.int64 and not values.flags.writeable
            and values.base is not None and not values.base.flags.writeable):
        return values
    base = np.array(values, dtype=np.int64, copy=copy or None)
    base.flags.writeable = False
    return base.view()


def int_table(rows, width: int, what: str) -> np.ndarray:
    """JSON records, each a list of width ints, as a read-only (R, width)
    int64 table.  A value outside int64 raises OverflowError."""
    if not isinstance(rows, list):
        raise ValueError(f"{what} records must be a list")
    if set(map(len, rows)) - {width}:
        raise ValueError(f"{what} records need {width} fields each")
    if not all_ints(chain.from_iterable(rows)):
        raise ValueError(f"{what} records must hold integers")
    table = np.fromiter(chain.from_iterable(rows), np.int64, len(rows) * width)
    table.flags.writeable = False  # so the reshaped view cannot be made writeable
    return table.reshape(len(rows), width)


def grouped_table(groups, width: int, what: str) -> list[np.ndarray]:
    """A list of record lists, one per node or PE, as views of one int_table."""
    if not isinstance(groups, list) or set(map(type, groups)) - {list}:
        raise ValueError(f"{what} records must be a list")
    table = int_table(list(chain.from_iterable(groups)), width, what)
    return np.split(table, np.cumsum(list(map(len, groups)))[:-1])


def object_json(members: dict[str, str], sep: str = ",", colon: str = ":") -> str:
    """json.dumps(obj, sort_keys=True) with separators (sep, colon), for an
    object whose member values are given as their JSON texts."""
    return "{" + sep.join(f'"{key}"{colon}{text}' for key, text in sorted(members.items())) + "}"


def rows_json(table: np.ndarray) -> tuple[str, np.ndarray]:
    """json.dumps(table.tolist(), separators=(",", ":")) without the outer
    brackets, for a 2-d int table: its rows "[a,b]" joined by ",", and the
    offset of each row's "[" in that text, plus one past the text and a
    trailing ","."""
    return rows_text(table, "[", (",",) * (table.shape[1] - 1), "]", ",")


def rows_text(table: np.ndarray, opener: str, seps: tuple[str, ...], closer: str,
              join: str) -> tuple[str, np.ndarray]:
    """Each row of a 2-d int table written as opener v0 seps[0] v1 ... closer,
    the rows joined by join, and the offset of each row's opener in that
    text, plus one past the text and a trailing join.

    Rows are written in blocks of about _BLOCK values, so that no scratch
    array outgrows the allocator's small-block pool.
    """
    r, w = table.shape
    k = len(join)
    if not table.size:
        row = opener + closer
        return join.join([row] * r), np.arange(r + 1) * (len(row) + k)
    step = max(1, _BLOCK // w)
    texts, offsets, at = [], [], 0
    for lo in range(0, r, step):
        text, row_at = _block_text(table[lo:lo + step], opener, seps, closer, join)
        texts.append(text)
        offsets.append(row_at[:-1] + at)
        at += len(text) + k
    offsets.append([at])
    return join.join(texts), np.concatenate(offsets)


def _block_text(table: np.ndarray, opener: str, seps: tuple[str, ...], closer: str,
                join: str) -> tuple[str, np.ndarray]:
    """rows_text of a non-empty table, in one block.

    The characters land in one buffer in whole-array passes.  Before each
    value comes the opener (the first value), closer join opener (the first
    of a later row) or its column's separator; each value's digit count sets
    its width, and the running sum of the widths its place.  One pass per
    decimal place, from the highest, writes that digit of every value.  A
    value with fewer digits writes it into its own prefix, which is written
    after the digits, or over a digit of an earlier value, whose own write
    of it comes in a later pass; the spare bytes before the text catch the
    first values' writes.
    """
    r, w = table.shape
    v = table.ravel()
    neg = v < 0
    signed = bool(neg.any())
    if signed:
        mag = np.where(neg, -(v + 1), v).astype(np.uint64) + neg  # |v|, -2**63 included
    else:
        mag = v.astype(np.uint64)
    places = len(str(int(mag.max())))
    width = np.ones(v.size, dtype=np.int64)  # digits, then the whole width
    for power in _TEN_POWERS[1:places]:
        width += mag >= power
    ndig = width.copy()
    head = closer + join + opener
    pre = np.empty((r, w), dtype=np.int64)
    pre[:] = [len(head), *map(len, seps)]
    pre = pre.ravel()
    pre[0] = len(opener)
    width += pre
    if signed:
        width += neg
    end = np.cumsum(width)
    size = int(end[-1]) + len(closer)
    buf = np.empty(places + size, dtype=np.uint8)
    text = buf[places:]
    digits = []
    ten = np.uint64(10)
    for _ in range(places):
        rest = mag // ten
        digits.append((mag - rest * ten).astype(np.uint8) + ord("0"))
        mag = rest
    last = end + (places - 1)  # each value's last digit, in buf
    for d in range(places - 1, -1, -1):
        buf[last - d] = digits[d]
    start = end - width
    for sep in set(seps):  # one pass per distinct separator, over its columns
        cols = [col for col, s in enumerate(seps, 1) if s == sep]
        _put(text, start.reshape(r, w)[:, cols].ravel(), sep)
    heads = start[w::w]  # before the first value of rows 1..r-1
    _put(text, heads, head)
    _put(text, np.zeros(1, dtype=np.int64), opener)
    if signed:
        text[end[neg] - ndig[neg] - 1] = ord("-")
    _put(text, np.full(1, size - len(closer)), closer)
    row_at = np.empty(r + 1, dtype=np.int64)
    row_at[0] = 0
    row_at[1:-1] = heads + len(closer) + len(join)
    row_at[-1] = size + len(join)
    return text.tobytes().decode("ascii"), row_at


def _put(text: np.ndarray, at: np.ndarray, chars: str) -> None:
    """Write chars at each offset of at."""
    for j, c in enumerate(chars.encode()):
        text[at + j] = c


def table_json(table: np.ndarray) -> str:
    """json.dumps(table.tolist()) with the compact separators, for a 1-d or
    2-d int table."""
    if table.ndim == 1:
        return rows_json(table.reshape(1, -1))[0]
    return "[" + rows_json(table)[0] + "]"


def grouped_json(groups) -> str:
    """json.dumps of a list of 2-d int tables of one width, each as its list
    of rows, with the compact separators."""
    body, row_at = rows_json(np.concatenate(groups))
    bounds = np.cumsum([0, *map(len, groups)]).tolist()
    at = row_at.tolist()
    parts = [f"[{body[at[a]:at[b] - 1]}]" if b > a else "[]" for a, b in zip(bounds, bounds[1:])]
    return "[" + ",".join(parts) + "]"
