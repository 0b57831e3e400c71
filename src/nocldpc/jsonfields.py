"""Type checks for values read from the JSON files of the toolchain.

Mapping, trace and configuration-image loaders accept plain JSON integers
only: a float, a bool or a numeric string is malformed input, never coerced.
"""

from __future__ import annotations

from itertools import chain


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


def int_records(rows, width: int, what: str) -> tuple[tuple[int, ...], ...]:
    """JSON records as int tuples of the given width."""
    if not isinstance(rows, list):
        raise ValueError(f"{what} records must be a list")
    out = tuple(map(tuple, rows))
    if set(map(len, out)) - {width}:
        raise ValueError(f"{what} records need {width} fields each")
    if not all_ints(chain.from_iterable(out)):
        raise ValueError(f"{what} records must hold integers")
    return out
