"""Trace records produced by the cycle-accurate simulation.

A trace keeps its records as read-only int64 tables, one row per record:
the flits in uid order, and the routing operations and arrivals of each
node.  The canonical text is written from the tables in whole-array
passes (jsonfields), byte for byte what json.dumps writes for the same
records as lists.  The loader reads a canonical text back without
json.loads, parsing each table from its slice of the text, and keeps the
trace only if it passes the checks and writes the text back byte for byte;
any other text goes through json.loads and the type checks, which build
each table in one pass over the JSON rows.  None of this holds an object
per record, so the cyclic garbage collector has nothing in a trace to
track.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from ..jsonfields import (
    canonical,
    frozen_int64,
    grouped_json,
    grouped_table,
    int_list,
    int_table,
    member_spans,
    object_json,
    read_groups,
    read_list,
    read_table,
    table_json,
    typed,
)


FORMAT = "nocldpc-trace-v1"
_FORMAT_TEXT = json.dumps(FORMAT)
_KEYS = ("n", "seed", "pipeline_depth", "k_i", "rm_ops", "arrivals", "fifo_max", "flits",
         "check_start", "check_complete", "n_network", "n_bypass")


class SimulationDeadlock(RuntimeError):
    """No flit or PE made progress for a full watchdog window."""


class FlitRecord(NamedTuple):
    uid: int
    var: int
    src_check: int
    dst_check: int
    dst_pos: int
    src_pe: int
    dst_pe: int
    coin: int
    wrap: int  # 0/1, as the trace file stores it
    inject_cycle: int = -1
    receipt_cycle: int = -1
    hops: int = 0


class FlitTable(Sequence):
    """A trace's flits: row uid of a read-only (F, 12) int64 table whose
    columns are FlitRecord's fields.  Indexing and iteration give
    FlitRecords, made as they are read; column() gives a field of all."""

    __slots__ = ("table",)

    def __init__(self, table: np.ndarray):
        self.table = table

    def __len__(self) -> int:
        return len(self.table)

    def __getitem__(self, uid: int) -> FlitRecord:
        return FlitRecord._make(self.table[uid].tolist())

    def __iter__(self):
        return map(FlitRecord._make, zip(*self.table.T.tolist()))

    def column(self, name: str) -> np.ndarray:
        return self.table[:, FlitRecord._fields.index(name)]


_FLIT_FIELDS = len(FlitRecord._fields)
# an arrival row: the flit's fields in this order
ARRIVAL_FIELDS = ("dst_check", "dst_pos", "src_pe", "uid", "receipt_cycle")


@dataclass(frozen=True, eq=False)
class NocTrace:
    """Everything the configuration generator needs from one iteration.

    A trace is immutable: its tables are read-only int64 arrays, so its
    canonical JSON text and digest are computed at most once.
    """

    n: int
    seed: int
    pipeline_depth: int
    k_i: int
    rm_ops: tuple[np.ndarray, ...]  # per node: (ops, 3) rows (cycle, out_port, in_port)
    arrivals: tuple[np.ndarray, ...]
    # per PE: (arrivals, 5) rows (dst_check, dst_pos, src_pe, uid, receipt_cycle) in arrival order
    fifo_max: np.ndarray  # (P, 5) peak occupancy
    flits: FlitTable  # per uid
    check_start: np.ndarray  # (M,) first read cycle per check
    check_complete: np.ndarray  # (M,) emission-ready cycle per check
    n_network: int
    n_bypass: int
    label: str = ""

    def __post_init__(self):
        # every table becomes a read-only int64 array; arrays frozen so
        # already are kept as they are
        for name, width in (("rm_ops", 3), ("arrivals", 5)):
            object.__setattr__(self, name, _grouped(getattr(self, name), width))
        flits = self.flits.table if isinstance(self.flits, FlitTable) else self.flits
        object.__setattr__(self, "flits", FlitTable(_rows(flits, _FLIT_FIELDS)))
        for name in ("fifo_max", "check_start", "check_complete"):
            object.__setattr__(self, name, frozen_int64(getattr(self, name)))

    @property
    def p(self) -> int:
        return self.n * self.n

    def link_loads(self) -> np.ndarray:
        """Flits forwarded per (node, output port) over the iteration."""
        out = np.concatenate([ops[:, 1] for ops in self.rm_ops])
        if len(out) and not 0 <= out.min() <= out.max() < 5:
            raise ValueError("routing operation output port outside 0..4")
        node = np.repeat(np.arange(self.p), list(map(len, self.rm_ops)))
        return np.bincount(node * 5 + out, minlength=self.p * 5).reshape(self.p, 5)

    def max_hops(self) -> int:
        hops = self.flits.column("hops")
        return int(hops.max()) if len(hops) else 0

    def summary(self) -> dict:
        loads = self.link_loads()
        return {
            "label": self.label,
            "n": self.n,
            "p": self.p,
            "k_i": self.k_i,
            "seed": self.seed,
            "pipeline_depth": self.pipeline_depth,
            "network_messages": self.n_network,
            "bypass_messages": self.n_bypass,
            "fifo_max_overall": int(self.fifo_max.max()) if self.fifo_max.size else 0,
            "fifo_max_per_port": self.fifo_max.max(axis=0).tolist() if self.fifo_max.size else [],
            "max_link_load": int(loads.max()) if loads.size else 0,
            "max_hops": self.max_hops(),
            "k_i_lower_bound_link": int(loads.max()) if loads.size else 0,
            "k_i_lower_bound_distance": 2 * self.max_hops(),
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "NocTrace":
        """Rebuild a trace; a malformed object raises ValueError."""
        if not isinstance(obj, dict) or obj.get("format") != FORMAT:
            raise ValueError("not a nocldpc trace file")
        missing = [k for k in _KEYS if k not in obj]
        if missing:
            raise ValueError(f"trace file lacks {', '.join(missing)}")
        try:
            trace = cls(
                n=typed(obj, "n"),
                seed=typed(obj, "seed"),
                pipeline_depth=typed(obj, "pipeline_depth"),
                k_i=typed(obj, "k_i"),
                rm_ops=grouped_table(obj["rm_ops"], 3, "routing operation"),
                arrivals=grouped_table(obj["arrivals"], 5, "arrival"),
                fifo_max=int_table(obj["fifo_max"], 5, "FIFO peak"),
                flits=FlitTable(int_table(obj["flits"], _FLIT_FIELDS, "flit")),
                check_start=int_list(obj["check_start"], "check_start"),
                check_complete=int_list(obj["check_complete"], "check_complete"),
                n_network=typed(obj, "n_network"),
                n_bypass=typed(obj, "n_bypass"),
                label=typed(obj, "label", str) if "label" in obj else "",
            )
            trace._check()
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"malformed trace file: {exc}") from None
        return trace

    def _check(self) -> None:
        """The checks of a loaded trace beyond its JSON types."""
        n = self.n
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        for key in ("rm_ops", "arrivals", "fifo_max"):
            if len(getattr(self, key)) != n * n:
                raise ValueError(f"{key} must list one entry per node of the {n}x{n} torus")
        wrap = self.flits.column("wrap")
        if not ((wrap == 0) | (wrap == 1)).all():
            raise ValueError("flit wrap flags must be 0 or 1")
        for key in ("pipeline_depth", "k_i", "n_bypass"):
            if getattr(self, key) < 0:
                raise ValueError(f"{key} must be >= 0, got {getattr(self, key)}")
        if self.n_network != len(self.flits):
            raise ValueError(f"n_network is {self.n_network}, but the trace lists "
                             f"{len(self.flits)} flits")

    @cached_property
    def _canonical(self) -> str:
        """json.dumps of the trace's JSON object with sorted keys and the
        compact separators; the tables are written by jsonfields."""
        return object_json({
            "format": _FORMAT_TEXT,
            "n": json.dumps(self.n),
            "seed": json.dumps(self.seed),
            "pipeline_depth": json.dumps(self.pipeline_depth),
            "k_i": json.dumps(self.k_i),
            "label": json.dumps(self.label),
            "rm_ops": grouped_json(self.rm_ops),
            "arrivals": grouped_json(self.arrivals),
            "fifo_max": table_json(self.fifo_max),
            "flits": table_json(self.flits.table),
            "check_start": table_json(self.check_start),
            "check_complete": table_json(self.check_complete),
            "n_network": json.dumps(self.n_network),
            "n_bypass": json.dumps(self.n_bypass),
        })

    @cached_property
    def _digest(self) -> str:
        return hashlib.sha256(self._canonical.encode()).hexdigest()

    def to_json(self) -> str:
        return self._canonical

    @classmethod
    def from_json(cls, text: str) -> "NocTrace":
        """Rebuild a trace; a malformed text raises ValueError.  A canonical
        text (to_json's) is read without json.loads."""
        trace = canonical(_read_canonical, text)
        return trace if trace is not None else cls.from_json_obj(json.loads(text))

    def content_digest(self) -> str:
        return self._digest


def _rows(values, width: int) -> np.ndarray:
    """values as a read-only (R, width) int64 table."""
    return frozen_int64(values).reshape(-1, width)


def _grouped(groups, width: int) -> tuple[np.ndarray, ...]:
    """Per-node records as read-only (R, width) int64 tables."""
    return tuple(_rows(g, width) for g in groups)


def _read_canonical(text: str) -> NocTrace:
    """The trace that text, if canonical, holds; see jsonfields.canonical."""
    at = member_spans(text, (*_KEYS, "format", "label"))

    def value(key):
        return text[slice(*at[key])]

    label = json.loads(value("label"))
    if value("format") != _FORMAT_TEXT or type(label) is not str:
        raise ValueError("not a canonical trace text")
    trace = NocTrace(
        n=int(value("n")),
        seed=int(value("seed")),
        pipeline_depth=int(value("pipeline_depth")),
        k_i=int(value("k_i")),
        rm_ops=read_groups(text, *at["rm_ops"], 3),
        arrivals=read_groups(text, *at["arrivals"], 5),
        fifo_max=read_table(text, *at["fifo_max"], 5),
        flits=FlitTable(read_table(text, *at["flits"], _FLIT_FIELDS)),
        check_start=read_list(text, *at["check_start"]),
        check_complete=read_list(text, *at["check_complete"]),
        n_network=int(value("n_network")),
        n_bypass=int(value("n_bypass")),
        label=label,
    )
    trace._check()
    return trace
