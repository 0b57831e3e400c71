"""Trace records produced by the cycle-accurate simulation."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from ..jsonfields import int_list, int_records, typed


FORMAT = "nocldpc-trace-v1"
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


@dataclass(frozen=True)
class NocTrace:
    """Everything the configuration generator needs from one iteration.

    A trace is immutable: its records are tuples and its arrays read-only,
    so its canonical JSON text and digest are computed at most once.
    """

    n: int
    seed: int
    pipeline_depth: int
    k_i: int
    rm_ops: tuple[tuple[tuple[int, int, int], ...], ...]  # per node: (cycle, out_port, in_port)
    arrivals: tuple[tuple[tuple[int, int, int, int, int], ...], ...]
    # per PE: (dst_check, dst_pos, src_pe, uid, receipt_cycle) in arrival order
    fifo_max: np.ndarray  # (P, 5) peak occupancy
    flits: tuple[FlitRecord, ...]
    check_start: np.ndarray  # (M,) first read cycle per check
    check_complete: np.ndarray  # (M,) emission-ready cycle per check
    n_network: int
    n_bypass: int
    label: str = ""

    def __post_init__(self):
        # records arrive as tuples; freeze the containers and the arrays
        for name in ("rm_ops", "arrivals"):
            object.__setattr__(self, name, tuple(map(tuple, getattr(self, name))))
        object.__setattr__(self, "flits", tuple(self.flits))
        for name in ("fifo_max", "check_start", "check_complete"):
            object.__setattr__(self, name, frozen_int64(getattr(self, name)))

    @property
    def p(self) -> int:
        return self.n * self.n

    def link_loads(self) -> np.ndarray:
        """Flits forwarded per (node, output port) over the iteration."""
        loads = np.zeros((self.p, 5), dtype=np.int64)
        for node, ops in enumerate(self.rm_ops):
            loads[node] = np.bincount([op[1] for op in ops], minlength=5)
        return loads

    def max_hops(self) -> int:
        return max((f.hops for f in self.flits), default=0)

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

    def to_json_obj(self) -> dict:
        return {
            "format": FORMAT,
            "n": self.n,
            "seed": self.seed,
            "pipeline_depth": self.pipeline_depth,
            "k_i": self.k_i,
            "label": self.label,
            "rm_ops": self.rm_ops,
            "arrivals": self.arrivals,
            "fifo_max": self.fifo_max.tolist(),
            "flits": self.flits,
            "check_start": self.check_start.tolist(),
            "check_complete": self.check_complete.tolist(),
            "n_network": self.n_network,
            "n_bypass": self.n_bypass,
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
            n = typed(obj, "n")
            flits = int_records(obj["flits"], 12, "flit")
            if not {f[8] for f in flits} <= {0, 1}:
                raise ValueError("flit wrap flags must be 0 or 1")
            depth = typed(obj, "pipeline_depth")
            if depth < 0:
                raise ValueError(f"pipeline_depth must be >= 0, got {depth}")
            trace = cls(
                n=n,
                seed=typed(obj, "seed"),
                pipeline_depth=depth,
                k_i=typed(obj, "k_i"),
                rm_ops=[int_records(ops, 3, "routing operation")
                        for ops in _per_node(obj, "rm_ops", n)],
                arrivals=[int_records(pe, 5, "arrival") for pe in _per_node(obj, "arrivals", n)],
                fifo_max=int_records(_per_node(obj, "fifo_max", n), 5, "FIFO peak"),
                flits=map(FlitRecord._make, flits),
                check_start=int_list(obj["check_start"], "check_start"),
                check_complete=int_list(obj["check_complete"], "check_complete"),
                n_network=typed(obj, "n_network"),
                n_bypass=typed(obj, "n_bypass"),
                label=typed(obj, "label", str) if "label" in obj else "",
            )
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"malformed trace file: {exc}") from None
        return trace

    @cached_property
    def _canonical(self) -> str:
        # the object is a tree of tuples, ints and strings built here, which
        # cannot hold a cycle, so the encoder skips its cycle bookkeeping
        return json.dumps(self.to_json_obj(), sort_keys=True, separators=(",", ":"),
                          check_circular=False)

    @cached_property
    def _digest(self) -> str:
        return hashlib.sha256(self._canonical.encode()).hexdigest()

    def to_json(self) -> str:
        return self._canonical

    @classmethod
    def from_json(cls, text: str) -> "NocTrace":
        return cls.from_json_obj(json.loads(text))

    def content_digest(self) -> str:
        return self._digest


def frozen_int64(values) -> np.ndarray:
    """A read-only int64 copy of values.  It is a view of a private read-only
    array, so its writeable flag cannot be set back."""
    base = np.array(values, dtype=np.int64)
    base.flags.writeable = False
    return base.view()


def _per_node(obj: dict, key: str, n: int) -> list:
    rows = obj[key]
    if not isinstance(rows, list) or len(rows) != n * n:
        raise ValueError(f"{key} must list one entry per node of the {n}x{n} torus")
    return rows
