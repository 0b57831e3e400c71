"""Trace records produced by the cycle-accurate simulation."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np


FORMAT = "nocldpc-trace-v1"
_KEYS = ("n", "seed", "pipeline_depth", "k_i", "rm_ops", "arrivals", "fifo_max", "flits",
         "check_start", "check_complete", "n_network", "n_bypass")


class SimulationDeadlock(RuntimeError):
    """No flit or PE made progress for a full watchdog window."""


@dataclass
class FlitRecord:
    uid: int
    var: int
    src_check: int
    dst_check: int
    dst_pos: int
    src_pe: int
    dst_pe: int
    coin: int
    wrap: bool
    inject_cycle: int = -1
    receipt_cycle: int = -1
    hops: int = 0


@dataclass
class NocTrace:
    """Everything the configuration generator needs from one iteration."""

    n: int
    seed: int
    pipeline_depth: int
    k_i: int
    rm_ops: list[list[tuple[int, int, int]]]  # per node: (cycle, out_port, in_port)
    arrivals: list[list[tuple[int, int, int, int, int]]]
    # per PE: (dst_check, dst_pos, src_pe, uid, receipt_cycle) in arrival order
    fifo_max: np.ndarray  # (P, 5) peak occupancy
    flits: list[FlitRecord]
    check_start: np.ndarray  # (M,) first read cycle per check
    check_complete: np.ndarray  # (M,) emission-ready cycle per check
    n_network: int
    n_bypass: int
    label: str = ""

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
            "rm_ops": [
                [[int(cycle), int(out), int(inp)] for cycle, out, inp in ops] for ops in self.rm_ops
            ],
            "arrivals": [
                [[int(c), int(pos), int(src), int(uid), int(t)] for c, pos, src, uid, t in pe]
                for pe in self.arrivals
            ],
            "fifo_max": self.fifo_max.tolist(),
            "flits": [
                [f.uid, f.var, f.src_check, f.dst_check, f.dst_pos, f.src_pe,
                 f.dst_pe, f.coin, int(f.wrap), f.inject_cycle, f.receipt_cycle, f.hops]
                for f in self.flits
            ],
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
            n = int(obj["n"])
            trace = cls(
                n=n,
                seed=int(obj["seed"]),
                pipeline_depth=int(obj["pipeline_depth"]),
                k_i=int(obj["k_i"]),
                rm_ops=[_records(ops, 3, "routing operation")
                        for ops in _per_node(obj, "rm_ops", n)],
                arrivals=[_records(pe, 5, "arrival") for pe in _per_node(obj, "arrivals", n)],
                fifo_max=np.asarray(obj["fifo_max"], dtype=np.int64).reshape(n * n, 5),
                flits=[
                    FlitRecord(*f[:8], wrap=bool(f[8]), inject_cycle=f[9], receipt_cycle=f[10],
                               hops=f[11])
                    for f in _records(obj["flits"], 12, "flit")
                ],
                check_start=np.asarray(obj["check_start"], dtype=np.int64).reshape(-1),
                check_complete=np.asarray(obj["check_complete"], dtype=np.int64).reshape(-1),
                n_network=int(obj["n_network"]),
                n_bypass=int(obj["n_bypass"]),
                label=str(obj.get("label", "")),
            )
        except (TypeError, ValueError) as exc:
            raise ValueError(f"malformed trace file: {exc}") from None
        return trace

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "NocTrace":
        return cls.from_json_obj(json.loads(text))

    def content_digest(self) -> str:
        return hashlib.sha256(self.to_json().encode()).hexdigest()


def _per_node(obj: dict, key: str, n: int) -> list:
    rows = obj[key]
    if not isinstance(rows, list) or len(rows) != n * n:
        raise ValueError(f"{key} must list one entry per node of the {n}x{n} torus")
    return rows


def _records(rows, width: int, what: str) -> list[tuple]:
    """JSON records as int tuples of the given width."""
    if not isinstance(rows, list):
        raise ValueError(f"{what} records must be a list")
    out = [tuple(map(int, r)) for r in rows]
    if any(len(r) != width for r in out):
        raise ValueError(f"{what} records need {width} fields each")
    return out
