"""Message schedule derivation from a code and a mapping.

Layered decoding propagates each variable's running LLR along its serving
cycle: after check c_t updates variable j, the value moves to the variable's
next check c_(t+1), wrapping from the last check back to the first (that
wrap value is the one consumed in the following iteration).  Messages whose
source and destination checks share a PE never enter the network.

Every check therefore receives exactly its degree worth of values per
iteration: chain messages from predecessors plus, for a variable whose chain
starts at this check, the wrap value already sitting in memory (the received
soft value on iteration one).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..codes.matrix import ParityCheckMatrix, serving_rank
from ..mapper import Mapping

# how a check input slot gets its value each iteration
SRC_CHAIN = 0  # network flit from the predecessor check
SRC_BYPASS = 1  # same-PE predecessor, forwarded internally
SRC_WRAP = 2  # wrap value: written during the previous iteration
SRC_SELF = 3  # degree-1 variable, value never leaves the slot


@dataclass
class Emission:
    """One message out of a check: position p's updated value to its successor."""

    var: int
    src_check: int
    src_pos: int
    dst_check: int
    dst_pos: int
    dst_pe: int
    network: bool
    wrap: bool
    uid: int = -1  # set for network emissions only


@dataclass
class InjectionSchedule:
    p: int
    n_checks: int
    host: np.ndarray  # (M,) PE of each check
    serve_pos: np.ndarray  # (M,) serving position of each check on its PE
    order: list[list[int]]  # per-PE serving order
    emissions: list[list[Emission]]  # per check, in position order
    input_src: np.ndarray  # (M, N_d) source kind per (check, position)
    input_pred: np.ndarray  # (M, N_d) predecessor check (or -1)
    first_slot: dict[int, tuple[int, int]]  # var -> (check, position) of chain head
    network_flits: list[Emission]  # in uid order
    n_bypass: int = 0

    @property
    def n_network(self) -> int:
        return len(self.network_flits)

    @property
    def n_messages(self) -> int:
        return self.n_network + self.n_bypass

    def pe_injection_orders(self) -> list[list[Emission]]:
        """Per-PE network emissions in injection order.

        PEs process their checks in serving order and emit a check's
        messages in position order, so the injection order is fixed by the
        schedule alone; the replay relies on this to identify header-less
        flits.
        """
        out: list[list[Emission]] = [[] for _ in range(self.p)]
        for pe in range(self.p):
            for m in self.order[pe]:
                for e in self.emissions[m]:
                    if e.network:
                        out[pe].append(e)
        return out


def build_schedule(h: ParityCheckMatrix, mapping: Mapping) -> InjectionSchedule:
    if not mapping.order:
        raise ValueError("mapping has no serving order; run serving_order first")
    m_checks = h.n_rows
    n_d = h.max_row_degree
    host = mapping.assignment.astype(np.int32)
    serve_pos = np.full(m_checks, -1, dtype=np.int32)
    for pe, rows in enumerate(mapping.order):
        for pos, row in enumerate(rows):
            serve_pos[row] = pos
    if (serve_pos < 0).any():
        raise ValueError("serving order does not cover all checks")

    pos_of = [
        {int(j): p for p, j in enumerate(row)} for row in h.rows
    ]
    rank = serving_rank(h)

    emissions: list[list[Emission]] = [[] for _ in range(m_checks)]
    input_src = np.full((m_checks, n_d), -1, dtype=np.int8)
    input_pred = np.full((m_checks, n_d), -1, dtype=np.int32)
    first_slot: dict[int, tuple[int, int]] = {}
    network_flits: list[Emission] = []
    n_bypass = 0

    for j, rows in enumerate(h.cols()):
        if len(rows) == 0:
            continue
        chain = rows[np.argsort(rank[rows], kind="stable")]
        d = len(chain)
        head = int(chain[0])
        first_slot[j] = (head, pos_of[head][j])
        if d == 1:
            input_src[head, pos_of[head][j]] = SRC_SELF
            input_pred[head, pos_of[head][j]] = head
            e = Emission(
                var=j, src_check=head, src_pos=pos_of[head][j],
                dst_check=head, dst_pos=pos_of[head][j],
                dst_pe=int(host[head]), network=False, wrap=True,
            )
            emissions[head].append(e)
            continue
        for t in range(d):
            src = int(chain[t])
            dst = int(chain[(t + 1) % d])
            wrap = t == d - 1
            sp, dp = pos_of[src][j], pos_of[dst][j]
            network = host[src] != host[dst]
            e = Emission(
                var=j, src_check=src, src_pos=sp, dst_check=dst, dst_pos=dp,
                dst_pe=int(host[dst]), network=network, wrap=wrap,
            )
            emissions[src].append(e)
            input_src[dst, dp] = (
                SRC_WRAP if wrap else (SRC_CHAIN if network else SRC_BYPASS)
            )
            input_pred[dst, dp] = src
            if network:
                network_flits.append(e)
            else:
                n_bypass += 1

    for m in range(m_checks):
        emissions[m].sort(key=lambda e: e.src_pos)

    # uid in deterministic injection order: PE, serving position, position
    network_flits.sort(key=lambda e: (int(host[e.src_check]), int(serve_pos[e.src_check]), e.src_pos))
    for uid, e in enumerate(network_flits):
        e.uid = uid

    sched = InjectionSchedule(
        p=mapping.p,
        n_checks=m_checks,
        host=host,
        serve_pos=serve_pos,
        order=[list(rows) for rows in mapping.order],
        emissions=emissions,
        input_src=input_src,
        input_pred=input_pred,
        first_slot=first_slot,
        network_flits=network_flits,
        n_bypass=n_bypass,
    )
    _check_counts(sched, h)
    return sched


def _check_counts(sched: InjectionSchedule, h: ParityCheckMatrix) -> None:
    degs = np.array([len(c) for c in h.cols()])
    want = int(degs[degs >= 2].sum())
    if sched.n_messages != want:
        raise AssertionError(
            f"schedule carries {sched.n_messages} messages, expected {want}"
        )
    for m in range(h.n_rows):
        d = len(h.rows[m])
        filled = int((sched.input_src[m, :d] >= 0).sum())
        if filled != d:
            raise AssertionError(f"check {m}: {filled} of {d} inputs sourced")
