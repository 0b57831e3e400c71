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

from ..codes.matrix import ParityCheckMatrix, serving_chains
from ..mapper import Mapping


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
    """The message plan of one iteration: every (check, position) sends one
    emission and is the target of exactly one."""

    p: int
    host: list[int]  # PE of each check
    serve_pos: list[int]  # serving position of each check on its PE
    order: list[list[int]]  # per-PE serving order
    emissions: list[list[Emission]]  # per check, in position order
    network_flits: list[Emission]  # in uid order
    n_bypass: int = 0

    @property
    def n_checks(self) -> int:
        return len(self.emissions)

    @property
    def n_network(self) -> int:
        return len(self.network_flits)

    @property
    def n_messages(self) -> int:
        return self.n_network + self.n_bypass


def build_schedule(h: ParityCheckMatrix, mapping: Mapping) -> InjectionSchedule:
    if not mapping.order:
        raise ValueError("mapping has no serving order; run serving_order first")
    m_checks = h.n_rows
    host = mapping.assignment.tolist()
    if len(host) != m_checks:
        raise ValueError(f"mapping assigns {len(host)} checks, code has {m_checks}")
    serve_pos = [-1] * m_checks
    for pe, rows in enumerate(mapping.order):
        for k, m in enumerate(rows):
            if not 0 <= m < m_checks:
                raise ValueError(f"PE {pe} serves check {m}, outside 0..{m_checks - 1}")
            if serve_pos[m] >= 0:
                raise ValueError(f"serving order lists check {m} twice")
            if host[m] != pe:
                raise ValueError(f"PE {pe} serves check {m}, which is hosted on PE {host[m]}")
            serve_pos[m] = k
    if -1 in serve_pos:
        raise ValueError("serving order does not cover all checks")

    chain, pos, col_deg = serving_chains(h)
    chain_rows, chain_pos = chain.tolist(), pos.tolist()
    emissions: list[list[Emission]] = [[None] * len(row) for row in h.rows]  # by position
    n_bypass = 0
    end = 0
    for j, d in enumerate(col_deg.tolist()):
        head = end
        end += d
        # a degree-1 variable's only emission is a wrap onto its own slot
        for t in range(head, end):
            nxt = t + 1 if t + 1 < end else head
            src, sp = chain_rows[t], chain_pos[t]
            dst, dp = chain_rows[nxt], chain_pos[nxt]
            network = host[src] != host[dst]
            emissions[src][sp] = Emission(
                var=j, src_check=src, src_pos=sp, dst_check=dst, dst_pos=dp,
                dst_pe=host[dst], network=network, wrap=nxt == head,
            )
            n_bypass += not network and d > 1

    # uid in injection order: PE, serving position, position.  A PE emits a
    # check's messages in position order as it serves its checks, so this
    # order is fixed by the schedule alone; the replay relies on it to
    # identify header-less flits.
    network_flits = [
        e for rows in mapping.order for m in rows for e in emissions[m] if e.network
    ]
    for uid, e in enumerate(network_flits):
        e.uid = uid

    sched = InjectionSchedule(
        p=mapping.p,
        host=host,
        serve_pos=serve_pos,
        order=[list(rows) for rows in mapping.order],
        emissions=emissions,
        network_flits=network_flits,
        n_bypass=n_bypass,
    )
    _check_counts(sched, col_deg)
    return sched


def _check_counts(sched: InjectionSchedule, col_deg: np.ndarray) -> None:
    want = int(col_deg[col_deg >= 2].sum())
    if sched.n_messages != want:
        raise AssertionError(
            f"schedule carries {sched.n_messages} messages, expected {want}"
        )
    received = [[0] * len(ems) for ems in sched.emissions]
    for ems in sched.emissions:
        for e in ems:
            received[e.dst_check][e.dst_pos] += 1
    for m, counts in enumerate(received):
        if counts.count(1) != len(counts):
            raise AssertionError(f"check {m}: its inputs are emission targets {counts} times")
