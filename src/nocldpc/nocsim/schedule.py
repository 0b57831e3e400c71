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


def build_schedule(h: ParityCheckMatrix, mapping: Mapping) -> InjectionSchedule:
    if not mapping.order:
        raise ValueError("mapping has no serving order; run serving_order first")
    m_checks = h.n_rows
    n_d = h.max_row_degree
    host = mapping.assignment.astype(np.int32)
    serve_pos = np.full(m_checks, -1, dtype=np.int32)
    for pe, rows in enumerate(mapping.order):
        rows = np.asarray(rows, dtype=np.intp)
        if (host[rows] != pe).any():
            raise ValueError(f"serving order of PE {pe} lists checks hosted elsewhere")
        serve_pos[rows] = np.arange(len(rows))
    if (serve_pos < 0).any():
        raise ValueError("serving order does not cover all checks")

    # every edge of H as (check, position, variable); one stable sort by
    # (variable, serving rank) lays out each variable's serving chain
    deg = np.array([len(row) for row in h.rows], dtype=np.int64)
    edge_row = np.repeat(np.arange(m_checks, dtype=np.int64), deg)
    edge_pos = np.arange(len(edge_row), dtype=np.int64) - np.repeat(np.cumsum(deg) - deg, deg)
    edge_col = np.concatenate(h.rows).astype(np.int64)
    chain_order = np.lexsort((serving_rank(h)[edge_row], edge_col))
    chain_rows = edge_row[chain_order].tolist()
    chain_pos = edge_pos[chain_order].tolist()
    col_deg = np.bincount(edge_col, minlength=h.n_cols)

    host_of = host.tolist()
    emissions: list[list[Emission]] = [[None] * d for d in deg.tolist()]  # by position
    input_src = [-1] * (m_checks * n_d)  # flat (check, position)
    input_pred = [-1] * (m_checks * n_d)
    first_slot: dict[int, tuple[int, int]] = {}
    n_bypass = 0

    end = 0
    for j, d in enumerate(col_deg.tolist()):
        if d == 0:
            continue
        head = end
        end += d
        first_slot[j] = (chain_rows[head], chain_pos[head])
        if d == 1:
            c, pos = chain_rows[head], chain_pos[head]
            input_src[c * n_d + pos] = SRC_SELF
            input_pred[c * n_d + pos] = c
            emissions[c][pos] = Emission(
                var=j, src_check=c, src_pos=pos, dst_check=c, dst_pos=pos,
                dst_pe=host_of[c], network=False, wrap=True,
            )
            continue
        for t in range(head, end):
            nxt = t + 1 if t + 1 < end else head
            src, sp = chain_rows[t], chain_pos[t]
            dst, dp = chain_rows[nxt], chain_pos[nxt]
            wrap = nxt == head
            network = host_of[src] != host_of[dst]
            emissions[src][sp] = Emission(
                var=j, src_check=src, src_pos=sp, dst_check=dst, dst_pos=dp,
                dst_pe=host_of[dst], network=network, wrap=wrap,
            )
            input_src[dst * n_d + dp] = (
                SRC_WRAP if wrap else (SRC_CHAIN if network else SRC_BYPASS)
            )
            input_pred[dst * n_d + dp] = src
            n_bypass += not network

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
        n_checks=m_checks,
        host=host,
        serve_pos=serve_pos,
        order=[list(rows) for rows in mapping.order],
        emissions=emissions,
        input_src=np.array(input_src, dtype=np.int8).reshape(m_checks, n_d),
        input_pred=np.array(input_pred, dtype=np.int32).reshape(m_checks, n_d),
        first_slot=first_slot,
        network_flits=network_flits,
        n_bypass=n_bypass,
    )
    _check_counts(sched, deg, col_deg)
    return sched


def _check_counts(sched: InjectionSchedule, deg: np.ndarray, col_deg: np.ndarray) -> None:
    want = int(col_deg[col_deg >= 2].sum())
    if sched.n_messages != want:
        raise AssertionError(
            f"schedule carries {sched.n_messages} messages, expected {want}"
        )
    in_row = np.arange(sched.input_src.shape[1]) < deg[:, None]
    filled = ((sched.input_src >= 0) & in_row).sum(axis=1)
    short = np.nonzero(filled != deg)[0]
    if len(short):
        m = int(short[0])
        raise AssertionError(f"check {m}: {filled[m]} of {deg[m]} inputs sourced")
