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

Beside the emissions, the schedule holds as tuples of ints what later stages
read per check and per uid, so none derives those from the emissions again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..codes.matrix import ParityCheckMatrix, serving_chains
from ..mapper import Mapping


class Emission(NamedTuple):
    """One message out of a check: position p's updated value to its successor.

    uid numbers the network emissions in injection order; it is -1 for a
    message that stays on its PE.
    """

    var: int
    src_check: int
    src_pos: int
    dst_check: int
    dst_pos: int
    dst_pe: int
    network: bool
    wrap: bool
    uid: int


@dataclass(frozen=True)
class InjectionSchedule:
    """The message plan of one iteration: every (check, position) sends one
    emission and is the target of exactly one.

    A schedule is immutable (tuples of tuples), so the stages that share
    one build cannot change what the next stage reads.
    """

    p: int
    host: tuple[int, ...]  # PE of each check
    serve_pos: tuple[int, ...]  # serving position of each check on its PE
    order: tuple[tuple[int, ...], ...]  # per-PE serving order
    emissions: tuple[tuple[Emission, ...], ...]  # per check, in position order
    network_flits: tuple[Emission, ...]  # in uid order
    deg: tuple[int, ...]  # per check: degree, its read time in cycles
    emit_net: tuple[tuple[int, ...], ...]  # per check: network uids in position order
    emit_local: tuple[tuple[int, ...], ...]  # per check: targets of its same-PE forwards
    n_inputs: tuple[int, ...]  # per check: inputs other than wrap values, read after landing
    src_pe: tuple[int, ...]  # per uid
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
    """The message plan of h under mapping.

    The mapping keeps the last plan built from it, keyed by the content
    digests of h and of the mapping, so the stages that are handed the same
    (h, mapping) after the caller built it, gen_config and validate_config,
    reuse that build.  A changed code, layer order, assignment or serving
    order never matches the key and gets a fresh build.
    """
    return _schedule_for(h, mapping, (h.content_digest(), mapping.content_digest()))


def _schedule_for(h: ParityCheckMatrix, mapping: Mapping, key: tuple[str, str]) -> InjectionSchedule:
    """build_schedule, for a caller that has already hashed the code and the
    mapping: key is (h.content_digest(), mapping.content_digest()).
    gen_config and validate_config record or compare those digests too, so
    each hashes both once."""
    if mapping._schedule is not None and mapping._schedule[0] == key:
        return mapping._schedule[1]
    sched = _build_schedule(h, mapping)
    mapping._schedule = (key, sched)
    return sched


def _build_schedule(h: ParityCheckMatrix, mapping: Mapping) -> InjectionSchedule:
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

    # per (check, position): the variable, the next (check, position) on its
    # chain and whether that step wraps
    chain, pos, col_deg = serving_chains(h)
    chain_rows, chain_pos = chain.tolist(), pos.tolist()
    successor: list[list] = [[None] * len(row) for row in h.rows]
    end = 0
    for j, d in enumerate(col_deg.tolist()):
        head = end
        end += d
        # a degree-1 variable's only emission is a wrap onto its own slot
        for t in range(head, end):
            nxt = t + 1 if t + 1 < end else head
            successor[chain_rows[t]][chain_pos[t]] = (j, chain_rows[nxt], chain_pos[nxt], nxt == head)

    # uid in injection order: PE, serving position, position.  A PE emits a
    # check's messages in position order as it serves its checks, so this
    # order is fixed by the schedule alone; the replay relies on it to
    # identify header-less flits.
    emissions: list[tuple[Emission, ...]] = [()] * m_checks
    emit_net, emit_local, n_inputs = [()] * m_checks, [()] * m_checks, [0] * m_checks
    network_flits: list[Emission] = []
    src_pe: list[int] = []  # per uid
    n_bypass = 0
    for rows in mapping.order:
        for src in rows:
            ems, net, local = [], [], []
            for sp, (j, dst, dp, wrap) in enumerate(successor[src]):
                network = host[src] != host[dst]
                uid = len(network_flits) if network else -1
                e = Emission._make((j, src, sp, dst, dp, host[dst], network, wrap, uid))
                if network:
                    network_flits.append(e)
                    src_pe.append(host[src])
                    net.append(uid)
                else:
                    n_bypass += (dst, dp) != (src, sp)
                    if not wrap:
                        local.append(dst)
                n_inputs[dst] += not wrap
                ems.append(e)
            emissions[src] = tuple(ems)
            emit_net[src], emit_local[src] = tuple(net), tuple(local)

    sched = InjectionSchedule(
        p=mapping.p,
        host=tuple(host),
        serve_pos=tuple(serve_pos),
        order=tuple(map(tuple, mapping.order)),
        emissions=tuple(emissions),
        network_flits=tuple(network_flits),
        deg=tuple(map(len, successor)),
        emit_net=tuple(emit_net),
        emit_local=tuple(emit_local),
        n_inputs=tuple(n_inputs),
        src_pe=tuple(src_pe),
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
