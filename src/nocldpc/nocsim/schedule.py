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

The emissions are one read-only int64 table, a row per (check, position)
in check order, built from the serving chains in whole-array passes.
Beside it, the schedule holds as tuples of ints what the cycle loops read per
check and per uid, so none derives those from the emissions again and none
reads a numpy scalar per flit.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from itertools import islice

import numpy as np

from ..codes.matrix import ParityCheckMatrix, serving_chains
from ..jsonfields import frozen_int64
from ..mapper import Mapping

# the columns of an emission row: position src_pos's updated value of
# variable var goes from check src_check to position dst_pos of check
# dst_check on PE dst_pe; network is 1 for a message between PEs, wrap is 1
# for the value consumed in the next iteration, and uid numbers the network
# emissions in injection order (-1 for a message that stays on its PE)
EMISSION_FIELDS = ("var", "src_check", "src_pos", "dst_check", "dst_pos", "dst_pe", "network",
                   "wrap", "uid")
VAR, SRC_CHECK, SRC_POS, DST_CHECK, DST_POS, DST_PE, NETWORK, WRAP, UID = range(len(EMISSION_FIELDS))


@dataclass(frozen=True, eq=False)
class InjectionSchedule:
    """The message plan of one iteration: every (check, position) sends one
    emission and is the target of exactly one.

    A schedule is immutable (read-only arrays and tuples of ints), so the
    stages that share one build cannot change what the next stage reads.
    Check m's emissions are the deg[m] rows of ``emissions`` from
    sum(deg[:m]) on, in position order.
    """

    p: int
    host: tuple[int, ...]  # PE of each check
    serve_pos: tuple[int, ...]  # serving position of each check on its PE
    order: tuple[tuple[int, ...], ...]  # per-PE serving order
    emissions: np.ndarray  # (E, 9) int64, columns EMISSION_FIELDS, a row per (check, position)
    network_flits: np.ndarray  # (U, 9) int64: the network emissions, in uid order
    deg: tuple[int, ...]  # per check: degree, its read time in cycles
    emit_net: tuple[tuple[int, ...], ...]  # per check: network uids in position order
    emit_local: tuple[tuple[int, ...], ...]  # per check: targets of its same-PE forwards
    n_inputs: tuple[int, ...]  # per check: inputs other than wrap values, read after landing
    src_pe: tuple[int, ...]  # per uid
    dst_check: tuple[int, ...]  # per uid
    wrap: tuple[int, ...]  # per uid: 1 for a wrap value, which no read waits for
    n_bypass: int = 0

    def __eq__(self, other):
        if not isinstance(other, InjectionSchedule):
            return NotImplemented
        pairs = [(getattr(self, f.name), getattr(other, f.name)) for f in dataclasses.fields(self)]
        return all(np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b for a, b in pairs)

    @property
    def n_checks(self) -> int:
        return len(self.deg)

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

    # chain entry t is an edge (check, position) of variable var[t]; its value
    # goes to entry nxt[t], the next one on the chain, wrapping to the head.
    # A degree-1 variable's only emission is a wrap onto its own slot.
    chain, pos, col_deg = serving_chains(h)
    deg = np.bincount(chain, minlength=m_checks)
    first = np.cumsum(deg) - deg  # each check's first row
    tail = np.cumsum(col_deg)
    var = np.repeat(np.arange(len(col_deg)), col_deg)
    nxt = np.arange(1, len(chain) + 1)
    wrap = nxt == tail[var]
    nxt[wrap] = (tail - col_deg)[var[wrap]]
    host_of = np.asarray(host, dtype=np.int64)
    dst = chain[nxt]
    network = host_of[chain] != host_of[dst]
    n_bypass = int(np.count_nonzero(~network & (nxt != np.arange(len(chain)))))
    table = np.empty((len(chain), len(EMISSION_FIELDS)), dtype=np.int64)
    at = first[chain] + pos  # each chain entry's row
    for col, values in ((VAR, var), (SRC_CHECK, chain), (SRC_POS, pos), (DST_CHECK, dst),
                        (DST_POS, pos[nxt]), (DST_PE, host_of[dst]), (NETWORK, network),
                        (WRAP, wrap)):
        table[at, col] = values

    # uid in injection order: PE, serving position, position.  A PE emits a
    # check's messages in position order as it serves its checks, so this
    # order is fixed by the schedule alone; the replay relies on it to
    # identify header-less flits.
    rank = np.empty(m_checks, dtype=np.int64)
    rank[[m for rows in mapping.order for m in rows]] = np.arange(m_checks)
    served = np.argsort(rank[table[:, SRC_CHECK]], kind="stable")
    net_rows = served[table[served, NETWORK] == 1]
    table[:, UID] = -1
    table[net_rows, UID] = np.arange(len(net_rows))
    emissions = frozen_int64(table, copy=False)
    flits = frozen_int64(table[net_rows], copy=False)

    net = table[:, NETWORK] == 1
    local = ~net & (table[:, WRAP] == 0)
    src_check = table[:, SRC_CHECK]
    sched = InjectionSchedule(
        p=mapping.p,
        host=tuple(host),
        serve_pos=tuple(serve_pos),
        order=tuple(map(tuple, mapping.order)),
        emissions=emissions,
        network_flits=flits,
        deg=tuple(deg.tolist()),
        emit_net=_per_check(table[net, UID], src_check[net], m_checks),
        emit_local=_per_check(table[local, DST_CHECK], src_check[local], m_checks),
        n_inputs=tuple(np.bincount(table[table[:, WRAP] == 0, DST_CHECK], minlength=m_checks).tolist()),
        src_pe=tuple(host_of[flits[:, SRC_CHECK]].tolist()),
        dst_check=tuple(flits[:, DST_CHECK].tolist()),
        wrap=tuple(flits[:, WRAP].tolist()),
        n_bypass=n_bypass,
    )
    _check_counts(sched, col_deg)
    return sched


def _per_check(values: np.ndarray, check: np.ndarray, m_checks: int) -> tuple[tuple[int, ...], ...]:
    """values, which are in check order, as one tuple per check."""
    it = iter(values.tolist())
    return tuple(tuple(islice(it, c)) for c in np.bincount(check, minlength=m_checks).tolist())


def _check_counts(sched: InjectionSchedule, col_deg: np.ndarray) -> None:
    want = int(col_deg[col_deg >= 2].sum())
    if sched.n_messages != want:
        raise AssertionError(
            f"schedule carries {sched.n_messages} messages, expected {want}"
        )
    e = sched.emissions
    deg = np.asarray(sched.deg, dtype=np.int64)
    first = np.cumsum(deg) - deg
    received = np.bincount(first[e[:, DST_CHECK]] + e[:, DST_POS], minlength=len(e))
    bad = np.flatnonzero(received != 1)
    if len(bad):
        m = int(e[bad[0], SRC_CHECK])
        counts = received[first[m]:first[m] + deg[m]].tolist()
        raise AssertionError(f"check {m}: its inputs are emission targets {counts} times")
