"""Cycle-accurate simulation of one decoding iteration on the torus NoC.

Synchronous model, two cycles per hop (crossbar traversal, then link).  Each
cycle, in order: scheduled link/ejection deliveries land, finished checks
emit their messages, each PE injects at most one flit into its LOCAL queue,
PEs start reading a check once all its inputs are present, and every router
arbitrates each output port round-robin over the requesting input FIFOs.
FIFOs are unbounded during simulation; their peak occupancy sizes the
hardware queues afterwards.

Wrap messages (a variable's last check back to its first) are delivered
inside the window but consumed only in the next iteration, so the same
single-iteration program repeats unchanged; on iteration one the wrap slots
hold the received soft values instead.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from .schedule import SRC_BYPASS, SRC_CHAIN, InjectionSchedule
from .topology import Port, Topology, route_o1turn
from .trace import FlitRecord, NocTrace, SimulationDeadlock

HOP_CYCLES = 2  # one cycle through the crossbar, one on the link
LOCAL = int(Port.LOCAL)  # the PE-side port, as the int the cycle loops index with


def _mix64(a: int, b: int) -> int:
    """splitmix64-style hash; the per-flit routing coin must not depend on
    event order, only on (seed, uid)."""
    x = (a * 0x9E3779B97F4A7C15 + b) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


class _Flit:
    """A flit in flight: its record, its output ports as ints, the next hop."""

    __slots__ = ("rec", "route", "hop")

    def __init__(self, rec: FlitRecord, route: list[int]):
        self.rec = rec
        self.route = route
        self.hop = 0


def simulate_iteration(
    topo: Topology,
    schedule: InjectionSchedule,
    seed: int,
    pipeline_depth: int = 4,
    label: str = "",
) -> NocTrace:
    if schedule.p != topo.p:
        raise ValueError(f"schedule is for {schedule.p} PEs, topology has {topo.p}")
    p = topo.p
    n_checks = schedule.n_checks
    links = topo.links()
    host = schedule.host.tolist()

    # flits in uid order, with O1Turn routes fixed up front by the seeded coin
    flits: list[_Flit] = []
    for e in schedule.network_flits:
        src_pe = host[e.src_check]
        coin = _mix64(seed, e.uid) & 1
        rec = FlitRecord(
            uid=e.uid, var=e.var, src_check=e.src_check, dst_check=e.dst_check,
            dst_pos=e.dst_pos, src_pe=src_pe, dst_pe=e.dst_pe, coin=coin, wrap=e.wrap,
        )
        route = route_o1turn(src_pe, e.dst_pe, topo.n, coin)
        flits.append(_Flit(rec, [int(port) for port in route]))
    n_flits = len(flits)
    # per check: its network flits in position order, and the same-PE checks
    # its local forwards feed
    emit_flits = [[flits[e.uid] for e in ems if e.network] for ems in schedule.emissions]
    emit_local = [
        [e.dst_check for e in ems if not e.network and not e.wrap] for ems in schedule.emissions
    ]
    deg_of = [len(ems) for ems in schedule.emissions]

    fifos = [[deque() for _ in range(5)] for _ in range(p)]
    queued = [0] * p  # flits waiting in each router's input FIFOs
    fifo_max = [[0] * 5 for _ in range(p)]
    rr_ptr = [[0] * 5 for _ in range(p)]
    rm_ops: list[list[tuple[int, int, int]]] = [[] for _ in range(p)]
    arrivals: list[list[tuple[int, int, int, int, int]]] = [[] for _ in range(p)]

    # per-check availability: inputs other than wrap/self must arrive first
    src_kinds = schedule.input_src
    missing = ((src_kinds == SRC_CHAIN) | (src_kinds == SRC_BYPASS)).sum(axis=1).tolist()

    serve = schedule.order
    ptr = [0] * p
    read_free = [0] * p
    inj_queue: list[deque[_Flit]] = [deque() for _ in range(p)]

    # cycle -> (node, input port, flit); input port LOCAL marks an ejection
    deliveries: dict[int, list[tuple[int, int, _Flit]]] = {}
    completions: dict[int, list[int]] = {}
    check_start = [-1] * n_checks
    check_complete = [-1] * n_checks

    delivered = 0
    last_receipt = -1
    last_progress = 0
    watchdog = max(64, topo.n * topo.n + pipeline_depth + 16)
    pending_checks = sum(len(s) for s in serve)
    t = 0

    while True:
        progressed = False

        # 1. deliveries scheduled for this cycle
        landing = deliveries.pop(t, None)
        if landing:
            progressed = True
            for node, port, flit in landing:
                if port == LOCAL:  # ejection into the PE
                    delivered += 1
                    flit.rec.receipt_cycle = last_receipt = t
                    if not flit.rec.wrap:
                        missing[flit.rec.dst_check] -= 1
                else:
                    q = fifos[node][port]
                    q.append(flit)
                    queued[node] += 1
                    if len(q) > fifo_max[node][port]:
                        fifo_max[node][port] = len(q)

        # 2. checks leaving the pipeline emit their messages
        finished = completions.pop(t, None)
        if finished:
            progressed = True
            for m in finished:
                check_complete[m] = t
                inj_queue[host[m]].extend(emit_flits[m])
                for c in emit_local[m]:
                    missing[c] -= 1  # same-PE forward, available now

        # 3. injection: one flit per PE per cycle through the LOCAL port
        for pe in range(p):
            if inj_queue[pe]:
                f = inj_queue[pe].popleft()
                f.rec.inject_cycle = t
                q = fifos[pe][LOCAL]
                q.append(f)
                queued[pe] += 1
                if len(q) > fifo_max[pe][LOCAL]:
                    fifo_max[pe][LOCAL] = len(q)
                progressed = True

        # 4. PEs start reading the next served check when its block is full
        for pe in range(p):
            if ptr[pe] < len(serve[pe]) and read_free[pe] <= t:
                m = serve[pe][ptr[pe]]
                if missing[m] == 0:
                    check_start[m] = t
                    d = deg_of[m]
                    read_free[pe] = t + d
                    completions.setdefault(t + d + pipeline_depth, []).append(m)
                    ptr[pe] += 1
                    pending_checks -= 1
                    progressed = True

        # 5. arbitration: each output, in port order, picks one requesting
        # input round-robin; an input popped for one output may request a
        # later output with its next flit in the same cycle
        hop_done = []
        for node in range(p):
            if not queued[node]:
                continue
            nf = fifos[node]
            want = [q[0].route[q[0].hop] if q else -1 for q in nf]
            rr = rr_ptr[node]
            for out in range(5):
                if out not in want:
                    continue
                inp = rr[out]
                while want[inp] != out:
                    inp = inp + 1 if inp < 4 else 0
                q = nf[inp]
                flit = q.popleft()
                queued[node] -= 1
                want[inp] = q[0].route[q[0].hop] if q else -1
                rm_ops[node].append((t, out, inp))
                rr[out] = inp + 1 if inp < 4 else 0
                flit.hop += 1
                rec = flit.rec
                rec.hops += 1
                if out == LOCAL:
                    arrivals[node].append(
                        (rec.dst_check, rec.dst_pos, rec.src_pe, rec.uid, t + HOP_CYCLES)
                    )
                    hop_done.append((node, LOCAL, flit))
                else:
                    nbr, port = links[node][out]
                    hop_done.append((nbr, port, flit))
        if hop_done:
            deliveries[t + HOP_CYCLES] = hop_done
            progressed = True

        if progressed:
            last_progress = t

        done = (
            delivered == n_flits
            and pending_checks == 0
            and not completions
            and not deliveries
            and not any(inj_queue)
        )
        if done:
            break
        if t - last_progress > watchdog:
            stuck = [m for m in range(n_checks) if check_start[m] < 0]
            raise SimulationDeadlock(
                f"no progress since cycle {last_progress} (cycle {t}); "
                f"{n_flits - delivered} flits in flight, "
                f"{len(stuck)} checks not started (first: {stuck[:5]})"
            )
        t += 1

    k_i = last_receipt + 1 if last_receipt >= 0 else 0

    trace = NocTrace(
        n=topo.n,
        seed=seed,
        pipeline_depth=pipeline_depth,
        k_i=k_i,
        rm_ops=rm_ops,
        arrivals=arrivals,
        fifo_max=np.array(fifo_max, dtype=np.int64).reshape(p, 5),
        flits=[f.rec for f in flits],
        check_start=np.array(check_start, dtype=np.int64),
        check_complete=np.array(check_complete, dtype=np.int64),
        n_network=n_flits,
        n_bypass=schedule.n_bypass,
        label=label,
    )
    _assert_invariants(trace, schedule)
    return trace


def _assert_invariants(trace: NocTrace, schedule: InjectionSchedule) -> None:
    # conservation: everything injected arrives exactly once
    receipts = [f.receipt_cycle for f in trace.flits]
    if any(r < 0 for r in receipts):
        raise AssertionError("undelivered flit after drain")
    for pe, lst in enumerate(trace.arrivals):
        uids = [a[3] for a in lst]
        if len(uids) != len(set(uids)):
            raise AssertionError(f"duplicate arrival at PE {pe}")
    total_arrivals = sum(len(a) for a in trace.arrivals)
    if total_arrivals != trace.n_network:
        raise AssertionError("arrival count != injected flits")

    if trace.k_i:
        if trace.k_i < trace.link_loads().max():
            raise AssertionError("k_i below busiest-link lower bound")
        if trace.k_i < HOP_CYCLES * trace.max_hops():
            raise AssertionError("k_i below max-distance lower bound")

    # a wrap value must land only after its consumer's block was read out
    starts = trace.check_start.tolist()
    for f in trace.flits:
        if f.wrap and starts[f.dst_check] >= 0:
            read_end = starts[f.dst_check] + len(schedule.emissions[f.dst_check])
            if f.receipt_cycle <= read_end:
                raise AssertionError(
                    f"wrap flit {f.uid} overwrites check {f.dst_check} before its read"
                )
