"""Cycle-accurate simulation of one decoding iteration on the torus NoC.

The timing model lives in engine.CycleEngine.  The simulator drives it
until the iteration drains, and every cycle each router arbitrates each
output port round-robin over the requesting input FIFOs.  The decisions
become the trace's routing operations, from which the routing memories
are built.

Wrap messages (a variable's last check back to its first) are delivered
inside the window but consumed only in the next iteration, so the same
single-iteration program repeats unchanged; on iteration one the wrap slots
hold the received soft values instead.
"""

from __future__ import annotations

import numpy as np

from .engine import HOP_CYCLES, LOCAL, CycleEngine
from .schedule import InjectionSchedule
from .topology import Topology, route_o1turn
from .trace import FlitRecord, NocTrace, SimulationDeadlock


def _coins(seed: int, n: int) -> list[int]:
    """The O1Turn coin of uids 0..n-1: the low bit of a splitmix64-style
    hash of (seed, uid), so that a flit's coin does not depend on event
    order.  uint64 array arithmetic wraps modulo 2**64, as the hash does."""
    x = np.arange(n, dtype=np.uint64)
    x += np.uint64(seed * 0x9E3779B97F4A7C15 & 0xFFFFFFFFFFFFFFFF)
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return (x & np.uint64(1)).tolist()


def simulate_iteration(
    topo: Topology,
    schedule: InjectionSchedule,
    seed: int,
    pipeline_depth: int = 4,
    label: str = "",
) -> NocTrace:
    if schedule.p != topo.p:
        raise ValueError(f"schedule is for {schedule.p} PEs, topology has {topo.p}")
    if pipeline_depth < 0:
        raise ValueError(f"PE pipeline depth must be >= 0, got {pipeline_depth}")
    p = topo.p
    links = topo.links()

    # per uid: source PE, the seeded O1Turn coin, the route's output ports
    # as ints, and the output port its next hop requests.  route_o1turn runs
    # once per distinct (source, destination, coin); flits that share those
    # share one route tuple.
    flits = schedule.network_flits
    src_pe = schedule.src_pe
    coin = _coins(seed, len(flits))
    key = (np.array(src_pe, dtype=np.int64) * p + [e.dst_pe for e in flits]) * 2 + coin
    distinct, which = np.unique(key, return_inverse=True)
    paths = [tuple(map(int, route_o1turn(k // 2 // p, k // 2 % p, topo.n, k % 2)))
             for k in distinct.tolist()]
    route = list(map(paths.__getitem__, which.tolist()))
    nxt = [r[0] for r in route]
    hop = [0] * len(flits)

    engine = CycleEngine(schedule, pipeline_depth)
    fifos, queued, deliveries = engine.fifos, engine.queued, engine.deliveries
    rr_ptr = [[0] * 5 for _ in range(p)]
    rm_ops: list[list[tuple[int, int, int]]] = [[] for _ in range(p)]
    arrivals: list[list[tuple[int, int, int, int, int]]] = [[] for _ in range(p)]

    last_progress = 0
    watchdog = max(64, topo.n * topo.n + pipeline_depth + 16)
    t = 0

    while True:
        progressed = engine.step(t)

        # 5. arbitration: each output, in port order, picks one requesting
        # input round-robin; an input popped for one output may request a
        # later output with its next flit in the same cycle
        hop_done = []
        landing = t + HOP_CYCLES  # one int object for the cycle's arrival records
        for node in range(p):
            if not queued[node]:
                continue
            nf = fifos[node]
            want = [nxt[q[0]] if q else -1 for q in nf]
            rr, ops = rr_ptr[node], rm_ops[node]
            for out in range(5):
                if out not in want:
                    continue
                inp = rr[out]
                while want[inp] != out:
                    inp = inp + 1 if inp < 4 else 0
                q = nf[inp]
                uid = q.popleft()
                queued[node] -= 1
                want[inp] = nxt[q[0]] if q else -1
                ops.append((t, out, inp))
                rr[out] = inp + 1 if inp < 4 else 0
                k = hop[uid] = hop[uid] + 1
                if out == LOCAL:
                    e = flits[uid]
                    arrivals[node].append((e.dst_check, e.dst_pos, src_pe[uid], uid, landing))
                    hop_done.append((node, LOCAL, uid))
                else:
                    nxt[uid] = route[uid][k]
                    nbr, port = links[node][out]
                    hop_done.append((nbr, port, uid))
        if hop_done:
            deliveries[landing] = hop_done
            progressed = True

        if progressed:
            last_progress = t
        if engine.drained():
            break
        if t - last_progress > watchdog:
            stuck = [m for m, s in enumerate(engine.check_start) if s < 0]
            raise SimulationDeadlock(
                f"no progress since cycle {last_progress} (cycle {t}); "
                f"{len(flits) - engine.delivered} flits in flight, "
                f"{len(stuck)} checks not started (first: {stuck[:5]})"
            )
        t += 1

    inject, receipt = engine.inject_cycle, engine.receipt_cycle
    records = [
        FlitRecord._make((e.uid, e.var, e.src_check, e.dst_check, e.dst_pos, s, e.dst_pe, c,
                          int(e.wrap), i, r, k))
        for e, s, c, i, r, k in zip(flits, src_pe, coin, inject, receipt, hop)
    ]
    trace = NocTrace(
        n=topo.n,
        seed=seed,
        pipeline_depth=pipeline_depth,
        k_i=max(receipt, default=-1) + 1,
        rm_ops=rm_ops,
        arrivals=arrivals,
        fifo_max=engine.fifo_max,
        flits=records,
        check_start=engine.check_start,
        check_complete=engine.check_complete,
        n_network=len(flits),
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
    starts, deg = trace.check_start.tolist(), schedule.deg
    for f in trace.flits:
        if f.wrap and starts[f.dst_check] >= 0:
            read_end = starts[f.dst_check] + deg[f.dst_check]
            if f.receipt_cycle <= read_end:
                raise AssertionError(
                    f"wrap flit {f.uid} overwrites check {f.dst_check} before its read"
                )
