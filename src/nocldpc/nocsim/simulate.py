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

from ..jsonfields import frozen_int64
from .engine import HOP_CYCLES, LOCAL, CycleEngine
from .schedule import DST_CHECK, DST_POS, DST_PE, SRC_CHECK, VAR, WRAP, InjectionSchedule
from .topology import Topology, route_o1turn
from .trace import ARRIVAL_FIELDS, FlitRecord, NocTrace, SimulationDeadlock


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
    n_flits = len(flits)
    src_pe = np.array(schedule.src_pe, dtype=np.int64)
    coin = _coins(seed, n_flits)
    key = (src_pe * p + flits[:, DST_PE]) * 2 + coin
    distinct, which = np.unique(key, return_inverse=True)
    paths = [tuple(map(int, route_o1turn(k // 2 // p, k // 2 % p, topo.n, k % 2)))
             for k in distinct.tolist()]
    route = list(map(paths.__getitem__, which.tolist()))
    nxt = [r[0] for r in route]
    hop = [0] * n_flits

    engine = CycleEngine(schedule, pipeline_depth)
    fifos, queued, deliveries = engine.fifos, engine.queued, engine.deliveries
    rr_ptr = [[0] * 5 for _ in range(p)]
    rm_ops: list[list[int]] = [[] for _ in range(p)]  # per node: cycle, out, in, cycle, ...

    last_progress = 0
    watchdog = max(64, topo.n * topo.n + pipeline_depth + 16)
    t = 0

    while True:
        progressed = engine.step(t)

        # 5. arbitration: each output, in port order, picks one requesting
        # input round-robin; an input popped for one output may request a
        # later output with its next flit in the same cycle
        hop_done = []
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
                ops += (t, out, inp)
                rr[out] = inp + 1 if inp < 4 else 0
                k = hop[uid] = hop[uid] + 1
                if out == LOCAL:
                    hop_done.append((node, LOCAL, uid))
                else:
                    nxt[uid] = route[uid][k]
                    nbr, port = links[node][out]
                    hop_done.append((nbr, port, uid))
        if hop_done:
            deliveries[t + HOP_CYCLES] = hop_done
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

    receipt = np.array(engine.receipt_cycle, dtype=np.int64)
    records = frozen_int64(np.column_stack((
        np.arange(n_flits), flits[:, VAR], flits[:, SRC_CHECK], flits[:, DST_CHECK],
        flits[:, DST_POS], src_pe, flits[:, DST_PE], coin, flits[:, WRAP],
        engine.inject_cycle, receipt, hop,
    )), copy=False)
    # a node ejects at most one flit per cycle, so its arrivals are its
    # flits in receipt order
    landed = np.lexsort((receipt, flits[:, DST_PE]))
    fields = [FlitRecord._fields.index(f) for f in ARRIVAL_FIELDS]
    arrivals = frozen_int64(records[np.ix_(landed, fields)], copy=False)
    per_pe = np.cumsum(np.bincount(flits[:, DST_PE], minlength=p))[:-1]
    trace = NocTrace(
        n=topo.n,
        seed=seed,
        pipeline_depth=pipeline_depth,
        k_i=max(engine.receipt_cycle, default=-1) + 1,
        rm_ops=[frozen_int64(node_ops).reshape(-1, 3) for node_ops in rm_ops],
        arrivals=np.split(arrivals, per_pe),
        fifo_max=engine.fifo_max,
        flits=records,
        check_start=engine.check_start,
        check_complete=engine.check_complete,
        n_network=n_flits,
        n_bypass=schedule.n_bypass,
        label=label,
    )
    _assert_invariants(trace, schedule)
    return trace


def _assert_invariants(trace: NocTrace, schedule: InjectionSchedule) -> None:
    # conservation: everything injected arrives, and the arrival lists are
    # the flits by receipt, so each arrives once
    flits = trace.flits
    if (flits.column("receipt_cycle") < 0).any():
        raise AssertionError("undelivered flit after drain")

    if trace.k_i:
        if trace.k_i < trace.link_loads().max():
            raise AssertionError("k_i below busiest-link lower bound")
        if trace.k_i < HOP_CYCLES * trace.max_hops():
            raise AssertionError("k_i below max-distance lower bound")

    # a wrap value must land only after its consumer's block was read out
    dst = flits.column("dst_check")
    start = trace.check_start[dst]
    read_end = start + np.asarray(schedule.deg, dtype=np.int64)[dst]
    early = (flits.column("wrap") == 1) & (start >= 0) & (flits.column("receipt_cycle") <= read_end)
    if early.any():
        uid = int(np.flatnonzero(early)[0])
        raise AssertionError(f"wrap flit {uid} overwrites check {int(dst[uid])} before its read")
