"""PE and router timing for one decoding iteration on the torus NoC.

Synchronous model, two cycles per hop (crossbar traversal, then link).  Each
cycle, in order: scheduled link/ejection deliveries land, finished checks
emit their messages, each PE injects at most one flit into its LOCAL queue,
PEs start reading a check once all its inputs are present, and every router
moves flits from its input FIFOs to its outputs.  CycleEngine runs the first
four steps.  Its driver runs the fifth: simulate_iteration arbitrates each
output round-robin, and validate_config applies the routing-memory word of
the cycle.  The simulator and the RM walk thus share one timing model, so
a routing program that replays the simulator's decisions reproduces its
cycles exactly.  FIFOs are unbounded; their peak occupancy sizes the
hardware queues afterwards.

The per-check and per-uid tables are the schedule's tuples of ints; an
engine copies only the input counts, which it counts down.
"""

from __future__ import annotations

from collections import deque

from .schedule import InjectionSchedule
from .topology import Port

HOP_CYCLES = 2  # one cycle through the crossbar, one on the link
LOCAL = int(Port.LOCAL)  # the PE-side port, as the int the cycle loops index with


class CycleEngine:
    """Input FIFOs, deliveries in flight and PE read state of one iteration.

    Flits are their schedule uids.  After step(t), the driver pops uids
    from ``fifos[node][port]``, lowers ``queued[node]`` by one per pop, and
    stores the cycle's moves as ``deliveries[t + HOP_CYCLES]``: a list of
    (node, input port, uid), where input port LOCAL is an ejection into the
    node's PE.  The per-run facts are plain lists: ``check_start`` and
    ``check_complete`` per check, ``inject_cycle`` and ``receipt_cycle``
    per uid, and ``fifo_max`` per (node, input port).
    """

    def __init__(self, schedule: InjectionSchedule, pipeline_depth: int):
        p = schedule.p
        self.pipeline_depth = pipeline_depth
        self.schedule = schedule
        # inputs other than wrap values still to arrive before a check is read
        self.missing = list(schedule.n_inputs)

        self.fifos = [[deque() for _ in range(5)] for _ in range(p)]
        self.queued = [0] * p  # flits waiting in each router's input FIFOs
        self.deliveries: dict[int, list[tuple[int, int, int]]] = {}
        self.completions: dict[int, list[int]] = {}  # cycle -> checks leaving the pipeline
        self.inj_queue: list[deque[int]] = [deque() for _ in range(p)]
        self.injecting: list[int] = []  # PEs whose injection queue holds a flit
        self.ptr = [0] * p  # next served check per PE
        # PEs free to start their next served check, and cycle -> PEs whose
        # read port frees then; a PE that has served all its checks leaves
        self.idle = [pe for pe in range(p) if schedule.order[pe]]
        self.frees: dict[int, list[int]] = {}
        self.pending_checks = sum(map(len, schedule.order))
        self.delivered = 0

        self.fifo_max = [[0] * 5 for _ in range(p)]
        self.check_start = [-1] * schedule.n_checks
        self.check_complete = [-1] * schedule.n_checks
        self.inject_cycle = [-1] * schedule.n_network
        self.receipt_cycle = [-1] * schedule.n_network

    def step(self, t: int) -> bool:
        """Run steps 1-4 of cycle t; True if anything landed, emitted,
        injected or started reading."""
        fifos, queued, fifo_max, missing = self.fifos, self.queued, self.fifo_max, self.missing
        inj_queue = self.inj_queue
        progressed = False

        # 1. deliveries scheduled for this cycle
        landing = self.deliveries.pop(t, None)
        if landing:
            progressed = True
            s, receipt = self.schedule, self.receipt_cycle
            dst_check, wrap = s.dst_check, s.wrap
            for node, port, uid in landing:
                if port == LOCAL:  # ejection into the PE
                    self.delivered += 1
                    receipt[uid] = t
                    if not wrap[uid]:
                        missing[dst_check[uid]] -= 1
                else:
                    q = fifos[node][port]
                    q.append(uid)
                    queued[node] += 1
                    if len(q) > fifo_max[node][port]:
                        fifo_max[node][port] = len(q)

        # 2. checks leaving the pipeline emit their messages
        finished = self.completions.pop(t, None)
        if finished:
            progressed = True
            s = self.schedule
            host, emit_net, emit_local = s.host, s.emit_net, s.emit_local
            injecting = self.injecting
            for m in finished:
                self.check_complete[m] = t
                if emit_net[m]:
                    pe = host[m]
                    if not inj_queue[pe]:
                        injecting.append(pe)
                    inj_queue[pe].extend(emit_net[m])
                for c in emit_local[m]:
                    missing[c] -= 1  # same-PE forward, available now

        # Steps 3 and 4 visit only the PEs with work.  What a PE does in them
        # touches its own queue, FIFO and read state, the uids it injects and
        # the checks it serves, and only adds to the completions list of a
        # later cycle, so the order in which PEs are visited changes nothing.

        # 3. injection: one flit per PE per cycle through the LOCAL port
        if self.injecting:
            progressed = True
            still = []
            for pe in self.injecting:
                iq = inj_queue[pe]
                uid = iq.popleft()
                self.inject_cycle[uid] = t
                q = fifos[pe][LOCAL]
                q.append(uid)
                queued[pe] += 1
                if len(q) > fifo_max[pe][LOCAL]:
                    fifo_max[pe][LOCAL] = len(q)
                if iq:
                    still.append(pe)
            self.injecting = still

        # 4. PEs start reading the next served check when its block is full
        idle = self.idle
        freed = self.frees.pop(t, None)
        if freed:
            idle += freed
        if idle:
            serve, ptr, deg = self.schedule.order, self.ptr, self.schedule.deg
            waiting = []
            for pe in idle:
                order = serve[pe]
                m = order[ptr[pe]]
                if missing[m]:
                    waiting.append(pe)
                    continue
                self.check_start[m] = t
                d = deg[m]
                self.completions.setdefault(t + d + self.pipeline_depth, []).append(m)
                ptr[pe] += 1
                if ptr[pe] < len(order):
                    # a PE starts at most one check per cycle
                    self.frees.setdefault(t + max(d, 1), []).append(pe)
                self.pending_checks -= 1
                progressed = True
            self.idle = waiting
        return progressed

    def drained(self) -> bool:
        """Every flit delivered, every check read and emitted."""
        return (
            self.delivered == len(self.receipt_cycle)
            and self.pending_checks == 0
            and not self.completions
            and not self.deliveries
            and not self.injecting
        )
