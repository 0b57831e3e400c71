"""Plain references that the library's faster paths are checked against.

These are the row and edge loops, the first golden layered decoder, the
first encoders of the trace and configuration-image JSON, and the first
cycle simulator, that whole-array, per-layer-table, cached or event-driven
versions in `src/` replaced.  Tests import them; nothing in the library
does.
"""

import json
from collections import deque
from dataclasses import dataclass

import numpy as np

from nocldpc.configgen.image import FORMAT as IMAGE_FORMAT
from nocldpc.nocsim.trace import FORMAT as TRACE_FORMAT
from nocldpc.decoder import CodeLayout, DecodeParams, DecodeResult
from nocldpc.decoder.nms import hard_decision
from nocldpc.fixedpoint import QFormat, quantize, reciprocal_scale_table
from nocldpc.nocsim.schedule import EMISSION_FIELDS
from nocldpc.nocsim.topology import OPPOSITE, Port, route_o1turn

_PAD_MAG = np.int32(1) << 30


def cols(h) -> list[np.ndarray]:
    """Column adjacency of h: cols(h)[j] lists the rows that check variable j."""
    buckets: list[list[int]] = [[] for _ in range(h.n_cols)]
    for m, row in enumerate(h.rows):
        for j in row:
            buckets[int(j)].append(m)
    return [np.asarray(b, dtype=np.int32) for b in buckets]


def syndrome_ok(layout: CodeLayout, bits) -> bool:
    """The row-sum syndrome: each row's int32 sum of its masked bits, mod 2."""
    par = (np.asarray(bits)[layout.idx].astype(np.int32) & layout.mask).sum(axis=1) & 1
    return not par.any()


def saturate(codes, fmt: QFormat) -> np.ndarray:
    """Clamp (wider) integer codes into the representable range, as int32."""
    codes = np.asarray(codes)
    t = codes.dtype.type
    return codes.clip(t(fmt.min_code), t(fmt.max_code)).astype(np.int32)


@dataclass
class CheckState:
    """Decoder state: per-variable LLR codes and per-(row, position) extrinsics."""

    lq: np.ndarray  # (N,) int32 codes
    r: np.ndarray  # (M, N_d) int32 codes, 0 beyond each row's degree
    fmt: QFormat

    @classmethod
    def init(cls, layout: CodeLayout, channel_llrs: np.ndarray, fmt: QFormat) -> "CheckState":
        lq = quantize(channel_llrs, fmt)
        r = np.zeros((layout.h.n_rows, layout.n_d), dtype=np.int32)
        return cls(lq=lq, r=r, fmt=fmt)


def check_node_update(q: np.ndarray, mask: np.ndarray, alpha_lut: np.ndarray) -> np.ndarray:
    """Vectorized check update on a block of rows.

    q holds saturated L(q_mj) codes, one row per check.  Returns the new
    extrinsic codes before final saturation, zero at padded positions.
    """
    mag = np.abs(q.astype(np.int64))
    mag[~mask] = _PAD_MAG
    neg = (q < 0) & mask
    parity = (neg.sum(axis=1) & 1).astype(bool)
    odd_others = parity[:, None] ^ neg  # odd negative count among the other positions

    t = mag.argmin(axis=1)
    rows = np.arange(q.shape[0])
    min1 = mag[rows, t]
    mag[rows, t] = _PAD_MAG
    min2_ = mag.min(axis=1)

    pos = np.arange(q.shape[1])[None, :]
    sel = np.where(pos == t[:, None], min2_[:, None], min1[:, None])
    sel = np.minimum(sel, len(alpha_lut) - 1)  # degree-1 rows see an empty minimum
    rmag = alpha_lut[sel]
    rnew = np.where(odd_others, -rmag, rmag)
    rnew[~mask] = 0
    return rnew


def layer_update(layout: CodeLayout, layer_index: int, state: CheckState, params: DecodeParams,
                 alpha_lut: np.ndarray | None = None) -> CheckState:
    """Apply one layer's check updates in place and return the state."""
    if alpha_lut is None:
        alpha_lut = reciprocal_scale_table(params.alpha, state.fmt)
    rows = layout.layer_rows[layer_index]
    idx = layout.idx[rows]
    mask = layout.mask[rows]

    q = saturate(state.lq[idx].astype(np.int64) - state.r[rows], state.fmt)
    rnew = check_node_update(q, mask, alpha_lut)
    rnew = saturate(rnew, state.fmt)
    lq_new = saturate(q.astype(np.int64) + rnew, state.fmt)

    state.r[rows] = rnew
    state.lq[idx[mask]] = lq_new[mask]  # disjoint support inside a layer
    return state


def decode_layered_nms(h, channel_llrs, params: DecodeParams,
                       layout: CodeLayout | None = None) -> DecodeResult:
    """The first golden: layer_update on fancy-indexed rows, in int64."""
    llrs = np.asarray(channel_llrs, dtype=np.float64)
    if len(llrs) != h.n_cols:
        raise ValueError(f"expected {h.n_cols} channel LLRs, got {len(llrs)}")
    if layout is None:
        layout = CodeLayout.build(h)
    state = CheckState.init(layout, llrs, params.fmt)
    alpha_lut = reciprocal_scale_table(params.alpha, params.fmt)

    iterations = 0
    converged = False
    for _ in range(params.it_max):
        for li in range(len(layout.layer_rows)):
            layer_update(layout, li, state, params, alpha_lut)
        iterations += 1
        if params.early_stop:
            if layout.syndrome_ok(hard_decision(state.lq)):
                converged = True
                break
    bits = hard_decision(state.lq)
    if not converged:
        converged = layout.syndrome_ok(bits)
    return DecodeResult(
        hard_bits=bits,
        iterations_run=iterations,
        converged=converged,
        final_llrs=state.lq.copy(),
        fmt=params.fmt,
    )


def trace_obj(trace) -> dict:
    """A trace's JSON object, its tables as lists of int lists."""
    return {
        "format": TRACE_FORMAT,
        "n": trace.n,
        "seed": trace.seed,
        "pipeline_depth": trace.pipeline_depth,
        "k_i": trace.k_i,
        "label": trace.label,
        "rm_ops": [ops.tolist() for ops in trace.rm_ops],
        "arrivals": [pe.tolist() for pe in trace.arrivals],
        "fifo_max": trace.fifo_max.tolist(),
        "flits": [list(f) for f in trace.flits],
        "check_start": trace.check_start.tolist(),
        "check_complete": trace.check_complete.tolist(),
        "n_network": trace.n_network,
        "n_bypass": trace.n_bypass,
    }


def trace_text(trace) -> str:
    """A trace's canonical JSON text, by the default json.dumps."""
    return json.dumps(trace_obj(trace), sort_keys=True, separators=(",", ":"))


def image_payload(image) -> dict:
    """An image's payload object, its slot map built in sorted key order."""
    return {
        "format": IMAGE_FORMAT,
        "label": image.label,
        "n": image.n,
        "k_i": image.k_i,
        "n_d": image.n_d,
        "n_pc": image.n_pc,
        "pipeline_depth": image.pipeline_depth,
        "rm": image.rm,
        "wag": image.wag,
        "cnt_cmp": image.cnt_cmp,
        "fifo_depth": image.fifo_depth.tolist(),
        "slot_of": {f"{c}:{p}": s for c, p, s in sorted(image.slots.tolist())},
        "trace_digest": image.trace_digest,
        "mapping_digest": image.mapping_digest,
        "h_digest": image.h_digest,
    }


def image_payload_text(image) -> str:
    """The text an image's payload digest hashes, by the default json.dumps."""
    return json.dumps(image_payload(image), sort_keys=True, separators=(",", ":"))


def image_text(image) -> str:
    """ConfigImage.to_json's text, by the default json.dumps."""
    obj = image_payload(image)
    obj["digest"] = image.digest
    return json.dumps(obj, sort_keys=True)


def mix64(a: int, b: int) -> int:
    """The splitmix64-style hash of (seed, uid) whose low bit is a flit's
    O1Turn coin, on Python ints."""
    x = (a * 0x9E3779B97F4A7C15 + b) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


def simulate_cycles(topo, schedule, seed: int, pipeline_depth: int) -> dict:
    """One iteration's timing by the first simulator's plain loops.

    Two cycles per hop.  Each cycle, in order: deliveries land, finished
    checks emit (same-PE forwards count as inputs at once), each PE puts at
    most one flit into its LOCAL FIFO, each PE whose read port is free
    starts its next served check once every non-wrap input is in, and every
    router gives each output, in port order, to one requesting input
    round-robin.  Every PE is visited every cycle.  The per-check needs are
    derived here from the rows of ``schedule.emissions``, not read from the
    schedule's tables, and each flit routes by route_o1turn under its mix64
    coin.  Returns the facts a trace records, as lists.
    """
    p, n = topo.p, topo.n
    local = int(Port.LOCAL)
    ems = [dict(zip(EMISSION_FIELDS, row)) for row in schedule.emissions.tolist()]
    flits = sorted((e for e in ems if e["network"]), key=lambda e: e["uid"])
    src_pe = [schedule.host[e["src_check"]] for e in flits]
    coin = [mix64(seed, e["uid"]) & 1 for e in flits]
    route = [[int(port) for port in route_o1turn(s, e["dst_pe"], n, c)]
             for e, s, c in zip(flits, src_pe, coin)]
    hops = [0] * len(flits)
    inject = [-1] * len(flits)
    receipt = [-1] * len(flits)

    n_checks = len(schedule.host)
    deg = [0] * n_checks
    emit_net = [[] for _ in range(n_checks)]
    emit_local = [[] for _ in range(n_checks)]
    missing = [0] * n_checks
    for e in sorted(ems, key=lambda e: (e["src_check"], e["src_pos"])):
        deg[e["src_check"]] += 1
        if e["network"]:
            emit_net[e["src_check"]].append(e["uid"])
        elif not e["wrap"]:
            emit_local[e["src_check"]].append(e["dst_check"])
        if not e["wrap"]:
            missing[e["dst_check"]] += 1

    fifos = [[deque() for _ in range(5)] for _ in range(p)]
    fifo_max = [[0] * 5 for _ in range(p)]
    rr = [[0] * 5 for _ in range(p)]
    rm_ops = [[] for _ in range(p)]
    arrivals = [[] for _ in range(p)]
    inj_queue = [deque() for _ in range(p)]
    ptr = [0] * p
    read_free = [0] * p
    deliveries = {}  # cycle -> [(node, input port, uid)]; port LOCAL ejects
    completions = {}  # cycle -> checks leaving the pipeline
    check_start = [-1] * n_checks
    check_complete = [-1] * n_checks

    def enqueue(node, port, uid):
        fifos[node][port].append(uid)
        fifo_max[node][port] = max(fifo_max[node][port], len(fifos[node][port]))

    t = 0
    while (min(receipt, default=0) < 0 or completions or deliveries or any(inj_queue)
           or any(ptr[pe] < len(schedule.order[pe]) for pe in range(p))):
        if t > 100000:
            raise RuntimeError("reference cycle model made no end")
        for node, port, uid in deliveries.pop(t, []):
            if port == local:
                receipt[uid] = t
                if not flits[uid]["wrap"]:
                    missing[flits[uid]["dst_check"]] -= 1
            else:
                enqueue(node, port, uid)
        for m in completions.pop(t, []):
            check_complete[m] = t
            inj_queue[schedule.host[m]].extend(emit_net[m])
            for c in emit_local[m]:
                missing[c] -= 1
        for pe in range(p):
            if inj_queue[pe]:
                uid = inj_queue[pe].popleft()
                inject[uid] = t
                enqueue(pe, local, uid)
        for pe in range(p):
            order = schedule.order[pe]
            if ptr[pe] < len(order) and read_free[pe] <= t and missing[order[ptr[pe]]] == 0:
                m = order[ptr[pe]]
                check_start[m] = t
                read_free[pe] = t + deg[m]
                completions.setdefault(t + deg[m] + pipeline_depth, []).append(m)
                ptr[pe] += 1
        moves = []
        for node in range(p):
            for out in range(5):
                want = [bool(q) and route[q[0]][hops[q[0]]] == out for q in fifos[node]]
                if not any(want):
                    continue
                inp = rr[node][out]
                while not want[inp]:
                    inp = (inp + 1) % 5
                uid = fifos[node][inp].popleft()
                rr[node][out] = (inp + 1) % 5
                rm_ops[node].append((t, out, inp))
                hops[uid] += 1
                if out == local:
                    e = flits[uid]
                    arrivals[node].append((e["dst_check"], e["dst_pos"], src_pe[uid], uid, t + 2))
                    moves.append((node, local, uid))
                else:
                    moves.append((topo.neighbor(node, Port(out)), int(OPPOSITE[Port(out)]), uid))
        if moves:
            deliveries[t + 2] = moves
        t += 1

    return {
        "k_i": max(receipt, default=-1) + 1,
        "inject_cycle": inject,
        "receipt_cycle": receipt,
        "hops": hops,
        "check_start": check_start,
        "check_complete": check_complete,
        "fifo_max": fifo_max,
        "rm_ops": [[list(op) for op in ops] for ops in rm_ops],
        "arrivals": [[list(a) for a in pe] for pe in arrivals],
    }
