"""Table-driven re-execution of decoding through a configuration image.

The product NoC carries no headers and takes no routing decisions: every
cycle each router applies one routing-memory word, and every PE writes
arrivals at WAG addresses and reads blocks per CNT/CMP.  Replay therefore
has two parts:

1. validate_config walks the routing memories cycle by cycle with identity
   tokens (a PE's injection order is fixed by its serving schedule, so the
   k-th flit out of a PE is known without headers).  It re-derives PE timing
   from the deliveries the RM produces and checks that every pop finds a
   flit, every ejection lands at its host PE in WAG order, every block slot
   is written exactly once, and the declared slot map matches.  The result
   is the validated dataflow wiring between memory slots.

2. replay_decode runs frames over that wiring: values live in the per-PE
   L(q) block memories, check updates use the same saturating kernel as the
   golden decoder, and each output value moves to the successor slot the
   network was just proven to deliver it to.  The outcome must match the
   golden layered decoder bit for bit.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass

import numpy as np

from ..codes.matrix import ParityCheckMatrix
from ..configgen.image import ConfigImage, unpack_rm_word
from ..decoder.layout import CodeLayout
from ..decoder.nms import DecodeParams, DecodeResult, _check_node_update, hard_decision
from ..fixedpoint import quantize, reciprocal_scale_table, saturate
from ..mapper import Mapping
from .schedule import SRC_BYPASS, SRC_CHAIN, build_schedule
from .simulate import HOP_CYCLES, LOCAL
from .topology import Topology
from .trace import NocTrace


class ReplayIntegrityError(ValueError):
    pass


@dataclass
class ReplayWiring:
    """Validated slot-level dataflow extracted from a configuration image."""

    n_d: int
    slot_mask: np.ndarray  # (M, N_d) slot < degree
    next_row: np.ndarray  # (M, N_d) successor check of the value computed here
    next_slot: np.ndarray  # (M, N_d) successor slot
    prefill_rows: np.ndarray  # slots holding received soft values at start
    prefill_slots: np.ndarray
    prefill_vars: np.ndarray
    home_row: np.ndarray  # (N,) slot holding each variable's latest value
    home_slot: np.ndarray


def validate_config(
    h: ParityCheckMatrix,
    mapping: Mapping,
    trace: NocTrace,
    config: ConfigImage,
) -> ReplayWiring:
    """Verify the image against its inputs and extract the dataflow wiring."""
    config.verify_digest()
    if config.trace_digest != trace.content_digest():
        raise ReplayIntegrityError("configuration was generated from a different trace")
    if config.mapping_digest != hashlib.sha256(mapping.to_json().encode()).hexdigest():
        raise ReplayIntegrityError("configuration was generated from a different mapping")
    if config.h_digest != h.content_digest():
        raise ReplayIntegrityError("configuration was generated from a different code")

    if config.p != mapping.p:
        raise ReplayIntegrityError(f"image is for {config.p} PEs, mapping for {mapping.p}")
    schedule = build_schedule(h, mapping)
    p = config.p
    links = Topology(config.n).links()
    n_d = config.n_d
    serve_pos = schedule.serve_pos.tolist()
    host = schedule.host.tolist()
    degs = [len(row) for row in h.rows]

    for pe in range(p):
        want = [(serve_pos[m] * n_d, degs[m]) for m in mapping.order[pe]]
        if [tuple(x) for x in config.cnt_cmp[pe]] != want:
            raise ReplayIntegrityError(f"CNT/CMP table mismatch on PE {pe}")

    # token walk through the routing memories; the tokens are the schedule's
    # emissions, injected per PE in serving order
    emit_net = [[e for e in ems if e.network] for ems in schedule.emissions]
    emit_local = [
        [e.dst_check for e in ems if not e.network and not e.wrap] for ems in schedule.emissions
    ]
    fifos = [[deque() for _ in range(5)] for _ in range(p)]
    missing = (
        ((schedule.input_src == SRC_CHAIN) | (schedule.input_src == SRC_BYPASS))
        .sum(axis=1)
        .tolist()
    )
    serve = schedule.order
    ptr = [0] * p
    read_free = [0] * p
    inj_stage = [deque() for _ in range(p)]
    # cycle -> (node, input port, token); input port LOCAL marks an ejection
    deliveries: dict[int, list[tuple[int, int, object]]] = {}
    completions: dict[int, list[int]] = {}
    selections: dict[int, list[tuple[int, int]]] = {}  # RM word -> crossbar settings
    wag_next = [0] * p
    slot_seen: dict[tuple[int, int], int] = {}
    delivered = 0

    for t in range(config.k_i):
        for node, port, tok in deliveries.pop(t, ()):
            if port != LOCAL:
                fifos[node][port].append(tok)
            else:
                delivered += 1
                if not tok.wrap:
                    missing[tok.dst_check] -= 1
        for m in completions.pop(t, ()):
            inj_stage[host[m]].extend(emit_net[m])
            for c in emit_local[m]:
                missing[c] -= 1
        for pe in range(p):
            if inj_stage[pe]:
                fifos[pe][LOCAL].append(inj_stage[pe].popleft())
        for pe in range(p):
            if ptr[pe] < len(serve[pe]) and read_free[pe] <= t:
                m = serve[pe][ptr[pe]]
                if missing[m] == 0:
                    read_free[pe] = t + degs[m]
                    completions.setdefault(t + degs[m] + config.pipeline_depth, []).append(m)
                    ptr[pe] += 1
        hop_done = []
        for node in range(p):
            word = config.rm[node][t]
            if not word:
                continue
            sel = selections.get(word)
            if sel is None:
                sel = selections[word] = unpack_rm_word(word)
                if any(inp > LOCAL for _, inp in sel):
                    raise ReplayIntegrityError(f"RM word {word:#x} selects an input port above {LOCAL}")
            for out, inp in sel:
                q = fifos[node][inp]
                if not q:
                    raise ReplayIntegrityError(
                        f"cycle {t}: node {node} pops empty FIFO {inp}"
                    )
                tok = q.popleft()
                if out != LOCAL:
                    nbr, port = links[node][out]
                    hop_done.append((nbr, port, tok))
                    continue
                if tok.dst_pe != node:
                    raise ReplayIntegrityError(
                        f"cycle {t}: flit for PE {tok.dst_pe} ejected at {node}"
                    )
                if wag_next[node] >= len(config.wag[node]):
                    raise ReplayIntegrityError(f"PE {node}: WAG table exhausted")
                addr = config.wag[node][wag_next[node]]
                wag_next[node] += 1
                pos_in_order, slot = divmod(addr, n_d)
                if pos_in_order >= len(serve[node]):
                    raise ReplayIntegrityError(f"PE {node}: WAG address {addr} out of range")
                check = serve[node][pos_in_order]
                if check != tok.dst_check or slot >= degs[check]:
                    raise ReplayIntegrityError(
                        f"cycle {t}: WAG address {addr} routes to check {check}, "
                        f"flit belongs to {tok.dst_check}"
                    )
                key = (check, tok.dst_pos)
                if key in slot_seen:
                    raise ReplayIntegrityError(f"slot for {key} written twice")
                slot_seen[key] = slot
                hop_done.append((node, LOCAL, tok))
        if hop_done:
            deliveries[t + HOP_CYCLES] = hop_done

    for t in sorted(deliveries):
        for _node, port, _tok in deliveries[t]:
            if port != LOCAL:
                raise ReplayIntegrityError("flit still on a link after k_i cycles")
            delivered += 1
    if delivered != schedule.n_network:
        raise ReplayIntegrityError(
            f"{delivered} of {schedule.n_network} flits delivered by the program"
        )
    if any(q for node in fifos for q in node):
        raise ReplayIntegrityError("flits left in FIFOs after k_i cycles")
    for pe in range(p):
        if wag_next[pe] != len(config.wag[pe]):
            raise ReplayIntegrityError(f"PE {pe}: WAG table not fully consumed")

    # slot map: walked network slots plus leftover inputs in position order
    slot_of = dict(slot_seen)
    used: list[set[int]] = [set() for _ in range(h.n_rows)]
    for (check, _pos), slot in slot_seen.items():
        if slot in used[check]:
            raise ReplayIntegrityError(f"check {check}: slot {slot} assigned twice")
        used[check].add(slot)
    for m, d in enumerate(degs):
        free = iter([s for s in range(d) if s not in used[m]])
        for pos in range(d):
            if (m, pos) not in slot_of:
                slot_of[(m, pos)] = next(free)
    if slot_of != config.slot_of:
        raise ReplayIntegrityError("declared slot map differs from the RM walk")

    return _build_wiring(h, schedule, slot_of, n_d)


def _build_wiring(h, schedule, slot_of, n_d) -> ReplayWiring:
    m_checks = h.n_rows
    # flat (check, slot) tables; a slot without an emission keeps its value
    slot_mask = [False] * (m_checks * n_d)
    next_row = [m for m in range(m_checks) for _ in range(n_d)]
    next_slot = list(range(n_d)) * m_checks
    for (m, _pos), slot in slot_of.items():
        slot_mask[m * n_d + slot] = True
    for ems in schedule.emissions:
        for e in ems:
            k = e.src_check * n_d + slot_of[(e.src_check, e.src_pos)]
            next_row[k] = e.dst_check
            next_slot[k] = slot_of[(e.dst_check, e.dst_pos)]
    slot_mask = np.array(slot_mask, dtype=bool).reshape(m_checks, n_d)
    next_row = np.array(next_row, dtype=np.int64).reshape(m_checks, n_d)
    next_slot = np.array(next_slot, dtype=np.int64).reshape(m_checks, n_d)

    heads = sorted(schedule.first_slot.items())
    prefill_rows = np.array([c for _, (c, _p) in heads], dtype=np.int64)
    prefill_slots = np.array([slot_of[(c, p_)] for _, (c, p_) in heads], dtype=np.int64)
    prefill_vars = np.array([j for j, _ in heads], dtype=np.int64)
    home_row = np.zeros(h.n_cols, dtype=np.int64)
    home_slot = np.zeros(h.n_cols, dtype=np.int64)
    home_row[prefill_vars] = prefill_rows
    home_slot[prefill_vars] = prefill_slots
    return ReplayWiring(
        n_d=n_d,
        slot_mask=slot_mask,
        next_row=next_row,
        next_slot=next_slot,
        prefill_rows=prefill_rows,
        prefill_slots=prefill_slots,
        prefill_vars=prefill_vars,
        home_row=home_row,
        home_slot=home_slot,
    )


def replay_decode(
    h: ParityCheckMatrix,
    mapping: Mapping,
    trace: NocTrace,
    config: ConfigImage,
    channel_llrs,
    params: DecodeParams,
    layout: CodeLayout | None = None,
    wiring: ReplayWiring | None = None,
) -> DecodeResult:
    """Decode one frame with all extrinsic transport table-driven.

    Must produce results bit-identical to decode_layered_nms on the same
    inputs; pass a pre-validated wiring when decoding many frames.
    """
    if wiring is None:
        wiring = validate_config(h, mapping, trace, config)
    if layout is None:
        layout = CodeLayout.build(h)
    llrs = np.asarray(channel_llrs, dtype=np.float64)
    if len(llrs) != h.n_cols:
        raise ValueError(f"expected {h.n_cols} channel LLRs, got {len(llrs)}")

    fmt = params.fmt
    alpha_lut = reciprocal_scale_table(params.alpha, fmt)
    codes = quantize(llrs, fmt)

    lq_mem = np.zeros((h.n_rows, wiring.n_d), dtype=np.int32)
    lq_mem[wiring.prefill_rows, wiring.prefill_slots] = codes[wiring.prefill_vars]
    r_mem = np.zeros_like(lq_mem)

    iterations = 0
    converged = False
    for _ in range(params.it_max):
        for rows in layout.layer_rows:
            mask = wiring.slot_mask[rows]
            q = saturate(lq_mem[rows].astype(np.int64) - r_mem[rows], fmt)
            rnew = saturate(_check_node_update(q, mask, alpha_lut), fmt)
            lnew = saturate(q.astype(np.int64) + rnew, fmt)
            r_mem[rows] = rnew
            tr = wiring.next_row[rows][mask]
            ts = wiring.next_slot[rows][mask]
            lq_mem[tr, ts] = lnew[mask]
        iterations += 1
        bits = hard_decision(lq_mem[wiring.home_row, wiring.home_slot])
        if params.early_stop and layout.syndrome_ok(bits):
            converged = True
            break
    final = lq_mem[wiring.home_row, wiring.home_slot].astype(np.int32)
    bits = hard_decision(final)
    if not converged:
        converged = layout.syndrome_ok(bits)
    return DecodeResult(
        hard_bits=bits,
        iterations_run=iterations,
        converged=converged,
        final_llrs=final,
        fmt=fmt,
    )
