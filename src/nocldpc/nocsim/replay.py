"""Table-driven re-execution of decoding through a configuration image.

The product NoC carries no headers and takes no routing decisions: every
cycle each router applies one routing-memory word, and every PE writes
arrivals at WAG addresses and reads blocks per CNT/CMP.  Replay therefore
has two parts:

1. validate_config walks the routing memories cycle by cycle with identity
   tokens (a PE's injection order is fixed by its serving schedule, so the
   k-th flit out of a PE is known without headers).  PE timing comes from
   the simulator's own timing model (engine.CycleEngine), driven by the
   deliveries the RM produces.  The walk checks that every pop finds a
   flit, every ejection lands at its host PE in WAG order, every block slot
   is written exactly once, no FIFO outgrows its declared depth, the
   network is drained after k_i cycles, and the declared slot map matches.
   The result is the validated dataflow wiring between memory slots.

2. replay_decode runs frames over that wiring: values live in the per-PE
   L(q) block memories, check updates use the same saturating kernel as the
   golden decoder, and each output value moves to the successor slot the
   network was just proven to deliver it to.  The outcome must match the
   golden layered decoder bit for bit.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from ..codes.matrix import ParityCheckMatrix
from ..configgen.image import ConfigImage, fill_free_slots, unpack_rm_word
from ..decoder.layout import CodeLayout
from ..decoder.nms import DecodeParams, DecodeResult, _check_node_update, hard_decision
from ..fixedpoint import quantize, reciprocal_scale_table, saturate
from ..mapper import Mapping
from .engine import HOP_CYCLES, LOCAL, CycleEngine
from .schedule import build_schedule
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
    degs = [len(row) for row in h.rows]

    for pe in range(p):
        want = [(serve_pos[m] * n_d, degs[m]) for m in mapping.order[pe]]
        if [tuple(x) for x in config.cnt_cmp[pe]] != want:
            raise ReplayIntegrityError(f"CNT/CMP table mismatch on PE {pe}")

    # walk the routing memories through the shared timing model; the flits
    # are the schedule's uids, injected per PE in serving order
    engine = CycleEngine(schedule, config.pipeline_depth)
    fifos, queued, deliveries = engine.fifos, engine.queued, engine.deliveries
    flits = schedule.network_flits
    serve = schedule.order
    selections: dict[int, list[tuple[int, int]]] = {}  # RM word -> crossbar settings
    wag_next = [0] * p
    slot_of: dict[tuple[int, int], int] = {}
    written: set[tuple[int, int]] = set()  # (check, slot)

    for t in range(config.k_i):
        engine.step(t)
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
                uid = q.popleft()
                queued[node] -= 1
                if out != LOCAL:
                    nbr, port = links[node][out]
                    hop_done.append((nbr, port, uid))
                    continue
                e = flits[uid]
                if e.dst_pe != node:
                    raise ReplayIntegrityError(
                        f"cycle {t}: flit for PE {e.dst_pe} ejected at {node}"
                    )
                if wag_next[node] >= len(config.wag[node]):
                    raise ReplayIntegrityError(f"PE {node}: WAG table exhausted")
                addr = config.wag[node][wag_next[node]]
                wag_next[node] += 1
                pos_in_order, slot = divmod(addr, n_d)
                if pos_in_order >= len(serve[node]):
                    raise ReplayIntegrityError(f"PE {node}: WAG address {addr} out of range")
                check = serve[node][pos_in_order]
                if check != e.dst_check or slot >= degs[check]:
                    raise ReplayIntegrityError(
                        f"cycle {t}: WAG address {addr} routes to check {check}, "
                        f"flit belongs to {e.dst_check}"
                    )
                if (check, slot) in written:
                    raise ReplayIntegrityError(f"check {check}: slot {slot} assigned twice")
                written.add((check, slot))
                slot_of[(check, e.dst_pos)] = slot
                hop_done.append((node, LOCAL, uid))
        if hop_done:
            deliveries[t + HOP_CYCLES] = hop_done

    # stop rule: after k_i cycles only ejections may still be in flight
    delivered = engine.delivered
    for moves in deliveries.values():
        if any(port != LOCAL for _node, port, _uid in moves):
            raise ReplayIntegrityError("flit still on a link after k_i cycles")
        delivered += len(moves)
    if delivered != schedule.n_network:
        raise ReplayIntegrityError(
            f"{delivered} of {schedule.n_network} flits delivered by the program"
        )
    if any(queued):
        raise ReplayIntegrityError("flits left in FIFOs after k_i cycles")
    for pe in range(p):
        if wag_next[pe] != len(config.wag[pe]):
            raise ReplayIntegrityError(f"PE {pe}: WAG table not fully consumed")
    short = np.argwhere(config.fifo_depth < np.array(engine.fifo_max))
    if len(short):
        node, port = short[0].tolist()
        raise ReplayIntegrityError(
            f"node {node}: FIFO {port} holds {engine.fifo_max[node][port]} flits, "
            f"depth is {config.fifo_depth[node, port]}"
        )

    fill_free_slots(slot_of, degs)
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
