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

2. replay_decode runs frames over that wiring on the frames-last layered
   kernel of decoder.nms, the one that decode_layered_nms_batch runs.
   Values live in the PEs' L(q) block memories, flattened to one store of
   (check, slot) rows.  Each layer gathers its rows' own slots and scatters
   every output value to the successor slot the network was just proven to
   deliver it to; the final LLRs and the syndrome read each variable's
   home slot.  Golden and replay thus differ only in their slot maps, and
   the outcome must match the golden layered decoder bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..codes.matrix import ParityCheckMatrix
from ..configgen.image import ConfigImage, fill_free_slots, unpack_rm_word
from ..decoder.layout import CodeLayout
from ..decoder.nms import DecodeParams, DecodeResult, _code_store, _layered_sweep
from ..fixedpoint import quantize
from ..mapper import Mapping
from .engine import HOP_CYCLES, LOCAL, CycleEngine
from .schedule import build_schedule
from .topology import Topology
from .trace import NocTrace


class ReplayIntegrityError(ValueError):
    pass


@dataclass
class ReplayWiring:
    """Validated slot-level dataflow extracted from a configuration image.

    Store row m * n_d + k is slot k of check m's L(q) block.  A variable in
    no check gets a row of its own after the slots, and the last row is the
    spare that padded slots read and write.
    """

    maps: list[tuple[np.ndarray, np.ndarray]]  # per layer: own slots, successor slots
    home: np.ndarray  # (N + 1,) row of each variable's latest value, then the spare


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
    if config.mapping_digest != mapping.content_digest():
        raise ReplayIntegrityError("configuration was generated from a different mapping")
    if config.h_digest != h.content_digest():
        raise ReplayIntegrityError("configuration was generated from a different code")

    if config.p != mapping.p:
        raise ReplayIntegrityError(f"image is for {config.p} PEs, mapping for {mapping.p}")
    if config.k_i != trace.k_i:
        raise ReplayIntegrityError(f"image runs {config.k_i} cycles, trace {trace.k_i}")
    if config.pipeline_depth != trace.pipeline_depth:
        raise ReplayIntegrityError(
            f"image has PE pipeline depth {config.pipeline_depth}, trace {trace.pipeline_depth}"
        )
    schedule = build_schedule(h, mapping)
    p = config.p
    links = Topology(config.n).links()
    n_d = config.n_d
    serve_pos = schedule.serve_pos
    degs = [len(row) for row in h.rows]

    for pe in range(p):
        want = tuple((serve_pos[m] * n_d, degs[m]) for m in mapping.order[pe])
        if config.cnt_cmp[pe] != want:
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
    layout = CodeLayout.build(h)
    # a slot without an emission keeps its value; a variable's wrap emission
    # targets its chain head, the slot that holds its value between iterations
    successor = list(range(h.n_rows * n_d))
    home = [-1] * h.n_cols
    for ems in schedule.emissions:
        for e in ems:
            dst = e.dst_check * n_d + slot_of[(e.dst_check, e.dst_pos)]
            successor[e.src_check * n_d + slot_of[(e.src_check, e.src_pos)]] = dst
            if e.wrap:
                home[e.var] = dst
    spare = len(successor)
    for j in range(h.n_cols):
        if home[j] < 0:
            home[j] = spare
            spare += 1
    home.append(spare)
    successor = np.array(successor + list(range(len(successor), spare + 1)), dtype=np.intp)
    # slot k of row m is live iff k < deg(m), so the slots pad where the
    # layout's variable maps do
    maps = []
    for rows, lm in zip(layout.layer_rows, layout.layer_maps):
        gather = rows * n_d + np.arange(len(lm.idx))[:, None]
        gather[lm.idx == h.n_cols] = spare
        maps.append((gather, successor[gather]))
    return ReplayWiring(maps=maps, home=np.array(home, dtype=np.intp))


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

    store = _code_store(wiring.home[-1] + 1, 1, params.fmt)
    store[wiring.home[:-1], 0] = quantize(llrs, params.fmt)
    return _layered_sweep(layout, params, store, wiring.maps, wiring.home)[0]
