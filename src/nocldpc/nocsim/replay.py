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
   is written exactly once at a WAG address inside the PE's blocks, every
   RM word is the packed word of its settings, no FIFO outgrows its
   declared depth, the last flit lands in cycle k_i - 1, and the declared
   slot map, N_d, N_pc and CNT/CMP tables match the schedule's.  The
   result is the validated dataflow wiring between memory slots.

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
from ..configgen.image import (
    ConfigImage,
    fill_free_slots,
    pack_rm_word,
    read_side,
    slot_map,
    unpack_rm_word,
)
from ..decoder.layout import CodeLayout
from ..decoder.nms import DecodeParams, DecodeResult, _channel_llrs, _layered_sweep, _store_dtype
from ..fixedpoint import quantize
from ..mapper import Mapping
from .engine import HOP_CYCLES, LOCAL, CycleEngine
from .schedule import DST_CHECK, DST_POS, DST_PE, SRC_CHECK, VAR, WRAP, _schedule_for
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
    mapping_digest = mapping.content_digest()
    if config.mapping_digest != mapping_digest:
        raise ReplayIntegrityError("configuration was generated from a different mapping")
    h_digest = h.content_digest()
    if config.h_digest != h_digest:
        raise ReplayIntegrityError("configuration was generated from a different code")

    if config.p != mapping.p:
        raise ReplayIntegrityError(f"image is for {config.p} PEs, mapping for {mapping.p}")
    if config.k_i != trace.k_i:
        raise ReplayIntegrityError(f"image runs {config.k_i} cycles, trace {trace.k_i}")
    if config.pipeline_depth != trace.pipeline_depth:
        raise ReplayIntegrityError(
            f"image has PE pipeline depth {config.pipeline_depth}, trace {trace.pipeline_depth}"
        )
    schedule = _schedule_for(h, mapping, (h_digest, mapping_digest))
    p = config.p
    links = Topology(config.n).links()
    n_d, n_pc, cnt_cmp = read_side(schedule)
    if (config.n_d, config.n_pc) != (n_d, n_pc):
        raise ReplayIntegrityError(f"image declares N_d {config.n_d} and N_pc {config.n_pc}, "
                                   f"the schedule reads with {n_d} and {n_pc}")
    for pe in range(p):
        if config.cnt_cmp[pe] != cnt_cmp[pe]:
            raise ReplayIntegrityError(f"CNT/CMP table mismatch on PE {pe}")

    # walk the routing memories through the shared timing model; the flits
    # are the schedule's uids, injected per PE in serving order
    engine = CycleEngine(schedule, config.pipeline_depth)
    fifos, queued, deliveries = engine.fifos, engine.queued, engine.deliveries
    dst_pe = schedule.network_flits[:, DST_PE].tolist()
    dst_check = schedule.dst_check
    serve, deg = schedule.order, schedule.deg
    selections: dict[int, list[tuple[int, int]]] = {}  # RM word -> crossbar settings
    wag_next = [0] * p
    slot_of_uid = [-1] * schedule.n_network  # the slot the WAG gives each flit
    written: set[int] = set()  # check * n_d + slot, as slot < n_d

    rm, wag = config.rm, config.wag
    for t in range(config.k_i):
        engine.step(t)
        hop_done = []
        for node in range(p):
            word = rm[node][t]
            if not word:
                continue
            sel = selections.get(word)
            if sel is None:
                sel = selections[word] = unpack_rm_word(word)
                if any(inp > LOCAL for _, inp in sel):
                    raise ReplayIntegrityError(f"RM word {word:#x} selects an input port above {LOCAL}")
                if pack_rm_word(sel) != word:
                    raise ReplayIntegrityError(f"RM word {word:#x} is not the packed word of its "
                                               "crossbar settings")
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
                if dst_pe[uid] != node:
                    raise ReplayIntegrityError(
                        f"cycle {t}: flit for PE {dst_pe[uid]} ejected at {node}"
                    )
                k = wag_next[node]
                if k >= len(wag[node]):
                    raise ReplayIntegrityError(f"PE {node}: WAG table exhausted")
                addr = wag[node][k]
                wag_next[node] = k + 1
                pos_in_order, slot = divmod(addr, n_d)
                order = serve[node]
                if not 0 <= pos_in_order < len(order):
                    raise ReplayIntegrityError(f"PE {node}: WAG address {addr} out of range")
                check = order[pos_in_order]
                if check != dst_check[uid] or slot >= deg[check]:
                    raise ReplayIntegrityError(
                        f"cycle {t}: WAG address {addr} routes to check {check}, "
                        f"flit belongs to {dst_check[uid]}"
                    )
                row = check * n_d + slot
                if row in written:
                    raise ReplayIntegrityError(f"check {check}: slot {slot} assigned twice")
                written.add(row)
                slot_of_uid[uid] = slot
                hop_done.append((node, LOCAL, uid))
        if hop_done:
            deliveries[t + HOP_CYCLES] = hop_done

    # stop rule: every flit has landed within the k_i cycles and the last
    # one lands in the last of them, as the simulator defines k_i; a flit
    # still queued or in flight has not landed
    if engine.delivered != schedule.n_network:
        raise ReplayIntegrityError(
            f"{engine.delivered} of {schedule.n_network} flits delivered by the program "
            f"within {config.k_i} cycles"
        )
    last = max(engine.receipt_cycle, default=-1)
    if last != config.k_i - 1:
        raise ReplayIntegrityError(f"the program's last flit lands at cycle {last}, "
                                   f"k_i is {config.k_i}")
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

    # every flit has landed, so each network input has its slot
    deg = np.asarray(deg, dtype=np.int64)
    first = np.cumsum(deg) - deg
    slots = np.full(len(schedule.emissions), -1, dtype=np.int64)
    flits = schedule.network_flits
    slots[first[flits[:, DST_CHECK]] + flits[:, DST_POS]] = slot_of_uid
    fill_free_slots(slots, schedule.deg)
    if not np.array_equal(slot_map(schedule, slots), config.slots):
        raise ReplayIntegrityError("declared slot map differs from the RM walk")

    return _build_wiring(h, schedule, slots, n_d)


def _build_wiring(h, schedule, slots, n_d) -> ReplayWiring:
    layout = CodeLayout.build(h)
    # a slot without an emission keeps its value; a variable's wrap emission
    # targets its chain head, the slot that holds its value between iterations.
    # Emission row r leaves (check, position) r, so its source row of the
    # store is src_check * n_d + slots[r].
    e = schedule.emissions
    deg = np.asarray(schedule.deg, dtype=np.int64)
    target = (np.cumsum(deg) - deg)[e[:, DST_CHECK]] + e[:, DST_POS]
    dst = e[:, DST_CHECK] * n_d + slots[target]
    successor = np.arange(h.n_rows * n_d + h.n_cols + 1, dtype=np.intp)
    successor[e[:, SRC_CHECK] * n_d + slots] = dst
    # a variable in no check gets a row of its own after the slots
    home = np.full(h.n_cols, -1, dtype=np.intp)
    wrap = e[:, WRAP] == 1
    home[e[wrap, VAR]] = dst[wrap]
    lone = home < 0
    spare = h.n_rows * n_d
    home[lone] = spare + np.arange(np.count_nonzero(lone))
    spare += np.count_nonzero(lone)
    home = np.append(home, spare)
    successor = successor[:spare + 1]
    # slot k of row m is live iff k < deg(m), so the slots pad where the
    # layout's variable maps do
    maps = []
    for rows, lm in zip(layout.layer_rows, layout.layer_maps):
        gather = rows * n_d + np.arange(len(lm.idx))[:, None]
        gather[lm.idx == h.n_cols] = spare
        maps.append((gather, successor[gather]))
    return ReplayWiring(maps=maps, home=home)


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
    llrs = _channel_llrs(h, channel_llrs, frames=False)
    if wiring is None:
        wiring = validate_config(h, mapping, trace, config)
    if layout is None:
        layout = CodeLayout.build(h)
    store = np.zeros((wiring.home[-1] + 1, 1), dtype=_store_dtype(params.fmt))
    store[wiring.home[:-1], 0] = quantize(llrs, params.fmt)
    return _layered_sweep(layout, params, store, wiring.maps, wiring.home)[0]
