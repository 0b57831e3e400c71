"""Precompiled index arrays for fast per-layer decoding.

Decoding touches the same adjacency thousands of times per BER point, so the
padded gather/scatter indices are built once per code and reused across
frames, and so are the large block buffers of the block decoders (see
CodeLayout.scratch).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ..codes.matrix import ParityCheckMatrix, _joined, layer_rows


@dataclass(frozen=True)
class LayerMap:
    """Slot-major gather/scatter map of one layer for the batched decoder.

    ``idx`` is (W, rows), with W the layer's widest row but at least 2 so
    that every row has a second minimum: entry (k, i) is the variable in
    slot k of the layer's row i, and padded slots point at the spare
    variable row N, so a layer reads and writes its variables with one fancy
    index each.  ``pad`` is True at padded slots, which only rows shorter
    than W have, shaped (W, rows, 1) to broadcast over frames, or None when
    the layer has no padded slot.
    ``span`` is the layer's block of rows in the batched extrinsic store,
    which keeps the layers contiguous in sweep order.
    """

    idx: np.ndarray
    pad: np.ndarray | None
    span: slice


_CHECK_CHUNK = 128  # checks per chunk of the batched flooding check update
_VAR_CHUNK = 256  # columns per chunk of the batched flooding variable update


@dataclass(frozen=True)
class SpaPlan:
    """Gather maps of the batched flooding sum-product decoder.

    The checks are grouped by degree d, ascending, and each group is cut in
    equal chunks of at most _CHECK_CHUNK checks, in ascending row order.
    ``checks`` holds one (idx, block) pair per chunk: idx is (d, k), entry
    (s, i) being the variable in slot s of the chunk's check i, and block is
    the chunk's d * k rows of the (E + 1)-row message store, slot-major, so
    no slot is padded and each chunk's messages are one contiguous (d, k)
    block.  The store's last row, E, is a zero spare.  Column j of
    ``var_edges`` lists the store rows of variable j's edges by ascending
    check, padded with the spare.  ``columns`` cuts var_edges in chunks of
    _VAR_CHUNK columns, each with the rows of var_edges that hold an edge
    of one of its columns (at least one).  ``width`` is the code-wide row
    width N_d over which the golden sums each row.
    """

    width: int
    checks: tuple[tuple[np.ndarray, slice], ...]
    var_edges: np.ndarray
    columns: tuple[tuple[slice, tuple[np.ndarray, ...]], ...]

    @classmethod
    def build(cls, layout: "CodeLayout") -> "SpaPlan":
        n = layout.h.n_cols
        deg = layout.mask.sum(axis=1)
        checks, check = [], []  # check holds the check of each store row
        start = 0
        for d in np.unique(deg[deg > 0]).tolist():
            rows = np.flatnonzero(deg == d)
            size = -(-len(rows) // -(-len(rows) // _CHECK_CHUNK))
            for r0 in range(0, len(rows), size):
                chunk = rows[r0:r0 + size]
                idx = np.ascontiguousarray(layout.idx[chunk, :d].T, dtype=np.intp)
                checks.append((idx, slice(start, start + idx.size)))
                check.append(np.broadcast_to(chunk, idx.shape).ravel())
                start += idx.size
        # deal the store rows, sorted by (variable, check), down their columns
        col = np.concatenate([idx.ravel() for idx, _ in checks])
        order = np.lexsort((np.concatenate(check), col))
        col = col[order]
        col_deg = np.bincount(col, minlength=n)
        depth = np.arange(len(col)) - (np.cumsum(col_deg) - col_deg)[col]
        var_edges = np.full((int(col_deg.max()), n), start, dtype=np.intp)
        var_edges[depth, col] = order
        columns = []
        for c0 in range(0, n, _VAR_CHUNK):
            cs = slice(c0, min(c0 + _VAR_CHUNK, n))
            rows = max(int(col_deg[cs].max()), 1)
            columns.append((cs, tuple(var_edges[:rows, cs])))
        return cls(width=layout.n_d, checks=tuple(checks), var_edges=var_edges,
                   columns=tuple(columns))

    @property
    def n_edges(self) -> int:
        """E, the store row of the zero spare."""
        return self.checks[-1][1].stop


@dataclass
class CodeLayout:
    """Index arrays of one code, plus per-thread scratch buffers.

    layer_rows is the code's serving order from codes.matrix.layer_rows.
    The scratch holds the large per-call buffers of both block decoders,
    reused from one call to the next so that a run of blocks does not map
    fresh pages for each: run_ber's (F, N) channel block; for layered NMS
    the frames-last code store and its frame-chunked quantization and the
    (W, rows, F) extrinsic store; for flooding SPA a frames-last copy of
    the channel LLRs, the variable totals, the message store, the per-chunk
    check buffers and the column gather; the frames' (F, N) final values,
    one buffer for both decoders, which never nest on a thread; and the
    batched syndrome's gather.
    Each thread has its own buffers, so threads may decode on one layout at
    once, and they live as long as the layout.  Decode results own their
    arrays: none aliases the scratch.  The golden layered decoder's tables
    (golden_layers) and the SPA decoder's gather maps (spa_plan) are built
    on first use, since only those decoders read them.
    """

    h: ParityCheckMatrix
    n_d: int
    idx: np.ndarray  # (M, N_d) variable index per (row, position), 0-padded
    mask: np.ndarray  # (M, N_d) validity of each position
    layer_rows: list[np.ndarray]  # rows of each layer, ascending, in layer order
    layer_maps: list[LayerMap]  # batched-decoder maps, one per layer
    check_idx: np.ndarray  # (W, M) variable per slot, padded slots at row N
    _scratch: threading.local = field(default_factory=threading.local, init=False, repr=False,
                                      compare=False)

    @classmethod
    def build(cls, h: ParityCheckMatrix) -> "CodeLayout":
        layers = layer_rows(h)
        m = h.n_rows
        flat, deg = _joined(h.rows)
        n_d = int(deg.max())
        mask = np.arange(n_d) < deg[:, None]
        idx = np.zeros((m, n_d), dtype=np.int32)
        idx[mask] = flat

        # the two-smallest pass needs two slots per row, so degree-1 codes get a pad
        w = max(n_d, 2)
        check_idx = np.full((w, m), h.n_cols, dtype=np.intp)
        check_idx[:n_d].T[mask] = idx[mask]
        # each layer is cut to its own widest row, so only shorter rows pad
        layer_maps = []
        start = 0
        for rows in layers:
            width = max(int(deg[rows].max(initial=0)), 2)
            lidx = np.ascontiguousarray(check_idx[:width, rows])
            pad = lidx == h.n_cols
            span = slice(start, start + len(rows))
            layer_maps.append(LayerMap(lidx, pad[:, :, None] if pad.any() else None, span))
            start = span.stop
        return cls(h=h, n_d=n_d, idx=idx, mask=mask, layer_rows=layers,
                   layer_maps=layer_maps, check_idx=check_idx)

    @cached_property
    def golden_layers(self) -> tuple[tuple[np.ndarray, np.ndarray | None, np.ndarray], ...]:
        """The golden layered decoder's row-major tables, built on first use.

        Per layer: idx, (rows, W) with W the layer's widest row but at least
        2, holding the variable in each row's slots and N, the spare
        variable slot, in padded ones; the (rows, W) pad mask, or None when
        the layer has no padded slot; and the row indices 0..rows-1.
        """
        n = self.h.n_cols
        layers = []
        for rows in self.layer_rows:
            mask = self.mask[rows]
            width = int(mask.sum(axis=1).max(initial=0))
            idx = np.full((len(rows), max(width, 2)), n, dtype=np.intp)
            idx[:, :width][mask[:, :width]] = self.idx[rows][mask]
            pad = idx == n
            layers.append((idx, pad if pad.any() else None, np.arange(len(rows))))
        return tuple(layers)

    @cached_property
    def spa_plan(self) -> SpaPlan:
        """The flooding SPA decoder's gather maps, built on first use."""
        return SpaPlan.build(self)

    def scratch(self, name: str, shape: tuple[int, ...], dtype) -> np.ndarray:
        """This thread's buffer called name, as a C-contiguous array of shape
        and dtype with undefined contents.

        The buffer only grows, so the array is valid until the next request
        for the same name on this thread; callers that nest must use
        different names.
        """
        nbytes = math.prod(shape) * np.dtype(dtype).itemsize
        buf = getattr(self._scratch, name, None)
        if buf is None or len(buf) < nbytes:
            buf = np.empty(nbytes, dtype=np.uint8)
            setattr(self._scratch, name, buf)
        return buf[:nbytes].view(dtype).reshape(shape)

    def syndrome_ok(self, bits: np.ndarray) -> bool:
        """True iff every row's parity over its variables is zero.

        bits is (N,) and only the low bit of each value counts.  A uint8
        copy of it gets a zero at row N, where check_idx's padded slots
        point, and each check's parity is the low bit of the XOR over its
        column of the (W, M) gather: one byte-wide pass per slot.
        """
        n = self.h.n_cols
        padded = np.empty(n + 1, dtype=np.uint8)
        padded[:n] = bits
        padded[n] = 0
        par = np.bitwise_xor.reduce(padded.take(self.check_idx), axis=0)
        return not np.bitwise_and(par, 1, out=par).any()

    def syndrome_ok_batch(self, lq: np.ndarray) -> np.ndarray:
        """Per-frame syndrome of the hard decisions of frames-last codes.

        lq is (N + 1, F) LLR codes whose row N, the pad slot, is ignored;
        returns an (F,) bool array, True where every parity check holds.
        Each check XORs eight frames at a time: the frames' one-byte hard
        decisions, padded to a multiple of eight, are read as uint64 words,
        and a byte of the XOR is the parity of its frame.  Bytes never mix,
        so the padding bytes, left as they were, only fill lanes that are
        cut off at the end.
        """
        n_frames = lq.shape[1]
        words = -(-n_frames // 8)
        bits = self.scratch("syndrome_bits", (len(lq), words * 8), bool)
        np.less(lq, 0, out=bits[:, :n_frames])
        bits[-1] = False
        gathered = self.scratch("syndrome_gather", (*self.check_idx.shape, words), np.uint64)
        # mode="clip" takes the valid indices unbuffered; "raise" would copy via a temporary
        np.take(bits.view(np.uint64), self.check_idx, axis=0, out=gathered, mode="clip")
        par = np.bitwise_xor.reduce(gathered, axis=0)
        # or over the checks; the transposed copy makes it one pass per word
        failed = np.bitwise_or.reduce(np.ascontiguousarray(par.T), axis=1)
        return ~failed.view(bool)[:n_frames]
