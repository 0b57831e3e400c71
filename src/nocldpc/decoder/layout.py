"""Precompiled index arrays for fast per-layer decoding.

Decoding touches the same adjacency thousands of times per BER point, so the
padded gather/scatter indices are built once per code and reused across
frames, and so are the large block buffers of the layered decoder (see
CodeLayout.scratch).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

import numpy as np

from ..codes.matrix import ParityCheckMatrix, _joined, compute_layers


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


@dataclass
class CodeLayout:
    """Index arrays of one code, plus per-thread scratch buffers.

    The scratch holds the large per-call buffers of the layered-NMS block
    path, reused from one call to the next so that a run of blocks does not
    map fresh pages for each: run_ber's (F, N) channel block, the frames-last
    code store and its frame-chunked quantization, the (W, rows, F)
    extrinsic store, the frames' final codes and the batched syndrome's
    gather.  Each thread has its own buffers, so threads may decode on one
    layout at once, and they live as long as the layout.  Decode results
    own their arrays: none aliases the scratch.
    """

    h: ParityCheckMatrix
    n_d: int
    idx: np.ndarray  # (M, N_d) variable index per (row, position), 0-padded
    mask: np.ndarray  # (M, N_d) validity of each position
    layer_rows: list[np.ndarray]  # rows of each layer, ascending
    layer_maps: list[LayerMap]  # batched-decoder maps, one per layer
    check_idx: np.ndarray  # (W, M) variable per slot, padded slots at row N
    var_edges: np.ndarray  # (d_v, N) flat slot of each column's edges, see build
    _scratch: threading.local = field(default_factory=threading.local, init=False, repr=False,
                                      compare=False)

    @classmethod
    def build(cls, h: ParityCheckMatrix) -> "CodeLayout":
        if h.layers is None:
            compute_layers(h)
        m = h.n_rows
        flat, deg = _joined(h.rows)
        n_d = int(deg.max())
        mask = np.arange(n_d) < deg[:, None]
        idx = np.zeros((m, n_d), dtype=np.int32)
        idx[mask] = flat
        layer_rows = [np.sort(np.asarray(l, dtype=np.int64)) for l in h.layers]

        # the two-smallest pass needs two slots per row, so degree-1 codes get a pad
        w = max(n_d, 2)
        check_idx = np.full((w, m), h.n_cols, dtype=np.intp)
        check_idx[:n_d].T[mask] = idx[mask]
        # each layer is cut to its own widest row, so only shorter rows pad
        layer_maps = []
        start = 0
        for rows in layer_rows:
            width = max(int(deg[rows].max(initial=0)), 2)
            lidx = np.ascontiguousarray(check_idx[:width, rows])
            pad = lidx == h.n_cols
            span = slice(start, start + len(rows))
            layer_maps.append(LayerMap(lidx, pad[:, :, None] if pad.any() else None, span))
            start = span.stop

        # column j of var_edges lists the (slot k, check r) edges of variable
        # j as flat indices k * M + r into a (W * M + 1)-row store, by
        # ascending check; columns of lower degree are padded with the spare
        # last row
        slot, check = np.nonzero(check_idx != h.n_cols)
        col = check_idx[slot, check]
        order = np.lexsort((check, col))
        col = col[order]
        deg = np.bincount(col, minlength=h.n_cols)
        depth = np.arange(len(col)) - (np.cumsum(deg) - deg)[col]
        var_edges = np.full((int(deg.max()), h.n_cols), w * m, dtype=np.intp)
        var_edges[depth, col] = (slot * m + check)[order]
        return cls(h=h, n_d=n_d, idx=idx, mask=mask, layer_rows=layer_rows,
                   layer_maps=layer_maps, check_idx=check_idx, var_edges=var_edges)

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
        """True iff every row's parity over its variables is zero."""
        par = (bits[self.idx].astype(np.int32) & self.mask).sum(axis=1) & 1
        return not par.any()

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
