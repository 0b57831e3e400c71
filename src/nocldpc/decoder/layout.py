"""Precompiled index arrays for fast per-layer decoding.

Decoding touches the same adjacency thousands of times per BER point, so the
padded gather/scatter indices are built once per code and reused across
frames.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..codes.matrix import ParityCheckMatrix, _joined, compute_layers


@dataclass(frozen=True)
class LayerMap:
    """Slot-major gather/scatter map of one layer for the batched decoder.

    ``idx`` is (W, rows) with W = max(N_d, 2): entry (k, i) is the variable
    in slot k of the layer's row i, and padded slots point at the spare
    variable row N, so a layer reads and writes its variables with one fancy
    index each.  ``pad`` is True at padded slots, shaped (W, rows, 1) to
    broadcast over frames, or None when the layer has no padded slot.
    ``span`` is the layer's block of rows in the batched extrinsic store,
    which keeps the layers contiguous in sweep order.
    """

    idx: np.ndarray
    pad: np.ndarray | None
    span: slice


@dataclass
class CodeLayout:
    h: ParityCheckMatrix
    n_d: int
    idx: np.ndarray  # (M, N_d) variable index per (row, position), 0-padded
    mask: np.ndarray  # (M, N_d) validity of each position
    layer_rows: list[np.ndarray]  # rows of each layer, ascending
    layer_maps: list[LayerMap]  # batched-decoder maps, one per layer
    check_idx: np.ndarray  # (W, M) variable per slot, padded slots at row N
    var_edges: np.ndarray  # (d_v, N) flat slot of each column's edges, see build

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
        layer_maps = []
        start = 0
        for rows in layer_rows:
            lidx = np.ascontiguousarray(check_idx[:, rows])
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

    def syndrome_ok(self, bits: np.ndarray) -> bool:
        """True iff every row's parity over its variables is zero."""
        par = (bits[self.idx].astype(np.int32) & self.mask).sum(axis=1) & 1
        return not par.any()

    def syndrome_ok_batch(self, lq: np.ndarray) -> np.ndarray:
        """Per-frame syndrome of the hard decisions of frames-last codes.

        lq is (N + 1, F) LLR codes whose row N, the pad slot, is ignored;
        returns an (F,) bool array, True where every parity check holds.
        """
        bits = lq < 0
        bits[-1] = False
        par = np.logical_xor.reduce(bits[self.check_idx], axis=0)
        return ~par.any(axis=0)
