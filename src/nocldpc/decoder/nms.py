"""Fixed-point layered normalized min-sum decoding.

Golden model of the hardware datapath: per layer, each check subtracts its
stored extrinsic from the running variable LLR, extracts the two smallest
magnitudes and the sign parity, scales by the reciprocal of the
normalization factor, and writes the refreshed extrinsic and variable LLR
back.  All arithmetic saturates in the configured n_m format.

Sign convention: the new extrinsic for position j carries the product of the
signs of the other operands (an even number of negative inputs yields a
positive extrinsic), which is the convergent min-sum update for LLRs defined
as log(P0/P1).

decode_layered_nms and layer_update are the plain reference.  The one
production kernel is _layered_sweep, a frames-last sweep over per-layer
gather/scatter maps: decode_layered_nms_batch runs it through the variable
index and the NoC replay (nocsim.replay) through configured memory slots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..fixedpoint import QFormat, quantize, reciprocal_scale_table, saturate
from ..codes.matrix import ParityCheckMatrix
from .layout import CodeLayout

_PAD_MAG = np.int32(1) << 30


@dataclass
class DecodeParams:
    alpha: float = 1.15
    it_max: int = 10
    fmt: QFormat = field(default_factory=QFormat)
    early_stop: bool = True

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha >= 1.0):
            raise ValueError(f"normalization factor must be finite and >= 1, got {self.alpha}")
        if self.it_max < 1:
            raise ValueError(f"it_max must be >= 1, got {self.it_max}")


@dataclass
class DecodeResult:
    hard_bits: np.ndarray  # uint8, length N
    iterations_run: int
    converged: bool
    final_llrs: np.ndarray  # int32 codes (fixed point) or float64 (float oracle)
    fmt: QFormat | None = None


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


def _check_node_update(q: np.ndarray, mask: np.ndarray, alpha_lut: np.ndarray) -> np.ndarray:
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
    rnew = _check_node_update(q, mask, alpha_lut)
    rnew = saturate(rnew, state.fmt)
    lq_new = saturate(q.astype(np.int64) + rnew, state.fmt)

    state.r[rows] = rnew
    state.lq[idx[mask]] = lq_new[mask]  # disjoint support inside a layer
    return state


def hard_decision(lq_codes: np.ndarray) -> np.ndarray:
    """Bit = 1 iff the LLR is negative; an exact zero decodes to 0."""
    return (lq_codes < 0).astype(np.uint8)


def syndrome_check(h: ParityCheckMatrix, hard_bits, layout: CodeLayout | None = None) -> bool:
    """True iff H * bits = 0 over GF(2)."""
    bits = np.asarray(hard_bits, dtype=np.uint8)
    if len(bits) != h.n_cols:
        raise ValueError(f"expected {h.n_cols} bits, got {len(bits)}")
    if layout is None:
        layout = CodeLayout.build(h)
    return layout.syndrome_ok(bits)


def decode_layered_nms(
    h: ParityCheckMatrix,
    channel_llrs,
    params: DecodeParams,
    layout: CodeLayout | None = None,
) -> DecodeResult:
    """Decode one frame with the fixed-point layered normalized min-sum.

    Variable LLRs start from the quantized received soft values and all
    extrinsics from zero; layers are swept in order.  With early_stop on,
    decoding ends after the first iteration whose hard decisions satisfy
    every parity check.
    """
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


def _two_smallest(mag: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Smallest and second smallest over the slot axis, counting repeats.

    A tie for the minimum gives m2 == m1.  One pass over the W >= 2 slots;
    np.partition along this axis costs several times more.
    """
    m1 = np.minimum(mag[0], mag[1])
    m2 = np.maximum(mag[0], mag[1])
    for slot in mag[2:]:
        np.minimum(m2, np.maximum(m1, slot), out=m2)
        np.minimum(m1, slot, out=m1)
    return m1, m2


def _code_store(n_rows: int, n_frames: int, fmt: QFormat) -> np.ndarray:
    """Zeroed frames-last code store for _layered_sweep.

    Codes are int16 up to 14-bit formats, where every intermediate sum of
    two saturated codes still fits, and int32 above.
    """
    return np.zeros((n_rows, n_frames), dtype=np.int16 if fmt.n_bits <= 14 else np.int32)


def _layered_sweep(
    layout: CodeLayout,
    params: DecodeParams,
    store: np.ndarray,
    maps: list[tuple[np.ndarray, np.ndarray]],
    home: np.ndarray | None = None,
) -> list[DecodeResult]:
    """Layered normalized min-sum over a frames-last code store.

    store is (S, F) codes from _code_store whose last row is the spare slot
    that padded positions read and write.  maps holds one (gather, scatter)
    pair per layer of layout, each shaped like its LayerMap.idx: the code in
    slot k of the layer's row i is read from store row gather[k, i], and its
    update is written to row scatter[k, i].  home, when given, is the
    (N + 1,) store row of each variable's current code followed by the spare
    row; without it, store rows 0..N-1 are the variables themselves.  The
    extrinsics are (W, rows, F) with each layer a contiguous block of rows.
    Each frame's result is taken at the first iteration whose syndrome it
    satisfies; the batch runs until every frame has converged or it_max is
    reached.  Converged frames are not compacted out: at 32 frames the
    per-call overhead dominates, and copying the state was slower than
    carrying them along.
    """
    fmt = params.fmt
    sign_shift = store.dtype.itemsize * 8 - 1
    n, n_frames = layout.h.n_cols, store.shape[1]
    lut = reciprocal_scale_table(params.alpha, fmt).astype(store.dtype)
    # bounds of the store's own type: np.clip with Python ints looks up the
    # dtype's limits on every call, which dominates at a few frames
    lo, hi = store.dtype.type(fmt.min_code), store.dtype.type(fmt.max_code)
    clip_positive = lut[-1] > hi  # alpha near 1 maps |min_code| past max_code
    # padded slots read as +|min_code|: never below a real magnitude, and the
    # golden clamps an empty minimum to the same table entry
    pad_floor = [None if lm.pad is None else np.where(lm.pad, len(lut) - 1, lo).astype(store.dtype)
                 for lm in layout.layer_maps]
    r_rows = sum(len(rows) for rows in layout.layer_rows)
    r = np.zeros((layout.check_idx.shape[0], r_rows, n_frames), dtype=store.dtype)

    def variables():
        return store if home is None else np.take(store, home, axis=0)

    final = np.empty((n_frames, n), dtype=np.int32)
    iterations = np.full(n_frames, params.it_max)
    converged = np.zeros(n_frames, dtype=bool)
    done = np.zeros(n_frames, dtype=bool)  # result taken; the frame still rides along
    for it in range(1, params.it_max + 1):
        for lm, floor, (gather, scatter) in zip(layout.layer_maps, pad_floor, maps):
            r_l = r[:, lm.span]
            q = np.take(store, gather, axis=0)
            q -= r_l
            q.clip(lo, hi, out=q)
            if floor is not None:
                np.maximum(q, floor, out=q)
            mag = np.abs(q)
            m1, m2 = _two_smallest(mag)
            # slots at the minimum take lut[m2], the rest lut[m1]; a tied
            # minimum has m2 == m1, which is the golden lowest-index rule
            a1 = np.take(lut, m1)
            rmag = (mag == m1) * (np.take(lut, m2) - a1)
            rmag += a1
            odd_others = q >> sign_shift  # 0 or -1 per slot
            odd_others ^= np.bitwise_xor.reduce(odd_others, axis=0)
            np.bitwise_xor(rmag, odd_others, out=r_l)
            r_l -= odd_others  # two's complement: -rmag where odd_others is -1
            if clip_positive:
                np.minimum(r_l, hi, out=r_l)
            q += r_l
            q.clip(lo, hi, out=q)
            store[scatter] = q
        if not params.early_stop:
            continue
        lq = variables()
        ok = layout.syndrome_ok_batch(lq) & ~done
        if ok.any():
            final[ok] = lq[:n, ok].T
            iterations[ok] = it
            converged[ok] = True
            done |= ok
            if done.all():
                break
    lq = variables()
    final[~done] = lq[:n, ~done].T
    if not params.early_stop:
        converged = layout.syndrome_ok_batch(lq)
    return [
        DecodeResult(
            hard_bits=hard_decision(final[f]),
            iterations_run=int(iterations[f]),
            converged=bool(converged[f]),
            final_llrs=final[f],
            fmt=fmt,
        )
        for f in range(n_frames)
    ]


def decode_layered_nms_batch(
    h: ParityCheckMatrix,
    channel_llrs,
    params: DecodeParams,
    layout: CodeLayout | None = None,
) -> list[DecodeResult]:
    """Decode F frames at once with the layered normalized min-sum.

    channel_llrs is (F, N).  Result f equals decode_layered_nms on row f in
    bits, iterations_run, converged and final_llrs.  The variable codes are
    an (N + 1, F) store, row N being the spare slot, and every layer gathers
    and scatters through the variable index of its LayerMap.
    """
    llrs = np.asarray(channel_llrs, dtype=np.float64)
    if llrs.ndim != 2 or llrs.shape[1] != h.n_cols:
        raise ValueError(f"expected (frames, {h.n_cols}) channel LLRs, got {llrs.shape}")
    if layout is None:
        layout = CodeLayout.build(h)
    store = _code_store(h.n_cols + 1, len(llrs), params.fmt)
    store[:-1] = quantize(llrs, params.fmt).T
    return _layered_sweep(layout, params, store, [(lm.idx, lm.idx) for lm in layout.layer_maps])
