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

decode_layered_nms is the golden: a plain row-major transcription of the
datapath, one frame at a time, sharing no code with the production kernel.
It reads each layer's tables from CodeLayout.golden_layers, built once per
layout: the layer's rows cut to its widest row (at least two slots, so
every row has a second minimum), with padded slots pointing at a spare
variable slot, and their pad mask.  Each call gives each layer its
extrinsics as one contiguous block.  It computes in int32, which holds
every difference and sum of two codes of the widest (24-bit) format.

The one production kernel is _layered_sweep, a frames-last sweep over
per-layer gather/scatter maps: decode_layered_nms_batch runs it through the
variable index and the NoC replay (nocsim.replay) through configured memory
slots.  Its two smallest magnitudes per row come from one np.sort over the
slot axis when the store holds one frame, as replay's does, and from a
pass over the slots when it holds more: there one ufunc call per slot moves
all frames at once, and a sort or partition along the slot axis costs
several times more.  Its gathers call the ndarray.take method, not
np.take: the result is the same, and the method skips the Python wrapper
of the function, about a microsecond on each of a layer's few calls, which
is a visible share of a one-frame layer.

The per-frame bookkeeping of a block decode is _Ledger, which the sweep and
the flooding SPA block decoder share: it takes each frame's result at its
first passing syndrome and tells the decoder when to move the columns of
frames still decoding to the front of its buffers (_front).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..fixedpoint import QFormat, quantize, reciprocal_scale_table, round_codes
from ..codes.matrix import ParityCheckMatrix
from .layout import CodeLayout


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


def hard_decision(lq_codes: np.ndarray) -> np.ndarray:
    """Bit = 1 iff the LLR is negative; an exact zero decodes to 0."""
    return (lq_codes < 0).astype(np.uint8)


def syndrome_check(h: ParityCheckMatrix, hard_bits, layout: CodeLayout | None = None) -> bool:
    """True iff H * bits = 0 over GF(2).

    hard_bits is a 1-d array of N values.  Of integer and bool values only
    the low bit counts; float values must each be 0 or 1, so that NaN or
    0.5 is rejected, not read as 0.
    """
    bits = np.asarray(hard_bits)
    if bits.ndim != 1:
        raise ValueError(f"expected a 1-d array of {h.n_cols} bits, got shape {bits.shape}")
    if len(bits) != h.n_cols:
        raise ValueError(f"expected {h.n_cols} bits, got {len(bits)}")
    if bits.dtype.kind in "fc" and not ((bits == 0) | (bits == 1)).all():
        raise ValueError("float hard bits must each be 0 or 1")
    if layout is None:
        layout = CodeLayout.build(h)
    return layout.syndrome_ok(bits)


def _channel_llrs(h: ParityCheckMatrix, channel_llrs, frames: bool) -> np.ndarray:
    """channel_llrs as float64, checked to hold N values, or (F, N) with frames."""
    llrs = np.asarray(channel_llrs, dtype=np.float64)
    if llrs.ndim != 1 + frames or llrs.shape[-1] != h.n_cols:
        want = f"(frames, {h.n_cols})" if frames else f"a 1-d array of {h.n_cols}"
        raise ValueError(f"expected {want} channel LLRs, got shape {llrs.shape}")
    return llrs


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
    llrs = _channel_llrs(h, channel_llrs, frames=False)
    if layout is None:
        layout = CodeLayout.build(h)
    fmt = params.fmt
    n = h.n_cols
    lq = np.empty(n + 1, dtype=np.int32)  # the variables, then a spare slot
    lq[:n] = quantize(llrs, fmt)
    lut = reciprocal_scale_table(params.alpha, fmt)
    lo, hi = np.int32(fmt.min_code), np.int32(fmt.max_code)
    empty = np.int32(len(lut) - 1)  # |min_code|: what a padded slot reads as

    # the layout's tables (see the module docstring), and this call's extrinsics
    layers = [(idx, pad, row, np.zeros(idx.shape, dtype=np.int32))
              for idx, pad, row in layout.golden_layers]

    iterations = 0
    converged = False
    for _ in range(params.it_max):
        for idx, pad, row, r in layers:
            q = lq[idx]
            q -= r
            q.clip(lo, hi, out=q)
            if pad is not None:
                q[pad] = empty  # no sign, and never below a real magnitude
            mag = np.abs(q)
            two = np.partition(mag, 1, axis=1)
            t = mag.argmin(axis=1)  # the lowest position holding the minimum
            # every position takes the scaled minimum but the minimum's own,
            # which takes the scaled second minimum (equal to it on a tie)
            r[:] = lut[two[:, :1]]
            r[row, t] = lut[two[:, 1]]
            # the sign is the product of the other positions' signs: with
            # s = -1 where q < 0 and 0 elsewhere, s ^ (xor of the row's s) is
            # -1 where the others hold an odd count of negatives, and
            # (r ^ s) - s negates r exactly there
            s = q >> 31
            s ^= np.bitwise_xor.reduce(s, axis=1, keepdims=True)
            r ^= s
            r -= s
            np.minimum(r, hi, out=r)  # alpha near 1 maps |min_code| past max_code
            q += r
            q.clip(lo, hi, out=q)
            lq[idx] = q  # disjoint support inside a layer; pads hit the spare
        iterations += 1
        if params.early_stop:
            if layout.syndrome_ok(hard_decision(lq[:n])):
                converged = True
                break
    final = lq[:n].copy()
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


def _two_smallest(mag: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Smallest and second smallest over the slot axis, counting repeats.

    A tie for the minimum gives m2 == m1.  For one frame a single np.sort
    over the W >= 2 slots takes both: along the strided slot axis of a
    (W, R, 1) block it is faster than np.partition, which gives the same
    two values.  For more frames one pass over the slots is faster, where
    sorting or partitioning along this axis costs several times more.
    """
    if mag.shape[-1] == 1:
        two = np.sort(mag, axis=0)
        return two[0], two[1]
    m1 = np.minimum(mag[0], mag[1])
    m2 = np.maximum(mag[0], mag[1])
    for slot in mag[2:]:
        np.minimum(m2, np.maximum(m1, slot), out=m2)
        np.minimum(m1, slot, out=m1)
    return m1, m2


def _store_dtype(fmt: QFormat) -> type:
    """Code type of a _layered_sweep store: int16 up to 14-bit formats, where
    every intermediate sum of two saturated codes still fits, and int32 above.
    """
    return np.int16 if fmt.n_bits <= 14 else np.int32


def _layered_sweep(
    layout: CodeLayout,
    params: DecodeParams,
    store: np.ndarray,
    maps: list[tuple[np.ndarray, np.ndarray]],
    home: np.ndarray | None = None,
) -> list[DecodeResult]:
    """Layered normalized min-sum over a frames-last code store.

    store is (S, F) codes of _store_dtype whose last row is the spare slot
    that padded positions read and write; the sweep overwrites it.  maps
    holds one (gather, scatter) pair per layer of layout, each shaped like
    its LayerMap.idx: the code in slot k of the layer's row i is read from
    store row gather[k, i], and its update is written to row scatter[k, i].
    home, when given, is the (N + 1,) store row of each variable's current
    code followed by the spare row; without it, store rows 0..N-1 are the
    variables themselves.  The extrinsics are (W, rows, F) with each layer a
    contiguous block of rows, of which a layer uses its own W slots; they
    live in the layout's scratch.
    A _Ledger takes each frame's result at the first iteration whose
    syndrome it satisfies; the batch runs until every frame has converged
    or it_max is reached.  Once the frames still decoding fall to three
    quarters of the columns, their store and extrinsic columns move to the
    front of the same buffers and the sweep goes on over that narrower
    prefix, so converged frames stop costing work.
    """
    fmt = params.fmt
    sign_shift = store.dtype.itemsize * 8 - 1
    n_frames = store.shape[1]
    lut = reciprocal_scale_table(params.alpha, fmt).astype(store.dtype, copy=False)
    # bounds of the store's own type: np.clip with Python ints looks up the
    # dtype's limits on every call, which dominates at a few frames
    lo, hi = store.dtype.type(fmt.min_code), store.dtype.type(fmt.max_code)
    clip_positive = lut[-1] > hi  # alpha near 1 maps |min_code| past max_code
    # padded slots read as +|min_code|: never below a real magnitude, and the
    # golden clamps an empty minimum to the same table entry
    pad_floor = [None if lm.pad is None else np.where(lm.pad, len(lut) - 1, lo).astype(store.dtype)
                 for lm in layout.layer_maps]
    r_rows = sum(len(rows) for rows in layout.layer_rows)
    r = layout.scratch("extrinsics", (layout.check_idx.shape[0], r_rows, n_frames), store.dtype)
    r.fill(0)

    def variables():
        return store if home is None else store.take(home, axis=0)

    ledger = _Ledger(layout, params, n_frames, np.int32)
    for it in range(1, params.it_max + 1):
        for lm, floor, (gather, scatter) in zip(layout.layer_maps, pad_floor, maps):
            r_l = r[:len(gather), lm.span]
            q = store.take(gather, axis=0)
            q -= r_l
            q.clip(lo, hi, out=q)
            if floor is not None:
                np.maximum(q, floor, out=q)
            mag = np.abs(q)
            m1, m2 = _two_smallest(mag)
            # slots at the minimum take lut[m2], the rest lut[m1]; a tied
            # minimum has m2 == m1, which is the golden lowest-index rule
            a1 = lut.take(m1)
            rmag = (mag == m1) * (lut.take(m2) - a1)
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
        live = ledger.take(it, variables())
        if live is not None:
            if not len(live):
                break
            store, r = _front(store, live), _front(r, live)
    return ledger.results(variables(), fmt)


class _Ledger:
    """Per-frame bookkeeping of a block decode over frames-last state.

    Column c of the decoder's state holds frame frame[c].  Each frame's
    result is taken at the first iteration whose syndrome it satisfies
    (with early_stop) or after the last one: frame f's final values go to
    row f of the layout's (F, N) scratch "final", of the decoder's value
    type, and its iteration count and convergence to per-frame arrays.  A
    frame whose result is taken rides along in its column until the
    decoder compacts its state as take asks.
    """

    def __init__(self, layout: CodeLayout, params: DecodeParams, n_frames: int, dtype):
        self.layout, self.early_stop = layout, params.early_stop
        self.final = layout.scratch("final", (n_frames, layout.h.n_cols), dtype)
        self.iterations = np.full(n_frames, params.it_max)
        self.converged = np.zeros(n_frames, dtype=bool)
        self.frame = np.arange(n_frames)  # the frame id of each column
        self.done = np.zeros(n_frames, dtype=bool)  # per column: result taken

    def take(self, it: int, lq: np.ndarray) -> np.ndarray | None:
        """Take the results of the frames whose syndrome first holds after
        iteration it, lq being the columns' (N + 1, columns) variables.

        Returns None while the decoder goes on as it is.  Once the frames
        still decoding fall to three quarters of the columns, returns their
        columns, ascending, which the decoder must move to the front of its
        state (_front) before the next iteration; empty when every frame is
        done and decoding stops.
        """
        if not self.early_stop:
            return None
        ok = self.layout.syndrome_ok_batch(lq) & ~self.done
        if not ok.any():
            return None
        taken = self.frame[ok]
        self.final[taken] = lq[:self.final.shape[1], ok].T
        self.iterations[taken] = it
        self.converged[taken] = True
        self.done |= ok
        live = np.flatnonzero(~self.done)
        if 4 * len(live) > 3 * len(self.done):
            return None
        self.frame, self.done = self.frame[live], self.done[live]
        return live

    def results(self, lq: np.ndarray, fmt: QFormat | None) -> list[DecodeResult]:
        """The frames' DecodeResults, in frame order, after the last
        iteration left the variables lq; each owns its arrays.  Without
        early_stop, a frame converged iff its syndrome holds now."""
        rest = np.flatnonzero(~self.done)
        self.final[self.frame[rest]] = lq[:self.final.shape[1], rest].T
        converged = self.converged if self.early_stop else self.layout.syndrome_ok_batch(lq)
        return [
            DecodeResult(hard_bits=hard_decision(final), iterations_run=int(it),
                         converged=bool(ok), final_llrs=final.copy(), fmt=fmt)
            for final, it, ok in zip(self.final, self.iterations, converged)
        ]


_CHUNK_VALUES = 1 << 13  # values per chunk of a block copy: 64 KiB of float64


def _front(a: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """The given last-axis columns of contiguous a, moved to the front of a's
    own buffer and returned as a contiguous array over it.

    The rows (all axes but the last, flattened) move in ascending chunks of
    about _CHUNK_VALUES copied values.  Each chunk's columns are copied out
    by the fancy index before any is written back, and a row never moves
    past its old place, so no write reaches a row not yet read; a single
    fancy index over a would make a temporary almost the size of a.
    """
    rows = a.reshape(-1, a.shape[-1])
    out = a.reshape(-1)[:len(rows) * len(columns)].reshape(len(rows), len(columns))
    step = max(1, _CHUNK_VALUES // len(columns))
    for r0 in range(0, len(rows), step):
        out[r0:r0 + step] = rows[r0:r0 + step, columns]
    return out.reshape(*a.shape[:-1], len(columns))


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
    and scatters through the variable index of its LayerMap.  The store, the
    quantization's frame chunks and the sweep's extrinsics are scratch of
    layout (CodeLayout.scratch), reused by later calls on the same thread;
    the results own their arrays.
    """
    llrs = _channel_llrs(h, channel_llrs, frames=True)
    if layout is None:
        layout = CodeLayout.build(h)
    n, n_frames = h.n_cols, len(llrs)
    store = layout.scratch("store", (n + 1, n_frames), _store_dtype(params.fmt))
    store[n] = 0
    # quantize a few frames at a time, so no (F, N) temporary is made
    step = max(1, _CHUNK_VALUES // n)
    chunk = layout.scratch("quantize", (min(step, n_frames), n), np.float64)
    for f0 in range(0, n_frames, step):
        part = chunk[:min(step, n_frames - f0)]
        part[...] = llrs[f0:f0 + len(part)]
        store[:n, f0:f0 + len(part)] = round_codes(part, params.fmt).T
    return _layered_sweep(layout, params, store, [(lm.idx, lm.idx) for lm in layout.layer_maps])
