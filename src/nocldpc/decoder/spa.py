"""Floating-point flooding sum-product decoder.

Reference oracle for the fixed-point path: classic two-phase schedule where
every check node updates from the previous iteration's variable messages,
then every variable re-accumulates.  Check nodes use the self-inverse
transform Psi(x) = -ln(tanh(|x| / 2)); inputs are floored at a small epsilon
because Psi is unbounded at zero.  decode_flooding_spa_batch runs the same
arithmetic on many frames at once and equals it bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from ..codes.matrix import ParityCheckMatrix
from .layout import _VAR_CHUNK, CodeLayout
from .nms import DecodeParams, DecodeResult, _channel_llrs, _front, _Ledger, hard_decision

PSI_EPS = 1e-12  # input magnitude floor of psi


def psi(x) -> np.ndarray:
    """Self-inverse check-node transform, clamped away from the pole at 0."""
    ax = np.maximum(np.abs(np.asarray(x, dtype=np.float64)), PSI_EPS)
    return -np.log(np.tanh(ax / 2.0))


def _reject_nan(llrs: np.ndarray) -> None:
    """Raise ValueError if any LLR is NaN; +-inf passes.

    One pass: the minimum is NaN exactly when some entry is.
    """
    if llrs.size and np.isnan(llrs.min()):
        raise ValueError("cannot decode NaN channel LLRs")


def decode_flooding_spa(
    h: ParityCheckMatrix,
    channel_llrs,
    params: DecodeParams,
    layout: CodeLayout | None = None,
) -> DecodeResult:
    llrs = _channel_llrs(h, channel_llrs, frames=False)
    _reject_nan(llrs)
    if layout is None:
        layout = CodeLayout.build(h)

    idx = layout.idx
    mask = layout.mask
    cols_flat = idx[mask].astype(np.int64)

    c2v = np.zeros(idx.shape, dtype=np.float64)
    total = llrs.copy()

    iterations = 0
    converged = False
    for _ in range(params.it_max):
        v2c = np.where(mask, total[idx] - c2v, 0.0)

        a = psi(v2c)
        a[~mask] = 0.0
        row_sum = a.sum(axis=1, keepdims=True)
        c2v_mag = psi(row_sum - a)

        neg = (v2c < 0.0) & mask
        parity = (neg.sum(axis=1) & 1).astype(bool)
        odd_others = parity[:, None] ^ neg
        c2v = np.where(odd_others, -c2v_mag, c2v_mag)
        c2v[~mask] = 0.0

        total = llrs + np.bincount(cols_flat, weights=c2v[mask], minlength=h.n_cols)
        iterations += 1
        if params.early_stop and layout.syndrome_ok(hard_decision(total)):
            converged = True
            break

    bits = hard_decision(total)
    if not converged:
        converged = layout.syndrome_ok(bits)
    return DecodeResult(
        hard_bits=bits,
        iterations_run=iterations,
        converged=converged,
        final_llrs=total,
        fmt=None,
    )


def _sum_scratch(n: int) -> int:
    """Scratch planes _slot_sum needs beside its output for n slots."""
    if n < 8:
        return 0
    if n <= 128:
        return 8
    half = n // 2 - (n // 2) % 8
    return max(_sum_scratch(half), 1 + _sum_scratch(n - half))


def _slot_sum(x: np.ndarray, out: np.ndarray, scratch: np.ndarray, n: int) -> None:
    """out = x.sum(axis=0), adding in the order np.add.reduce sums a contiguous
    row of n elements whose elements len(x)..n-1 are zeros.

    NumPy adds fewer than 8 elements in sequence.  From 8 to 128 it keeps 8
    accumulators, combines them as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)) and
    adds the rest in sequence; above 128 it halves at a multiple of 8.  Doing
    the same per slot plane, and skipping each addition of an absent plane
    (adding zero leaves a sum as it is, up to the sign of a zero), makes
    these sums equal the golden's row sums over its zero-padded (M, n) rows,
    up to the sign of a zero sum.
    """
    d = len(x)
    if n < 8:
        np.copyto(out, x[0])
        for plane in x[1:]:
            out += plane
        return
    if n > 128:
        half = n // 2 - (n // 2) % 8
        if d <= half:
            _slot_sum(x, out, scratch, half)
            return
        _slot_sum(x[:half], out, scratch, half)
        _slot_sum(x[half:], scratch[0], scratch[1:], n - half)
        out += scratch[0]
        return
    full = min(n - n % 8, d)
    live = min(d, 8)  # accumulators that hold a plane
    acc = scratch[:live]
    np.copyto(acc, x[:live])
    for i in range(8, full, 8):
        acc[:full - i] += x[i:min(i + 8, full)]
    for step in (1, 2):  # (r0+r1)+(r2+r3) and (r4+r5)+(r6+r7), absent r's left out
        for a in range(0, live - step, 2 * step):
            acc[a] += acc[a + step]
    if live > 4:
        np.add(acc[0], acc[4], out=out)
    else:
        np.copyto(out, acc[0])
    for plane in x[full:]:
        out += plane


def decode_flooding_spa_batch(
    h: ParityCheckMatrix,
    channel_llrs,
    params: DecodeParams,
    layout: CodeLayout | None = None,
) -> list[DecodeResult]:
    """Decode F frames at once with the flooding sum-product decoder.

    channel_llrs is (F, N).  Result f equals decode_flooding_spa on row f in
    bits, iterations_run, converged and final_llrs.  The state is frames
    last: variable totals are (N + 1, F), whose row N no check reads and the
    syndrome ignores, and check-to-variable messages are an (E + 1, F) store
    laid out by CodeLayout.spa_plan: checks grouped by degree, each chunk of
    checks a contiguous (d, k, F) block with no padded slot, and a zero last
    row that columns of lower degree read.  Row sums add ln(tanh(.)) = -Psi,
    which is exact because IEEE addition is sign symmetric, in the order of
    the golden's sum over its N_d-wide rows (_slot_sum).  Each column adds
    its messages in ascending row order, the order of the golden's
    bincount, through the plan's var_edges.  Checks and columns are
    processed in chunks so that the working set stays in cache.  Every
    buffer is scratch of layout (CodeLayout.scratch), reused by later calls
    on the same thread: the frames-last copy of the channel LLRs, the
    totals, the message store, the chunk buffers, the column gather and
    the frames' final LLRs; the results own their arrays, and the caller's
    channel_llrs are only read.
    A _Ledger takes each frame's result at the first iteration whose
    syndrome it satisfies; the batch runs until every frame has converged
    or it_max is reached.  Once the frames still decoding fall to three
    quarters of the columns, their channel, total and message columns move
    to the front of the same buffers, the chunk views are rebuilt over that
    narrower prefix and the sweep goes on over it, so converged frames stop
    costing work, as in the layered NMS sweep.
    """
    llrs = _channel_llrs(h, channel_llrs, frames=True)
    _reject_nan(llrs)
    if layout is None:
        layout = CodeLayout.build(h)
    plan = layout.spa_plan
    n, n_frames = h.n_cols, len(llrs)

    # a copy, not a view of the caller's array: compaction moves its columns
    chan = layout.scratch("spa_channel", (n, n_frames), np.float64)
    chan[...] = llrs.T
    total = layout.scratch("spa_total", (n + 1, n_frames), np.float64)
    total[:n] = chan
    total[n] = 0.0
    # the first iteration reads no message, so only the spare row is cleared
    store = layout.scratch("spa_messages", (plan.n_edges + 1, n_frames), np.float64)
    store[-1] = 0.0

    slots = max(idx.size for idx, _ in plan.checks)
    rows = max(idx.shape[1] for idx, _ in plan.checks)
    n_scratch = _sum_scratch(plan.width)
    v_buf = layout.scratch("spa_v2c", (slots * n_frames,), np.float64)
    t_buf = layout.scratch("spa_terms", (slots * n_frames,), np.float64)
    neg_buf = layout.scratch("spa_negative", (slots * n_frames,), bool)
    s_buf = layout.scratch("spa_row_sum", (rows * n_frames,), np.float64)
    par_buf = layout.scratch("spa_parity", (rows * n_frames,), bool)
    scratch_buf = layout.scratch("spa_sum_scratch", (n_scratch * rows * n_frames,), np.float64)
    gather_buf = layout.scratch("spa_gather", (_VAR_CHUNK * n_frames,), np.float64)

    # each check chunk's message block and buffers, and the column gather,
    # over the store's columns: every buffer views the front of one flat
    # buffer per quantity, so every view is contiguous
    def views(store):
        width = store.shape[1]

        def front(buf, *shape):
            return buf[:math.prod(shape) * width].reshape(*shape, width)

        checks = [(idx, store[block].reshape(*idx.shape, width), front(v_buf, *idx.shape),
                   front(t_buf, *idx.shape), front(neg_buf, *idx.shape), front(s_buf, idx.shape[1]),
                   front(par_buf, idx.shape[1]), front(scratch_buf, n_scratch, idx.shape[1]))
                  for idx, block in plan.checks]
        return checks, front(gather_buf, _VAR_CHUNK)

    checks, gather = views(store)
    ledger = _Ledger(layout, params, n_frames, np.float64)
    for it in range(1, params.it_max + 1):
        for idx, out, v, t, neg, s, par, scratch in checks:
            np.take(total, idx, axis=0, out=v, mode="clip")
            if it > 1:  # x - (+0.0) is x, so the first iteration skips it
                v -= out  # v2c
            np.less(v, 0.0, out=neg)
            np.abs(v, out=t)
            np.maximum(t, PSI_EPS, out=t)
            t *= 0.5
            np.tanh(t, out=t)
            np.log(t, out=t)  # -Psi(v2c)
            _slot_sum(t, s, scratch, plan.width)
            np.subtract(t, s, out=v)  # the golden's row_sum - a, never negative
            np.maximum(v, PSI_EPS, out=v)
            v *= 0.5
            np.tanh(v, out=v)
            np.log(v, out=out)  # -Psi(row_sum - a)
            np.logical_xor.reduce(neg, axis=0, out=par)
            np.logical_not(par, out=par)
            neg ^= par  # True where the other slots hold an even count of negatives
            # negate there by flipping the sign bit; a masked np.negative
            # costs several times the whole check update
            flip = t.view(np.int64)
            np.left_shift(neg, 63, out=flip)
            np.bitwise_xor(out.view(np.int64), flip, out=out.view(np.int64))
        for cs, edges in plan.columns:
            acc = total[cs]
            g = gather[:len(acc)]
            np.take(store, edges[0], axis=0, out=acc, mode="clip")
            acc += 0.0  # bincount starts from +0.0, which turns a -0.0 first term into +0.0
            for e in edges[1:]:
                np.take(store, e, axis=0, out=g, mode="clip")
                acc += g
            acc += chan[cs]
        live = ledger.take(it, total)
        if live is not None:
            if not len(live):
                break
            chan, total, store = _front(chan, live), _front(total, live), _front(store, live)
            checks, gather = views(store)
    return ledger.results(total, None)
