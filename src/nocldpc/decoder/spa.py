"""Floating-point flooding sum-product decoder.

Reference oracle for the fixed-point path: classic two-phase schedule where
every check node updates from the previous iteration's variable messages,
then every variable re-accumulates.  Check nodes use the self-inverse
transform Psi(x) = -ln(tanh(|x| / 2)); inputs are floored at a small epsilon
because Psi is unbounded at zero.  decode_flooding_spa_batch runs the same
arithmetic on many frames at once and equals it bit for bit.
"""

from __future__ import annotations

import numpy as np

from ..codes.matrix import ParityCheckMatrix
from .layout import CodeLayout
from .nms import DecodeParams, DecodeResult, hard_decision

_CHECK_CHUNK = 128  # checks per chunk of the batched check update
_VAR_CHUNK = 256  # columns per chunk of the batched variable update
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
    llrs = np.asarray(channel_llrs, dtype=np.float64)
    if len(llrs) != h.n_cols:
        raise ValueError(f"expected {h.n_cols} channel LLRs, got {len(llrs)}")
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


def _slot_sum(x: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> None:
    """out = x.sum(axis=0), adding in the order np.add.reduce sums a contiguous row.

    NumPy adds fewer than 8 elements in sequence.  From 8 to 128 it keeps 8
    accumulators, combines them as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)) and
    adds the rest in sequence; above 128 it halves at a multiple of 8.  Doing
    the same per slot plane makes these sums equal the golden's row sums over
    its contiguous (M, N_d) rows, up to the sign of a zero sum.
    """
    n = len(x)
    if n < 8:
        np.copyto(out, x[0])
        for plane in x[1:]:
            out += plane
        return
    if n > 128:
        half = n // 2 - (n // 2) % 8
        _slot_sum(x[:half], out, scratch)
        _slot_sum(x[half:], scratch[0], scratch[1:])
        out += scratch[0]
        return
    full = n - n % 8
    acc = scratch[:8]
    np.copyto(acc, x[:8])
    for i in range(8, full, 8):
        acc += x[i:i + 8]
    acc[0] += acc[1]
    acc[2] += acc[3]
    acc[0] += acc[2]
    acc[4] += acc[5]
    acc[6] += acc[7]
    acc[4] += acc[6]
    np.add(acc[0], acc[4], out=out)
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
    last: variable totals are (N + 1, F) and check-to-variable messages
    (W, M, F) over the slots of CodeLayout.check_idx.  Row N of the totals,
    which padded slots read, holds +inf: ln(tanh(inf)) is exactly 0, so
    padded slots add nothing to a row sum without a mask.  Row sums add
    ln(tanh(.)) = -Psi, which is exact because IEEE addition is sign
    symmetric, in the golden's order (_slot_sum).  Each column adds its
    messages in ascending row order, the order of the golden's bincount,
    through CodeLayout.var_edges.  Checks and columns are processed in
    chunks through buffers allocated once, so the working set stays in
    cache.  Each frame's result is taken at the first iteration whose
    syndrome it satisfies; the batch runs until every frame has converged
    or it_max is reached.
    """
    llrs = np.asarray(channel_llrs, dtype=np.float64)
    if llrs.ndim != 2 or llrs.shape[1] != h.n_cols:
        raise ValueError(f"expected (frames, {h.n_cols}) channel LLRs, got {llrs.shape}")
    _reject_nan(llrs)
    if layout is None:
        layout = CodeLayout.build(h)
    n, n_frames = h.n_cols, len(llrs)
    w, m = layout.check_idx.shape

    chan = llrs.T  # a view: a frames-last copy would cost more memory than time
    total = np.empty((n + 1, n_frames))
    total[:n] = chan
    total[n] = np.inf
    store = np.zeros((w * m + 1, n_frames))  # last row: the zero that pads read
    c2v = store[:-1].reshape(w, m, n_frames)

    # equal chunks of at most _CHECK_CHUNK checks; each chunk views the front
    # of one flat buffer per quantity, so every view is contiguous
    rows = -(-m // -(-m // _CHECK_CHUNK))
    n_scratch = _sum_scratch(w)
    size = w * rows * n_frames
    v_buf, t_buf, neg_buf = np.empty(size), np.empty(size), np.empty(size, dtype=bool)
    s_buf, par_buf = np.empty(rows * n_frames), np.empty(rows * n_frames, dtype=bool)
    scratch_buf = np.empty(n_scratch * rows * n_frames)

    def front(buf, *shape):
        return buf[:int(np.prod(shape))].reshape(shape)

    checks = []
    for r0 in range(0, m, rows):
        rs = slice(r0, min(r0 + rows, m))
        k = rs.stop - r0
        checks.append((
            rs, np.ascontiguousarray(layout.check_idx[:, rs]),
            front(v_buf, w, k, n_frames), front(t_buf, w, k, n_frames),
            front(neg_buf, w, k, n_frames), front(s_buf, k, n_frames),
            front(par_buf, k, n_frames), front(scratch_buf, n_scratch, k, n_frames),
        ))
    pad = w * m
    columns = []
    for c0 in range(0, n, _VAR_CHUNK):
        cs = slice(c0, min(c0 + _VAR_CHUNK, n))
        edges = layout.var_edges[:, cs]
        depth = max(int((edges != pad).any(axis=1).sum()), 1)
        columns.append((cs, list(edges[:depth])))
    gather = np.empty((_VAR_CHUNK, n_frames))

    final = np.empty((n_frames, n))
    iterations = np.full(n_frames, params.it_max)
    converged = np.zeros(n_frames, dtype=bool)
    done = np.zeros(n_frames, dtype=bool)  # result taken; the frame still rides along
    for it in range(1, params.it_max + 1):
        for rs, idx, v, t, neg, s, par, scratch in checks:
            out = c2v[:, rs]
            np.take(total, idx, axis=0, out=v, mode="clip")
            v -= out  # v2c
            np.less(v, 0.0, out=neg)
            np.abs(v, out=t)
            np.maximum(t, PSI_EPS, out=t)
            t *= 0.5
            np.tanh(t, out=t)
            np.log(t, out=t)  # -Psi(v2c)
            _slot_sum(t, s, scratch)
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
        for cs, edges in columns:
            acc = total[cs]
            g = gather[:len(acc)]
            np.take(store, edges[0], axis=0, out=acc, mode="clip")
            acc += 0.0  # bincount starts from +0.0, which turns a -0.0 first term into +0.0
            for e in edges[1:]:
                np.take(store, e, axis=0, out=g, mode="clip")
                acc += g
            acc += chan[cs]
        if not params.early_stop:
            continue
        ok = layout.syndrome_ok_batch(total) & ~done
        if ok.any():
            final[ok] = total[:n, ok].T
            iterations[ok] = it
            converged[ok] = True
            done |= ok
            if done.all():
                break
    final[~done] = total[:n, ~done].T
    if not params.early_stop:
        converged = layout.syndrome_ok_batch(total)
    return [
        DecodeResult(
            hard_bits=hard_decision(final[f]),
            iterations_run=int(iterations[f]),
            converged=bool(converged[f]),
            final_llrs=final[f],
            fmt=None,
        )
        for f in range(n_frames)
    ]
