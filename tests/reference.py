"""Plain references that the library's faster paths are checked against.

These are the row and edge loops, the first golden layered decoder, and
the first encoders of the trace and configuration-image JSON, that
whole-array, per-layer-table or cached versions in `src/` replaced.  Tests
import them; nothing in the library does.
"""

import json
from dataclasses import dataclass

import numpy as np

from nocldpc.configgen.image import FORMAT as IMAGE_FORMAT
from nocldpc.decoder import CodeLayout, DecodeParams, DecodeResult
from nocldpc.decoder.nms import hard_decision
from nocldpc.fixedpoint import QFormat, quantize, reciprocal_scale_table

_PAD_MAG = np.int32(1) << 30


def cols(h) -> list[np.ndarray]:
    """Column adjacency of h: cols(h)[j] lists the rows that check variable j."""
    buckets: list[list[int]] = [[] for _ in range(h.n_cols)]
    for m, row in enumerate(h.rows):
        for j in row:
            buckets[int(j)].append(m)
    return [np.asarray(b, dtype=np.int32) for b in buckets]


def syndrome_ok(layout: CodeLayout, bits) -> bool:
    """The row-sum syndrome: each row's int32 sum of its masked bits, mod 2."""
    par = (np.asarray(bits)[layout.idx].astype(np.int32) & layout.mask).sum(axis=1) & 1
    return not par.any()


def saturate(codes, fmt: QFormat) -> np.ndarray:
    """Clamp (wider) integer codes into the representable range, as int32."""
    codes = np.asarray(codes)
    t = codes.dtype.type
    return codes.clip(t(fmt.min_code), t(fmt.max_code)).astype(np.int32)


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


def check_node_update(q: np.ndarray, mask: np.ndarray, alpha_lut: np.ndarray) -> np.ndarray:
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
    rnew = check_node_update(q, mask, alpha_lut)
    rnew = saturate(rnew, state.fmt)
    lq_new = saturate(q.astype(np.int64) + rnew, state.fmt)

    state.r[rows] = rnew
    state.lq[idx[mask]] = lq_new[mask]  # disjoint support inside a layer
    return state


def decode_layered_nms(h, channel_llrs, params: DecodeParams,
                       layout: CodeLayout | None = None) -> DecodeResult:
    """The first golden: layer_update on fancy-indexed rows, in int64."""
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


def trace_text(trace) -> str:
    """A trace's canonical JSON text, by the default json.dumps."""
    return json.dumps(trace.to_json_obj(), sort_keys=True, separators=(",", ":"))


def image_payload(image) -> dict:
    """An image's payload object, its slot map built in sorted key order."""
    return {
        "format": IMAGE_FORMAT,
        "label": image.label,
        "n": image.n,
        "k_i": image.k_i,
        "n_d": image.n_d,
        "n_pc": image.n_pc,
        "pipeline_depth": image.pipeline_depth,
        "rm": image.rm,
        "wag": image.wag,
        "cnt_cmp": image.cnt_cmp,
        "fifo_depth": image.fifo_depth.tolist(),
        "slot_of": {f"{c}:{p}": s for (c, p), s in sorted(image.slot_of.items())},
        "trace_digest": image.trace_digest,
        "mapping_digest": image.mapping_digest,
        "h_digest": image.h_digest,
    }


def image_payload_text(image) -> str:
    """The text an image's payload digest hashes, by the default json.dumps."""
    return json.dumps(image_payload(image), sort_keys=True, separators=(",", ":"))


def image_text(image) -> str:
    """ConfigImage.to_json's text, by the default json.dumps."""
    obj = image_payload(image)
    obj["digest"] = image.digest
    return json.dumps(obj, sort_keys=True)


def mix64(a: int, b: int) -> int:
    """The splitmix64-style hash of (seed, uid) whose low bit is a flit's
    O1Turn coin, on Python ints."""
    x = (a * 0x9E3779B97F4A7C15 + b) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)
