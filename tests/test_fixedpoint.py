import numpy as np
import pytest

from nocldpc.codes import load_code
from nocldpc.decoder import CheckState, CodeLayout, DecodeParams, decode_layered_nms, layer_update
from nocldpc.fixedpoint import QFormat, quantize, reciprocal_scale_table, saturate


def lsb(fmt):
    """The real value of one code step."""
    return 2.0 ** -fmt.frac_bits


def test_format_parse_roundtrip():
    fmt = QFormat.parse("8_1")
    assert (fmt.n_bits, fmt.frac_bits) == (8, 1)
    assert str(fmt) == "8_1"
    assert fmt.min_code == -128 and fmt.max_code == 127
    assert fmt.min_code * lsb(fmt) == -64.0 and fmt.max_code * lsb(fmt) == 63.5


@pytest.mark.parametrize("bad", ["8", "8_9", "1_0", "x_y"])
def test_format_parse_rejects(bad):
    with pytest.raises(ValueError):
        QFormat.parse(bad)


def test_quantize_examples():
    fmt = QFormat(8, 1)
    assert quantize(0.0, fmt) == 0
    # 3.7 * 2 = 7.4 rounds to code 7 = 3.5
    assert quantize(3.7, fmt) == 7
    assert quantize(3.7, fmt) * lsb(fmt) == 3.5
    # saturation at the positive bound
    assert quantize(1000.0, fmt) == 127
    assert 127 * lsb(fmt) == 63.5
    assert quantize(-1000.0, fmt) == -128


def test_quantize_ties_away_from_zero():
    fmt = QFormat(8, 1)
    assert quantize(0.25, fmt) == 1
    assert quantize(-0.25, fmt) == -1
    assert quantize(0.24, fmt) == 0


def test_quantize_matches_scalar_reference():
    fmt = QFormat(9, 2)
    rng = np.random.default_rng(7)
    xs = rng.normal(scale=40.0, size=2000)
    codes = quantize(xs, fmt)
    import math

    for x, c in zip(xs, codes):
        s = x * 4
        ref = math.floor(s + 0.5) if s >= 0 else math.ceil(s - 0.5)
        ref = min(max(ref, fmt.min_code), fmt.max_code)
        assert c == ref


def test_saturating_add_sub_never_wraps():
    # the layer kernel's saturating steps: q = L(q) - R, then L(q)' = q + R'
    fmt = QFormat(8, 1)
    h = load_code("wimax_576_288")
    layout = CodeLayout.build(h)
    rng = np.random.default_rng(3)
    state = CheckState.init(layout, np.zeros(h.n_cols), fmt)
    state.lq[:] = rng.integers(fmt.min_code, fmt.max_code + 1, size=h.n_cols)
    state.r[:] = rng.integers(fmt.min_code, fmt.max_code + 1, size=state.r.shape) * layout.mask
    rows = layout.layer_rows[0]
    idx, mask = layout.idx[rows], layout.mask[rows]
    exact_d = state.lq[idx].astype(np.int64) - state.r[rows]
    layer_update(layout, 0, state, DecodeParams(fmt=fmt))

    for codes in (state.lq, state.r):
        assert codes.min() >= fmt.min_code and codes.max() <= fmt.max_code
    q = np.clip(exact_d, fmt.min_code, fmt.max_code)
    assert (q[mask] != exact_d[mask]).any()  # the draw exercises the subtraction's clamp
    exact_s = q + state.r[rows]
    out = state.lq[idx]
    inside = mask & (exact_s >= fmt.min_code) & (exact_s <= fmt.max_code)
    outside = mask & ~inside
    assert outside.any()
    assert np.array_equal(out[inside], exact_s[inside])
    assert np.array_equal(out[outside], np.clip(exact_s[outside], fmt.min_code, fmt.max_code))


def test_reciprocal_table_115():
    fmt = QFormat(8, 1)
    lut = reciprocal_scale_table(1.15, fmt)
    # magnitude 1.0 is code 2; 2 / 1.15 = 1.739 rounds to code 2 = 1.0
    assert lut[2] == 2
    assert len(lut) == 129  # covers |min_code|
    assert lut[0] == 0
    with pytest.raises(ValueError):
        reciprocal_scale_table(0.9, fmt)


def test_layer_kernel_saturates_strong_llrs():
    fmt = QFormat(8, 1)
    h = load_code("wimax_576_288")
    layout = CodeLayout.build(h)
    params = DecodeParams(fmt=fmt, it_max=3)
    for llr in (60.0, -60.0):
        res = decode_layered_nms(h, np.full(h.n_cols, llr), params, layout)
        assert res.final_llrs.min() >= fmt.min_code and res.final_llrs.max() <= fmt.max_code
    # 60 is code 120, and one layer's extrinsic pushes every code past 127
    res = decode_layered_nms(h, np.full(h.n_cols, 60.0), params, layout)
    assert res.converged and res.iterations_run == 1
    assert (res.final_llrs * lsb(fmt) == fmt.max_code * lsb(fmt)).all()
    assert saturate(-200, fmt) == -128


def test_quantize_rejects_nan_and_saturates_inf():
    fmt = QFormat(8, 1)
    assert quantize(np.inf, fmt) == 127 and quantize(-np.inf, fmt) == -128
    for x in (np.nan, [1.0, np.nan, -2.0], np.full((2, 3), np.nan)):
        with pytest.raises(ValueError, match="NaN"):
            quantize(x, fmt)


@pytest.mark.parametrize("alpha", [np.nan, np.inf, -np.inf, 0.9])
def test_decode_params_reject_bad_alpha(alpha):
    with pytest.raises(ValueError, match="normalization factor"):
        DecodeParams(alpha=alpha)


def test_decoders_reject_nan_llrs():
    # when NaN was let through, golden ended variable 5 of this frame at
    # code -112 after 10 iterations and the batched decoder at 33 after one
    from nocldpc.decoder import decode_layered_nms_batch

    h = load_code("wimax_576_288")
    layout = CodeLayout.build(h)
    llrs = np.full(h.n_cols, 4.0)
    llrs[5] = np.nan
    with pytest.raises(ValueError, match="NaN"):
        decode_layered_nms(h, llrs, DecodeParams(), layout)
    with pytest.raises(ValueError, match="NaN"):
        decode_layered_nms_batch(h, llrs[None], DecodeParams(), layout)
