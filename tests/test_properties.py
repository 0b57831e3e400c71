"""Randomised equivalence of the batched decoders with their single-frame goldens."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from nocldpc.codes import CodeError  # noqa: E402
from nocldpc.codes.randomgen import random_code  # noqa: E402
from nocldpc.decoder import (  # noqa: E402
    CodeLayout,
    DecodeParams,
    decode_flooding_spa,
    decode_flooding_spa_batch,
    decode_layered_nms,
    decode_layered_nms_batch,
)


@st.composite
def decode_cases(draw):
    # row degrees up to n / 3 keep columns sparse: denser draws spend seconds
    # in random_code's duplicate repair, often only to raise CodeError
    n = draw(st.integers(2, 60))
    m = draw(st.integers(1, 20))
    row_degree = draw(st.integers(1, max(1, n // 3)))
    assume(m * row_degree >= n)
    try:
        h = random_code(n, m, row_degree, seed=draw(st.integers(0, 2**32 - 1)))
    except CodeError:
        assume(False)  # a degree mix the socket permutation cannot repair
    n_frames = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    llrs = rng.normal(draw(st.floats(0.0, 6.0)), draw(st.floats(0.5, 6.0)), size=(n_frames, n))
    params = DecodeParams(it_max=draw(st.integers(1, 8)), early_stop=draw(st.booleans()))
    return h, llrs, params


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(decode_cases())
def test_batched_decoders_match_goldens(case):
    h, llrs, params = case
    layout = CodeLayout.build(h)
    for single, batched in ((decode_layered_nms, decode_layered_nms_batch),
                            (decode_flooding_spa, decode_flooding_spa_batch)):
        for row, res in zip(llrs, batched(h, llrs, params, layout)):
            gold = single(h, row, params, layout)
            assert np.array_equal(res.hard_bits, gold.hard_bits)
            assert res.iterations_run == gold.iterations_run
            assert res.converged == gold.converged
            assert np.array_equal(res.final_llrs.view(np.uint8), gold.final_llrs.view(np.uint8))
