import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from nocldpc.codes import ParityCheckMatrix, compute_layers, load_code
from nocldpc.decoder import (
    CodeLayout,
    DecodeParams,
    decode_flooding_spa,
    decode_flooding_spa_batch,
    decode_layered_nms,
    decode_layered_nms_batch,
    syndrome_check,
)
from nocldpc.channel import StopRule, awgn_llrs, run_ber
from nocldpc.decoder.spa import psi
from nocldpc.fixedpoint import QFormat, reciprocal_scale_table
from reference import CheckState, check_node_update, layer_update


def make_h(rows, n_cols):
    h = ParityCheckMatrix(
        n_cols=n_cols,
        n_rows=len(rows),
        rows=[np.asarray(sorted(r), dtype=np.int32) for r in rows],
    )
    compute_layers(h)
    return h


TOY = make_h([[0, 1, 3], [1, 2, 4], [0, 2, 5]], 6)


def toy_codewords():
    words = []
    for v in range(64):
        bits = np.array([(v >> i) & 1 for i in range(6)], dtype=np.uint8)
        if syndrome_check(TOY, bits):
            words.append(bits)
    return words


def row_extrinsics(codes, alpha=1.0, fmt=QFormat(8, 1)):
    """Extrinsics one check row gives positive inputs with these codes.

    Runs one iteration of a single-row code through the golden and the
    batched decoder, the latter on one frame and on two, which take the two
    branches of its two-smallest step; returns the three as lists (final
    LLR minus input code).
    """
    codes = np.asarray(codes)
    h = make_h([list(range(len(codes)))], len(codes))
    llrs = codes * 2.0 ** -fmt.frac_bits  # one LSB per code step
    params = DecodeParams(alpha=alpha, it_max=1, fmt=fmt, early_stop=False)
    gold = decode_layered_nms(h, llrs, params).final_llrs - codes
    one, two = (decode_layered_nms_batch(h, np.tile(llrs, (f, 1)), params)[0].final_llrs - codes
                for f in (1, 2))
    return gold.tolist(), one.tolist(), two.tolist()


class TestMin2:
    """Two-minimum selection of the check-node kernel, in both decoders."""

    def test_basic(self):
        gold, one, two = row_extrinsics([3, 1, 2])
        assert gold == one == two == [1, 2, 1]

    def test_tie_lowest_index(self):
        # a tied minimum gives every position that magnitude, wherever the tie is
        for codes in ([2, 2, 5], [5, 2, 2], [2, 5, 2, 2], [4, 4]):
            gold, one, two = row_extrinsics(codes)
            assert gold == one == two == [min(codes)] * len(codes)

    def test_too_short(self):
        # a degree-1 row sees an empty minimum, read as the table's top entry
        fmt = QFormat(8, 1)
        top = int(reciprocal_scale_table(1.15, fmt)[-1])
        gold, one, two = row_extrinsics([3], alpha=1.15, fmt=fmt)
        assert gold == one == two == [top]

    def test_against_two_pass_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            vals = rng.integers(0, 30, size=20)
            gold, one, two = row_extrinsics(vals)
            want = [int(np.delete(vals, j).min()) for j in range(len(vals))]
            assert gold == one == two == want

    @pytest.mark.parametrize("n_frames", [1, 3])
    def test_two_smallest_counts_repeats(self, n_frames):
        # one frame takes np.partition, more take the slot loop; both give
        # the two lowest of the sorted slots, so a tied minimum gives m2 == m1
        from nocldpc.decoder.nms import _two_smallest

        rng = np.random.default_rng(n_frames)
        for w in (2, 3, 8, 13, 15):
            mag = rng.integers(0, 4, size=(w, 40, n_frames)).astype(np.int16)
            m1, m2 = _two_smallest(mag)
            want = np.sort(mag, axis=0)
            assert np.array_equal(m1, want[0]) and np.array_equal(m2, want[1])
            assert (m1 == m2).any() and (m1 < m2).any()


def scalar_layer_oracle(h, layer_rows, lq, r, fmt, alpha):
    """Straight per-row transcript of the layered update equations.

    Independent of the vectorized path: the extrinsic magnitude for
    position j is computed as the minimum over the other positions, which
    is equivalent to the two-minimum selection rule.
    """
    lq = lq.astype(int).tolist()
    r = [row.astype(int).tolist() for row in r]

    def sat(x):
        return min(max(x, fmt.min_code), fmt.max_code)

    for m in layer_rows:
        row = h.rows[m]
        q = [sat(lq[j] - r[m][p]) for p, j in enumerate(row)]
        rnew = []
        for p in range(len(row)):
            others = [q[pp] for pp in range(len(row)) if pp != p]
            sign = 1
            for o in others:
                if o < 0:
                    sign = -sign
            mag = min(abs(o) for o in others)
            mag = math.floor(mag / alpha + 0.5)
            rnew.append(sat(sign * mag))
        for p, j in enumerate(row):
            r[m][p] = rnew[p]
            lq[j] = sat(q[p] + rnew[p])
    return np.asarray(lq, dtype=np.int32), [np.asarray(x, dtype=np.int32) for x in r]


class TestLayerUpdate:
    def test_worked_single_row(self):
        # L(q) = (+2, -1, +3), R = 0, alpha = 1: the weakest input flips
        h = make_h([[0, 1, 2]], 3)
        layout = CodeLayout.build(h)
        fmt = QFormat(8, 1)
        params = DecodeParams(alpha=1.0, it_max=1, fmt=fmt)
        state = CheckState.init(layout, np.array([2.0, -1.0, 3.0]), fmt)
        layer_update(layout, 0, state, params)
        assert list(state.r[0]) == [-2, 4, -2]  # -1.0, +2.0, -1.0
        assert list(state.lq) == [2, 2, 4]  # 1.0, 1.0, 2.0

    def test_alpha_requantization(self):
        h = make_h([[0, 1]], 2)
        layout = CodeLayout.build(h)
        fmt = QFormat(8, 1)
        params = DecodeParams(alpha=1.15, it_max=1, fmt=fmt)
        state = CheckState.init(layout, np.array([1.0, 5.0]), fmt)
        layer_update(layout, 0, state, params)
        # magnitude 1.0 -> code 2; 2/1.15 = 1.739 requantizes to code 2 = 1.0
        assert state.r[0][1] == 2

    def test_all_zero_fixed_point(self):
        h = make_h([[0, 1, 2], [1, 3, 4]], 5)
        layout = CodeLayout.build(h)
        fmt = QFormat(8, 1)
        params = DecodeParams(alpha=1.15, it_max=1, fmt=fmt)
        state = CheckState.init(layout, np.zeros(5), fmt)
        for li in range(len(layout.layer_rows)):
            layer_update(layout, li, state, params)
        assert not state.lq.any()
        assert not state.r.any()

    @pytest.mark.parametrize("alpha", [1.0, 1.15, 1.5])
    @pytest.mark.parametrize("fmt", [QFormat(8, 1), QFormat(9, 2), QFormat(6, 0)])
    def test_matches_scalar_oracle(self, alpha, fmt):
        rng = np.random.default_rng(13)
        for _ in range(10):
            n = int(rng.integers(8, 20))
            rows = []
            for _ in range(int(rng.integers(3, 7))):
                deg = int(rng.integers(2, 6))
                rows.append(sorted(rng.choice(n, size=deg, replace=False).tolist()))
            h = make_h(rows, n)
            layout = CodeLayout.build(h)
            params = DecodeParams(alpha=alpha, it_max=1, fmt=fmt)
            lq0 = rng.integers(fmt.min_code, fmt.max_code + 1, size=n).astype(np.int32)
            r0 = np.zeros((h.n_rows, layout.n_d), dtype=np.int32)
            for m in range(h.n_rows):
                d = len(h.rows[m])
                r0[m, :d] = rng.integers(fmt.min_code, fmt.max_code + 1, size=d)
            state = CheckState(lq=lq0.copy(), r=r0.copy(), fmt=fmt)
            for li in range(len(layout.layer_rows)):
                layer_update(layout, li, state, params)

            lq_ref, r_ref = lq0.copy(), [r0[m].copy() for m in range(h.n_rows)]
            for layer in layout.layer_rows:
                lq_ref, r_ref = scalar_layer_oracle(h, [int(x) for x in layer], lq_ref, np.asarray(r_ref), fmt, alpha)
            assert np.array_equal(state.lq, lq_ref)
            for m in range(h.n_rows):
                assert np.array_equal(state.r[m, : len(h.rows[m])], r_ref[m][: len(h.rows[m])])

    def test_negation_symmetry_without_saturation(self):
        fmt = QFormat(8, 1)
        lut = reciprocal_scale_table(1.15, fmt)
        rng = np.random.default_rng(17)
        # sign flip inverts the output only for even row degrees (the sign is
        # a product over d-1 inputs); zero inputs would be ambiguous, so keep
        # magnitudes >= 1
        q = (rng.integers(1, 31, size=(40, 6)) * rng.choice([-1, 1], size=(40, 6))).astype(np.int32)
        mask = np.ones_like(q, dtype=bool)
        mask[:20, 4:] = False  # degrees 4 and 6, both even
        a = check_node_update(q, mask, lut)
        b = check_node_update(-q, mask, lut)
        assert np.array_equal(a, -b)


class TestLayeredDecode:
    def test_noiseless_converges_first_iteration(self):
        llrs = np.full(6, 20.0)
        res = decode_layered_nms(TOY, llrs, DecodeParams(alpha=1.15, it_max=10))
        assert res.converged
        assert res.iterations_run == 1
        assert not res.hard_bits.any()

    def test_single_weak_flip_corrected(self):
        llrs = np.full(6, 12.0)
        llrs[1] = -0.8
        res = decode_layered_nms(TOY, llrs, DecodeParams(alpha=1.0, it_max=10))
        assert res.converged
        assert not res.hard_bits.any()
        # all-zero is the maximum-likelihood codeword for this received vector
        metrics = [float(np.sum(llrs * (1 - 2.0 * w))) for w in toy_codewords()]
        best = toy_codewords()[int(np.argmax(metrics))]
        assert not best.any()

    def test_itmax_contract(self):
        with pytest.raises(ValueError):
            DecodeParams(it_max=0)
        llrs = np.full(6, -1.0)
        res = decode_layered_nms(TOY, llrs, DecodeParams(it_max=1, early_stop=False))
        assert res.iterations_run == 1

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            decode_layered_nms(TOY, np.zeros(5), DecodeParams())

    def test_determinism(self):
        h = load_code("wimax_576_288")
        rng = np.random.default_rng(23)
        llrs = rng.normal(loc=3.0, scale=2.5, size=h.n_cols)
        p = DecodeParams(alpha=1.15, it_max=8)
        r1 = decode_layered_nms(h, llrs, p)
        r2 = decode_layered_nms(h, llrs, p)
        assert np.array_equal(r1.hard_bits, r2.hard_bits)
        assert np.array_equal(r1.final_llrs, r2.final_llrs)
        assert r1.iterations_run == r2.iterations_run

    def test_early_stop_only_truncates(self):
        h = load_code("wimax_576_288")
        layout = CodeLayout.build(h)
        rng = np.random.default_rng(29)
        for _ in range(5):
            llrs = rng.normal(loc=2.2, scale=2.1, size=h.n_cols)
            res = decode_layered_nms(h, llrs, DecodeParams(it_max=8, early_stop=True), layout)
            # the hard decisions a full run holds after the same number of iterations
            hist = decode_layered_nms(h, llrs, DecodeParams(it_max=res.iterations_run, early_stop=False),
                                      layout)
            assert np.array_equal(res.hard_bits, hist.hard_bits)

    def test_saturation_never_wraps(self):
        h = load_code("wimax_576_288")
        rng = np.random.default_rng(31)
        llrs = rng.normal(loc=40.0, scale=30.0, size=h.n_cols)
        fmt = QFormat(8, 1)
        res = decode_layered_nms(h, llrs, DecodeParams(it_max=5, fmt=fmt))
        assert res.final_llrs.min() >= fmt.min_code
        assert res.final_llrs.max() <= fmt.max_code


# The golden's (iterations_run, converged, bit errors) on the spot-check
# frames 0-3 of each c06 case, as the program decodes them.  The spot check
# compares golden with replay, and both stop on a syndrome, so a change to
# the early stop would move both alike; these pins catch it.
SPOT_PINS = {
    ("wimax_2304_1152", 2.0): ((8, True, 0), (8, True, 0), (5, True, 0), (4, True, 0)),
    ("wimax_576_288", 2.0): ((5, True, 0), (8, True, 0), (8, True, 0), (4, True, 0)),
    ("wifi_1944_486", 2.6): ((9, True, 0), (7, True, 0), (4, True, 0), (6, True, 0)),
    ("random_1057_244", 2.6): ((10, False, 16), (10, False, 9), (7, True, 0), (10, False, 31)),
}


@pytest.mark.parametrize("name, snr", SPOT_PINS)
def test_spot_frames_pinned(name, snr):
    h = load_code(name)
    layout = CodeLayout.build(h)
    rate = 1.0 - h.n_rows / h.n_cols
    params = DecodeParams(alpha=1.15, it_max=10, fmt=QFormat(8, 1))
    got = []
    for f in range(4):
        res = decode_layered_nms(h, awgn_llrs(h.n_cols, rate, snr, 20250808, f), params, layout)
        got.append((res.iterations_run, res.converged, int(res.hard_bits.sum())))  # all-zero frames
    assert tuple(got) == SPOT_PINS[name, snr]


def assert_same_decode(gold, batch):
    assert np.array_equal(batch.hard_bits, gold.hard_bits)
    assert batch.hard_bits.dtype == gold.hard_bits.dtype
    assert batch.iterations_run == gold.iterations_run
    assert batch.converged == gold.converged
    assert np.array_equal(batch.final_llrs, gold.final_llrs)
    assert batch.final_llrs.dtype == gold.final_llrs.dtype


def random_small_code(rng, n_d_one=False):
    n = int(rng.integers(6, 30))
    rows = []
    for _ in range(int(rng.integers(2, 12))):
        deg = 1 if n_d_one else int(rng.integers(1, 7))
        rows.append(sorted(rng.choice(n, size=deg, replace=False).tolist()))
    return make_h(rows, n)


class TestBatchedDecode:
    @pytest.mark.parametrize("snr_db", [1.0, 2.2])
    @pytest.mark.parametrize(
        "code", ["wimax_2304_1152", "wimax_576_288", "wifi_1944_486", "random_1057_244"]
    )
    def test_bundled_codes_match_golden(self, code, snr_db):
        h = load_code(code)
        layout = CodeLayout.build(h)
        rate = 1.0 - h.n_rows / h.n_cols
        llrs = np.stack([awgn_llrs(h.n_cols, rate, snr_db, seed=47, frame=f) for f in range(32)])
        params = DecodeParams(alpha=1.15, it_max=10)
        batch = decode_layered_nms_batch(h, llrs, params, layout)
        assert len(batch) == 32
        for row, res in zip(llrs, batch):
            assert_same_decode(decode_layered_nms(h, row, params, layout), res)

    @pytest.mark.parametrize("early_stop", [True, False])
    @pytest.mark.parametrize("alpha", [1.0, 1.15, 1.5])
    @pytest.mark.parametrize(
        "fmt", [QFormat(6, 0), QFormat(8, 1), QFormat(9, 2), QFormat(16, 4)], ids=str
    )
    def test_random_small_codes_match_golden(self, fmt, alpha, early_stop):
        # degree-1 rows, an all-degree-1 code (N_d == 1), one frame, it_max 1,
        # and LLRs large enough to saturate every format
        rng = np.random.default_rng(53)
        for case in range(12):
            h = random_small_code(rng, n_d_one=case == 0)
            layout = CodeLayout.build(h)
            n_frames = 1 if case == 1 else int(rng.integers(2, 10))
            it_max = 1 if case == 2 else int(rng.integers(2, 9))
            params = DecodeParams(alpha=alpha, it_max=it_max, fmt=fmt, early_stop=early_stop)
            scale = rng.choice([1.0, 1.0, 1e4], size=(n_frames, h.n_cols))
            llrs = rng.normal(1.0, 3.0, size=(n_frames, h.n_cols)) * scale
            batch = decode_layered_nms_batch(h, llrs, params, layout)
            for row, res in zip(llrs, batch):
                assert_same_decode(decode_layered_nms(h, row, params, layout), res)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            decode_layered_nms_batch(TOY, np.zeros(6), DecodeParams())
        with pytest.raises(ValueError):
            decode_layered_nms_batch(TOY, np.zeros((2, 5)), DecodeParams())


def awgn_block(h, snr_db, seed, n_frames):
    rate = 1.0 - h.n_rows / h.n_cols
    return np.stack([awgn_llrs(h.n_cols, rate, snr_db, seed=seed, frame=f) for f in range(n_frames)])


class TestScratchReuse:
    """The layered-NMS block path reuses per-thread buffers of its layout;
    results must own their arrays and calls must not see each other."""

    PARAMS = DecodeParams(alpha=1.15, it_max=10)
    ALGORITHM = "layered-nms"
    batch = staticmethod(decode_layered_nms_batch)
    golden = staticmethod(decode_layered_nms)

    def test_earlier_results_survive_later_calls(self):
        h = load_code("wimax_576_288")
        layout = CodeLayout.build(h)
        first = self.batch(h, awgn_block(h, 1.5, 3, 32), self.PARAMS, layout)
        kept = [(r.hard_bits.copy(), r.final_llrs.copy()) for r in first]
        for seed, n_frames in ((4, 32), (5, 9)):
            self.batch(h, awgn_block(h, 1.0, seed, n_frames), self.PARAMS, layout)
        for res, (bits, llrs) in zip(first, kept):
            assert np.array_equal(res.hard_bits, bits) and np.array_equal(res.final_llrs, llrs)
        assert not any(np.shares_memory(a.final_llrs, b.final_llrs) for a, b in zip(first, first[1:]))

    def test_two_threads_on_one_layout_match_serial(self):
        h = load_code("wimax_576_288")
        layout = CodeLayout.build(h)
        blocks = [awgn_block(h, 1.5, seed, 32) for seed in (6, 7)]
        serial = [self.batch(h, b, self.PARAMS, layout) for b in blocks]
        failures, start = [], threading.Barrier(2)

        def work(block, want):
            start.wait(timeout=30)
            for _ in range(4):
                for got, res in zip(self.batch(h, block, self.PARAMS, layout), want):
                    if not (np.array_equal(got.final_llrs, res.final_llrs)
                            and got.iterations_run == res.iterations_run):
                        failures.append(got)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads inside the sweeps
        try:
            threads = [threading.Thread(target=work, args=pair) for pair in zip(blocks, serial)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not failures

    def test_changing_frame_counts_match_golden(self):
        # the buffers grow to 32 frames, then serve 7, 32 and 1 from the same memory
        h = load_code("wimax_576_288")
        layout = CodeLayout.build(h)
        for seed, n_frames in enumerate((32, 7, 32, 1)):
            llrs = awgn_block(h, 1.8, seed, n_frames)
            batch = self.batch(h, llrs, self.PARAMS, layout)
            assert len(batch) == n_frames
            for row, res in zip(llrs, batch):
                assert_same_decode(self.golden(h, row, self.PARAMS, layout), res)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_caller_llrs_left_alone(self, order):
        # a quarter of the frames finish before the slowest, so the sweep
        # compacts its state; the caller's LLRs must not move with it, also
        # when their transpose is a contiguous frames-last array
        h = load_code("wimax_576_288")
        llrs = np.asarray(awgn_block(h, 2.2, 10, 32), order=order)
        kept = llrs.copy()
        its = [r.iterations_run for r in self.batch(h, llrs, self.PARAMS)]
        assert sum(it < max(its) for it in its) >= 8
        assert np.array_equal(llrs.view(np.uint64), kept.view(np.uint64))

    def test_repeated_ber_block_allocates_little(self):
        # fresh per-call buffers came to about 2 MiB per 32-frame block for
        # layered NMS and 3.9 MiB for flooding SPA; reused, the block's own
        # temporaries and its 32 results stay under 1 MiB
        h = load_code("wimax_2304_1152")
        layout = CodeLayout.build(h)

        def block(seed):
            return run_ber(h, self.PARAMS, [2.2], StopRule(10**9, 32), seed=seed,
                           algorithm=self.ALGORITHM, layout=layout)

        block(1)
        tracemalloc.start()
        try:
            block(2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1 << 20


class TestSpaScratchReuse(TestScratchReuse):
    """The same contract for the flooding SPA block path, whose buffers share
    the layout's scratch with layered NMS and run_ber's channel block."""

    ALGORITHM = "flooding-spa"
    batch = staticmethod(decode_flooding_spa_batch)
    golden = staticmethod(decode_flooding_spa)

    def test_alternating_blocks_match_goldens(self):
        # ber-waterfall-2t's pattern: NMS and SPA run_ber blocks in turn on
        # one layout; a buffer name the two paths or run_ber shared would
        # corrupt the counts
        h = load_code("wimax_576_288")
        layout = CodeLayout.build(h)
        goldens = {"layered-nms": decode_layered_nms, "flooding-spa": decode_flooding_spa}
        for seed in (8, 9):
            llrs = awgn_block(h, 1.5, seed, 32)
            for alg, golden in goldens.items():
                pt = run_ber(h, self.PARAMS, [1.5], StopRule(10**9, 32), seed=seed,
                             algorithm=alg, layout=layout)[0]
                results = [golden(h, row, self.PARAMS, layout) for row in llrs]
                errors = [int(r.hard_bits.sum()) for r in results]
                assert (pt.bit_errors, pt.frame_errors) == (sum(errors), sum(e > 0 for e in errors))
                assert pt.avg_iterations * 32 == sum(r.iterations_run for r in results)


def assert_same_bits(gold, batch):
    """assert_same_decode, with final LLRs equal down to the sign of zeros."""
    assert_same_decode(gold, batch)
    assert np.array_equal(batch.final_llrs.view(np.uint64), gold.final_llrs.view(np.uint64))


def wide_code(rng, degrees):
    """Random code with one row of each given degree, plus a few short rows."""
    n = max(degrees) + int(rng.integers(1, 20))
    rows = [sorted(rng.choice(n, size=d, replace=False).tolist()) for d in degrees]
    rows += [sorted(rng.choice(n, size=int(rng.integers(1, 5)), replace=False).tolist())
             for _ in range(int(rng.integers(1, 4)))]
    return make_h(rows, n)


class TestBatchedSpa:
    @pytest.mark.parametrize("snr_db", [1.0, 2.2])
    @pytest.mark.parametrize(
        "code", ["wimax_2304_1152", "wimax_576_288", "wifi_1944_486", "random_1057_244"]
    )
    def test_bundled_codes_match_golden(self, code, snr_db):
        h = load_code(code)
        layout = CodeLayout.build(h)
        rate = 1.0 - h.n_rows / h.n_cols
        llrs = np.stack([awgn_llrs(h.n_cols, rate, snr_db, seed=59, frame=f) for f in range(32)])
        params = DecodeParams(it_max=10)
        batch = decode_flooding_spa_batch(h, llrs, params, layout)
        assert len(batch) == 32
        for row, res in zip(llrs, batch):
            assert_same_bits(decode_flooding_spa(h, row, params, layout), res)

    @pytest.mark.parametrize("early_stop", [True, False])
    def test_random_small_codes_match_golden(self, early_stop):
        # an all-degree-1 code (N_d == 1), one frame, it_max 1, LLRs of
        # +-0.0, which give zero messages of either sign, and LLRs saturated
        # at +-60 where tanh rounds to 1
        rng = np.random.default_rng(61)
        for case in range(16):
            h = random_small_code(rng, n_d_one=case == 0)
            layout = CodeLayout.build(h)
            n_frames = 1 if case == 1 else int(rng.integers(2, 10))
            it_max = 1 if case == 2 else int(rng.integers(2, 9))
            params = DecodeParams(it_max=it_max, early_stop=early_stop)
            llrs = rng.normal(1.0, 3.0, size=(n_frames, h.n_cols))
            if case % 4 == 2:
                llrs = rng.choice([0.0, -0.0, 0.5, -1.0], size=llrs.shape)
            if case % 4 == 3:
                llrs = np.where(rng.random(llrs.shape) < 0.5, 60.0, -60.0)
            batch = decode_flooding_spa_batch(h, llrs, params, layout)
            for row, res in zip(llrs, batch):
                assert_same_bits(decode_flooding_spa(h, row, params, layout), res)

    @pytest.mark.parametrize("degrees", [
        [8], [15, 9], [16], [40, 23], [129], [140, 70], [300],
        [9, 3], [9, 5], [17, 8, 1], [130, 9], [200, 129, 7],
    ], ids=str)
    def test_wide_rows_match_golden(self, degrees):
        # N_d from 8 up takes numpy's 8-accumulator row sum, above 128 its
        # recursive halving; the batched row sums must add in the same order,
        # and a check of lower degree must skip the golden's zero pads
        # without regrouping the rest
        rng = np.random.default_rng(sum(degrees))
        h = wide_code(rng, degrees)
        layout = CodeLayout.build(h)
        for early_stop in (True, False):
            params = DecodeParams(it_max=6, early_stop=early_stop)
            llrs = rng.normal(7.0, 3.0, size=(5, h.n_cols))
            batch = decode_flooding_spa_batch(h, llrs, params, layout)
            for row, res in zip(llrs, batch):
                assert_same_bits(decode_flooding_spa(h, row, params, layout), res)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            decode_flooding_spa_batch(TOY, np.zeros(6), DecodeParams())
        with pytest.raises(ValueError):
            decode_flooding_spa_batch(TOY, np.zeros((2, 5)), DecodeParams())


@pytest.mark.parametrize("decode", [decode_layered_nms, decode_flooding_spa])
@pytest.mark.parametrize("llrs, message", [
    (np.float64(1.0), r"1-d array of 6 channel LLRs, got shape \(\)"),
    (np.ones((6, 1)), r"1-d array of 6 channel LLRs, got shape \(6, 1\)"),
    (np.ones((6, 2)), r"1-d array of 6 channel LLRs, got shape \(6, 2\)"),
    (np.ones(5), r"1-d array of 6 channel LLRs, got shape \(5,\)"),
])
def test_one_frame_decoders_reject_malformed_llrs(decode, llrs, message):
    with pytest.raises(ValueError, match=message):
        decode(TOY, llrs, DecodeParams())


class TestSyndrome:
    def test_all_zero(self):
        assert syndrome_check(TOY, np.zeros(6, dtype=np.uint8))

    def test_single_one(self):
        bits = np.zeros(6, dtype=np.uint8)
        bits[0] = 1
        assert not syndrome_check(TOY, bits)

    @pytest.mark.parametrize("bits, message", [
        (np.uint8(0), r"1-d array of 6 bits, got shape \(\)"),
        (np.zeros((6, 2), dtype=np.uint8), r"1-d array of 6 bits, got shape \(6, 2\)"),
        (np.zeros(5, dtype=np.uint8), "expected 6 bits, got 5"),
        (np.array([0.0, 0.0, np.nan, 0.0, 0.0, 0.0]), "must each be 0 or 1"),
        (np.array([0.0, 0.0, 0.0, 0.0, 0.0, np.inf]), "must each be 0 or 1"),
        (np.array([0.0, 0.5, 0.0, 0.0, 0.0, 1.0]), "must each be 0 or 1"),
    ])
    def test_rejects_malformed_bits(self, bits, message):
        with pytest.raises(ValueError, match=message):
            syndrome_check(TOY, bits)

    def test_float_bits(self):
        bits = np.zeros(6)
        assert syndrome_check(TOY, bits)
        bits[0] = 1.0
        assert not syndrome_check(TOY, bits)

    @pytest.mark.parametrize("dtype", [np.int16, np.float64])
    def test_batch_matches_per_frame(self, dtype):
        # rows of degree 1 to 4, so padded slots read the spare row N; it
        # holds a negative value that must not count.  Frame counts go up
        # and back down on one layout, whose syndrome buffers are reused.
        h = make_h([[0, 1, 3], [1, 2], [0, 2, 4, 5], [3]], 6)
        layout = CodeLayout.build(h)
        rng = np.random.default_rng(19)
        for n_frames in (1, 7, 8, 9, 33, 9, 8, 7, 1):
            bits = rng.integers(0, 2, size=(n_frames, 6)).astype(np.uint8)
            bits[::3] = 0  # every third frame is the all-zero codeword
            bits[1::3, 3] = 0  # and the row-3 check of the others holds
            mag = rng.integers(0, 5, size=bits.shape)
            lq = np.empty((7, n_frames), dtype=dtype)
            lq[:6] = np.where(bits == 1, -1 - mag, mag).T
            lq[6] = -3
            want = [layout.syndrome_ok(b) for b in bits]
            assert any(want) and (n_frames == 1 or not all(want))
            assert layout.syndrome_ok_batch(lq).tolist() == want

    def test_against_dense_gf2_oracle(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            n = int(rng.integers(6, 15))
            rows = []
            for _ in range(int(rng.integers(2, 6))):
                deg = int(rng.integers(1, 5))
                rows.append(sorted(rng.choice(n, size=deg, replace=False).tolist()))
            h = make_h(rows, n)
            dense = np.zeros((h.n_rows, n), dtype=np.int64)
            for m, row in enumerate(h.rows):
                dense[m, row] = 1
            bits = rng.integers(0, 2, size=n).astype(np.uint8)
            assert syndrome_check(h, bits) == (not ((dense @ bits) % 2).any())


class TestFloodingSpa:
    def test_psi_self_inverse(self):
        for x in (0.5, 1.0, 2.0):
            assert abs(psi(psi(x)) - x) < 1e-9

    def test_noiseless_converges_first_iteration(self):
        llrs = np.full(6, 15.0)
        res = decode_flooding_spa(TOY, llrs, DecodeParams(it_max=10))
        assert res.converged and res.iterations_run == 1
        assert not res.hard_bits.any()

    def test_agrees_with_exhaustive_map(self):
        # bitwise MAP over the toy code's 8 codewords
        words = np.stack(toy_codewords())
        rng = np.random.default_rng(41)
        agree = 0
        total = 0
        for _ in range(1000):
            word = words[rng.integers(len(words))]
            tx = 1.0 - 2.0 * word
            sigma = 0.8
            y = tx + rng.normal(scale=sigma, size=6)
            llrs = 2.0 * y / sigma**2
            res = decode_flooding_spa(TOY, llrs, DecodeParams(it_max=30))
            post = np.exp(words @ (-llrs))  # likelihood of each codeword
            p1 = (post[:, None] * words).sum(axis=0) / post.sum()
            map_bits = (p1 > 0.5).astype(np.uint8)
            agree += int((res.hard_bits == map_bits).sum())
            total += 6
        assert agree / total >= 0.95

    def test_flip_symmetry_even_degree_code(self):
        # a global sign flip maps the problem onto the all-ones codeword,
        # which exists exactly when every check degree is even
        h = make_h([[0, 1, 2, 3], [2, 3, 4, 5], [0, 1, 4, 5]], 6)
        rng = np.random.default_rng(43)
        for _ in range(20):
            llrs = rng.normal(loc=2.0, scale=2.0, size=6)
            r1 = decode_flooding_spa(h, llrs, DecodeParams(it_max=5, early_stop=False))
            r2 = decode_flooding_spa(h, -llrs, DecodeParams(it_max=5, early_stop=False))
            nz = r1.final_llrs != 0
            assert np.array_equal(r1.hard_bits[nz], 1 - r2.hard_bits[nz])
