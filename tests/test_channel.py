import math

import numpy as np
import pytest

from nocldpc.channel import (
    BerPoint,
    StopRule,
    awgn_llrs,
    noise_sigma,
    run_ber,
)
from nocldpc.codes import load_code
from nocldpc.decoder import CodeLayout, DecodeParams, decode_flooding_spa, decode_layered_nms
from nocldpc.fixedpoint import QFormat


def gf2_nullspace_vector(h):
    """One nonzero codeword of H by Gaussian elimination over GF(2)."""
    m, n = h.n_rows, h.n_cols
    a = np.zeros((m, n), dtype=np.uint8)
    for r, row in enumerate(h.rows):
        a[r, row] = 1
    pivots = []
    r = 0
    for c in range(n):
        hit = np.nonzero(a[r:, c])[0]
        if len(hit) == 0:
            continue
        a[[r, r + hit[0]]] = a[[r + hit[0], r]]
        for rr in range(m):
            if rr != r and a[rr, c]:
                a[rr] ^= a[r]
        pivots.append(c)
        r += 1
        if r == m:
            break
    free = [c for c in range(n) if c not in pivots]
    x = np.zeros(n, dtype=np.uint8)
    x[free[0]] = 1
    for r, c in enumerate(pivots):
        x[c] = (a[r] @ x - a[r, c] * x[c]) % 2
    return x


class TestAwgn:
    def test_deterministic(self):
        a = awgn_llrs(100, 0.5, 2.0, seed=3, frame=7)
        b = awgn_llrs(100, 0.5, 2.0, seed=3, frame=7)
        assert np.array_equal(a, b)
        c = awgn_llrs(100, 0.5, 2.0, seed=3, frame=8)
        assert not np.array_equal(a, c)

    def test_llr_moment_identity(self):
        # mean of the LLR is 2 / sigma^2, std 2 / sigma
        sigma = noise_sigma(0.5, 1.5)
        samples = np.concatenate(
            [awgn_llrs(10000, 0.5, 1.5, seed=1, frame=f) for f in range(10)]
        )
        want = 2.0 / sigma**2
        se = (2.0 / sigma) / np.sqrt(len(samples))
        assert abs(samples.mean() - want) < 3 * se

    def test_high_snr_converges_first_iteration(self):
        h = load_code("wimax_576_288")
        llrs = awgn_llrs(h.n_cols, 0.5, 20.0, seed=2)
        res = decode_layered_nms(h, llrs, DecodeParams(alpha=1.15, it_max=10))
        assert res.converged and res.iterations_run == 1

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            noise_sigma(1.5, 2.0)

    # NaN and +inf used to give NaN or zero sigma, 1e308 / -1e308 / -inf an
    # OverflowError or ZeroDivisionError, and 3080 a sigma^2 so small that
    # the LLRs 2 y / sigma^2 overflowed to inf
    @pytest.mark.parametrize("snr_db", [math.nan, math.inf, -math.inf, 1e308, -1e308, 4000.0, -4000.0,
                                        3080.0])
    def test_snr_without_finite_positive_sigma_rejected(self, snr_db):
        with pytest.raises(ValueError, match="noise sigma"):
            noise_sigma(0.5, snr_db)
        with pytest.raises(ValueError, match="noise sigma"):
            awgn_llrs(16, 0.5, snr_db, seed=0)


class TestRunBer:
    def test_stops_on_error_budget(self):
        h = load_code("wimax_576_288")
        pts = run_ber(
            h, DecodeParams(alpha=1.15, it_max=4),
            [0.5], StopRule(min_bit_errors=50, max_frames=500), seed=1,
        )
        pt = pts[0]
        assert pt.bit_errors >= 50
        assert pt.frames < 500
        assert pt.ber == pt.bit_errors / (pt.frames * h.n_cols)
        assert pt.avg_iterations <= 4

    def test_thread_count_does_not_change_counts(self):
        h = load_code("wimax_576_288")
        for algorithm in ("layered-nms", "flooding-spa"):
            kw = dict(snr_list=[1.5], stop=StopRule(200, 96), seed=9, algorithm=algorithm)
            a = run_ber(h, DecodeParams(alpha=1.15, it_max=4), threads=1, **kw)[0]
            b = run_ber(h, DecodeParams(alpha=1.15, it_max=4), threads=4, **kw)[0]
            assert (a.bit_errors, a.frames, a.frame_errors) == (b.bit_errors, b.frames, b.frame_errors)
            assert a.avg_iterations == b.avg_iterations

    @pytest.mark.parametrize("algorithm", ["layered-nms", "flooding-spa"])
    @pytest.mark.parametrize("min_errors", [10**9, 20])
    def test_counts_match_frame_by_frame_golden(self, algorithm, min_errors):
        # 45 frames: one full 32-frame block and a partial last block, unless
        # the error budget stops the run at the block boundary first
        h = load_code("wimax_576_288")
        layout = CodeLayout.build(h)
        params = DecodeParams(alpha=1.15, it_max=5)
        decode = decode_layered_nms if algorithm == "layered-nms" else decode_flooding_spa
        pt = run_ber(h, params, [1.5], StopRule(min_errors, 45), seed=8,
                     algorithm=algorithm, layout=layout)[0]
        frames = bit_errors = frame_errors = iterations = 0
        while frames < 45 and bit_errors < min_errors:
            for f in range(frames, min(frames + 32, 45)):
                res = decode(h, awgn_llrs(h.n_cols, 0.5, 1.5, seed=8, frame=f), params, layout)
                errs = int(res.hard_bits.sum())
                bit_errors += errs
                frame_errors += int(errs > 0)
                iterations += res.iterations_run
            frames = min(frames + 32, 45)
        assert (pt.frames, pt.bit_errors, pt.frame_errors) == (frames, bit_errors, frame_errors)
        assert pt.avg_iterations == iterations / frames
        assert pt.frames == (32 if min_errors == 20 else 45)

    # the benchmark's BER workloads at its default seed: (snr_db, blocks) ->
    # (frames, bit errors, frame errors, iterations) summed over the blocks,
    # block k drawing its frames from seed SeedSequence((20250808, k))
    @pytest.mark.parametrize("snr_db,blocks,algorithm,want", [
        (2.2, 8, "layered-nms", (256, 0, 0, 1305)),
        (1.5, 4, "layered-nms", (128, 2555, 39, 1123)),
        (1.5, 4, "flooding-spa", (128, 4196, 115, 1274)),
    ], ids=["ber-converging", "ber-waterfall-2t-nms", "ber-waterfall-2t-spa"])
    def test_benchmark_block_counts(self, snr_db, blocks, algorithm, want):
        h = load_code("wimax_2304_1152")
        layout = CodeLayout.build(h)
        params = DecodeParams(alpha=1.15, it_max=10, fmt=QFormat(8, 1))
        got = np.zeros(4, dtype=np.int64)
        for k in range(blocks):
            seed = int(np.random.SeedSequence((20250808, k)).generate_state(1)[0])
            pt = run_ber(h, params, [snr_db], StopRule(10**9, 32), seed=seed,
                         algorithm=algorithm, layout=layout)[0]
            got += (pt.frames, pt.bit_errors, pt.frame_errors, round(pt.avg_iterations * pt.frames))
        assert tuple(got.tolist()) == want

    @pytest.mark.parametrize("snr_db", [-math.inf, math.inf, math.nan, 1e308, 3080.0])
    def test_snr_without_finite_positive_sigma_rejected(self, snr_db):
        h = load_code("wimax_576_288")
        with pytest.raises(ValueError, match="noise sigma"):
            run_ber(h, DecodeParams(it_max=2), [snr_db], StopRule(1, 1))

    def test_threads_below_one_rejected(self):
        h = load_code("wimax_576_288")
        with pytest.raises(ValueError, match="threads"):
            run_ber(h, DecodeParams(), [2.0], StopRule(1, 1), threads=0)

    def test_early_stop_does_not_change_ber(self):
        h = load_code("wimax_576_288")
        kw = dict(snr_list=[1.8], stop=StopRule(10**9, 64), seed=4)
        on = run_ber(h, DecodeParams(alpha=1.15, it_max=6, early_stop=True), **kw)[0]
        off = run_ber(h, DecodeParams(alpha=1.15, it_max=6, early_stop=False), **kw)[0]
        assert on.bit_errors == off.bit_errors
        assert on.avg_iterations < off.avg_iterations

    def test_flooding_algorithm(self):
        h = load_code("wimax_576_288")
        pt = run_ber(
            h, DecodeParams(it_max=8), [2.5], StopRule(10**9, 32), seed=5,
            algorithm="flooding-spa",
        )[0]
        assert pt.fmt == "float"
        assert pt.frames == 32

    def test_unknown_algorithm(self):
        h = load_code("wimax_576_288")
        with pytest.raises(ValueError):
            run_ber(h, DecodeParams(), [2.0], StopRule(1, 1), algorithm="bogus")


class TestQuantizationSweep:
    """Formats compared with run_ber at one seed, so every format sees the same noise."""

    @staticmethod
    def sweep(h, formats, snr_db, alpha, it_max, frames, seed):
        return [
            run_ber(h, DecodeParams(alpha=alpha, it_max=it_max, fmt=fmt), [snr_db],
                    StopRule(10**9, frames), seed=seed)[0]
            for fmt in formats
        ]

    def test_paired_noise_and_identical_format_identical_counts(self):
        h = load_code("wimax_576_288")
        pts = self.sweep(h, [QFormat(8, 1), QFormat(8, 1)], 1.8, 1.15, 5, 48, seed=6)
        assert pts[0].bit_errors == pts[1].bit_errors
        assert pts[0].frames == pts[1].frames

    def test_coarse_format_visibly_worse(self):
        h = load_code("wimax_576_288")
        fine, coarse = self.sweep(h, [QFormat(8, 1), QFormat(4, 0)], 2.5, 1.15, 8, 160, seed=7)
        assert coarse.bit_errors > 3 * max(fine.bit_errors, 1)


class TestDecoderSymmetry:
    def test_codeword_transform_spa_exact(self):
        h = load_code("wimax_576_288")
        layout = CodeLayout.build(h)
        c = gf2_nullspace_vector(h)
        assert c.any()
        from nocldpc.decoder import syndrome_check

        assert syndrome_check(h, c, layout)
        flip = 1.0 - 2.0 * c.astype(np.float64)
        params = DecodeParams(it_max=6, early_stop=False)
        for f in range(100):
            llrs = awgn_llrs(h.n_cols, 0.5, 2.0, seed=11, frame=f)
            r0 = decode_flooding_spa(h, llrs, params, layout)
            r1 = decode_flooding_spa(h, llrs * flip, params, layout)
            assert np.array_equal(r1.hard_bits, r0.hard_bits ^ c)

    def test_codeword_transform_fixed_point(self):
        # exact covariance holds while the asymmetric -2^(n-1) corner stays
        # untouched, so use a roomy format
        h = load_code("wimax_576_288")
        layout = CodeLayout.build(h)
        c = gf2_nullspace_vector(h)
        flip = 1.0 - 2.0 * c.astype(np.float64)
        fmt = QFormat(12, 2)
        params = DecodeParams(alpha=1.15, it_max=6, fmt=fmt, early_stop=False)
        for f in range(30):
            llrs = awgn_llrs(h.n_cols, 0.5, 2.0, seed=12, frame=f)
            r0 = decode_layered_nms(h, llrs, params, layout)
            r1 = decode_layered_nms(h, llrs * flip, params, layout)
            assert int(np.abs(r0.final_llrs).max()) < fmt.max_code
            assert np.array_equal(r1.hard_bits, r0.hard_bits ^ c)
            assert np.array_equal(r1.final_llrs, r0.final_llrs * (1 - 2 * c.astype(np.int64)))


def test_berpoint_csv_row():
    pt = BerPoint(2.0, 10, 5, 3, 5e-4, 0.3, 4.5)
    assert pt.as_csv_row().startswith("2.0,10,5,3,")
    assert "snr_db" in BerPoint.CSV_HEADER
