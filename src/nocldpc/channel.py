"""AWGN/BPSK channel model and Monte Carlo BER harness.

All-zero-codeword methodology: the transmitted word is all zeros (BPSK +1),
valid for this symmetric channel and sign-symmetric decoders, so no encoder
is needed and every position counts toward the bit-error ratio.

Eb/N0 convention: sigma^2 = 1 / (2 * rate * 10^(snr_db / 10)) and
LLR = 2 y / sigma^2.

Reproducibility: frame f of a run draws its unit noise from a generator
seeded with (seed, f), and the same unit noise is rescaled for every SNR
point and quantization format (paired comparisons).  Frames are consumed in
fixed blocks of 32 with the stop rule evaluated between blocks.  Each block
is decoded in one frame-batched call on the calling thread:
decode_layered_nms_batch for layered NMS and decode_flooding_spa_batch for
flooding SPA, each bit-exact with its single-frame golden.  The ``threads``
argument is kept for callers but changes neither the counts nor the speed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codes.matrix import ParityCheckMatrix
from .decoder import CodeLayout, DecodeParams, decode_flooding_spa_batch, decode_layered_nms_batch

_BLOCK = 32  # frames per block; fixed so the stop rule sees the same boundaries

_DECODERS = {"layered-nms": decode_layered_nms_batch, "flooding-spa": decode_flooding_spa_batch}
ALGORITHMS = tuple(_DECODERS)


@dataclass
class StopRule:
    min_bit_errors: int = 100
    max_frames: int = 10000

    def __post_init__(self):
        if self.min_bit_errors < 1 or self.max_frames < 1:
            raise ValueError("stop criteria must be positive")


@dataclass
class BerPoint:
    snr_db: float
    frames: int
    bit_errors: int
    frame_errors: int
    ber: float
    fer: float
    avg_iterations: float
    label: str = ""
    fmt: str = ""

    def as_dict(self) -> dict:
        return {
            "snr_db": self.snr_db,
            "frames": self.frames,
            "bit_errors": self.bit_errors,
            "frame_errors": self.frame_errors,
            "ber": self.ber,
            "fer": self.fer,
            "avg_iterations": self.avg_iterations,
            "label": self.label,
            "fmt": self.fmt,
        }

    CSV_HEADER = "snr_db,frames,bit_errors,frame_errors,ber,fer,avg_iterations"

    def as_csv_row(self) -> str:
        return (
            f"{self.snr_db},{self.frames},{self.bit_errors},{self.frame_errors},"
            f"{self.ber:.6e},{self.fer:.6e},{self.avg_iterations:.4f}"
        )


def noise_sigma(rate: float, snr_db: float) -> float:
    """Noise standard deviation at Eb/N0 = snr_db dB.

    Raises ValueError unless it is finite and positive and the LLR scale
    2 / sigma^2 is finite: a NaN or infinite snr_db, one whose
    10^(snr_db / 10) overflows or underflows, or one from about 3080 dB up,
    where 2 / sigma^2 overflows, has none.
    """
    if not 0.0 < rate < 1.0:
        raise ValueError(f"code rate must be in (0, 1), got {rate}")
    try:
        sigma = float(np.sqrt(1.0 / (2.0 * rate * 10.0 ** (snr_db / 10.0))))
        llr_scale = 2.0 / (sigma * sigma)
    except (OverflowError, ZeroDivisionError):
        sigma = llr_scale = math.nan
    if not (math.isfinite(sigma) and sigma > 0.0 and math.isfinite(llr_scale)):
        raise ValueError(f"Eb/N0 of {snr_db} dB has no finite positive noise sigma "
                         "with a finite LLR scale")
    return sigma


def _frame_rng(seed: int, frame: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, frame))))


def _noise_to_llrs(g: np.ndarray, sigma: float) -> np.ndarray:
    """Turn unit noise g into the LLRs 2 (1 + sigma g) / sigma^2 of the
    all-zero word, in place, and return g."""
    g *= sigma
    g += 1.0
    g *= 2.0
    g /= sigma * sigma
    return g


def awgn_llrs(n: int, rate: float, snr_db: float, seed: int, frame: int = 0) -> np.ndarray:
    """Channel LLRs for one all-zero frame, deterministic under (seed, frame)."""
    sigma = noise_sigma(rate, snr_db)
    return _noise_to_llrs(_frame_rng(seed, frame).standard_normal(n), sigma)


def run_ber(
    h: ParityCheckMatrix,
    params: DecodeParams,
    snr_list,
    stop: StopRule | dict,
    seed: int = 0,
    algorithm: str = "layered-nms",
    threads: int = 1,
    layout: CodeLayout | None = None,
) -> list[BerPoint]:
    """Monte Carlo BER/FER/average-iterations per SNR point.

    Frames are decoded until min_bit_errors bit errors are seen or
    max_frames is reached, whichever first (checked between fixed blocks).
    threads must be >= 1 and has no effect on the counts or the speed.
    Each block's channel LLRs, and the large buffers of either block
    decoder, are reused scratch of the layout (CodeLayout.scratch), one set
    per thread for the layout's lifetime, as is the flooding SPA decoder's
    plan (CodeLayout.spa_plan): pass the same layout to repeated calls to
    keep them.
    """
    if isinstance(stop, dict):
        stop = StopRule(**stop)
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    if layout is None:
        layout = CodeLayout.build(h)
    rate = 1.0 - h.n_rows / h.n_cols
    n = h.n_cols
    llrs = layout.scratch("channel", (min(_BLOCK, stop.max_frames), n), np.float64)

    points = []
    for snr_db in snr_list:
        sigma = noise_sigma(rate, float(snr_db))
        bit_errors = 0
        frame_errors = 0
        iters_total = 0
        frame = 0
        while frame < stop.max_frames and bit_errors < stop.min_bit_errors:
            block = llrs[: min(_BLOCK, stop.max_frames - frame)]
            for i, row in enumerate(block):
                _frame_rng(seed, frame + i).standard_normal(out=row)
            results = _DECODERS[algorithm](h, _noise_to_llrs(block, sigma), params, layout)
            for res in results:
                errs = int(res.hard_bits.sum())
                bit_errors += errs
                frame_errors += int(errs > 0)
                iters_total += res.iterations_run
            frame += len(block)
        points.append(
            BerPoint(
                snr_db=float(snr_db),
                frames=frame,
                bit_errors=bit_errors,
                frame_errors=frame_errors,
                ber=bit_errors / (frame * n),
                fer=frame_errors / frame,
                avg_iterations=iters_total / frame,
                label=h.label,
                fmt=str(params.fmt) if algorithm == "layered-nms" else "float",
            )
        )
    return points

