"""Saturating fixed-point arithmetic for extrinsic values.

LLRs exchanged by the fixed-point decoder use an ``n_m`` two's-complement
format: n total bits, of which m are fractional.  A value is stored as an
integer code with weight 2**-m; the representable range is
[-(2**(n-1)) * 2**-m, (2**(n-1)-1) * 2**-m].  Every operation saturates at
those bounds and never wraps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class QFormat:
    """An n_m fixed-point format (n total bits, m fractional bits)."""

    n_bits: int = 8
    frac_bits: int = 1

    def __post_init__(self):
        if not 2 <= self.n_bits <= 24:
            raise ValueError(f"unsupported total bit width {self.n_bits}")
        if not 0 <= self.frac_bits < self.n_bits:
            raise ValueError(
                f"fractional bits {self.frac_bits} not representable in {self.n_bits} bits"
            )

    @property
    def min_code(self) -> int:
        return -(1 << (self.n_bits - 1))

    @property
    def max_code(self) -> int:
        return (1 << (self.n_bits - 1)) - 1

    @classmethod
    def parse(cls, text: str) -> "QFormat":
        """Parse the ``n_m`` notation, e.g. ``8_1``."""
        try:
            n, m = text.strip().split("_")
            return cls(int(n), int(m))
        except (ValueError, AttributeError) as exc:
            raise ValueError(f"bad quantization format {text!r}, expected 'n_m'") from exc

    def __str__(self) -> str:
        return f"{self.n_bits}_{self.frac_bits}"


def quantize(x, fmt: QFormat) -> np.ndarray:
    """Quantize real LLRs to integer codes.

    Rounds to nearest with ties away from zero, then saturates; +-inf
    saturates too.  Accepts a scalar or array; always returns int32 codes.
    Raises ValueError on NaN, which has no code.
    """
    # one float64 buffer, updated in place: +-0.5 toward the sign, then
    # truncation, is floor(s + 0.5) for s >= 0 and ceil(s - 0.5) below
    scaled = np.array(x, dtype=np.float64)
    scaled *= 1 << fmt.frac_bits
    scaled += np.copysign(0.5, scaled)
    np.trunc(scaled, out=scaled)
    np.clip(scaled, fmt.min_code, fmt.max_code, out=scaled)
    # clipped values are small and finite, so only a NaN makes the sum NaN
    if np.isnan(scaled.sum()):
        raise ValueError("cannot quantize NaN")
    return scaled.astype(np.int32)[()]  # a scalar for a scalar input


def saturate(codes, fmt: QFormat) -> np.ndarray:
    """Clamp (wider) integer codes into the representable range."""
    codes = np.asarray(codes)
    # bounds of the codes' own dtype: np.clip with Python ints looks up
    # np.iinfo on every call
    t = codes.dtype.type
    return codes.clip(t(fmt.min_code), t(fmt.max_code)).astype(np.int32)


def reciprocal_scale_table(alpha: float, fmt: QFormat) -> np.ndarray:
    """Magnitude lookup table realizing division by the normalization factor.

    Division by alpha is implemented as multiplication by 1/alpha in double
    precision followed by re-quantization to the working format.  Index i of
    the table holds the scaled magnitude code for input magnitude code i;
    indices run up to |min_code| because the most negative code has the
    largest magnitude.
    """
    if alpha < 1.0:
        raise ValueError(f"normalization factor must be >= 1, got {alpha}")
    mags = np.arange(-fmt.min_code + 1, dtype=np.float64)
    return np.floor(mags * (1.0 / alpha) + 0.5).astype(np.int32)

