"""Fixed-point encoding of reals into power-of-two rings.

All shared quantities in the protocol stack are carried as unsigned
integers modulo a power of two 2^n: aggregation and inference both work
in Z_2^63, and the comparison keys use narrower rings.  Reals enter the
ring through a fixed-point encoding that truncates to a configurable
scale (default 10^4, i.e. four decimal places) and maps negative values
to the upper half of the ring.

Every operation works on ``uint64`` numpy arrays of reduced ring values
(`encode_fixed_array`, `mod_add`, ...); the arrays carry no modulus, so
each call names the ring it works in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_SCALE = 10**4
POWER_OF_TWO_BITS = (8, 12, 16, 32, 63)

# Largest parameter magnitude the aggregation ring must absorb while still
# leaving room for sums over >= 1000 contributors.
MAX_PARAM_MAGNITUDE = 10**6


class HeadroomError(ValueError):
    """A value does not fit the signed range of its fixed-point ring."""


class ModulusMismatchError(ValueError):
    """Values from different rings were combined, or read in the wrong ring."""


@dataclass(frozen=True)
class Modulus:
    """A ring modulus 2^n, for n in ``POWER_OF_TWO_BITS``."""

    value: int

    def __post_init__(self) -> None:
        bits = self.value.bit_length() - 1
        if bits not in POWER_OF_TWO_BITS or self.value != 1 << bits:
            raise ValueError(f"modulus must be 2^n for n in {POWER_OF_TWO_BITS}")

    @classmethod
    def power_of_two(cls, bits: int) -> "Modulus":
        return cls(1 << bits)

    @property
    def bits(self) -> int:
        return self.value.bit_length() - 1

    @property
    def mask(self) -> np.uint64:
        """2^n - 1: ``x & mask`` reduces any uint64 mod 2^n."""
        return np.uint64((1 << self.bits) - 1)

    def __str__(self) -> str:
        return f"2^{self.bits}"


@dataclass(frozen=True)
class FixedPointConfig:
    """Scale factor plus the ring that fixed-point values live in."""

    scale: int = DEFAULT_SCALE
    modulus: Modulus = Modulus.power_of_two(63)

    def __post_init__(self) -> None:
        if self.scale < 1:
            raise ValueError("scale must be positive")
        if self.scale >= self.modulus.value // 2:
            raise ValueError("scale leaves no signed headroom in the ring")


# ---------------------------------------------------------------------------
# Arithmetic on flat uint64 arrays.
#
# 2^n divides 2^64, so sums, differences and products that wrap around
# uint64 still reduce correctly: one mask with 2^n - 1 finishes each
# operation, and a caller may fold many wrapped sums before masking once.
# ---------------------------------------------------------------------------


def _as_u64(values: np.ndarray) -> np.ndarray:
    return np.asarray(values, dtype=np.uint64)


def mod_add(a: np.ndarray, b: np.ndarray, modulus: Modulus,
            out: np.ndarray | None = None) -> np.ndarray:
    """(a + b) mod the modulus; pass ``out=a`` to accumulate in place."""
    t = np.add(_as_u64(a), _as_u64(b), out=out)
    return np.bitwise_and(t, modulus.mask, out=out)


def mod_sub(a: np.ndarray, b: np.ndarray, modulus: Modulus) -> np.ndarray:
    return (_as_u64(a) - _as_u64(b)) & modulus.mask


def mod_mul(a: np.ndarray, b: np.ndarray, modulus: Modulus) -> np.ndarray:
    return (_as_u64(a) * _as_u64(b)) & modulus.mask


def mod_matmul(a: np.ndarray, b: np.ndarray, modulus: Modulus) -> np.ndarray:
    """Exact modular matrix product."""
    return (_as_u64(a) @ _as_u64(b)) & modulus.mask


def encode_fixed_array(values: np.ndarray, cfg: FixedPointConfig) -> np.ndarray:
    """Encode reals as trunc(v * scale) mod the modulus (truncation toward zero)."""
    values = np.asarray(values, dtype=np.float64)
    if values.size and np.max(np.abs(values)) * cfg.scale >= cfg.modulus.value / 2:
        raise HeadroomError("array exceeds signed fixed-point headroom")
    # The int64 -> uint64 cast is reduction mod 2^64, so negative values
    # land on M + v once masked.
    return np.trunc(values * cfg.scale).astype(np.int64).astype(np.uint64) & cfg.modulus.mask


def decode_fixed_array(arr: np.ndarray, cfg: FixedPointConfig) -> np.ndarray:
    """Inverse of :func:`encode_fixed_array`; upper-half values decode negative."""
    arr = _as_u64(arr)
    if arr.size and np.max(arr) >= np.uint64(cfg.modulus.value):
        raise ModulusMismatchError(f"values not reduced mod {cfg.modulus}")
    return signed_i64_array(arr, cfg.modulus).astype(np.float64) / cfg.scale


def signed_i64_array(arr: np.ndarray, modulus: Modulus) -> np.ndarray:
    """Signed representatives as exact int64 (all supported moduli fit)."""
    shift = np.uint64(64 - modulus.bits)
    # Left-align then arithmetic-shift back: sign-extends the n-bit value.
    return np.ascontiguousarray(_as_u64(arr) << shift).view(np.int64) >> np.int64(shift)
