"""Fixed-point encoding of reals into power-of-two rings.

All shared quantities in the protocol stack are carried as unsigned
integers modulo a power of two 2^n: aggregation and inference both work
in Z_2^63, and the comparison keys use narrower rings.  Reals enter the
ring through a fixed-point encoding that truncates to a configurable
scale (default 10^4, i.e. four decimal places) and maps negative values
to the upper half of the ring.  A prime modulus below 2^63 remains for
`mod_add` and `mod_sub` only; nothing in the pipeline builds one.

Every operation works on ``uint64`` numpy arrays of reduced ring values
(`encode_fixed_array`, `mod_add`, ...); the arrays carry no modulus, so
each call names the ring it works in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_PRIME = (1 << 61) - 1  # Mersenne prime
DEFAULT_SCALE = 10**4
POWER_OF_TWO_BITS = (8, 12, 16, 32, 63)

# Largest parameter magnitude the aggregation ring must absorb while still
# leaving room for sums over >= 1000 contributors.
MAX_PARAM_MAGNITUDE = 10**6


class HeadroomError(ValueError):
    """A value does not fit the signed range of its fixed-point ring."""


class ModulusMismatchError(ValueError):
    """Values from different rings were combined, or read in the wrong ring."""


def _is_prime_u64(n: int) -> bool:
    # Deterministic Miller-Rabin; this witness set is exact below 2^64.
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Modulus:
    """A ring modulus: 2^n for n in ``POWER_OF_TWO_BITS``, or a prime."""

    kind: str  # "power_of_two" | "prime"
    value: int

    def __post_init__(self) -> None:
        if self.kind == "power_of_two":
            bits = self.value.bit_length() - 1
            if bits not in POWER_OF_TWO_BITS or self.value != 1 << bits:
                raise ValueError(f"modulus must be 2^n for n in {POWER_OF_TWO_BITS}")
        elif self.kind == "prime":
            if not _is_prime_u64(self.value):
                raise ValueError(f"{self.value} is not prime")
            # The prime add and subtract need a + b and a - b + q below 2^64.
            if self.value >= 1 << 63:
                raise ValueError("prime modulus must be below 2^63")
        else:
            raise ValueError(f"unknown modulus kind {self.kind!r}")

    @classmethod
    def power_of_two(cls, bits: int) -> "Modulus":
        return cls("power_of_two", 1 << bits)

    @classmethod
    def prime(cls, value: int = DEFAULT_PRIME) -> "Modulus":
        return cls("prime", value)

    @property
    def bits(self) -> int:
        return self.value.bit_length() - 1

    @property
    def mask(self) -> np.uint64:
        """2^n - 1: ``x & mask`` reduces any uint64 mod 2^n."""
        return np.uint64((1 << self.bits) - 1)

    def __str__(self) -> str:
        return f"2^{self.bits}" if self.kind == "power_of_two" else str(self.value)


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
# A prime-ring sum or difference of reduced operands stays below 2q < 2^64,
# so one conditional subtraction (an unsigned minimum) reduces it.
# ---------------------------------------------------------------------------


def _as_u64(values: np.ndarray) -> np.ndarray:
    return np.asarray(values, dtype=np.uint64)


def mod_add(a: np.ndarray, b: np.ndarray, modulus: Modulus,
            out: np.ndarray | None = None) -> np.ndarray:
    """(a + b) mod the modulus; pass ``out=a`` to accumulate in place."""
    t = np.add(_as_u64(a), _as_u64(b), out=out)
    if modulus.kind == "prime":
        # t < 2q; when t < q, t - q wraps above t, so the minimum is t mod q.
        return np.minimum(t, t - np.uint64(modulus.value), out=out)
    return np.bitwise_and(t, modulus.mask, out=out)


def mod_sub(a: np.ndarray, b: np.ndarray, modulus: Modulus) -> np.ndarray:
    d = _as_u64(a) - _as_u64(b)
    if modulus.kind == "prime":
        # When a < b, d wraps above q and d + q wraps back to a - b + q.
        return np.minimum(d, d + np.uint64(modulus.value))
    return d & modulus.mask


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
