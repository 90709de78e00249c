"""Fixed-point encoding of reals into modular rings.

All shared quantities in the protocol stack are carried as unsigned
integers inside a finite ring: either the integers modulo a large prime Q
(used by the aggregation layer) or modulo a power of two 2^n (used by the
comparison/inference layer).  Reals enter the ring through a fixed-point
encoding that truncates to a configurable scale (default 10^4, i.e. four
decimal places) and maps negative values to the upper half of the ring.

Every operation works on ``uint64`` numpy arrays of reduced ring values
(`encode_fixed_array`, `mod_add`, ...); the arrays carry no modulus, so
each call names the ring it works in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_PRIME = (1 << 61) - 1  # Mersenne prime, fits 64 bits with product headroom
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
    """A ring modulus, either a large prime or a power of two."""

    kind: str  # "prime" | "power_of_two"
    value: int

    def __post_init__(self) -> None:
        if self.kind == "prime":
            # Production rings use the 2^61 - 1 default for sum headroom;
            # small primes are admitted so protocol tests can enumerate
            # miniature rings exhaustively.  The vectorised prime add and
            # subtract need a + b and a - b + q to fit 64 bits without wrap.
            if not _is_prime_u64(self.value):
                raise ValueError(f"{self.value} is not prime")
            if self.value >= 1 << 63:
                raise ValueError("prime modulus must be below 2^63")
        elif self.kind == "power_of_two":
            bits = self.value.bit_length() - 1
            if self.value != 1 << bits or bits not in POWER_OF_TWO_BITS:
                raise ValueError(
                    f"power-of-two modulus must be 2^n for n in {POWER_OF_TWO_BITS}"
                )
        else:
            raise ValueError(f"unknown modulus kind {self.kind!r}")
        if self.value >= 1 << 64:
            raise ValueError("modulus must fit in 64 bits")

    @classmethod
    def prime(cls, value: int = DEFAULT_PRIME) -> "Modulus":
        return cls("prime", value)

    @classmethod
    def power_of_two(cls, bits: int) -> "Modulus":
        return cls("power_of_two", 1 << bits)

    @property
    def bits(self) -> int:
        return self.value.bit_length() if self.kind == "prime" else self.value.bit_length() - 1

    def __str__(self) -> str:
        if self.kind == "power_of_two":
            return f"2^{self.value.bit_length() - 1}"
        return str(self.value)


@dataclass(frozen=True)
class FixedPointConfig:
    """Scale factor plus the ring that fixed-point values live in."""

    scale: int = DEFAULT_SCALE
    modulus: Modulus = Modulus.prime()

    def __post_init__(self) -> None:
        if self.scale < 1:
            raise ValueError("scale must be positive")
        if self.scale >= self.modulus.value // 2:
            raise ValueError("scale leaves no signed headroom in the ring")


# ---------------------------------------------------------------------------
# Arithmetic on flat uint64 arrays.
#
# Power-of-two rings exploit the native wraparound of uint64 (2^m divides
# 2^64, so wrapped sums/products reduce correctly).  Prime-ring sums and
# differences of reduced operands stay below 2q < 2^64, so one conditional
# subtraction (an unsigned minimum) reduces them; products go through
# Python-int object arrays because they can exceed 64 bits.
# ---------------------------------------------------------------------------


def _as_u64(values: np.ndarray) -> np.ndarray:
    arr = np.asarray(values, dtype=np.uint64)
    return arr


def mod_add(a: np.ndarray, b: np.ndarray, modulus: Modulus,
            out: np.ndarray | None = None) -> np.ndarray:
    """(a + b) mod the modulus; pass ``out=a`` to accumulate in place."""
    a, b = _as_u64(a), _as_u64(b)
    t = np.add(a, b, out=out)
    if modulus.kind == "power_of_two":
        return np.bitwise_and(t, np.uint64(modulus.value - 1), out=out)
    # t < 2q; when t < q, t - q wraps above t, so the minimum is t mod q.
    return np.minimum(t, t - np.uint64(modulus.value), out=out)


def mod_sub(a: np.ndarray, b: np.ndarray, modulus: Modulus) -> np.ndarray:
    a, b = _as_u64(a), _as_u64(b)
    if modulus.kind == "power_of_two":
        return (a - b) & np.uint64(modulus.value - 1)
    # When a < b, d wraps above q and d + q wraps back to a - b + q.
    d = a - b
    return np.minimum(d, d + np.uint64(modulus.value))


def mod_mul(a: np.ndarray, b: np.ndarray, modulus: Modulus) -> np.ndarray:
    a, b = _as_u64(a), _as_u64(b)
    if modulus.kind == "power_of_two":
        return (a * b) & np.uint64(modulus.value - 1)
    wide = a.astype(object) * b.astype(object) % modulus.value
    return np.asarray(wide, dtype="object").astype(np.uint64)


def mod_matmul(a: np.ndarray, b: np.ndarray, modulus: Modulus) -> np.ndarray:
    """Exact modular matrix product."""
    a, b = _as_u64(a), _as_u64(b)
    if modulus.kind == "power_of_two":
        return (a @ b) & np.uint64(modulus.value - 1)
    wide = a.astype(object) @ b.astype(object) % modulus.value
    return np.asarray(wide, dtype="object").astype(np.uint64)


def encode_fixed_array(values: np.ndarray, cfg: FixedPointConfig) -> np.ndarray:
    """Encode reals as trunc(v * scale) mod the modulus (truncation toward zero)."""
    values = np.asarray(values, dtype=np.float64)
    if values.size and np.max(np.abs(values)) * cfg.scale >= cfg.modulus.value / 2:
        raise HeadroomError("array exceeds signed fixed-point headroom")
    scaled = np.trunc(values * cfg.scale).astype(np.int64)
    # Negative values wrap to M + v; uint64 addition reduces exactly because
    # the int64 -> uint64 cast is already reduction mod 2^64.
    as_u64 = scaled.astype(np.uint64)
    return np.where(scaled < 0, as_u64 + np.uint64(cfg.modulus.value), as_u64)


def decode_fixed_array(arr: np.ndarray, cfg: FixedPointConfig) -> np.ndarray:
    """Inverse of :func:`encode_fixed_array`; upper-half values decode negative."""
    arr = _as_u64(arr)
    if arr.size and np.max(arr) >= np.uint64(cfg.modulus.value):
        raise ModulusMismatchError(f"values not reduced mod {cfg.modulus}")
    return signed_i64_array(arr, cfg.modulus).astype(np.float64) / cfg.scale


def signed_i64_array(arr: np.ndarray, modulus: Modulus) -> np.ndarray:
    """Signed representatives as exact int64 (all supported moduli fit)."""
    arr = _as_u64(arr)
    if modulus.kind == "power_of_two":
        shift = np.uint64(64 - modulus.bits)
        # Left-align then arithmetic-shift back: sign-extends the m-bit value.
        return np.ascontiguousarray(arr << shift).view(np.int64) >> np.int64(shift)
    half = (modulus.value + 1) // 2
    signed = arr.astype(np.int64)
    return np.where(arr >= np.uint64(half), signed - np.int64(modulus.value), signed)
