"""Fixed-point encoding of reals into the ring Z_2^63.

Every shared quantity in the protocol stack lives in one ring, Z_2^63
(`BITS`): aggregation shares, inference shares and the outputs of the
comparison keys.  Only a comparison key's input domain has its own width,
a plain bit count (:func:`fedchain.fss.dcf_gen_batch`).  Reals enter the
ring through a fixed-point encoding that truncates to `SCALE` = 10^4 (four
decimal places) and maps negative values to the upper half of the ring.

Ring values are ``uint64`` numpy arrays reduced mod 2^63, and a two-party
sharing is one party-major (2, ...) array of them, row p party p's share
(:mod:`fedchain.sharing`).  Arithmetic on them wraps in uint64 and is
reduced with one ``& MASK`` per step.
"""

from __future__ import annotations

import numpy as np

BITS = 63
# x & MASK reduces any uint64 mod 2^63.  2^63 divides 2^64, so sums,
# differences and products that wrap around uint64 still reduce correctly:
# one mask finishes each step, and a caller may fold many wrapped sums, and
# products of them, before masking once.
MASK = np.uint64((1 << BITS) - 1)
SCALE = 10**4

# Largest parameter magnitude aggregation must absorb: MAX_PARAM_MAGNITUDE *
# SCALE per parameter is 1e10, so a sum over up to 4.6e8 clients stays
# inside the signed range +-2^62.
MAX_PARAM_MAGNITUDE = 10**6


class HeadroomError(ValueError):
    """A value does not fit the signed range of the fixed-point ring."""


class ModulusMismatchError(ValueError):
    """Values read as ring elements are not reduced mod 2^63."""


def _as_u64(values: np.ndarray) -> np.ndarray:
    return np.asarray(values, dtype=np.uint64)


def encode_fixed_array(values: np.ndarray) -> np.ndarray:
    """Encode reals as trunc(v * SCALE) mod 2^63 (truncation toward zero)."""
    values = np.asarray(values, dtype=np.float64)
    # The same boundary as |v| * SCALE >= 2^62 for every float64, since the
    # rounded product is monotone in |v| and the two agree at the boundary
    # (test_ring); unlike the product, the quotient cannot overflow to inf.
    # Written as "not below", the test also refuses NaN, whose max is NaN.
    if values.size and not np.max(np.abs(values)) < 2.0 ** (BITS - 1) / SCALE:
        raise HeadroomError("array is not finite or exceeds signed fixed-point headroom")
    # The int64 -> uint64 cast is reduction mod 2^64, so negative values
    # land on 2^63 + v once masked.
    return np.trunc(values * SCALE).astype(np.int64).astype(np.uint64) & MASK


def decode_fixed_array(arr: np.ndarray) -> np.ndarray:
    """Inverse of :func:`encode_fixed_array`; upper-half values decode negative."""
    arr = _as_u64(arr)
    if arr.size and np.max(arr) > MASK:
        raise ModulusMismatchError(f"values not reduced mod 2^{BITS}")
    return signed_i64_array(arr).astype(np.float64) / SCALE


def signed_i64_array(arr: np.ndarray) -> np.ndarray:
    """Signed representatives as exact int64."""
    shift = np.uint64(64 - BITS)
    # Left-align then arithmetic-shift back: sign-extends the 63-bit value.
    return np.ascontiguousarray(_as_u64(arr) << shift).view(np.int64) >> np.int64(shift)
