"""Additive secret sharing with a trusted dealer.

A secret vector over Z_2^n is split into n shares that sum to it; any
proper subset of shares is uniform and carries no information.  The dealer
is the only source of randomness (share masks, Beaver triples, comparison
keys) and is deterministic per seed so whole experiments replay exactly.

Multiplication of two-party shared values uses Beaver's masked-opening
trick: with dealer shares of (a, b, ab), the parties open x - a and y - b
and recombine linearly.  Matrix products use the same identity with matrix
triples so a whole layer costs one opening.  Fixed-point products carry
scale^2 and are brought back with a local probabilistic truncation whose
error is at most one unit in the last place (failure probability |v| / M,
which is why inference shares live in a 63-bit ring).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ring import (
    FixedPointConfig,
    Modulus,
    ModulusMismatchError,
    mod_add,
    mod_matmul,
    mod_mul,
    mod_sub,
)


class MissingShareError(ValueError):
    """Reconstruction attempted without the full share set."""


class TripleReuseError(RuntimeError):
    """A Beaver triple was consumed twice."""


class Dealer:
    """Trusted offline source of correlated randomness.

    Deterministic per (seed, modulus); exclusive access is required while
    generating, after which everything issued is immutable.  Ring elements
    are the top n bits of raw PCG64 words: for 2^63 this is the stream
    ``Generator.integers(0, 2**63)`` yields, at a fraction of its cost.
    """

    def __init__(self, seed: int, modulus: Modulus):
        self.modulus = modulus
        self.rng = np.random.Generator(np.random.PCG64(seed))

    def uniform(self, shape: int | tuple[int, ...]) -> np.ndarray:
        """Uniform uint64 ring elements of the given shape, drawn in C order."""
        words = self.rng.bit_generator.random_raw(int(np.prod(shape)))
        # In place: a shifted copy would double the peak of a large draw.
        np.right_shift(words, np.uint64(64 - self.modulus.bits), out=words)
        return words.reshape(shape)


@dataclass
class ShareVector:
    """One party's additive share of a value vector."""

    party_id: int
    n_parties: int
    modulus: Modulus
    values: np.ndarray  # flat uint64, reduced

    def __post_init__(self) -> None:
        if not 0 <= self.party_id < self.n_parties:
            raise ValueError(f"party_id {self.party_id} outside declared count {self.n_parties}")
        self.values = np.asarray(self.values, dtype=np.uint64)
        self.values.flags.writeable = False

    def __len__(self) -> int:
        return self.values.size


def split(secret: np.ndarray, n: int, dealer) -> list[ShareVector]:
    """Split a reduced uint64 vector into n additive shares.

    The first n-1 shares are uniform masks from one dealer draw (row i is
    the i-th block of the stream); the closing share is secret minus their
    sum.  The sum wraps mod 2^64 and is reduced once, with the difference.
    """
    if n < 2:
        raise ValueError("need at least 2 parties")
    secret = np.asarray(secret, dtype=np.uint64)
    modulus = dealer.modulus
    masks = dealer.uniform((n - 1,) + secret.shape)
    closing = mod_sub(secret, masks.sum(axis=0, dtype=np.uint64), modulus)
    return [ShareVector(i, n, modulus, s) for i, s in enumerate([*masks, closing])]


def reconstruct(shares: list[ShareVector]) -> np.ndarray:
    """Elementwise modular sum of a complete share set."""
    if not shares:
        raise MissingShareError("no shares given")
    n = shares[0].n_parties
    if n < 2:
        raise MissingShareError("degenerate single-party sharing")
    modulus = shares[0].modulus
    seen = set()
    for s in shares:
        if s.modulus != modulus:
            raise ModulusMismatchError("shares from different rings")
        if s.n_parties != n or len(s) != len(shares[0]):
            raise MissingShareError("inconsistent share set")
        seen.add(s.party_id)
    if seen != set(range(n)):
        raise MissingShareError(f"have parties {sorted(seen)}, expected 0..{n - 1}")
    total = shares[0].values.copy()
    for s in shares[1:]:
        np.add(total, s.values, out=total)  # wraps mod 2^64; reduced once below
    return np.bitwise_and(total, modulus.mask, out=total)


SharePair = tuple[ShareVector, ShareVector]


def _pair(modulus: Modulus, v0: np.ndarray, v1: np.ndarray) -> SharePair:
    return (ShareVector(0, 2, modulus, v0), ShareVector(1, 2, modulus, v1))


def split_pair(secret: np.ndarray, dealer) -> SharePair:
    s = split(secret, 2, dealer)
    return (s[0], s[1])


def open_pair(pair: SharePair) -> np.ndarray:
    return reconstruct(list(pair))


@dataclass
class BeaverTriple:
    """Two-party shares of (a, b, c) with c = a * b elementwise."""

    a: SharePair
    b: SharePair
    c: SharePair
    _used: bool = field(default=False, repr=False)

    @property
    def modulus(self) -> Modulus:
        return self.a[0].modulus

    def consume(self) -> None:
        if self._used:
            raise TripleReuseError("Beaver triple already consumed")
        self._used = True


@dataclass
class MatmulTriple:
    """Two-party shares of (A, B, C) with C = A @ B, for one matrix product."""

    a0: np.ndarray
    a1: np.ndarray
    b0: np.ndarray
    b1: np.ndarray
    c0: np.ndarray
    c1: np.ndarray
    modulus: Modulus
    _used: bool = field(default=False, repr=False)

    def consume(self) -> None:
        if self._used:
            raise TripleReuseError("matmul triple already consumed")
        self._used = True


def gen_triple(size: int, dealer) -> BeaverTriple:
    modulus = dealer.modulus
    a = dealer.uniform(size)
    b = dealer.uniform(size)
    c = mod_mul(a, b, modulus)
    return BeaverTriple(split_pair(a, dealer), split_pair(b, dealer), split_pair(c, dealer))


def gen_matmul_triple(rows: int, inner: int, cols: int, dealer) -> MatmulTriple:
    modulus = dealer.modulus
    a = dealer.uniform((rows, inner))
    b = dealer.uniform((inner, cols))
    c = mod_matmul(a, b, modulus)
    a0 = dealer.uniform((rows, inner))
    b0 = dealer.uniform((inner, cols))
    c0 = dealer.uniform((rows, cols))
    return MatmulTriple(
        a0, mod_sub(a, a0, modulus),
        b0, mod_sub(b, b0, modulus),
        c0, mod_sub(c, c0, modulus),
        modulus,
    )


def beaver_mul(x: SharePair, y: SharePair, triple: BeaverTriple) -> SharePair:
    """Elementwise product of two shared vectors via one masked opening."""
    modulus = triple.modulus
    if x[0].modulus != modulus or y[0].modulus != modulus:
        raise ModulusMismatchError("operands and triple live in different rings")
    triple.consume()
    e = open_pair(_pair(modulus,
                        mod_sub(x[0].values, triple.a[0].values, modulus),
                        mod_sub(x[1].values, triple.a[1].values, modulus)))
    f = open_pair(_pair(modulus,
                        mod_sub(y[0].values, triple.b[0].values, modulus),
                        mod_sub(y[1].values, triple.b[1].values, modulus)))
    # z = c + e*b + f*a + e*f, with the public e*f term charged to party 0.
    z0 = mod_add(triple.c[0].values, mod_mul(e, triple.b[0].values, modulus), modulus)
    z0 = mod_add(z0, mod_mul(f, triple.a[0].values, modulus), modulus)
    z0 = mod_add(z0, mod_mul(e, f, modulus), modulus)
    z1 = mod_add(triple.c[1].values, mod_mul(e, triple.b[1].values, modulus), modulus)
    z1 = mod_add(z1, mod_mul(f, triple.a[1].values, modulus), modulus)
    return _pair(modulus, z0, z1)


def beaver_matmul(x0: np.ndarray, x1: np.ndarray, y0: np.ndarray, y1: np.ndarray,
                  triple: MatmulTriple) -> tuple[np.ndarray, np.ndarray]:
    """Matrix product of shared (r,k) @ (k,c) operands; shares stay matrices."""
    m = triple.modulus
    triple.consume()
    e = mod_add(mod_sub(x0, triple.a0, m), mod_sub(x1, triple.a1, m), m)
    f = mod_add(mod_sub(y0, triple.b0, m), mod_sub(y1, triple.b1, m), m)
    z0 = mod_add(triple.c0, mod_matmul(e, triple.b0, m), m)
    z0 = mod_add(z0, mod_matmul(triple.a0, f, m), m)
    z0 = mod_add(z0, mod_matmul(e, f, m), m)
    z1 = mod_add(triple.c1, mod_matmul(e, triple.b1, m), m)
    z1 = mod_add(z1, mod_matmul(triple.a1, f, m), m)
    return z0, z1


def truncate_shares(x: SharePair, cfg: FixedPointConfig) -> SharePair:
    """Divide a shared fixed-point value by the scale, locally per party.

    Party 0 truncates its share downward; party 1 truncates the complement.
    The reconstruction then equals the truncated secret up to one unit in
    the last place, except with probability |secret| / modulus (the shares
    landing in the wrap window), which the wide inference ring makes
    negligible.
    """
    modulus = x[0].modulus
    m = np.uint64(modulus.value)
    d = np.uint64(cfg.scale)
    y0 = x[0].values // d
    y1 = (m - (m - x[1].values) // d) % m
    return _pair(modulus, y0, y1)

