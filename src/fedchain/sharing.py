"""Two-party additive secret sharing with a trusted dealer, for encrypted inference.

A secret vector over Z_2^63, the one ring of :mod:`fedchain.ring`, is split
into shares that sum to it; either share alone is uniform and carries no
information.  The dealer is the source of the verifier's own randomness
(input share masks, Beaver triples, comparison keys) and is deterministic
per seed so whole experiments replay exactly.  A dealer is a key derived
from its seed and a word position: every word it deals comes from the
AES-128-CTR keystream under that key (:func:`fedchain.prg.keystream_into`),
which can be read from any word, and each draw starts where the last ended.

The two parties hold a `SharePair`, a plain ``(x0, x1)`` pair of uint64
arrays of any shape, reduced mod 2^63.  The dealer never splits a model:
there is one sharing per model, its client's for the aggregation nodes
(:mod:`fedchain.secure_agg`), of which party 0 holds the sum of the node
rows and party 1 the closing share.  Either alone sees a uniform mask; the
two together rebuild the model, which no node gets until it is accepted.

Multiplication of two-party shared values uses Beaver's masked-opening
trick: with dealer shares of (a, b, c = a * b), the parties open x - a and
y - b and recombine linearly.  The same identity with matrix triples
(c = a @ b) makes a whole linear layer cost one opening.  Fixed-point
products carry scale^2 and are brought back with a local probabilistic
truncation whose error is at most one unit in the last place (failure
probability |v| / 2^63, which is why the shares live in a 63-bit ring).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .prg import keystream_into
from .ring import BITS, MASK, SCALE, mod_add, mod_matmul, mod_mul, mod_sub


class TripleReuseError(RuntimeError):
    """A Beaver triple was consumed twice."""


class Dealer:
    """Trusted offline source of correlated randomness.

    Deterministic per seed; exclusive access is required while generating,
    after which everything issued is immutable.  A dealer is a key, the
    first 16 bytes of SHA-256 of its seed (an unsigned 64-bit integer), and
    ``position``, the count of words drawn so far.  All words come from the
    AES-128-CTR keystream under that key, and a draw of n words reads words
    ``position`` to ``position + n - 1``; since any word can be read, a
    draw needs no earlier one.  An element of width b is the top b bits of
    one 64-bit keystream word.
    """

    def __init__(self, seed: int):
        digest = hashlib.sha256(b"fedchain dealer" + seed.to_bytes(8, "little")).digest()
        self.key = digest[:16]
        self.position = 0  # words drawn so far

    def words(self, count: int) -> np.ndarray:
        """The next ``count`` raw 64-bit keystream words."""
        out = keystream_into(self.key, np.empty(count, dtype="<u8"), self.position)
        self.position += count
        return out

    def uniform(self, shape: int | tuple[int, ...], bits: int = BITS) -> np.ndarray:
        """Uniform uint64 elements of the given shape, drawn in C order.

        Elements are ``bits`` wide, ring elements of Z_2^63 by default.
        """
        words = self.words(math.prod(shape) if isinstance(shape, tuple) else int(shape))
        # In place: a shifted copy would double the peak of a large draw.
        np.right_shift(words, np.uint64(64 - bits), out=words)
        return words.reshape(shape)


SharePair = tuple[np.ndarray, np.ndarray]


def split_pair(secret: np.ndarray, dealer) -> SharePair:
    """Two-party shares (mask, secret - mask) from one uniform dealer draw."""
    secret = np.asarray(secret, dtype=np.uint64)
    mask = dealer.uniform(secret.shape)
    return mask, mod_sub(secret, mask)


def open_pair(pair: SharePair) -> np.ndarray:
    return mod_add(pair[0], pair[1])


@dataclass
class Triple:
    """Two-party shares of (a, b, c) with c = a * b elementwise, or c = a @ b."""

    a0: np.ndarray
    a1: np.ndarray
    b0: np.ndarray
    b1: np.ndarray
    c0: np.ndarray
    c1: np.ndarray
    _used: bool = field(default=False, repr=False)

    def consume(self) -> None:
        if self._used:
            raise TripleReuseError("Beaver triple already consumed")
        self._used = True


def _gen(a_shape, b_shape, product, dealer) -> Triple:
    """Draw a and b, form c = product(a, b), then split a, b and c in turn."""
    a = dealer.uniform(a_shape)
    b = dealer.uniform(b_shape)
    c = product(a, b)
    a0, a1 = split_pair(a, dealer)
    b0, b1 = split_pair(b, dealer)
    c0, c1 = split_pair(c, dealer)
    return Triple(a0, a1, b0, b1, c0, c1)


def gen_triple(size: int, dealer) -> Triple:
    return _gen(size, size, mod_mul, dealer)


def gen_matmul_triple(rows: int, inner: int, cols: int, dealer) -> Triple:
    return _gen((rows, inner), (inner, cols), mod_matmul, dealer)


def _beaver(x: SharePair, y: SharePair, triple: Triple, product) -> SharePair:
    """product(x, y) of shared operands through one masked opening of each."""
    triple.consume()
    e = open_pair((mod_sub(x[0], triple.a0), mod_sub(x[1], triple.a1)))
    f = open_pair((mod_sub(y[0], triple.b0), mod_sub(y[1], triple.b1)))
    # z = c + e*b + a*f + e*f, with the public e*f term charged to party 0.
    z0 = mod_add(triple.c0, product(e, triple.b0))
    z0 = mod_add(z0, product(triple.a0, f))
    z0 = mod_add(z0, product(e, f))
    z1 = mod_add(triple.c1, product(e, triple.b1))
    z1 = mod_add(z1, product(triple.a1, f))
    return z0, z1


def beaver_mul(x: SharePair, y: SharePair, triple: Triple) -> SharePair:
    """Elementwise product of two shared arrays."""
    return _beaver(x, y, triple, mod_mul)


def beaver_matmul(x: SharePair, y: SharePair, triple: Triple) -> SharePair:
    """Matrix product of shared (r,k) @ (k,c) operands."""
    return _beaver(x, y, triple, mod_matmul)


def truncate_shares(x: SharePair) -> SharePair:
    """Divide a shared fixed-point value by ``SCALE``, locally per party.

    Party 0 truncates its share downward; party 1 truncates the complement.
    The reconstruction then equals the truncated secret up to one unit in
    the last place, except with probability |secret| / 2^63 (the shares
    landing in the wrap window), which the wide ring makes negligible.
    """
    m = np.uint64(1 << BITS)
    d = np.uint64(SCALE)
    return x[0] // d, (m - (m - x[1]) // d) & MASK
