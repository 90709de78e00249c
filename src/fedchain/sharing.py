"""Two-party additive secret sharing with a trusted dealer, for encrypted inference.

A secret vector over Z_2^63, the one ring of :mod:`fedchain.ring`, is split
into shares that sum to it; either share alone is uniform and carries no
information.  The dealer is the source of the verifier's own randomness
(input share masks, Beaver triples, comparison keys) and is deterministic
per seed so whole experiments replay exactly.  A dealer is a key derived
from its seed and a word position: every word it deals comes from the
AES-128-CTR keystream under that key (:func:`fedchain.prg.keystream_into`),
which can be read from any word, and each draw starts where the last ended.

A two-party sharing of a secret of shape S is one party-major uint64
array of shape (2, *S), reduced mod 2^63: row p is party p's share.  So
each protocol step is written once over the party axis; its arithmetic
wraps in uint64 and is reduced with one ``& MASK``.  The dealer never
splits a model: there is one sharing per model, its client's for the
aggregation nodes (:mod:`fedchain.secure_agg`), of which party 0 holds the
sum of the node rows and party 1 the closing share.  Either alone sees a
uniform mask; the two together rebuild the model, which no node gets until
it is accepted.

Multiplication of two-party shared values uses Beaver's masked-opening
trick: with dealer shares of (a, b, c = a * b), the parties open x - a and
y - b and recombine linearly.  The recombination is linear in the shares,
with one public term charged to party 0, so it too is one step over the
party axis.  The same identity with matrix triples (c = a @ b) makes a
whole linear layer cost one opening.  Fixed-point products carry scale^2
and are brought back with a local probabilistic truncation whose error is
at most one unit in the last place (failure probability |v| / 2^63, which
is why the shares live in a 63-bit ring).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .prg import keystream_into
from .ring import BITS, MASK, SCALE


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


def split_pair(secret: np.ndarray, dealer) -> np.ndarray:
    """Two-party shares [mask, secret - mask] from one uniform dealer draw."""
    secret = np.asarray(secret, dtype=np.uint64)
    mask = dealer.uniform(secret.shape)
    return np.stack((mask, (secret - mask) & MASK))


def open_pair(shares: np.ndarray) -> np.ndarray:
    return (shares[0] + shares[1]) & MASK


@dataclass
class Triple:
    """Two-party shares of (a, b, c) with c = a * b elementwise, or c = a @ b."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
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
    return Triple(split_pair(a, dealer), split_pair(b, dealer), split_pair(c, dealer))


def gen_triple(size: int, dealer) -> Triple:
    return _gen(size, size, np.multiply, dealer)


def gen_matmul_triple(rows: int, inner: int, cols: int, dealer) -> Triple:
    return _gen((rows, inner), (inner, cols), np.matmul, dealer)


def _beaver(x: np.ndarray, y: np.ndarray, triple: Triple, product) -> np.ndarray:
    """product(x, y) of shared operands through one masked opening of each."""
    triple.consume()
    e = open_pair(x - triple.a)
    f = open_pair(y - triple.b)
    # z = c + e*b + a*f, with the public e*f term charged to party 0.
    z = triple.c + product(e, triple.b) + product(triple.a, f)
    z[0] += product(e, f)
    return z & MASK


def beaver_mul(x: np.ndarray, y: np.ndarray, triple: Triple) -> np.ndarray:
    """Elementwise product of two shared arrays."""
    return _beaver(x, y, triple, np.multiply)


def beaver_matmul(x: np.ndarray, y: np.ndarray, triple: Triple) -> np.ndarray:
    """Matrix product of shared (r,k) @ (k,c) operands."""
    return _beaver(x, y, triple, np.matmul)


def truncate_shares(x: np.ndarray) -> np.ndarray:
    """Divide a shared fixed-point value by ``SCALE``, locally per party.

    Party 0 truncates its share downward; party 1 truncates the complement.
    The reconstruction then equals the truncated secret up to one unit in
    the last place, except with probability |secret| / 2^63 (the shares
    landing in the wrap window), which the wide ring makes negligible.
    """
    m = np.uint64(1 << BITS)
    d = np.uint64(SCALE)
    return np.stack((x[0] // d, (m - (m - x[1]) // d) & MASK))
