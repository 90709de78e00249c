"""Brute-force protocol oracles runnable from the command line.

Every suite runs in Z_2^63, the one ring of every share, and checks a
protocol against an independent reference: ``prg.keystream_into``, the one
AES-128-CTR entry point, against the NIST SP 800-38A vector and, from word 0
and from an odd word, the dealer's known answer, the aggregation path
(a client's one sharing, its delivery by ``AggregationState.add``, then the
nodes' partial sums) against every pair of 8-bit values placed in the top
byte of the ring, where the total wraps exactly as (u + s) mod 2^8 does,
and the verifier's two-party view of that sharing against the secret, the
comparison keys with payloads 1, -1 and random against the plain predicate
over the whole n=8 domain, and Beaver multiplication against the plain ring
product.  Each suite computes its reference without the protocol it checks,
so a broken protocol function shows as a failing suite.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import fss, prg
from .ring import BITS, MASK, mod_mul
from .secure_agg import AggregationState, share_secret, sum_rows
from .sharing import Dealer, beaver_mul, gen_triple, open_pair, split_pair


@dataclass
class SuiteResult:
    name: str
    passed: bool
    detail: str
    seconds: float


# NIST SP 800-38A, F.5.1 CTR-AES128.Encrypt: key, initial counter block,
# plaintext and ciphertext.
_NIST_CTR = tuple(bytes.fromhex(h) for h in (
    "2b7e151628aed2a6abf7158809cf4f3c",
    "f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff",
    "6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e51"
    "30c81c46a35ce411e5fbc1191a0a52eff69f2445df4f9b17ad2b417be66c3710",
    "874d6191b620e3261bef6864990db6ce9806f66b7970fdff8617187bb9fffdff"
    "5ae4df3edbd5d35e5b4f09020db03eab1e031dda2fbe03d1792170a0f3009cee",
))
# The first four words Dealer(2024) deals, as bytes.
_DEALER_2024 = "206a42795fb225be7ec1b784a5bff23a2b0a2aa8136e395764876ea65805cc22"


def suite_aes() -> SuiteResult:
    t0 = time.perf_counter()
    key, counter, plain, cipher = _NIST_CTR
    # Counter block c holds keystream words 2c and 2c + 1.
    pad = prg.keystream_into(key, np.empty(len(plain), dtype=np.uint8),
                             2 * int.from_bytes(counter, "big"))
    failures = int((pad ^ np.frombuffer(plain, dtype=np.uint8)).tobytes() != cipher)
    dealer = Dealer(2024)
    failures += dealer.words(4).tobytes().hex() != _DEALER_2024
    tail = prg.keystream_into(dealer.key, np.empty(3, dtype="<u8"), 1)
    failures += tail.tobytes().hex() != _DEALER_2024[16:]
    return SuiteResult("aes", failures == 0,
                       f"NIST SP 800-38A F.5.1 + dealer known answer from words 0 and 1, "
                       f"{failures} failures",
                       time.perf_counter() - t0)


def _aggregate(secrets: list[np.ndarray], nodes: int, seed: int) -> np.ndarray:
    """The total of ``secrets``, each shared as one client, with round seed
    ``seed`` + its index, across ``nodes`` nodes and delivered: the nodes'
    partial sums added up."""
    agg = AggregationState(0, tuple(range(len(secrets))), nodes, secrets[0].size)
    for cid, secret in enumerate(secrets):
        agg.add(cid, 0, share_secret(secret, seed + cid, nodes))
    total = np.zeros(secrets[0].size, dtype=np.uint64)
    for partial in agg.node_partial_sums():
        np.add(total, partial, out=total)
    return np.bitwise_and(total, MASK, out=total)


def suite_sharing() -> SuiteResult:
    t0 = time.perf_counter()
    # Exhaustive sum over three nodes: every 8-bit (u, s) pair sits in bits
    # 55-62 of Z_2^63, two clients share them, and the partial sums add back.
    top = np.uint64(BITS - 8)
    u, s = np.divmod(np.arange(1 << 16, dtype=np.uint64), np.uint64(1 << 8))
    total = _aggregate([u << top, s << top], 3, 11)
    want = (u + s) % np.uint64(256)  # plain integer arithmetic as the reference
    failures = int(np.sum(total >> top != want))
    # One random client per node count, in the full aggregation ring, opened
    # by the nodes and by the verifier's two parties.
    dealer = Dealer(2024)
    for n in (2, 3, 5, 10):
        secret = dealer.uniform(500)
        if not np.array_equal(_aggregate([secret], n, 2024 + n), secret):
            failures += 1
        keys, closing = share_secret(secret, 2024 + n, n)
        x0 = sum_rows(keys, np.empty_like(secret), np.empty_like(secret))
        if not np.array_equal(open_pair((x0, closing)), secret):
            failures += 1
    return SuiteResult("sharing", failures == 0,
                       f"65536 exhaustive pairs in the top byte of Z_2^63 + "
                       f"2000 round trips mod 2^63 via nodes and verifier, {failures} failures",
                       time.perf_counter() - t0)


def suite_fss() -> SuiteResult:
    t0 = time.perf_counter()
    dealer = Dealer(77)
    # Every 8-bit alpha with payload 1, with the sign protocol's -1 and with
    # a random payload, each key evaluated at every x of the domain.
    domain = np.arange(256, dtype=np.uint64)
    alphas = np.tile(domain, 3)
    betas = np.concatenate([np.ones(256, np.uint64), np.full(256, MASK), dealer.uniform(256)])
    big = fss.dcf_gen_batch(alphas, fss.FssConfig(8), dealer, betas).repeat(256)
    xs = np.tile(domain, alphas.size)
    total = (fss.dcf_eval_batch(0, big, xs) + fss.dcf_eval_batch(1, big, xs)) & MASK
    want = np.where(xs < np.repeat(alphas, 256), np.repeat(betas, 256), np.uint64(0))
    failures = int(np.sum(total != want))
    return SuiteResult("fss", failures == 0,
                       f"{xs.size} (key, x) pairs at n=8, payloads 1, -1 and random, "
                       f"outputs mod 2^63, {failures} failures",
                       time.perf_counter() - t0)


def suite_beaver() -> SuiteResult:
    t0 = time.perf_counter()
    dealer = Dealer(31337)
    count = 2000
    x = dealer.uniform(count)
    y = dealer.uniform(count)
    xs = split_pair(x, dealer)
    ys = split_pair(y, dealer)
    triple = gen_triple(count, dealer)
    z = beaver_mul(xs, ys, triple)
    got = open_pair(z)
    want = mod_mul(x, y)
    failures = int(np.sum(got != want))
    return SuiteResult("beaver", failures == 0,
                       f"{count} random products mod 2^63, {failures} failures",
                       time.perf_counter() - t0)


SUITES = (suite_aes, suite_sharing, suite_fss, suite_beaver)


def run_all() -> list[SuiteResult]:
    return [s() for s in SUITES]
