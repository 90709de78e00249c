import hashlib

import numpy as np
import pytest

from fedchain.fss import (
    FssConfig,
    KeyReuseError,
    apply_sign_correlation,
    dcf_eval_batch,
    dcf_gen_batch,
    gen_sign_correlation,
)
from fedchain.ring import BITS, MASK
from fedchain.sharing import Dealer, split_pair

CFG8 = FssConfig(8)
M63 = 2**63


def dcf_gen(alpha: int, cfg, dealer):
    """A one-lane key batch for f(x) = 1{x < alpha}."""
    return dcf_gen_batch(np.array([alpha], dtype=np.uint64), cfg, dealer)


def dcf_eval(party: int, keys, x: int) -> int:
    return int(dcf_eval_batch(party, keys, np.array([x], dtype=np.uint64))[0])


def eval_sum(keys, x):
    return (dcf_eval(0, keys, x) + dcf_eval(1, keys, x)) % M63


class TestDcfScalarApi:
    """One comparison key at a time, as one-lane batches."""

    def test_alpha_five_examples(self):
        keys = dcf_gen(5, CFG8, Dealer(1))
        assert eval_sum(keys, 3) == 1
        assert eval_sum(keys, 5) == 0
        assert eval_sum(keys, 200) == 0

    def test_alpha_zero_never_below(self):
        keys = dcf_gen(0, CFG8, Dealer(2))
        assert all(eval_sum(keys, x) == 0 for x in range(0, 256, 17))

    def test_alpha_max_everything_below(self):
        keys = dcf_gen(255, CFG8, Dealer(3))
        assert all(eval_sum(keys, x) == 1 for x in range(0, 255, 13))
        assert eval_sum(keys, 255) == 0

    def test_alpha_out_of_domain(self):
        with pytest.raises(ValueError, match="alpha outside"):
            dcf_gen(256, CFG8, Dealer(4))

    def test_eval_deterministic(self):
        keys = dcf_gen(90, CFG8, Dealer(5))
        a = dcf_eval(0, keys, 17)
        assert dcf_eval(0, keys, 17) == a

    def test_eval_x_out_of_domain(self):
        keys = dcf_gen(5, CFG8, Dealer(6))
        with pytest.raises(ValueError, match="x outside"):
            dcf_eval(0, keys, 256)


def test_exhaustive_n8_all_alpha_all_x():
    # Every (alpha, x) pair over the 8-bit domain against the plain predicate.
    dealer = Dealer(10)
    alphas = np.arange(256, dtype=np.uint64)
    batch = dcf_gen_batch(alphas, CFG8, dealer).repeat(256)
    xs = np.tile(np.arange(256, dtype=np.uint64), 256)
    total = (dcf_eval_batch(0, batch, xs) + dcf_eval_batch(1, batch, xs)) & MASK
    expect = (xs < np.repeat(alphas, 256)).astype(np.uint64)
    assert np.array_equal(total, expect)


def test_n12_random_spot_checks():
    cfg = FssConfig(12)
    rng = np.random.Generator(np.random.PCG64(11))
    alphas = rng.integers(0, 4096, 1000, dtype=np.uint64)
    xs = rng.integers(0, 4096, 1000, dtype=np.uint64)
    batch = dcf_gen_batch(alphas, cfg, Dealer(12))
    total = (dcf_eval_batch(0, batch, xs) + dcf_eval_batch(1, batch, xs)) & MASK
    assert np.array_equal(total, (xs < alphas).astype(np.uint64))


def shared_sign(y, cfg, dealer):
    """Additive shares of 1{y >= 0} for every element of a shared vector."""
    return apply_sign_correlation(y, gen_sign_correlation(y[0].size, cfg, dealer))


class TestSharedSign:
    def test_known_signs(self):
        cfg = FssConfig(32)
        dealer = Dealer(14)
        raw = np.array([3, 0, (1 << 63) - 3], dtype=np.uint64)  # +3, 0, -3
        bits = shared_sign(split_pair(raw, dealer), cfg, dealer)
        got = (bits[0] + bits[1]) & MASK
        assert list(got) == [1, 1, 0]

    @pytest.mark.parametrize("bit_width", [8, 12])
    def test_exhaustive_over_guarded_range(self, bit_width):
        cfg = FssConfig(bit_width)
        dealer = Dealer(15 + bit_width)
        bound = 1 << (bit_width - 2)
        vals = np.arange(-bound + 1, bound, dtype=np.int64)
        raw = vals.astype(np.uint64) & MASK
        bits = shared_sign(split_pair(raw, dealer), cfg, dealer)
        got = (bits[0] + bits[1]) & MASK
        assert np.array_equal(got, (vals >= 0).astype(np.uint64))

    def test_correlation_is_single_use(self):
        cfg = FssConfig(8)
        dealer = Dealer(17)
        corr = gen_sign_correlation(4, cfg, dealer)
        y = split_pair(np.arange(4, dtype=np.uint64), dealer)
        apply_sign_correlation(y, corr)
        with pytest.raises(KeyReuseError):
            apply_sign_correlation(y, corr)

    def test_sign_shares_are_masked(self):
        # Individual output shares are not the bit itself.
        cfg = FssConfig(32)
        dealer = Dealer(18)
        raw = np.full(64, 5, dtype=np.uint64)
        bits = shared_sign(split_pair(raw, dealer), cfg, dealer)
        assert len(np.unique(bits[0])) > 8


class MasksFirst(Dealer):
    """A dealer whose first draw is ``masks``; every later draw is its own."""

    def __init__(self, seed, masks):
        super().__init__(seed)
        self.masks = masks

    def uniform(self, shape, bits=BITS):
        if self.masks is None:
            return super().uniform(shape, bits)
        masks, self.masks = self.masks, None
        assert masks.shape == (shape,)
        return masks


def test_sign_exhaustive_n8_every_mask_every_y():
    # Every mask r in [0, 256) against every |y| < 2^6: masks with MSB(r) = 1
    # give their comparison key payload -1, the others +1.
    cfg = FssConfig(8)
    bound = 1 << 6
    ys = np.arange(-bound + 1, bound, dtype=np.int64)
    vals = np.tile(ys, 256)
    masks = np.repeat(np.arange(256, dtype=np.uint64), ys.size)
    raw = vals.astype(np.uint64) & MASK
    corr = gen_sign_correlation(masks.size, cfg, MasksFirst(20, masks))
    bits = apply_sign_correlation(split_pair(raw, Dealer(20)), corr)
    got = (bits[0] + bits[1]) & MASK
    assert np.array_equal(got, (vals >= 0).astype(np.uint64))


# Both parties' sign-bit shares for fixed inputs and dealer seed.  Beaver
# multiplication opens only masked values, so the logits pinned in
# test_secure_inference do not change when the sign bits are split
# differently (say, the two parties' root seeds swapped); this digest does.
GOLDEN_SIGN_SHARES_SHA256 = "2825caf95ad62904d3035059114ad6417eb5bee55a4958979e8c485aea1c505b"


def test_sign_shares_golden():
    dealer = Dealer(21)
    vals = np.arange(-500, 500, 7, dtype=np.int64) * 1000
    raw = vals.astype(np.uint64) & MASK
    bits = shared_sign(split_pair(raw, dealer), FssConfig(32), dealer)
    digest = hashlib.sha256(bits[0].tobytes() + bits[1].tobytes()).hexdigest()
    assert digest == GOLDEN_SIGN_SHARES_SHA256


def test_keys_fresh_across_dealer_states():
    # Same alpha, different dealer draws: different keys, same function.
    dealer = Dealer(19)
    k1 = dcf_gen(33, CFG8, dealer)
    k2 = dcf_gen(33, CFG8, dealer)
    for party in (0, 1):
        assert not np.array_equal(k1.roots[party], k2.roots[party])
    assert not np.array_equal(k1.s_cw, k2.s_cw)
    assert all(eval_sum(k1, x) == eval_sum(k2, x) for x in (0, 32, 33, 34, 255))
