import hashlib

import numpy as np
import pytest

from fedchain.fss import (
    FssConfig,
    KeyReuseError,
    MalformedKeyError,
    _sign_correlation,
    apply_sign_correlation,
    dcf_eval,
    dcf_eval_batch,
    dcf_gen,
    dcf_gen_batch,
    gen_sign_correlation,
    parse_key,
    serialize_key,
    shared_sign,
)
from fedchain.ring import Modulus, signed_i64_array
from fedchain.sharing import Dealer, split_pair

CFG8 = FssConfig(8, Modulus.power_of_two(16))
M16 = Modulus.power_of_two(16)
M32 = Modulus.power_of_two(32)
M63 = Modulus.power_of_two(63)


def eval_sum(pair, x):
    out0 = dcf_eval(0, pair.k0, x)
    out1 = dcf_eval(1, pair.k1, x)
    return (out0.value + out1.value) % out0.modulus.value


class TestDcfScalarApi:
    def test_alpha_five_examples(self):
        pair = dcf_gen(5, CFG8, Dealer(1, M16))
        assert eval_sum(pair, 3) == 1
        assert eval_sum(pair, 5) == 0
        assert eval_sum(pair, 200) == 0

    def test_alpha_zero_never_below(self):
        pair = dcf_gen(0, CFG8, Dealer(2, M16))
        assert all(eval_sum(pair, x) == 0 for x in range(0, 256, 17))

    def test_alpha_max_everything_below(self):
        pair = dcf_gen(255, CFG8, Dealer(3, M16))
        assert all(eval_sum(pair, x) == 1 for x in range(0, 255, 13))
        assert eval_sum(pair, 255) == 0

    def test_alpha_out_of_domain(self):
        with pytest.raises(ValueError):
            dcf_gen(256, CFG8, Dealer(4, M16))

    def test_eval_deterministic(self):
        pair = dcf_gen(90, CFG8, Dealer(5, M16))
        a = dcf_eval(0, pair.k0, 17).value
        assert dcf_eval(0, pair.k0, 17).value == a

    def test_eval_x_out_of_domain(self):
        pair = dcf_gen(5, CFG8, Dealer(6, M16))
        with pytest.raises(ValueError):
            dcf_eval(0, pair.k0, 256)

    def test_malformed_keys_rejected(self):
        pair = dcf_gen(5, CFG8, Dealer(7, M16))
        with pytest.raises(MalformedKeyError):
            dcf_eval(0, b"short", 0)
        with pytest.raises(MalformedKeyError):
            dcf_eval(0, pair.k0[:-1], 0)
        with pytest.raises(MalformedKeyError):
            dcf_eval(0, b"XXXX" + pair.k0[4:], 0)
        with pytest.raises(MalformedKeyError):
            dcf_eval(1, pair.k0, 0)  # wrong party for this key

    def test_serialization_round_trip(self):
        batch = dcf_gen_batch(np.array([42], dtype=np.uint64), CFG8, Dealer(8, M16))
        raw = serialize_key(batch, 0, 1)
        party, parsed = parse_key(raw)
        assert party == 1
        assert serialize_key(parsed, 0, 1) == raw

    def test_key_pair_consume_once(self):
        pair = dcf_gen(5, CFG8, Dealer(9, M16))
        pair.consume()
        with pytest.raises(KeyReuseError):
            pair.consume()


def test_exhaustive_n8_all_alpha_all_x():
    # Every (alpha, x) pair over the 8-bit domain against the plain predicate.
    dealer = Dealer(10, M16)
    alphas = np.arange(256, dtype=np.uint64)
    batch = dcf_gen_batch(alphas, CFG8, dealer).repeat(256)
    xs = np.tile(np.arange(256, dtype=np.uint64), 256)
    total = (dcf_eval_batch(0, batch, xs) + dcf_eval_batch(1, batch, xs)) & np.uint64(0xFFFF)
    expect = (xs < np.repeat(alphas, 256)).astype(np.uint64)
    assert np.array_equal(total, expect)


def test_n12_random_spot_checks():
    cfg = FssConfig(12, Modulus.power_of_two(16))
    rng = np.random.Generator(np.random.PCG64(11))
    alphas = rng.integers(0, 4096, 1000, dtype=np.uint64)
    xs = rng.integers(0, 4096, 1000, dtype=np.uint64)
    batch = dcf_gen_batch(alphas, cfg, Dealer(12, M16))
    total = (dcf_eval_batch(0, batch, xs) + dcf_eval_batch(1, batch, xs)) & np.uint64(0xFFFF)
    assert np.array_equal(total, (xs < alphas).astype(np.uint64))


def test_batch_eval_matches_scalar_api():
    dealer = Dealer(13, M16)
    alphas = np.array([7, 99, 200], dtype=np.uint64)
    batch = dcf_gen_batch(alphas, CFG8, dealer)
    xs = np.array([7, 120, 3], dtype=np.uint64)
    b0 = dcf_eval_batch(0, batch, xs)
    b1 = dcf_eval_batch(1, batch, xs)
    for lane in range(3):
        k0 = serialize_key(batch, lane, 0)
        k1 = serialize_key(batch, lane, 1)
        assert dcf_eval(0, k0, int(xs[lane])).value == int(b0[lane])
        assert dcf_eval(1, k1, int(xs[lane])).value == int(b1[lane])


class TestSharedSign:
    def test_known_signs(self):
        cfg = FssConfig(32, M63)
        dealer = Dealer(14, M63)
        raw = np.array([3, 0, (1 << 63) - 3], dtype=np.uint64)  # +3, 0, -3
        bits = shared_sign(split_pair(raw, dealer), cfg, dealer)
        got = (bits[0].values + bits[1].values) & np.uint64((1 << 63) - 1)
        assert list(got) == [1, 1, 0]

    @pytest.mark.parametrize("bit_width,share_mod", [(8, M32), (12, M32)])
    def test_exhaustive_over_guarded_range(self, bit_width, share_mod):
        cfg = FssConfig(bit_width, share_mod)
        dealer = Dealer(15 + bit_width, share_mod)
        bound = 1 << (bit_width - 2)
        vals = np.arange(-bound + 1, bound, dtype=np.int64)
        raw = np.where(vals < 0, vals + share_mod.value, vals).astype(np.uint64)
        bits = shared_sign(split_pair(raw, dealer), cfg, dealer, check_guard=True)
        got = (bits[0].values + bits[1].values) & np.uint64(share_mod.value - 1)
        assert np.array_equal(got, (vals >= 0).astype(np.uint64))

    def test_guard_violation_raises(self):
        cfg = FssConfig(8, M32)
        dealer = Dealer(16, M32)
        raw = np.array([1 << 10], dtype=np.uint64)  # >= 2^6 guard at n=8
        with pytest.raises(ValueError, match="ring boundary"):
            shared_sign(split_pair(raw, dealer), cfg, dealer, check_guard=True)

    def test_correlation_is_single_use(self):
        cfg = FssConfig(8, M32)
        dealer = Dealer(17, M32)
        corr = gen_sign_correlation(4, cfg, dealer)
        y = split_pair(np.arange(4, dtype=np.uint64), dealer)
        apply_sign_correlation(y, corr)
        with pytest.raises(KeyReuseError):
            apply_sign_correlation(y, corr)

    def test_sign_shares_are_masked(self):
        # Individual output shares are not the bit itself.
        cfg = FssConfig(32, M63)
        dealer = Dealer(18, M63)
        raw = np.full(64, 5, dtype=np.uint64)
        bits = shared_sign(split_pair(raw, dealer), cfg, dealer)
        assert len(np.unique(bits[0].values)) > 8


def test_sign_exhaustive_n8_every_mask_every_y():
    # Every mask r in [0, 256) against every |y| < 2^6: masks with MSB(r) = 1
    # give their comparison key payload -1, the others +1.
    cfg = FssConfig(8, M32)
    dealer = Dealer(20, M32)
    bound = 1 << 6
    ys = np.arange(-bound + 1, bound, dtype=np.int64)
    vals = np.tile(ys, 256)
    masks = np.repeat(np.arange(256, dtype=np.uint64), ys.size)
    raw = np.where(vals < 0, vals + M32.value, vals).astype(np.uint64)
    bits = apply_sign_correlation(split_pair(raw, dealer), _sign_correlation(masks, cfg, dealer))
    got = (bits[0].values + bits[1].values) & np.uint64(M32.value - 1)
    assert np.array_equal(got, (vals >= 0).astype(np.uint64))


# Both parties' sign-bit shares for fixed inputs and dealer seed.  Beaver
# multiplication opens only masked values, so the logits pinned in
# test_secure_inference do not change when the sign bits are split
# differently (say, the two parties' root seeds swapped); this digest does.
GOLDEN_SIGN_SHARES_SHA256 = "c4439899a3386a16a4ebc6968185dfb7377336013c5b3bff141d456009e11724"


def test_sign_shares_golden():
    dealer = Dealer(21, M63)
    vals = np.arange(-500, 500, 7, dtype=np.int64) * 1000
    raw = vals.astype(np.uint64) & np.uint64(M63.value - 1)
    bits = shared_sign(split_pair(raw, dealer), FssConfig(32, M63), dealer)
    digest = hashlib.sha256(bits[0].values.tobytes() + bits[1].values.tobytes()).hexdigest()
    assert digest == GOLDEN_SIGN_SHARES_SHA256


def test_keys_fresh_across_dealer_states():
    # Same alpha, different dealer draws: different key bytes, same function.
    dealer = Dealer(19, M16)
    p1 = dcf_gen(33, CFG8, dealer)
    p2 = dcf_gen(33, CFG8, dealer)
    assert p1.k0 != p2.k0
    assert all(eval_sum(p1, x) == eval_sum(p2, x) for x in (0, 32, 33, 34, 255))
