import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedchain import fss
from fedchain.fss import (
    MAX_BIT_WIDTH,
    DcfKeyBatch,
    KeyReuseError,
    apply_sign_correlation,
    dcf_eval_batch,
    dcf_gen_batch,
    gen_sign_correlation,
)
from fedchain.ring import BITS, MASK
from fedchain.sharing import Dealer, split_pair

M63 = 2**63


def dcf_gen(alpha: int, bits, dealer):
    """A one-lane key batch for f(x) = 1{x < alpha} over the bits-bit domain."""
    return dcf_gen_batch(np.array([alpha], dtype=np.uint64), bits, dealer)


def dcf_eval(party: int, keys, x: int) -> int:
    return int(dcf_eval_batch(keys, np.array([x], dtype=np.uint64))[party, 0])


def eval_total(batch, xs):
    """The two parties' evaluations of every lane, summed in Z_2^63."""
    return dcf_eval_batch(batch, xs).sum(axis=0) & MASK


def eval_sum(keys, x):
    return (dcf_eval(0, keys, x) + dcf_eval(1, keys, x)) % M63


class TestDcfScalarApi:
    """One comparison key at a time, as one-lane batches."""

    def test_alpha_five_examples(self):
        keys = dcf_gen(5, 8, Dealer(1))
        assert eval_sum(keys, 3) == 1
        assert eval_sum(keys, 5) == 0
        assert eval_sum(keys, 200) == 0

    def test_alpha_zero_never_below(self):
        keys = dcf_gen(0, 8, Dealer(2))
        assert all(eval_sum(keys, x) == 0 for x in range(0, 256, 17))

    def test_alpha_max_everything_below(self):
        keys = dcf_gen(255, 8, Dealer(3))
        assert all(eval_sum(keys, x) == 1 for x in range(0, 255, 13))
        assert eval_sum(keys, 255) == 0

    def test_alpha_out_of_domain(self):
        with pytest.raises(ValueError, match="alpha outside"):
            dcf_gen(256, 8, Dealer(4))

    def test_eval_deterministic(self):
        keys = dcf_gen(90, 8, Dealer(5))
        a = dcf_eval(0, keys, 17)
        assert dcf_eval(0, keys, 17) == a

    def test_eval_x_out_of_domain(self):
        keys = dcf_gen(5, 8, Dealer(6))
        assert len(keys.v_cw) == 8  # the width is the depth
        with pytest.raises(ValueError, match="x outside"):
            dcf_eval(0, keys, 256)

    @pytest.mark.parametrize("bits", [0, MAX_BIT_WIDTH + 1])
    def test_width_outside_one_to_max_is_refused(self, bits):
        with pytest.raises(ValueError, match=rf"^bits must be in \[1, {MAX_BIT_WIDTH}\]$"):
            dcf_gen(0, bits, Dealer(7))


def repeat_lanes(batch: DcfKeyBatch, reps: int) -> DcfKeyBatch:
    """Every key lane repeated ``reps`` times: lane k * reps + j holds key k."""
    def lanes(a):
        return np.repeat(a, reps, axis=-1)

    return DcfKeyBatch(lanes(batch.roots), lanes(batch.s_cw), lanes(batch.v_cw),
                       lanes(batch.t_cw_l), lanes(batch.t_cw_r), lanes(batch.leaf_cw))


def test_exhaustive_n8_all_alpha_all_x():
    # Every (alpha, x) pair over the 8-bit domain against the plain predicate,
    # with payload 1, the sign protocol's -1 and a random payload per key.
    dealer = Dealer(10)
    alphas = np.arange(256, dtype=np.uint64)
    xs = np.tile(np.arange(256, dtype=np.uint64), 256)
    for betas in (np.ones(256, np.uint64), np.full(256, MASK), dealer.uniform(256)):
        batch = repeat_lanes(dcf_gen_batch(alphas, 8, dealer, betas), 256)
        total = eval_total(batch, xs)
        expect = np.where(xs < np.repeat(alphas, 256), np.repeat(betas, 256), np.uint64(0))
        assert np.array_equal(total, expect), betas[:2]


def test_n12_random_spot_checks():
    rng = np.random.Generator(np.random.PCG64(11))
    alphas = rng.integers(0, 4096, 1000, dtype=np.uint64)
    xs = rng.integers(0, 4096, 1000, dtype=np.uint64)
    batch = dcf_gen_batch(alphas, 12, Dealer(12))
    total = eval_total(batch, xs)
    assert np.array_equal(total, (xs < alphas).astype(np.uint64))


@st.composite
def payload_keys(draw):
    """A width, then per lane an alpha, an x and a payload beta in Z_2^63;
    alpha and x favour the domain's ends 0 and 2^n - 1."""
    n = draw(st.sampled_from([*range(1, 21), 31]))
    lanes = draw(st.integers(1, 40))
    top = (1 << n) - 1
    point = st.one_of(st.sampled_from([0, top]), st.integers(0, top))

    def column(elements):
        return np.array(draw(st.lists(elements, min_size=lanes, max_size=lanes)),
                        dtype=np.uint64)

    return n, column(point), column(point), column(st.integers(0, M63 - 1))


@settings(max_examples=150, deadline=None)
@given(case=payload_keys(), seed=st.integers(0, 2**64 - 1))
def test_payload_keys_sum_to_beta_below_alpha(case, seed):
    n, alphas, xs, betas = case
    batch = dcf_gen_batch(alphas, n, Dealer(seed), betas)
    total = eval_total(batch, xs)
    assert np.array_equal(total, np.where(xs < alphas, betas, np.uint64(0)))


@settings(max_examples=100, deadline=None)
@given(case=payload_keys(), seed=st.integers(0, 2**64 - 1), party=st.sampled_from([0, 1]))
def test_each_party_row_reads_only_its_own_roots(case, seed, party):
    # Both parties' walks share one lane array; the sum oracle above cannot
    # see lanes of one party leaking into the other's, this can.
    n, alphas, xs, betas = case
    dealer = Dealer(seed)
    batch = dcf_gen_batch(alphas, n, dealer, betas)
    roots = batch.roots.copy()
    roots[1 - party] = dealer.words(2 * alphas.size).view(np.uint32).reshape(4, -1)
    swapped = DcfKeyBatch(roots, batch.s_cw, batch.v_cw, batch.t_cw_l,
                          batch.t_cw_r, batch.leaf_cw)
    assert np.array_equal(dcf_eval_batch(swapped, xs)[party],
                          dcf_eval_batch(batch, xs)[party])


@pytest.mark.parametrize("bits", [2, 8, 32])
def test_one_prg_call_per_level_for_both_parties(bits, monkeypatch):
    # One sign batch walks both parties' key trees together: a level is one
    # expansion and the leaf one conversion, not one of each per party.
    calls = {"expand_node": 0, "convert_seed": 0}
    for name in calls:
        real = getattr(fss.prg, name)

        def counted(seeds, name=name, real=real):
            calls[name] += 1
            return real(seeds)

        monkeypatch.setattr(fss.prg, name, counted)
    dealer = Dealer(22)
    corr = gen_sign_correlation(5, bits, dealer)
    calls.update(expand_node=0, convert_seed=0)
    apply_sign_correlation(split_pair(np.arange(5, dtype=np.uint64), dealer), corr)
    assert calls == {"expand_node": bits - 1, "convert_seed": 1}


# Every field of one dealer key batch at the mlp-verify ReLU width (31-bit
# keys, 640 lanes) with random payloads: this pins the key bytes themselves,
# which test_sign_shares_golden sees only through the evaluated outputs.
GOLDEN_KEY_BATCH_SHA256 = "86f4cbbf426b7be907f57d527ad1321dc4b114ecd576b3f57eda8e399bfd6126"


def test_key_batch_bytes_golden():
    rng = np.random.Generator(np.random.PCG64(23))
    alphas = rng.integers(0, 1 << 31, 640, dtype=np.uint64)
    betas = rng.integers(0, M63, 640, dtype=np.uint64)
    keys = dcf_gen_batch(alphas, 31, Dealer(23), betas)
    digest = hashlib.sha256()
    for field in (*keys.roots, keys.s_cw, keys.v_cw, keys.t_cw_l, keys.t_cw_r, keys.leaf_cw):
        digest.update(field.tobytes())
    assert digest.hexdigest() == GOLDEN_KEY_BATCH_SHA256


def shared_sign(y, bits, dealer):
    """Additive shares of 1{y >= 0} for every element of a shared vector,
    read from its low ``bits`` bits."""
    return apply_sign_correlation(y, gen_sign_correlation(y[0].size, bits, dealer))


class TestSharedSign:
    def test_known_signs(self):
        dealer = Dealer(14)
        raw = np.array([3, 0, (1 << 63) - 3], dtype=np.uint64)  # +3, 0, -3
        bits = shared_sign(split_pair(raw, dealer), 32, dealer)
        got = (bits[0] + bits[1]) & MASK
        assert list(got) == [1, 1, 0]

    @pytest.mark.parametrize("bit_width", [8, 12])
    def test_exhaustive_over_guarded_range(self, bit_width):
        dealer = Dealer(15 + bit_width)
        bound = 1 << (bit_width - 2)
        vals = np.arange(-bound + 1, bound, dtype=np.int64)
        raw = vals.astype(np.uint64) & MASK
        bits = shared_sign(split_pair(raw, dealer), bit_width, dealer)
        got = (bits[0] + bits[1]) & MASK
        assert np.array_equal(got, (vals >= 0).astype(np.uint64))

    def test_correlation_is_single_use(self):
        dealer = Dealer(17)
        corr = gen_sign_correlation(4, 8, dealer)
        y = split_pair(np.arange(4, dtype=np.uint64), dealer)
        apply_sign_correlation(y, corr)
        with pytest.raises(KeyReuseError):
            apply_sign_correlation(y, corr)

    def test_sign_shares_are_masked(self):
        # Individual output shares are not the bit itself.
        dealer = Dealer(18)
        raw = np.full(64, 5, dtype=np.uint64)
        bits = shared_sign(split_pair(raw, dealer), 32, dealer)
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
    bound = 1 << 6
    ys = np.arange(-bound + 1, bound, dtype=np.int64)
    vals = np.tile(ys, 256)
    masks = np.repeat(np.arange(256, dtype=np.uint64), ys.size)
    raw = vals.astype(np.uint64) & MASK
    corr = gen_sign_correlation(masks.size, 8, MasksFirst(20, masks))
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
    bits = shared_sign(split_pair(raw, dealer), 32, dealer)
    digest = hashlib.sha256(bits[0].tobytes() + bits[1].tobytes()).hexdigest()
    assert digest == GOLDEN_SIGN_SHARES_SHA256


def test_keys_fresh_across_dealer_states():
    # Same alpha, different dealer draws: different keys, same function.
    dealer = Dealer(19)
    k1 = dcf_gen(33, 8, dealer)
    k2 = dcf_gen(33, 8, dealer)
    for party in (0, 1):
        assert not np.array_equal(k1.roots[party], k2.roots[party])
    assert not np.array_equal(k1.s_cw, k2.s_cw)
    assert all(eval_sum(k1, x) == eval_sum(k2, x) for x in (0, 32, 33, 34, 255))
