import hashlib

import numpy as np
import pytest

from fedchain.prg import keystream_into
from fedchain.ring import (
    BITS,
    decode_fixed_array,
    encode_fixed_array,
    mod_mul,
    mod_sub,
)
from fedchain.secure_agg import AggregationState, node_key, share_secret
from fedchain.sharing import (
    Dealer,
    TripleReuseError,
    beaver_matmul,
    beaver_mul,
    gen_matmul_triple,
    gen_triple,
    open_pair,
    split_pair,
    truncate_shares,
)

M63 = 2**63
# An 8-bit value shifted into bits 55-62 of Z_2^63 wraps exactly as in Z_2^8.
TOP = np.uint64(63 - 8)


def dealer_key(seed: int) -> bytes:
    return hashlib.sha256(b"fedchain dealer" + seed.to_bytes(8, "little")).digest()[:16]


# The first four words of Dealer(seed): AES-128-CTR under dealer_key(seed)
# from an all-zero counter block, as bytes.  Cross-checked with OpenSSL's
# command line: `openssl enc -aes-128-ctr -K <key> -iv 0` over 32 zero bytes.
KNOWN_WORDS = {
    0: "1cf8b45ab837c25484053c64bb8b52e5a82caf31cd2399d916b37f078b732d77",
    2024: "206a42795fb225be7ec1b784a5bff23a2b0a2aa8136e395764876ea65805cc22",
}

# Dealer(7)'s draws of these sizes, concatenated, by sha256.
DRAW_SIZES = [1, 5, 13, 981, 2, 3, 4096, 1, 131072, 7]
DRAWS_SHA256 = "579afe67666051ce51c6d31de88268d7c901b8d99a80b9e48fb85842a61e59dc"


class TestDealer:
    @pytest.mark.parametrize("seed", [0, 2024])
    def test_known_answer_words(self, seed):
        dealer = Dealer(seed)
        words = dealer.words(4)
        assert words.tobytes().hex() == KNOWN_WORDS[seed]
        assert dealer.position == 4
        assert np.array_equal(Dealer(seed).uniform(4), words >> np.uint64(1))

    @pytest.mark.parametrize("bits", [8, 12, 16, 32, 63])
    def test_elements_are_top_bits_of_raw_words(self, bits):
        raw = keystream_into(dealer_key(9), np.empty(1000, dtype="<u8"))
        got = Dealer(9).uniform(1000, bits)
        assert np.array_equal(got, raw >> np.uint64(64 - bits))
        assert int(got.max()) < 2**bits

    def test_draws_across_the_zero_source_chunk_are_pinned(self):
        # 136,181 words in draws of mixed parity, one of them past the 1 MiB
        # zero source, pinned by digest.
        dealer = Dealer(7)
        digest = hashlib.sha256()
        for n in DRAW_SIZES:
            digest.update(dealer.words(n).tobytes())
        assert digest.hexdigest() == DRAWS_SHA256
        assert dealer.position == sum(DRAW_SIZES)


def node_sums(secrets, nodes, seed):
    """Share each secret as one client, with round seed ``seed`` + its index,
    across ``nodes`` nodes; returns the nodes' partial sums, the yielded rows
    stacked into (nodes, params), and the clients' closing shares."""
    agg = AggregationState(0, tuple(range(len(secrets))), nodes, len(secrets[0]))
    closing = []
    for cid, secret in enumerate(secrets):
        shares = share_secret(secret, seed + cid, nodes)
        agg.add(cid, 0, shares)
        closing.append(shares[1])
    return np.stack(list(agg.node_partial_sums())), closing


def mask_words(seed, node, count=1):
    """Oracle: the first ``count`` raw keystream words of a client's row for
    ``node``, as Python integers."""
    row = keystream_into(node_key(seed, node), np.empty(count, dtype="<u8"))
    return [int(w) for w in row]


def total(rows):
    """The partial sums added up in Python integers, mod 2^63."""
    return [sum(int(v) for v in column) % M63 for column in rows.T]


class TestSplit:
    def test_scripted_closing_share(self):
        # s = 5 over three nodes: node j < 2 holds its keystream word mod
        # 2^63, and the closing share is (5 - both words) mod 2^63.
        r0, r1 = mask_words(2, 0), mask_words(2, 1)
        rows, _ = node_sums([[5]], 3, 2)
        assert rows[:, 0].tolist() == [r0[0] % 2**63, r1[0] % 2**63,
                                       (5 - r0[0] - r1[0]) % 2**63]

    def test_masks_wrapping_2_64_close_correctly(self):
        # Seed 8's three raw rows sum past 2 * 2^64 before the closing share
        # is reduced.
        words = [mask_words(8, node)[0] for node in range(3)]
        assert sum(words) >= 2 * 2**64
        rows, (closing,) = node_sums([[1]], 4, 8)
        assert int(closing[0]) == int(rows[3, 0]) == (1 - sum(words)) % 2**63
        assert total(rows) == [1]

    def test_zero_secret_sums_to_zero(self):
        for n in (2, 3, 5):
            rows, _ = node_sums([np.zeros(4, dtype=np.uint64)], n, n)
            assert total(rows) == [0] * 4

    @pytest.mark.parametrize("n", [2, 3, 5, 10, 20])
    def test_round_trip(self, n):
        secrets = Dealer(100 + n).uniform(50)
        assert total(node_sums([secrets], n, 100 + n)[0]) == secrets.tolist()

    def test_thousand_random_pairs(self):
        dealer = Dealer(7)
        rng = np.random.Generator(np.random.PCG64(8))
        for seed in range(10**3):
            n = int(rng.integers(2, 8))
            secrets = dealer.uniform(3)
            assert total(node_sums([secrets], n, seed)[0]) == secrets.tolist()


class TestLocalSum:
    """Each node's partial sum is the sum of the shares it was sent, so the
    partials add up to the sum of the secrets."""

    def test_two_secrets_over_two_parties(self):
        # u = 3 (seed 9) and s = 5 (seed 10) shared over 2 nodes: node 0
        # holds both mask words and the partials add up to 8.
        masks = mask_words(9, 0)[0] + mask_words(10, 0)[0]
        rows, _ = node_sums([[3], [5]], 2, 9)
        assert rows[:, 0].tolist() == [masks % 2**63, (8 - masks) % 2**63]
        assert total(rows) == [8]

    def test_all_zero(self):
        zeros = np.zeros(2, dtype=np.uint64)
        rows, _ = node_sums([zeros, zeros], 3, 3)
        assert total(rows) == [0, 0]

    def test_exhaustive_mod_256(self):
        # All 65536 8-bit (u, s) pairs, one lane each, in the top byte: the
        # partials add up to (u + s) mod 2^8 there.
        u, s = np.divmod(np.arange(1 << 16, dtype=np.uint64), np.uint64(1 << 8))
        rows, _ = node_sums([u << TOP, s << TOP], 3, 11)
        got = [t >> int(TOP) for t in total(rows)]
        assert got == [(int(a) + int(b)) % 256 for a, b in zip(u, s)]


class TestBeaverMul:
    def test_two_times_three(self):
        dealer = Dealer(5)
        x = split_pair(np.array([2], dtype=np.uint64), dealer)
        y = split_pair(np.array([3], dtype=np.uint64), dealer)
        z = beaver_mul(x, y, gen_triple(1, dealer))
        assert int(open_pair(z)[0]) == 6

    def test_zero_annihilates(self):
        dealer = Dealer(6)
        x = split_pair(np.zeros(5, dtype=np.uint64), dealer)
        y = split_pair(dealer.uniform(5), dealer)
        z = beaver_mul(x, y, gen_triple(5, dealer))
        assert np.all(open_pair(z) == 0)

    def test_matches_reconstruct_and_multiply_oracle(self):
        dealer = Dealer(7)
        a, b = dealer.uniform(200), dealer.uniform(200)
        z = beaver_mul(split_pair(a, dealer), split_pair(b, dealer),
                       gen_triple(200, dealer))
        assert np.array_equal(open_pair(z), mod_mul(a, b))

    def test_exhaustive_mod_256(self):
        # All 65536 (u, s) pairs of Z_2^8 against the plain product: x = u
        # and y = s * 2^55 open to (u * s mod 2^8) * 2^55.
        u, s = np.divmod(np.arange(1 << 16, dtype=np.uint64), np.uint64(1 << 8))
        dealer = Dealer(4)
        z = beaver_mul(split_pair(u, dealer), split_pair(s << TOP, dealer),
                       gen_triple(u.size, dealer))
        assert np.array_equal(open_pair(z) >> TOP, (u * s) % np.uint64(256))

    def test_fixed_point_product_with_truncation(self):
        dealer = Dealer(8)
        x = split_pair(encode_fixed_array(np.array([1.5])), dealer)
        y = split_pair(encode_fixed_array(np.array([2.0])), dealer)
        z = truncate_shares(beaver_mul(x, y, gen_triple(1, dealer)))
        got = decode_fixed_array(open_pair(z))[0]
        assert 2.9999 <= got <= 3.0001

    def test_triple_reuse_rejected(self):
        dealer = Dealer(9)
        x = split_pair(dealer.uniform(2), dealer)
        y = split_pair(dealer.uniform(2), dealer)
        triple = gen_triple(2, dealer)
        beaver_mul(x, y, triple)
        with pytest.raises(TripleReuseError):
            beaver_mul(x, y, triple)


class TestBeaverMatmul:
    @pytest.mark.parametrize("bits", [8, BITS], ids=["pow2_8", "pow2"])
    def test_matches_modular_matmul(self, bits):
        # Z_2^bits sits in the top bits of Z_2^63: a @ (b * 2^s) opens to
        # ((a @ b) mod 2^bits) * 2^s, with s = 63 - bits.
        s = np.uint64(BITS - bits)
        dealer = Dealer(11)
        a = dealer.uniform((4, 6), bits)
        b = dealer.uniform((6, 3), bits)
        a0 = dealer.uniform((4, 6))
        b0 = dealer.uniform((6, 3))
        z0, z1 = beaver_matmul((a0, mod_sub(a, a0)), (b0, mod_sub(b << s, b0)),
                               gen_matmul_triple(4, 6, 3, dealer))
        got = ((z0.astype(object) + z1.astype(object)) % 2**63) >> int(s)
        want = (a.astype(object) @ b.astype(object)) % 2**bits
        assert np.array_equal(got, want)

    def test_matmul_triple_reuse_rejected(self):
        dealer = Dealer(12)
        t = gen_matmul_triple(2, 2, 2, dealer)
        z = dealer.uniform((2, 2))
        beaver_matmul((z, z), (z, z), t)
        with pytest.raises(TripleReuseError):
            beaver_matmul((z, z), (z, z), t)


class TestTruncateShares:
    def test_scale_squared_product_comes_back(self):
        dealer = Dealer(13)
        raw = np.array([30000 * 10**4], dtype=np.uint64)
        out = truncate_shares(split_pair(raw, dealer))
        assert abs(decode_fixed_array(open_pair(out))[0] - 3.0) <= 1e-4

    def test_zero_stays_zero(self):
        dealer = Dealer(14)
        out = truncate_shares(split_pair(np.zeros(8, dtype=np.uint64), dealer))
        assert np.all(open_pair(out) == 0)

    @pytest.mark.parametrize("bits", [BITS], ids=["pow2"])
    def test_error_at_most_one_lsb_statistical(self, bits):
        dealer = Dealer(15)
        rng = np.random.Generator(np.random.PCG64(16))
        vals = rng.uniform(-50, 50, 10**4)
        enc = mod_mul(encode_fixed_array(vals), np.full(vals.size, np.uint64(10**4)))  # scale^2
        out = truncate_shares(split_pair(enc, dealer))
        assert max(int(out[0].max()), int(out[1].max())) < 2**bits  # reduced shares
        dec = decode_fixed_array(open_pair(out))
        want = decode_fixed_array(encode_fixed_array(vals))
        assert np.max(np.abs(dec - want)) <= 1e-4 + 1e-12


def test_single_share_uniformity_chi_square():
    # Privacy proxy: the top byte of a fixed secret's closing share is uniform
    # over 2^8.  Chi-square with 255 degrees of freedom; critical value at
    # alpha = 0.01.
    counts = np.zeros(256)
    trials = 10**4
    secret = np.array([5], dtype=np.uint64) << TOP
    for seed in range(trials):
        _, (closing,) = node_sums([secret], 3, seed)
        counts[int(closing[0] >> TOP)] += 1
    expected = trials / 256
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    assert chi2 < 310.457, f"chi-square {chi2} rejects uniformity"
