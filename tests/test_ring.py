import numpy as np
import pytest

from fedchain.ring import (
    DEFAULT_PRIME,
    FixedPointConfig,
    HeadroomError,
    Modulus,
    ModulusMismatchError,
    decode_fixed_array,
    encode_fixed_array,
    mod_add,
    mod_mul,
    mod_sub,
    signed_i64_array,
)

Q = DEFAULT_PRIME
CFG_Q = FixedPointConfig(10**4, Modulus.prime())
CFG_63 = FixedPointConfig(10**4, Modulus.power_of_two(63))


class TestModulus:
    def test_default_prime_is_mersenne_61(self):
        assert Modulus.prime().value == 2**61 - 1

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            Modulus("prime", 2**61 - 3)

    def test_power_of_two_widths(self):
        for bits in (8, 12, 16, 32, 63):
            assert Modulus.power_of_two(bits).value == 2**bits

    def test_rejects_unsupported_width(self):
        with pytest.raises(ValueError):
            Modulus.power_of_two(20)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            Modulus("galois", 8)

    @pytest.mark.parametrize("prime", [2**63 + 29, 2**64 - 59])
    def test_rejects_prime_at_or_above_2_63(self, prime):
        # The vectorised prime add needs a + b < 2^64 for reduced operands.
        with pytest.raises(ValueError, match="below 2\\^63"):
            Modulus.prime(prime)


def encode(v: float, cfg: FixedPointConfig = CFG_Q) -> int:
    return int(encode_fixed_array(np.array([v]), cfg)[0])


def decode(x: int, cfg: FixedPointConfig = CFG_Q) -> float:
    return float(decode_fixed_array(np.array([x], dtype=np.uint64), cfg)[0])


def u64(*values: int) -> np.ndarray:
    return np.array(values, dtype=np.uint64)


class TestEncodeFixed:
    def test_one_point_five_encodes_to_15000(self):
        # Truncation to the fourth decimal fixes scale 10^4.
        assert encode(1.5) == 15000

    def test_zero_encodes_to_zero(self):
        assert encode(0.0) == 0

    def test_small_negative_maps_to_top_of_ring(self):
        assert encode(-0.0001) == Q - 1
        assert encode(-0.0001, CFG_63) == 2**63 - 1

    def test_truncates_toward_zero(self):
        assert encode(0.00019) == 1
        assert encode(-0.00019) == Q - 1

    def test_overflow_rejected(self):
        with pytest.raises(HeadroomError):
            encode(float(Q))
        with pytest.raises(HeadroomError):
            encode_fixed_array(np.array([0.0, -(2**62) / 10**4]), CFG_63)


class TestDecodeFixed:
    def test_15000_decodes_to_one_point_five(self):
        assert decode(15000) == 1.5

    def test_top_of_ring_decodes_negative(self):
        assert decode(Q - 1) == -0.0001
        assert decode(2**63 - 1, CFG_63) == -0.0001

    def test_zero(self):
        assert decode(0) == 0.0

    def test_modulus_mismatch(self):
        # Values reduced mod 2^63 but not mod Q were encoded in another ring.
        with pytest.raises(ModulusMismatchError):
            decode(Q, CFG_Q)
        with pytest.raises(ModulusMismatchError):
            decode_fixed_array(encode_fixed_array(np.array([1.0, -1.0]), CFG_63), CFG_Q)


class TestRingOps:
    def test_add_mod_11(self):
        assert mod_add(u64(3), u64(5), Modulus("prime", 11)).tolist() == [8]

    def test_sub_mod_11(self):
        assert mod_sub(u64(5), u64(9), Modulus("prime", 11)).tolist() == [7]

    def test_mul_wide_intermediate(self):
        # 2^60 * 2 = 2^61 = 1 mod (2^61 - 1); overflows 64 bits without
        # a wide intermediate.
        assert mod_mul(u64(2**60), u64(2), Modulus.prime()).tolist() == [1]


class TestRoundTripAndHomomorphism:
    @pytest.mark.parametrize("cfg", [CFG_Q, CFG_63], ids=["prime", "pow2_63"])
    def test_round_trip_truncation_only(self, cfg):
        rng = np.random.Generator(np.random.PCG64(1))
        vals = rng.uniform(-1e9, 1e9, 2000)
        dec = decode_fixed_array(encode_fixed_array(vals, cfg), cfg)
        assert np.max(np.abs(dec - vals)) < 1e-4

    def test_round_trip_is_exact_truncation(self):
        rng = np.random.Generator(np.random.PCG64(2))
        vals = rng.uniform(-100, 100, 500)
        dec = decode_fixed_array(encode_fixed_array(vals, CFG_Q), CFG_Q)
        expect = np.trunc(vals * 10**4) / 10**4
        assert np.array_equal(dec, expect)

    def test_addition_homomorphism(self):
        rng = np.random.Generator(np.random.PCG64(3))
        a = rng.uniform(-1e5, 1e5, 1000)
        b = rng.uniform(-1e5, 1e5, 1000)
        ea, eb = encode_fixed_array(a, CFG_Q), encode_fixed_array(b, CFG_Q)
        total = decode_fixed_array(mod_add(ea, eb, CFG_Q.modulus), CFG_Q)
        expect = decode_fixed_array(ea, CFG_Q) + decode_fixed_array(eb, CFG_Q)
        assert np.allclose(total, expect, atol=1e-12)


@pytest.mark.parametrize("modulus", [Modulus.prime(), Modulus.power_of_two(63),
                                     Modulus.power_of_two(32)],
                         ids=["prime", "pow2_63", "pow2_32"])
def test_vector_ops_match_bigint_oracle(modulus):
    # 10^4 random triples per modulus against plain Python integers.
    rng = np.random.Generator(np.random.PCG64(4))
    n = 10**4
    a = rng.integers(0, modulus.value, n, dtype=np.uint64)
    b = rng.integers(0, modulus.value, n, dtype=np.uint64)
    got_add = mod_add(a, b, modulus)
    got_sub = mod_sub(a, b, modulus)
    got_mul = mod_mul(a, b, modulus)
    m = modulus.value
    for i in range(0, n, 97):
        ai, bi = int(a[i]), int(b[i])
        assert int(got_add[i]) == (ai + bi) % m
        assert int(got_sub[i]) == (ai - bi) % m
        assert int(got_mul[i]) == (ai * bi) % m
    # Full-vector check through Python objects for add/mul.
    assert np.array_equal(got_mul.astype(object), (a.astype(object) * b.astype(object)) % m)


@pytest.mark.parametrize("q", [2, 3, 11, 251])
def test_prime_add_sub_exhaustive_small_rings(q):
    m = Modulus.prime(q)
    a, b = np.divmod(np.arange(q * q, dtype=np.uint64), np.uint64(q))
    want_add = [(int(x) + int(y)) % q for x, y in zip(a, b)]
    want_sub = [(int(x) - int(y)) % q for x, y in zip(a, b)]
    assert mod_add(a, b, m).tolist() == want_add
    assert mod_sub(a, b, m).tolist() == want_sub


@pytest.mark.parametrize("q", [2**62 - 57, 2**62 + 135, 2**63 - 25],
                         ids=["below_2_62", "above_2_62", "largest_below_2_63"])
def test_prime_add_sub_match_python_ints_near_2_62(q):
    m = Modulus.prime(q)
    rng = np.random.Generator(np.random.PCG64(q % 2**32))
    edges = np.array([0, 1, 2, q // 2, (q + 1) // 2, q - 2, q - 1], dtype=np.uint64)
    a = np.concatenate([np.repeat(edges, edges.size), rng.integers(0, q, 2000, dtype=np.uint64)])
    b = np.concatenate([np.tile(edges, edges.size), rng.integers(0, q, 2000, dtype=np.uint64)])
    assert mod_add(a, b, m).tolist() == [(int(x) + int(y)) % q for x, y in zip(a, b)]
    assert mod_sub(a, b, m).tolist() == [(int(x) - int(y)) % q for x, y in zip(a, b)]
    acc = a.copy()
    assert mod_add(acc, b, m, out=acc) is acc
    assert acc.tolist() == [(int(x) + int(y)) % q for x, y in zip(a, b)]


def test_signed_i64_array_boundaries():
    m63 = Modulus.power_of_two(63)
    arr = np.array([0, 1, 2**62 - 1, 2**62, 2**63 - 1], dtype=np.uint64)
    signed = signed_i64_array(arr, m63)
    assert list(signed) == [0, 1, 2**62 - 1, -(2**62), -1]
    mq = Modulus.prime()
    arr = np.array([0, 1, (Q - 1) // 2, (Q + 1) // 2, Q - 1], dtype=np.uint64)
    assert list(signed_i64_array(arr, mq)) == [0, 1, (Q - 1) // 2, -(Q - 1) // 2, -1]
