import numpy as np
import pytest

from fedchain.ring import (
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
from fedchain.secure_agg import AGG_FIXED
from fedchain.secure_inference import SHARE_BITS

M = 2**63
CFG_63 = FixedPointConfig(10**4, Modulus.power_of_two(63))
CFG_32 = FixedPointConfig(10**4, Modulus.power_of_two(32))
M8 = Modulus.power_of_two(8)


class TestModulus:
    def test_aggregation_and_inference_share_one_ring(self):
        assert AGG_FIXED.modulus == Modulus.power_of_two(SHARE_BITS) == Modulus(2**63)
        assert FixedPointConfig().modulus == AGG_FIXED.modulus

    def test_power_of_two_widths(self):
        for bits in (8, 12, 16, 32, 63):
            assert Modulus.power_of_two(bits).value == 2**bits

    def test_rejects_unsupported_width(self):
        for bits in (20, 64):
            with pytest.raises(ValueError):
                Modulus.power_of_two(bits)

    @pytest.mark.parametrize("value", [0, 11, 2**61 - 1, 2**63 + 1])
    def test_rejects_non_power_of_two(self, value):
        with pytest.raises(ValueError, match="2\\^n"):
            Modulus(value)


def encode(v: float, cfg: FixedPointConfig = CFG_63) -> int:
    return int(encode_fixed_array(np.array([v]), cfg)[0])


def decode(x: int, cfg: FixedPointConfig = CFG_63) -> float:
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
        assert encode(-0.0001) == M - 1
        assert encode(-0.0001, CFG_32) == 2**32 - 1

    def test_truncates_toward_zero(self):
        assert encode(0.00019) == 1
        assert encode(-0.00019) == M - 1

    def test_overflow_rejected(self):
        with pytest.raises(HeadroomError):
            encode(2**62 / 10**4)
        with pytest.raises(HeadroomError):
            encode_fixed_array(np.array([0.0, -(2**31) / 10**4]), CFG_32)


class TestDecodeFixed:
    def test_15000_decodes_to_one_point_five(self):
        assert decode(15000) == 1.5

    def test_top_of_ring_decodes_negative(self):
        assert decode(M - 1) == -0.0001
        assert decode(2**32 - 1, CFG_32) == -0.0001

    def test_zero(self):
        assert decode(0) == 0.0

    def test_modulus_mismatch(self):
        # Values reduced mod 2^63 but not mod 2^32 were encoded in another ring.
        with pytest.raises(ModulusMismatchError):
            decode(2**32, CFG_32)
        with pytest.raises(ModulusMismatchError):
            decode_fixed_array(encode_fixed_array(np.array([1.0, -1.0]), CFG_63), CFG_32)


class TestRingOps:
    def test_add_mod_256(self):
        assert mod_add(u64(200), u64(100), M8).tolist() == [44]

    def test_sub_mod_256(self):
        assert mod_sub(u64(5), u64(9), M8).tolist() == [252]

    def test_mul_wide_intermediate(self):
        # (2^62 + 1)^2 = 2^124 + 2^63 + 1 = 1 mod 2^63; the product wraps
        # uint64, which reduces exactly because 2^63 divides 2^64.
        assert mod_mul(u64(2**62 + 1), u64(2**62 + 1), CFG_63.modulus).tolist() == [1]


class TestRoundTripAndHomomorphism:
    @pytest.mark.parametrize("cfg", [CFG_32, CFG_63], ids=["pow2_32", "pow2_63"])
    def test_round_trip_truncation_only(self, cfg):
        rng = np.random.Generator(np.random.PCG64(1))
        bound = min(1e9, 0.99 * cfg.modulus.value / 2 / cfg.scale)
        vals = rng.uniform(-bound, bound, 2000)
        dec = decode_fixed_array(encode_fixed_array(vals, cfg), cfg)
        assert np.max(np.abs(dec - vals)) < 1e-4

    def test_round_trip_is_exact_truncation(self):
        rng = np.random.Generator(np.random.PCG64(2))
        vals = rng.uniform(-100, 100, 500)
        dec = decode_fixed_array(encode_fixed_array(vals, CFG_63), CFG_63)
        expect = np.trunc(vals * 10**4) / 10**4
        assert np.array_equal(dec, expect)

    def test_addition_homomorphism(self):
        rng = np.random.Generator(np.random.PCG64(3))
        a = rng.uniform(-1e5, 1e5, 1000)
        b = rng.uniform(-1e5, 1e5, 1000)
        ea, eb = encode_fixed_array(a, CFG_63), encode_fixed_array(b, CFG_63)
        total = decode_fixed_array(mod_add(ea, eb, CFG_63.modulus), CFG_63)
        expect = decode_fixed_array(ea, CFG_63) + decode_fixed_array(eb, CFG_63)
        assert np.allclose(total, expect, atol=1e-12)


@pytest.mark.parametrize("modulus", [Modulus.power_of_two(16), Modulus.power_of_two(63),
                                     Modulus.power_of_two(32)],
                         ids=["pow2_16", "pow2_63", "pow2_32"])
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


def test_add_sub_mul_exhaustive_2_8():
    # All 65536 operand pairs of Z_2^8 against Python integers.
    a, b = np.divmod(np.arange(1 << 16, dtype=np.uint64), np.uint64(1 << 8))
    pairs = list(zip(a.tolist(), b.tolist()))
    assert mod_add(a, b, M8).tolist() == [(x + y) % 256 for x, y in pairs]
    assert mod_sub(a, b, M8).tolist() == [(x - y) % 256 for x, y in pairs]
    assert mod_mul(a, b, M8).tolist() == [(x * y) % 256 for x, y in pairs]


def test_add_sub_match_python_ints_at_2_63_boundaries():
    m = CFG_63.modulus
    rng = np.random.Generator(np.random.PCG64(5))
    edges = np.array([0, 1, 2, M // 2 - 1, M // 2, M - 2, M - 1], dtype=np.uint64)
    a = np.concatenate([np.repeat(edges, edges.size), rng.integers(0, M, 2000, dtype=np.uint64)])
    b = np.concatenate([np.tile(edges, edges.size), rng.integers(0, M, 2000, dtype=np.uint64)])
    assert mod_add(a, b, m).tolist() == [(int(x) + int(y)) % M for x, y in zip(a, b)]
    assert mod_sub(a, b, m).tolist() == [(int(x) - int(y)) % M for x, y in zip(a, b)]
    acc = a.copy()
    assert mod_add(acc, b, m, out=acc) is acc
    assert acc.tolist() == [(int(x) + int(y)) % M for x, y in zip(a, b)]


def test_signed_i64_array_boundaries():
    m63 = Modulus.power_of_two(63)
    arr = np.array([0, 1, 2**62 - 1, 2**62, 2**63 - 1], dtype=np.uint64)
    signed = signed_i64_array(arr, m63)
    assert list(signed) == [0, 1, 2**62 - 1, -(2**62), -1]
    arr = np.array([0, 1, 127, 128, 255], dtype=np.uint64)
    assert list(signed_i64_array(arr, M8)) == [0, 1, 127, -128, -1]
