import numpy as np
import pytest

from fedchain.ring import (
    BITS,
    SCALE,
    HeadroomError,
    ModulusMismatchError,
    decode_fixed_array,
    encode_fixed_array,
    mod_add,
    mod_mul,
    mod_sub,
    signed_i64_array,
)

M = 2**63
# An 8-bit value shifted into bits 55-62 of Z_2^63 wraps exactly as in Z_2^8.
TOP = 63 - 8


def encode(v: float) -> int:
    return int(encode_fixed_array(np.array([v]))[0])


def decode(x: int) -> float:
    return float(decode_fixed_array(np.array([x], dtype=np.uint64))[0])


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

    def test_truncates_toward_zero(self):
        assert encode(0.00019) == 1
        assert encode(-0.00019) == M - 1

    def test_overflow_rejected(self):
        with pytest.raises(HeadroomError):
            encode(2**62 / 10**4)
        with pytest.raises(HeadroomError):
            encode_fixed_array(np.array([0.0, -(2**62) / 10**4]))

    def test_headroom_boundary_is_where_the_product_reaches_2_62(self):
        # The float64 just below 2^62 / SCALE still encodes: its product with
        # SCALE rounds below 2^62.
        edge = 2.0**62 / 10**4
        below = np.nextafter(edge, 0.0)
        assert below * 10**4 < 2.0**62 <= edge * 10**4
        assert encode(below) == int(below * 10**4)
        with pytest.raises(HeadroomError):
            encode(edge)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("v", [1e308, 1.7e308])
    def test_huge_values_are_refused_without_a_warning(self, v):
        with pytest.raises(HeadroomError):
            encode_fixed_array(np.array([0.0, v]))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("v", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_values_are_refused_without_a_warning(self, v):
        with pytest.raises(HeadroomError):
            encode_fixed_array(np.array([v, 1.0]))


class TestDecodeFixed:
    def test_15000_decodes_to_one_point_five(self):
        assert decode(15000) == 1.5

    def test_top_of_ring_decodes_negative(self):
        assert decode(M - 1) == -0.0001

    def test_zero(self):
        assert decode(0) == 0.0

    def test_modulus_mismatch(self):
        # Values not reduced mod 2^63 are not ring elements.
        with pytest.raises(ModulusMismatchError):
            decode(2**63)
        with pytest.raises(ModulusMismatchError):
            decode_fixed_array(u64(0, 2**64 - 1))


class TestRingOps:
    def test_add_mod_256(self):
        assert mod_add(u64(200 << TOP), u64(100 << TOP)).tolist() == [44 << TOP]

    def test_sub_mod_256(self):
        assert mod_sub(u64(5 << TOP), u64(9 << TOP)).tolist() == [252 << TOP]

    def test_mul_wide_intermediate(self):
        # (2^62 + 1)^2 = 2^124 + 2^63 + 1 = 1 mod 2^63; the product wraps
        # uint64, which reduces exactly because 2^63 divides 2^64.
        assert mod_mul(u64(2**62 + 1), u64(2**62 + 1)).tolist() == [1]


class TestRoundTripAndHomomorphism:
    @pytest.mark.parametrize("bits", [BITS], ids=["pow2_63"])
    def test_round_trip_truncation_only(self, bits):
        rng = np.random.Generator(np.random.PCG64(1))
        bound = min(1e9, 0.99 * 2**bits / 2 / SCALE)
        vals = rng.uniform(-bound, bound, 2000)
        dec = decode_fixed_array(encode_fixed_array(vals))
        assert np.max(np.abs(dec - vals)) < 1e-4

    def test_round_trip_is_exact_truncation(self):
        rng = np.random.Generator(np.random.PCG64(2))
        vals = rng.uniform(-100, 100, 500)
        dec = decode_fixed_array(encode_fixed_array(vals))
        expect = np.trunc(vals * 10**4) / 10**4
        assert np.array_equal(dec, expect)

    def test_addition_homomorphism(self):
        rng = np.random.Generator(np.random.PCG64(3))
        a = rng.uniform(-1e5, 1e5, 1000)
        b = rng.uniform(-1e5, 1e5, 1000)
        ea, eb = encode_fixed_array(a), encode_fixed_array(b)
        total = decode_fixed_array(mod_add(ea, eb))
        expect = decode_fixed_array(ea) + decode_fixed_array(eb)
        assert np.allclose(total, expect, atol=1e-12)


@pytest.mark.parametrize("bits", [16, BITS, 32], ids=["pow2_16", "pow2_63", "pow2_32"])
def test_vector_ops_match_bigint_oracle(bits):
    # 10^4 random triples per width against plain Python integers.  Values of
    # Z_2^bits sit in the top bits of Z_2^63, where sums and differences of
    # a * 2^s and b * 2^s, and the product of a and b * 2^s, wrap as in
    # Z_2^bits (s = 63 - bits).
    rng = np.random.Generator(np.random.PCG64(4))
    n = 10**4
    m = 2**bits
    a = rng.integers(0, m, n, dtype=np.uint64)
    b = rng.integers(0, m, n, dtype=np.uint64)
    s = np.uint64(BITS - bits)
    got_add = mod_add(a << s, b << s) >> s
    got_sub = mod_sub(a << s, b << s) >> s
    got_mul = mod_mul(a, b << s) >> s
    for i in range(0, n, 97):
        ai, bi = int(a[i]), int(b[i])
        assert int(got_add[i]) == (ai + bi) % m
        assert int(got_sub[i]) == (ai - bi) % m
        assert int(got_mul[i]) == (ai * bi) % m
    # Full-vector check through Python objects for add/mul.
    assert np.array_equal(got_mul.astype(object), (a.astype(object) * b.astype(object)) % m)


def test_add_sub_mul_exhaustive_2_8():
    # All 65536 operand pairs of Z_2^8 against Python integers, in bits 55-62
    # of Z_2^63: sums and differences of u * 2^55 and s * 2^55 wrap as in
    # Z_2^8, and so does the product of u and s * 2^55.
    a, b = np.divmod(np.arange(1 << 16, dtype=np.uint64), np.uint64(1 << 8))
    pairs = list(zip(a.tolist(), b.tolist()))
    top = np.uint64(TOP)
    assert (mod_add(a << top, b << top) >> top).tolist() == [(x + y) % 256 for x, y in pairs]
    assert (mod_sub(a << top, b << top) >> top).tolist() == [(x - y) % 256 for x, y in pairs]
    assert (mod_mul(a, b << top) >> top).tolist() == [(x * y) % 256 for x, y in pairs]


def test_add_sub_match_python_ints_at_2_63_boundaries():
    rng = np.random.Generator(np.random.PCG64(5))
    edges = np.array([0, 1, 2, M // 2 - 1, M // 2, M - 2, M - 1], dtype=np.uint64)
    a = np.concatenate([np.repeat(edges, edges.size), rng.integers(0, M, 2000, dtype=np.uint64)])
    b = np.concatenate([np.tile(edges, edges.size), rng.integers(0, M, 2000, dtype=np.uint64)])
    assert mod_add(a, b).tolist() == [(int(x) + int(y)) % M for x, y in zip(a, b)]
    assert mod_sub(a, b).tolist() == [(int(x) - int(y)) % M for x, y in zip(a, b)]
    acc = a.copy()
    assert mod_add(acc, b, out=acc) is acc
    assert acc.tolist() == [(int(x) + int(y)) % M for x, y in zip(a, b)]


def test_signed_i64_array_boundaries():
    arr = np.array([0, 1, 2**62 - 1, 2**62, 2**63 - 1], dtype=np.uint64)
    signed = signed_i64_array(arr)
    assert list(signed) == [0, 1, 2**62 - 1, -(2**62), -1]
    # 8-bit values in bits 55-62 read as the signed 8-bit values times 2^55.
    arr = np.array([0, 1, 127, 128, 255], dtype=np.uint64) << np.uint64(TOP)
    assert list(signed_i64_array(arr) >> TOP) == [0, 1, 127, -128, -1]
