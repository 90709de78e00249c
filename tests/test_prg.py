import hashlib

import numpy as np
import pytest

from fedchain import prg
from fedchain.sharing import Dealer

U32 = np.uint32


# The per-word ChaCha12 kernel the row-block kernel replaced: sixteen (K,)
# word arrays and one quarter-round call per column and diagonal.  It is the
# reference the (16, K) kernel must match bit for bit.
def _ref_rotl(x, r):
    return (x << U32(r)) | (x >> U32(32 - r))


def _ref_quarter(s, a, b, c, d):
    s[a] = s[a] + s[b]
    s[d] = _ref_rotl(s[d] ^ s[a], 16)
    s[c] = s[c] + s[d]
    s[b] = _ref_rotl(s[b] ^ s[c], 12)
    s[a] = s[a] + s[b]
    s[d] = _ref_rotl(s[d] ^ s[a], 8)
    s[c] = s[c] + s[d]
    s[b] = _ref_rotl(s[b] ^ s[c], 7)


def reference_chacha_block(seeds, tweak):
    k = seeds.shape[1]
    zeros = np.zeros(k, dtype=U32)
    state = [np.full(k, w, dtype=U32) for w in prg._SIGMA]
    state += [seeds[i].astype(U32, copy=True) for i in range(4)]
    state += [np.full(k, U32(tweak), dtype=U32)] + [zeros.copy() for _ in range(7)]
    initial = [w.copy() for w in state]
    for _ in range(prg._ROUNDS // 2):
        _ref_quarter(state, 0, 4, 8, 12)
        _ref_quarter(state, 1, 5, 9, 13)
        _ref_quarter(state, 2, 6, 10, 14)
        _ref_quarter(state, 3, 7, 11, 15)
        _ref_quarter(state, 0, 5, 10, 15)
        _ref_quarter(state, 1, 6, 11, 12)
        _ref_quarter(state, 2, 7, 8, 13)
        _ref_quarter(state, 3, 4, 9, 14)
    return [s + i for s, i in zip(state, initial)]


def fixed_seeds(k):
    """(4, K) seed lanes from a Weyl sequence, independent of numpy's RNGs."""
    words = np.arange(4 * k, dtype=np.uint64) * np.uint64(0x9E3779B9) + np.uint64(12345)
    return (words & np.uint64(0xFFFFFFFF)).astype(U32).reshape(4, k)


# RFC 8439 section 2.1.1: quarter round on (a, b, c, d).
RFC_IN = (0x11111111, 0x01020304, 0x9B8D6F43, 0x01234567)
RFC_OUT = (0xEA2A92F4, 0xCB1CF8CE, 0x4581472E, 0x5881C4BB)


def test_reference_quarter_round_matches_rfc8439():
    s = [np.array([w], dtype=U32) for w in RFC_IN]
    _ref_quarter(s, 0, 1, 2, 3)
    assert [int(w[0]) for w in s] == list(RFC_OUT)


def test_row_block_quarter_round_matches_rfc8439():
    # Column i of the (16, K) state is (a, b, c, d) = rows (i, 4+i, 8+i, 12+i).
    state = np.zeros((16, 4), dtype=U32)
    for col in range(4):
        state[[col, 4 + col, 8 + col, 12 + col], col] = RFC_IN
    prg._quarter_rounds(state, np.empty((4, 4), dtype=U32))
    for col in range(4):
        assert [int(w) for w in state[[col, 4 + col, 8 + col, 12 + col], col]] == list(RFC_OUT)


@pytest.mark.parametrize("tweak", [prg.TWEAK_EXPAND, prg.TWEAK_CONVERT])
@pytest.mark.parametrize("k", [1, 2, 640, 1281])
def test_block_matches_per_word_reference(k, tweak):
    seeds = fixed_seeds(k)
    got = prg.chacha_block(seeds, tweak)
    assert got.shape == (16, k) and got.dtype == U32
    assert np.array_equal(got, np.stack(reference_chacha_block(seeds, tweak)))


# Digests of the field outputs for fixed_seeds(1281), recorded with the
# per-word kernel above.  They pin the carving of the block into fields.
EXPAND_SHA256 = "26bf803d0fa71ac100df1621819603381e95d54933d8346dd4df718db4d1080b"
CONVERT_SHA256 = "4749481baa02ef1a5f733178082de884e3e37eaece3e2d53af293da8a62e21bc"


def test_expand_node_fields_are_pinned():
    seeds = fixed_seeds(1281)
    fields = prg.expand_node(seeds)
    shapes = [f.shape for f in fields]
    assert shapes == [(4, 1281), (1281,), (1281,)] * 2
    assert [f.dtype for f in fields] == [np.dtype(U32), np.dtype(np.uint64), np.dtype(np.uint8)] * 2
    h = hashlib.sha256()
    for f in fields:
        h.update(f.tobytes())
    assert h.hexdigest() == EXPAND_SHA256


def test_convert_seed_is_pinned():
    out = prg.convert_seed(fixed_seeds(1281))
    assert out.shape == (1281,) and out.dtype == np.uint64
    assert hashlib.sha256(out.tobytes()).hexdigest() == CONVERT_SHA256


# ---------------------------------------------------------------------------
# The dealer's AES-128-CTR keystream.
# ---------------------------------------------------------------------------

# NIST SP 800-38A, F.5.1 CTR-AES128.Encrypt: key, initial counter block,
# four plaintext blocks and their ciphertext.
NIST_KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
NIST_CTR = bytes.fromhex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff")
NIST_PLAIN = bytes.fromhex(
    "6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e51"
    "30c81c46a35ce411e5fbc1191a0a52eff69f2445df4f9b17ad2b417be66c3710")
NIST_CIPHER = bytes.fromhex(
    "874d6191b620e3261bef6864990db6ce9806f66b7970fdff8617187bb9fffdff"
    "5ae4df3edbd5d35e5b4f09020db03eab1e031dda2fbe03d1792170a0f3009cee")


# The first 50,052 keystream words under bytes(range(16)), by sha256.  Its
# first four words match OpenSSL's command line:
# `openssl enc -aes-128-ctr -K 000102...0f -iv 0` over 32 zero bytes.
RANGE_KEY = bytes(range(16))
RANGE_KEY_WORDS = "c6a13b37878f5b826f4f8162a1c8d8797346139595c0b41e497bbde365f42d0a"
RANGE_KEY_SHA256 = "78c481c6ffea647bbc86be371b58d7daa48c965c39242033827066c369e6615e"


def test_aes_ctr_matches_nist_sp800_38a_f51():
    # Counter block c holds keystream words 2c and 2c + 1.
    start = 2 * int.from_bytes(NIST_CTR, "big")
    pad = prg.keystream_into(NIST_KEY, np.empty(len(NIST_PLAIN), dtype=np.uint8), start)
    assert (pad ^ np.frombuffer(NIST_PLAIN, dtype=np.uint8)).tobytes() == NIST_CIPHER
    # From the block's second word: the last 56 bytes of the same pad.
    tail = prg.keystream_into(NIST_KEY, np.empty(7, dtype="<u8"), start + 1)
    assert tail.tobytes() == pad[8:].tobytes()


def test_aes_ctr_draws_continue_one_stream_across_update_chunks(monkeypatch):
    # A dealer's draws, read at its word position with three AES blocks per
    # EVP_EncryptUpdate call and draws that end inside a block, are one
    # draw of all their words.
    dealer = Dealer(7)
    want = prg.keystream_into(dealer.key, np.empty(1000, dtype="<u8"))
    monkeypatch.setattr(prg, "ZERO_SOURCE_BYTES", 48)
    got = np.concatenate([dealer.words(n) for n in (1, 5, 13, 981)])
    assert np.array_equal(got, want)
    assert dealer.position == 1000


@pytest.mark.parametrize("start", [0, 1, 2, 7, 999])
@pytest.mark.parametrize("count", [0, 1, 13])
def test_keystream_into_from_any_word_is_a_slice_of_the_stream(monkeypatch, start, count):
    full = prg.keystream_into(RANGE_KEY, np.empty(1013, dtype="<u8"))
    # Chunks of 40 bytes: five words, so chunks and AES blocks fall out of step.
    monkeypatch.setattr(prg, "ZERO_SOURCE_BYTES", 40)
    got = prg.keystream_into(RANGE_KEY, np.full(count, 0xDEADBEEF, dtype="<u8"), start)
    assert np.array_equal(got, full[start : start + count])


@pytest.mark.parametrize("count", [1, 3, 6, 596, 50_052])
def test_keystream_into_writes_the_stream_words_after_any_row(count):
    # A 3-word row leaves the shared context half-way through an AES block;
    # the next key must start its own stream at block 0 all the same.  The
    # target is overwritten, not XORed.
    prg.keystream_into(NIST_KEY, np.empty(3, dtype="<u8"))
    got = prg.keystream_into(RANGE_KEY, np.full(count, 0xDEADBEEF, dtype="<u8"))
    prg.keystream_into(NIST_KEY, np.empty(3, dtype="<u8"), 1)
    full = prg.keystream_into(RANGE_KEY, np.empty(50_052, dtype="<u8"))
    assert hashlib.sha256(full.tobytes()).hexdigest() == RANGE_KEY_SHA256
    assert full[:4].tobytes().hex() == RANGE_KEY_WORDS
    assert np.array_equal(got, full[:count])


def test_aes_ctr_refuses_bad_keys_and_targets():
    with pytest.raises(ValueError, match="16-byte key"):
        prg.keystream_into(bytes(15), np.empty(4, dtype=np.uint64))
    with pytest.raises(ValueError, match="C-contiguous"):
        prg.keystream_into(NIST_KEY, np.zeros((4, 4), dtype=np.uint64)[:, ::2])
    with pytest.raises(ValueError, match="numbered from 0"):
        prg.keystream_into(NIST_KEY, np.empty(4, dtype=np.uint64), -1)
