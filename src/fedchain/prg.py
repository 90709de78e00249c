"""Batched keyed pseudorandom generator for the comparison-key trees.

The seed-expansion trees need a length-doubling PRG applied to very many
128-bit seeds per protocol round.  Hash calls per seed would dominate the
runtime, so the generator here is a ChaCha12 block function evaluated
lane-wise with numpy: every seed is one lane, and the whole batch moves
through the 12 ARX rounds together.  ChaCha with 12 rounds retains a
comfortable security margin (published attacks stop at 7 rounds) while
staying an order of magnitude cheaper than the 20-round variant.

Seeds are (4, K) uint32 arrays: K lanes of 128 bits.  One expansion yields
a 512-bit block per lane, carved into the fields the tree level needs.

The ChaCha state is one (16, K) uint32 array: row w holds state word w of
every lane.  Numpy call overhead, not ARX arithmetic, sets the cost at the
batch widths the protocols use, so each half-round works on whole row
blocks.  Rows 0-3, 4-7, 8-11 and 12-15 are the (4, K) blocks a, b, c and d;
column i of the 4x4 word matrix is (a[i], b[i], c[i], d[i]), so the column
round is one quarter round on the four blocks as they are.  The diagonal
round pairs a[i] with b[i+1], c[i+2] and d[i+3]: rotating the rows of b, c
and d by 1, 2 and 3 turns the diagonals into columns, and rotating back
restores the layout.

The dealer's stream and the clients' aggregation mask rows come from a
second primitive here: AES-128-CTR through the ``libcrypto`` that
:mod:`hashlib` already maps, called with :mod:`ctypes`.  It is the binding
the tree PRG can move onto.  Its one entry point, :func:`keystream_into`,
writes the keystream under a key, from any word on, straight into a given
array.  A mask row is one call from word 0; the dealer is a key and a word
position, and each of its draws is one call from that position.  Every call
re-keys one process-wide EVP context and encrypts a read-only zero source,
so a draw costs no context of its own, no zero fill and no XOR pass, and
draws under different keys can interleave.  The zero source is a
private read-only anonymous mapping: every page of it reads as the
kernel's one shared zero page, so it holds no resident memory and its
reads stay in the L1 cache.  The default shared mapping would be shmem,
resident as it is read.
"""

from __future__ import annotations

import ctypes
import mmap

import numpy as np

# "expand 32-byte k" in little-endian words, the standard ChaCha constants.
_SIGMA = (0x61707865, 0x3320646E, 0x79622D32, 0x6B206574)
_ROUNDS = 12

U32 = np.uint32

# Row order that moves the diagonals (0, 5, 10, 15), (1, 6, 11, 12), ... into
# the columns, and its inverse.  Written out: computing the inverse with
# np.argsort at import maps numpy's sort kernels, about 0.4 MB of resident
# memory in every process.
_DIAGONALS = np.array([0, 1, 2, 3, 5, 6, 7, 4, 10, 11, 8, 9, 15, 12, 13, 14])
_UNDIAGONALS = np.array([0, 1, 2, 3, 7, 4, 5, 6, 10, 11, 8, 9, 13, 14, 15, 12])

# The quarter round's four add-xor-rotate steps: (sum block, addend block,
# xored block, left rotation, matching right shift), blocks 0-3 = a-d.
_STEPS = tuple(
    (s, t, u, U32(r), U32(32 - r))
    for s, t, u, r in ((0, 1, 3, 16), (2, 3, 1, 12), (0, 1, 3, 8), (2, 3, 1, 7))
)


def _quarter_rounds(state: np.ndarray, tmp: np.ndarray) -> None:
    """One quarter round on every column of the (16, K) state, in place.

    ``tmp`` is a (4, K) uint32 scratch block.
    """
    blocks = (state[0:4], state[4:8], state[8:12], state[12:16])
    for s, t, u, left, right in _STEPS:
        x, y = blocks[s], blocks[u]
        x += blocks[t]
        y ^= x
        np.right_shift(y, right, out=tmp)
        y <<= left
        y |= tmp


def chacha_block(seeds: np.ndarray, tweak: int) -> np.ndarray:
    """Expand each 128-bit seed lane into 16 uint32 output words.

    ``seeds`` has shape (4, K); the result has shape (16, K), row w holding
    output word w.  The seed fills the first half of the key schedule; the
    second half plus the counter word carry the tweak, which
    domain-separates the different uses of one seed (child expansion vs.
    group-element conversion).
    """
    k = seeds.shape[1]
    sigma = np.array(_SIGMA, dtype=U32)[:, np.newaxis]
    state = np.zeros((16, k), dtype=U32)
    state[0:4] = sigma
    state[4:8] = seeds
    state[8] = U32(tweak)
    tmp = np.empty((4, k), dtype=U32)
    for _ in range(_ROUNDS // 2):
        _quarter_rounds(state, tmp)
        state = state[_DIAGONALS]
        _quarter_rounds(state, tmp)
        state = state[_UNDIAGONALS]
    # Feed-forward of the input words; rows 9-15 started at zero.
    state[0:4] += sigma
    state[4:8] += seeds
    state[8] += U32(tweak)
    return state


# Tweak constants: 0 expands a node into its children, 1 converts a seed
# into an output-group element.
TWEAK_EXPAND = 0
TWEAK_CONVERT = 1


def expand_node(seeds: np.ndarray) -> tuple:
    """PRG fields for one tree level.

    Returns (s_left, v_left, t_left, s_right, v_right, t_right) where the
    s fields are (4, K) uint32 child seeds, v fields are (K,) uint64 group
    payloads and t fields are (K,) uint8 control bits.
    """
    w = chacha_block(seeds, TWEAK_EXPAND)
    s_l = w[0:4]
    s_r = w[4:8]
    v_l = w[8].astype(np.uint64) | (w[9].astype(np.uint64) << np.uint64(32))
    v_r = w[10].astype(np.uint64) | (w[11].astype(np.uint64) << np.uint64(32))
    t_l = (w[12] & U32(1)).astype(np.uint8)
    t_r = ((w[12] >> U32(1)) & U32(1)).astype(np.uint8)
    return s_l, v_l, t_l, s_r, v_r, t_r


def convert_seed(seeds: np.ndarray) -> np.ndarray:
    """Map seed lanes to pseudorandom 64-bit group payloads, (K,) uint64."""
    w = chacha_block(seeds, TWEAK_CONVERT)
    return w[0].astype(np.uint64) | (w[1].astype(np.uint64) << np.uint64(32))


# ---------------------------------------------------------------------------
# AES-128-CTR keystream through libcrypto.
# ---------------------------------------------------------------------------


def _load_libcrypto() -> ctypes.CDLL:
    """OpenSSL's libcrypto by soname, else wherever ``find_library`` finds it."""
    try:
        return ctypes.CDLL("libcrypto.so.3")
    except OSError:
        pass
    # Imported only here: ctypes.util pulls in subprocess.
    from ctypes.util import find_library

    name = find_library("crypto")
    if name:
        try:
            return ctypes.CDLL(name)
        except OSError:
            pass
    raise ImportError("libcrypto not found: the AES-128-CTR streams need OpenSSL")


_lib = _load_libcrypto()
_lib.EVP_aes_128_ctr.argtypes = []
_lib.EVP_aes_128_ctr.restype = ctypes.c_void_p
_lib.EVP_CIPHER_CTX_new.argtypes = []
_lib.EVP_CIPHER_CTX_new.restype = ctypes.c_void_p
_lib.EVP_EncryptInit_ex.argtypes = [ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,
                                    ctypes.c_char_p, ctypes.c_char_p]
_lib.EVP_EncryptInit_ex.restype = ctypes.c_int
_lib.EVP_EncryptUpdate.argtypes = [ctypes.c_void_p, ctypes.c_void_p,
                                   ctypes.POINTER(ctypes.c_int), ctypes.c_void_p, ctypes.c_int]
_lib.EVP_EncryptUpdate.restype = ctypes.c_int

# The zero source (see the module docstring); PROT_READ makes a stray write
# fault instead of changing it.
ZERO_SOURCE_BYTES = 1 << 20
ZERO_SOURCE = np.frombuffer(
    mmap.mmap(-1, ZERO_SOURCE_BYTES, flags=mmap.MAP_PRIVATE, prot=mmap.PROT_READ), dtype=np.uint8)
_ZEROS = ZERO_SOURCE.ctypes.data

# The one context :func:`keystream_into` re-keys on every call, and the word
# an odd start encrypts and drops.
_ctx = _lib.EVP_CIPHER_CTX_new()
if not _ctx or _lib.EVP_EncryptInit_ex(_ctx, _lib.EVP_aes_128_ctr(), None,
                                       bytes(16), bytes(16)) != 1:
    raise ImportError("cannot set up an AES-128-CTR context")
_DROPPED = np.empty(1, dtype="<u8")


def _encrypt_zeros(dst: int, n: int) -> None:
    """Encrypt ``n`` zero bytes, at most ``ZERO_SOURCE_BYTES``, to address ``dst``."""
    written = ctypes.c_int()
    if _lib.EVP_EncryptUpdate(_ctx, dst, ctypes.byref(written), _ZEROS, n) != 1 \
            or written.value != n:
        raise RuntimeError("EVP_EncryptUpdate failed")


def keystream_into(key: bytes, out: np.ndarray, start: int = 0) -> np.ndarray:
    """Write the keystream under ``key`` from word ``start`` on into ``out``.

    The keystream is AES-128-CTR from the all-zero counter block, read as
    8-byte words: word w is half w % 2 of counter block w // 2, the 128-bit
    big-endian counter CTR increments.  ``out`` receives ``out.nbytes`` bytes
    of it from byte 8 * ``start``, so a draw can start at any word and
    slices of one stream read apart equal one long read.  Each call re-keys
    the one shared context at counter block ``start // 2``, which also drops
    the partial-block position the call before left, encrypts and drops that
    block's first word when ``start`` is odd, and encrypts the zero source
    into ``out`` in chunks of at most ``ZERO_SOURCE_BYTES``.
    """
    if len(key) != 16:
        raise ValueError("AES-128-CTR takes a 16-byte key")
    if not out.flags.c_contiguous or not out.flags.writeable:
        raise ValueError("keystream target must be a writeable C-contiguous array")
    if start < 0:
        raise ValueError("keystream words are numbered from 0")
    block, odd = divmod(start, 2)
    if _lib.EVP_EncryptInit_ex(_ctx, None, None, key, block.to_bytes(16, "big")) != 1:
        raise RuntimeError("EVP_EncryptInit_ex failed to re-key AES-128-CTR")
    if odd:
        _encrypt_zeros(_DROPPED.ctypes.data, 8)
    base, size, step = out.ctypes.data, out.nbytes, ZERO_SOURCE_BYTES
    for offset in range(0, size, step):
        _encrypt_zeros(base + offset, min(step, size - offset))
    return out
