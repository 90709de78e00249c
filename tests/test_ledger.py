import hashlib
import itertools
import struct

import numpy as np
import pytest

from fedchain.ledger import Chain, _meets_difficulty, mine_block, validate_chain


def hex_meets(h: bytes, difficulty: int) -> bool:
    """Reference predicate: the hex digest starts with `difficulty` zeros."""
    return h.hex().startswith("0" * difficulty)


def reference_nonce(round_no: int, digest: bytes, ref: str, chain: Chain) -> int:
    """Smallest nonce whose full-header hash passes the hex predicate."""
    head = chain.head
    ref_bytes = ref.encode()
    prefix = struct.pack("<Q32sQQ32sH", head.index + 1, head.hash, round_no * 1000,
                         round_no, digest, len(ref_bytes)) + ref_bytes
    for nonce in itertools.count():
        h = hashlib.sha256(prefix + struct.pack("<Q", nonce)).digest()
        if hex_meets(h, chain.difficulty):
            return nonce


@pytest.mark.parametrize("difficulty", range(6))
def test_mined_nonce_is_smallest_under_hex_predicate(difficulty):
    rng = np.random.Generator(np.random.PCG64(difficulty))
    for _ in range(3 if difficulty < 5 else 1):
        chain = Chain(difficulty=difficulty)
        digest = rng.bytes(32)
        block = mine_block(2, digest, "models/round_0002.bin", chain)
        assert block.nonce == reference_nonce(2, digest, "models/round_0002.bin", chain)
        assert block.hash == block.compute_hash()
        chain.append(block)
        assert validate_chain(chain) is None


def test_byte_predicate_matches_hex_predicate():
    rng = np.random.Generator(np.random.PCG64(1))
    for zero_nibbles in range(10):
        h = bytearray(rng.bytes(32))
        for i in range(zero_nibbles):
            h[i // 2] &= 0x0F if i % 2 == 0 else 0xF0
        for difficulty in range(12):
            assert _meets_difficulty(bytes(h), difficulty) == hex_meets(bytes(h), difficulty)


@pytest.mark.parametrize("difficulty", [1, 2, 3])
def test_validate_chain_rejects_under_difficulty_block(difficulty):
    chain = Chain(difficulty=difficulty)
    for i in itertools.count():
        block = mine_block(0, hashlib.sha256(bytes([i])).digest(), "ref", chain,
                           difficulty=difficulty - 1)
        if not hex_meets(block.hash, difficulty):
            break
    with pytest.raises(ValueError, match="difficulty not met"):
        chain.append(block)
    chain.blocks.append(block)
    assert validate_chain(chain) == 1
