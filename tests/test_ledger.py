import hashlib
import itertools
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedchain.ledger import (
    Chain,
    _meets_difficulty,
    load_chain,
    mine_block,
    next_block,
    save_chain,
    validate_chain,
)


def hex_meets(h: bytes, difficulty: int) -> bool:
    """Reference predicate: the hex digest starts with `difficulty` zeros."""
    return h.hex().startswith("0" * difficulty)


def reference_nonce(round_no: int, digest: bytes, ref: str, chain: Chain) -> int:
    """Smallest nonce whose full-header hash passes the hex predicate."""
    head = chain.head
    ref_bytes = ref.encode()
    index = head.index + 1
    prefix = struct.pack("<Q32sQQ32sH", index, head.hash, round_no * 1000 + index,
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


def test_next_block_rebuilds_the_block_mine_block_found():
    chain = Chain(difficulty=3)
    for r in range(3):
        digest = hashlib.sha256(bytes([r])).digest()
        ref = f"models/round_{r:04d}.bin"
        mined = mine_block(r, digest, ref, chain)
        assert next_block(r, digest, ref, chain, mined.nonce) == mined
        # Rebuilt with the nonce before the smallest, the block is refused.
        short = next_block(r, digest, ref, chain, mined.nonce - 1)
        with pytest.raises(ValueError, match="difficulty not met"):
            chain.append(short)
        chain.append(mined)


@pytest.mark.parametrize("difficulty", range(12))
def test_byte_predicate_at_the_boundary(difficulty):
    # The largest hash with `difficulty` zero hex digits, and the hash after it.
    hashes = [bytes(32), b"\xff" * 32, (16 ** (64 - difficulty) - 1).to_bytes(32, "big")]
    if difficulty:
        hashes.append((16 ** (64 - difficulty)).to_bytes(32, "big"))
    for h in hashes:
        assert _meets_difficulty(h, difficulty) == hex_meets(h, difficulty)


@pytest.mark.parametrize("difficulty", [1, 2, 3])
def test_validate_chain_rejects_under_difficulty_block(difficulty):
    # A chain one digit easier has the same genesis head, so its blocks
    # link to this chain's head too.
    chain, easier = Chain(difficulty=difficulty), Chain(difficulty=difficulty - 1)
    for i in itertools.count():
        block = mine_block(0, hashlib.sha256(bytes([i])).digest(), "ref", easier)
        if not hex_meets(block.hash, difficulty):
            break
    with pytest.raises(ValueError, match="difficulty not met"):
        chain.append(block)
    chain.blocks.append(block)
    assert validate_chain(chain) == 1


def saved_bytes(chain: Chain, path) -> bytes:
    save_chain(chain, str(path))
    return path.read_bytes()


def build_chain(refs: list[str]) -> Chain:
    chain = Chain(difficulty=0)
    for r, ref in enumerate(refs):
        chain.append(mine_block(r, hashlib.sha256(ref.encode()).digest(), ref, chain))
    return chain


def frames(raw: bytes) -> list[tuple[int, int]]:
    """(start, end) file offsets of each block frame, length prefix included."""
    spans, pos = [], 10  # magic, difficulty byte, block count
    while pos < len(raw):
        end = pos + 4 + struct.unpack_from("<I", raw, pos)[0]
        spans.append((pos, end))
        pos = end
    return spans


@settings(max_examples=25, deadline=None)
@given(refs=st.lists(st.text(max_size=12), max_size=3))
def test_every_truncation_raises_value_error(tmp_path_factory, refs):
    # The header's block count makes a cut at a frame boundary fail like
    # any other cut: reported, never a shorter chain, never a crash.
    tmp = tmp_path_factory.mktemp("chain")
    raw = saved_bytes(build_chain(refs), tmp / "full.bin")
    cut_path = tmp / "cut.bin"
    for cut in range(len(raw)):
        cut_path.write_bytes(raw[:cut])
        with pytest.raises(ValueError) as caught:
            load_chain(str(cut_path))
        assert type(caught.value) is ValueError


def test_bytes_after_the_last_block_are_refused(tmp_path):
    raw = saved_bytes(build_chain(["a"]), tmp_path / "c.bin")
    last = raw[frames(raw)[-1][0] :]
    (tmp_path / "c.bin").write_bytes(raw + last)
    with pytest.raises(ValueError, match="bytes after the last of 2 blocks"):
        load_chain(str(tmp_path / "c.bin"))


def test_other_format_version_is_named(tmp_path):
    raw = bytearray(saved_bytes(build_chain(["a"]), tmp_path / "c.bin"))
    raw[4] = 1
    (tmp_path / "c.bin").write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="unsupported chain format version 1"):
        load_chain(str(tmp_path / "c.bin"))


@settings(max_examples=200, deadline=None)
@given(refs=st.lists(st.text(max_size=12), max_size=3), data=st.data())
def test_overwritten_byte_in_block_k_is_refused_or_names_block_k(tmp_path_factory, refs,
                                                                 data):
    tmp = tmp_path_factory.mktemp("chain")
    raw = bytearray(saved_bytes(build_chain(refs), tmp / "c.bin"))
    spans = frames(bytes(raw))
    k = data.draw(st.integers(0, len(spans) - 1), label="block")
    pos = data.draw(st.integers(spans[k][0], spans[k][1] - 1), label="offset")
    raw[pos] ^= data.draw(st.integers(1, 255), label="xor")
    (tmp / "c.bin").write_bytes(bytes(raw))
    try:
        chain = load_chain(str(tmp / "c.bin"))
    except ValueError as exc:
        assert type(exc) is ValueError
        return
    assert validate_chain(chain) == k


@settings(max_examples=200, deadline=None)
@given(pos=st.integers(min_value=5), value=st.integers(0, 255))
@example(pos=5, value=200)  # a difficulty byte no 64-digit hex digest can meet
def test_corrupt_byte_loads_or_raises_value_error(tmp_path_factory, pos, value):
    # A chain that loads can be validated: validate_chain returns, never raises.
    tmp = tmp_path_factory.mktemp("chain")
    raw = bytearray(saved_bytes(build_chain(["models/a.bin", "models/b.bin"]), tmp / "c.bin"))
    raw[pos % len(raw)] = value
    (tmp / "c.bin").write_bytes(bytes(raw))
    try:
        chain = load_chain(str(tmp / "c.bin"))
    except ValueError as exc:
        assert type(exc) is ValueError
        return
    validate_chain(chain)


def test_non_utf8_model_reference_is_reported(tmp_path):
    raw = saved_bytes(build_chain(["ab"]), tmp_path / "c.bin")
    at = raw.rindex(b"ab")
    (tmp_path / "c.bin").write_bytes(raw[:at] + b"\xff\xfe" + raw[at + 2 :])
    with pytest.raises(ValueError, match="not UTF-8") as caught:
        load_chain(str(tmp_path / "c.bin"))
    assert type(caught.value) is ValueError
