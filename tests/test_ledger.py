import hashlib
import itertools
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedchain.ledger import (
    Chain,
    _meets_difficulty,
    load_chain,
    mine_block,
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


def saved_bytes(chain: Chain, path) -> bytes:
    save_chain(chain, str(path))
    return path.read_bytes()


def build_chain(refs: list[str]) -> Chain:
    chain = Chain(difficulty=0)
    for r, ref in enumerate(refs):
        chain.append(mine_block(r, hashlib.sha256(ref.encode()).digest(), ref, chain,
                                seq=len(chain)))
    return chain


def frame_ends(raw: bytes) -> list[int]:
    """File offsets just past each block frame."""
    ends, pos = [], 6
    while pos < len(raw):
        pos += 4 + struct.unpack_from("<I", raw, pos)[0]
        ends.append(pos)
    return ends


@settings(max_examples=25, deadline=None)
@given(refs=st.lists(st.text(max_size=12), max_size=3))
def test_every_truncation_raises_value_error(tmp_path_factory, refs):
    # The format has no block count: a cut at a frame boundary is a valid
    # shorter chain.  Every other cut must be reported, never crash.
    tmp = tmp_path_factory.mktemp("chain")
    chain = build_chain(refs)
    raw = saved_bytes(chain, tmp / "full.bin")
    ends = frame_ends(raw)
    cut_path = tmp / "cut.bin"
    for cut in range(len(raw)):
        cut_path.write_bytes(raw[:cut])
        if cut in ends:
            assert load_chain(str(cut_path)).blocks == chain.blocks[: ends.index(cut) + 1]
            continue
        with pytest.raises(ValueError) as caught:
            load_chain(str(cut_path))
        assert type(caught.value) is ValueError


@settings(max_examples=200, deadline=None)
@given(pos=st.integers(min_value=5), value=st.integers(0, 255))
def test_corrupt_byte_loads_or_raises_value_error(tmp_path_factory, pos, value):
    tmp = tmp_path_factory.mktemp("chain")
    raw = bytearray(saved_bytes(build_chain(["models/a.bin", "models/b.bin"]), tmp / "c.bin"))
    raw[pos % len(raw)] = value
    (tmp / "c.bin").write_bytes(bytes(raw))
    try:
        load_chain(str(tmp / "c.bin"))
    except ValueError as exc:
        assert type(exc) is ValueError


def test_non_utf8_model_reference_is_reported(tmp_path):
    raw = saved_bytes(build_chain(["ab"]), tmp_path / "c.bin")
    at = raw.rindex(b"ab")
    (tmp_path / "c.bin").write_bytes(raw[:at] + b"\xff\xfe" + raw[at + 2 :])
    with pytest.raises(ValueError, match="not UTF-8") as caught:
        load_chain(str(tmp_path / "c.bin"))
    assert type(caught.value) is ValueError
