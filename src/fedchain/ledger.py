"""Private proof-of-work chain holding global-model digests.

Blocks carry a round number, the SHA-256 digest of the committed global
model and a content reference to the model bytes stored beside the chain.
A block is valid when its header hash has the required number of leading
zero hex digits and links to its predecessor.  The round commits the
digest of the global model it aggregated; there is no vote, because every
node here would reconstruct the same model and compute the same digest.

Timestamps are logical (round counter plus sequence) so chains are
byte-reproducible across runs.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import struct
from dataclasses import dataclass

GENESIS_PREV = bytes(32)
GENESIS_REF = "genesis"

# index, prev_hash, timestamp_ms, round, model_digest, len(model_ref); the
# reference bytes and the 8-byte nonce follow.
_HEADER = struct.Struct("<Q32sQQ32sH")


class UnknownRoundError(KeyError):
    """The chain holds no block for the requested round."""


@dataclass(frozen=True)
class Block:
    index: int
    prev_hash: bytes
    timestamp_ms: int
    round: int
    model_digest: bytes
    model_ref: str
    nonce: int
    hash: bytes

    def header_bytes(self) -> bytes:
        ref = self.model_ref.encode()
        return (
            _HEADER.pack(self.index, self.prev_hash, self.timestamp_ms, self.round,
                         self.model_digest, len(ref))
            + ref
            + struct.pack("<Q", self.nonce)
        )

    def compute_hash(self) -> bytes:
        return hashlib.sha256(self.header_bytes()).digest()

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "prev_hash": self.prev_hash.hex(),
            "timestamp_ms": self.timestamp_ms,
            "round": self.round,
            "model_digest": self.model_digest.hex(),
            "model_ref": self.model_ref,
            "nonce": self.nonce,
            "hash": self.hash.hex(),
        }


def _meets_difficulty(h: bytes, difficulty: int) -> bool:
    """True iff the hash starts with ``difficulty`` zero hex digits."""
    whole, odd = divmod(difficulty, 2)
    return h.startswith(bytes(whole)) and (not odd or h[whole] < 0x10)


def make_genesis() -> Block:
    stub = Block(0, GENESIS_PREV, 0, 0, bytes(32), GENESIS_REF, 0, bytes(32))
    return Block(0, GENESIS_PREV, 0, 0, bytes(32), GENESIS_REF, 0, stub.compute_hash())


@dataclass
class Chain:
    """Append-only hash-linked block list with a fixed genesis."""

    difficulty: int = 2
    blocks: list[Block] | None = None

    def __post_init__(self) -> None:
        if self.blocks is None:
            self.blocks = [make_genesis()]

    @property
    def head(self) -> Block:
        return self.blocks[-1]

    def append(self, block: Block) -> None:
        err = _block_error(block, self.head, self.difficulty)
        if err:
            raise ValueError(f"refusing to append: {err}")
        self.blocks.append(block)

    def block_for_round(self, round_no: int) -> Block:
        for b in self.blocks[1:]:
            if b.round == round_no:
                return b
        raise UnknownRoundError(f"no block for round {round_no}")

    def __len__(self) -> int:
        return len(self.blocks)


def mine_block(round_no: int, model_digest: bytes, model_ref: str, chain: Chain,
               difficulty: int | None = None, seq: int = 0) -> Block:
    """Smallest-nonce search from zero; deterministic given the chain head."""
    if len(model_digest) != 32:
        raise ValueError("payload digest must be 32 bytes")
    difficulty = chain.difficulty if difficulty is None else difficulty
    head = chain.head
    ts = round_no * 1000 + seq
    ref = model_ref.encode()
    prefix = _HEADER.pack(head.index + 1, head.hash, ts, round_no, model_digest,
                          len(ref)) + ref
    # Hash the fixed prefix once; each nonce costs one copy of that midstate
    # and one update with its 8 bytes.  The difficulty test is
    # _meets_difficulty, inlined with its constants hoisted out of the loop.
    midstate = hashlib.sha256(prefix)
    whole, odd = divmod(difficulty, 2)
    zeros = bytes(whole)
    pack_nonce = struct.Struct("<Q").pack
    for nonce in itertools.count():
        h = midstate.copy()
        h.update(pack_nonce(nonce))
        digest = h.digest()
        if digest.startswith(zeros) and (not odd or digest[whole] < 0x10):
            return Block(head.index + 1, head.hash, ts, round_no, model_digest,
                         model_ref, nonce, digest)


def validate_chain(chain: Chain) -> int | None:
    """Recompute every hash and link; None when intact, else first bad index."""
    genesis = make_genesis()
    if not chain.blocks or chain.blocks[0] != genesis:
        return 0
    for i in range(1, len(chain.blocks)):
        if _block_error(chain.blocks[i], chain.blocks[i - 1], chain.difficulty):
            return i
    return None


def _block_error(block: Block, prev: Block, difficulty: int) -> str | None:
    if block.index != prev.index + 1:
        return f"index {block.index} after {prev.index}"
    if block.prev_hash != prev.hash:
        return "broken link"
    if block.compute_hash() != block.hash:
        return "stored hash does not match header"
    if not _meets_difficulty(block.hash, difficulty):
        return "difficulty not met"
    return None


def verify_global(model_bytes: bytes, chain: Chain, round_no: int) -> bool:
    """True iff the model bytes hash to the digest committed for the round."""
    block = chain.block_for_round(round_no)
    return hashlib.sha256(model_bytes).digest() == block.model_digest


# ---------------------------------------------------------------------------
# Persistence: length-framed canonical blocks, plus a JSON-lines dump.
# ---------------------------------------------------------------------------

# The magic ends in the format version.  The difficulty byte follows at
# offset 5, then the block count and one length-framed block per count.
_FILE_MAGIC = b"FCHN\x02"
_FILE_HEADER = struct.Struct("<5sBI")


def save_chain(chain: Chain, path: str) -> None:
    with open(path, "wb") as fh:
        fh.write(_FILE_HEADER.pack(_FILE_MAGIC, chain.difficulty, len(chain.blocks)))
        for b in chain.blocks:
            body = b.header_bytes() + b.hash
            fh.write(struct.pack("<I", len(body)))
            fh.write(body)


def load_chain(path: str) -> Chain:
    """Read a chain file; a truncated or malformed one raises ValueError.

    The header's block count makes a file cut at a frame boundary, or one
    with bytes after its last block, fail too.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] == _FILE_MAGIC[:4] and raw[4:5] not in (b"", _FILE_MAGIC[4:]):
        raise ValueError(f"unsupported chain format version {raw[4]}")
    if raw[:5] != _FILE_MAGIC:
        raise ValueError("not a chain file")
    if len(raw) < _FILE_HEADER.size:
        raise ValueError("truncated file header")
    _, difficulty, count = _FILE_HEADER.unpack_from(raw)
    pos = _FILE_HEADER.size
    blocks = []
    while pos < len(raw):
        if len(blocks) == count:
            raise ValueError(f"bytes after the last of {count} blocks")
        if pos + 4 > len(raw):
            raise ValueError("truncated block length")
        (length,) = struct.unpack_from("<I", raw, pos)
        pos += 4
        body = raw[pos : pos + length]
        if len(body) != length:
            raise ValueError("truncated block frame")
        pos += length
        blocks.append(_block_from_body(body))
    if not blocks:
        raise ValueError("empty chain file")
    if len(blocks) != count:
        raise ValueError(f"file holds {len(blocks)} of its {count} blocks")
    return Chain(difficulty=difficulty, blocks=blocks)


def _block_from_body(body: bytes) -> Block:
    if len(body) < _HEADER.size:
        raise ValueError("block body shorter than its header")
    index, prev_hash, ts, round_no, digest, ref_len = _HEADER.unpack_from(body, 0)
    pos = _HEADER.size + ref_len
    if len(body) != pos + 8 + 32:
        raise ValueError("malformed block body")
    try:
        ref = body[_HEADER.size : pos].decode()
    except UnicodeDecodeError as exc:
        raise ValueError(f"model reference is not UTF-8: {exc.reason}") from None
    (nonce,) = struct.unpack_from("<Q", body, pos)
    return Block(index, prev_hash, ts, round_no, digest, ref, nonce, body[pos + 8 :])


def dump_jsonl(chain: Chain) -> str:
    return "\n".join(json.dumps(b.to_dict(), sort_keys=True) for b in chain.blocks)
