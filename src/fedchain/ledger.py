"""Private proof-of-work chain holding global-model digests.

Blocks carry a round number, the SHA-256 digest of the committed global
model and a content reference to the model bytes stored beside the chain.
A block is valid when its header hash has the required number of leading
zero hex digits and links to its predecessor.  Commit decisions come from
a strict-majority vote over the digests the nodes computed independently;
ties or splits abort the round.

Timestamps are logical (round counter plus sequence) so chains are
byte-reproducible across runs.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import struct
from dataclasses import dataclass
from collections import Counter

GENESIS_PREV = bytes(32)
GENESIS_REF = "genesis"


class DuplicateVoteError(ValueError):
    """A node cast two votes in one round."""


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
            struct.pack("<Q32sQQ32sH", self.index, self.prev_hash, self.timestamp_ms,
                        self.round, self.model_digest, len(ref))
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
    prefix = struct.pack("<Q32sQQ32sH", head.index + 1, head.hash, ts, round_no,
                         model_digest, len(ref)) + ref
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


@dataclass(frozen=True)
class NodeVote:
    node_id: int
    round: int
    model_digest: bytes


def consensus_commit(votes: list[NodeVote], n_nodes: int) -> bytes | None:
    """Digest held by a strict majority of the nodes, or None to abort."""
    if len(votes) != n_nodes:
        raise ValueError(f"need votes from all {n_nodes} nodes, got {len(votes)}")
    seen = set()
    rounds = {v.round for v in votes}
    if len(rounds) != 1:
        raise ValueError("votes span multiple rounds")
    for v in votes:
        if v.node_id in seen:
            raise DuplicateVoteError(f"node {v.node_id} voted twice")
        seen.add(v.node_id)
    tally = Counter(v.model_digest for v in votes)
    digest, count = tally.most_common(1)[0]
    return digest if count > n_nodes // 2 else None


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

_FILE_MAGIC = b"FCHN\x01"


def save_chain(chain: Chain, path: str) -> None:
    with open(path, "wb") as fh:
        fh.write(_FILE_MAGIC)
        fh.write(struct.pack("<B", chain.difficulty))
        for b in chain.blocks:
            body = b.header_bytes() + b.hash
            fh.write(struct.pack("<I", len(body)))
            fh.write(body)


def load_chain(path: str) -> Chain:
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:5] != _FILE_MAGIC:
        raise ValueError("not a chain file")
    (difficulty,) = struct.unpack_from("<B", raw, 5)
    pos = 6
    blocks = []
    while pos < len(raw):
        (length,) = struct.unpack_from("<I", raw, pos)
        pos += 4
        body = raw[pos : pos + length]
        if len(body) != length:
            raise ValueError("truncated block frame")
        pos += length
        blocks.append(_block_from_body(body))
    if not blocks:
        raise ValueError("empty chain file")
    return Chain(difficulty=difficulty, blocks=blocks)


def _block_from_body(body: bytes) -> Block:
    index, prev_hash, ts, round_no, digest, ref_len = struct.unpack_from("<Q32sQQ32sH", body, 0)
    pos = struct.calcsize("<Q32sQQ32sH")
    ref = body[pos : pos + ref_len].decode()
    pos += ref_len
    (nonce,) = struct.unpack_from("<Q", body, pos)
    pos += 8
    stored_hash = body[pos : pos + 32]
    if len(stored_hash) != 32 or pos + 32 != len(body):
        raise ValueError("malformed block body")
    return Block(index, prev_hash, ts, round_no, digest, ref, nonce, stored_hash)


def dump_jsonl(chain: Chain) -> str:
    return "\n".join(json.dumps(b.to_dict(), sort_keys=True) for b in chain.blocks)
