"""Private proof-of-work chain holding global-model digests.

Blocks carry a round number, the SHA-256 digest of the committed global
model and a content reference to the model bytes stored beside the chain.
A block is valid when its header hash has the required number of leading
zero hex digits and links to its predecessor.  The round commits the
digest of the global model it aggregated; there is no vote, because every
node here would reconstruct the same model and compute the same digest.

Timestamps are logical (round counter plus sequence) so chains are
byte-reproducible across runs.

``mine_block`` is the one nonce search: the smallest nonce from zero.  A
``Miner`` runs it in a forked process, one block at a time, so the caller
can go on working while a block is mined.  The miner needs ``os.fork``, as
on Linux.  Its process (a ``forked.Child``) only unpickles jobs, hashes
with the ``hashlib`` and libcrypto (loaded by soname) that the parent had
already loaded, sends each nonce back through a pipe, and leaves through
``os._exit``.  It takes no lock that another parent thread, such as a BLAS
worker, could hold at the fork, so it cannot deadlock on one.  The parent
rebuilds each block from its nonce, and ``Chain.append`` checks its link,
hash and difficulty as for any block.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import struct
from dataclasses import dataclass

from . import forked

GENESIS_PREV = bytes(32)
GENESIS_REF = "genesis"

# index, prev_hash, timestamp_ms, round, model_digest, len(model_ref); the
# reference bytes and the 8-byte nonce follow.
_HEADER = struct.Struct("<Q32sQQ32sH")
_NONCE = struct.Struct("<Q")


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
            + _NONCE.pack(self.nonce)
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


def _difficulty_bound(difficulty: int) -> bytes:
    """Bytes that a 32-byte hash sorts below iff it starts with
    ``difficulty`` zero hex digits.

    Equal-length bytes compare as big-endian integers.  The bound is the
    largest such hash, 16^(64 - difficulty) - 1, plus one byte, so that hash
    sorts below it as a prefix and every larger hash sorts above it.
    """
    return (16 ** (64 - difficulty) - 1).to_bytes(32, "big") + b"\x00"


def _meets_difficulty(h: bytes, difficulty: int) -> bool:
    """True iff the hash starts with ``difficulty`` zero hex digits."""
    return h < _difficulty_bound(difficulty)


def _sealed(stub: Block) -> Block:
    """The block with its hash computed from its header."""
    return dataclasses.replace(stub, hash=stub.compute_hash())


def make_genesis() -> Block:
    return _sealed(Block(0, GENESIS_PREV, 0, 0, bytes(32), GENESIS_REF, 0, bytes(32)))


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
    # Hash the fixed prefix once; each nonce costs one copy of that midstate,
    # one update with its 8 bytes and the comparison of _meets_difficulty.
    midstate = hashlib.sha256(prefix)
    bound = _difficulty_bound(difficulty)
    pack_nonce = _NONCE.pack
    for nonce in itertools.count():
        h = midstate.copy()
        h.update(pack_nonce(nonce))
        digest = h.digest()
        if digest < bound:
            return Block(head.index + 1, head.hash, ts, round_no, model_digest,
                         model_ref, nonce, digest)


class Miner:
    """A forked process that runs ``mine_block`` for one block at a time.

    ``start`` hands it the fields of the block that follows the chain's
    head and returns at once; ``result`` waits for the nonce and rebuilds
    that block.  The chain must not grow in between.

    The process is forked at the first ``start``, when the caller's heap
    has reached its working size, and serves every later block.  A fork
    write-protects every page of the parent, so each page the parent writes
    afterwards faults once and is copied while the miner lives: a fork per
    block paid that for the whole heap every block, and a fork before the
    first round made a one-round run pay it for all of its work.  Use the
    miner as a context manager: leaving the block reaps the process, and
    kills it first when an exception is leaving.
    """

    def __init__(self) -> None:
        self._child: forked.Child | None = None
        self._stub: Block | None = None

    @property
    def busy(self) -> bool:
        """True from ``start`` until ``result`` is called."""
        return self._stub is not None

    def start(self, round_no: int, model_digest: bytes, model_ref: str, chain: Chain,
              seq: int = 0) -> None:
        """Start the search ``mine_block`` would make with these arguments."""
        if self.busy:
            raise RuntimeError("the miner is still searching for the last block")
        if self._child is None or self._child.pid is None:
            self._child = forked.Child(_serve, "mining process")
        head = chain.head
        self._stub = Block(head.index + 1, head.hash, round_no * 1000 + seq, round_no,
                           model_digest, model_ref, 0, b"")
        self._child.send((round_no, model_digest, model_ref, head, chain.difficulty, seq))

    def result(self) -> Block:
        """Wait for the started block's nonce and rebuild the block.

        The block is not checked here; ``Chain.append`` checks it.  When the
        process dies without sending the nonce, it is reaped and
        RuntimeError is raised.
        """
        stub, self._stub = self._stub, None
        if stub is None:
            raise RuntimeError("no block is being mined")
        nonce = self._child.receive(f"the nonce for round {stub.round}")
        return _sealed(dataclasses.replace(stub, nonce=nonce))

    def __enter__(self) -> Miner:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # An idle miner exits as its job stream ends.
        if self._child is not None:
            self._child.reap(kill=exc_type is not None)


def _serve(jobs, nonces) -> None:
    """The miner process: one nonce per job until the job stream ends."""
    while True:
        try:
            round_no, digest, ref, head, difficulty, seq = forked.read_frame(jobs)
        except EOFError:
            return
        block = mine_block(round_no, digest, ref, Chain(difficulty, [head]), seq=seq)
        forked.write_frame(nonces, block.nonce)


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
    if difficulty > 64:
        raise ValueError(f"difficulty {difficulty} exceeds the 64 hex digits of a SHA-256 hash")
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
    (nonce,) = _NONCE.unpack_from(body, pos)
    return Block(index, prev_hash, ts, round_no, digest, ref, nonce, body[pos + 8 :])


def dump_jsonl(chain: Chain) -> str:
    return "\n".join(json.dumps(b.to_dict(), sort_keys=True) for b in chain.blocks)
