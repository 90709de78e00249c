"""Per-parameter additive-share aggregation of verified models across nodes.

Each client shares its fixed-point-encoded parameter vector x of P values
once, over Z_2^63, the one ring of :mod:`fedchain.ring`; that one sharing
is what the verifier scores and what the n blockchain nodes sum.  Adding
shares needs no correlated randomness, so the client masks x itself, with
PRG-expanded masks as in Bonawitz et al., *Practical Secure Aggregation*
(CCS 2017).  From its round seed it derives one 16-byte AES-128 key per node
j < n-1 (:func:`node_key`); node j's share is the raw AES-128-CTR keystream
under that key, P little-endian 64-bit words, and the last node's share is
the closing share x minus the sum of those rows.

The verifier's party 0 holds the n-1 keys and expands x0, the sum of their
rows; its party 1 holds the closing share x1.  Either party alone sees only
a uniform mask; the two together rebuild x.  A node gets nothing until the
model is accepted: only then are node j's key and the closing share
delivered (:meth:`AggregationState.add`).  The last node folds closing
shares into one running sum, so a round holds P words and 16 bytes per
client and node; no (nodes x params) array is ever built.

Every sum of rows, the client's, the verifier's x0 and each node's partial
sum, is :func:`sum_rows`: per row one re-key of a shared AES context and one
AES-128-CTR pass over P words straight into its destination
(:func:`fedchain.prg.keystream_into`), then one add pass.  The folds and
the subtractions wrap mod 2^64, and each sum of rows and each closing share
is reduced mod 2^63 once it is built.  That is exact because 2^63 divides
2^64, and it makes a raw keystream word, read mod 2^63, a uniform share.
Once every expected client has been added the nodes broadcast their
partial sums, and every node reconstructs the parameter total and divides
by the number of contributing clients in the clear.  No node ever sees an
individual client's parameters: its view is one key per client that only it
and the client hold, or one closing share masked by rows it never sees,
plus the partial sums.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

import numpy as np

from .nn import Model
from .prg import keystream_into
from .ring import MASK, MAX_PARAM_MAGNITUDE, SCALE, encode_fixed_array, signed_i64_array

# A client's sharing: the n-1 node keys, then the closing share of P words.
ModelShares = tuple[list[bytes], np.ndarray]


class MissingClientShareError(ValueError):
    """A round cannot aggregate because a client share never arrived."""


def params_in_range(flat: np.ndarray) -> bool:
    """Whether no |parameter| exceeds MAX_PARAM_MAGNITUDE, the sum's headroom."""
    return not flat.size or np.max(np.abs(flat)) <= MAX_PARAM_MAGNITUDE


def node_key(seed: int, node: int) -> bytes:
    """The AES-128 key of node ``node``'s mask row, from the client's round seed."""
    return hashlib.sha256(b"fedchain agg mask" + seed.to_bytes(8, "little")
                          + node.to_bytes(4, "little")).digest()[:16]


def sum_rows(keys: list[bytes], out: np.ndarray, row: np.ndarray) -> np.ndarray:
    """Sum the keystream rows under ``keys`` into ``out``, mod 2^63; return it.

    The first row is expanded into ``out``, every later one into ``row``, a
    buffer the caller may reuse across calls.
    """
    if not keys:
        out.fill(0)
        return out
    keystream_into(keys[0], out)
    for key in keys[1:]:
        np.add(out, keystream_into(key, row), out=out)
    return np.bitwise_and(out, MASK, out=out)


def share_secret(secret: np.ndarray, seed: int, nodes: int) -> ModelShares:
    """The n-1 node keys from the client's round ``seed``, and the closing
    share: ``secret`` minus the sum of their rows, reduced mod 2^63."""
    secret = np.asarray(secret, dtype=np.uint64)
    keys = [node_key(seed, node) for node in range(nodes - 1)]
    closing = sum_rows(keys, np.empty_like(secret), np.empty_like(secret))
    np.subtract(secret, closing, out=closing)
    return keys, np.bitwise_and(closing, MASK, out=closing)


def share_model_params(model: Model, seed: int, nodes: int) -> ModelShares:
    """The one sharing of a client's encoded parameters, in canonical order.

    Raises :class:`fedchain.ring.HeadroomError`, before any row is expanded,
    when the parameters do not fit the ring.
    """
    return share_secret(encode_fixed_array(model.flat_params()), seed, nodes)


def finalize_global(partials: Iterable[np.ndarray], client_count: int,
                    template: Model) -> Model:
    """Sum the nodes' partial sums and average them into a fresh global model.

    ``partials`` yields one reduced partial sum per node, a row of P words
    each, and is read once; the rows are folded into one total as they come,
    so no (nodes x params) array is built.  The total wraps mod 2^64 and is
    reduced once.  Division by the contributing-client count happens after
    reconstruction, in the clear, truncating toward zero; the result is
    re-encoded into the template's layer structure.
    """
    if client_count < 1:
        raise ValueError("need at least one contributing client")
    total = np.zeros(template.param_count, dtype=np.uint64)
    for row in partials:
        np.add(total, row, out=total)
    signed = signed_i64_array(np.bitwise_and(total, MASK, out=total))
    # |signed| <= 2^62, so the negation cannot overflow int64.
    quot = np.where(signed < 0, -(-signed // client_count), signed // client_count)
    return template.with_flat_params(quot.astype(np.float64) / SCALE)


@dataclass
class AggregationState:
    """Barrier holding what each node receives from the clients of one round.

    ``node_keys[j]`` lists, in arrival order, the 16-byte key each added
    client sent node j < n-1; ``closing_sum`` is the last node's running sum
    of closing shares, wrapped mod 2^64.  Adding a client expands nothing;
    the nodes expand their keys' rows at the barrier.
    """

    round: int
    expected_clients: tuple[int, ...]
    node_count: int
    param_count: int
    received: set[int] = field(default_factory=set)
    node_keys: list[list[bytes]] = field(init=False, repr=False)
    closing_sum: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.node_count < 2:
            raise ValueError("need at least 2 nodes")
        self.node_keys = [[] for _ in range(self.node_count - 1)]
        self.closing_sum = np.zeros(self.param_count, dtype=np.uint64)

    def add(self, client_id: int, round_no: int, shares: ModelShares) -> None:
        """Deliver a client's sharing: node j < n-1 records key j, and the
        last node folds in the closing share.  A refused delivery records
        nothing."""
        keys, closing = shares
        if round_no != self.round:
            raise ValueError(f"share for round {round_no} in round-{self.round} state")
        if client_id not in self.expected_clients:
            raise ValueError(f"client {client_id} not expected this round")
        if client_id in self.received:
            raise ValueError(f"duplicate share from client {client_id}")
        if closing.shape != (self.param_count,):
            raise ValueError(f"parameter length mismatch: {closing.shape}, "
                             f"expected ({self.param_count},)")
        if len(keys) != self.node_count - 1:
            raise ValueError(f"{len(keys)} node keys, expected {self.node_count - 1}")
        np.add(self.closing_sum, closing, out=self.closing_sum)
        for record, key in zip(self.node_keys, keys):
            record.append(key)
        self.received.add(client_id)

    def withdraw(self, client_id: int) -> None:
        """Take a client that will send no share out of the barrier."""
        if client_id in self.received:
            raise ValueError(f"client {client_id} already contributed")
        self.expected_clients = tuple(c for c in self.expected_clients if c != client_id)

    @property
    def ready(self) -> bool:
        return self.received == set(self.expected_clients)

    def node_partial_sums(self) -> Iterator[np.ndarray]:
        """Each node's reduced partial sum, node 0 first, one node at a time.

        Node j < n-1 sums its keys' rows into a fresh row, with one row
        buffer for all nodes; the last node's row is its running sum,
        reduced in place.  Read the yielded rows once, in order: the
        next is built only when it is asked for.  Stalls, before anything is
        expanded, if any expected client is missing.
        """
        if not self.ready:
            missing = sorted(set(self.expected_clients) - self.received)
            raise MissingClientShareError(f"round {self.round} missing clients {missing}")
        return self._partial_sums()

    def _partial_sums(self) -> Iterator[np.ndarray]:
        row = np.empty(self.param_count, dtype=np.uint64)
        for keys in self.node_keys:
            yield sum_rows(keys, np.empty(self.param_count, dtype=np.uint64), row)
        yield np.bitwise_and(self.closing_sum, MASK, out=self.closing_sum)
