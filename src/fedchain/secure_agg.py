"""Per-parameter additive-share aggregation of verified models across nodes.

Every verified client shares its fixed-point-encoded parameter vector x of
P values across the n blockchain nodes over Z_2^63, the one ring of
:mod:`fedchain.ring`.  Adding shares needs no correlated randomness, so the
client masks x itself, with PRG-expanded masks as in Bonawitz et al.,
*Practical Secure Aggregation* (CCS 2017).  From its round seed it derives
one 16-byte AES-128 key per node j < n-1 (:func:`node_key`); node j's share
is the raw AES-128-CTR keystream under that key, P little-endian 64-bit
words, and the last node's share is the closing share x minus the sum of
those rows.

What each node receives is therefore small: node j < n-1 gets the client's
16-byte key in place of its row, and the last node gets the closing share
of P words, which it folds into one running sum.  The client expands each
row once to build its closing share; at the barrier node j expands the rows
of every key it holds and folds them into its partial sum.  Each row is
expanded twice, by the client and by its node.  A round therefore holds one
running sum, one row buffer, and 16 bytes per client and node; no (nodes x
params) array is ever built, and no client's bundle of n shares is held.

A row costs one re-key of a shared AES context and one pass of AES-128-CTR
over P words, written straight into its destination
(:func:`fedchain.prg.keystream_into`), then one add or subtract pass; a
node's first row is written straight into its fresh partial sum and costs
no add.  No row allocates a cipher context or zero-fills its buffer.

The folds and the subtractions wrap mod 2^64; a closing share is reduced
mod 2^63 once it is built, and each partial sum once, when it is read.
That is exact because 2^63 divides 2^64, and it makes a raw keystream word,
read mod 2^63, a uniform share.  Once every expected client has been added
the nodes broadcast their partial sums, and every node reconstructs the
parameter total and divides by the number of contributing clients in the
clear.  No node ever sees an individual client's parameters: its view is
one key per client that only it and the client hold, or one closing share
masked by rows it never sees, plus the partial sums.  Only all n nodes
together rebuild a client's x.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

import numpy as np

from .nn import Model
from .prg import keystream_into
from .ring import (
    MASK,
    MAX_PARAM_MAGNITUDE,
    SCALE,
    HeadroomError,
    encode_fixed_array,
    signed_i64_array,
)


class MissingClientShareError(ValueError):
    """A round cannot aggregate because a client share never arrived."""


class ParamMagnitudeError(HeadroomError):
    """A client's parameters exceed MAX_PARAM_MAGNITUDE."""


def node_key(seed: int, node: int) -> bytes:
    """The AES-128 key of node ``node``'s mask row, from the client's round seed."""
    return hashlib.sha256(b"fedchain agg mask" + seed.to_bytes(8, "little")
                          + node.to_bytes(4, "little")).digest()[:16]


def share_model_params(model: Model, agg: AggregationState, seed: int,
                       client_id: int = 0, round_no: int = 0) -> np.ndarray:
    """Share one client's parameters, in canonical order, across the nodes.

    ``seed`` is the client's round seed, from which its node keys derive.
    Node j < n-1 receives the 16-byte key ``node_key(seed, j)``; the last
    node receives the closing share, P words, which is returned.  Raises
    :class:`ParamMagnitudeError`, or whatever :meth:`AggregationState.add`
    refuses the client with, before any mask row is expanded, so a refused
    client leaves no key and no share with any node.
    """
    flat = model.flat_params()
    if flat.size and np.max(np.abs(flat)) > MAX_PARAM_MAGNITUDE:
        raise ParamMagnitudeError(
            f"client {client_id}: parameter magnitude exceeds {MAX_PARAM_MAGNITUDE}; "
            "sum headroom for the client population is not guaranteed"
        )
    return agg.add(client_id, round_no, encode_fixed_array(flat), seed)


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
    of closing shares, wrapped mod 2^64.  Between adds that is all a round
    holds: P words, and 16 bytes per client and node.

    Each added client's n-1 rows are expanded twice, once by :meth:`add` and
    once by :meth:`node_partial_sums`.  An expansion is one re-key and one
    AES-128-CTR pass over P words into its destination, plus one add or
    subtract pass over P words; a node's first row needs no add.
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

    def add(self, client_id: int, round_no: int, secret: np.ndarray, seed: int) -> np.ndarray:
        """Send a client's node keys and its closing share to the nodes.

        ``secret`` is the client's encoded parameter vector and ``seed`` its
        round seed.  Every check runs before a row is expanded.  Node j < n-1
        records the 16 bytes of ``node_key(seed, j)``.  The client expands
        each row once, into one row buffer reused for all n-1 rows, and
        subtracts it from the secret; the resulting closing share goes to the
        last node's running sum and is returned.  The nodes expand the rows
        again at the barrier.
        """
        if round_no != self.round:
            raise ValueError(f"share for round {round_no} in round-{self.round} state")
        if client_id not in self.expected_clients:
            raise ValueError(f"client {client_id} not expected this round")
        if client_id in self.received:
            raise ValueError(f"duplicate share from client {client_id}")
        if secret.shape != (self.param_count,):
            raise ValueError(f"parameter length mismatch: {secret.shape}, "
                             f"expected ({self.param_count},)")
        keys = [node_key(seed, node) for node in range(self.node_count - 1)]
        closing = np.array(secret, dtype=np.uint64)
        row = np.empty(self.param_count, dtype=np.uint64)
        for key in keys:
            np.subtract(closing, keystream_into(key, row), out=closing)
        np.bitwise_and(closing, MASK, out=closing)
        np.add(self.closing_sum, closing, out=self.closing_sum)
        for record, key in zip(self.node_keys, keys):
            record.append(key)
        self.received.add(client_id)
        return closing

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

        Node j < n-1 expands the row of its first key straight into a fresh
        row and every later one into one row buffer reused across the nodes,
        and folds each into the fresh row; the last node's row is its running
        sum, reduced in place.  Read the yielded rows once, in order: the
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
            partial = np.empty(self.param_count, dtype=np.uint64)
            if keys:
                keystream_into(keys[0], partial)
            else:
                partial.fill(0)
            for key in keys[1:]:
                np.add(partial, keystream_into(key, row), out=partial)
            yield np.bitwise_and(partial, MASK, out=partial)
        yield np.bitwise_and(self.closing_sum, MASK, out=self.closing_sum)
