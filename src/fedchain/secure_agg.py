"""Per-parameter additive-share aggregation of verified models across nodes.

Every verified client shares its fixed-point-encoded parameter vector x of
P values across the n blockchain nodes over Z_2^63, the one ring of
:mod:`fedchain.ring`.  Adding shares needs no correlated randomness, so the
client masks x itself, with PRG-expanded masks as in Bonawitz et al.,
*Practical Secure Aggregation* (CCS 2017).  From its round seed it derives
one 16-byte AES-128 key per node j < n-1 (:func:`node_key`); node j's share
is the raw AES-128-CTR keystream under that key, P little-endian 64-bit
words, and the last node's share is the closing share x minus the sum of
those rows.  A client could therefore hand node j its key in place of the
row, and the node expand the row itself.  Here each row is expanded once,
folded into its node's running sum and subtracted from the closing share.
A round therefore holds the nodes x params sums, the row being expanded and
the closing share being built, however many clients and nodes take part;
no client's bundle of n shares is ever held.

The folds and the subtractions wrap mod 2^64; the closing share is reduced
mod 2^63 once it is built, and the sums once, when they are read.  That is
exact because 2^63 divides 2^64, and it makes a raw keystream word, read
mod 2^63, a uniform share.  Once every expected client has been folded in
the nodes broadcast their sums, and every node reconstructs the parameter
total and divides by the number of contributing clients in the clear.  No
node ever sees an individual client's parameters: its view is one row
under a key only it and the client hold, or one closing share masked by
rows it never sees, plus the sums.  Only all n nodes together rebuild a
client's x.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .nn import Model
from .prg import AesCtr
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
    """Share one client's parameters, in canonical order, into the node sums.

    ``seed`` is the client's round seed, from which its mask rows are
    expanded.  Returns the closing share, the last node's share.  Raises
    :class:`ParamMagnitudeError`, or whatever :meth:`AggregationState.add`
    refuses the client with, before any mask row is expanded, so a refused
    client leaves the sums where they were.
    """
    flat = model.flat_params()
    if flat.size and np.max(np.abs(flat)) > MAX_PARAM_MAGNITUDE:
        raise ParamMagnitudeError(
            f"client {client_id}: parameter magnitude exceeds {MAX_PARAM_MAGNITUDE}; "
            "sum headroom for the client population is not guaranteed"
        )
    return agg.add(client_id, round_no, encode_fixed_array(flat), seed)


def finalize_global(partials: np.ndarray, client_count: int, template: Model) -> Model:
    """Sum the nodes' partial sums and average them into a fresh global model.

    ``partials`` holds one reduced partial sum per node, one row each.  Their
    sum wraps mod 2^64 and is reduced once.  Division by the
    contributing-client count happens after reconstruction, in the clear,
    truncating toward zero; the result is re-encoded into the template's
    layer structure.
    """
    if client_count < 1:
        raise ValueError("need at least one contributing client")
    total = partials.sum(axis=0, dtype=np.uint64)
    signed = signed_i64_array(np.bitwise_and(total, MASK, out=total))
    # |signed| <= 2^62, so the negation cannot overflow int64.
    quot = np.where(signed < 0, -(-signed // client_count), signed // client_count)
    return template.with_flat_params(quot.astype(np.float64) / SCALE)


@dataclass
class AggregationState:
    """Barrier folding each client's shares into per-node running sums."""

    round: int
    expected_clients: tuple[int, ...]
    node_count: int
    param_count: int
    received: set[int] = field(default_factory=set)
    sums: np.ndarray = field(init=False, repr=False)  # wrapped mod 2^64

    def __post_init__(self) -> None:
        if self.node_count < 2:
            raise ValueError("need at least 2 nodes")
        self.sums = np.zeros((self.node_count, self.param_count), dtype=np.uint64)

    def add(self, client_id: int, round_no: int, secret: np.ndarray, seed: int) -> np.ndarray:
        """Fold a client's mask rows and its closing share into the node sums.

        ``secret`` is the client's encoded parameter vector and ``seed`` its
        round seed.  Every check runs before a row is expanded.  Row j, the
        keystream under ``node_key(seed, j)``, goes to node j for each of
        the first n-1 nodes; the closing share, secret minus the rows, goes
        to the last node and is returned.
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
        closing = np.array(secret, dtype=np.uint64)
        for node in range(self.node_count - 1):
            row = AesCtr(node_key(seed, node)).words(self.param_count)
            np.add(self.sums[node], row, out=self.sums[node])
            np.subtract(closing, row, out=closing)
        np.bitwise_and(closing, MASK, out=closing)
        np.add(self.sums[-1], closing, out=self.sums[-1])
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

    def node_partial_sums(self) -> np.ndarray:
        """The (nodes, params) sums, reduced in place; row j is node j's partial sum.

        Stalls if any expected client is missing.
        """
        if not self.ready:
            missing = sorted(set(self.expected_clients) - self.received)
            raise MissingClientShareError(f"round {self.round} missing clients {missing}")
        return np.bitwise_and(self.sums, MASK, out=self.sums)
