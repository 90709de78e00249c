"""Per-parameter additive-share aggregation of verified models across nodes.

Every verified client shares its fixed-point-encoded parameter vector x of
P values across the n blockchain nodes over Z_2^63, the ring encrypted
inference uses too.  The dealer deals the client's masks the way SPDZ deals
input masks (Damgard et al., CRYPTO 2012): for each of nodes 0..n-2 it
draws one row of P uniform words from its AES-128-CTR stream and hands it
to that node, which folds it into its running sum.  The client's only
message is its closing share x minus the sum of its masks, for the last
node.  The closing share starts as a copy of x, and each row is subtracted
from it as the row goes to its node.  A round therefore holds the
nodes x params sums, the row being dealt and the closing share being built,
however many clients and nodes take part; no client's bundle of n shares is
ever held.

The folds and the subtractions wrap mod 2^64; the closing share is reduced
mod 2^63 once it is built, and the sums once, when they are read.  That is
exact because 2^63 divides 2^64.  Once every expected client has been
folded in the nodes broadcast their sums, and every node reconstructs the
parameter total and divides by the number of contributing clients in the
clear.  No node ever sees an individual client's parameters: its view is
one uniform row or closing share per client plus the sums.  That holds only
while the round's dealer (``derive_seed(master, "agg", round)``) is trusted
and does not collude with the last node: the dealer knows every mask row, so
together with a client's closing share it rebuilds that client's parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .nn import Model
from .ring import (
    MAX_PARAM_MAGNITUDE,
    FixedPointConfig,
    HeadroomError,
    Modulus,
    ModulusMismatchError,
    encode_fixed_array,
    signed_i64_array,
)
from .sharing import Dealer

# Headroom: MAX_PARAM_MAGNITUDE * scale per parameter is 1e10, so a sum over
# up to 4.6e8 clients stays inside the signed range +-2^62.
AGG_FIXED = FixedPointConfig(10**4, Modulus.power_of_two(63))


class MissingClientShareError(ValueError):
    """A round cannot aggregate because a client share never arrived."""


class ParamMagnitudeError(HeadroomError):
    """A client's parameters exceed MAX_PARAM_MAGNITUDE."""


def share_model_params(model: Model, agg: AggregationState, dealer: Dealer,
                       client_id: int = 0, round_no: int = 0) -> np.ndarray:
    """Share one client's parameters, in canonical order, into the node sums.

    Returns the closing share, the client's only message.  Raises
    :class:`ParamMagnitudeError`, or whatever :meth:`AggregationState.add`
    refuses the client with, before the dealer draws a word, so a refused
    client leaves the sums and the dealer stream where they were.
    """
    flat = model.flat_params()
    if flat.size and np.max(np.abs(flat)) > MAX_PARAM_MAGNITUDE:
        raise ParamMagnitudeError(
            f"client {client_id}: parameter magnitude exceeds {MAX_PARAM_MAGNITUDE}; "
            "sum headroom for the client population is not guaranteed"
        )
    return agg.add(client_id, round_no, encode_fixed_array(flat, AGG_FIXED), dealer)


def finalize_global(partials: np.ndarray, client_count: int, template: Model,
                    cfg: FixedPointConfig = AGG_FIXED) -> Model:
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
    signed = signed_i64_array(np.bitwise_and(total, cfg.modulus.mask, out=total), cfg.modulus)
    # |signed| <= 2^62, so the negation cannot overflow int64.
    quot = np.where(signed < 0, -(-signed // client_count), signed // client_count)
    return template.with_flat_params(quot.astype(np.float64) / cfg.scale)


@dataclass
class AggregationState:
    """Barrier folding each client's dealt shares into per-node running sums."""

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

    def add(self, client_id: int, round_no: int, secret: np.ndarray, dealer: Dealer) -> np.ndarray:
        """Deal a client's mask rows into the node sums and fold in its closing share.

        ``secret`` is the client's encoded parameter vector.  Every check
        runs before the dealer draws a word.  Row j of the n-1 masks goes
        to node j as it is drawn; the closing share, secret minus the
        masks, goes to the last node and is returned.
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
        if dealer.modulus != AGG_FIXED.modulus:
            raise ModulusMismatchError(f"dealer is mod {dealer.modulus}, "
                                       f"expected {AGG_FIXED.modulus}")
        closing = np.array(secret, dtype=np.uint64)
        for node in range(self.node_count - 1):
            row = dealer.uniform(self.param_count)
            np.add(self.sums[node], row, out=self.sums[node])
            np.subtract(closing, row, out=closing)
        np.bitwise_and(closing, AGG_FIXED.modulus.mask, out=closing)
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
        return np.bitwise_and(self.sums, AGG_FIXED.modulus.mask, out=self.sums)
