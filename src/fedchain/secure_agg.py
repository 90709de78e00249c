"""Per-parameter additive-share aggregation of verified models across nodes.

Every verified client splits its fixed-point-encoded parameter vector into
one share per blockchain node over Z_2^63, the ring encrypted inference
uses too.  Each node's inbox holds one running sum: a client's share is
folded in as it arrives and then dropped, so a round holds nodes x params
values however many clients take part.  The folds wrap mod 2^64 and the
sums are reduced mod 2^63 once, when they are read; that is exact because
2^63 divides 2^64.  Once every expected client has arrived the nodes
broadcast their sums, and every node reconstructs the parameter total and
divides by the number of contributing clients in the clear.  No node ever
sees an individual client's parameters: its view is a single uniform share
per client plus the sums.
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
from .sharing import Dealer, MissingShareError, ShareVector, reconstruct, split

# Headroom: MAX_PARAM_MAGNITUDE * scale per parameter is 1e10, so a sum over
# up to 4.6e8 clients stays inside the signed range +-2^62.
AGG_FIXED = FixedPointConfig(10**4, Modulus.power_of_two(63))


class MissingClientShareError(MissingShareError):
    """A round cannot aggregate because a client share never arrived."""


class ParamMagnitudeError(HeadroomError):
    """A client's parameters exceed MAX_PARAM_MAGNITUDE."""


@dataclass
class VerifiedShare:
    """One client's share bundle: one mod-2^63 ShareVector per blockchain node."""

    client_id: int
    round: int
    node_shares: list[ShareVector]

    def __post_init__(self) -> None:
        if len(self.node_shares) < 2:
            raise ValueError("need shares for at least 2 nodes")


def share_model_params(model: Model, node_count: int, dealer: Dealer,
                       cfg: FixedPointConfig = AGG_FIXED, client_id: int = 0,
                       round_no: int = 0) -> VerifiedShare:
    """Encode all parameters in canonical order and split across the nodes.

    Raises :class:`ParamMagnitudeError` before drawing any mask, so a
    rejected client leaves the dealer stream where it was.
    """
    if node_count < 2:
        raise ValueError("need at least 2 nodes")
    flat = model.flat_params()
    if flat.size and np.max(np.abs(flat)) > MAX_PARAM_MAGNITUDE:
        raise ParamMagnitudeError(
            f"client {client_id}: parameter magnitude exceeds {MAX_PARAM_MAGNITUDE}; "
            "sum headroom for the client population is not guaranteed"
        )
    encoded = encode_fixed_array(flat, cfg)
    return VerifiedShare(client_id, round_no, split(encoded, node_count, dealer))


def finalize_global(partials: list[ShareVector], client_count: int, template: Model,
                    cfg: FixedPointConfig = AGG_FIXED) -> Model:
    """Reconstruct parameter sums and average them into a fresh global model.

    Division by the contributing-client count happens after reconstruction,
    in the clear, truncating toward zero; the result is re-encoded into the
    template's layer structure.
    """
    if client_count < 1:
        raise ValueError("need at least one contributing client")
    if not partials:
        raise MissingShareError("no node partial sums")
    n = partials[0].n_parties
    if len(partials) != n:
        raise MissingShareError(f"have {len(partials)} partial sums, expected {n}")
    signed = signed_i64_array(reconstruct(partials), cfg.modulus)
    # |signed| <= 2^62, so the negation cannot overflow int64.
    quot = np.where(signed < 0, -(-signed // client_count), signed // client_count)
    return template.with_flat_params(quot.astype(np.float64) / cfg.scale)


@dataclass
class AggregationState:
    """Barrier folding client share bundles into per-node running sums."""

    round: int
    expected_clients: tuple[int, ...]
    node_count: int
    param_count: int
    received: set[int] = field(default_factory=set)
    sums: np.ndarray = field(init=False, repr=False)  # wrapped mod 2^64

    def __post_init__(self) -> None:
        self.sums = np.zeros((self.node_count, self.param_count), dtype=np.uint64)

    def add(self, vs: VerifiedShare) -> None:
        """Check a bundle against the barrier, then fold it into the sums."""
        if vs.round != self.round:
            raise ValueError(f"share for round {vs.round} in round-{self.round} state")
        if vs.client_id not in self.expected_clients:
            raise ValueError(f"client {vs.client_id} not expected this round")
        if vs.client_id in self.received:
            raise ValueError(f"duplicate share bundle from client {vs.client_id}")
        if len(vs.node_shares) != self.node_count:
            raise ValueError("bundle sized for a different node count")
        if any(len(s) != self.param_count for s in vs.node_shares):
            raise ValueError("bundle parameter length mismatch")
        for node, s in enumerate(vs.node_shares):
            if s.party_id != node or s.n_parties != self.node_count:
                raise ValueError(f"share {node} is addressed to party {s.party_id} "
                                 f"of {s.n_parties}")
            if s.modulus != AGG_FIXED.modulus:
                raise ModulusMismatchError(f"share {node} is mod {s.modulus}, "
                                           f"expected {AGG_FIXED.modulus}")
        for node, s in enumerate(vs.node_shares):
            np.add(self.sums[node], s.values, out=self.sums[node])
        self.received.add(vs.client_id)

    def withdraw(self, client_id: int) -> None:
        """Take a client that will send no bundle out of the barrier."""
        if client_id in self.received:
            raise ValueError(f"client {client_id} already contributed")
        self.expected_clients = tuple(c for c in self.expected_clients if c != client_id)

    @property
    def ready(self) -> bool:
        return self.received == set(self.expected_clients)

    def node_partial_sums(self) -> list[ShareVector]:
        """Partial sums for every node; stalls if any client is missing."""
        if not self.ready:
            missing = sorted(set(self.expected_clients) - self.received)
            raise MissingClientShareError(f"round {self.round} missing clients {missing}")
        np.bitwise_and(self.sums, AGG_FIXED.modulus.mask, out=self.sums)
        return [ShareVector(node, self.node_count, AGG_FIXED.modulus, self.sums[node])
                for node in range(self.node_count)]
