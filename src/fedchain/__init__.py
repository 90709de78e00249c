"""Federated learning with encrypted model verification and a blockchain-backed
aggregation layer, at desk scale.

Clients train local models; a verifier scores each candidate by running
trusted test data through the secret-shared model (nothing about the
parameters leaks to the verifier); accepted models are averaged under
additive secret sharing across blockchain nodes; and the digest of the
averaged model is committed to a proof-of-work chain.

The package exports no names of its own: import the module that holds what
you need, as in ``from fedchain.simulation import run_experiment``.
"""

__version__ = "0.1.0"
