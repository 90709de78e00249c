"""Encrypted inference over a secret-shared model, and the accept/reject verdict.

The verifier scores a candidate model by running its trusted test images
through the model while both model parameters and images stay additively
shared between the two protocol parties.  Linear layers ride on matrix
Beaver triples, ReLUs on masked-comparison sign extraction; only the final
logits are reconstructed, and the argmax is taken in the clear.  The
decision path never touches plaintext parameters.

:func:`judge` is the one verdict rule, on these opened logits or on the
plaintext logits of the verifier's plaintext mode.

There is one sharing per model, the one its client built for the nodes
(:mod:`fedchain.secure_agg`): party 0 holds the n-1 node keys and expands
x0, party 1 holds the closing share x1 (:func:`encrypt_model`).  Either
party alone sees only a uniform mask; the two together rebuild x.  A node
gets nothing until the model is accepted.

A verification has two phases.  The dealer first deals the input masks
(:func:`encrypt_batch`), then each layer's correlations (:func:`provision`).
The online phase (:func:`encrypted_infer`) runs from the shared inputs and
that dealt list, and never holds the dealer.

Every sharing is one party-major (2, ...) uint64 array in Z_2^63
(:mod:`fedchain.ring`), row p party p's share (:mod:`fedchain.sharing`),
so each layer is one step over both parties.  The ring is wide enough that
the local probabilistic truncation after every fixed-point product is
reliable, while sign extraction still runs on `COMPARE_BITS` = 32-bit
masked values via exact share-local ring reduction, with one 31-bit
comparison key per ReLU lane.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .config import VerifierConfig
from .data import Dataset
from .fss import apply_sign_correlation, gen_sign_correlation
from .nn import AvgPool, Conv2D, Dense, Flatten, Model, ReLU, _im2col, _out_shape, accuracy
from .ring import MASK, SCALE, decode_fixed_array, encode_fixed_array
from .secure_agg import ModelShares, sum_rows
from .sharing import (
    Dealer,
    beaver_matmul,
    beaver_mul,
    gen_matmul_triple,
    gen_triple,
    open_pair,
    split_pair,
    truncate_shares,
)

COMPARE_BITS = 32


@dataclass
class Verdict:
    model_id: str
    round: int
    encrypted_accuracy: float
    threshold: float
    accepted: bool
    wall_time_ms: float


def encrypt_model(model: Model, shares: ModelShares) -> list[np.ndarray]:
    """The verifier's two-party view of a client's sharing, cut into tensors.

    ``shares`` is the client's sharing of ``model``'s encoded parameters
    (:func:`fedchain.secure_agg.share_model_params`).  Party 0 expands the
    n-1 node keys into x0, the sum of their rows; party 1 holds the closing
    share x1, so x0 + x1 = x.  The (2, P) sharing is cut into one (2, ...)
    sharing per tensor in ``flat_params`` order; ``model`` supplies only the
    shapes, and no dealer is drawn.
    """
    keys, x1 = shares
    x = np.stack((sum_rows(keys, np.empty_like(x1), np.empty_like(x1)), x1))
    ends = np.cumsum([p.size for p in model.params])[:-1]
    return [s.reshape(2, *p.shape) for p, s in zip(model.params, np.split(x, ends, axis=1))]


def encrypt_batch(features: np.ndarray, dealer: Dealer) -> np.ndarray:
    return split_pair(encode_fixed_array(np.asarray(features, dtype=np.float64)), dealer)


def provision(model: Model, batch_size: int, dealer: Dealer) -> list:
    """Deal exactly the randomness the graph consumes, one entry per layer in
    layer order: a matrix triple for Dense and Conv2D, a (sign correlation,
    triple) pair for ReLU, None for the layers that need none."""
    out = []
    shape = model.input_shape
    for layer in model.layers:
        if isinstance(layer, Dense):
            out.append(gen_matmul_triple(batch_size, layer.in_dim, layer.out_dim, dealer))
        elif isinstance(layer, Conv2D):
            oh = shape[1] - layer.kernel + 1
            ow = shape[2] - layer.kernel + 1
            out.append(
                gen_matmul_triple(batch_size * oh * ow,
                                  layer.in_ch * layer.kernel * layer.kernel,
                                  layer.out_ch, dealer)
            )
        elif isinstance(layer, ReLU):
            count = batch_size * int(np.prod(shape))
            out.append((gen_sign_correlation(count, COMPARE_BITS, dealer),
                        gen_triple(count, dealer)))
        else:
            out.append(None)
        shape = _out_shape(layer, shape)
    return out


def encrypted_infer(model: Model, params: list[np.ndarray], x: np.ndarray,
                    dealt: list) -> np.ndarray:
    """Run the shared batch through the shared parameters on ``model``'s
    topology, consuming ``dealt`` layer by layer; open only the logits."""
    if x.shape[2:] != model.input_shape:
        raise ValueError(f"batch shape {x.shape[2:]}, model expects {model.input_shape}")
    params = iter(params)

    for layer, rnd in zip(model.layers, dealt, strict=True):
        if isinstance(layer, Dense):
            w, b = next(params), next(params)
            x = _bias_and_truncate(beaver_matmul(x, w, rnd), b)
        elif isinstance(layer, Conv2D):
            k, b = next(params), next(params)
            _, bsz, c, h, w = x.shape
            oh, ow = h - layer.kernel + 1, w - layer.kernel + 1
            cols = _im2col(x.reshape(2 * bsz, c, h, w), layer.kernel).reshape(2, bsz * oh * ow, -1)
            km = k.reshape(2, layer.out_ch, -1).transpose(0, 2, 1)
            z = _bias_and_truncate(beaver_matmul(cols, km, rnd), b)
            x = z.reshape(2, bsz, oh, ow, layer.out_ch).transpose(0, 1, 4, 2, 3)
        elif isinstance(layer, ReLU):
            corr, triple = rnd
            x = _on_flat(x, lambda y: beaver_mul(apply_sign_correlation(y, corr), y, triple))
        elif isinstance(layer, AvgPool):
            s = layer.size
            _, bsz, c, h, w = x.shape
            pooled = x.reshape(2, bsz, c, h // s, s, w // s, s).sum(axis=(4, 6))
            x = _on_flat((pooled * np.uint64(SCALE // (s * s))) & MASK, truncate_shares)
        elif isinstance(layer, Flatten):
            x = x.reshape(2, x.shape[1], -1)
        else:
            raise TypeError(f"layer {layer!r} not supported under encryption")

    return decode_fixed_array(open_pair(x))


def _on_flat(x: np.ndarray, step) -> np.ndarray:
    """Apply an elementwise share step to the (2, N) flat view of a sharing."""
    return step(x.reshape(2, -1)).reshape(x.shape)


def _bias_and_truncate(z: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Align the scale-1 bias to the scale^2 product, add, truncate to scale 1."""
    return _on_flat((z + b[:, np.newaxis] * np.uint64(SCALE)) & MASK, truncate_shares)


def threshold_for_round(verifier: VerifierConfig, prev_global_acc: float | None,
                        class_count: int) -> float:
    """Accept threshold: the absolute rule's value, else relative to the last
    global model's score with a chance-plus-margin floor."""
    if verifier.threshold_rule == "absolute":
        return verifier.threshold_value
    chance = 1.0 / class_count
    prev = chance if prev_global_acc is None else prev_global_acc
    return max(0.5 * prev, chance + 0.1)


def judge(logits: np.ndarray, labels: np.ndarray, tau: float, round_no: int,
          model_id: str, wall_time_ms: float) -> Verdict:
    """The verdict on a model's logits for the verified split: its score is
    their :func:`fedchain.nn.accuracy`, and it is accepted at ``tau`` or above."""
    score = accuracy(logits, labels)
    return Verdict(model_id, round_no, score, tau, score >= tau, wall_time_ms)


def verify_local_model(model: Model, verified_testset: Dataset, tau: float,
                       shares: ModelShares, dealer: Dealer, round_no: int = 0,
                       model_id: str = "") -> Verdict:
    """Score a client's sharing on the trusted test split.

    ``shares`` is the client's sharing of ``model``'s parameters
    (:func:`fedchain.secure_agg.share_model_params`), the one the nodes
    receive if the model is accepted; ``model`` supplies only the topology.
    The decision path sees shares and public topology only; the verdict's
    wall time covers the dealing of the correlations and the online phase.
    """
    if len(verified_testset) == 0:
        raise ValueError("empty verified testset")
    if not 0.0 <= tau <= 1.0:
        raise ValueError("threshold must be in [0, 1]")
    params = encrypt_model(model, shares)
    x = encrypt_batch(verified_testset.features, dealer)
    start = time.perf_counter()
    dealt = provision(model, len(verified_testset), dealer)
    logits = encrypted_infer(model, params, x, dealt)
    return judge(logits, verified_testset.labels, tau, round_no, model_id,
                 (time.perf_counter() - start) * 1000.0)
