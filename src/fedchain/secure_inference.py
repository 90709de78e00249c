"""Encrypted inference over a secret-shared model, and the accept/reject verdict.

The verifier scores a candidate model by running its trusted test images
through the model while both model parameters and images stay additively
shared between the two protocol parties.  Linear layers ride on matrix
Beaver triples, ReLUs on masked-comparison sign extraction; only the final
logits are reconstructed, and the argmax is taken in the clear.  The
decision path never touches plaintext parameters.

Shares live in Z_2^63: wide enough that the local probabilistic truncation
after every fixed-point product is reliable, while sign extraction still
runs on 32-bit masked values via exact share-local ring reduction, with one
31-bit comparison key per ReLU lane.
"""

from __future__ import annotations

import json
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .fss import FssConfig, SignCorrelation, apply_sign_correlation, gen_sign_correlation
from .nn import AvgPool, Conv2D, Dense, Flatten, Model, ReLU, _im2col, _out_shape
from .ring import (
    FixedPointConfig,
    Modulus,
    decode_fixed_array,
    encode_fixed_array,
    mod_add,
    mod_mul,
)
from .sharing import (
    Dealer,
    MatmulTriple,
    BeaverTriple,
    _pair,
    beaver_matmul,
    beaver_mul,
    gen_matmul_triple,
    gen_triple,
    open_pair,
    split_pair,
    truncate_shares,
)

SHARE_BITS = 63
COMPARE_BITS = 32


class ExhaustedRandomnessError(RuntimeError):
    """The provisioned triple/key budget for an inference ran out."""


@dataclass(frozen=True)
class InferenceConfig:
    """Ring, scale and comparison width for the encrypted inference path."""

    fixed: FixedPointConfig = FixedPointConfig(10**4, Modulus.power_of_two(SHARE_BITS))
    compare_bits: int = COMPARE_BITS

    @property
    def fss(self) -> FssConfig:
        return FssConfig(self.compare_bits, self.fixed.modulus)


@dataclass
class EncryptedModel:
    """Public topology plus per-party parameter shares."""

    input_shape: tuple[int, ...]
    layers: tuple
    param_shares: list[tuple[np.ndarray, np.ndarray]]
    cfg: InferenceConfig
    model_id: str = ""

    @property
    def modulus(self) -> Modulus:
        return self.cfg.fixed.modulus


@dataclass
class EncryptedBatch:
    """Per-party shares of a batch of inputs."""

    shares: tuple[np.ndarray, np.ndarray]
    count: int
    cfg: InferenceConfig


@dataclass
class InferenceOutputs:
    """Clear outputs: predicted class per image, plus the decoded logits."""

    predictions: np.ndarray
    logits: np.ndarray


@dataclass
class Verdict:
    model_id: str
    round: int
    encrypted_accuracy: float
    threshold: float
    accepted: bool
    wall_time_ms: float

    def to_json(self) -> str:
        return json.dumps(
            {
                "model_id": self.model_id,
                "round": self.round,
                "encrypted_accuracy": self.encrypted_accuracy,
                "threshold": self.threshold,
                "accepted": self.accepted,
                "wall_time_ms": self.wall_time_ms,
            },
            sort_keys=True,
        )


def encrypt_model(model: Model, dealer: Dealer, cfg: InferenceConfig | None = None,
                  model_id: str = "") -> EncryptedModel:
    """Fixed-point encode every parameter tensor and split it two ways."""
    cfg = cfg or InferenceConfig()
    shares = []
    for p in model.params:
        enc = encode_fixed_array(p.ravel(), cfg.fixed)
        s0, s1 = split_pair(enc, dealer)
        shares.append((s0.values.reshape(p.shape), s1.values.reshape(p.shape)))
    return EncryptedModel(model.input_shape, model.layers, shares, cfg, model_id)


def encrypt_batch(features: np.ndarray, dealer: Dealer,
                  cfg: InferenceConfig | None = None) -> EncryptedBatch:
    cfg = cfg or InferenceConfig()
    feats = np.asarray(features, dtype=np.float64)
    enc = encode_fixed_array(feats.ravel(), cfg.fixed)
    s0, s1 = split_pair(enc, dealer)
    return EncryptedBatch(
        (s0.values.reshape(feats.shape), s1.values.reshape(feats.shape)),
        feats.shape[0],
        cfg,
    )


@dataclass
class InferenceRandomness:
    """Offline batch of correlated randomness sized to one inference graph."""

    matmul: deque = field(default_factory=deque)
    signs: deque = field(default_factory=deque)
    muls: deque = field(default_factory=deque)

    def take_matmul(self) -> MatmulTriple:
        return self._take(self.matmul, "matmul triples")

    def take_sign(self) -> SignCorrelation:
        return self._take(self.signs, "sign correlations")

    def take_mul(self) -> BeaverTriple:
        return self._take(self.muls, "multiplication triples")

    @staticmethod
    def _take(q: deque, what: str):
        if not q:
            raise ExhaustedRandomnessError(f"inference exhausted its {what}")
        return q.popleft()


def provision(em: EncryptedModel, batch_size: int, dealer: Dealer) -> InferenceRandomness:
    """Generate exactly the triples and comparison keys the graph will consume."""
    cfg = em.cfg
    rnd = InferenceRandomness()
    shape = em.input_shape
    for layer in em.layers:
        if isinstance(layer, Dense):
            rnd.matmul.append(gen_matmul_triple(batch_size, layer.in_dim, layer.out_dim, dealer))
        elif isinstance(layer, Conv2D):
            oh = shape[1] - layer.kernel + 1
            ow = shape[2] - layer.kernel + 1
            rnd.matmul.append(
                gen_matmul_triple(batch_size * oh * ow,
                                  layer.in_ch * layer.kernel * layer.kernel,
                                  layer.out_ch, dealer)
            )
        elif isinstance(layer, ReLU):
            count = batch_size * int(np.prod(shape))
            rnd.signs.append(gen_sign_correlation(count, cfg.fss, dealer))
            rnd.muls.append(gen_triple(count, dealer))
        shape = _out_shape(layer, shape)
    return rnd


def encrypted_infer(em: EncryptedModel, eb: EncryptedBatch, dealer: Dealer,
                    randomness: InferenceRandomness | None = None) -> InferenceOutputs:
    """Run the shared batch through the shared model; open only the logits."""
    cfg = em.cfg
    modulus = cfg.fixed.modulus
    scale = cfg.fixed.scale
    if eb.cfg.fixed != cfg.fixed:
        raise ValueError("batch and model encrypted under different rings")
    x0, x1 = eb.shares
    if x0.shape[1:] != em.input_shape:
        raise ValueError(f"batch shape {x0.shape[1:]}, model expects {em.input_shape}")
    rnd = randomness if randomness is not None else provision(em, eb.count, dealer)

    pi = 0
    for layer in em.layers:
        if isinstance(layer, Dense):
            w0, w1 = em.param_shares[pi]
            b0, b1 = em.param_shares[pi + 1]
            pi += 2
            z0, z1 = beaver_matmul(x0, x1, w0, w1, rnd.take_matmul())
            x0, x1 = _bias_and_truncate(z0, z1, b0, b1, cfg)
        elif isinstance(layer, Conv2D):
            k0, k1 = em.param_shares[pi]
            b0, b1 = em.param_shares[pi + 1]
            pi += 2
            bsz, _, h, w = x0.shape
            oh, ow = h - layer.kernel + 1, w - layer.kernel + 1
            cols0 = np.ascontiguousarray(_im2col(x0, layer.kernel)).reshape(-1, k0.reshape(layer.out_ch, -1).shape[1])
            cols1 = np.ascontiguousarray(_im2col(x1, layer.kernel)).reshape(-1, cols0.shape[1])
            km0 = np.ascontiguousarray(k0.reshape(layer.out_ch, -1).T)
            km1 = np.ascontiguousarray(k1.reshape(layer.out_ch, -1).T)
            z0, z1 = beaver_matmul(cols0, cols1, km0, km1, rnd.take_matmul())
            z0, z1 = _bias_and_truncate(z0, z1, b0, b1, cfg)
            x0 = np.ascontiguousarray(z0.reshape(bsz, oh, ow, layer.out_ch).transpose(0, 3, 1, 2))
            x1 = np.ascontiguousarray(z1.reshape(bsz, oh, ow, layer.out_ch).transpose(0, 3, 1, 2))
        elif isinstance(layer, ReLU):
            shape = x0.shape
            flat = _pair(modulus, x0.ravel(), x1.ravel())
            bits = apply_sign_correlation(flat, rnd.take_sign())
            gated = beaver_mul(bits, flat, rnd.take_mul())
            x0 = gated[0].values.reshape(shape)
            x1 = gated[1].values.reshape(shape)
        elif isinstance(layer, AvgPool):
            s = layer.size
            bsz, c, h, w = x0.shape
            mask = np.uint64(modulus.value - 1)
            pooled0 = x0.reshape(bsz, c, h // s, s, w // s, s).sum(axis=(3, 5)) & mask
            pooled1 = x1.reshape(bsz, c, h // s, s, w // s, s).sum(axis=(3, 5)) & mask
            inv = np.uint64(scale // (s * s))
            z0 = mod_mul(pooled0, np.broadcast_to(inv, pooled0.shape), modulus)
            z1 = mod_mul(pooled1, np.broadcast_to(inv, pooled1.shape), modulus)
            t = truncate_shares(_pair(modulus, z0.ravel(), z1.ravel()), cfg.fixed)
            x0 = t[0].values.reshape(pooled0.shape)
            x1 = t[1].values.reshape(pooled1.shape)
        elif isinstance(layer, Flatten):
            x0 = x0.reshape(x0.shape[0], -1)
            x1 = x1.reshape(x1.shape[0], -1)
        else:
            raise TypeError(f"layer {layer!r} not supported under encryption")

    shape = x0.shape
    opened = open_pair(_pair(modulus, x0.ravel(), x1.ravel()))
    logits = decode_fixed_array(opened, cfg.fixed).reshape(shape)
    return InferenceOutputs(np.argmax(logits, axis=1), logits)


def _bias_and_truncate(z0: np.ndarray, z1: np.ndarray, b0: np.ndarray, b1: np.ndarray,
                       cfg: InferenceConfig):
    """Align the scale-1 bias to the scale^2 product, add, truncate to scale 1."""
    modulus = cfg.fixed.modulus
    s = np.uint64(cfg.fixed.scale)
    ba0 = mod_mul(b0, np.broadcast_to(s, b0.shape), modulus)
    ba1 = mod_mul(b1, np.broadcast_to(s, b1.shape), modulus)
    z0 = mod_add(z0, np.broadcast_to(ba0, z0.shape), modulus)
    z1 = mod_add(z1, np.broadcast_to(ba1, z1.shape), modulus)
    t = truncate_shares(_pair(modulus, z0.ravel(), z1.ravel()), cfg.fixed)
    return t[0].values.reshape(z0.shape), t[1].values.reshape(z1.shape)


def threshold_for_round(prev_global_acc: float | None, class_count: int,
                        absolute: float | None = None) -> float:
    """Accept threshold: absolute override, else relative to the last global
    model's score with a chance-plus-margin floor."""
    if absolute is not None:
        return absolute
    chance = 1.0 / class_count
    prev = chance if prev_global_acc is None else prev_global_acc
    return max(0.5 * prev, chance + 0.1)


def verify_encrypted_model(em: EncryptedModel, eb: EncryptedBatch, labels: np.ndarray,
                           tau: float, dealer: Dealer, round_no: int = 0) -> Verdict:
    """Score an already-encrypted model on an encrypted test batch.

    This is the decision path: it sees shares and public topology only.
    """
    start = time.perf_counter()
    outs = encrypted_infer(em, eb, dealer)
    acc = float(np.mean(outs.predictions == labels))
    return Verdict(
        model_id=em.model_id,
        round=round_no,
        encrypted_accuracy=acc,
        threshold=tau,
        accepted=acc >= tau,
        wall_time_ms=(time.perf_counter() - start) * 1000.0,
    )


def verify_local_model(model: Model, verified_testset: Dataset, tau: float,
                       dealer: Dealer, round_no: int = 0,
                       model_id: str = "") -> Verdict:
    """Encrypt a candidate model and score it on the trusted test split."""
    if len(verified_testset) == 0:
        raise ValueError("empty verified testset")
    if not 0.0 <= tau <= 1.0:
        raise ValueError("threshold must be in [0, 1]")
    cfg = InferenceConfig()
    em = encrypt_model(model, dealer, cfg, model_id)
    eb = encrypt_batch(verified_testset.features, dealer, cfg)
    return verify_encrypted_model(em, eb, verified_testset.labels, tau, dealer, round_no)
