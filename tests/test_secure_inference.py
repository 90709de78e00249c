"""Golden opened logits of encrypted inference.

The run artifacts pinned by ``test_replay`` hold verdicts and accuracies
only, so a change in the dealer stream that leaves every argmax alone
passes there unseen.  The logits opened by ``encrypted_infer`` move with
it: the triple shares drawn later change, and the local truncation after
each fixed-point product rounds differently for different shares.  A
change in how the sign bits alone are split does not reach the logits,
because Beaver multiplication opens only masked values; ``test_fss`` pins
those shares.  A change that alters the logits on purpose re-records the
digest and reports the largest logit difference in fixed-point units.
"""

import hashlib

import numpy as np
import pytest

from fedchain import nn
from fedchain.data import Dataset, gen_synthetic
from fedchain.secure_inference import encrypt_batch, encrypt_model, encrypted_infer
from fedchain.sharing import Dealer

# Shaped like the verifier's workload: 32 features, one hidden ReLU layer of
# 16, 4 classes, 40 trusted inputs, shares in Z_2^63.
GOLDEN_LOGITS_SHA256 = "0e2e2f57b6e222a9ead009c00a7c5777d606cd6b477490e8d6d5bcfbb7d422b4"

# The convolutional path: 1x8x8 images through Conv2D(4 channels, 3x3),
# ReLU, AvgPool(2), Flatten and Dense to 4 classes, 12 trusted inputs.
GOLDEN_CNN_LOGITS_SHA256 = "139b2436f9da13ba8ffab9ffef41fca07f6212f883ce610c57b0e88044045f92"


@pytest.fixture(scope="module")
def runs():
    """(model, inputs, opened logits) for three trained models."""
    train = gen_synthetic(4, 32, 150, seed=5)
    inputs = gen_synthetic(4, 32, 10, seed=6).features
    out = []
    for m in range(3):
        model = nn.train_local(nn.init_mlp(32, [16], 4, seed=100 + m), train,
                               nn.TrainConfig(learning_rate=0.05, epochs=2, rng_seed=m))
        dealer = Dealer(1000 + m)
        em = encrypt_model(model, dealer)
        eb = encrypt_batch(inputs, dealer)
        out.append((model, inputs, encrypted_infer(em, eb, dealer).logits))
    return out


def images(ds: Dataset) -> Dataset:
    return Dataset(ds.features.reshape(len(ds), 1, 8, 8), ds.labels, ds.class_count)


@pytest.fixture(scope="module")
def cnn_runs():
    """(model, inputs, opened logits) for two trained CNNs."""
    data = images(gen_synthetic(4, 64, 63, seed=7, separation=8.0))
    train, inputs = data.subset(np.arange(12, len(data))), data.features[:12]
    out = []
    for m in range(2):
        model = nn.train_local(nn.init_cnn((1, 8, 8), 4, 3, 4, seed=200 + m), train,
                               nn.TrainConfig(learning_rate=0.1, epochs=5, batch_size=32,
                                              rng_seed=m))
        dealer = Dealer(2000 + m)
        em = encrypt_model(model, dealer)
        eb = encrypt_batch(inputs, dealer)
        out.append((model, inputs, encrypted_infer(em, eb, dealer).logits))
    return out


def test_opened_logits_golden(runs):
    logits = np.stack([lg for _, _, lg in runs])
    assert hashlib.sha256(logits.tobytes()).hexdigest() == GOLDEN_LOGITS_SHA256


def test_opened_logits_track_plaintext(runs):
    for model, inputs, logits in runs:
        plain = nn.forward(model, inputs)
        assert np.array_equal(np.argmax(logits, axis=1), np.argmax(plain, axis=1))
        assert np.max(np.abs(logits - plain)) < 1e-2


def test_cnn_opened_logits_golden(cnn_runs):
    logits = np.stack([lg for _, _, lg in cnn_runs])
    assert hashlib.sha256(logits.tobytes()).hexdigest() == GOLDEN_CNN_LOGITS_SHA256


def test_cnn_opened_logits_track_plaintext(cnn_runs):
    for model, inputs, logits in cnn_runs:
        plain = nn.forward(model, inputs)
        assert np.array_equal(np.argmax(logits, axis=1), np.argmax(plain, axis=1))
        assert np.max(np.abs(logits - plain)) < 1e-2
