"""Golden opened logits of encrypted inference, and the verifier's view of a
client's sharing.

The run artifacts pinned by ``test_replay`` hold verdicts and accuracies
only, so a change in the dealer stream or in the model's sharing that
leaves every argmax alone passes there unseen.  The logits opened by
``encrypted_infer`` move with either: the triple shares drawn change, and
the local truncation after each fixed-point product rounds differently for
different shares.  A
change in how the sign bits alone are split does not reach the logits,
because Beaver multiplication opens only masked values; ``test_fss`` pins
those shares.  A change that alters the logits on purpose re-records the
digest and reports the largest logit difference in fixed-point units.

The goldens were re-recorded when the verifier began scoring the client's
aggregation sharing in place of a dealer split of its own: the model shares
changed, and the dealer's stream starts at the input masks.  The largest
logit moved by 2 fixed-point units (2e-4) on the MLP runs and by 3 (3e-4)
on the CNN runs; every argmax stayed.
"""

import hashlib
import inspect

import numpy as np
import pytest

from fedchain import nn
from fedchain.data import Dataset, gen_synthetic
from fedchain.ring import MASK, encode_fixed_array
from fedchain.secure_agg import AggregationState, share_model_params
from fedchain.secure_inference import encrypt_batch, encrypt_model, encrypted_infer, provision
from fedchain.sharing import Dealer, open_pair

# Shaped like the verifier's workload: 32 features, one hidden ReLU layer of
# 16, 4 classes, 40 trusted inputs, shares in Z_2^63.
GOLDEN_LOGITS_SHA256 = "adf55f432b3a38c04040e712831006144904dbe3b11402491c420f38670c4a02"

# The convolutional path: 1x8x8 images through Conv2D(4 channels, 3x3),
# ReLU, AvgPool(2), Flatten and Dense to 4 classes, 12 trusted inputs.
GOLDEN_CNN_LOGITS_SHA256 = "38214b3867b1c64363a0efaeba5990646cb714c47ab4cbf67f558efa4cf0c642"


def infer(model, inputs, seed):
    """The opened logits of ``inputs`` through ``model``, shared three ways
    and dealt by ``Dealer(seed)``: input masks first, then the graph's
    correlations, as the verifier deals them."""
    params = encrypt_model(model, share_model_params(model, seed, 3))
    dealer = Dealer(seed)
    x = encrypt_batch(inputs, dealer)
    return encrypted_infer(model, params, x, provision(model, len(inputs), dealer))


@pytest.fixture(scope="module")
def runs():
    """(model, inputs, opened logits) for three trained models."""
    train = gen_synthetic(4, 32, 150, seed=5)
    inputs = gen_synthetic(4, 32, 10, seed=6).features
    out = []
    for m in range(3):
        model = nn.train_local(nn.init_mlp(32, [16], 4, seed=100 + m), train,
                               learning_rate=0.05, epochs=2, batch_size=64, seed=m)
        out.append((model, inputs, infer(model, inputs, 1000 + m)))
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
                               learning_rate=0.1, epochs=5, batch_size=32, seed=m)
        out.append((model, inputs, infer(model, inputs, 2000 + m)))
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


@pytest.mark.parametrize("nodes", [2, 5])
def test_the_verifier_scores_what_the_nodes_fold(nodes):
    # One client's round: the verifier's x0 is, bit for bit, the sum of the
    # first n-1 node rows, its x1 the last node's row, and the two open to
    # the encoded parameters, cut in flat_params order.
    model = nn.init_cnn((1, 6, 6), 2, 3, 3, seed=4)
    shares = share_model_params(model, 77, nodes)
    params = encrypt_model(model, shares)
    agg = AggregationState(0, (0,), nodes, model.param_count)
    agg.add(0, 0, shares)
    rows = list(agg.node_partial_sums())
    x0 = np.concatenate([s0.ravel() for s0, _ in params])
    x1 = np.concatenate([s1.ravel() for _, s1 in params])
    node_total = rows[0].copy()
    for row in rows[1:-1]:
        node_total = (node_total + row) & MASK
    assert x0.tobytes() == node_total.tobytes()
    assert x1.tobytes() == rows[-1].tobytes()
    for p, pair in zip(model.params, params):
        assert pair[0].shape == p.shape
        assert np.array_equal(open_pair(pair), encode_fixed_array(p))


def test_encrypt_model_takes_no_dealer():
    # The model's shares are the client's sharing; the verifier's dealer
    # deals only the inputs and the randomness the graph consumes.
    assert list(inspect.signature(encrypt_model).parameters) == ["model", "shares"]


def test_encrypted_infer_takes_no_dealer():
    # The online phase runs from the dealt list; the dealer stays offline.
    assert list(inspect.signature(encrypted_infer).parameters) == ["model", "params", "x", "dealt"]


def test_a_dealt_list_of_the_wrong_length_is_refused(runs):
    # zip(..., strict=True): a list dealt for a graph of another depth is refused.
    model, inputs, _ = runs[0]
    params = encrypt_model(model, share_model_params(model, 1000, 3))
    dealer = Dealer(1000)
    x = encrypt_batch(inputs, dealer)
    dealt = provision(model, len(inputs), dealer)
    with pytest.raises(ValueError, match="zip"):
        encrypted_infer(model, params, x, dealt[:-1])
