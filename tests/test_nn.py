import hashlib
import struct
import tracemalloc

import numpy as np
import pytest

from fedchain import nn
from fedchain.data import Dataset, gen_synthetic
from fedchain.nn import (
    AvgPool,
    Conv2D,
    Dense,
    Flatten,
    Model,
    ReLU,
    evaluate,
    forward,
    init_cnn,
    init_mlp,
    serialize,
    train_local,
)

# Golden digest for the seeded reference model; frozen from a verified run so
# canonical serialization cannot drift silently.
GOLDEN_MODEL_DIGEST = "c4acc00a5498f7fdf2d64dbddde5d1adaa16060597121427ab27d89df15a02c5"


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def tiny_model(w, b):
    return Model((2,), (Dense(2, 2),), (np.asarray(w, dtype=float), np.asarray(b, dtype=float)))


def loss_and_grads(model, data):
    """Full-batch mean cross-entropy loss, and the parameter gradients of the
    backward pass that training runs."""
    x = np.asarray(data.features, dtype=np.float64)
    logits = forward(model, x)
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    loss = -np.mean(log_probs[np.arange(x.shape[0]), data.labels])
    return loss, nn._forward_backward(model.layers, model.params, x, data.labels)


class TestForward:
    def test_identity_dense_layer(self):
        m = tiny_model(np.eye(2), np.zeros(2))
        x = np.array([[3.0, -1.5], [0.25, 4.0]])
        assert np.array_equal(forward(m, x), x)

    def test_zero_weights_tie_break_lowest_index(self):
        m = tiny_model(np.zeros((2, 2)), np.zeros(2))
        preds = np.argmax(forward(m, np.array([[1.0, 2.0]])), axis=1)
        assert preds[0] == 0

    def test_two_layer_against_matrix_oracle(self):
        rng = np.random.Generator(np.random.PCG64(0))
        m = init_mlp(6, [5], 3, seed=1)
        x = rng.standard_normal((7, 6))
        w1, b1, w2, b2 = m.params
        hidden = np.maximum(x @ w1 + b1, 0.0)
        expect = hidden @ w2 + b2
        assert np.max(np.abs(forward(m, x) - expect)) <= 1e-9

    def test_shape_mismatch(self):
        m = init_mlp(6, [5], 3, seed=1)
        with pytest.raises(ValueError):
            forward(m, np.zeros((4, 7)))

    @pytest.mark.parametrize("input_shape, layers", [
        ((4,), (ReLU(), Dense(4, 3))),
        ((2, 3, 3), (Flatten(), ReLU(), Dense(18, 3))),
    ], ids=["relu_first", "flatten_relu"])
    def test_the_pass_never_writes_the_callers_batch(self, input_shape, layers):
        # ReLU clamps in place only arrays the pass allocated; here its input
        # is the caller's batch, or a view of it.
        rng = np.random.Generator(np.random.PCG64(3))
        dense = layers[-1]
        model = Model(input_shape, layers, (rng.standard_normal((dense.in_dim, 3)),
                                            rng.standard_normal(3)))
        data = Dataset(rng.standard_normal((10, *input_shape)), rng.integers(0, 3, 10), 3)
        before = data.features.tobytes()
        forward(model, data.features)
        evaluate(model, data)
        loss_and_grads(model, data)
        assert data.features.tobytes() == before

    def test_forward_holds_about_one_array_per_layer_output(self):
        # The agg-ledger MLP on a 400-row evaluation batch.  Outputs are
        # 400 x (256, 128, 4) float64: 1,241,600 bytes together.  With a
        # fresh temporary per bias add and per ReLU the peak was 2,525,176
        # bytes.
        model = init_mlp(64, [256, 128], 4, seed=0)
        x = np.random.Generator(np.random.PCG64(4)).standard_normal((400, 64))
        forward(model, x)  # allocations made once per process land here
        tracemalloc.start()
        try:
            forward(model, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * 400 * (256 + 128 + 4) * 8


class TestGradients:
    @staticmethod
    def _finite_difference_check(model, ds, probes=8):
        """Central finite differences (eps = 1e-4) on sampled coordinates."""
        _, grads = loss_and_grads(model, ds)
        rng = np.random.Generator(np.random.PCG64(99))
        eps = 1e-4
        for pi, p in enumerate(model.params):
            for fi in rng.integers(0, p.size, min(probes, p.size)):
                plus = [q.copy() for q in model.params]
                plus[pi].flat[fi] += eps
                minus = [q.copy() for q in model.params]
                minus[pi].flat[fi] -= eps
                lp, _ = loss_and_grads(Model(model.input_shape, model.layers, tuple(plus)), ds)
                lm, _ = loss_and_grads(Model(model.input_shape, model.layers, tuple(minus)), ds)
                fd = (lp - lm) / (2 * eps)
                an = grads[pi].flat[fi]
                assert abs(fd - an) <= 1e-3 * max(1.0, abs(fd)), (pi, fi, fd, an)

    def test_dense_relu_stack(self):
        rng = np.random.Generator(np.random.PCG64(5))
        ds = Dataset(rng.standard_normal((6, 8)), rng.integers(0, 3, 6), 3)
        self._finite_difference_check(init_mlp(8, [5], 3, seed=2), ds)

    def test_conv_pool_stack(self):
        rng = np.random.Generator(np.random.PCG64(6))
        ds = Dataset(rng.standard_normal((4, 1, 8, 8)), rng.integers(0, 4, 4), 4)
        self._finite_difference_check(init_cnn((1, 8, 8), 3, 3, 4, seed=3), ds)

    @pytest.mark.parametrize("model, shape", [
        (init_mlp(8, [5], 3, seed=2), (6, 8)),
        (init_cnn((1, 8, 8), 3, 3, 3, seed=3), (6, 1, 8, 8)),
    ], ids=["dense", "conv"])
    def test_skipping_the_batch_gradient_leaves_parameter_gradients_bit_identical(
            self, monkeypatch, model, shape):
        # Reference: the backward pass that also computes the first layer's
        # gradient with respect to the batch.
        rng = np.random.Generator(np.random.PCG64(7))
        ds = Dataset(rng.standard_normal(shape), rng.integers(0, 3, shape[0]), 3)
        _, skipped = loss_and_grads(model, ds)
        layer_backward = nn._layer_backward
        monkeypatch.setattr(nn, "_layer_backward",
                            lambda *args, input_grad: layer_backward(*args, input_grad=True))
        _, full = loss_and_grads(model, ds)
        assert [g.tobytes() for g in skipped] == [g.tobytes() for g in full]


# One epoch of small steps, for the tests that check only the inputs.
STEP = dict(learning_rate=0.001, epochs=1, batch_size=64, seed=0)


class TestTrainLocal:
    def test_zero_learning_rate_is_identity(self):
        ds = gen_synthetic(3, 6, 10, seed=4)
        m = init_mlp(6, [4], 3, seed=5)
        out = train_local(m, ds, learning_rate=0.0, epochs=3, batch_size=8, seed=0)
        assert all(np.array_equal(a, b) for a, b in zip(m.params, out.params))

    def test_single_full_batch_step_matches_hand_gradient(self):
        # One dense layer, one full-batch step: p' = p - eta * grad.
        feats = np.array([[1.0, 0.0], [0.0, 1.0]])
        ds = Dataset(feats, np.array([0, 1]), 2)
        m = tiny_model([[0.2, -0.1], [0.4, 0.3]], [0.0, 0.0])
        eta = 0.5
        _, grads = loss_and_grads(m, ds)
        stepped = train_local(m, ds, learning_rate=eta, epochs=1, batch_size=2, seed=0)
        assert np.allclose(stepped.params[0], m.params[0] - eta * grads[0], atol=1e-12)
        assert np.allclose(stepped.params[1], m.params[1] - eta * grads[1], atol=1e-12)

    def test_blobs_reach_95_percent_within_50_epochs(self):
        ds = gen_synthetic(4, 16, 50, seed=7)
        m = init_mlp(16, [16], 4, seed=8)
        out = train_local(m, ds, learning_rate=0.1, epochs=50, batch_size=16, seed=9)
        assert evaluate(out, ds) >= 0.95

    def test_deterministic_per_seed(self):
        ds = gen_synthetic(3, 8, 20, seed=10)
        m = init_mlp(8, [6], 3, seed=11)
        cfg = dict(learning_rate=0.05, epochs=3, batch_size=8, seed=12)
        a = train_local(m, ds, **cfg)
        b = train_local(m, ds, **cfg)
        assert serialize(a) == serialize(b)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_divergence_raises_the_non_finite_error_without_a_warning(self):
        ds = gen_synthetic(3, 6, 10, seed=4)
        m = init_mlp(6, [4], 3, seed=5)
        with pytest.raises(nn.NonFiniteParameterError):
            train_local(m, ds, learning_rate=1e308, epochs=2, batch_size=8, seed=0)

    def test_empty_dataset_rejected(self):
        m = init_mlp(4, [3], 2, seed=15)
        empty = Dataset(np.zeros((0, 4)), np.zeros(0, dtype=np.int64), 2)
        with pytest.raises(ValueError):
            train_local(m, empty, **STEP)

    def test_label_outside_class_range(self):
        m = init_mlp(4, [3], 2, seed=16)
        ds = Dataset(np.zeros((2, 4)), np.array([0, 2]), 3)
        with pytest.raises(ValueError):
            train_local(m, ds, **STEP)


class TestEvaluate:
    def test_perfect_predictor(self):
        m = tiny_model(np.eye(2) * 10, np.zeros(2))
        ds = Dataset(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0, 1]), 2)
        assert evaluate(m, ds) == 1.0

    def test_constant_model_on_balanced_classes(self):
        m = Model((4,), (Dense(4, 4),), (np.zeros((4, 4)), np.array([0.0, 1.0, 0.0, 0.0])))
        rng = np.random.Generator(np.random.PCG64(17))
        ds = Dataset(rng.standard_normal((200, 4)), np.repeat(np.arange(4), 50), 4)
        assert evaluate(m, ds) == 0.25  # always predicts class 1; exactly 50/200

    def test_empty_dataset_rejected(self):
        m = tiny_model(np.eye(2), np.zeros(2))
        with pytest.raises(ValueError):
            evaluate(m, Dataset(np.zeros((0, 2)), np.zeros(0, dtype=np.int64), 2))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_logits_count_as_misses(self):
        # Logits (nan, nan) and (inf, 0) would both argmax to class 0, the label.
        m = tiny_model(np.eye(2) * 10, np.zeros(2))
        x = np.array([[np.nan, 0.0], [1e308, 0.0], [1.0, 0.0]])
        assert evaluate(m, Dataset(x, np.zeros(3, dtype=np.int64), 2)) == 1 / 3


class TestSerialization:
    def test_cnn_bytes_follow_the_documented_layout(self):
        # Every layer code and field of the CNN, then its four parameter
        # tensors as little-endian float64.
        m = init_cnn((1, 8, 8), 3, 3, 4, seed=18)
        want = b"FCNN" + struct.pack("<BB", 1, 3) + struct.pack("<III", 1, 8, 8)
        want += struct.pack("<B", 5)
        want += struct.pack("<BIII", 2, 1, 3, 3)  # Conv2D(1, 3, 3)
        want += struct.pack("<B", 3)  # ReLU
        want += struct.pack("<BI", 4, 2)  # AvgPool(2)
        want += struct.pack("<B", 5)  # Flatten
        want += struct.pack("<BII", 1, 27, 4)  # Dense(3 * 3 * 3, 4)
        want += b"".join(p.astype("<f8").tobytes() for p in m.params)
        assert [p.shape for p in m.params] == [(3, 1, 3, 3), (3,), (27, 4), (4,)]
        assert serialize(m) == want

    def test_digest_stable_for_seeded_model(self):
        m = init_mlp(8, [6], 3, seed=20)
        assert sha(serialize(m)) == GOLDEN_MODEL_DIGEST

    def test_digest_equality_iff_equal_models(self):
        a = init_mlp(4, [3], 2, seed=22)
        b = init_mlp(4, [3], 2, seed=22)
        c = init_mlp(4, [3], 2, seed=23)
        assert sha(serialize(a)) == sha(serialize(b))
        assert sha(serialize(a)) != sha(serialize(c))


def test_softmax_free_argmax_matches_softmax_argmax():
    rng = np.random.Generator(np.random.PCG64(24))
    logits = rng.standard_normal((1000, 7)) * 5
    soft = np.exp(logits - logits.max(axis=1, keepdims=True))
    soft /= soft.sum(axis=1, keepdims=True)
    assert np.array_equal(np.argmax(logits, axis=1), np.argmax(soft, axis=1))


def test_model_shape_validation():
    with pytest.raises(ValueError):
        Model((3,), (Dense(2, 2),), (np.zeros((2, 2)), np.zeros(2)))
    with pytest.raises(ValueError):
        Model((2,), (Dense(2, 2),), (np.zeros((2, 2)),))
    with pytest.raises(nn.NonFiniteParameterError):
        Model((2,), (Dense(2, 2),), (np.full((2, 2), np.nan), np.zeros(2)))


def test_param_count_and_flat_round_trip():
    m = init_mlp(5, [4], 3, seed=25)
    assert m.param_count == 5 * 4 + 4 + 4 * 3 + 3
    flat = m.flat_params()
    again = m.with_flat_params(flat)
    assert serialize(again) == serialize(m)
