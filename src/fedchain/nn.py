"""Plaintext feedforward networks with mini-batch training.

Desk-scale layer zoo: dense, 2-d convolution, ReLU, average pooling and
flatten.  Models are immutable values; training returns a new model.  The
canonical serialization (``serialize``) is what the ledger's model digests
hash and what ``models/`` holds; nothing reads it back into a model.
``Model.flat_params``, the vector that secure aggregation shares, lists the
parameters in the same order.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, replace

import numpy as np

from .data import Dataset

_MAGIC = b"FCNN"
_VERSION = 1


@dataclass(frozen=True)
class Dense:
    in_dim: int
    out_dim: int


@dataclass(frozen=True)
class Conv2D:
    in_ch: int
    out_ch: int
    kernel: int


@dataclass(frozen=True)
class ReLU:
    pass


@dataclass(frozen=True)
class AvgPool:
    size: int


@dataclass(frozen=True)
class Flatten:
    pass


LayerSpec = Dense | Conv2D | ReLU | AvgPool | Flatten

_LAYER_CODES = {Dense: 1, Conv2D: 2, ReLU: 3, AvgPool: 4, Flatten: 5}


def _out_shape(layer: LayerSpec, shape: tuple[int, ...]) -> tuple[int, ...]:
    if isinstance(layer, Dense):
        if shape != (layer.in_dim,):
            raise ValueError(f"dense({layer.in_dim}) cannot follow shape {shape}")
        return (layer.out_dim,)
    if isinstance(layer, Conv2D):
        if len(shape) != 3 or shape[0] != layer.in_ch:
            raise ValueError(f"conv2d expects ({layer.in_ch}, h, w), got {shape}")
        h, w = shape[1] - layer.kernel + 1, shape[2] - layer.kernel + 1
        if h < 1 or w < 1:
            raise ValueError("kernel larger than input")
        return (layer.out_ch, h, w)
    if isinstance(layer, AvgPool):
        if len(shape) != 3 or shape[1] % layer.size or shape[2] % layer.size:
            raise ValueError(f"avgpool({layer.size}) cannot tile shape {shape}")
        return (shape[0], shape[1] // layer.size, shape[2] // layer.size)
    if isinstance(layer, Flatten):
        return (int(np.prod(shape)),)
    return shape  # ReLU


def _param_shapes(layer: LayerSpec) -> list[tuple[int, ...]]:
    if isinstance(layer, Dense):
        return [(layer.in_dim, layer.out_dim), (layer.out_dim,)]
    if isinstance(layer, Conv2D):
        return [(layer.out_ch, layer.in_ch, layer.kernel, layer.kernel), (layer.out_ch,)]
    return []


class NonFiniteParameterError(ValueError):
    """A parameter is NaN or infinite, which no model holds."""


@dataclass(frozen=True)
class Model:
    """Layer topology plus parameters in declaration order (W, b per layer)."""

    input_shape: tuple[int, ...]
    layers: tuple[LayerSpec, ...]
    params: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        shape = self.input_shape
        expected: list[tuple[int, ...]] = []
        for layer in self.layers:
            expected.extend(_param_shapes(layer))
            shape = _out_shape(layer, shape)
        if len(expected) != len(self.params):
            raise ValueError(f"{len(expected)} parameter tensors expected, got {len(self.params)}")
        frozen = []
        for want, p in zip(expected, self.params):
            arr = np.asarray(p, dtype=np.float64)
            if arr.shape != want:
                raise ValueError(f"parameter shape {arr.shape}, expected {want}")
            if not np.all(np.isfinite(arr)):
                raise NonFiniteParameterError("non-finite parameter")
            arr = arr.copy()
            arr.flags.writeable = False
            frozen.append(arr)
        object.__setattr__(self, "params", tuple(frozen))
        object.__setattr__(self, "output_shape", shape)

    @property
    def param_count(self) -> int:
        return sum(p.size for p in self.params)

    def flat_params(self) -> np.ndarray:
        """All parameters as one float64 vector, declaration order, row-major."""
        if not self.params:
            return np.zeros(0)
        return np.concatenate([p.ravel() for p in self.params])

    def with_flat_params(self, flat: np.ndarray) -> "Model":
        flat = np.asarray(flat, dtype=np.float64)
        if flat.size != self.param_count:
            raise ValueError("flat vector length does not match parameter count")
        out, pos = [], 0
        for p in self.params:
            out.append(flat[pos : pos + p.size].reshape(p.shape))
            pos += p.size
        return replace(self, params=tuple(out))


# ---------------------------------------------------------------------------
# Forward / backward.
# ---------------------------------------------------------------------------


def _im2col(x: np.ndarray, k: int) -> np.ndarray:
    """(B, C, H, W) -> (B, OH*OW, C*k*k) patch matrix for valid convolution."""
    b, c, h, w = x.shape
    oh, ow = h - k + 1, w - k + 1
    windows = np.lib.stride_tricks.sliding_window_view(x, (k, k), axis=(2, 3))
    # (B, C, OH, OW, k, k) -> (B, OH, OW, C, k, k)
    return windows.transpose(0, 2, 3, 1, 4, 5).reshape(b, oh * ow, c * k * k)


def _col2im(cols: np.ndarray, x_shape: tuple[int, ...], k: int) -> np.ndarray:
    """Adjoint of :func:`_im2col`: scatter patch gradients back to the image."""
    b, c, h, w = x_shape
    oh, ow = h - k + 1, w - k + 1
    grads = cols.reshape(b, oh, ow, c, k, k)
    out = np.zeros(x_shape)
    for di in range(k):
        for dj in range(k):
            out[:, :, di : di + oh, dj : dj + ow] += grads[:, :, :, :, di, dj].transpose(0, 3, 1, 2)
    return out


# In-place invariant: a layer writes only into an array it allocated, or
# one an earlier layer of the same pass allocated (``owned``); never into
# the caller's batch or a view of it, so Flatten passes ownership on
# unchanged.  Dense and Conv2D add the bias into their matmul output, and
# ReLU clamps an owned input in place; its backward mask reads the clamped
# array, which is positive exactly where the input was.  Why: a fresh
# temporary per add or clamp, 400-800 KB at evaluation batch sizes, is
# returned to glibc, which trims the top of the heap and faults the pages
# back in on the next layer, hundreds of minor faults per forward pass.


def _layer_forward(layer: LayerSpec, x: np.ndarray, params: list[np.ndarray], owned: bool):
    if isinstance(layer, Dense):
        w, b = params
        out = x @ w
        out += b
        return out, x
    if isinstance(layer, Conv2D):
        kern, b = params
        cols = _im2col(x, layer.kernel)
        kmat = kern.reshape(layer.out_ch, -1)
        out = cols @ kmat.T
        out += b
        bsz = x.shape[0]
        oh = x.shape[2] - layer.kernel + 1
        ow = x.shape[3] - layer.kernel + 1
        return out.reshape(bsz, oh, ow, layer.out_ch).transpose(0, 3, 1, 2), (x.shape, cols)
    if isinstance(layer, ReLU):
        return np.maximum(x, 0.0, out=x if owned else None), x
    if isinstance(layer, AvgPool):
        b, c, h, w = x.shape
        s = layer.size
        return x.reshape(b, c, h // s, s, w // s, s).mean(axis=(3, 5)), x.shape
    if isinstance(layer, Flatten):
        return x.reshape(x.shape[0], -1), x.shape
    raise TypeError(f"unknown layer {layer!r}")


def _layer_backward(layer: LayerSpec, grad: np.ndarray, cache, params: list[np.ndarray],
                    input_grad: bool):
    """The gradient with respect to the layer's input (None for a Dense or
    Conv2D layer when ``input_grad`` is off) and its parameter gradients."""
    if isinstance(layer, Dense):
        w, _ = params
        x = cache
        return grad @ w.T if input_grad else None, [x.T @ grad, grad.sum(axis=0)]
    if isinstance(layer, Conv2D):
        kern, _ = params
        x_shape, cols = cache
        bsz = grad.shape[0]
        gmat = grad.transpose(0, 2, 3, 1).reshape(bsz, -1, layer.out_ch)
        dk = np.einsum("bpo,bpi->oi", gmat, cols).reshape(kern.shape)
        db = gmat.sum(axis=(0, 1))
        if not input_grad:
            return None, [dk, db]
        dcols = gmat @ kern.reshape(layer.out_ch, -1)
        return _col2im(dcols, x_shape, layer.kernel), [dk, db]
    if isinstance(layer, ReLU):
        return grad * (cache > 0), []
    if isinstance(layer, AvgPool):
        b, c, h, w = cache
        s = layer.size
        up = np.repeat(np.repeat(grad, s, axis=2), s, axis=3) / (s * s)
        return up, []
    if isinstance(layer, Flatten):
        return grad.reshape(cache), []
    raise TypeError(f"unknown layer {layer!r}")


def _split_params(layers: tuple[LayerSpec, ...], tensors) -> list[list[np.ndarray]]:
    groups, pos = [], 0
    for layer in layers:
        n = len(_param_shapes(layer))
        groups.append(list(tensors[pos : pos + n]))
        pos += n
    return groups


def forward(model: Model, x: np.ndarray) -> np.ndarray:
    """Logits for a batch; classification is the argmax (lowest index wins ties)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[1:] != model.input_shape:
        raise ValueError(f"input shape {x.shape[1:]}, model expects {model.input_shape}")
    groups = _split_params(model.layers, model.params)
    owned = False
    for layer, params in zip(model.layers, groups):
        x, _ = _layer_forward(layer, x, params, owned)
        owned = owned or not isinstance(layer, Flatten)
    return x


def _forward_backward(layers: tuple[LayerSpec, ...], tensors, x: np.ndarray,
                      labels: np.ndarray) -> list[np.ndarray]:
    """Parameter gradients of the mean cross-entropy loss for one batch."""
    groups = _split_params(layers, tensors)
    caches = []
    out, owned = x, False
    for layer, params in zip(layers, groups):
        out, cache = _layer_forward(layer, out, params, owned)
        caches.append(cache)
        owned = owned or not isinstance(layer, Flatten)
    # The loss gradient, softmax(out) - onehot(labels), formed in place.
    grad = out - out.max(axis=1, keepdims=True)
    np.exp(grad, out=grad)
    grad /= grad.sum(axis=1, keepdims=True)
    grad[np.arange(x.shape[0]), labels] -= 1.0
    grad /= x.shape[0]

    # Nothing reads the gradient with respect to the batch itself, so the
    # first layer skips it.
    grads: list[np.ndarray] = []
    for i in reversed(range(len(layers))):
        grad, pgrads = _layer_backward(layers[i], grad, caches[i], groups[i], input_grad=i > 0)
        grads = pgrads + grads
    return grads


def train_local(start: Model, data: Dataset, *, learning_rate: float, epochs: int,
                batch_size: int, seed: int) -> Model:
    """Mini-batch gradient descent from ``start``; returns the updated model.

    Batch order is fixed by ``seed``, so identical inputs give identical
    models.  The parameters are checked once, when the result is built, not
    after every step: a run that diverges to inf or NaN raises
    NonFiniteParameterError, and the overflow on the way prints no warning.
    """
    if len(data) == 0:
        raise ValueError("empty dataset")
    if data.labels.max() >= _class_count(start):
        raise ValueError("label outside the model's class range")
    rng = np.random.Generator(np.random.PCG64(seed))
    params = list(start.params)
    feats = np.asarray(data.features, dtype=np.float64)

    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(epochs):
            order = rng.permutation(len(data))
            for lo in range(0, len(data), batch_size):
                idx = order[lo : lo + batch_size]
                grads = _forward_backward(start.layers, params, feats[idx], data.labels[idx])
                for j, (p, g) in enumerate(zip(params, grads)):
                    params[j] = p - learning_rate * g
    return replace(start, params=tuple(params))


def _class_count(model: Model) -> int:
    return model.output_shape[0]


def evaluate(model: Model, data: Dataset) -> float:
    """Fraction of argmax predictions matching the labels.

    A row whose logits are not all finite counts as a miss: its argmax
    would name the first NaN, not a class the model chose.
    """
    if len(data) == 0:
        raise ValueError("empty dataset")
    with np.errstate(over="ignore", invalid="ignore"):
        logits = forward(model, data.features)
    hits = (np.argmax(logits, axis=1) == data.labels) & np.isfinite(logits).all(axis=1)
    return float(np.mean(hits))


# ---------------------------------------------------------------------------
# Canonical serialization.
# ---------------------------------------------------------------------------


def serialize(model: Model) -> bytes:
    """The canonical bytes of ``model``, all integers little-endian: the
    magic ``FCNN``, the version (u8), the input rank (u8) and each input
    dimension (u32), the layer count (u8), then per layer its code (u8:
    Dense 1, Conv2D 2, ReLU 3, AvgPool 4, Flatten 5) and fields (u32:
    Dense in_dim, out_dim; Conv2D in_ch, out_ch, kernel; AvgPool size),
    then every parameter as row-major ``<f8`` in declaration order."""
    out = bytearray()
    out += _MAGIC
    out += struct.pack("<BB", _VERSION, len(model.input_shape))
    for d in model.input_shape:
        out += struct.pack("<I", d)
    out += struct.pack("<B", len(model.layers))
    for layer in model.layers:
        out += struct.pack("<B", _LAYER_CODES[type(layer)])
        if isinstance(layer, Dense):
            out += struct.pack("<II", layer.in_dim, layer.out_dim)
        elif isinstance(layer, Conv2D):
            out += struct.pack("<III", layer.in_ch, layer.out_ch, layer.kernel)
        elif isinstance(layer, AvgPool):
            out += struct.pack("<I", layer.size)
    for p in model.params:
        out += np.ascontiguousarray(p, dtype="<f8").tobytes()
    return bytes(out)


# ---------------------------------------------------------------------------
# Seeded initializers.
# ---------------------------------------------------------------------------


def init_mlp(input_dim: int, hidden: list[int], classes: int, seed: int) -> Model:
    """Glorot-uniform MLP with ReLU between dense layers."""
    rng = np.random.Generator(np.random.PCG64(seed))
    dims = [input_dim] + list(hidden) + [classes]
    layers: list[LayerSpec] = []
    params: list[np.ndarray] = []
    for i in range(len(dims) - 1):
        layers.append(Dense(dims[i], dims[i + 1]))
        limit = np.sqrt(6.0 / (dims[i] + dims[i + 1]))
        params.append(rng.uniform(-limit, limit, size=(dims[i], dims[i + 1])))
        params.append(np.zeros(dims[i + 1]))
        if i < len(dims) - 2:
            layers.append(ReLU())
    return Model((input_dim,), tuple(layers), tuple(params))


def init_cnn(input_shape: tuple[int, int, int], channels: int, kernel: int,
             classes: int, seed: int, pool: int = 2) -> Model:
    """One-convolution CNN: conv -> relu -> avgpool -> flatten -> dense."""
    rng = np.random.Generator(np.random.PCG64(seed))
    c, h, w = input_shape
    layers: list[LayerSpec] = [Conv2D(c, channels, kernel), ReLU(), AvgPool(pool), Flatten()]
    oh, ow = (h - kernel + 1) // pool, (w - kernel + 1) // pool
    flat = channels * oh * ow
    layers.append(Dense(flat, classes))
    fan = c * kernel * kernel
    limit = np.sqrt(6.0 / (fan + channels))
    params = [
        rng.uniform(-limit, limit, size=(channels, c, kernel, kernel)),
        np.zeros(channels),
        rng.uniform(-np.sqrt(6.0 / (flat + classes)), np.sqrt(6.0 / (flat + classes)),
                    size=(flat, classes)),
        np.zeros(classes),
    ]
    return Model(input_shape, tuple(layers), tuple(params))
