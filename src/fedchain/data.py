"""A run's two inputs, seeded Gaussian clusters (``gen_synthetic``) or an
IDX image/label file pair (``load_idx``), and client sharding."""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


class DataFormatError(ValueError):
    """A dataset file could not be read or failed structural validation;
    ``param`` names the :func:`load_idx` argument that gave its path."""

    def __init__(self, param: str, path: str, reason: str) -> None:
        super().__init__(f"{path}: {reason}")
        self.param = param


@dataclass
class Dataset:
    """Feature batch plus integer class labels."""

    features: np.ndarray  # (N, ...) float64
    labels: np.ndarray    # (N,) int64
    class_count: int

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.shape[0] != self.labels.shape[0]:
            raise ValueError("feature/label counts differ")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.class_count):
            raise ValueError("label outside [0, class_count)")

    def __len__(self) -> int:
        return self.labels.size

    def subset(self, idx: np.ndarray) -> "Dataset":
        return Dataset(self.features[idx], self.labels[idx], self.class_count)


def gen_synthetic(classes: int, dims: int, per_class: int, seed: int,
                  separation: float = 4.0) -> Dataset:
    """Unit-variance Gaussian clusters with class-separated means.

    Mean directions are random unit vectors scaled by ``separation``; in
    more than a few dimensions these are nearly orthogonal, so clusters are
    linearly separable at the default spacing.
    """
    if classes < 2:
        raise ValueError("need at least 2 classes")
    rng = np.random.Generator(np.random.PCG64(seed))
    dirs = rng.standard_normal((classes, dims))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    means = dirs * separation
    feats = np.concatenate(
        [means[c] + rng.standard_normal((per_class, dims)) for c in range(classes)]
    )
    labels = np.repeat(np.arange(classes, dtype=np.int64), per_class)
    order = rng.permutation(classes * per_class)
    return Dataset(feats[order], labels[order], classes)


def load_idx(images_path: str, labels_path: str) -> Dataset:
    """Load the big-endian IDX image/label pair format, scaling pixels to [0, 1].
    An unreadable or malformed file raises DataFormatError naming it."""
    raw = _read("images_path", images_path)
    if len(raw) < 16:
        raise DataFormatError("images_path", images_path, "truncated before header")
    magic, count, rows, cols = struct.unpack(">IIII", raw[:16])
    if magic != IDX_IMAGES_MAGIC:
        raise DataFormatError("images_path", images_path, f"bad images magic 0x{magic:08x}")
    if count == 0:
        raise DataFormatError("images_path", images_path, "holds no images")
    need = 16 + count * rows * cols
    if len(raw) != need:
        raise DataFormatError("images_path", images_path,
                              f"images payload {len(raw) - 16} bytes, expected {need - 16}")
    images = np.frombuffer(raw, dtype=np.uint8, offset=16).reshape(count, rows, cols)

    lraw = _read("labels_path", labels_path)
    if len(lraw) < 8:
        raise DataFormatError("labels_path", labels_path, "truncated before header")
    lmagic, lcount = struct.unpack(">II", lraw[:8])
    if lmagic != IDX_LABELS_MAGIC:
        raise DataFormatError("labels_path", labels_path, f"bad labels magic 0x{lmagic:08x}")
    if lcount != count or len(lraw) != 8 + lcount:
        raise DataFormatError("labels_path", labels_path, "label count does not match images")
    labels = np.frombuffer(lraw, dtype=np.uint8, offset=8).astype(np.int64)
    return Dataset(images.astype(np.float64) / 255.0, labels, int(labels.max()) + 1)


def _read(param: str, path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise DataFormatError(param, path, exc.strerror or str(exc)) from exc


def partition(ds: Dataset, clients: int, seed: int) -> list[Dataset]:
    """Seeded shuffle then contiguous equal splits; the remainder goes to the
    last shard."""
    if clients < 1:
        raise ValueError("need at least one client")
    if clients > len(ds):
        raise ValueError(f"{clients} clients but only {len(ds)} samples")
    rng = np.random.Generator(np.random.PCG64(seed))
    order = rng.permutation(len(ds))
    size = len(ds) // clients
    shards = []
    for c in range(clients):
        lo = c * size
        hi = (c + 1) * size if c < clients - 1 else len(ds)
        shards.append(ds.subset(order[lo:hi]))
    return shards
