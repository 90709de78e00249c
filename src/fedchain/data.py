"""A run's two inputs, seeded Gaussian clusters (``gen_synthetic``) or an
IDX image/label file pair (``load_idx``), and client sharding."""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


class DataFormatError(ValueError):
    """A dataset file failed structural validation."""


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
    """Load the big-endian IDX image/label pair format, scaling pixels to [0, 1]."""
    with open(images_path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 16:
        raise DataFormatError("images file truncated before header")
    magic, count, rows, cols = struct.unpack(">IIII", raw[:16])
    if magic != IDX_IMAGES_MAGIC:
        raise DataFormatError(f"bad images magic 0x{magic:08x}")
    need = 16 + count * rows * cols
    if len(raw) != need:
        raise DataFormatError(f"images payload {len(raw) - 16} bytes, expected {need - 16}")
    images = np.frombuffer(raw, dtype=np.uint8, offset=16).reshape(count, rows, cols)

    with open(labels_path, "rb") as fh:
        lraw = fh.read()
    if len(lraw) < 8:
        raise DataFormatError("labels file truncated before header")
    lmagic, lcount = struct.unpack(">II", lraw[:8])
    if lmagic != IDX_LABELS_MAGIC:
        raise DataFormatError(f"bad labels magic 0x{lmagic:08x}")
    if lcount != count or len(lraw) != 8 + lcount:
        raise DataFormatError("label count does not match images")
    labels = np.frombuffer(lraw, dtype=np.uint8, offset=8).astype(np.int64)
    return Dataset(images.astype(np.float64) / 255.0, labels, int(labels.max()) + 1)


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
