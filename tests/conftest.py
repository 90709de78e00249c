import struct

import numpy as np
import pytest


@pytest.fixture
def make_idx_pair(tmp_path):
    """A function that writes a big-endian IDX image/label pair in
    ``tmp_path`` and returns its paths: ``per_class[c]`` 12x12 images of
    class c, one fixed random pattern per class blended 70/30 with
    per-image uniform noise."""

    def make(per_class=(100, 100, 100, 100)):
        rng = np.random.Generator(np.random.PCG64(3))
        patterns = rng.random((len(per_class), 12, 12))
        labels = np.repeat(np.arange(len(per_class), dtype=np.uint8), per_class)
        rng.shuffle(labels)
        noise = rng.random((labels.size, 12, 12))
        pixels = np.clip((0.7 * patterns[labels] + 0.3 * noise) * 255.0, 0,
                         255).astype(np.uint8)
        images, label_file = tmp_path / "images.idx", tmp_path / "labels.idx"
        images.write_bytes(struct.pack(">IIII", 0x00000803, labels.size, 12, 12)
                           + pixels.tobytes())
        label_file.write_bytes(struct.pack(">II", 0x00000801, labels.size) + labels.tobytes())
        return str(images), str(label_file)

    return make


@pytest.fixture
def idx_pair(make_idx_pair):
    """Paths of the IDX pair ``make_idx_pair`` writes: 100 images in each of
    4 classes."""
    return make_idx_pair()
