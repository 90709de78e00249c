import struct

import numpy as np
import pytest


@pytest.fixture
def idx_pair(tmp_path):
    """Paths of a big-endian IDX image/label pair in ``tmp_path``: 100 12x12
    images in each of 4 classes, one fixed random pattern per class blended
    70/30 with per-image uniform noise."""
    rng = np.random.Generator(np.random.PCG64(3))
    patterns = rng.random((4, 12, 12))
    labels = np.repeat(np.arange(4, dtype=np.uint8), 100)
    rng.shuffle(labels)
    noise = rng.random((labels.size, 12, 12))
    pixels = np.clip((0.7 * patterns[labels] + 0.3 * noise) * 255.0, 0, 255).astype(np.uint8)
    images, label_file = tmp_path / "images.idx", tmp_path / "labels.idx"
    images.write_bytes(struct.pack(">IIII", 0x00000803, labels.size, 12, 12)
                       + pixels.tobytes())
    label_file.write_bytes(struct.pack(">II", 0x00000801, labels.size) + labels.tobytes())
    return str(images), str(label_file)
