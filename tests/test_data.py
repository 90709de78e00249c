import struct

import numpy as np
import pytest

from fedchain.data import (
    DataFormatError,
    Dataset,
    gen_synthetic,
    load_idx,
    partition,
)
from fedchain.nn import Dense, Model, evaluate, train_local


def write_idx_fixture(tmp_path, images: np.ndarray, labels: np.ndarray):
    """Independent IDX writer: big-endian magics and dims, raw payload."""
    n, rows, cols = images.shape
    img_path = tmp_path / "images.idx"
    lbl_path = tmp_path / "labels.idx"
    with open(img_path, "wb") as fh:
        fh.write(struct.pack(">IIII", 0x00000803, n, rows, cols))
        fh.write(images.astype(np.uint8).tobytes())
    with open(lbl_path, "wb") as fh:
        fh.write(struct.pack(">II", 0x00000801, n))
        fh.write(labels.astype(np.uint8).tobytes())
    return str(img_path), str(lbl_path)


class TestSynthetic:
    def test_sample_count(self):
        ds = gen_synthetic(4, 8, 10, seed=0)
        assert len(ds) == 40
        assert ds.features.shape == (40, 8)

    def test_deterministic_per_seed(self):
        a = gen_synthetic(3, 5, 7, seed=1)
        b = gen_synthetic(3, 5, 7, seed=1)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)
        c = gen_synthetic(3, 5, 7, seed=2)
        assert not np.array_equal(a.features, c.features)

    def test_linear_separability(self):
        ds = gen_synthetic(4, 16, 60, seed=3)
        probe = Model((16,), (Dense(16, 4),), (np.zeros((16, 4)), np.zeros(4)))
        trained = train_local(probe, ds, learning_rate=0.1, epochs=30, batch_size=16, seed=4)
        assert evaluate(trained, ds) > 0.9

    def test_needs_two_classes(self):
        with pytest.raises(ValueError):
            gen_synthetic(1, 4, 10, seed=5)


class TestIdxLoader:
    def test_golden_fixture_shapes(self, tmp_path):
        rng = np.random.Generator(np.random.PCG64(6))
        images = rng.integers(0, 256, (4, 28, 28), dtype=np.uint8)
        labels = np.array([0, 1, 2, 1], dtype=np.uint8)
        ds = load_idx(*write_idx_fixture(tmp_path, images, labels))
        assert ds.features.shape == (4, 28, 28)
        assert list(ds.labels) == [0, 1, 2, 1]
        assert ds.class_count == 3

    def test_pixel_scaling(self, tmp_path):
        images = np.full((1, 2, 2), 255, dtype=np.uint8)
        ds = load_idx(*write_idx_fixture(tmp_path, images, np.array([0, ], dtype=np.uint8)))
        assert np.all(ds.features == 1.0)

    def test_round_trip_reserialize(self, tmp_path):
        rng = np.random.Generator(np.random.PCG64(7))
        images = rng.integers(0, 256, (3, 5, 5), dtype=np.uint8)
        labels = np.array([1, 0, 1], dtype=np.uint8)
        ds = load_idx(*write_idx_fixture(tmp_path, images, labels))
        back = np.round(ds.features * 255.0).astype(np.uint8)
        assert np.array_equal(back, images)

    def test_bad_magic(self, tmp_path):
        img, lbl = write_idx_fixture(tmp_path, np.zeros((1, 2, 2), dtype=np.uint8),
                                     np.zeros(1, dtype=np.uint8))
        raw = bytearray(open(img, "rb").read())
        raw[3] = 0x99
        open(img, "wb").write(bytes(raw))
        with pytest.raises(DataFormatError, match="magic"):
            load_idx(img, lbl)

    def test_truncated_payload(self, tmp_path):
        img, lbl = write_idx_fixture(tmp_path, np.zeros((2, 3, 3), dtype=np.uint8),
                                     np.zeros(2, dtype=np.uint8))
        raw = open(img, "rb").read()
        open(img, "wb").write(raw[:-2])
        with pytest.raises(DataFormatError):
            load_idx(img, lbl)

    def test_label_count_mismatch(self, tmp_path):
        img, _ = write_idx_fixture(tmp_path, np.zeros((2, 3, 3), dtype=np.uint8),
                                   np.zeros(2, dtype=np.uint8))
        lbl = tmp_path / "short_labels.idx"
        with open(lbl, "wb") as fh:
            fh.write(struct.pack(">II", 0x00000801, 1))
            fh.write(b"\x00")
        with pytest.raises(DataFormatError):
            load_idx(img, str(lbl))


class TestPartition:
    def test_even_split(self):
        ds = gen_synthetic(2, 4, 50, seed=8)
        shards = partition(ds, 10, seed=9)
        assert [len(s) for s in shards] == [10] * 10

    def test_remainder_to_last(self):
        ds = gen_synthetic(2, 4, 51, seed=10).subset(np.arange(101))
        shards = partition(ds, 10, seed=11)
        assert [len(s) for s in shards] == [10] * 9 + [11]

    def test_union_is_original_multiset(self):
        ds = gen_synthetic(3, 4, 30, seed=12)
        shards = partition(ds, 7, seed=13)
        merged = np.concatenate([s.features for s in shards])
        assert sorted(map(tuple, merged)) == sorted(map(tuple, ds.features))

    def test_too_many_clients(self):
        ds = gen_synthetic(2, 4, 2, seed=14)
        with pytest.raises(ValueError):
            partition(ds, 5, seed=15)

    def test_fuzz_disjoint_and_covering(self):
        rng = np.random.Generator(np.random.PCG64(16))
        for trial in range(10**3):
            n = int(rng.integers(2, 40))
            clients = int(rng.integers(1, n + 1))
            feats = np.arange(n, dtype=np.float64).reshape(n, 1)
            ds = Dataset(feats, np.zeros(n, dtype=np.int64), 1)
            shards = partition(ds, clients, seed=trial)
            seen = np.concatenate([s.features[:, 0] for s in shards])
            assert len(seen) == n
            assert set(seen.astype(int)) == set(range(n))


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(np.zeros((3, 2)), np.zeros(2, dtype=np.int64), 2)
    with pytest.raises(ValueError):
        Dataset(np.zeros((2, 2)), np.array([0, 5]), 3)
