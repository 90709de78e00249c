"""Pinned workload configs and the seeded inputs they read.

Every config value the pipeline's cost or outcome depends on is written out,
so a change of default in ``fedchain.config`` does not silently change a
workload.  The seed fixes the master seed and, for ``cnn-verify``, the
generated images; the program receives only the config and the files.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

WORKLOADS = ("mlp-verify", "cnn-verify", "agg-ledger")
# The workloads BENCHMARK.json lists.  cnn-verify runs on request only: with
# three workloads, the time the whole benchmark may take leaves runs too short
# to give steady figures on a shared machine.
GATED = ("mlp-verify", "agg-ledger")

IMAGE_SIDE = 16
IMAGE_CLASSES = 4
IMAGES_PER_CLASS = 300


def write_idx_images(directory: Path, seed: int, per_class: int = IMAGES_PER_CLASS,
                     classes: int = IMAGE_CLASSES, side: int = IMAGE_SIDE) -> tuple[Path, Path]:
    """Write a big-endian IDX image/label pair: one fixed random pattern per
    class, blended 70/30 with per-image uniform noise."""
    rng = np.random.Generator(np.random.PCG64(seed))
    patterns = rng.random((classes, side, side))
    labels = np.repeat(np.arange(classes, dtype=np.uint8), per_class)
    rng.shuffle(labels)
    noise = rng.random((labels.size, side, side))
    pixels = np.clip((0.7 * patterns[labels] + 0.3 * noise) * 255.0, 0, 255).astype(np.uint8)
    directory.mkdir(parents=True, exist_ok=True)
    images_path = directory / "images.idx"
    labels_path = directory / "labels.idx"
    images_path.write_bytes(struct.pack(">IIII", 0x00000803, labels.size, side, side)
                            + pixels.tobytes())
    labels_path.write_bytes(struct.pack(">II", 0x00000801, labels.size) + labels.tobytes())
    return images_path, labels_path


def make_config(name: str, seed: int, input_dir: Path, tiny: bool = False) -> dict:
    """Raw config for one workload; ``tiny`` shrinks it for the smoke tests."""
    if name == "mlp-verify":
        # The ROADMAP baseline config, cut from 5 rounds to 1 so that several
        # fresh-process repetitions fit in one measured run, and trained 16
        # epochs instead of 2: with 2, about 3 % of input sets have every
        # round-0 model rejected and the round aborts; with 4, the final
        # accuracy still spreads 16 % across input sets (5 % with 16).
        # Training stays about 3 % of the run.
        cfg = {
            "data": {"kind": "synthetic", "classes": 4, "dims": 32, "per_class": 600,
                     "separation": 4.0, "clients": 10, "eval_count": 400,
                     "verified_count": 40},
            "model": {"kind": "mlp", "hidden": [16]},
            "train": {"learning_rate": 0.05, "epochs_per_round": 16, "batch_size": 64,
                      "rounds": 1, "optimizer": "sgd"},
            "attack": {"malicious_fraction": 0.3, "source_class": 0, "target_class": 1,
                       "flip_fraction": 1.0, "scale_factor": 1.0},
            "verifier": {"enabled": True, "mode": "encrypted", "threshold_rule": "relative",
                         "ban_on_rejection": False},
            "aggregation": {"nodes": 5},
            "ledger": {"difficulty": 2},
        }
        if tiny:
            cfg["data"].update(clients=3, verified_count=8)
            cfg["train"]["rounds"] = 1
    elif name == "cnn-verify":
        images, labels = write_idx_images(input_dir, seed)
        cfg = {
            "data": {"kind": "idx", "images_path": str(images), "labels_path": str(labels),
                     "classes": IMAGE_CLASSES, "clients": 4, "eval_count": 200,
                     "verified_count": 12},
            "model": {"kind": "cnn", "conv_channels": 4, "kernel": 3, "pool": 2},
            # Batch 8 and 4 epochs: enough steps that every benign client
            # passes the round-0 threshold, so the single round never aborts.
            "train": {"learning_rate": 0.1, "epochs_per_round": 4, "batch_size": 8,
                      "rounds": 1, "optimizer": "sgd"},
            "attack": {"malicious_fraction": 0.25, "source_class": 0, "target_class": 1,
                       "flip_fraction": 1.0, "scale_factor": 1.0},
            "verifier": {"enabled": True, "mode": "encrypted", "threshold_rule": "relative",
                         "ban_on_rejection": False},
            "aggregation": {"nodes": 5},
            "ledger": {"difficulty": 2},
        }
        if tiny:
            cfg["data"].update(eval_count=40, verified_count=4)
    elif name == "agg-ledger":
        cfg = {
            "data": {"kind": "synthetic", "classes": 4, "dims": 64, "per_class": 600,
                     "separation": 4.0, "clients": 10, "eval_count": 400,
                     "verified_count": 40},
            "model": {"kind": "mlp", "hidden": [256, 128]},
            "train": {"learning_rate": 0.05, "epochs_per_round": 1, "batch_size": 64,
                      "rounds": 10, "optimizer": "sgd"},
            "attack": {"malicious_fraction": 0.0},
            "verifier": {"enabled": False},
            "aggregation": {"nodes": 20},
            "ledger": {"difficulty": 4},
        }
        if tiny:
            cfg["data"].update(per_class=60, clients=3, eval_count=40, verified_count=4)
            cfg["model"]["hidden"] = [16]
            cfg["train"]["rounds"] = 2
            cfg["aggregation"]["nodes"] = 3
            cfg["ledger"]["difficulty"] = 1
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    cfg["seeds"] = {"master": seed}
    return cfg
