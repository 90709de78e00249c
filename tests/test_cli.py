"""``fedchain chain verify`` on good, malformed, forged and missing chain files;
``fedchain chain dump`` into a reader that closes early; ``fedchain run`` on
configs whose files are missing or unreadable, or whose data cannot serve
them; and a run replayed from the ``config.json`` it wrote."""

import hashlib
import json
import struct
import subprocess
import sys
from pathlib import Path

import pytest

import fedchain
from fedchain import cli
from fedchain.config import LedgerConfig
from fedchain.ledger import Chain, load_chain, mine_block, save_chain


def write_chain(directory, difficulty):
    """A two-round chain with its model blobs beside it."""
    chain = Chain(difficulty=difficulty)
    for r in range(2):
        blob = bytes([r]) * 64
        ref = f"models/round_{r:04d}.bin"
        (directory / "models").mkdir(exist_ok=True)
        (directory / ref).write_bytes(blob)
        chain.append(mine_block(r, hashlib.sha256(blob).digest(), ref, chain, seq=len(chain)))
    save_chain(chain, str(directory / "chain.bin"))
    return directory / "chain.bin"


@pytest.fixture
def chain_dir(tmp_path):
    """A chain mined at the config's default difficulty."""
    write_chain(tmp_path, LedgerConfig().difficulty)
    return tmp_path


def test_verify_good_chain(chain_dir, capsys):
    assert cli.main(["chain", "verify", str(chain_dir / "chain.bin")]) == 0
    assert capsys.readouterr().out.strip() == "ok, 3 blocks"


def test_verify_takes_the_expected_difficulty_from_the_option(tmp_path, capsys):
    path = write_chain(tmp_path, 1)
    assert cli.main(["chain", "verify", str(path), "--difficulty", "1"]) == 0
    assert capsys.readouterr().out.strip() == "ok, 3 blocks"
    assert cli.main(["chain", "verify", str(path)]) == 1
    assert "stored difficulty 1, expected 2" in capsys.readouterr().out


def test_verify_rejects_a_zeroed_difficulty_byte(chain_dir, capsys):
    path = chain_dir / "chain.bin"
    raw = bytearray(path.read_bytes())
    raw[5] = 0  # the difficulty byte follows the 5-byte magic
    path.write_bytes(bytes(raw))
    assert cli.main(["chain", "verify", str(path)]) == 1
    assert capsys.readouterr().out.strip() == "invalid chain: stored difficulty 0, expected 2"


def test_verify_rejects_a_forgery_remined_at_difficulty_zero(chain_dir, capsys):
    # Replace the last block's model digest with zeros, re-mine that block at
    # difficulty 0 and store difficulty 0: every hash and link is consistent.
    path = chain_dir / "chain.bin"
    honest = load_chain(str(path))
    forged = Chain(difficulty=0, blocks=honest.blocks[:-1])
    last = honest.blocks[-1]
    forged.append(mine_block(last.round, bytes(32), last.model_ref, forged,
                             seq=len(forged)))
    save_chain(forged, str(path))
    (chain_dir / last.model_ref).unlink()
    assert cli.main(["chain", "verify", str(path)]) == 1
    assert "stored difficulty 0, expected 2" in capsys.readouterr().out


def test_verify_truncated_chain(chain_dir, capsys):
    path = chain_dir / "chain.bin"
    path.write_bytes(path.read_bytes()[:-7])
    assert cli.main(["chain", "verify", str(path)]) == 1
    assert capsys.readouterr().err.startswith("invalid chain file: ")


def test_verify_rejects_a_chain_cut_at_a_frame_boundary(chain_dir, capsys):
    path = chain_dir / "chain.bin"
    last = load_chain(str(path)).blocks[-1]
    path.write_bytes(path.read_bytes()[: -(4 + len(last.header_bytes()) + len(last.hash))])
    assert cli.main(["chain", "verify", str(path)]) == 1
    assert capsys.readouterr().err.strip() == "invalid chain file: file holds 2 of its 3 blocks"


def test_verify_tampered_model_blob(chain_dir, capsys):
    (chain_dir / "models" / "round_0001.bin").write_bytes(b"tampered")
    assert cli.main(["chain", "verify", str(chain_dir / "chain.bin")]) == 1
    assert "round 1 do not match" in capsys.readouterr().out


def test_verify_missing_chain(tmp_path, capsys):
    assert cli.main(["chain", "verify", str(tmp_path / "absent.bin")]) == 1
    assert capsys.readouterr().err.startswith("no chain file at ")


def test_run_refuses_an_idx_config_without_its_files(tmp_path, capsys):
    config = tmp_path / "idx.json"
    config.write_text(json.dumps({"data": {"kind": "idx"}}))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(config), "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == (
        "config error: data.images_path, data.labels_path: both required when kind is idx\n")
    assert not out.exists()


def test_verify_refuses_a_difficulty_byte_above_64(chain_dir, capsys):
    path = chain_dir / "chain.bin"
    raw = bytearray(path.read_bytes())
    raw[5] = 200
    path.write_bytes(bytes(raw))
    assert cli.main(["chain", "verify", str(path), "--difficulty", "200"]) == 1
    assert capsys.readouterr().err == (
        "invalid chain file: difficulty 200 exceeds the 64 hex digits of a SHA-256 hash\n")


def test_dump_into_a_reader_that_closes_early_ends_quietly(tmp_path):
    # About 400 KB of dump, far more than a pipe buffers, so the reader's
    # close after one line lands while the dump is still being written.
    chain = Chain(difficulty=0)
    for r in range(200):
        chain.append(mine_block(r, bytes(32), "models/" + "x" * 2000, chain, seq=len(chain)))
    save_chain(chain, str(tmp_path / "chain.bin"))
    src = str(Path(fedchain.__file__).parents[1])
    proc = subprocess.Popen(
        [sys.executable, "-m", "fedchain", "chain", "dump", str(tmp_path / "chain.bin")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env={"PYTHONPATH": src})
    assert json.loads(proc.stdout.readline())["index"] == 0
    proc.stdout.close()
    assert proc.stderr.read() == b""
    assert proc.wait(timeout=120) == 0


def test_run_refuses_a_missing_config_file(tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(tmp_path / "absent.json"), "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error: config file: ")
    assert not out.exists()


IDX_IMAGES = struct.pack(">IIII", 0x00000803, 1, 2, 2) + bytes(4)


@pytest.mark.parametrize("images, labels, field", [
    (None, None, "images_path"),
    (b"\x00\x00\x08", None, "images_path"),
    (IDX_IMAGES, None, "labels_path"),
    (IDX_IMAGES, b"\x00\x00\x08", "labels_path"),
    (IDX_IMAGES[:4] + bytes(12), struct.pack(">II", 0x00000801, 0), "images_path"),
], ids=["images_missing", "images_3_bytes", "labels_missing", "labels_3_bytes", "no_images"])
def test_run_names_an_unreadable_idx_file(tmp_path, capsys, images, labels, field):
    paths = {"images_path": tmp_path / "images.idx", "labels_path": tmp_path / "labels.idx"}
    for path, content in zip(paths.values(), (images, labels)):
        if content is not None:
            path.write_bytes(content)
    config = tmp_path / "idx.json"
    config.write_text(json.dumps({"data": {"kind": "idx", **{k: str(v) for k, v in paths.items()}}}))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(config), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: data.{field}: {paths[field]}: ")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert not out.exists()


# The default data is 600 synthetic 32-dimensional samples in each of 4
# classes; a config whose data kind is idx reads a 4-class 12x12 IDX pair
# with 100 images per class, or with the counts its "idx_per_class" gives.
@pytest.mark.parametrize("raw, message", [
    ({"data": {"eval_count": 5000}},
     "data.eval_count, data.verified_count, data.clients: the splits need 5050 samples, "
     "and the dataset has 2400"),
    ({"model": {"kind": "cnn"}},
     "model.kind: cnn needs image-shaped features (h, w) or (c, h, w), "
     "and data.kind synthetic gives shape (32,)"),
    ({"data": {"verified_count": 3}},
     "data.verified_count: 3 gives no verified sample per class; the data has 4 classes"),
    ({"data": {"eval_count": 0}}, "data.eval_count: need at least 1"),
    ({"data": {"kind": "idx", "classes": 10}, "attack": {"source_class": 7}},
     "attack.source_class: 7 is not a class of the data, which has 4 classes"),
    ({"data": {"kind": "idx"}, "model": {"kind": "cnn", "kernel": 20}},
     "model.kernel: 20 is larger than the 12x12 images"),
    ({"data": {"kind": "idx"}, "model": {"kind": "cnn", "kernel": 2}},
     "model.kernel, model.pool: a pool of 2 cannot tile the 11x11 output of kernel 2 "
     "on 12x12 images"),
    ({"data": {"kind": "idx"}, "model": {"kind": "cnn", "pool": 0}},
     "model.pool: must be at least 1"),
    ({"data": {"kind": "idx"}, "model": {"kind": "cnn", "conv_channels": 0}},
     "model.conv_channels: must be at least 1"),
    ({"model": {"hidden": [-3]}}, "model.hidden: every layer needs at least 1 unit"),
    ({"model": {"hidden": [0]}}, "model.hidden: every layer needs at least 1 unit"),
    ({"data": {"dims": 0}}, "data.dims: must be at least 1"),
    ({"data": {"per_class": -1}}, "data.per_class: must be at least 1"),
    ({"data": {"separation": float("nan")}}, "data.separation: must be a finite number, got nan"),
    ({"train": {"epochs_per_round": -1}}, "train.epochs_per_round: must be at least 1"),
    ({"data": {"kind": "idx", "eval_count": 40, "verified_count": 40},
      "idx_per_class": (100, 100, 100, 2)},
     "data.verified_count: 40 needs 10 verified samples of each class, and class 3 has 2 "
     "left after the evaluation split"),
], ids=["eval_count_5000", "cnn_on_flat_features", "verified_count_3", "eval_count_0",
        "idx_source_class_7", "cnn_kernel_20", "cnn_kernel_2", "cnn_pool_0",
        "cnn_conv_channels_0", "hidden_minus_3", "hidden_0", "dims_0", "per_class_minus_1",
        "separation_nan", "epochs_minus_1", "idx_class_3_short"])
def test_run_refuses_a_config_its_data_cannot_serve(tmp_path, capsys, make_idx_pair, raw,
                                                    message):
    per_class = raw.pop("idx_per_class", (100, 100, 100, 100))
    if raw.get("data", {}).get("kind") == "idx":
        raw["data"].update(zip(("images_path", "labels_path"), make_idx_pair(per_class)))
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(config), "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


def test_attack_classes_are_checked_against_the_loaded_labels(tmp_path, idx_pair):
    # data.classes is ignored by an idx input, whose labels hold 4 classes,
    # so class 3 can be flipped.
    images, labels = idx_pair
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "data": {"kind": "idx", "images_path": images, "labels_path": labels, "classes": 2,
                 "clients": 4, "eval_count": 40, "verified_count": 8},
        "attack": {"malicious_fraction": 0.25, "source_class": 3},
        "train": {"rounds": 1}, "ledger": {"difficulty": 1}}))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(config), "--out-dir", str(out)]) == 0
    assert cli.main(["chain", "verify", str(out / "chain.bin"), "--difficulty", "1"]) == 0


def test_a_run_replays_from_its_config_json(tmp_path):
    config = tmp_path / "verifier.json"
    config.write_text(json.dumps({
        "data": {"per_class": 150, "clients": 4, "eval_count": 100, "verified_count": 16},
        "train": {"rounds": 2}, "verifier": {"enabled": True},
        "aggregation": {"nodes": 3}, "ledger": {"difficulty": 1}}))
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run", "--config", str(config), "--seed", "7", "--out-dir", str(a)]) == 0
    assert cli.main(["run", "--config", str(a / "config.json"), "--out-dir", str(b)]) == 0
    assert json.loads((a / "config.json").read_text())["seeds"]["master"] == 7
    models = sorted(p.name for p in (a / "models").iterdir())
    assert models == sorted(p.name for p in (b / "models").iterdir()) and models
    for name in ["config.json", "metrics.jsonl", "chain.bin"] + [f"models/{m}" for m in models]:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
