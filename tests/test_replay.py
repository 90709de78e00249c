"""Golden end-to-end replay: a small verifier-on run must reproduce its
artifacts byte for byte.

The artifacts record verdicts, accuracies and committed models, not shares
or logits, so this catches a change in training, aggregation, the chain
format or any verdict; bit-level PRG and key changes are pinned by
``test_prg`` and ``test_fss``.  The same config has a golden under the
plaintext verifier too, and, run once with the verifier and once without it
on one seed, pins what verification buys.
"""

import copy
import hashlib

import pytest

from fedchain import cli
from fedchain.config import validate
from fedchain.simulation import run_experiment

# Four clients, one label flipper, two rounds; the absolute threshold rejects
# the flipper's round-0 model, so the rejection path is pinned too.
CONFIG = {
    "data": {"kind": "synthetic", "classes": 4, "dims": 32, "per_class": 150,
             "separation": 4.0, "clients": 4, "eval_count": 100, "verified_count": 16},
    "model": {"kind": "mlp", "hidden": [16]},
    "train": {"learning_rate": 0.05, "epochs_per_round": 4, "batch_size": 32,
              "rounds": 2, "optimizer": "sgd"},
    "attack": {"malicious_fraction": 0.25, "source_class": 0, "target_class": 1,
               "flip_fraction": 1.0, "scale_factor": 1.0},
    "verifier": {"enabled": True, "mode": "encrypted", "threshold_rule": "absolute",
                 "threshold_value": 0.6, "ban_on_rejection": False},
    "aggregation": {"nodes": 3},
    "ledger": {"difficulty": 1},
    "seeds": {"master": 7},
}

# chain.bin was re-recorded when the file format gained its version-2 header
# (a block count after the difficulty byte); the blocks themselves and
# metrics.jsonl did not change.
GOLDEN_SHA256 = {
    "metrics.jsonl": "b70c117815da6e5b92586d0122744515466231c4e478071b2cd75f45d7b2eddf",
    "chain.bin": "b7dc79151d2e92074b50babd6ef0b3c8158629526dd3499517472a34a49b0161",
}


def test_golden_replay(tmp_path):
    summary = run_experiment(validate(CONFIG), tmp_path)
    assert not summary["aborted"]
    assert summary["rounds_completed"] == 2
    assert summary["detector_recall"] == 0.5  # the flipper is caught in round 0 only
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in GOLDEN_SHA256}
    assert got == GOLDEN_SHA256


# The same config with the plaintext verifier.  Its scores equal the
# encrypted ones on every model of the run (the opened logits keep every
# argmax), so its artifacts are the encrypted golden's bytes; they are
# pinned apart because the plaintext branch scores through its own call.
PLAINTEXT_GOLDEN_SHA256 = {
    "metrics.jsonl": "b70c117815da6e5b92586d0122744515466231c4e478071b2cd75f45d7b2eddf",
    "chain.bin": "b7dc79151d2e92074b50babd6ef0b3c8158629526dd3499517472a34a49b0161",
}


def test_plaintext_golden_replay(tmp_path):
    raw = copy.deepcopy(CONFIG)
    raw["verifier"]["mode"] = "plaintext"
    summary = run_experiment(validate(raw), tmp_path)
    assert summary["rounds_completed"] == 2 and summary["detector_recall"] == 0.5
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in PLAINTEXT_GOLDEN_SHA256}
    assert got == PLAINTEXT_GOLDEN_SHA256


@pytest.mark.parametrize("rounds, mode", [(1, "plaintext"), (1, "encrypted"), (2, "encrypted")],
                         ids=["1_round_plaintext", "1_round_encrypted", "2_rounds_encrypted"])
def test_verification_gains_over_the_same_run_without_it(rounds, mode):
    # What verification buys is the paired difference of two runs on one
    # seed: without the verifier the flipper's model is averaged in, with it
    # the flipper's round-0 model is rejected.
    raw = copy.deepcopy(CONFIG)
    raw["train"]["rounds"] = rounds
    raw["verifier"]["mode"] = mode
    on = run_experiment(validate(raw))
    raw["verifier"]["enabled"] = False
    off = run_experiment(validate(raw))
    assert on["detector_recall"] == 1.0 / rounds
    gain = on["final_global_accuracy"] - off["final_global_accuracy"]
    assert gain > 0
    if rounds == 1:
        # Pinned exactly: both modes reject the same model, so both commit
        # the same aggregate.
        assert gain == 0.050000000000000044


# One verifier-on round of a CNN (Conv2D, ReLU, AvgPool, Flatten, Dense) on
# IDX images, so the convolutional encrypted path runs end to end; the
# flipper's model is rejected.
CNN_GOLDEN_SHA256 = {
    "metrics.jsonl": "528e9acdcefedf3344dc1081dca9b36327d3225f35de8fd06887803fc05f6bef",
    "chain.bin": "78fb91e602843a7b102d1c1587d8f58fb528d607f12bce4b47655b1fcd305250",
}


def test_cnn_idx_run_golden(tmp_path, capsys, idx_pair):
    images, labels = idx_pair
    raw = {
        "data": {"kind": "idx", "images_path": images, "labels_path": labels, "classes": 4,
                 "clients": 4, "eval_count": 40, "verified_count": 8},
        "model": {"kind": "cnn", "conv_channels": 4, "kernel": 3, "pool": 2},
        "train": {"learning_rate": 0.1, "epochs_per_round": 4, "batch_size": 8,
                  "rounds": 1, "optimizer": "sgd"},
        "attack": {"malicious_fraction": 0.25, "source_class": 0, "target_class": 1,
                   "flip_fraction": 1.0, "scale_factor": 1.0},
        "verifier": {"enabled": True, "mode": "encrypted", "threshold_rule": "relative",
                     "ban_on_rejection": False},
        "aggregation": {"nodes": 3},
        "ledger": {"difficulty": 1},
        "seeds": {"master": 5},
    }
    out = tmp_path / "run"
    summary = run_experiment(validate(raw), out)
    assert summary["rounds_completed"] == 1
    assert summary["detector_recall"] == 1.0
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
           for name in CNN_GOLDEN_SHA256}
    assert got == CNN_GOLDEN_SHA256
    assert cli.main(["chain", "verify", str(out / "chain.bin"), "--difficulty", "1"]) == 0
