"""Golden end-to-end replay: a small verifier-on run must reproduce its
artifacts byte for byte.

The artifacts record verdicts, accuracies and committed models, not shares
or logits, so this catches a change in training, aggregation, the chain
format or any verdict; bit-level PRG and key changes are pinned by
``test_prg`` and ``test_fss``.
"""

import hashlib

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

GOLDEN_SHA256 = {
    "metrics.jsonl": "5b511f8508ec0c02488aa0d57175af41d274d339acdfdc5505b11b57b2e8a83f",
    "chain.bin": "5eca26481a3f24dcfaa2d4153fc564a047c1795607f36aaa6626d4bd21049134",
}


def test_golden_replay(tmp_path):
    summary = run_experiment(validate(CONFIG), tmp_path)
    assert not summary["aborted"]
    assert summary["rounds_completed"] == 2
    assert summary["detector_recall"] == 0.5  # the flipper is caught in round 0 only
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in GOLDEN_SHA256}
    assert got == GOLDEN_SHA256
