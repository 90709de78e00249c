"""The round loop: one local model alive at a time, a running shadow mean,
model blobs written as their blocks are committed, and blocks mined in a
forked process while the next round runs."""

import copy
import dataclasses
import json
import os
import time
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedchain import cli, ledger, nn, secure_agg, simulation
from fedchain.config import validate
from fedchain.simulation import RunningMean, run_experiment

# Four clients, one label flipper, encrypted verifier on, three rounds; the
# absolute threshold rejects the flipper's round-0 model, so the withdrawal
# path runs too.
CONFIG = {
    "data": {"kind": "synthetic", "classes": 4, "dims": 32, "per_class": 150,
             "separation": 4.0, "clients": 4, "eval_count": 100, "verified_count": 16},
    "model": {"kind": "mlp", "hidden": [16]},
    "train": {"learning_rate": 0.05, "epochs_per_round": 4, "batch_size": 32,
              "rounds": 3, "optimizer": "sgd"},
    "attack": {"malicious_fraction": 0.25, "source_class": 0, "target_class": 1,
               "flip_fraction": 1.0, "scale_factor": 1.0},
    "verifier": {"enabled": True, "mode": "encrypted", "threshold_rule": "absolute",
                 "threshold_value": 0.6, "ban_on_rejection": False},
    "aggregation": {"nodes": 3},
    "ledger": {"difficulty": 1},
    "seeds": {"master": 7},
}


def test_at_most_one_trained_model_is_alive_when_a_model_is_shared(monkeypatch):
    trained: list[weakref.ref] = []
    alive_at_share: list[int] = []
    train_local, share_model_params = nn.train_local, secure_agg.share_model_params

    def tracked_train(*args, **kwargs):
        model = train_local(*args, **kwargs)
        trained.append(weakref.ref(model))
        return model

    def counting_share(*args, **kwargs):
        alive_at_share.append(sum(ref() is not None for ref in trained))
        return share_model_params(*args, **kwargs)

    monkeypatch.setattr(nn, "train_local", tracked_train)
    monkeypatch.setattr(secure_agg, "share_model_params", counting_share)
    summary = run_experiment(validate(CONFIG))
    assert summary["rounds_completed"] == 3
    assert len(trained) == 12
    assert len(alive_at_share) == 11  # the flipper's round-0 model is withdrawn
    assert max(alive_at_share) == 1


finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def equal_rows(draw):
    # Rows of two or more elements: every model has at least a weight and a bias.
    width = draw(st.integers(2, 8))
    return draw(st.lists(st.lists(finite, min_size=width, max_size=width),
                         min_size=1, max_size=40))


@settings(max_examples=300, deadline=None)
@given(rows=equal_rows())
@example(rows=[[0.0, -0.0]])  # numpy's sum starts at +0.0, not at the first row
def test_running_mean_equals_the_stacked_mean_bit_for_bit(rows):
    rows = [np.array(r) for r in rows]
    with np.errstate(over="ignore", invalid="ignore"):  # sums may overflow to inf
        mean = RunningMean(rows[0].size)
        for row in rows:
            mean.add(row)
        want = np.stack(rows).mean(axis=0)
        assert mean.mean().tobytes() == want.tobytes()


def test_a_finished_run_has_one_blob_per_block_and_every_digest_verifies(tmp_path, capsys):
    summary = run_experiment(validate(CONFIG), tmp_path)
    assert summary["rounds_completed"] == 3
    chain = ledger.load_chain(str(tmp_path / "chain.bin"))
    blobs = sorted(p.relative_to(tmp_path).as_posix() for p in (tmp_path / "models").iterdir())
    assert blobs == [block.model_ref for block in chain.blocks[1:]]
    assert cli.main(["chain", "verify", str(tmp_path / "chain.bin"), "--difficulty", "1"]) == 0
    assert capsys.readouterr().out.strip() == "ok, 4 blocks"  # no blob left unchecked


def test_a_run_that_aborts_in_round_zero_leaves_models_empty(tmp_path):
    # No model scores 1.0 on the verified split of barely separated classes.
    raw = copy.deepcopy(CONFIG)
    raw["data"]["separation"] = 0.2
    raw["verifier"].update(mode="plaintext", threshold_rule="absolute", threshold_value=1.0)
    summary = run_experiment(validate(raw), tmp_path)
    assert summary["aborted"] and summary["rounds_completed"] == 0
    assert list((tmp_path / "models").iterdir()) == []
    assert len(ledger.load_chain(str(tmp_path / "chain.bin"))) == 1  # genesis only


def test_a_run_without_an_artifact_directory_writes_nothing(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    raw = copy.deepcopy(CONFIG)
    raw["train"]["rounds"] = 1
    assert run_experiment(validate(raw))["rounds_completed"] == 1
    assert list(tmp_path.iterdir()) == []


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_the_chain_equals_a_serial_re_mine_byte_for_byte(tmp_path):
    # Mining each block in the miner while the next round runs must leave the
    # chain a serial run mines: same blocks, each with its smallest nonce.
    run_experiment(validate(CONFIG), tmp_path)
    assert_no_child_left()
    serial = ledger.Chain(difficulty=CONFIG["ledger"]["difficulty"])
    for line in (tmp_path / "metrics.jsonl").read_text().splitlines():
        record = json.loads(line)
        r, digest = record["round"], bytes.fromhex(record["committed_digest"])
        serial.append(ledger.mine_block(r, digest, f"models/round_{r:04d}.bin", serial,
                                        seq=len(serial)))
    ledger.save_chain(serial, str(tmp_path / "serial.bin"))
    assert (tmp_path / "serial.bin").read_bytes() == (tmp_path / "chain.bin").read_bytes()


def test_a_run_that_aborts_in_round_one_keeps_round_zeros_block_and_blob(
        tmp_path, monkeypatch, capsys):
    # Every model passes in round 0 and none in round 1.
    raw = copy.deepcopy(CONFIG)
    raw["verifier"]["mode"] = "plaintext"
    monkeypatch.setattr(simulation, "threshold_for_round",
                        lambda prev, classes, absolute: 0.0 if prev is None else 2.0)
    summary = run_experiment(validate(raw), tmp_path)
    assert summary["aborted"] and summary["rounds_completed"] == 1
    assert_no_child_left()
    chain = ledger.load_chain(str(tmp_path / "chain.bin"))
    assert [b.round for b in chain.blocks[1:]] == [0]
    assert sorted(p.name for p in (tmp_path / "models").iterdir()) == ["round_0000.bin"]
    assert cli.main(["chain", "verify", str(tmp_path / "chain.bin"), "--difficulty", "1"]) == 0
    assert capsys.readouterr().out.strip() == "ok, 2 blocks"


class Boom(Exception):
    pass


def test_an_error_in_the_next_round_kills_the_miner_and_propagates(monkeypatch):
    # Round 0's search takes a minute, so only a kill ends the run sooner;
    # round 1's first training step raises.
    boom = Boom()
    calls = []
    train_local = nn.train_local

    def train_or_raise(*args, **kwargs):
        calls.append(1)
        if len(calls) > CONFIG["data"]["clients"]:
            raise boom
        return train_local(*args, **kwargs)

    monkeypatch.setattr(ledger, "mine_block", lambda *args, **kwargs: time.sleep(60))
    monkeypatch.setattr(nn, "train_local", train_or_raise)
    t0 = time.monotonic()
    with pytest.raises(Boom) as caught:
        run_experiment(validate(CONFIG))
    assert time.monotonic() - t0 < 30
    assert caught.value is boom
    assert_no_child_left()


MINE_BLOCK = ledger.mine_block


def _exits_nonzero(*args, **kwargs):
    raise RuntimeError("the search failed")


def _one_below_the_smallest_nonce(*args, **kwargs):
    # Round 0's smallest nonce is 10, so nonce 9 misses the difficulty.
    block = MINE_BLOCK(*args, **kwargs)
    return dataclasses.replace(block, nonce=block.nonce - 1)


@pytest.mark.parametrize("miner, error, message", [
    (_exits_nonzero, RuntimeError,
     "mining process exited with code 1 before sending the nonce for round 0"),
    (_one_below_the_smallest_nonce, ValueError, "difficulty not met"),
], ids=["exits_nonzero", "wrong_nonce"])
def test_a_bad_miner_fails_the_run_and_leaves_no_blob(tmp_path, monkeypatch, miner, error,
                                                      message):
    monkeypatch.setattr(ledger, "mine_block", miner)
    with pytest.raises(error, match=message):
        run_experiment(validate(CONFIG), tmp_path)
    assert_no_child_left()
    assert list((tmp_path / "models").iterdir()) == []


def test_clients_scaled_past_the_inference_ring_are_rejected_and_the_round_commits(tmp_path):
    # At gamma = 1e15 the scaled parameters do not fit the verifier's
    # fixed-point ring, so they cannot be encrypted: each such model gets a
    # rejected verdict with score 0.0 instead of failing the run.
    raw = {"attack": {"malicious_fraction": 0.3, "scale_factor": 1e15},
           "verifier": {"enabled": True}, "train": {"rounds": 1}}
    summary = run_experiment(validate(raw), tmp_path)
    assert not summary["aborted"] and summary["rounds_completed"] == 1
    malicious = summary["malicious_clients"]
    assert len(malicious) == 3
    (record,) = [json.loads(line) for line in (tmp_path / "metrics.jsonl").open()]
    scores = {v["model_id"]: (v["encrypted_accuracy"], v["accepted"]) for v in record["verdicts"]}
    assert all(scores[f"r0/c{cid}"] == (0.0, False) for cid in malicious)
    assert record["accepted_clients"] == [c for c in range(10) if c not in malicious]
    assert len(ledger.load_chain(str(tmp_path / "chain.bin"))) == 2


@pytest.mark.parametrize("gamma", [1e308, 1.7e308], ids=["nan_logits", "inf_mean"])
def test_recovery_delta_is_none_when_the_shadow_is_not_finite(gamma):
    # Scaled by 1.7e308, the rejected models overflow the float64 shadow mean
    # to inf; by 1e308, the mean stays finite but the shadow model's logits
    # are NaN.  Neither shadow can be scored, and the committed round stands.
    raw = {"attack": {"malicious_fraction": 0.3, "scale_factor": gamma},
           "verifier": {"enabled": True}, "train": {"rounds": 1}}
    with np.errstate(over="ignore", invalid="ignore"):
        summary = run_experiment(validate(raw))
    assert not summary["aborted"] and summary["rounds_completed"] == 1
    assert summary["detector_recall"] == 1.0
    assert summary["recovery_delta"] is None


@pytest.mark.parametrize("verifier", [False, True], ids=["verifier_off", "verifier_on"])
def test_clients_scaled_to_inf_are_withdrawn_and_the_round_commits(tmp_path, verifier):
    # Trained at this rate, flipper 2 has a weight of 1.136, which a scale
    # of 1.7e308 overflows to inf, and no model holds an inf: it is
    # withdrawn and scores 0.0, with the verifier on it is rejected with
    # score 0.0, and the shadow mean it joins is not finite.  Flippers 0
    # and 1 stay finite and leave by the out-of-range paths, as before.
    raw = {"attack": {"malicious_fraction": 0.3, "scale_factor": 1.7e308},
           "verifier": {"enabled": verifier},
           "train": {"rounds": 1, "learning_rate": 0.5, "epochs_per_round": 8}}
    with np.errstate(over="ignore", invalid="ignore"):
        summary = run_experiment(validate(raw), tmp_path)
    assert not summary["aborted"] and summary["rounds_completed"] == 1
    malicious = summary["malicious_clients"]
    assert len(malicious) == 3
    (record,) = [json.loads(line) for line in (tmp_path / "metrics.jsonl").open()]
    assert record["accepted_clients"] == [c for c in range(10) if c not in malicious]
    assert [record["per_client_accuracy"][str(c)] for c in malicious] == [0.0] * 3
    scores = {v["model_id"]: (v["encrypted_accuracy"], v["accepted"]) for v in record["verdicts"]}
    assert [scores.get(f"r0/c{c}") for c in malicious] == [(0.0, False) if verifier else None] * 3
    assert summary["recovery_delta"] is None
    assert summary["detector_recall"] == (1.0 if verifier else None)
