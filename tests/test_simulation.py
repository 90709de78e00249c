"""The round loop: one local model alive at a time, hostile clients withdrawn
while their round commits, model blobs written as their blocks are
committed, and each block mined by the next round's client worker."""

import copy
import dataclasses
import json
import os
import time
import weakref

import numpy as np
import pytest

from fedchain import cli, forked, ledger, nn, secure_agg, simulation
from fedchain.config import validate
from fedchain.data import Dataset
from fedchain.secure_agg import AggregationState
from fedchain.simulation import build_state, run_experiment

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


def test_at_most_one_trained_model_is_alive_when_a_model_is_shared(monkeypatch, tmp_path):
    # Each process checks its own clients, so a violation in the client
    # worker fails the run through the worker's error path.  Both processes
    # log each training and each sharing to one file, so the counts cover
    # every client; the parent also counts its own.
    trained: list[weakref.ref] = []
    alive_at_share: list[int] = []
    train_local, share_model_params = nn.train_local, secure_agg.share_model_params
    parent = os.getpid()
    log = os.open(tmp_path / "log", os.O_WRONLY | os.O_CREAT | os.O_APPEND)

    def tracked_train(*args, **kwargs):
        model = train_local(*args, **kwargs)
        trained.append(weakref.ref(model))
        os.write(log, b"train\n")
        return model

    def counting_share(*args, **kwargs):
        alive = sum(ref() is not None for ref in trained)
        assert alive <= 1, f"{alive} trained models alive when a model is shared"
        os.write(log, b"share\n")
        if os.getpid() == parent:
            alive_at_share.append(alive)
        return share_model_params(*args, **kwargs)

    monkeypatch.setattr(nn, "train_local", tracked_train)
    monkeypatch.setattr(secure_agg, "share_model_params", counting_share)
    try:
        summary = run_experiment(validate(CONFIG))
    finally:
        os.close(log)
    assert summary["rounds_completed"] == 3
    logged = (tmp_path / "log").read_text().split()
    assert logged.count("train") == 12
    # Every model is shared once, before it is verified; the flipper's
    # round-0 model is then withdrawn rather than delivered.
    assert logged.count("share") == 12
    # The parent runs clients 0 and 2 of each round, the worker 1 and 3.
    assert len(trained) == 6
    assert len(alive_at_share) == 6
    assert max(alive_at_share) == 1


REJECTIONS = {"below_threshold": (1.0, 1.0), "outside_ring": (1e15, 0.0),
              "outside_aggregation_range": (1e7, 0.0)}


@pytest.mark.parametrize(
    "mode, gamma, tau",
    [("encrypted", *case) for case in REJECTIONS.values()]
    + [("plaintext", *case) for case in REJECTIONS.values()],
    ids=list(REJECTIONS) + [f"plaintext_{name}" for name in REJECTIONS])
def test_a_rejected_client_leaves_the_nodes_untouched(mode, gamma, tau):
    # A benign client is delivered first; then the flipper, scaled by gamma,
    # is scored against tau.  Rejected (it loses class 0, so it cannot score
    # 1.0), outside the verifier's ring (score 0.0) or accepted but outside
    # the aggregation range, it is withdrawn, and no node gets anything of
    # it, whichever mode scored it.
    raw = copy.deepcopy(CONFIG)
    raw["attack"]["scale_factor"] = gamma
    raw["verifier"]["mode"] = mode
    state = build_state(validate(raw))
    (bad,) = [c for c in state.clients if c.malicious]
    good = next(c for c in state.clients if not c.malicious)
    agg = AggregationState(0, (good.client_id, bad.client_id), 3,
                           state.global_model.param_count)
    timings = dict.fromkeys(("train", "verify", "aggregate"), 0.0)

    def step(client, tau):
        outcome = simulation._client_step(state, client, tau)
        simulation._deliver(state, agg, client.client_id, outcome, timings)
        return outcome.verdict

    verdict = step(good, 0.0)
    assert verdict.accepted and agg.received == {good.client_id}
    keys, closing_sum = copy.deepcopy(agg.node_keys), agg.closing_sum.copy()
    verdict = step(bad, tau)
    assert verdict.accepted == (gamma == 1e7)
    if gamma == 1e15:  # no inference ran
        assert (verdict.encrypted_accuracy, verdict.wall_time_ms) == (0.0, 0.0)
    assert agg.node_keys == keys and agg.closing_sum.tobytes() == closing_sum.tobytes()
    assert agg.received == {good.client_id} and agg.expected_clients == (good.client_id,)


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


def assert_chain_is_a_serial_re_mine(out):
    serial = ledger.Chain(difficulty=CONFIG["ledger"]["difficulty"])
    for line in (out / "metrics.jsonl").read_text().splitlines():
        record = json.loads(line)
        r, digest = record["round"], bytes.fromhex(record["committed_digest"])
        serial.append(ledger.mine_block(r, digest, f"models/round_{r:04d}.bin", serial))
    ledger.save_chain(serial, str(out / "serial.bin"))
    assert (out / "serial.bin").read_bytes() == (out / "chain.bin").read_bytes()


def test_the_chain_equals_a_serial_re_mine_byte_for_byte(tmp_path):
    # Mining each block in the next round's worker must leave the chain a
    # serial run mines: same blocks, each with its smallest nonce.
    run_experiment(validate(CONFIG), tmp_path)
    assert_no_child_left()
    assert_chain_is_a_serial_re_mine(tmp_path)


def test_a_one_client_run_mines_every_block_in_the_parent(tmp_path, monkeypatch):
    # With one client no round forks a worker, so the parent mines each
    # block in the next round, after its aggregation, and the last block
    # after the run.
    def no_fork(*args, **kwargs):
        raise AssertionError("a one-client round forked a worker")

    monkeypatch.setattr(forked, "Child", no_fork)
    raw = copy.deepcopy(CONFIG)
    raw["data"]["clients"] = 1
    summary = run_experiment(validate(raw), tmp_path)
    assert summary["rounds_completed"] == 3
    assert_no_child_left()
    assert_chain_is_a_serial_re_mine(tmp_path)


def test_a_run_that_aborts_in_round_one_keeps_round_zeros_block_and_blob(
        tmp_path, monkeypatch, capsys):
    # Every model passes in round 0 and none in round 1.
    raw = copy.deepcopy(CONFIG)
    raw["verifier"]["mode"] = "plaintext"
    monkeypatch.setattr(simulation, "threshold_for_round",
                        lambda rule, prev, classes: 0.0 if prev is None else 2.0)
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


def _train_or(action, round_no: int, client_id: int):
    """nn.train_local, except that ``action()`` runs in place of the given
    client's training."""
    train_local = nn.train_local
    seed = simulation.derive_seed(CONFIG["seeds"]["master"], "train", round_no, client_id)

    def train(model, shard, **kwargs):
        if kwargs["seed"] == seed:
            action()
        return train_local(model, shard, **kwargs)

    return train


def test_an_error_in_the_next_round_kills_the_worker_and_propagates(monkeypatch, tmp_path):
    # Round 0's search, which round 1's worker runs after its clients, takes
    # a minute, so only a kill ends the run sooner.  Client 2, the parent's
    # last in round 1, raises once the search has begun.
    boom = Boom()
    searching = tmp_path / "searching"

    def search(*args, **kwargs):
        searching.touch()
        time.sleep(60)

    def raise_boom():
        deadline = time.monotonic() + 30
        while not searching.exists():
            assert time.monotonic() < deadline, "round 1's worker never began the search"
            time.sleep(0.01)
        raise boom

    monkeypatch.setattr(ledger, "mine_block", search)
    monkeypatch.setattr(nn, "train_local", _train_or(raise_boom, 1, 2))
    t0 = time.monotonic()
    with pytest.raises(Boom) as caught:
        run_experiment(validate(CONFIG))
    assert time.monotonic() - t0 < 30
    assert caught.value is boom
    assert_no_child_left()


def test_an_error_in_a_worker_client_ends_the_worker_and_propagates(monkeypatch):
    # Client 1 runs in the round's client worker; its error reaches the
    # caller with its type and message, and the worker does not go on to
    # round 0's search, which would take a minute.
    parent = os.getpid()

    def raise_in_worker():
        if os.getpid() != parent:
            raise Boom("client 1 failed in round 1")

    monkeypatch.setattr(ledger, "mine_block", lambda *args, **kwargs: time.sleep(60))
    monkeypatch.setattr(nn, "train_local", _train_or(raise_in_worker, 1, 1))
    t0 = time.monotonic()
    with pytest.raises(Boom, match="^client 1 failed in round 1$"):
        run_experiment(validate(CONFIG))
    assert time.monotonic() - t0 < 30
    assert_no_child_left()


def test_a_worker_that_dies_without_an_outcome_names_the_round_and_the_client(monkeypatch):
    parent = os.getpid()

    def die_in_worker():
        if os.getpid() == parent:
            raise AssertionError("client 3 ran in the parent")
        os._exit(1)

    monkeypatch.setattr(nn, "train_local", _train_or(die_in_worker, 0, 3))
    with pytest.raises(RuntimeError, match="^client worker exited with code 1 before "
                       "sending the outcome of client 3 in round 0$"):
        run_experiment(validate(CONFIG))
    assert_no_child_left()


MINE_BLOCK = ledger.mine_block


def _raises(*args, **kwargs):
    raise Boom("the search for round 0 failed")


PARENT = os.getpid()


def _dies(*args, **kwargs):
    if os.getpid() == PARENT:
        raise AssertionError("round 0's block was searched for in the parent")
    os._exit(1)


def _one_below_the_smallest_nonce(*args, **kwargs):
    # Round 0's smallest nonce is 10, so nonce 9 misses the difficulty.
    block = MINE_BLOCK(*args, **kwargs)
    return dataclasses.replace(block, nonce=block.nonce - 1)


# Round 0's block is searched for in round 1's worker: its exception reaches
# the caller with its type and message, a worker that dies names the round,
# and the parent's append checks the nonce.
@pytest.mark.parametrize("miner, error, message", [
    (_raises, Boom, "^the search for round 0 failed$"),
    (_dies, RuntimeError,
     "^client worker exited with code 1 before sending the nonce for round 0$"),
    (_one_below_the_smallest_nonce, ValueError, "difficulty not met"),
], ids=["raises_in_the_worker", "dies_in_the_worker", "wrong_nonce"])
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


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("gamma", [1e308, 1.7e308], ids=["gamma_1e308", "gamma_1.7e308"])
def test_flippers_scaled_near_float64_max_are_rejected(gamma):
    # Scaled this close to float64's largest value, each flipper's model
    # still holds finite parameters, far outside the verifier's ring: every
    # one is rejected, and the round commits without a RuntimeWarning.
    raw = {"attack": {"malicious_fraction": 0.3, "scale_factor": gamma},
           "verifier": {"enabled": True}, "train": {"rounds": 1}}
    summary = run_experiment(validate(raw))
    assert not summary["aborted"] and summary["rounds_completed"] == 1
    assert summary["detector_recall"] == 1.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("verifier", [False, True], ids=["verifier_off", "verifier_on"])
def test_clients_scaled_to_inf_are_withdrawn_and_the_round_commits(tmp_path, verifier):
    # Trained at this rate, flipper 2 has a weight of 1.136, which a scale
    # of 1.7e308 overflows to inf, and no model holds an inf: it is
    # withdrawn and scores 0.0, and with the verifier on it is rejected with
    # score 0.0.  Flippers 0 and 1 stay finite and leave by the out-of-range
    # paths, as before.
    raw = {"attack": {"malicious_fraction": 0.3, "scale_factor": 1.7e308},
           "verifier": {"enabled": verifier},
           "train": {"rounds": 1, "learning_rate": 0.5, "epochs_per_round": 8}}
    summary = run_experiment(validate(raw), tmp_path)
    assert not summary["aborted"] and summary["rounds_completed"] == 1
    malicious = summary["malicious_clients"]
    assert len(malicious) == 3
    (record,) = [json.loads(line) for line in (tmp_path / "metrics.jsonl").open()]
    assert record["accepted_clients"] == [c for c in range(10) if c not in malicious]
    assert [record["per_client_accuracy"][str(c)] for c in malicious] == [0.0] * 3
    scores = {v["model_id"]: (v["encrypted_accuracy"], v["accepted"]) for v in record["verdicts"]}
    assert [scores.get(f"r0/c{c}") for c in malicious] == [(0.0, False) if verifier else None] * 3
    assert summary["detector_recall"] == (1.0 if verifier else None)


def test_a_shard_without_the_source_class_is_returned_as_it_is():
    shard = Dataset(np.arange(8.0).reshape(4, 2), np.array([1, 2, 3, 1]), 4)
    assert simulation.flip_labels(shard, 0, 1, 1.0, seed=5) is shard
    flipped = simulation.flip_labels(shard, 3, 0, 1.0, seed=5)
    assert flipped.labels.tolist() == [1, 2, 0, 1]


def test_flippers_whose_shards_miss_the_source_class_train_and_the_round_commits(tmp_path):
    # 20 shards of 3 or 4 samples: some flipper's shard holds no class-0 sample.
    raw = {"data": {"per_class": 30, "clients": 20, "eval_count": 40, "verified_count": 8},
           "attack": {"malicious_fraction": 0.5}, "train": {"rounds": 1},
           "ledger": {"difficulty": 1}}
    state = build_state(validate(raw))
    assert any(c.malicious and not np.any(c.train_shard.labels == 0) for c in state.clients)
    summary = run_experiment(validate(raw), tmp_path)
    assert not summary["aborted"] and summary["rounds_completed"] == 1
    assert cli.main(["chain", "verify", str(tmp_path / "chain.bin"), "--difficulty", "1"]) == 0


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("raw", [
    {"train": {"learning_rate": 1e308, "rounds": 2}},
    {"train": {"learning_rate": 1e308, "rounds": 2}, "verifier": {"enabled": True}},
    {"data": {"separation": 1e200}, "train": {"rounds": 2}},
], ids=["learning_rate_1e308", "learning_rate_1e308_verifier_on", "separation_1e200"])
def test_clients_whose_training_diverges_are_withdrawn_without_a_warning(tmp_path, raw):
    # Every client's training overflows to inf or NaN, so each is withdrawn
    # with score 0.0, rejected with score 0.0 when the verifier is on, and
    # round 0 aborts with nothing committed.
    summary = run_experiment(validate(raw), tmp_path)
    assert summary["aborted"] and summary["rounds_completed"] == 0
    (record,) = [json.loads(line) for line in (tmp_path / "metrics.jsonl").open()]
    assert record["per_client_accuracy"] == {str(c): 0.0 for c in range(10)}
    scores = [(v["encrypted_accuracy"], v["accepted"]) for v in record["verdicts"]]
    assert scores == ([(0.0, False)] * 10 if "verifier" in raw else [])
    assert len(ledger.load_chain(str(tmp_path / "chain.bin"))) == 1  # genesis only
