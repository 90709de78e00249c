"""The round loop: one local model alive at a time, a running shadow mean,
and model blobs written as their blocks are committed."""

import copy
import weakref

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedchain import cli, ledger, nn, secure_agg
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
