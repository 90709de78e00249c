"""``fedchain chain verify`` on good, malformed, forged and missing chain files;
``fedchain selftest`` with each suite's protocol broken; and a run replayed
from the ``config.json`` it wrote."""

import hashlib
import json

import numpy as np
import pytest

from fedchain import cli, fss, prg, selftest
from fedchain.config import LedgerConfig
from fedchain.ledger import Chain, load_chain, mine_block, save_chain
from fedchain.secure_agg import AggregationState


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


def _flip_first_byte(keystream_into):
    def broken(key, out, start=0):
        keystream_into(key, out, start)
        out.view(np.uint8)[0] ^= 1
        return out
    return broken


# Each suite's protocol function, and a broken version of it.  The AES suite
# looks keystream_into up on prg; the dealer and the aggregation, which
# import it by name, keep the intact one.
SABOTAGE = {
    "aes": (prg, "keystream_into", _flip_first_byte),
    "sharing": (AggregationState, "add",
                lambda add: lambda self, cid, r, secret, seed:
                add(self, cid, r, np.zeros_like(secret), seed)),
    "fss": (fss, "dcf_eval_batch",
            lambda ev: lambda party, batch, xs: ev(party, batch, xs) + np.uint64(1)),
    "beaver": (selftest, "beaver_mul", lambda mul: lambda x, y, triple: mul(x, x, triple)),
}


@pytest.mark.parametrize("fault", ["", "aes", "sharing", "fss", "beaver"],
                         ids=["intact", "aes_sabotaged", "sharing_sabotaged", "fss_sabotaged",
                              "beaver_sabotaged"])
def test_selftest_runs_the_aes_suite(monkeypatch, capsys, fault):
    # Each suite's protocol broken in turn fails the self-test on exactly its own line.
    if fault:
        owner, name, sabotage = SABOTAGE[fault]
        monkeypatch.setattr(owner, name, sabotage(getattr(owner, name)))
    assert cli.main(["selftest"]) == (1 if fault else 0)
    lines = capsys.readouterr().out.splitlines()
    failed = [line.split()[0] for line in lines if line.split()[1] == "FAIL"]
    assert failed == ([fault] if fault else [])
    assert [line.split()[0] for line in lines] == ["aes", "sharing", "fss", "beaver"]


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
