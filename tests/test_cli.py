"""``fedchain chain verify`` on a good, a malformed and a missing chain file."""

import hashlib

import pytest

from fedchain import cli
from fedchain.ledger import Chain, mine_block, save_chain


@pytest.fixture
def chain_dir(tmp_path):
    """A two-round chain with its model blobs beside it."""
    chain = Chain(difficulty=1)
    for r in range(2):
        blob = bytes([r]) * 64
        ref = f"models/round_{r:04d}.bin"
        (tmp_path / "models").mkdir(exist_ok=True)
        (tmp_path / ref).write_bytes(blob)
        chain.append(mine_block(r, hashlib.sha256(blob).digest(), ref, chain, seq=len(chain)))
    save_chain(chain, str(tmp_path / "chain.bin"))
    return tmp_path


def test_verify_good_chain(chain_dir, capsys):
    assert cli.main(["chain", "verify", str(chain_dir / "chain.bin")]) == 0
    assert capsys.readouterr().out.strip() == "ok, 3 blocks"


def test_verify_truncated_chain(chain_dir, capsys):
    path = chain_dir / "chain.bin"
    path.write_bytes(path.read_bytes()[:-7])
    assert cli.main(["chain", "verify", str(path)]) == 1
    assert capsys.readouterr().err.startswith("invalid chain file: ")


def test_verify_tampered_model_blob(chain_dir, capsys):
    (chain_dir / "models" / "round_0001.bin").write_bytes(b"tampered")
    assert cli.main(["chain", "verify", str(chain_dir / "chain.bin")]) == 1
    assert "round 1 do not match" in capsys.readouterr().out


def test_verify_missing_chain(tmp_path, capsys):
    assert cli.main(["chain", "verify", str(tmp_path / "absent.bin")]) == 1
    assert capsys.readouterr().err.startswith("no chain file at ")
