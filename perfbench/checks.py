"""Output check for one experiment's artifacts.

A round passes when it committed (its ``metrics.jsonl`` line exists and did
not abort), its block in ``chain.bin`` is intact, and its model blob hashes
to the digest that block commits.  The whole run fails when ``chain.bin``
does not load or validate, or when its artifact digests differ from the
reference run of the same workload and seed.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass, field
from pathlib import Path

from fedchain import ledger


@dataclass
class CheckResult:
    rounds: int
    good_rounds: int = 0
    digests: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)

    @property
    def failed_rounds(self) -> int:
        return self.rounds - self.good_rounds


def artifact_digests(out: Path) -> dict:
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ("metrics.jsonl", "chain.bin")}


def check_run(out: Path, rounds: int, difficulty: int, reference: dict | None = None) -> CheckResult:
    """Check the artifacts of a run configured for ``rounds`` rounds."""
    res = CheckResult(rounds)
    try:
        res.digests = artifact_digests(out)
        records = [json.loads(line) for line in (out / "metrics.jsonl").read_text().splitlines()]
        chain = ledger.load_chain(str(out / "chain.bin"))
    except (OSError, ValueError, struct.error) as exc:
        res.problems.append(f"artifacts unreadable: {exc}")
        return res
    if reference is not None and res.digests != reference:
        res.problems.append("artifact digests differ from the reference run")
        return res
    if chain.difficulty != difficulty:
        res.problems.append(f"chain difficulty {chain.difficulty}, configured {difficulty}")
        return res
    bad_index = ledger.validate_chain(chain)
    if bad_index is not None:
        res.problems.append(f"chain invalid from block {bad_index}")
    if len(chain) - 1 > sum(1 for r in records if not r["aborted"]):
        res.problems.append("chain holds blocks for rounds that did not commit")

    for rec in records:
        r = rec["round"]
        if rec["aborted"]:
            res.problems.append(f"round {r} aborted")
            continue
        if bad_index is not None and r + 1 >= bad_index:
            continue
        blob = out / "models" / f"round_{r:04d}.bin"
        try:
            block = chain.block_for_round(r)
            ok = (block.model_digest.hex() == rec["committed_digest"]
                  and ledger.verify_global(blob.read_bytes(), chain, r))
        except (OSError, KeyError) as exc:
            res.problems.append(f"round {r}: {exc!r}")
            continue
        if ok:
            res.good_rounds += 1
        else:
            res.problems.append(f"round {r}: model blob does not match its block")
    return res
