"""Command-line entry point.

Subcommands: ``run`` executes a configured experiment and writes its
artifacts, and ``chain`` dumps or verifies a persisted ledger.  The
protocol oracles live in the tier-1 tests alone.

Exit codes: 0 success, 2 configuration error (an unreadable input file or
an unusable --out-dir included), 3 aborted experiment, 1 any other failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import ledger
from .config import ConfigError, LedgerConfig, load_config
from .simulation import run_experiment


def _say(text: str) -> None:
    """Print ``text``; once the reader closes stdout, output goes to os.devnull."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _cmd_run(args) -> int:
    out_dir = Path(args.out_dir)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg.seeds.master = args.seed
        summary = run_experiment(cfg, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    _say(f"{'field':<34}value")
    for key in sorted(summary):
        _say(f"{key:<34}{summary[key]}")
    _say(f"artifacts: {out_dir}/config.json, metrics.jsonl, summary.csv, verdicts.jsonl, "
         f"timings.csv, chain.bin, models/")
    return 3 if summary["aborted"] else 0


def _cmd_chain(args) -> int:
    path = Path(args.path)
    if not path.is_file():
        print(f"no chain file at {path}", file=sys.stderr)
        return 1
    try:
        chain = ledger.load_chain(str(path))
    except ValueError as exc:
        print(f"invalid chain file: {exc}", file=sys.stderr)
        return 1
    if args.action == "dump":
        _say(ledger.dump_jsonl(chain))
        return 0
    # The file's own difficulty byte is no evidence: a forger re-mines at 0.
    if chain.difficulty != args.difficulty:
        _say(f"invalid chain: stored difficulty {chain.difficulty}, expected {args.difficulty}")
        return 1
    bad = ledger.validate_chain(chain)
    if bad is not None:
        _say(f"invalid chain: first bad block index {bad}")
        return 1
    models_dir = Path(args.models_dir) if args.models_dir else path.parent
    missing = []
    for block in chain.blocks[1:]:
        ref = Path(block.model_ref)
        # A ref names a file under the models directory, never one elsewhere.
        if ref.is_absolute() or ".." in ref.parts:
            _say(f"invalid chain: round {block.round} model ref {block.model_ref!r} "
                 f"is absolute or has a '..' part")
            return 1
        blob_path = models_dir / ref
        if not blob_path.is_file():
            missing.append(block.model_ref)
            continue
        if not ledger.verify_global(blob_path.read_bytes(), chain, block.round):
            _say(f"model bytes for round {block.round} do not match the committed digest")
            return 1
    note = f" ({len(missing)} model blobs not found, digests unchecked)" if missing else ""
    _say(f"ok, {len(chain)} blocks{note}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedchain",
        description="Federated learning with encrypted model verification and "
                    "blockchain-backed secure aggregation, at desk scale.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a configured experiment")
    p_run.add_argument("--config", required=True, help="JSON experiment config")
    p_run.add_argument("--seed", type=int, default=None, help="override seeds.master")
    p_run.add_argument("--out-dir", default="out", help="artifact directory")
    p_run.set_defaults(func=_cmd_run)

    p_chain = sub.add_parser("chain", help="inspect a persisted chain")
    p_chain.add_argument("action", choices=("dump", "verify"))
    p_chain.add_argument("path", help="chain file")
    p_chain.add_argument("--models-dir", default=None,
                         help="base directory for model references (default: chain directory)")
    p_chain.add_argument("--difficulty", type=int, default=LedgerConfig().difficulty,
                         help="proof-of-work difficulty the chain must carry "
                              "(verify; default: %(default)s, the config default)")
    p_chain.set_defaults(func=_cmd_chain)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
