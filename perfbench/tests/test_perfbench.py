"""Smoke tests for the benchmark, on the ``--tiny`` workload sizes."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

ALL_END_TO_END = ("setup_s", "run_s", "verdict_ms_p50", "peak_rss_mb", "final_accuracy",
                  "detector_recall", "detector_fpr", "round_error_rate", "verdict_error_rate")


def _bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _result(proc: subprocess.CompletedProcess) -> tuple[dict, str]:
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), "\n".join(lines[:-1])


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.GATED)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_names()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_end_to_end_metric_prints_with_its_unit(workload):
    result, table = _result(_bench(workload, 0))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [name for name, _ in run.END_TO_END]
    for name, unit in run.END_TO_END:
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0
    for name in ALL_END_TO_END:
        assert re.search(rf"^{name}\s+\S+\s+\S+", table, re.M), name
    assert re.search(r"^round_error_rate\s+0\s", table, re.M)


@pytest.mark.parametrize("workload", ["mlp-verify", "agg-ledger"])
def test_traced_run_reports_every_per_layer_metric(workload):
    result, table = _result(_bench(workload, 1))
    metrics = result["metrics"]
    assert [(n, m["unit"]) for n, m in metrics.items()] == run.per_layer_names()
    assert "verdict_error_rate" in table
    pct = {n: m["value"] for n, m in metrics.items() if n.endswith(".self_pct")}
    if workload == "agg-ledger":
        for layer in ("prg.", "fss."):
            assert all(metrics[n]["value"] == 0 for n in metrics
                       if n.startswith(layer) and not n.endswith("_pct"))
        assert metrics["shadow.verdicts"]["value"] == 0
    else:
        assert max(pct, key=pct.get) == "prg.expand_node.self_pct"
        assert metrics["shadow.verdict_mismatches"]["value"] == 0
    run_s = metrics["trace.run_s"]["value"]
    attributed = sum(pct.values()) / 100.0 * run_s + metrics["trace.unattributed_s"]["value"]
    assert attributed == pytest.approx(run_s)


@pytest.fixture(scope="module")
def two_runs():
    bench = run.Bench(ROOT, "agg-ledger", 5, tiny=True)
    try:
        yield bench, bench.spawn("run", "a")["out"], bench.spawn("run", "b")["out"]
    finally:
        bench.cleanup()


def _check(bench, out: Path, reference: dict | None):
    return checks.check_run(out, bench.rounds, bench.difficulty, reference)


def test_two_runs_give_the_same_digests(two_runs):
    bench, a, b = two_runs
    reference = checks.artifact_digests(a)
    res = _check(bench, b, reference)
    assert res.digests == reference
    assert res.problems == [] and res.failed_rounds == 0 and res.rounds == bench.rounds


def _flipped_copy(src: Path, relpath: str, offset: int) -> Path:
    dst = src.with_name(f"{src.name}-flip")
    shutil.rmtree(dst, ignore_errors=True)
    shutil.copytree(src, dst)
    target = dst / relpath
    data = bytearray(target.read_bytes())
    data[offset] ^= 0x01
    target.write_bytes(bytes(data))
    return dst


def test_flipping_any_chain_byte_fails_the_check(two_runs):
    bench, a, _ = two_runs
    reference = checks.artifact_digests(a)
    size = (a / "chain.bin").stat().st_size
    for offset in range(size):
        res = _check(bench, _flipped_copy(a, "chain.bin", offset), reference)
        assert res.problems and res.failed_rounds > 0, offset


def test_flipping_a_chain_hash_byte_fails_without_a_reference(two_runs):
    bench, a, _ = two_runs
    size = (a / "chain.bin").stat().st_size
    res = _check(bench, _flipped_copy(a, "chain.bin", size - 1), None)
    assert res.problems and res.failed_rounds > 0


def test_flipping_a_model_byte_fails_the_check(two_runs):
    bench, a, _ = two_runs
    reference = checks.artifact_digests(a)
    res = _check(bench, _flipped_copy(a, "models/round_0000.bin", 40), reference)
    assert any("round 0" in p for p in res.problems)
    assert res.failed_rounds == 1


def test_exits_nonzero_without_sources():
    bare = ROOT / ".bench_runs" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = _bench("mlp-verify", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
