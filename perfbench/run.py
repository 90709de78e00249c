"""fedchain benchmark: one workload, measured in fresh processes, outputs checked.

Usage (from the repository root):

    python3 perfbench/run.py --workload mlp-verify --seed 1 --seconds 50 --trace 0

Each run of the experiment is a fresh ``perfbench/worker.py`` process calling
``fedchain.simulation.run_experiment`` on the workload's pinned config.  One
untimed warm-up run comes first; then runs repeat until ``--seconds`` is used
up (at least two).  Runs come in pairs that share one input set drawn from
(seed, pair index), so a measured run averages over inputs while every input
set runs at least twice for the digest check; the warm-up joins the first
pair.  Every run's artifacts pass the output check in ``checks.py``.

``--trace 0`` reports the end-to-end metrics (medians over the runs);
``--trace 1`` alternates traced and untraced runs and reports per-layer
metrics from the traced ones.  The last line of standard output is one JSON
object; the lines before it are a table for people.  The exit code is 1 when
an output check fails and 2 when the sources are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
CHILD_TIMEOUT_S = 150
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# (name, unit) of the metrics in the JSON line; BENCHMARK.json lists the same.
END_TO_END = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MB"),
    ("final_accuracy", "fraction"),
]
STAGES = ("train", "verify", "aggregate", "mine")


def per_layer_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    names = [(f"simulation.{s}_s", "s") for s in STAGES]
    names += [("trace.run_s", "s"), ("trace.unattributed_s", "s"), ("trace.overhead_s", "s")]
    for module, path, work, _ in tracer.TARGETS:
        name = tracer.target_name(module, path)
        names.append((f"{name}.calls", "count"))
        if work:
            names.append((f"{name}.{work}", "count"))
        if module != "data":
            names.append((f"{name}.self_pct", "%"))
    names += [("shadow.verdicts", "count"), ("shadow.verdict_mismatches", "count"),
              ("shadow.max_acc_gap", "fraction"), (f"{tracer.SHADOW}.self_pct", "%")]
    return names


class ChildFailed(RuntimeError):
    """A workload process exited non-zero or timed out."""


def input_seed(seed: int, index: int) -> int:
    """Seed of the index-th input set drawn for the benchmark seed."""
    digest = hashlib.sha256(f"perfbench/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


class Bench:
    """Inputs, environment and scratch directory for one workload and seed."""

    def __init__(self, root: Path, workload: str, seed: int, tiny: bool = False):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.tiny = tiny
        self.dir = root / ".bench_runs" / f"{workload}-seed{seed}-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.config = self.write_inputs(0)[1]
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONUNBUFFERED="1")
        # One BLAS thread: the workload process then needs one core, and a
        # neighbour busy on another core does not stall a thread team.
        for var in BLAS_THREAD_VARS:
            self.env[var] = "1"

    def write_inputs(self, index: int) -> tuple[Path, dict]:
        """Config file (and images) of one input set; written once per index."""
        directory = self.dir / f"inputs{index}"
        path = directory / "config.json"
        if path.exists():
            return path, json.loads(path.read_text())
        config = workloads.make_config(self.workload, input_seed(self.seed, index),
                                       directory, self.tiny)
        directory.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(config, indent=1))
        return path, config

    @property
    def rounds(self) -> int:
        return self.config["train"]["rounds"]

    @property
    def difficulty(self) -> int:
        return self.config["ledger"]["difficulty"]

    def spawn(self, mode: str, tag: str, index: int = 0) -> dict:
        """Run one workload process on input set ``index``; return its result
        with parent timings."""
        out = self.dir / tag
        job = {"mode": mode, "config": str(self.write_inputs(index)[0]), "out": str(out),
               "result": str(self.dir / f"{tag}.result.json")}
        job_path = self.dir / f"{tag}.job.json"
        job_path.write_text(json.dumps(job))
        spawned = time.monotonic()
        try:
            proc = subprocess.run([sys.executable, str(WORKER), str(job_path)], cwd=self.root,
                                  env=self.env, stdout=subprocess.DEVNULL,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            raise ChildFailed(f"{tag}: no result after {CHILD_TIMEOUT_S} s") from exc
        if proc.returncode != 0:
            raise ChildFailed(f"{tag}: worker exited with code {proc.returncode}")
        result = json.loads(Path(job["result"]).read_text())
        result["out"] = out
        result["setup_s"] = result["first_round"] - spawned
        result["run_s"] = result["end"] - result["first_round"]
        return result

    def cleanup(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            self.dir.parent.rmdir()
        except OSError:
            pass  # another invocation is still using it


def _median(values):
    return statistics.median(values) if values else None


def _mean(values):
    return sum(values) / len(values) if values else None


def _stage_seconds(out: Path) -> dict:
    totals = dict.fromkeys(STAGES, 0.0)
    lines = (out / "timings.csv").read_text().splitlines()
    header = lines[0].split(",")
    for line in lines[1:]:
        row = dict(zip(header, line.split(",")))
        for s in STAGES:
            totals[s] += float(row[f"{s}_ms"]) / 1000.0
    return totals


def _verdict_times(out: Path) -> list[float]:
    text = (out / "verdicts.jsonl").read_text()
    return [json.loads(line)["wall_time_ms"] for line in text.splitlines()]


def measure(bench: Bench, seconds: float, trace: bool) -> dict:
    """Warm-up, then timed runs until ``seconds`` elapse; check every run."""
    import checks  # imports fedchain, so only after main() put ./src on the path

    check_tracer = None
    if trace:
        check_tracer = tracer.Tracer()
        check_tracer.phase = "run"
        check_tracer.install(tracer.CHECK_TARGETS)

    outcome = {"attempted": 0, "failed": 0, "problems": [], "runs": []}

    references: dict[int, dict] = {}

    def checked(result: dict, index: int) -> None:
        res = checks.check_run(result["out"], bench.rounds, bench.difficulty,
                               references.get(index))
        references.setdefault(index, res.digests)
        outcome["attempted"] += res.rounds
        outcome["failed"] += res.failed_rounds
        outcome["problems"] += [f"{result['out'].name}: {p}" for p in res.problems]
        result["verdict_ms"] = _verdict_times(result["out"])
        result["stages_s"] = _stage_seconds(result["out"])
        shutil.rmtree(result["out"], ignore_errors=True)

    checked(bench.spawn("run", "warmup", 0), 0)

    start = time.monotonic()
    rep_wall: list[float] = []
    while True:
        elapsed = time.monotonic() - start
        if len(outcome["runs"]) >= 2 and elapsed + _median(rep_wall) > seconds:
            break
        i = len(outcome["runs"])
        t0 = time.monotonic()
        mode = "trace" if trace and i % 2 == 0 else "run"
        result = bench.spawn(mode, f"rep{i}", i // 2)
        result["mode"] = mode
        checked(result, i // 2)
        outcome["runs"].append(result)
        rep_wall.append(time.monotonic() - t0)
    if check_tracer is not None:
        outcome["check_trace"] = check_tracer.report()["phases"]["run"]
    return outcome


def end_to_end(outcome: dict) -> tuple[dict, list]:
    runs = [r for r in outcome["runs"] if r["mode"] == "run"]

    def summary_median(key: str):
        return _median([r["summary"][key] for r in runs if r["summary"][key] is not None])

    setups = [r["setup_s"] for r in runs]
    verdicts = [t for r in runs for t in r["verdict_ms"]]
    run_times = [r["run_s"] for r in runs]
    values = {
        "setup_s": _median(setups),
        "run_s": _median(run_times),
        "peak_rss_mb": _median([r["peak_rss_kb"] / 1024.0 for r in runs]),
        "final_accuracy": summary_median("final_global_accuracy"),
    }
    notes = {
        "setup_s": f"median of {len(setups)} processes, range {min(setups):.4g}-{max(setups):.4g}",
        "run_s": f"median of {len(runs)} runs, range {min(run_times):.4g}-{max(run_times):.4g}",
        "peak_rss_mb": f"median of {len(runs)} runs",
        "final_accuracy": f"median of {len(runs)} runs' final_global_accuracy",
    }
    extra = [
        ("verdict_ms_p50", _median(verdicts), "ms",
         f"median of {len(verdicts)} verdicts" if verdicts else "no verdicts (verifier off)"),
        ("detector_recall", summary_median("detector_recall"), "fraction",
         f"median of {len(runs)} runs"),
        ("detector_fpr", summary_median("detector_false_positive_rate"), "fraction",
         f"median of {len(runs)} runs"),
        ("round_error_rate", outcome["failed"] / outcome["attempted"], "fraction",
         f"{outcome['failed']} of {outcome['attempted']} rounds, warm-up included"),
        ("verdict_error_rate", None, "fraction", "from the traced run (--trace 1)"),
    ]
    rows = [(n, values[n], u, notes[n]) for n, u in END_TO_END] + extra
    return values, rows


def per_layer(outcome: dict) -> tuple[dict, list, list, int, int]:
    traced = [r for r in outcome["runs"] if r["mode"] == "trace"]
    untraced = [r for r in outcome["runs"] if r["mode"] == "run"]
    run_s = _mean([r["run_s"] for r in traced])
    reports = [r["trace"] for r in traced]

    def phase_mean(phase: str, name: str, key: str):
        vals = [rep["phases"][phase].get(name, {}).get(key, 0) for rep in reports]
        if any(v is None for v in vals):
            return None
        return vals[0] if len(set(vals)) == 1 else _mean(vals)

    values: dict = {}
    for s in STAGES:
        values[f"simulation.{s}_s"] = _mean([r["stages_s"][s] for r in traced])
    run_names = sorted({n for rep in reports for n in rep["phases"]["run"]})
    self_total = sum(phase_mean("run", n, "self_s") for n in run_names)
    values["trace.run_s"] = run_s
    values["trace.unattributed_s"] = run_s - self_total
    values["trace.overhead_s"] = run_s - _median([r["run_s"] for r in untraced])

    rows = []
    for module, path, work, _ in tracer.TARGETS:
        name = tracer.target_name(module, path)
        phase = "setup" if module == "data" else "run"
        calls = phase_mean(phase, name, "calls")
        count = phase_mean(phase, name, "work") if work else None
        self_s = phase_mean(phase, name, "self_s")
        values[f"{name}.calls"] = calls
        if work:
            values[f"{name}.{work}"] = -1 if count is None else count
        if phase == "run":
            values[f"{name}.self_pct"] = 100.0 * self_s / run_s
        rows.append((name, phase, calls, work, count, self_s))
    values["shadow.verdicts"] = sum(rep["shadow"]["verdicts"] for rep in reports)
    values["shadow.verdict_mismatches"] = sum(rep["shadow"]["mismatches"] for rep in reports)
    values["shadow.max_acc_gap"] = max(rep["shadow"]["max_acc_gap"] for rep in reports)
    shadow_s = phase_mean("run", tracer.SHADOW, "self_s")
    values[f"{tracer.SHADOW}.self_pct"] = 100.0 * shadow_s / run_s
    rows.append((tracer.SHADOW, "run", phase_mean("run", tracer.SHADOW, "calls"), None, None,
                 shadow_s))
    for name, entry in sorted(outcome.get("check_trace", {}).items()):
        rows.append((name, "check", entry["calls"], None, None, entry["self_s"]))
    absent = sorted({n for rep in reports for n in rep["absent"]})
    return values, rows, absent, len(traced), len(untraced)


def _fmt(v) -> str:
    if v is None:
        return "n/a"
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def print_end_to_end(rows: list) -> None:
    print(f"{'metric':<20} {'value':>12} {'unit':<9} note")
    for name, value, unit, note in rows:
        print(f"{name:<20} {_fmt(value):>12} {unit:<9} {note}")


def print_per_layer(values: dict, rows: list, absent: list, n_traced: int,
                    n_untraced: int) -> None:
    run_s = values["trace.run_s"]
    print(f"traced runs {n_traced}, untraced runs {n_untraced}; "
          f"traced run_s {run_s:.4f} s (mean), tracing overhead {values['trace.overhead_s']:.4f} s")
    for s in STAGES:
        print(f"  simulation.{s}_s = {values[f'simulation.{s}_s']:.4f} s (timings.csv)")
    print(f"{'function':<44} {'phase':<6} {'calls':>9} {'self_s':>10} {'self%':>7} work")
    for name, phase, calls, work, count, self_s in rows:
        pct = f"{100.0 * self_s / run_s:.2f}" if phase == "run" and self_s else ""
        detail = f"{work}={_fmt(count)}" if work else ""
        if name.startswith("prg.") and count and self_s:
            detail += f" ({1e9 * self_s / count:.1f} ns/lane)"
        print(f"{name:<44} {phase:<6} {_fmt(calls):>9} {_fmt(self_s):>10} {pct:>7} {detail}")
    print(f"unattributed run time {values['trace.unattributed_s']:.4f} s "
          f"(run-phase self times plus this sum to traced run_s)")
    verdicts = values["shadow.verdicts"]
    rate = values["shadow.verdict_mismatches"] / verdicts if verdicts else None
    print(f"verdict_error_rate {_fmt(rate)} fraction "
          f"({values['shadow.verdict_mismatches']} of {verdicts} verdicts; "
          f"max |encrypted - plaintext accuracy| {values['shadow.max_acc_gap']:.4g})")
    if absent:
        print("absent layers: " + ", ".join(absent))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink the workload to smoke-test size")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "fedchain" / "__init__.py").is_file():
        print("perfbench: ./src/fedchain not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))

    bench = Bench(root, args.workload, args.seed, args.tiny)
    try:
        outcome = measure(bench, args.seconds, bool(args.trace))
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        bench.cleanup()

    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s measured, "
          f"closed loop, one process at a time")
    if args.trace:
        values, rows, absent, n_traced, n_untraced = per_layer(outcome)
        print_per_layer(values, rows, absent, n_traced, n_untraced)
        units = per_layer_names()
    else:
        values, rows = end_to_end(outcome)
        print_end_to_end(rows)
        units = END_TO_END
    for problem in outcome["problems"]:
        print(f"CHECK FAILED {problem}")
    correct = not outcome["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
