"""One workload process: validate a config, run the experiment, report times.

Usage: ``python3 perfbench/worker.py JOB.json``.  The job names the raw
config file, the artifact directory, the result file and a mode:

- ``run``: the whole experiment, untraced;
- ``trace``: the whole experiment with every public function traced and the
  plaintext shadow on.

Times are ``time.monotonic()`` readings, which are comparable across
processes, so the parent can measure set-up from the moment it spawned this
process.  The worker imports fedchain only after it starts, so set-up covers
imports, config validation and ``build_state``.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def main(job_path: str) -> None:
    with open(job_path) as fh:
        job = json.load(fh)
    mode = job["mode"]

    from fedchain import simulation
    from fedchain.config import validate

    tracer = None
    if mode == "trace":
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
        tracer.install_shadow()

    with open(job["config"]) as fh:
        cfg = validate(json.load(fh))

    marks: dict = {}
    run_round = simulation.run_round

    def marked_round(state):
        if "first_round" not in marks:
            marks["first_round"] = time.monotonic()
            if tracer is not None:
                tracer.phase = "run"
        return run_round(state)

    simulation.run_round = marked_round
    summary = simulation.run_experiment(cfg, job["out"])
    marks["end"] = time.monotonic()

    result = {
        "summary": summary,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": tracer.report() if tracer is not None else None,
        **marks,
    }
    with open(job["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
