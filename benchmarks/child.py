"""One benchmark rep in a fresh process: set-up only, a run, or a traced run.

Usage: python3 child.py PLAN REP_DIR RESULT MODE, with MODE one of
``setup``, ``run`` or ``trace``. The process works inside REP_DIR, reads
the inputs the plan names, and writes its measurements as JSON to RESULT.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path


def setup(plan: dict) -> float:
    """Import psgrank and bring the corpus to a queryable state."""
    t0 = time.perf_counter()
    if plan["workload"] == "toolchain":
        from psgrank import cli

        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(plan["steps"][0])
        if code != 0:
            raise RuntimeError(f"psgrank index exited with {code}")
    else:
        import psgrank.experiment  # noqa: F401  (the module a run imports)
        from psgrank.corpus import ingest_corpus
        from psgrank.index import build_index

        build_index(ingest_corpus(plan["config"]["corpus"], "jsonl"))
    return time.perf_counter() - t0


def run_experiment(plan: dict, tracer) -> tuple[float, list[int]]:
    from psgrank import experiment

    config = experiment.ExperimentConfig.from_dict(plan["config"])
    if tracer is not None:
        tracer.patch(experiment, "run_experiment", "experiment")
    t0 = time.perf_counter()
    report = experiment.run_experiment(config, ".")
    run_s = time.perf_counter() - t0
    if tracer is not None:
        tracer.counters["experiment.folds"] += len(report.folds)
    return run_s, []


def run_toolchain(plan: dict, tracer) -> tuple[float, list[int]]:
    """The CLI chain; returns its wall time and each command's exit code."""
    from psgrank import cli

    codes, outputs = [], []
    t0 = time.perf_counter()
    for step in plan["steps"]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            span = tracer.begin(f"cli.{step[0]}") if tracer is not None else None
            codes.append(cli.main(step))
            if tracer is not None:
                tracer.finish(span)
        outputs.append(buf.getvalue())
    run_s = time.perf_counter() - t0
    for n, (step, out) in enumerate(zip(plan["steps"], outputs)):
        Path(f"{n}-{step[0]}.stdout").write_text(out, encoding="utf-8")
    return run_s, codes


def main(argv: list[str]) -> int:
    plan_path, rep_dir, result_path, mode = argv
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    result_path = Path(result_path).resolve()
    rep_dir = Path(rep_dir)
    rep_dir.mkdir(parents=True, exist_ok=True)
    os.chdir(rep_dir)
    result: dict = {}
    if mode == "setup":
        result["setup_s"] = setup(plan)
    else:
        tracer = None
        if mode == "trace":
            import spans

            tracer = spans.Tracer()
            spans.install(tracer)
        runner = run_toolchain if plan["workload"] == "toolchain" else run_experiment
        result["run_s"], returncodes = runner(plan, tracer)
        # Imported here, not at the top: it imports numpy, and a set-up rep
        # must time numpy's import as part of importing psgrank.
        import workloads

        result["problems"] = workloads.check(plan, Path("."), returncodes)
        result["digest"] = workloads.tree_digest(Path("."))
        if tracer is not None:
            result["trace"] = tracer.dump()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result_path.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
