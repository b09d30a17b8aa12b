"""psgrank benchmark: one workload per invocation, closed loop, one rep at a time.

    python3 benchmarks/run_bench.py --workload effect --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; psgrank is imported from ``src/``.
Inputs are generated from ``--seed`` under ``.bench_work/`` and removed at
the end. Every rep runs in a fresh child process, so no cache survives
between reps and each rep's peak memory is its own. Parent and children
are pinned to one CPU, and ``speed.Probe`` samples that CPU's speed
during each rep; the reported times are wall times at the reference
speed (see speed.py).

With ``--trace 0`` the run reports the end-to-end metrics of
``BENCHMARK.json``: set-up several times, then runs until ``--seconds``
have passed. With ``--trace 1`` it runs the same untraced reps, then one
traced rep, and reports the per-layer metrics. The last line of standard
output is one JSON object; the lines before it are the same numbers for
people, with units and sample counts. See benchmarks/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import spans
import speed
import workloads

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SETUP_REPS = 3
# Every invocation must end within 180 s; leave room for generation and exit.
DEADLINE_S = 165.0


def _environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


class Session:
    """Spawns child reps for one workload and collects their results."""

    def __init__(self, work: Path, plan_path: Path, deadline: float, cpu: int | None):
        self.work = work
        self.plan_path = plan_path
        self.deadline = deadline
        self.cpu = cpu
        self.attempted = 0
        self.failures: list[str] = []
        self.results: dict[str, list[dict]] = {"setup": [], "run": [], "trace": []}

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def rep(self, mode: str) -> dict | None:
        """Run one child; its result, or None when it crashed or failed its check."""
        n = self.attempted
        self.attempted += 1
        result_path = self.work / f"result{n}.json"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
        )
        cmd = [sys.executable, str(HERE / "child.py"), str(self.plan_path),
               str(self.work / f"rep{n}"), str(result_path), mode]
        probe = speed.Probe(self.cpu).start()
        try:
            proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                                  timeout=max(1.0, self.remaining()))
        except subprocess.TimeoutExpired:
            self.failures.append(f"rep {n} ({mode}): timed out")
            return None
        finally:
            slowdown = probe.stop()
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            self.failures.append(f"rep {n} ({mode}): exit {proc.returncode}: {tail[0]}")
            return None
        result = json.loads(result_path.read_text(encoding="utf-8"))
        result["slowdown"] = slowdown
        result["steal"] = probe.steal
        self.results[mode].append(result)
        shutil.rmtree(self.work / f"rep{n}", ignore_errors=True)
        if result.get("problems"):
            self.failures.append(f"rep {n} ({mode}): " + "; ".join(result["problems"]))
            return None
        return result


def _check_digests(key: str, digests: list[str], store: Path) -> list[str]:
    """Byte-determinism: one run tree per workload and inputs, over every rep
    and every earlier run in this checkout (recorded in ``store``)."""
    problems = []
    if len(set(digests)) > 1:
        problems.append(f"run trees differ between reps: {sorted(set(digests))}")
    known = json.loads(store.read_text(encoding="utf-8")) if store.exists() else {}
    earlier = known.setdefault(key, digests[0])
    if earlier != digests[0]:
        problems.append(f"run tree {digests[0]} differs from earlier run {earlier}")
    store.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return problems


def _layer_metrics(names: list[str], trace: dict, traced_s: float, untraced_s: float):
    """Per-layer metrics of one traced rep, and problems with its self times."""
    self_s = spans.self_times(trace)
    counters = trace["counters"]
    values = {}
    reported_spans = set()
    for name in names:
        if name == "trace.overhead_s":
            value = traced_s - untraced_s
        elif name == "features.esa_reuse":
            vectors = counters.get("features.psg_vectors", 0)
            value = 1.0 - counters.get("features.esa_profiles", 0) / vectors if vectors else 0.0
        elif name.endswith("_s"):
            span = "experiment" if name == "experiment.self_s" else name[:-2]
            reported_spans.add(span)
            value = self_s.get(span, 0.0)
        else:
            value = counters.get(name, 0)
        values[name] = value
    problems = []
    unreported = set(self_s) - reported_spans
    if unreported:
        problems.append(f"spans without a metric: {sorted(unreported)}")
    gap = traced_s - sum(self_s.values())
    if abs(gap) > abs(values["trace.overhead_s"]) + 1e-3:
        problems.append(
            f"layer self times sum to {traced_s - gap:.4f} s, traced run_s is "
            f"{traced_s:.4f} s: the gap exceeds trace.overhead_s"
        )
    return values, problems


def _quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return ""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f" (q1 {q1:.4f}, q3 {q3:.4f})"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not (ROOT / "src" / "psgrank" / "__init__.py").is_file():
        print(f"error: no psgrank sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(ROOT / "src"))

    base = ROOT / ".bench_work"
    base.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=base))
    try:
        plan = workloads.generate(args.workload, args.seed, work / "inputs")
        inputs_key = f"{args.workload}:{workloads.tree_digest(work / 'inputs')}"
        plan_path = work / "plan.json"
        plan_path.write_text(json.dumps(plan), encoding="utf-8")
        cpu = speed.pin_to_one_cpu()
        print(f"environment: {json.dumps(_environment(), sort_keys=True)}, pinned to cpu {cpu}")
        print(f"workload: {args.workload} seed={args.seed} seconds={args.seconds:g} "
              f"trace={args.trace}")

        session = Session(work, plan_path, started + DEADLINE_S, cpu)
        if not args.trace:
            for _ in range(SETUP_REPS):
                session.rep("setup")
        loop_start = time.monotonic()
        while time.monotonic() - loop_start < args.seconds or not session.results["run"]:
            if session.rep("run") is None:
                break
            last = session.results["run"][-1]["run_s"]
            # Keep room for one more rep and, with --trace 1, the traced one.
            if session.remaining() < 2 * last + 5:
                break
        if args.trace and session.results["run"]:
            session.rep("trace")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    runs = session.results["run"]
    traced = session.results["trace"]
    if not runs or (args.trace and not traced):
        for failure in session.failures:
            print(f"failed: {failure}", file=sys.stderr)
        print("error: no rep completed; no result", file=sys.stderr)
        return 1

    problems = list(session.failures)
    digests = [r["digest"] for r in runs + traced]
    problems += _check_digests(inputs_key, digests, base / "digests.json")
    print(f"run tree sha256: {digests[0]} ({len(digests)} reps)")

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        # The untraced median, at the speed the CPU ran during the traced rep.
        untraced_s = statistics.median(r["run_s"] / r["slowdown"] for r in runs)
        metrics, trace_problems = _layer_metrics(
            names, traced[0]["trace"], traced[0]["run_s"], untraced_s * traced[0]["slowdown"]
        )
        problems += trace_problems
        for name in names:
            print(f"{name}: {metrics[name]:.6g} {units[name]} (1 traced rep)")
    else:
        setups = session.results["setup"]
        samples = {
            "run_s": [r["run_s"] / r["slowdown"] for r in runs],
            "setup_s": [r["setup_s"] / r["slowdown"] for r in setups],
            "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
        }
        metrics = {}
        for name, values in samples.items():
            if not values:
                problems.append(f"no samples of {name}")
                continue
            metrics[name] = statistics.median(values)
            print(f"{name}: median {metrics[name]:.4f} {units[name]} over {len(values)} "
                  f"samples{_quartiles(values)}")
        for name, reps in (("run_s", runs), ("setup_s", setups)):
            if reps:
                slowdowns = ", ".join(f"{r['slowdown']:.3f} ({r['steal']:.1%} stolen)" for r in reps)
                print(f"{name} wall time: median {statistics.median(r[name] for r in reps):.4f} s, "
                      f"slowdown per rep {slowdowns}")
    failed = len(session.failures)
    print(f"error_rate: {failed / session.attempted:.4f} ({failed} failed of "
          f"{session.attempted} reps)")
    for problem in problems:
        print(f"problem: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": session.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
