"""hodgekit benchmark: one workload, one seed, one result line.

Usage (from the repository root):
  python3 perfbench/run.py --workload homology --seed 1 --seconds 20 --trace 0

Workloads: homology, signal, sheaf, cli-small (see perfbench/README.md).
The inputs are generated from --seed and written under .perfbench_run/;
hodgekit is imported from src/ of this checkout.  With --trace 0 the last
stdout line carries the end-to-end metrics, with --trace 1 the per-layer
metrics of a traced run.  Human-readable lines, including the pinned
environment and every failed request, come before it.
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
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_run"
SETUP_REPEATS = 7
BUDGET_S = 170  # every run must end within 180 s

END_TO_END_UNITS = {
    "throughput_rps": "1/s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "success_rate": "ratio",
}


def parse_args(argv=None):
    sys.path.insert(0, str(HERE))
    from inputs import SIZES, WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=SIZES, default="full",
                   help="input size; 'tiny' is for the self-tests")
    return p.parse_args(argv)


def pinned_env() -> tuple[dict, dict]:
    """Worker environment with BLAS threads pinned, and what to record.

    BLAS runs on one thread.  On a 2-core host with one other busy process,
    two BLAS threads made dense requests about 60% slower, one thread 15%.
    """
    nproc = os.cpu_count() or 1
    threads = "1"
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env.pop("PYTHONPATH", None)
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    record = {"blas_threads": int(threads), "nproc": nproc, "cpu": cpu,
              "python": platform.python_version(), "numpy": numpy.__version__}
    return env, record


def spawn(config: dict, work: Path, env: dict, deadline: float) -> dict:
    """Run one worker process to completion and return its result."""
    path = work / f"worker-{config['mode']}-{time.monotonic_ns()}.json"
    config = dict(config, out=str(path.with_suffix(".out.json")))
    path.write_text(json.dumps(config), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(path)],
        cwd=str(HERE), env=env, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return json.loads(Path(config["out"]).read_text(encoding="utf-8"))


class Summary:
    """Request latencies of one side of a run, summarised over its rounds.

    Each request of the mix gets one latency: the median of its repeats,
    so a slow phase of the host that covers fewer than half of them does
    not move it.  Throughput and the percentiles are taken over these
    per-request latencies, with each request counted once per round.
    """

    def __init__(self, rounds: list[dict]):
        columns = list(zip(*(r["latencies"] for r in rounds)))
        self.latencies = sorted(statistics.median(c) for c in columns)
        self.repeats = len(rounds)
        self.samples = self.repeats * len(columns)
        self.failed = sum(not ok for r in rounds for ok in r["ok"])
        ok_share = sum(sum(c) / len(c) for c in zip(*(r["ok"] for r in rounds)))
        self.throughput = ok_share / sum(self.latencies)
        self.loop_throughput = (self.samples - self.failed) / sum(map(sum, columns))

    def percentile(self, q: int) -> float:
        if len(self.latencies) == 1:
            return self.latencies[0]
        return statistics.quantiles(self.latencies, n=100, method="inclusive")[q - 1]


def main(argv=None) -> int:
    start = time.monotonic()
    deadline = start + BUDGET_S
    if not (SRC / "hodgekit" / "__init__.py").is_file():
        print(f"error: no hodgekit sources at {SRC}", file=sys.stderr)
        return 2
    args = parse_args(argv)
    from inputs import build_plan

    env, record = pinned_env()
    work = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        plan = build_plan(args.workload, args.seed, args.size, work / "inputs")
        (work / "plan.json").write_text(json.dumps(plan), encoding="utf-8")
        config = {"plan": str(work / "plan.json"), "src": str(SRC), "seconds": args.seconds,
                  "spans": str(OUT / f"spans-{args.workload}-{args.seed}.json")}
        # With --trace 0, the extra set-up processes run half before and
        # half after the timed loop, so that their median spans the run.
        extra = 0 if args.trace else SETUP_REPEATS - 1
        runs = [spawn(dict(config, mode="setup"), work, env, deadline)
                for _ in range(extra // 2)]
        main_run = spawn(dict(config, mode="traced" if args.trace else "timed"),
                         work, env, deadline)
        runs.append(main_run)
        runs += [spawn(dict(config, mode="setup"), work, env, deadline)
                 for _ in range(extra - extra // 2)]
        setups = [r["setup_s"] for r in runs]
        warm_errors = [r["warmup_error"] for r in runs]
    except (RuntimeError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return report(args, plan, record, main_run, setups, warm_errors, time.monotonic() - start)


def report(args, plan, record, run, setups, warm_errors, wall) -> int:
    untraced = Summary(run["rounds"]["untraced"])
    traced = Summary(run["rounds"]["traced"]) if args.trace else None
    failures = run["failures"]
    warm_failures = [w for w in warm_errors if w] if plan[0]["known_defect"] is None else []
    problems = run.get("trace_problems", [])
    correct = (not warm_failures and not problems
               and all(f["known_defect"] is not None for f in failures))

    print(f"workload {args.workload} seed {args.seed} size {args.size} trace {args.trace}: "
          f"{len(plan)} requests per round, {len(run['rounds']['untraced'])} untraced and "
          f"{len(run['rounds']['traced'])} traced rounds, {wall:.1f} s wall")
    print("environment " + json.dumps(record))

    grouped = Counter((f["side"], f["request"], f["why"], f["known_defect"]) for f in failures)
    for (side, request, why, defect), n in grouped.items():
        label = f"known defect ({defect})" if defect else "UNEXPECTED"
        print(f"failed {n}x [{side}] {request}: {why} -- {label}")
    for why in warm_failures:
        print(f"failed [warm-up] {plan[0]['name']}: {why} -- UNEXPECTED")
    for p in problems:
        print(f"trace problem: {p}")
    if run.get("missing_targets"):
        print("trace targets not found: " + ", ".join(run["missing_targets"]))

    if traced:
        metrics = dict(run["layers"])
        metrics["trace.overhead_frac"] = 1.0 - traced.throughput / untraced.throughput
        from tracer import layer_units

        units = layer_units()
        print(f"traced: {traced.samples} requests; per-layer values are means per request")
    else:
        metrics = {
            "throughput_rps": untraced.throughput,
            "latency_p50_s": untraced.percentile(50),
            "latency_p90_s": untraced.percentile(90),
            "peak_rss_mb": run["peak_rss_mb"],
            "setup_s": statistics.median(setups),
            "success_rate": 1.0 - untraced.failed / untraced.samples,
        }
        units = END_TO_END_UNITS
        print(f"error_rate {untraced.failed / untraced.samples:.6f} "
              f"({untraced.failed} of {untraced.samples} requests failed)")
        mix = f"{len(plan)} requests x {untraced.repeats} repeats"
        counts = {"throughput_rps": f"n={untraced.samples}: {mix}",
                  "latency_p50_s": f"n={len(plan)} request medians, {untraced.repeats} repeats each",
                  "latency_p90_s": f"n={len(plan)} request medians, {untraced.repeats} repeats each",
                  "setup_s": f"n={len(setups)}"}
        for name, value in metrics.items():
            n = f" ({counts[name]})" if name in counts else ""
            print(f"{name} {value:.6g} {units[name]}{n}")
        print(f"loop throughput {untraced.loop_throughput:.6g} 1/s: correct requests / "
              f"seconds in requests (n={untraced.samples})")
    print(json.dumps({
        "correct": correct,
        "attempted": untraced.samples + (traced.samples if traced else 0),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
