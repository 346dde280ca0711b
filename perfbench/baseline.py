#!/usr/bin/env python3
"""Measure the benchmark's baseline and its run-to-run spread.

Usage (from the repository root):

    python3 perfbench/baseline.py --program-commit REV --out perfbench/baseline.json

Runs ``run.py`` once per seed 1-10 on every workload with tracing off, and
once more per workload with tracing on (seed 1). For each end-to-end metric
it prints the spread of the per-run values -- the distance between the
first and third quartiles as a share of the median -- next to the metric's
bound in BENCHMARK.json, and writes every run's values and per-pass samples
to ``--out``. Exits 1 if a spread exceeds its bound, an operation failed,
or a traced run's self times and ``pass.outside_s`` miss its wall time by
more than ``trace.overhead_s``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import tracing
from run import BENCHMARK_JSON, BLAS_THREADS, SETUP_PAIRS, layer_shares
from workloads import WORKLOADS

SEEDS = list(range(1, 11))
SAMPLES_LINE = re.compile(r"^(\w+) (?:mean|median) .* samples (\[.*\])$")


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    started = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    samples = {m.group(1): json.loads(m.group(2)) for m in map(SAMPLES_LINE.match, lines) if m}
    return {"seed": seed, "run_s": time.perf_counter() - started, "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "samples": samples, "notes": lines[:-1] if trace else lines[:2]}


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--program-commit", default="unknown",
                        help="the commit whose src/ is measured, for the record")
    parser.add_argument("--out", help="baseline JSON to write")
    args = parser.parse_args()

    contract = json.loads(BENCHMARK_JSON.read_text())
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    units = {m["name"]: m["unit"] for m in contract["end_to_end"]}
    why = {w["name"]: w["why"] for w in contract["workloads"]}
    seconds = contract["run_seconds"]

    record = {
        "program_commit": args.program_commit,
        "environment": {
            "nproc": os.cpu_count(), "cpu_model": cpu_model(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas_threads_in_passes": BLAS_THREADS,
        },
        "run_seconds": seconds,
        "seeds": SEEDS,
        "workloads": {},
    }
    ok = True
    for name in WORKLOADS:
        runs = [run(name, seed, seconds, 0) for seed in SEEDS]
        traced = run(name, SEEDS[0], seconds, 1)
        entry = {"why": why[name], "generator": WORKLOADS[name].params, "runs": runs,
                 "traced_run": traced, "median": {}, "spread": {}}
        passes = sum(len(r["samples"]["wall_s"]) for r in runs)
        for metric, bound in bounds.items():
            values = [r["metrics"][metric] for r in runs]
            n = SETUP_PAIRS * len(runs) if metric == "setup_s" else passes
            entry["median"][metric] = statistics.median(values)
            entry["spread"][metric] = spread(values)
            flag = "" if entry["spread"][metric] <= bound / 3 else "  above a third of the bound"
            ok &= entry["spread"][metric] <= bound
            print(f"{name:16s} {metric:12s} median {entry['median'][metric]:10.4f} "
                  f"{units[metric]:5s} ({len(runs)} runs, {n} samples) "
                  f"spread {entry['spread'][metric]:.3f} bound {bound}{flag}", flush=True)
        layers = traced["metrics"]
        unaccounted = tracing.unaccounted_s(layers)
        entry["trace_check"] = {"unaccounted_s": unaccounted,
                                "overhead_s": layers["trace.overhead_s"],
                                "within": abs(unaccounted) <= layers["trace.overhead_s"]}
        ok &= entry["trace_check"]["within"]
        print(f"{name:16s} traced wall_s {layers['trace.wall_s']:.4f} s, self times + "
              f"pass.outside_s miss it by {unaccounted:.4f} s; trace.overhead_s "
              f"{layers['trace.overhead_s']:.4f} s", flush=True)
        entry["layer_shares"] = layer_shares(layers)
        entry["inclusive_shares"] = {k: layers[k] / layers["trace.wall_s"]
                                     for k in ("pools.build_s", "sampling.sap_s",
                                               "training.sgd_s", "formats.read_s")}
        failed = sum(r["failed"] for r in runs) + traced["failed"]
        attempted = sum(r["attempted"] for r in runs) + traced["attempted"]
        ok &= failed == 0
        print(f"{name:16s} failed_ratio {failed / attempted:.4f} ({failed} of {attempted} "
              f"operations); longest run "
              f"{max(r['run_s'] for r in runs + [traced]):.1f} s", flush=True)
        record["workloads"][name] = entry
    # the hot spots ROADMAP aim 1 names, from the traced runs
    pools = record["workloads"]["scores-longtail"]["inclusive_shares"]["pools.build_s"]
    sap = record["workloads"]["stability-head"]["inclusive_shares"]["sampling.sap_s"]
    record["hot_spots"] = {
        "pools_majority_on_scores_longtail": {"share": pools, "reproduces": pools > 0.5},
        "sap_majority_on_stability_head": {"share": sap, "reproduces": sap > 0.5},
    }
    print(f"hot spots: pools {pools:.1%} of scores-longtail, SAP {sap:.1%} of "
          f"stability-head (traced wall_s)")
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
