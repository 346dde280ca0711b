#!/usr/bin/env python3
"""The sapeval benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's inputs from the seed, times ``setup_s``, then runs
passes while the next one is expected to end within ``S`` seconds of the
start. Load model: a closed loop with one client. Each pass runs
the workload's operations one after another in one fresh Python process
(``child.py``) importing sapeval from ``./src``; nothing else runs beside
it. Every output of every pass is checked. The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` (operations,
i.e. CLI invocations or ``run_benchmark`` seeds) and ``metrics``: with
``--trace 0`` the end-to-end metrics of BENCHMARK.json, with ``--trace 1``
its per-layer metrics, from a run that alternates plain and traced passes.
The time metrics are calibrated seconds; see ``CALIBRATION_S`` and
``SETUP_CALIBRATION_S``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import tracing
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
BENCHMARK_JSON = HERE.parent / "BENCHMARK.json"
DIGESTS = HERE / "digests.json"
#: Pairs of fresh interpreters, a calibration one and a set-up one, timed
#: for ``setup_s`` in each run.
SETUP_PAIRS = 10
#: A run starts another pass only if the slowest calibration plus the
#: slowest pass so far, this many times over, still ends within the run's
#: time, so that a pass slowed by the host rarely runs past it.
PASS_TIME_MARGIN = 1.15
#: Seconds of a run left for starting and ending this process.
RUN_RESERVE_S = 0.5
#: CPU seconds after which a pass is killed and its operations count as
#: failed; two such passes still end within the run's time limit.
PASS_CPU_LIMIT_S = 60
SETUP_CODE = "import sapeval.cli; sapeval.cli.build_parser()"
#: Pass times are in seconds on a host where ``calibrate.py`` takes this
#: long. On a shared host CPU speed swings by up to 2x within seconds; timing
#: that fixed job just before every pass and scaling the run's passes by
#: its mean time keeps runs made at different host speeds comparable.
CALIBRATION_S = 1.0
#: ``setup_s`` is in seconds on a host where this sapeval-free import job
#: takes ``SETUP_CALIBRATION_S``. It is timed just before each set-up
#: sample, which is scaled by it.
SETUP_CALIBRATION_CODE = "import argparse, csv, json, numpy"
SETUP_CALIBRATION_S = 0.15
#: One BLAS thread in every child: a pass is one process on one core, and a
#: second BLAS thread would make its wall time depend on whether the host's
#: other core happens to be free.
BLAS_THREADS = {k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


@dataclass
class PassResult:
    calibration_s: float
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    errors: list[list[str]]
    msap: float
    ordering_checks_passed: int
    digests: dict[str, str] = field(default_factory=dict)
    layers: dict = field(default_factory=dict)


def _limit_cpu() -> None:
    resource.setrlimit(resource.RLIMIT_CPU, (PASS_CPU_LIMIT_S, PASS_CPU_LIMIT_S))


def run_child(argv: list[str], env: dict, stderr) -> tuple[int, float, resource.struct_rusage]:
    """Run one child process; its exit code, wall seconds and own rusage."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=stderr,
                            preexec_fn=_limit_cpu)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class Runner:
    def __init__(self, name: str, seed: int, root: Path):
        self.name, self.seed = name, seed
        self.workload = WORKLOADS[name]
        self.work = root / ".perfbench" / f"{name}-{seed}-{os.getpid()}"
        self.inputs = self.work / "inputs"
        self.src = root / "src"
        self.env = dict(os.environ, PYTHONPATH=str(self.src), **BLAS_THREADS)
        self.digests = json.loads(DIGESTS.read_text()).get(name, {}).get(str(seed), {})
        self.stderr_path = self.work / "stderr.txt"
        self.expected: dict = {}
        self.passes = 0

    def close(self) -> None:
        """Remove this run's files, and the shared work directory once empty."""
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    def stderr_tail(self) -> str:
        """The end of what this run's child processes wrote to stderr."""
        if not self.stderr_path.exists():
            return ""
        return self.stderr_path.read_text(errors="replace")[-4000:]

    def generate(self) -> None:
        self.inputs.mkdir(parents=True)
        self.expected = self.workload.generate(self.seed, self.inputs)

    def timed(self, argv: list[str], what: str) -> tuple[float, resource.struct_rusage]:
        """Wall seconds and rusage of one child that must succeed."""
        with open(self.stderr_path, "ab") as err:
            code, wall, usage = run_child(argv, self.env, err)
        if code != 0:
            raise RuntimeError(f"{what} failed (exit {code}):\n" + self.stderr_tail())
        return wall, usage

    def calibrate(self) -> float:
        """Time one run of the fixed calibration job."""
        wall, _ = self.timed([sys.executable, str(HERE / "calibrate.py")], "calibrate.py")
        return wall

    def setup_pairs(self) -> list[tuple[float, float]]:
        """(calibration, set-up) seconds of ``SETUP_PAIRS`` pairs of fresh
        interpreters; a set-up one imports the CLI and builds its parser."""
        pairs = []
        for _ in range(SETUP_PAIRS):
            calibration, _ = self.timed([sys.executable, "-c", SETUP_CALIBRATION_CODE],
                                        "the set-up calibration job")
            setup, _ = self.timed([sys.executable, "-c", SETUP_CODE], "importing sapeval.cli")
            pairs.append((calibration, setup))
        return pairs

    def run_pass(self, traced: bool) -> PassResult:
        """Time the calibration job, then one pass."""
        calibration = self.calibrate()
        self.passes += 1
        pass_dir = self.work / f"pass-{self.passes}"
        pass_dir.mkdir()
        ops = self.workload.ops(self.expected, self.inputs, pass_dir)
        spec = {
            "trace_id": f"{self.name}-{self.seed}-{os.getpid()}-{self.passes}" if traced else None,
            "spans_out": str(pass_dir / "spans.json"),
            "results_out": str(pass_dir / "results.json"),
            "ops": [op.to_json() for op in ops],
        }
        spec_path = pass_dir / "spec.json"
        spec_path.write_text(json.dumps(spec))
        with open(self.stderr_path, "ab") as err:
            code, wall, usage = run_child([sys.executable, str(HERE / "child.py"),
                                           str(spec_path)], self.env, err)

        checked = self.workload.check(self.expected, ops)
        errors = checked.errors
        try:
            results = json.loads(Path(spec["results_out"]).read_text())
            codes, ops_s = results["exit_codes"], results["ops_s"]
            trace_costs = results.get("trace_costs")
            if Path(results["sapeval"]).resolve().parent.parent != self.src.resolve():
                codes = [f"sapeval imported from {results['sapeval']}"] * len(ops)
        except (OSError, ValueError, KeyError):
            codes = [f"pass process exited {code} without results"] * len(ops)
            ops_s, trace_costs = wall, None
        for op_errors, op_code in zip(errors, codes):
            if op_code != 0:
                op_errors.insert(0, f"exit code {op_code}")

        result = PassResult(calibration, wall, usage.ru_utime + usage.ru_stime,
                            usage.ru_maxrss / 1024.0, errors, checked.msap,
                            checked.ordering_checks_passed)
        for op in ops:
            if op.argv is not None:
                result.digests.update((output, sha256(path)) for output, path in op.outputs.items()
                                      if os.path.exists(path))
        if traced and code == 0 and trace_costs:
            result.layers = tracing.layer_metrics(spec["spans_out"], wall, ops_s, trace_costs)
        shutil.rmtree(pass_dir)
        return result

    def run_passes(self, start: float, seconds: float,
                   kinds: list[bool]) -> dict[bool, list[PassResult]]:
        """Cycle through ``kinds`` (traced or not) until the next pass, with
        its calibration, could end more than ``seconds`` after ``start``
        (see ``PASS_TIME_MARGIN``); every kind runs at least once."""
        done: dict[bool, list[PassResult]] = {kind: [] for kind in kinds}
        while True:
            kind = kinds[sum(map(len, done.values())) % len(kinds)]
            done[kind].append(self.run_pass(kind))
            elapsed = time.perf_counter() - start
            if all(done.values()):
                upcoming = kinds[sum(map(len, done.values())) % len(kinds)]
                longest = PASS_TIME_MARGIN * (
                    max(p.calibration_s for kind in done.values() for p in kind)
                    + max(p.wall_s for p in done[upcoming]))
                if elapsed + longest > seconds:
                    return done


def contract() -> tuple[dict, dict]:
    """Units of the end-to-end and per-layer metrics named in BENCHMARK.json."""
    spec = json.loads(BENCHMARK_JSON.read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def percentile_note(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100 >= 10:
            return f"p{p} {np.percentile(values, p):.4f}"
    return "no percentile above p50 has 10 samples beyond it"


def speed_scale(passes: list[PassResult]) -> float:
    """Factor from host seconds to calibrated seconds over ``passes``: the
    calibration job's seconds on the reference host over its mean seconds
    before these passes."""
    return CALIBRATION_S * len(passes) / sum(p.calibration_s for p in passes)


def layer_shares(layers: dict) -> dict[str, float]:
    """Each layer's self time as a share of the traced pass's wall time."""
    shares: dict[str, float] = {}
    for key in [*tracing.SELF_TIME_METRICS, "pass.outside_s"]:
        layer = key.split(".")[0]
        shares[layer] = shares.get(layer, 0.0) + layers[key] / layers["trace.wall_s"]
    return shares


def environment() -> str:
    blas = ", ".join(f"{k}={v}" for k, v in BLAS_THREADS.items())
    return (f"nproc {os.cpu_count()}, {platform.processor() or platform.machine()}, "
            f"Python {platform.python_version()}, numpy {np.__version__}, {blas}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "sapeval" / "cli.py").is_file():
        print(f"error: no sapeval sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    end_to_end_units, per_layer_units = contract()

    runner = Runner(args.workload, args.seed, root)
    try:
        started = time.perf_counter()
        runner.generate()
        generate_s = time.perf_counter() - started
        setup_pairs = [] if args.trace else runner.setup_pairs()
        done = runner.run_passes(started, args.seconds - RUN_RESERVE_S,
                                 [False, True] if args.trace else [False])
    finally:
        stderr_tail = runner.stderr_tail()
        runner.close()

    passes = [p for kind in done.values() for p in kind]
    attempted = sum(len(p.errors) for p in passes)
    failed = sum(1 for p in passes for op_errors in p.errors if op_errors)
    for message in sorted({m for p in passes for e in p.errors for m in e})[:20]:
        print(f"check failed: {message}", file=sys.stderr)
    if failed:
        sys.stderr.write(stderr_tail)

    plain = done[False]
    print(f"{args.workload} seed {args.seed}: {len(passes)} passes, inputs generated in "
          f"{generate_s:.2f} s, run took {time.perf_counter() - started:.1f} s; "
          f"{environment()}")
    print(f"operations attempted {attempted}, failed {failed}, "
          f"failed_ratio {failed / attempted:.4f}")
    if args.trace:
        traced = sorted(done[True], key=lambda p: p.wall_s)
        median_pass = traced[(len(traced) - 1) // 2]
        scale = speed_scale(passes)
        values = tracing.scaled(median_pass.layers, scale)
        if values:
            recorded = {k: v for k, v in runner.digests.items() if k in median_pass.digests}
            values["cli.outputs_compared"] = len(recorded)
            values["cli.outputs_changed"] = sum(median_pass.digests[k] != v
                                                for k, v in recorded.items())
            values["benchmark.ordering_checks_passed"] = median_pass.ordering_checks_passed
            shares = layer_shares(values)
            layer = max(shares, key=shares.get)
            unaccounted = tracing.unaccounted_s(values)
            difference = (statistics.mean(p.wall_s for p in traced)
                          - statistics.mean(p.wall_s for p in plain)) * scale
            print(f"traced passes {len(traced)}, plain passes {len(plain)}; layers from the "
                  f"median traced pass, in calibrated seconds; dominant layer {layer} "
                  f"({shares[layer]:.1%} of traced wall_s, self times); "
                  f"pools.build_s {values['pools.build_s'] / values['trace.wall_s']:.1%}, "
                  f"sampling.sap_s {values['sampling.sap_s'] / values['trace.wall_s']:.1%}")
            print(f"trace.wall_s {values['trace.wall_s']:.4f} s = self times + pass.outside_s "
                  f"{values['pass.outside_s']:.4f} s + unaccounted {unaccounted:.4f} s; "
                  f"|unaccounted| within trace.overhead_s {values['trace.overhead_s']:.4f} s: "
                  f"{'yes' if abs(unaccounted) <= values['trace.overhead_s'] else 'no'}; "
                  f"mean traced minus mean plain calibrated wall_s: {difference:.4f} s")
        units = per_layer_units
    else:
        scale = speed_scale(plain)
        samples = {
            "wall_s": [p.wall_s * scale for p in plain],
            "cpu_s": [p.cpu_s * scale for p in plain],
            "peak_rss_mb": [p.peak_rss_mb for p in plain],
            "msap": [p.msap for p in plain],
            "setup_s": [setup * SETUP_CALIBRATION_S / calibration
                        for calibration, setup in setup_pairs],
            "raw_wall_s": [p.wall_s for p in plain],
            "raw_cpu_s": [p.cpu_s for p in plain],
            "calibration_s": [p.calibration_s for p in plain],
            "raw_setup_s": [setup for _, setup in setup_pairs],
            "setup_calibration_s": [calibration for calibration, _ in setup_pairs],
        }
        values = {name: statistics.median(v) for name, v in samples.items()}
        for name, v in samples.items():
            summary = f"median {values[name]:.6g}"
            if name in ("wall_s", "cpu_s"):
                values[name] = statistics.mean(v)
                summary = f"mean {values[name]:.6g} ({summary})"
            print(f"{name} {summary} {end_to_end_units.get(name, 's')} (n={len(v)}; "
                  f"{percentile_note(v)}); samples {[round(x, 6) for x in v]}")
        print(f"wall_s and cpu_s are calibrated seconds: the run's raw pass times times "
              f"{scale:.4f} = {CALIBRATION_S} s / the mean calibration_s timed before them. "
              f"setup_s scales each raw_setup_s by {SETUP_CALIBRATION_S} s / the "
              f"setup_calibration_s timed just before it.")
        units = end_to_end_units

    metrics = {name: {"value": float(values[name]), "unit": unit}
               for name, unit in units.items() if name in values}
    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"no value for {missing}", file=sys.stderr)
        failed = max(failed, 1)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
