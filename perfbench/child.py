"""Run the operations of one benchmark pass in this fresh interpreter.

Usage: python3 child.py SPEC_JSON

The spec lists CLI invocations, each passed to ``sapeval.cli.main``, and
``run_benchmark`` seeds. With a trace id, the span recorder is installed
before the first call and its spans are written out when the pass ends,
and what tracing costs is measured (``Tracer.call_costs``). Exit codes, one
per operation, the seconds from the first operation's start to the last
one's end, and those costs go to ``results_out``.
"""

from __future__ import annotations

import json
import sys
import time
import traceback
import warnings
from pathlib import Path


def run_reference(seed: int, out: str) -> int:
    import sapeval.benchmark as benchmark

    result = benchmark.run_benchmark(seed)
    payload = {
        "seed": seed,
        "head": sorted(result.split.head),
        "tail": sorted(result.split.tail),
        "reports": {variant: report.to_dict() for variant, report in result.reports.items()},
        "ordering_checks": benchmark.ordering_checks(result),
    }
    Path(out).write_text(json.dumps(payload), encoding="utf-8")
    return 0


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    import sapeval.cli

    tracer = None
    if spec["trace_id"]:
        import tracing

        started = time.perf_counter()
        tracer = tracing.install(spec["trace_id"])
        install_s = time.perf_counter() - started

    # the reference dataset's rarest categories cannot fill every split
    warnings.simplefilter("ignore")
    codes = []
    ops_start = time.perf_counter()
    for op in spec["ops"]:
        try:
            if op["argv"] is not None:
                code = sapeval.cli.main(op["argv"])
            else:
                code = run_reference(op["reference_seed"], op["outputs"]["reference.json"])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            code = 1
        codes.append(code)
    ops_s = time.perf_counter() - ops_start
    results = {"exit_codes": codes, "ops_s": ops_s, "sapeval": sapeval.__file__}
    if tracer is not None:
        started = time.perf_counter()
        costs = tracer.call_costs()
        tracer.dump(spec["spans_out"])
        results["trace_costs"] = dict(costs, install_s=install_s,
                                      probe_and_dump_s=time.perf_counter() - started)
    Path(spec["results_out"]).write_text(json.dumps(results), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
