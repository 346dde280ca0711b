#!/usr/bin/env python3
"""Record the SHA-256 of every CLI report a benchmark pass writes, per
workload and seed, into ``digests.json``.

Usage (from the repository root):

    python3 perfbench/record_digests.py

It records seeds 0-19. Traced runs compare each pass's reports with these digests and report the
number that differ as ``cli.outputs_changed``, so a change that alters a
report's bytes shows in every traced run on a recorded seed. Re-record only
in a change that means to alter the reports, and say why.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from run import DIGESTS, Runner
from workloads import WORKLOADS, ReferenceWorkload

SEEDS = range(20)


def main() -> int:
    root = Path.cwd()
    digests = json.loads(DIGESTS.read_text())
    for name, workload in WORKLOADS.items():
        if isinstance(workload, ReferenceWorkload):
            continue  # writes no CLI report
        for seed in SEEDS:
            runner = Runner(name, seed, root)
            try:
                runner.generate()
                result = runner.run_pass(False)
            finally:
                runner.close()
            if any(result.errors):
                print(f"{name} seed {seed}: outputs failed their checks: {result.errors}",
                      file=sys.stderr)
                return 1
            digests.setdefault(name, {})[str(seed)] = result.digests
            print(f"{name} seed {seed}: {len(result.digests)} reports", flush=True)
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
