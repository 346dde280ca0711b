#!/usr/bin/env python3
"""Show that every output check of the benchmark catches a corrupted output.

Usage (from the repository root):

    python3 perfbench/check_selftest.py

Runs each workload once on small inputs, requires the clean outputs to
pass, then corrupts one field at a time and requires the matching check
to fail. Exits 1 if a clean output fails or a corruption goes unnoticed.
"""

from __future__ import annotations

import csv
import io
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

import sapeval.cli  # noqa: E402

from child import run_reference  # noqa: E402
from workloads import (  # noqa: E402
    DetectionWorkload,
    ReferenceWorkload,
    ScoresWorkload,
    StabilityWorkload,
)


def edit_json(key):
    """A corruption that rewrites one output JSON in place."""

    def corrupt(path: Path) -> None:
        payload = json.loads(path.read_text())
        key(payload)
        path.write_text(json.dumps(payload))

    return corrupt


def edit_csv(rows_edit):
    def corrupt(path: Path) -> None:
        rows = list(csv.reader(io.StringIO(path.read_text())))
        rows_edit(rows)
        path.write_text("\n".join(",".join(r) for r in rows) + "\n")

    return corrupt


def bump(record: dict, key: str, delta):
    record[key] += delta


def two_stage_report(payload):
    return payload["reports"]["two_stage"]


CASES = {
    "scores": (
        ScoresWorkload(examples=2_000, categories=10, zipf_s=1.0, extra_label_rate=0.1),
        {
            "n_pos": ("sap.json", edit_json(lambda p: bump(p["categories"][3], "n_pos", 1))),
            "classification AP": ("sap.json", edit_json(
                lambda p: bump(p["categories"][0], "ap", 1e-6))),
            "mSAP = mean of eligible": ("sap.json", edit_json(
                lambda p: bump(p["aggregate"], "msap", 1e-6))),
            "value in [0, 1]": ("sap.json", edit_json(
                lambda p: p["categories"][1].update(sap_std=-0.25))),
            "unreadable report": ("sap.json", lambda path: path.write_text("{")),
        },
    ),
    "detection": (
        DetectionWorkload(videos=5, frames_per_video=10, boxes_per_frame=3, categories=6,
                          zipf_s=1.0, extra_label_rate=0.1, mislocalized_rate=0.05),
        {
            "eval n_pos": ("eval.json", edit_json(lambda p: bump(p["categories"][2], "n_pos", -1))),
            "eval n_neg": ("eval.json", edit_json(lambda p: bump(p["categories"][2], "n_neg", 1))),
            "detection frame AP": ("eval.json", edit_json(
                lambda p: bump(p["categories"][0], "ap", -1e-6))),
            "mAP = mean of eligible": ("eval.json", edit_json(
                lambda p: bump(p["aggregate"], "map", 1e-6))),
            "eligible count": ("eval.json", edit_json(
                lambda p: bump(p["aggregate"], "eligible_categories", 1))),
            "ROC-AUC in [0, 1]": ("eval.json", edit_json(
                lambda p: p["categories"][0].update(roc_auc=1.5))),
            "detection pool AP": ("sap.json", edit_json(
                lambda p: bump(p["categories"][1], "ap", 1e-6))),
            "detection mSAP": ("sap.json", edit_json(lambda p: bump(p["aggregate"], "msap", -1e-6))),
        },
    ),
    "stability": (
        StabilityWorkload(examples=4_000, categories=4, zipf_s=0.5, extra_label_rate=0.1,
                          category=0, trials="5,10,20", repeats=3),
        {
            "one row per N": ("profile.csv", edit_csv(lambda rows: rows.pop())),
            "requested N": ("profile.csv", edit_csv(lambda rows: rows[1].__setitem__(0, "6"))),
            "mean in [0, 1]": ("profile.csv", edit_csv(lambda rows: rows[2].__setitem__(1, "1.2"))),
        },
    ),
    "reference": (
        ReferenceWorkload(seeds_per_pass=1),
        {
            "group mSAP = mean of eligible": ("reference.json", edit_json(
                lambda p: bump(two_stage_report(p)["aggregates"]["tail"], "msap", 1e-6))),
            "group mAP = mean of eligible": ("reference.json", edit_json(
                lambda p: bump(two_stage_report(p)["aggregates"]["head"], "map", -1e-6))),
            "eligible count": ("reference.json", edit_json(
                lambda p: bump(two_stage_report(p)["aggregates"]["all"], "eligible", 1))),
            "value in [0, 1]": ("reference.json", edit_json(
                lambda p: two_stage_report(p)["categories"][0].update(sap_std=2.0))),
            "head/tail partition": ("reference.json", edit_json(lambda p: p["head"].pop())),
        },
    ),
}


def run_ops(ops) -> None:
    for op in ops:
        if op.argv is not None:
            code = sapeval.cli.main(op.argv)
        else:
            code = run_reference(op.reference_seed, op.outputs["reference.json"])
        if code != 0:
            raise SystemExit(f"{op.name} exited {code}")


def errors_of(workload, expected, ops) -> list[str]:
    return [e for op_errors in workload.check(expected, ops).errors for e in op_errors]


def main() -> int:
    missed = 0
    with tempfile.TemporaryDirectory(dir=Path.cwd()) as tmp:
        for case, (workload, corruptions) in CASES.items():
            case_dir = Path(tmp) / case
            case_dir.mkdir()
            expected = workload.generate(7, case_dir)
            ops = workload.ops(expected, case_dir, case_dir)
            run_ops(ops)
            clean = errors_of(workload, expected, ops)
            if clean:
                print(f"FAIL {case}: clean output rejected: {clean[:3]}")
                missed += 1
                continue
            outputs = {name: Path(path) for op in ops for name, path in op.outputs.items()}
            for check, (output, corrupt) in corruptions.items():
                original = outputs[output].read_bytes()
                corrupt(outputs[output])
                caught = errors_of(workload, expected, ops)
                outputs[output].write_bytes(original)
                status = "ok  " if caught else "FAIL"
                missed += not caught
                print(f"{status} {case}: {check}: {caught[0] if caught else 'not detected'}")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
