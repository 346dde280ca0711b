"""A fixed job, timed in a fresh process next to every pass, that measures
the host's current speed.

It does the kind of work the passes do -- JSON lines parsed into Python
objects, a quarter of a million small tuples sorted and grouped, large
numpy lexsorts -- but never imports sapeval, so no change to sapeval moves
its time. ``run.py`` scales each run's pass times by this job's mean time.
"""

from __future__ import annotations

import json

import numpy as np


def main() -> None:
    rng = np.random.default_rng(0)
    rows = np.round(rng.random((6000, 40)), 6).tolist()
    records = [json.loads(json.dumps({"id": i, "labels": [i % 40], "scores": row}))
               for i, row in enumerate(rows)]
    entries = [(rec["id"], score, c, c in rec["labels"])
               for rec in records for c, score in enumerate(rec["scores"])]
    entries.sort(key=lambda e: (-e[1], e[0]))
    groups: dict[int, list] = {}
    for ident, score, category, positive in entries:
        groups.setdefault(category, []).append((score, ident, positive))
    scores = np.array([e[1] for e in entries])
    for _ in range(20):
        np.cumsum(scores[np.lexsort((np.arange(len(scores)), -scores))])


if __name__ == "__main__":
    main()
