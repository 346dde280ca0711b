import json
import sys
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion at the end of the run."""
    lines = []
    for outcome in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(outcome, []):
            nodeid = str(getattr(report, "nodeid", ""))
            if getattr(report, "when", "call") != "call":
                continue
            if "test_acceptance.py::test_criterion" in nodeid:
                name = nodeid.split("::")[-1]
                lines.append((name, "PASS" if outcome == "passed" else "FAIL"))
    if lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for name, status in sorted(lines):
            terminalreporter.write_line(f"{status}  {name}")

from sapeval.boxes import DetectionColumns, GroundTruthColumns
from sapeval.pools import pool_from_arrays


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def make_pool(pos_scores, neg_scores, category=0):
    scores = list(pos_scores) + list(neg_scores)
    flags = [True] * len(pos_scores) + [False] * len(neg_scores)
    return pool_from_arrays(category, scores, flags)


def random_pool(rng, n_pos, n_total, category=0):
    scores = rng.random(n_total)
    flags = np.zeros(n_total, dtype=bool)
    flags[:n_pos] = True
    return pool_from_arrays(category, scores, flags)


def pool_sides(pool):
    """Positive and negative scores of a ``make_pool`` or ``random_pool``
    pool, for the enumeration oracles; its positives have the lower ids."""
    return list(pool.scores[pool.is_positive]), list(pool.scores[~pool.is_positive])


# Test-local box records, one object per annotated box or detection, which
# the oracles read; ``gt_columns`` and ``det_columns`` turn them into the
# columns the library takes.


class Box(NamedTuple):
    x1: float
    y1: float
    x2: float
    y2: float


class Frame(NamedTuple):
    video_id: str
    timestamp: int


class GtRecord(NamedTuple):
    frame: Frame
    box: Box
    categories: frozenset
    instance_id: int


class DetRecord(NamedTuple):
    frame: Frame
    box: Box
    category: int
    score: float


def box(x1, y1, x2, y2):
    return Box(x1, y1, x2, y2)


def gt(video, ts, b, cats, instance_id):
    return GtRecord(Frame(video, ts), b, frozenset(cats), instance_id)


def det(video, ts, b, cat, score):
    return DetRecord(Frame(video, ts), b, cat, score)


def _frame_codes(records):
    codes = {}
    frame = [codes.setdefault(tuple(r.frame), len(codes)) for r in records]
    return tuple(codes), np.array(frame, dtype=np.int64)


def _corners(records):
    return np.array([r.box for r in records], dtype=np.float64).reshape(-1, 4)


def gt_columns(records):
    """``GtRecord`` objects as ``GroundTruthColumns``, one row each."""
    frames, frame = _frame_codes(records)
    pairs = np.array(sorted((i, c) for i, r in enumerate(records) for c in r.categories),
                     dtype=np.int64).reshape(-1, 2)
    ids = np.array([r.instance_id for r in records], dtype=np.int64)
    return GroundTruthColumns(frames, frame, _corners(records), ids, pairs[:, 0], pairs[:, 1])


def det_columns(records):
    """``DetRecord`` objects as ``DetectionColumns``, one row each."""
    frames, frame = _frame_codes(records)
    return DetectionColumns(
        frames, frame, _corners(records),
        np.array([r.category for r in records], dtype=np.int64),
        np.array([r.score for r in records], dtype=np.float64),
    )


# Writers of the CSV and prediction formats, in the 6-decimal fixed point
# the readers quantize to, for tests that need input files.


def _fmt6(value: float) -> str:
    return f"{value:.6f}"


def serialize_ground_truth(gt: GroundTruthColumns) -> str:
    """One line per label of each box, boxes in row order."""
    rows = gt.label_row
    lines = [
        ",".join([*map(str, gt.frames[f]), *map(_fmt6, corners), str(c)])
        for f, corners, c in zip(
            gt.frame[rows].tolist(), gt.boxes[rows].tolist(), gt.label_category.tolist()
        )
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def serialize_detections(d: DetectionColumns) -> str:
    """One line per detection, in row order."""
    lines = [
        ",".join([*map(str, d.frames[f]), *map(_fmt6, corners), str(c), _fmt6(score)])
        for f, corners, c, score in zip(
            d.frame.tolist(), d.boxes.tolist(), d.category.tolist(), d.score.tolist()
        )
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def serialize_predictions(example_ids: Sequence[int], targets: np.ndarray,
                          scores: np.ndarray) -> str:
    """One record per example, its labels the true columns of ``targets``."""
    lines = [
        json.dumps({"id": i, "labels": np.flatnonzero(t).tolist(), "scores": row})
        for i, t, row in zip(
            np.asarray(example_ids, dtype=np.int64).tolist(),
            np.asarray(targets, dtype=bool),
            np.asarray(scores, dtype=np.float64).tolist(),
        )
    ]
    return "\n".join(lines) + ("\n" if lines else "")


# The 3-frame micro-fixture used across detection tests. For category 0 it
# yields 2 positives and 4 negatives (3 other-category boxes + 1 stray).
#   frame (v1, 1): gt0 labeled {0, 2} detected by cat-0 @0.9; gt1 labeled {1}
#                  detected by cat-1 @0.8
#   frame (v1, 2): gt2 labeled {0} detected by cat-0 @0.7 (shifted but
#                  IoU > 0.5); plus a stray cat-0 box @0.4 overlapping nothing
#   frame (v2, 1): gt3 labeled {1} detected by cat-1 @0.6; gt4 labeled {1}
#                  undetected
MICRO_GT = [
    gt("v1", 1, box(0.1, 0.1, 0.3, 0.3), {0, 2}, 0),
    gt("v1", 1, box(0.5, 0.5, 0.7, 0.7), {1}, 1),
    gt("v1", 2, box(0.2, 0.2, 0.4, 0.4), {0}, 2),
    gt("v2", 1, box(0.1, 0.6, 0.3, 0.8), {1}, 3),
    gt("v2", 1, box(0.6, 0.1, 0.8, 0.3), {1}, 4),
]

MICRO_DET = [
    det("v1", 1, box(0.1, 0.1, 0.3, 0.3), 0, 0.9),
    det("v1", 1, box(0.5, 0.5, 0.7, 0.7), 1, 0.8),
    det("v1", 2, box(0.21, 0.21, 0.41, 0.41), 0, 0.7),
    det("v1", 2, box(0.7, 0.7, 0.9, 0.9), 0, 0.4),
    det("v2", 1, box(0.1, 0.6, 0.3, 0.8), 1, 0.6),
]
