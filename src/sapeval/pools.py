"""Per-category retrieval pools: scored examples split into positives and
negatives.

A pool is the substrate every metric in this package consumes. In detection
mode it is built by matching predicted boxes to annotated boxes; in
classification mode it comes straight from a per-example score matrix.

A pool is columnar: four parallel arrays with one entry per example, its
score (float64), its id (int64), whether it is a positive (bool) and an
``ExampleOrigin`` code (int8). The order of the entries is kept within
each side, because sampled AP draws negatives by index: example order in
classification mode; in detection mode, annotated boxes in sorted frame
order, then background detections in sorted order.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from .boxes import Detection, GroundTruthInstance, _greedy_match, iou
from .errors import UnknownCategory

#: Sentinel score for ground-truth boxes no detection claimed; ranks below
#: every real detection score.
UNDETECTED_SCORE = -1.0


class ExampleOrigin(IntEnum):
    MATCHED_GT = 0
    UNMATCHED_GT = 1
    BACKGROUND_DETECTION = 2


@dataclass(frozen=True, eq=False)
class EvalPool:
    """All scored examples for one category, as parallel arrays.

    The arrays are read-only views of the inputs, not copies, so pools
    built from one score matrix share its id and origin columns.
    """

    category: int
    scores: np.ndarray
    ids: np.ndarray
    is_positive: np.ndarray
    origin: np.ndarray

    def __post_init__(self):
        for name, dtype in (
            ("scores", np.float64), ("ids", np.int64), ("is_positive", bool), ("origin", np.int8)
        ):
            column = np.asarray(getattr(self, name), dtype=dtype).view()
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        n = len(self.scores)
        if not len(self.ids) == len(self.is_positive) == len(self.origin) == n:
            raise ValueError("pool arrays must have equal lengths")
        if (self.scores < UNDETECTED_SCORE).any():
            raise ValueError(f"score below sentinel {UNDETECTED_SCORE}")
        if ((self.origin < 0) | (self.origin > max(ExampleOrigin))).any():
            raise ValueError("origin codes must be ExampleOrigin members")
        if (self.is_positive & (self.origin == ExampleOrigin.BACKGROUND_DETECTION)).any():
            raise ValueError("a background detection cannot be a positive")
        ordered = np.sort(self.ids)
        if (ordered[1:] == ordered[:-1]).any():
            raise ValueError("example ids must be unique within a pool")

    @property
    def n_pos(self) -> int:
        return int(np.count_nonzero(self.is_positive))

    @property
    def n_neg(self) -> int:
        return len(self.is_positive) - self.n_pos


def label_space(
    ground_truth: Iterable[GroundTruthInstance], detections: Iterable[Detection]
) -> set[int]:
    cats: set[int] = set()
    for gt in ground_truth:
        cats.update(gt.categories)
    cats.update(d.category for d in detections)
    return cats


def build_eval_pool(
    ground_truth: Sequence[GroundTruthInstance],
    detections: Sequence[Detection],
    category: int,
    iou_threshold: float = 0.5,
) -> EvalPool:
    """Build the retrieval pool for one category from detection output.

    Every annotated box becomes an example scored with the detection of
    ``category`` greedily matched to it (descending score, one-to-one,
    IoU >= threshold), or the undetected sentinel when nothing claimed it.
    Boxes labeled with the category are the positives; all other boxes are
    negatives. Detections of the category overlapping no annotated box of
    any category at the threshold become additional background negatives,
    so both categorical confusion and pure localization failures cost
    precision.
    """
    if not 0.0 < iou_threshold <= 1.0:
        raise ValueError(f"iou_threshold {iou_threshold} outside (0, 1]")
    if category not in label_space(ground_truth, detections):
        raise UnknownCategory(f"category {category} absent from ground truth and detections")

    gt_by_frame: dict[tuple[str, int], list[GroundTruthInstance]] = {}
    for gt in ground_truth:
        gt_by_frame.setdefault((gt.frame.video_id, gt.frame.timestamp), []).append(gt)
    det_by_frame: dict[tuple[str, int], list[Detection]] = {}
    for det in detections:
        if det.category == category:
            det_by_frame.setdefault(
                (det.frame.video_id, det.frame.timestamp), []
            ).append(det)

    # (score, id, is_positive, origin) per example, in pool order
    entries: list[tuple[float, int, bool, ExampleOrigin]] = []
    background: list[tuple[tuple[str, int], float, tuple[float, ...]]] = []

    for frame in sorted(set(gt_by_frame) | set(det_by_frame)):
        frame_gts = sorted(gt_by_frame.get(frame, []), key=lambda g: g.instance_id)
        frame_dets = sorted(
            det_by_frame.get(frame, []), key=lambda d: (-d.score, d.box.as_tuple())
        )
        gt_boxes = [g.box for g in frame_gts]
        match = _greedy_match(
            [d.box for d in frame_dets], gt_boxes, iou_threshold, range(len(frame_dets))
        )
        for gt, det_idx in zip(frame_gts, match.gt_match):
            if det_idx >= 0:
                score, origin = frame_dets[det_idx].score, ExampleOrigin.MATCHED_GT
            else:
                score, origin = UNDETECTED_SCORE, ExampleOrigin.UNMATCHED_GT
            entries.append((score, gt.instance_id, category in gt.categories, origin))
        for d, det in enumerate(frame_dets):
            if match.is_true_positive[d]:
                continue
            best = max((iou(det.box, b) for b in gt_boxes), default=0.0)
            if best < iou_threshold:
                background.append((frame, det.score, det.box.as_tuple()))

    next_id = max((gt.instance_id for gt in ground_truth), default=-1) + 1
    for i, (_, score, _) in enumerate(sorted(background)):
        entries.append((score, next_id + i, False, ExampleOrigin.BACKGROUND_DETECTION))
    # never empty: every annotated box is an entry, and with no boxes at all
    # every detection of the category is background
    return EvalPool(category, *zip(*entries))


def pools_from_scores(
    scores: np.ndarray,
    labels: Sequence[frozenset[int] | set[int]],
    example_ids: Sequence[int] | None = None,
    categories: Iterable[int] | None = None,
) -> dict[int, EvalPool]:
    """Classification-mode pools from an (examples x categories) score matrix.

    Each example is a positive for every category in its label set and a
    negative for the rest; no box matching is involved. Labels outside the
    matrix's columns are ignored.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2 or scores.shape[0] != len(labels):
        raise ValueError("scores must be (n_examples, n_categories) aligned with labels")
    n, k = scores.shape
    ids = np.arange(n) if example_ids is None else np.asarray(example_ids, dtype=np.int64)
    cats = list(categories) if categories is not None else list(range(k))
    for c in cats:
        if not 0 <= c < k:
            raise UnknownCategory(f"category {c} outside score matrix with {k} columns")
    rows = np.repeat(np.arange(n), [len(s) for s in labels])
    cols = np.fromiter(chain.from_iterable(labels), dtype=np.int64, count=len(rows))
    inside = (cols >= 0) & (cols < k)
    members = np.zeros((k, n), dtype=bool)
    members[cols[inside], rows[inside]] = True
    by_category = np.ascontiguousarray(scores.T)
    origin = np.full(n, ExampleOrigin.MATCHED_GT, dtype=np.int8)
    return {c: EvalPool(c, by_category[c], ids, members[c], origin) for c in cats}


def pool_from_arrays(
    category: int, scores: Sequence[float], is_positive: Sequence[bool]
) -> EvalPool:
    """Convenience constructor: sequential ids, classification-mode origin."""
    n = len(scores)
    return EvalPool(
        category, scores, np.arange(n), is_positive,
        np.full(n, ExampleOrigin.MATCHED_GT, dtype=np.int8),
    )
