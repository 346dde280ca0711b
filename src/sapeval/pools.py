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

Detection mode goes through one ``FrameIndex`` per input, built from the
ground-truth and detection columns the CSV readers return: frames grouped
once, every detection's IoU with its frame's boxes computed once, and the
greedy match run per category on those arrays. ``build_eval_pool`` and
``metrics.frame_ap`` are one-category views of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Sequence

import numpy as np

from .boxes import DetectionColumns, GroundTruthColumns, _greedy_match, paired_iou
# not called here; perfbench/tracing.py counts calls under this name
from .boxes import iou  # noqa: F401
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
        if not (self.scores >= UNDETECTED_SCORE).all():  # NaN fails too
            raise ValueError(f"score below sentinel {UNDETECTED_SCORE} or NaN")
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


class FrameIndex:
    """Annotated boxes and detections grouped by frame once, so that every
    category is matched on the same prepared arrays.

    Frames are numbered in sorted (video_id, timestamp) order. Annotated
    boxes are sorted by (frame, instance id), the pool's order, and laid
    out in a padded (frame, slot) table. Detections are sorted by
    (category, frame, descending score, corners), stably, and ``iou``
    holds each one's IoU with every slot of its own frame (0 for padding).
    """

    def __init__(
        self,
        ground_truth: GroundTruthColumns,
        detections: DetectionColumns,
        iou_threshold: float = 0.5,
    ):
        if not 0.0 < iou_threshold <= 1.0:
            raise ValueError(f"iou_threshold {iou_threshold} outside (0, 1]")
        self.iou_threshold = iou_threshold
        gt, dets = ground_truth, detections
        self.categories = set(np.union1d(gt.label_category, dets.category).tolist())
        number = {key: i for i, key in enumerate(sorted(set(gt.frames).union(dets.frames)))}

        box_frame = np.array([number[key] for key in gt.frames], dtype=np.int64)[gt.frame]
        order = np.lexsort((gt.ids, box_frame))
        self.ids, box_frame = gt.ids[order], box_frame[order]
        # each label's box position, for the boxes labeled with a category
        self.label_at, self.label_category = np.argsort(order)[gt.label_row], gt.label_category
        slot = np.arange(len(order)) - np.searchsorted(box_frame, box_frame)
        self.at = np.full((len(number), slot.max(initial=-1) + 1), -1)  # box position; -1 pads
        self.at[box_frame, slot] = np.arange(len(order))
        corners = np.zeros((*self.at.shape, 4))
        corners[box_frame, slot] = gt.boxes[order]

        det_frame = np.array([number[key] for key in dets.frames], dtype=np.int64)[dets.frame]
        order = np.lexsort((*dets.boxes.T[::-1], -dets.score, det_frame, dets.category))
        self.category, self.frame = dets.category[order], det_frame[order]
        self.score, self.boxes = dets.score[order], dets.boxes[order]
        self.iou = np.zeros((len(order), self.at.shape[1]))
        for s in range(self.at.shape[1]):
            self.iou[:, s] = paired_iou(self.boxes, corners[self.frame, s])

    def _rows(self, category: int) -> slice:
        return slice(np.searchsorted(self.category, category),
                     np.searchsorted(self.category, category, "right"))

    def _labeled(self, category: int) -> np.ndarray:
        labeled = np.zeros(len(self.ids), dtype=bool)
        labeled[self.label_at[self.label_category == category]] = True
        return labeled

    def pool(self, category: int) -> EvalPool:
        """``build_eval_pool``'s pool for ``category``."""
        if category not in self.categories:
            raise UnknownCategory(f"category {category} absent from ground truth and detections")
        rows = self._rows(category)
        frame, score = self.frame[rows], self.score[rows]
        slot = _greedy_match(self.iou[rows], frame, self.at >= 0, self.iou_threshold)
        hit = slot >= 0
        claimed = self.at[frame[hit], slot[hit]]
        scores = np.full(len(self.ids), UNDETECTED_SCORE)
        scores[claimed] = score[hit]
        origin = np.full(len(self.ids), ExampleOrigin.UNMATCHED_GT, dtype=np.int8)
        origin[claimed] = ExampleOrigin.MATCHED_GT
        # background: unclaimed and overlapping no box at the threshold,
        # sorted by (frame, score, corners)
        stray = np.flatnonzero(~hit & (self.iou[rows] < self.iou_threshold).all(axis=1))
        stray = stray[np.lexsort((*self.boxes[rows][stray].T[::-1], score[stray], frame[stray]))]
        first_id, n = self.ids.max(initial=-1) + 1, len(stray)
        return EvalPool(
            category,
            np.concatenate([scores, score[stray]]),
            np.concatenate([self.ids, np.arange(first_id, first_id + n)]),
            np.concatenate([self._labeled(category), np.zeros(n, dtype=bool)]),
            np.concatenate([origin, np.full(n, ExampleOrigin.BACKGROUND_DETECTION, np.int8)]),
        )

    def frame_matches(self, category: int) -> tuple[np.ndarray, np.ndarray, int]:
        """The detection protocol's match for ``category``: its detections'
        scores (sorted frames, then descending score and corners within a
        frame), whether each claimed a box labeled with the category, and
        the number of such boxes."""
        labeled = self._labeled(category)
        rows = self._rows(category)
        available = (self.at >= 0) & labeled[self.at]
        claimed = _greedy_match(self.iou[rows], self.frame[rows], available, self.iou_threshold)
        return self.score[rows], claimed >= 0, int(labeled.sum())


def build_eval_pool(
    ground_truth: GroundTruthColumns,
    detections: DetectionColumns,
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
    return FrameIndex(ground_truth, detections, iou_threshold).pool(category)


def pools_from_scores(
    scores: np.ndarray,
    targets: np.ndarray,
    example_ids: Sequence[int] | None = None,
) -> dict[int, EvalPool]:
    """Classification-mode pools, one per column of an (examples x
    categories) score matrix.

    ``targets`` is the multi-hot label matrix of the same shape: each
    example is a positive where it is true and a negative elsewhere; no
    box matching is involved.
    """
    scores = np.asarray(scores, dtype=np.float64)
    targets = np.asarray(targets, dtype=bool)
    if scores.ndim != 2 or scores.shape != targets.shape:
        raise ValueError("scores and targets must be (n_examples, n_categories) of one shape")
    n, k = scores.shape
    ids = np.arange(n) if example_ids is None else np.asarray(example_ids, dtype=np.int64)
    by_category, members = np.ascontiguousarray(scores.T), np.ascontiguousarray(targets.T)
    origin = np.full(n, ExampleOrigin.MATCHED_GT, dtype=np.int8)
    return {c: EvalPool(c, by_category[c], ids, members[c], origin) for c in range(k)}


def pool_from_arrays(
    category: int, scores: Sequence[float], is_positive: Sequence[bool]
) -> EvalPool:
    """Convenience constructor: sequential ids, classification-mode origin."""
    n = len(scores)
    return EvalPool(
        category, scores, np.arange(n), is_positive,
        np.full(n, ExampleOrigin.MATCHED_GT, dtype=np.int8),
    )
