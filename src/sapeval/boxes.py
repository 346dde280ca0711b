"""Box-level data model and detection-to-ground-truth matching.

A box is four normalized corners ``(x1, y1, x2, y2)`` with
0 <= x1 < x2 <= 1 and 0 <= y1 < y2 <= 1, and a key frame is a
``(video_id, timestamp)`` pair. Both sides of the detection protocol are
parallel columns, which is what the CSV readers in ``formats`` return:
``GroundTruthColumns`` holds one row per annotated box, its multi-label
categories as flat (row, category) pairs; ``DetectionColumns`` holds one
row per detection, a box scored for a single category.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True, eq=False)
class GroundTruthColumns:
    """Annotated boxes as parallel columns, one row per box.

    ``frames`` lists each frame's (video_id, timestamp) once and ``frame``
    holds each row's index into it; ``boxes`` is (n, 4) with corners
    x1, y1, x2, y2 and ``ids`` the int64 instance ids. The labels are the
    pairs (``label_row[j]``, ``label_category[j]``), sorted, each pair
    once; every row has at least one.
    """

    frames: tuple[tuple[str, int], ...]
    frame: np.ndarray
    boxes: np.ndarray
    ids: np.ndarray
    label_row: np.ndarray
    label_category: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)


@dataclass(frozen=True, eq=False)
class DetectionColumns:
    """Detections as parallel columns, one row per detection.

    ``frames`` lists each frame's (video_id, timestamp) once and ``frame``
    holds each row's index into it; ``boxes`` is (n, 4) with corners
    x1, y1, x2, y2; ``category`` is int64 and ``score`` float64.
    """

    frames: tuple[tuple[str, int], ...]
    frame: np.ndarray
    boxes: np.ndarray
    category: np.ndarray
    score: np.ndarray

    def __len__(self) -> int:
        return len(self.score)


def iou(a: Sequence[float], b: Sequence[float]) -> float:
    """Intersection-over-union of two (x1, y1, x2, y2) boxes; 0 when
    disjoint, 1 when identical."""
    ax1, ay1, ax2, ay2 = a
    bx1, by1, bx2, by2 = b
    ix = min(ax2, bx2) - max(ax1, bx1)
    iy = min(ay2, by2) - max(ay1, by1)
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    inter = ix * iy
    return inter / ((ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter)


def paired_iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``iou`` of corner arrays (last axis x1, y1, x2, y2), broadcast over
    the other axes. The float operations are ``iou``'s, in its order, so
    every value is bitwise equal to it; a zero-area box of ``b`` (padding)
    gives 0."""
    ix = np.minimum(a[..., 2], b[..., 2]) - np.maximum(a[..., 0], b[..., 0])
    iy = np.minimum(a[..., 3], b[..., 3]) - np.maximum(a[..., 1], b[..., 1])
    inter = np.where((ix > 0.0) & (iy > 0.0), ix * iy, 0.0)
    area_a = (a[..., 2] - a[..., 0]) * (a[..., 3] - a[..., 1])
    area_b = (b[..., 2] - b[..., 0]) * (b[..., 3] - b[..., 1])
    return inter / (area_a + area_b - inter)


@dataclass(frozen=True)
class MatchResult:
    """Outcome of greedy matching within one frame.

    ``is_true_positive`` is aligned with the input detection order;
    ``gt_match`` is aligned with the input ground-truth order and holds the
    index of the matched detection, or -1 when the box went undetected.
    """

    is_true_positive: tuple[bool, ...]
    gt_match: tuple[int, ...]


def match_detections(
    scores: Sequence[float],
    boxes: Sequence[Sequence[float]],
    gt_boxes: Sequence[Sequence[float]],
    iou_threshold: float = 0.5,
) -> MatchResult:
    """Greedily match scored detection boxes to ground-truth boxes of one
    frame, one-to-one; boxes are (x1, y1, x2, y2) corners.

    Detections are processed in descending score order (stable on ties).
    Each claims the still-unmatched box it overlaps most, provided the IoU
    reaches ``iou_threshold``; anything left unmatched is a false positive.
    The assignment is invariant to the input ordering when scores are
    distinct.
    """
    if not 0.0 < iou_threshold <= 1.0:
        raise ValueError(f"iou_threshold {iou_threshold} outside (0, 1]")
    order = np.argsort(-np.asarray(scores, dtype=np.float64), kind="stable")
    overlap = paired_iou(  # (detections by rank) x boxes
        np.reshape(np.asarray(boxes, dtype=np.float64), (-1, 1, 4))[order],
        np.reshape(np.asarray(gt_boxes, dtype=np.float64), (1, -1, 4)),
    )
    n_gt = overlap.shape[1]
    claimed = _greedy_match(
        overlap, np.zeros(len(order), dtype=np.int64), np.ones((1, n_gt), bool), iou_threshold
    )
    hit = claimed >= 0
    is_tp = np.zeros(len(order), dtype=bool)
    is_tp[order[hit]] = True
    gt_match = np.full(n_gt, -1)
    gt_match[claimed[hit]] = order[hit]
    return MatchResult(tuple(is_tp.tolist()), tuple(gt_match.tolist()))


def _greedy_match(
    overlap: np.ndarray, frame: np.ndarray, available: np.ndarray, iou_threshold: float
) -> np.ndarray:
    """Greedy one-to-one matching in many frames at once.

    Row i of ``overlap`` holds a detection's IoU with each box slot of
    frame ``frame[i]``; ``frame`` is sorted, and each frame's detections
    come in descending score order. In that order each detection claims
    the still unclaimed ``available`` (frames x slots) slot of its frame
    it overlaps most (the first on ties) if that IoU reaches the
    threshold. Returns the slot each detection claimed, or -1. Frames do
    not interact, so one step matches the r-th detection of every frame.
    """
    claimed = np.full(len(frame), -1, dtype=np.int64)
    if not overlap.size:
        return claimed
    free = available.copy()
    rank = np.arange(len(frame)) - np.searchsorted(frame, frame)
    by_rank = np.argsort(rank, kind="stable")
    bounds = np.searchsorted(rank[by_rank], np.arange(rank.max() + 2)).tolist()
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        at = by_rank[lo:hi]
        f = frame[at]
        candidates = np.where(free[f], overlap[at], -1.0)
        best = candidates.argmax(axis=1)
        hit = candidates[np.arange(len(at)), best] >= iou_threshold
        claimed[at[hit]] = best[hit]
        free[f[hit], best[hit]] = False
    return claimed
