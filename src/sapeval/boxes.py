"""Box-level data model and detection-to-ground-truth matching.

Boxes use normalized corner coordinates in [0, 1]. A frame is identified
by (video_id, timestamp) and ground truth is multi-label: one annotated
box may carry several category ids. Detections come one object per box
(``Detection``) or as parallel columns (``DetectionColumns``), which is
what the detection CSV reader returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np


@dataclass(frozen=True, slots=True)
class BoundingBox:
    """Axis-aligned box with normalized corners, x1 < x2 and y1 < y2."""

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self):
        if not (0.0 <= self.x1 < self.x2 <= 1.0 and 0.0 <= self.y1 < self.y2 <= 1.0):
            raise ValueError(f"invalid box corners: {self!r}")

    @property
    def area(self) -> float:
        return (self.x2 - self.x1) * (self.y2 - self.y1)

    def as_tuple(self) -> tuple[float, float, float, float]:
        return self.x1, self.y1, self.x2, self.y2


@dataclass(frozen=True, slots=True)
class FrameKey:
    """Key frame identifier: a video id plus an integer timestamp in seconds."""

    video_id: str
    timestamp: int


@dataclass(frozen=True, slots=True)
class GroundTruthInstance:
    """One annotated box with its (non-empty) set of category labels."""

    frame: FrameKey
    box: BoundingBox
    categories: frozenset[int]
    instance_id: int

    def __post_init__(self):
        if not self.categories:
            raise ValueError("ground-truth instance needs at least one category")


@dataclass(frozen=True, slots=True)
class Detection:
    """One predicted box for a single category, scored in [0, 1]."""

    frame: FrameKey
    box: BoundingBox
    category: int
    score: float

    def __post_init__(self):
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"detection score {self.score} outside [0, 1]")


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

    @classmethod
    def of(cls, detections: DetectionColumns | Iterable[Detection]) -> DetectionColumns:
        """``detections`` as columns; columns pass through unchanged."""
        if isinstance(detections, cls):
            return detections
        detections = list(detections)
        codes: dict[tuple[str, int], int] = {}
        frame = [codes.setdefault((d.frame.video_id, d.frame.timestamp), len(codes))
                 for d in detections]
        return cls(
            tuple(codes),
            np.array(frame, dtype=np.int64),
            np.array([d.box.as_tuple() for d in detections], dtype=np.float64).reshape(-1, 4),
            np.array([d.category for d in detections], dtype=np.int64),
            np.array([d.score for d in detections], dtype=np.float64),
        )


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection-over-union of two boxes; 0 when disjoint, 1 when identical."""
    ix = min(a.x2, b.x2) - max(a.x1, b.x1)
    iy = min(a.y2, b.y2) - max(a.y1, b.y1)
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    inter = ix * iy
    return inter / (a.area + b.area - inter)


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
    detections: Sequence[Detection],
    ground_truth: Sequence[BoundingBox],
    iou_threshold: float = 0.5,
) -> MatchResult:
    """Greedily match detections to ground-truth boxes, one-to-one.

    Detections are processed in descending score order (stable on ties).
    Each claims the still-unmatched box it overlaps most, provided the IoU
    reaches ``iou_threshold``; anything left unmatched is a false positive.
    The assignment is invariant to the input ordering when scores are
    distinct.
    """
    if not 0.0 < iou_threshold <= 1.0:
        raise ValueError(f"iou_threshold {iou_threshold} outside (0, 1]")
    order = sorted(range(len(detections)), key=lambda i: -detections[i].score)
    overlap = paired_iou(  # (detections by rank) x boxes
        np.reshape([detections[i].box.as_tuple() for i in order], (-1, 1, 4)),
        np.reshape([box.as_tuple() for box in ground_truth], (1, -1, 4)),
    )
    claimed = _greedy_match(
        overlap, np.zeros(len(order), dtype=np.int64), np.ones((1, len(ground_truth)), bool),
        iou_threshold,
    )
    is_tp = [False] * len(order)
    gt_match = [-1] * len(ground_truth)
    for i, g in zip(order, claimed.tolist()):
        if g >= 0:
            is_tp[i], gt_match[g] = True, i
    return MatchResult(tuple(is_tp), tuple(gt_match))


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
