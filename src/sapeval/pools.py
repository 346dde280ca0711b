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
greedy match run per category on those arrays. ``FrameIndex.pool`` and
``metrics.frame_ap(index, category)`` read one category off it;
``build_eval_pool`` builds an index for one category's pool.

``_sort_runs`` and ``_break_ties`` are the one sort-and-group kernel of
the detection order, ``metrics.rank_order`` and the box-CSV readers.
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
#: detections per block of ``FrameIndex.iou``: the gather of their frames'
#: corners and ``paired_iou``'s temporaries are this many rows long
_IOU_BLOCK = 1 << 13


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
    (category, frame, descending score, corners, row), ``_break_ties`` over
    ``_sort_runs``' runs of the first three keys. Those three go to the
    sort packed into one int64 key, written over the frame numbers
    (``_detection_keys``); the index falls back to the three keys when a
    score is not finite or off the 10⁻⁶ grid the box reader rounds to,
    or when the spans of category, frame and score do not fit. ``order``
    holds each one's row in the detection columns, and ``category``,
    ``frame`` and ``score`` are reordered copies. The corners, four times
    as wide and read only through ``order``, are not copied: ``boxes`` is
    the detection columns' own array. ``iou`` holds each detection's IoU
    with every slot of its own frame (0 for padding), built ``_IOU_BLOCK``
    detections at a time, so that no temporary is as long as the input.
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

        numbered = np.array([number[key] for key in dets.frames], dtype=np.int64)
        keys = _detection_keys(dets.category, numbered[dets.frame], dets.score, len(number))
        self.order = _break_ties(*_sort_runs(*keys), *dets.boxes.T)
        self.category, self.frame = dets.category[self.order], numbered[dets.frame[self.order]]
        self.score, self.boxes = dets.score[self.order], dets.boxes
        del keys, numbered  # the frame numbers, or the packed key written over them
        self.iou = np.empty((len(self.order), self.at.shape[1]))
        for start in range(0, len(self.order), _IOU_BLOCK):
            rows = slice(start, start + _IOU_BLOCK)
            self.iou[rows] = paired_iou(self.boxes[self.order[rows], None],
                                        corners[self.frame[rows]])

    def _rows(self, category: int) -> slice:
        return slice(np.searchsorted(self.category, category),
                     np.searchsorted(self.category, category, "right"))

    def _labeled(self, category: int) -> np.ndarray:
        labeled = np.zeros(len(self.ids), dtype=bool)
        labeled[self.label_at[self.label_category == category]] = True
        return labeled

    def pool(self, category: int) -> EvalPool:
        """``build_eval_pool``'s pool for ``category``."""
        rows, labeled = self._rows(category), self._labeled(category)
        if rows.start == rows.stop and not labeled.any():
            raise UnknownCategory(f"category {category} absent from ground truth and detections")
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
        corners = self.boxes[self.order[rows][stray]]
        stray = stray[np.lexsort((*corners.T[::-1], score[stray], frame[stray]))]
        first_id, n = self.ids.max(initial=-1) + 1, len(stray)
        return EvalPool(
            category,
            np.concatenate([scores, score[stray]]),
            np.concatenate([self.ids, np.arange(first_id, first_id + n)]),
            np.concatenate([labeled, np.zeros(n, dtype=bool)]),
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


def _detection_keys(
    category: np.ndarray, frame: np.ndarray, score: np.ndarray, n_frames: int
) -> tuple[np.ndarray, ...]:
    """``_sort_runs``' keys for the detection order (category, frame,
    descending score), ``frame`` holding frame numbers below ``n_frames``.

    One int64 key, ((category - c_min)·F + frame)·S + (q_max - q) with
    q = rint(score·10⁶), F = ``n_frames`` and S = q_max - q_min + 1, when
    every score is finite and on the 10⁻⁶ grid (q / 10⁶ == score), as the
    box reader leaves them, and C·F·S < 2⁶³ for the C categories spanned;
    S ≤ 2⁵³ keeps q_max - q exact in float64. The key is written over
    ``frame``, so the sort holds no array beside it. Otherwise the three
    keys themselves, the scores negated, or as dense ranks when one is NaN:
    lexsort ties NaNs, and ranks put them in one run. Either way the sort
    makes the same runs in the same order: on the grid, q orders the
    scores as they are ordered and ties only equal ones.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        q = score * 1e6
        np.rint(q, out=q)
        packs = len(q) > 0 and np.isfinite(q).all() and (q / 1e6 == score).all()
    if packs:
        c_min, q_max = int(category.min()), q.max()
        c_span, q_span = int(category.max()) - c_min + 1, int(q_max) - int(q.min()) + 1
        packs = c_span * n_frames * q_span < 2**63 and q_span <= 2**53
    if not packs:
        negated = -score
        if np.isnan(score).any():
            negated = np.unique(negated, return_inverse=True)[1]
        return category, frame, negated
    # in place, one temporary at a time: with q rounded and cast into
    # arrays of their own, detect-ava's peak RSS read 0.5-2.1 MB higher
    key = frame
    shift = category - c_min
    shift *= n_frames
    key += shift
    del shift
    key *= q_span
    np.subtract(q_max, q, out=q)
    np.add(key, q, out=key, dtype=np.int64, casting="unsafe")  # q cast in the loop's buffer
    return (key,)


def _sort_runs(*keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows sorted by ``keys``, the first the primary, and a flag on each
    sorted row that starts a run of rows equal in every key. The rows of a
    run come in any order: one key is sorted by an unstable argsort."""
    order = np.lexsort(keys[::-1]) if len(keys) > 1 else np.argsort(keys[0])
    starts = np.zeros(len(order), dtype=bool)
    starts[:1] = True
    for key in keys:
        ranked = key[order]
        starts[1:] |= ranked[1:] != ranked[:-1]
        del ranked  # one gathered key at a time
    return order, starts


def _break_ties(order: np.ndarray, starts: np.ndarray, *tiebreaks: np.ndarray) -> np.ndarray:
    """``_sort_runs``' ``order`` with the rows of each run longer than one
    sorted by (``tiebreaks``, row), in place: the order of a lexsort by
    (keys, tiebreaks, row), at the cost of one sort of the tied rows."""
    tied = np.flatnonzero(~starts | np.r_[~starts[1:], False])  # in runs longer than one
    rows, run = order[tied], np.cumsum(starts[tied])
    order[tied] = rows[np.lexsort((rows, *(key[rows] for key in tiebreaks[::-1]), run))]
    return order


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
    box matching is involved. Category-major (column-major) matrices, as
    ``formats.read_predictions`` returns them, are not copied: every pool's
    scores and positives are views of the one matrix of each. Row-major
    ones are copied once, category-major.
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
