"""Ranking metrics over evaluation pools: average precision,
detection-protocol AP, ROC-AUC, and the analytic baseline a random scorer
converges to; the per-category scoring record and the mean AP over the
categories eligible to count.

Ranking is always by descending score with ties broken by ascending
example id, so every metric here is reproducible bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

import numpy as np

from .boxes import DetectionColumns, GroundTruthColumns
# not called here; perfbench/tracing.py wraps it under this name
from .boxes import match_detections  # noqa: F401
from .errors import DegeneratePool, InvalidCounts, NoEligibleCategories, NoPositives
from .pools import EvalPool, FrameIndex

if TYPE_CHECKING:
    from .sampling import SapResult

DEFAULT_MIN_EXAMPLES = 25


@dataclass(frozen=True)
class CategoryEvaluation:
    """One category's scores: its pool sizes, its AP and its sampled AP.
    A category without positives has neither (None); ``eval`` reports the
    detection-protocol AP and no sampled AP."""

    category: int
    n_pos: int
    n_neg: int
    ap: float | None
    sap: SapResult | None

    def to_dict(self, store_trials: bool = False) -> dict:
        record: dict = {
            "category": self.category,
            "n_pos": self.n_pos,
            "n_neg": self.n_neg,
            "ap": self.ap,
            "sap_mean": self.sap.mean if self.sap else None,
            "sap_std": self.sap.std if self.sap else None,
            "degenerate": self.sap.degenerate if self.sap else None,
        }
        if store_trials and self.sap:
            record["trial_aps"] = list(self.sap.trial_aps)
        return record


def _eligible(
    records: Iterable[CategoryEvaluation], min_examples: int
) -> list[CategoryEvaluation]:
    """The records an across-category mean covers: those with an AP and at
    least ``min_examples`` positives. Raises NoEligibleCategories when
    there are none."""
    eligible = [r for r in records if r.ap is not None and r.n_pos >= min_examples]
    if not eligible:
        raise NoEligibleCategories(
            f"no category has {min_examples} or more positive examples"
        )
    return eligible


def average_precision_from_arrays(
    scores: np.ndarray,
    is_positive: np.ndarray,
    ids: np.ndarray | None = None,
) -> float:
    """AP of a ranked example set: mean, over positives, of the precision at
    each positive's rank. Equals the area under the stepwise PR curve."""
    scores = np.asarray(scores, dtype=np.float64)
    is_positive = np.asarray(is_positive, dtype=bool)
    n_pos = int(is_positive.sum())
    if n_pos == 0:
        raise NoPositives("average precision needs at least one positive example")
    if ids is None:
        ids = np.arange(len(scores))
    return _ranked_ap(is_positive[rank_order(scores, ids)], n_pos)


def rank_order(scores: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Row indices by descending score, ties by ascending id, then by row:
    the order of ``np.lexsort((ids, -scores))`` for scores without NaN.

    One unstable sort of the scores, then a sort of the tied rows alone,
    which costs far less than a lexsort when few scores tie.
    """
    key = -scores
    order = np.argsort(key)
    ranked = key[order]
    same = ranked[1:] == ranked[:-1]
    tied = np.flatnonzero(np.r_[same, False] | np.r_[False, same])
    rows = order[tied]
    order[tied] = rows[np.lexsort((rows, ids[rows], ranked[tied]))]
    return order


def _ranked_ap(flags: np.ndarray, n_pos: int) -> float:
    """Mean over ``n_pos`` positives of the precision at each positive flag
    of a ranked list."""
    ranks = np.flatnonzero(flags) + 1
    # the k-th positive flag has k true positives at or above its rank
    return float((np.arange(1, len(ranks) + 1) / ranks).sum() / n_pos)


def average_precision(pool: EvalPool) -> float:
    return average_precision_from_arrays(pool.scores, pool.is_positive, pool.ids)


def frame_ap(
    ground_truth: GroundTruthColumns,
    detections: DetectionColumns,
    category: int,
    iou_threshold: float = 0.5,
) -> float:
    """Detection-protocol AP for one category.

    Detections are matched greedily to same-frame annotated boxes carrying
    the category (in instance-id order), then all of them are ranked
    globally by score and AP is computed with the category's annotation
    count as the number of positives. An empty detection set scores 0.
    """
    return frame_ap_from_index(FrameIndex(ground_truth, detections, iou_threshold), category)


def frame_ap_from_index(index: FrameIndex, category: int) -> float:
    """``frame_ap`` on an index built once for every category."""
    scores, true_positive, n_pos = index.frame_matches(category)
    if n_pos == 0:
        raise NoPositives(f"no ground-truth instances for category {category}")
    # ties keep frame order
    return _ranked_ap(true_positive[np.argsort(-scores, kind="stable")], n_pos)


def mean_ap(
    records: Iterable[CategoryEvaluation], min_examples: int = DEFAULT_MIN_EXAMPLES
) -> float:
    """Unweighted mean AP over the records ``_eligible`` keeps."""
    return float(np.mean([r.ap for r in _eligible(records, min_examples)]))


def _midranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties sharing their average rank."""
    order = np.argsort(values, kind="stable")
    sorted_vals = values[order]
    boundaries = np.flatnonzero(
        np.r_[True, sorted_vals[1:] != sorted_vals[:-1], True]
    )
    starts, ends = boundaries[:-1], boundaries[1:]
    group_ranks = (starts + 1 + ends) / 2.0
    ranks = np.empty(len(values), dtype=np.float64)
    ranks[order] = np.repeat(group_ranks, ends - starts)
    return ranks


def roc_auc(pool: EvalPool) -> float:
    """Probability that a random positive outranks a random negative
    (rank-sum statistic; tied scores count one half)."""
    if pool.n_pos == 0 or pool.n_neg == 0:
        raise DegeneratePool("ROC-AUC needs at least one positive and one negative")
    ranks = _midranks(pool.scores)
    n_pos, n_neg = pool.n_pos, pool.n_neg
    rank_sum = float(ranks[pool.is_positive].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def random_baseline_ap(n_pos: int, n_total: int) -> float:
    """Expected AP of a uniformly random scorer: the positive ratio.

    Precision of a random ranking sits at the pool's positive ratio at
    every recall level, so AP collapses to n_pos / n_total (large-sample
    limit).
    """
    if not 0 < n_pos <= n_total:
        raise InvalidCounts(f"need 0 < n_pos <= n_total, got {n_pos}/{n_total}")
    return n_pos / n_total
