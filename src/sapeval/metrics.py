"""Ranking metrics over evaluation pools: average precision,
detection-protocol AP, ROC-AUC, and the analytic baseline a random scorer
converges to; the per-category scoring record and the mean AP over the
categories eligible to count.

Pools rank by descending score, ties by ascending example id; the
detection protocol keeps frame order on ties. Every metric here is
reproducible bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Iterable

import numpy as np

# not called here; perfbench/tracing.py wraps it under this name
from .boxes import match_detections  # noqa: F401
from .errors import DegeneratePool, InvalidCounts, NoEligibleCategories, NoPositives
from .pools import EvalPool, FrameIndex, _break_ties, _sort_runs

DEFAULT_MIN_EXAMPLES = 25


@dataclass(frozen=True)
class CategoryEvaluation:
    """One category's scores: its pool sizes, its AP, and its sampled AP with
    the trial APs, their population std and whether negatives were too few
    to subsample. A category without positives has none of these (None);
    ``eval`` reports the detection-protocol AP and no sampled AP."""

    category: int
    n_pos: int
    n_neg: int
    ap: float | None
    sap_mean: float | None = None
    sap_std: float | None = None
    degenerate: bool | None = None
    trial_aps: tuple[float, ...] | None = None

    def to_dict(self, store_trials: bool = False) -> dict:
        record = {f.name: getattr(self, f.name) for f in fields(self)}
        trial_aps = record.pop("trial_aps")
        if store_trials and trial_aps is not None:
            record["trial_aps"] = list(trial_aps)
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
    the order of ``np.lexsort((ids, -scores))`` for scores without NaN, at
    the cost of one sort of the scores and one of the tied rows."""
    return _break_ties(*_sort_runs(-scores), ids)


def _ranked_ap(flags: np.ndarray, n_pos: int) -> float:
    """Mean over ``n_pos`` positives of the precision at each positive flag
    of a ranked list."""
    ranks = np.flatnonzero(flags) + 1
    # the k-th positive flag has k true positives at or above its rank
    return float((np.arange(1, len(ranks) + 1) / ranks).sum() / n_pos)


def average_precision(pool: EvalPool) -> float:
    return average_precision_from_arrays(pool.scores, pool.is_positive, pool.ids)


def frame_ap(index: FrameIndex, category: int) -> float:
    """Detection-protocol AP for one category.

    Detections are matched greedily to same-frame annotated boxes carrying
    the category (in instance-id order: sorted corners, for the box reader),
    then all are ranked globally by score and AP is computed with the
    category's annotation count as positives. An empty detection set scores 0.
    """
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


def roc_auc(pool: EvalPool) -> float:
    """Probability that a random positive outranks a random negative
    (rank-sum statistic; tied scores count one half)."""
    if pool.n_pos == 0 or pool.n_neg == 0:
        raise DegeneratePool("ROC-AUC needs at least one positive and one negative")
    order, starts = _sort_runs(-pool.scores)
    bounds = np.flatnonzero(np.r_[starts, True])
    starts, ends = bounds[:-1], bounds[1:]
    n, n_pos, n_neg = len(order), pool.n_pos, pool.n_neg
    # ascending midrank of the descending tie group [s, e), its rows in any
    # order; a sum of half-integers, exact in any order
    ranks = np.repeat((2 * n + 1 - starts - ends) / 2.0, ends - starts)
    rank_sum = float(ranks[pool.is_positive[order]].sum())
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
