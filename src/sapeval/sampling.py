"""Sampled average precision: AP over repeated balanced subsamples.

For a category with positives X, each trial draws |X| negatives uniformly
without replacement, computes AP on the union, and the trial results are
averaged. Balancing removes the dependence of AP on the positive/negative
ratio, so a rare category and a frequent one with the same recognition
quality score the same.

``sampled_ap`` scores a category into its ``metrics.CategoryEvaluation``,
its plain AP read off the trials' ranking. A trial costs O(|X|): it reads
each drawn negative's slot, the number of positives ranked above it.
``score_pools`` scores every category of an evaluation, each seeded by its
own id, and is the one scorer of ``sapeval sap`` and
``training.evaluate_model``. Also here: mSAP, the mSAP/mAP aggregate of a
category group, and the estimator-stability profile by trial count.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import NoEligibleCategories, NoPositives
# not called here; perfbench/tracing.py wraps it under this name
from .metrics import average_precision_from_arrays  # noqa: F401
from .metrics import CategoryEvaluation, _eligible, _ranked_ap, mean_ap, rank_order
from .pools import EvalPool, ExampleOrigin

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def mix_seed(seed: int, index: int) -> int:
    """Deterministic 64-bit seed derivation (splitmix64 finalizer).

    Lets per-trial work run independently, in any order, without a shared
    random stream.
    """
    z = (seed + (index + 1) * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


@dataclass(frozen=True, slots=True)
class SapConfig:
    """Trial count, seed, and whether background false positives join the
    negative sampling pool."""

    n_trials: int = 15
    seed: int = 0
    include_background: bool = True

    def __post_init__(self):
        if self.n_trials < 1:
            raise ValueError("n_trials must be at least 1")


def sampled_ap(pool: EvalPool, config: SapConfig = SapConfig()) -> CategoryEvaluation:
    """The pool's record: mean AP over ``config.n_trials`` balanced negative
    subsamples, and the whole pool's AP.

    Fully determined by (pool, config): trial i samples with a seed derived
    from ``config.seed`` and i. When the negative pool is smaller than the
    positive set the record is flagged degenerate and every trial simply
    uses all negatives. ``n_neg`` counts background negatives even when
    they are not sampled; ``ap`` is ``metrics.average_precision(pool)`` to
    the bit, taken from the trials' ranking.
    """
    ranking = flags, slots = _rank(pool, config.include_background)
    n_pos = int(flags.sum())
    trial_aps, mean, std = _trials(ranking, config)
    return CategoryEvaluation(pool.category, n_pos, pool.n_neg, _ranked_ap(flags, n_pos),
                              mean, std, len(slots) < n_pos, trial_aps)


def _rank(pool: EvalPool, include_background: bool) -> tuple[np.ndarray, np.ndarray]:
    """The pool's positive flags in rank order (descending score, ascending
    id), and the slot of each negative a trial may draw, in pool order: the
    number of positives ranked above it. Ids are unique, so any subset of
    the pool ranks in this order: a negative ranks above the k-th positive
    when its slot is below k.
    """
    if pool.n_pos == 0:
        raise NoPositives(f"category {pool.category} has no positive examples")
    order = rank_order(pool.scores, pool.ids)
    flags = pool.is_positive[order]
    rank = np.empty(len(order), dtype=np.intp)
    rank[order] = np.arange(len(order))
    negative = ~pool.is_positive
    if not include_background:
        negative &= pool.origin != ExampleOrigin.BACKGROUND_DETECTION
    return flags, np.cumsum(flags, out=order)[rank[negative]]  # order is spent


def _trials(
    ranking: tuple[np.ndarray, np.ndarray], config: SapConfig
) -> tuple[tuple[float, ...], float, float]:
    """The trial APs of a pool ranked by ``_rank`` with
    ``config.include_background``, their mean and their population std. A
    trial ranks its k-th positive at k plus the number of drawn slots below k."""
    flags, slots = ranking
    n_pos, n_neg = int(flags.sum()), len(slots)
    hits = np.arange(1, n_pos + 1)

    aps = np.empty(config.n_trials)
    for i in range(config.n_trials):
        if n_neg <= n_pos:
            picked = slots
        else:
            rng = np.random.default_rng(mix_seed(config.seed, i))
            # the default shuffle=True: shuffle=False picks another subset
            picked = slots[rng.choice(n_neg, size=n_pos, replace=False)]
        ranks = np.bincount(picked, minlength=n_pos + 1)[:n_pos]
        np.cumsum(ranks, out=ranks)
        ranks += hits
        aps[i] = (hits / ranks).sum() / n_pos

    if float(aps.min()) == float(aps.max()):
        # identical trials: report the value itself, exact
        mean, std = float(aps[0]), 0.0
    else:
        mean, std = float(aps.mean()), float(aps.std())
    return tuple(aps.tolist()), mean, std


def msap(records: Iterable[CategoryEvaluation], min_examples: int = 1) -> float:
    """Unweighted mean sampled AP over the records ``metrics._eligible``
    keeps."""
    return float(np.mean([r.sap_mean for r in _eligible(records, min_examples)]))


def score_pools(pools: Mapping[int, EvalPool],
                sap_config: SapConfig) -> tuple[CategoryEvaluation, ...]:
    """AP and sampled AP of each pool, from one ranking of it, in category
    order. A category without positives carries null metrics. Category c's
    trials are seeded with ``mix_seed(sap_config.seed, 1000 + c)``, so its
    result does not depend on which other categories are scored."""
    evals = []
    for c, pool in sorted(pools.items()):
        if pool.n_pos == 0:
            evals.append(CategoryEvaluation(c, 0, pool.n_neg, None))
            continue
        trial_config = replace(sap_config, seed=mix_seed(sap_config.seed, 1000 + c))
        evals.append(sampled_ap(pool, trial_config))
    return tuple(evals)


def _group_aggregate(evals: Sequence[CategoryEvaluation], min_examples: int) -> dict:
    """mSAP and mAP of a category group, both None when no record is
    eligible."""
    try:
        eligible = _eligible(evals, min_examples)
    except NoEligibleCategories:
        return {"msap": None, "map": None, "categories": len(evals), "eligible": 0}
    return {
        "msap": msap(eligible, min_examples),
        "map": mean_ap(eligible, min_examples),
        "categories": len(evals),
        "eligible": len(eligible),
    }


@dataclass(frozen=True, slots=True)
class StabilityPoint:
    """Dispersion of the sampled-AP estimate at one trial count."""

    n_trials: int
    mean: float
    std: float


def stability_profile(
    pool: EvalPool,
    trial_counts: Sequence[int],
    repeats: int = 20,
    seed: int = 0,
    include_background: bool = True,
) -> tuple[StabilityPoint, ...]:
    """How the sampled-AP estimate spreads as the trial count grows.

    For each N, the metric is recomputed ``repeats`` times with independent
    derived seeds, all over one ranking of the pool; the mean and std of
    those estimates show how many trials are enough for a stable score.
    """
    if not trial_counts:
        raise ValueError("trial_counts must be non-empty")
    ranking = _rank(pool, include_background)
    points = []
    for j, n_trials in enumerate(trial_counts):
        estimates = np.array([
            _trials(ranking, SapConfig(n_trials, mix_seed(mix_seed(seed, j), r),
                                       include_background))[1]
            for r in range(repeats)
        ])
        points.append(
            StabilityPoint(int(n_trials), float(estimates.mean()), float(estimates.std()))
        )
    return tuple(points)
