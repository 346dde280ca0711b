"""Sampled average precision: AP over repeated balanced subsamples.

For a category with positives X, each trial draws |X| negatives uniformly
without replacement, computes AP on the union, and the trial results are
averaged. Balancing removes the dependence of AP on the positive/negative
ratio, so a rare category and a frequent one with the same recognition
quality score the same.

A result also carries the plain AP of the whole pool, read off the same
ranking, so a pool is ranked once for both. Also here: the across-category
mean, and the estimator-stability profile as a function of the trial count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import NoPositives
# not called here; perfbench/tracing.py wraps it under this name
from .metrics import average_precision_from_arrays  # noqa: F401
from .metrics import CategoryEvaluation, _eligible, _ranked_ap, rank_order
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


@dataclass(frozen=True)
class SapResult:
    """Per-trial APs for one category with their mean and population std,
    and the AP of the whole pool."""

    category: int
    trial_aps: tuple[float, ...]
    mean: float
    std: float
    n_pos: int
    degenerate: bool
    ap: float


def sampled_ap(pool: EvalPool, config: SapConfig = SapConfig()) -> SapResult:
    """Mean AP over ``config.n_trials`` balanced negative subsamples.

    Fully determined by (pool, config): trial i samples with a seed derived
    from ``config.seed`` and i. When the negative pool is smaller than the
    positive set the result is flagged degenerate and every trial simply
    uses all negatives. ``ap`` is ``metrics.average_precision(pool)`` to
    the bit, taken from the trials' ranking.
    """
    ranking = flags, negative_ranks = _rank(pool, config.include_background)
    n_pos = int(flags.sum())
    trial_aps, mean, std = _trials(ranking, config)
    return SapResult(pool.category, trial_aps, mean, std, n_pos,
                     degenerate=len(negative_ranks) < n_pos, ap=_ranked_ap(flags, n_pos))


def _rank(pool: EvalPool, include_background: bool) -> tuple[np.ndarray, np.ndarray]:
    """The pool's positive flags in rank order (descending score, ascending
    id), and the rank of each negative a trial may draw, in pool order.

    Ids are unique, so any subset of the pool ranks in this order: a trial
    is a mask over it, with no sort of its own.
    """
    if pool.n_pos == 0:
        raise NoPositives(f"category {pool.category} has no positive examples")
    order = rank_order(pool.scores, pool.ids)
    rank = np.empty(len(order), dtype=np.intp)
    rank[order] = np.arange(len(order))
    negative = ~pool.is_positive
    if not include_background:
        negative &= pool.origin != ExampleOrigin.BACKGROUND_DETECTION
    return pool.is_positive[order], rank[negative]


def _trials(
    ranking: tuple[np.ndarray, np.ndarray], config: SapConfig
) -> tuple[tuple[float, ...], float, float]:
    """The trial APs of a pool ranked by ``_rank`` with
    ``config.include_background``, their mean and their population std."""
    flags, negative_ranks = ranking
    n_pos, n_neg = int(flags.sum()), len(negative_ranks)

    trial_aps = []
    for i in range(config.n_trials):
        if n_neg <= n_pos:
            picked = negative_ranks
        else:
            rng = np.random.default_rng(mix_seed(config.seed, i))
            picked = negative_ranks[rng.choice(n_neg, size=n_pos, replace=False)]
        # the positives and this trial's negatives, in rank order
        keep = flags.copy()
        keep[picked] = True
        trial_aps.append(_ranked_ap(np.compress(keep, flags), n_pos))

    aps = np.array(trial_aps, dtype=np.float64)
    if float(aps.min()) == float(aps.max()):
        # identical trials: report the value itself, exact
        mean, std = float(aps[0]), 0.0
    else:
        mean, std = float(aps.mean()), float(aps.std())
    return tuple(float(a) for a in aps), mean, std


def msap(records: Iterable[CategoryEvaluation], min_examples: int = 1) -> float:
    """Unweighted mean sampled AP over the records ``metrics._eligible``
    keeps."""
    return float(np.mean([r.sap.mean for r in _eligible(records, min_examples)]))


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
