from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sapeval.errors import NoEligibleCategories, NoPositives
from sapeval.metrics import CategoryEvaluation, average_precision
from sapeval.pools import EvalPool, ExampleOrigin
from sapeval.sampling import (
    SapConfig,
    SapResult,
    mix_seed,
    msap,
    sampled_ap,
    stability_profile,
)

from conftest import make_pool, pool_sides, random_pool
from oracles import exhaustive_sampled_ap, reference_sampled_ap

FIXTURE = make_pool([0.9, 0.4], [0.8, 0.3, 0.1])  # exact expectation 8/9


class TestMixSeed:
    def test_deterministic(self):
        assert mix_seed(5, 3) == mix_seed(5, 3)

    def test_spreads_indices(self):
        outputs = {mix_seed(0, i) for i in range(1000)}
        assert len(outputs) == 1000

    def test_64_bit_range(self):
        assert 0 <= mix_seed(2**63, 2**40) < 2**64


class TestSampledAp:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            SapConfig(n_trials=0)

    def test_deterministic(self):
        a = sampled_ap(FIXTURE, SapConfig(n_trials=20, seed=42))
        b = sampled_ap(FIXTURE, SapConfig(n_trials=20, seed=42))
        assert a == b
        c = sampled_ap(FIXTURE, SapConfig(n_trials=20, seed=43))
        assert a.trial_aps != c.trial_aps

    def test_equal_sized_sides_equal_plain_ap_exactly(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 8))
            pool = random_pool(rng, n, 2 * n)
            result = sampled_ap(pool, SapConfig(n_trials=15, seed=1))
            assert result.mean == average_precision(pool)
            assert result.std == 0.0
            assert not result.degenerate
            assert len(result.trial_aps) == 15

    def test_degenerate_when_negatives_scarce(self):
        pool = make_pool([0.9, 0.8, 0.7], [0.5])
        result = sampled_ap(pool, SapConfig(n_trials=5, seed=0))
        assert result.degenerate
        assert result.std == 0.0
        assert result.mean == average_precision(pool)

    def test_no_positives(self):
        with pytest.raises(NoPositives):
            sampled_ap(make_pool([], [0.5, 0.4]))

    def test_perfect_ranking_every_trial(self, rng):
        pool = make_pool([0.9, 0.8, 0.7], rng.uniform(0.0, 0.5, size=50))
        result = sampled_ap(pool, SapConfig(n_trials=25, seed=3))
        assert result.trial_aps == tuple([1.0] * 25)
        assert result.mean == 1.0 and result.std == 0.0

    def test_matches_exhaustive_oracle_on_fixture(self):
        result = sampled_ap(FIXTURE, SapConfig(n_trials=10_000, seed=7))
        assert result.mean == pytest.approx(8 / 9, abs=0.01)

    def test_monotone_transform_invariance(self, rng):
        pool = random_pool(rng, 6, 30)
        base = sampled_ap(pool, SapConfig(n_trials=50, seed=5))
        scores, flags = pool.scores, pool.is_positive
        squashed = make_pool(
            1 / (1 + np.exp(-scores[flags])), 1 / (1 + np.exp(-scores[~flags]))
        )
        again = sampled_ap(squashed, SapConfig(n_trials=50, seed=5))
        assert again.trial_aps == pytest.approx(base.trial_aps, abs=1e-12)

    def test_include_background_flag(self):
        pool = EvalPool(
            0,
            scores=[0.9, 0.95, 0.1],
            ids=[0, 1, 2],
            is_positive=[True, False, False],
            origin=[
                ExampleOrigin.MATCHED_GT,
                ExampleOrigin.BACKGROUND_DETECTION,
                ExampleOrigin.MATCHED_GT,
            ],
        )
        with_bg = sampled_ap(pool, SapConfig(n_trials=200, seed=0))
        without_bg = sampled_ap(
            pool, SapConfig(n_trials=200, seed=0, include_background=False)
        )
        # without the 0.95 distractor every trial ranks the positive first
        assert without_bg.mean == 1.0
        assert with_bg.mean < 1.0

    def test_frequency_invariance_for_fixed_scorer_quality(self):
        # same scorer (score = label + unit Gaussian noise); positive counts
        # 1000x apart. The rare side averages a few pool draws because a
        # single 100-positive sample of the scorer is itself noisy.
        n_total = 200_000

        def build(n_pos, seed):
            r = np.random.default_rng(seed)
            flags = np.zeros(n_total, dtype=bool)
            flags[:n_pos] = True
            raw = flags + r.normal(0, 1.0, n_total)
            scores = 1 / (1 + np.exp(-raw))
            return make_pool(scores[flags], scores[~flags])

        frequent = build(100_000, 7)
        frequent_sap = sampled_ap(frequent, SapConfig(n_trials=8, seed=1)).mean
        rare_pools = [build(100, 1000 + i) for i in range(3)]
        rare_sap = np.mean(
            [sampled_ap(p, SapConfig(n_trials=300, seed=1)).mean for p in rare_pools]
        )
        assert frequent_sap == pytest.approx(rare_sap, abs=0.03)
        ap_ratio = average_precision(frequent) / np.mean(
            [average_precision(p) for p in rare_pools]
        )
        assert ap_ratio > 10


@st.composite
def sap_pools(draw):
    """A shuffled pool with tied scores and background rows, and whether
    background rows are eligible negatives. The eligible negatives are
    fewer than, as many as or more than the positives."""
    include_background = draw(st.booleans())
    n_pos = draw(st.integers(1, 8))
    n_background = draw(st.integers(0, 4))
    eligible = {"fewer": draw(st.integers(0, n_pos - 1)) if n_pos > 1 else 0,
                "equal": n_pos,
                "more": draw(st.integers(n_pos + 1, 3 * n_pos + 4))}[
        draw(st.sampled_from(["fewer", "equal", "more"]))]
    if include_background:
        n_background = min(n_background, eligible)
        n_matched = eligible - n_background
    else:
        n_matched = eligible
    n = n_pos + n_matched + n_background
    score = st.sampled_from([-1.0, 0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0)
    scores = draw(st.lists(score, min_size=n, max_size=n))
    ids = draw(st.lists(st.integers(-100, 10**6), min_size=n, max_size=n, unique=True))
    is_positive = [True] * n_pos + [False] * (n_matched + n_background)
    origin = [ExampleOrigin.MATCHED_GT] * (n_pos + n_matched) + [
        ExampleOrigin.BACKGROUND_DETECTION] * n_background
    order = draw(st.permutations(range(n)))
    pool = EvalPool(0, scores=[scores[i] for i in order], ids=[ids[i] for i in order],
                    is_positive=[is_positive[i] for i in order],
                    origin=[origin[i] for i in order])
    return pool, include_background


class TestMatchesReference:
    """``sampled_ap`` and ``stability_profile`` rank a pool once and take
    each trial as a mask over that ranking; the reference re-ranks every
    trial. Results must agree bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(sap_pools(), st.integers(1, 6), st.integers(0, 2**64 - 1))
    def test_sampled_ap(self, drawn, n_trials, seed):
        pool, include_background = drawn
        config = SapConfig(n_trials=n_trials, seed=seed, include_background=include_background)
        result = sampled_ap(pool, config)
        expected = reference_sampled_ap(pool, config)
        assert {k: getattr(result, k) for k in expected} == expected

    @settings(max_examples=300, deadline=None)
    @given(sap_pools(), st.integers(1, 3), st.integers(0, 2**64 - 1))
    def test_reported_ap_is_average_precision(self, drawn, n_trials, seed):
        # the AP read off the trials' ranking, bit for bit
        pool, include_background = drawn
        config = SapConfig(n_trials=n_trials, seed=seed, include_background=include_background)
        assert sampled_ap(pool, config).ap.hex() == average_precision(pool).hex()

    @settings(max_examples=60, deadline=None)
    @given(sap_pools(), st.lists(st.integers(1, 4), min_size=1, max_size=3, unique=True),
           st.integers(2, 3), st.integers(0, 2**64 - 1))
    def test_stability_profile(self, drawn, trial_counts, repeats, seed):
        pool, include_background = drawn
        points = stability_profile(pool, trial_counts, repeats=repeats, seed=seed,
                                   include_background=include_background)
        for j, (n_trials, point) in enumerate(zip(trial_counts, points)):
            estimates = np.array([
                reference_sampled_ap(pool, SapConfig(n_trials, mix_seed(mix_seed(seed, j), r),
                                                     include_background))["mean"]
                for r in range(repeats)
            ])
            assert (point.n_trials, point.mean, point.std) == (
                n_trials, float(estimates.mean()), float(estimates.std()))


class TestExactOracle:
    """``oracles.exhaustive_sampled_ap``, the exact expected SAP that the
    trial estimator is held to."""

    def test_committed_fixture_value(self):
        assert exhaustive_sampled_ap(*pool_sides(FIXTURE)) == pytest.approx(8 / 9, abs=1e-12)

    def test_matches_independent_enumeration(self, rng):
        # the library's AP averaged over every balanced subset
        for _ in range(10):
            n_pos = int(rng.integers(1, 4))
            n_neg = int(rng.integers(n_pos, 8))
            pos = list(rng.random(n_pos))
            neg = list(rng.random(n_neg))
            library = np.mean(
                [average_precision(make_pool(pos, subset)) for subset in combinations(neg, n_pos)]
            )
            assert library == pytest.approx(exhaustive_sampled_ap(pos, neg), abs=1e-12)

    def test_equal_sides_equal_plain_ap(self, rng):
        pool = random_pool(rng, 4, 8)
        assert exhaustive_sampled_ap(*pool_sides(pool)) == pytest.approx(
            average_precision(pool), abs=1e-12
        )

    def test_perfect_pool(self):
        assert exhaustive_sampled_ap([0.9, 0.8], [0.3, 0.2, 0.1]) == 1.0

    def test_sampled_estimator_converges_to_oracle(self, rng):
        # the acceptance suite runs the full 50-pool version at 10k trials
        for _ in range(5):
            n_pos = int(rng.integers(1, 5))
            n_neg = int(rng.integers(n_pos + 1, 9))
            pool = random_pool(rng, n_pos, n_pos + n_neg)
            exact = exhaustive_sampled_ap(*pool_sides(pool))
            estimate = sampled_ap(pool, SapConfig(n_trials=5000, seed=2)).mean
            assert estimate == pytest.approx(exact, abs=0.01)


class TestMsap:
    def _result(self, category, mean, n_pos):
        sap = SapResult(category, (mean,), mean, 0.0, n_pos, False, mean)
        return CategoryEvaluation(category, n_pos, n_pos, mean, sap)

    def test_single_category(self):
        assert msap([self._result(0, 0.7, 50)]) == pytest.approx(0.7)

    def test_constant_mean(self):
        results = [self._result(c, 0.478, 60) for c in range(60)]
        assert msap(results) == pytest.approx(0.478)

    def test_two_categories(self):
        results = [self._result(0, 0.3, 50), self._result(1, 0.7, 50)]
        assert msap(results) == pytest.approx(0.5)

    def test_eligibility(self):
        results = [self._result(0, 0.3, 50), self._result(1, 0.7, 3)]
        assert msap(results, min_examples=25) == pytest.approx(0.3)
        with pytest.raises(NoEligibleCategories):
            msap(results, min_examples=100)


class TestStabilityProfile:
    def test_deterministic_pool_has_zero_spread(self):
        pool = make_pool([0.9, 0.8], [0.2, 0.1])  # every subsample is perfect
        points = stability_profile(pool, [5, 10], repeats=10, seed=0)
        assert all(p.std == 0.0 for p in points)
        assert [p.n_trials for p in points] == [5, 10]

    def test_more_trials_never_noisier(self, rng):
        pool = random_pool(rng, 200, 4200)
        points = stability_profile(pool, [5, 40], repeats=100, seed=3)
        assert points[1].std <= points[0].std

    def test_inverse_sqrt_trial_scaling(self, rng):
        pool = random_pool(rng, 200, 4200)
        points = stability_profile(pool, [5, 20], repeats=200, seed=11)
        ratio = points[0].std / points[1].std
        assert 1.6 <= ratio <= 2.4

    def test_empty_trial_counts(self):
        with pytest.raises(ValueError):
            stability_profile(make_pool([0.9], [0.1]), [], repeats=5)
