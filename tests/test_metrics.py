import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sapeval.errors import (
    DegeneratePool,
    InvalidCounts,
    NoEligibleCategories,
    NoPositives,
)
from sapeval.metrics import (
    CategoryEvaluation,
    average_precision,
    average_precision_from_arrays,
    frame_ap,
    mean_ap,
    random_baseline_ap,
    rank_order,
    roc_auc,
)

from conftest import MICRO_DET, MICRO_GT, box, det, det_columns, gt, gt_columns, make_pool, random_pool
from oracles import brute_force_ap


class TestAveragePrecision:
    def test_perfect_ranking(self):
        assert average_precision(make_pool([0.9, 0.8], [0.2, 0.1])) == 1.0

    def test_hand_enumerated_interleaved(self):
        # ranking (+0.9, -0.8, +0.7): precision 1 at rank 1, 2/3 at rank 3
        pool = make_pool([0.9, 0.7], [0.8])
        assert average_precision(pool) == pytest.approx(5 / 6, abs=1e-12)

    def test_matches_brute_force_oracle(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 30))
            scores = rng.random(n)
            flags = rng.random(n) < 0.5
            if not flags.any():
                flags[0] = True
            expected = brute_force_ap(list(zip(scores, flags)))
            assert average_precision_from_arrays(scores, flags) == pytest.approx(
                expected, abs=1e-12
            )

    def test_random_scorer_mean_near_positive_ratio(self):
        # frequent and rare categories from the same random scorer
        n_total = 93994
        for n_pos, target, tol in ((44449, 0.473, 0.01), (32, 0.00034, 0.0005)):
            flags = np.zeros(n_total, dtype=bool)
            flags[:n_pos] = True
            aps = [
                average_precision_from_arrays(
                    np.random.default_rng(seed).random(n_total), flags
                )
                for seed in range(20)
            ]
            assert np.mean(aps) == pytest.approx(target, abs=tol)

    def test_no_positives(self):
        with pytest.raises(NoPositives):
            average_precision(make_pool([], [0.5]))

    def test_tie_break_by_example_id(self):
        # equal scores: the lower id ranks first
        pool = make_pool([0.5], [0.5])  # positive id 0, negative id 1
        assert average_precision(pool) == 1.0

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_invariant_under_monotone_transform(self, seed):
        r = np.random.default_rng(seed)
        n = int(r.integers(3, 40))
        scores = r.random(n)
        flags = r.random(n) < 0.4
        if not flags.any():
            flags[0] = True
        base = average_precision_from_arrays(scores, flags)
        for transform in (lambda s: 3 * s + 1, np.exp, lambda s: s**3):
            assert average_precision_from_arrays(
                transform(scores), flags
            ) == pytest.approx(base, abs=1e-12)

    def test_appending_low_negatives_keeps_ap(self, rng):
        scores = rng.random(12)
        flags = rng.random(12) < 0.5
        flags[0] = True
        base = average_precision_from_arrays(scores, flags)
        extended = np.concatenate([scores, [-0.5, -0.9]])
        flags2 = np.concatenate([flags, [False, False]])
        assert average_precision_from_arrays(extended, flags2) == pytest.approx(
            base, abs=1e-12
        )

    def test_prepending_top_negative_strictly_decreases_ap(self, rng):
        scores = rng.random(12)
        flags = rng.random(12) < 0.5
        flags[0] = True
        base = average_precision_from_arrays(scores, flags)
        extended = np.concatenate([scores, [2.0]])
        flags2 = np.concatenate([flags, [False]])
        assert average_precision_from_arrays(extended, flags2) < base

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_bounded_and_floored_near_positive_ratio(self, seed):
        # any ranking stays in [0, 1]; a large random-scored pool cannot sit
        # meaningfully below the positive-ratio baseline
        r = np.random.default_rng(seed)
        n = int(r.integers(400, 1200))
        scores = r.random(n)
        flags = r.random(n) < r.uniform(0.05, 0.95)
        if not flags.any():
            flags[0] = True
        ap = average_precision_from_arrays(scores, flags)
        assert 0.0 <= ap <= 1.0
        assert ap >= flags.mean() - 0.1

    @given(st.lists(st.tuples(st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0, np.inf])
                              | st.floats(-1.0, 1.0), st.integers(-3, 3)), max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_rank_order_sorts_by_score_then_id_then_row(self, rows):
        # tied scores, -0.0 beside 0.0, and repeated ids
        scores = np.array([s for s, _ in rows], dtype=np.float64)
        ids = np.array([i for _, i in rows], dtype=np.int64)
        expected = sorted(range(len(rows)), key=lambda r: (-rows[r][0], rows[r][1], r))
        assert rank_order(scores, ids).tolist() == expected

    def test_reversed_perfect_ranking_minimizes(self):
        perfect = make_pool([0.9, 0.8], [0.2, 0.1])
        reverse = make_pool([0.2, 0.1], [0.9, 0.8])
        assert average_precision(reverse) < average_precision(perfect)
        # reversed ranking is the worst arrangement of this pool
        assert average_precision(reverse) == pytest.approx(
            brute_force_ap([(0.2, True), (0.1, True), (0.9, False), (0.8, False)])
        )


def frame_ap_of(instances, detections, category):
    return frame_ap(gt_columns(instances), det_columns(detections), category)


class TestFrameAp:
    def test_perfect_detector_on_micro_fixture(self):
        perfect = [
            det(g.frame.video_id, g.frame.timestamp, g.box, c, 1.0)
            for g in MICRO_GT
            for c in g.categories
        ]
        for category in (0, 1, 2):
            assert frame_ap_of(MICRO_GT, perfect, category) == 1.0

    def test_missing_one_of_two_positives(self):
        detections = [det("v1", 1, box(0.1, 0.1, 0.3, 0.3), 0, 0.9)]
        assert frame_ap_of(MICRO_GT, detections, 0) == pytest.approx(0.5)

    def test_stray_box_ranked_first(self):
        detections = [
            det("v1", 1, box(0.7, 0.7, 0.9, 0.9), 0, 0.95),  # background, top rank
            det("v1", 1, box(0.1, 0.1, 0.3, 0.3), 0, 0.9),
            det("v1", 2, box(0.2, 0.2, 0.4, 0.4), 0, 0.7),
        ]
        # ranks: FP, TP (prec 1/2), TP (prec 2/3)
        assert frame_ap_of(MICRO_GT, detections, 0) == pytest.approx(
            (0.5 + 2 / 3) / 2, abs=1e-12
        )

    def test_empty_detections_score_zero(self):
        assert frame_ap_of(MICRO_GT, [], 0) == 0.0

    def test_no_ground_truth_raises(self):
        with pytest.raises(NoPositives):
            frame_ap_of(MICRO_GT, MICRO_DET, 99)

    def test_independent_of_ground_truth_order(self):
        # d1 overlaps both boxes at IoU exactly 0.6 and claims the one with
        # the lower instance id, A, which leaves B to d2
        a = gt("v", 1, box(0.0, 0.0, 0.5, 0.5), {0}, 0)
        b = gt("v", 1, box(0.25, 0.0, 0.75, 0.5), {0}, 1)
        detections = [
            det("v", 1, box(0.125, 0.0, 0.625, 0.5), 0, 0.9),
            det("v", 1, b.box, 0, 0.8),
        ]
        assert frame_ap_of([a, b], detections, 0) == 1.0
        assert frame_ap_of([b, a], detections, 0) == 1.0


def scored(category, ap, n_pos, n_neg=0):
    """A record with an AP and no sampled AP, as ``sapeval eval`` builds it."""
    return CategoryEvaluation(category, n_pos, n_neg, ap, None)


class TestMeanAp:
    def test_single_category(self):
        scores = [scored(0, 0.42, 30, 100)]
        assert mean_ap(scores) == pytest.approx(0.42)

    def test_two_eligible(self):
        scores = [scored(0, 0.2, 30), scored(1, 0.8, 40)]
        assert mean_ap(scores) == pytest.approx(0.5)

    def test_eligibility_filter(self):
        scores = [scored(0, 0.2, 30), scored(1, 0.9, 3)]
        assert mean_ap(scores, min_examples=25) == pytest.approx(0.2)

    def test_identical_values_mean_is_value(self):
        scores = [scored(c, 0.478, 60) for c in range(60)]
        assert mean_ap(scores) == pytest.approx(0.478)

    def test_no_eligible(self):
        with pytest.raises(NoEligibleCategories):
            mean_ap([scored(0, 0.5, 3)], min_examples=25)

    def test_record_without_ap_never_counts(self):
        # a category without positives carries no AP, even at min_examples 0
        records = [scored(0, 0.3, 5), CategoryEvaluation(1, 0, 9, None, None)]
        assert mean_ap(records, min_examples=0) == 0.3
        with pytest.raises(NoEligibleCategories):
            mean_ap(records[1:], min_examples=0)


class TestRocAuc:
    def test_perfect_ranking(self):
        assert roc_auc(make_pool([0.9, 0.8], [0.2, 0.1])) == 1.0

    def test_hand_counted_concordant_pairs(self):
        # pairs: (0.9,0.8)+, (0.9,0.1)+, (0.7,0.8)-, (0.7,0.1)+ -> 3/4
        assert roc_auc(make_pool([0.9, 0.7], [0.8, 0.1])) == pytest.approx(0.75)

    def test_random_large_pool_near_half(self, rng):
        pool = random_pool(rng, 5000, 10000)
        assert roc_auc(pool) == pytest.approx(0.5, abs=0.02)

    def test_ties_count_half(self):
        assert roc_auc(make_pool([0.5], [0.5])) == pytest.approx(0.5)

    def test_degenerate(self):
        with pytest.raises(DegeneratePool):
            roc_auc(make_pool([0.5], []))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_monotone_invariance_and_flip_symmetry(self, seed):
        r = np.random.default_rng(seed)
        n_pos, n_neg = int(r.integers(1, 15)), int(r.integers(1, 15))
        pos, neg = r.random(n_pos), r.random(n_neg)
        base = roc_auc(make_pool(pos, neg))
        assert roc_auc(make_pool(pos * 7 + 2, neg * 7 + 2)) == pytest.approx(base)
        # negate scores and swap the sides: the statistic is preserved
        flipped = roc_auc(make_pool(1 - neg, 1 - pos))
        assert flipped == pytest.approx(base, abs=1e-12)


class TestRandomBaseline:
    def test_paper_scale_values(self):
        assert random_baseline_ap(44449, 93994) == pytest.approx(0.4729, abs=5e-5)
        assert random_baseline_ap(32, 93994) == pytest.approx(0.00034, abs=5e-6)

    def test_all_positive(self):
        assert random_baseline_ap(10, 10) == 1.0

    def test_invalid_counts(self):
        with pytest.raises(InvalidCounts):
            random_baseline_ap(0, 10)
        with pytest.raises(InvalidCounts):
            random_baseline_ap(11, 10)

    def test_monte_carlo_convergence(self):
        n_pos, n_total = 1500, 10000
        flags = np.zeros(n_total, dtype=bool)
        flags[:n_pos] = True
        aps = [
            average_precision_from_arrays(
                np.random.default_rng(seed).random(n_total), flags
            )
            for seed in range(20)
        ]
        assert np.mean(aps) == pytest.approx(
            random_baseline_ap(n_pos, n_total), abs=0.01
        )
