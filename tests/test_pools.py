import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sapeval.errors import NoPositives, UnknownCategory
from sapeval.metrics import average_precision_from_arrays, frame_ap, frame_ap_from_index
from sapeval.pools import (
    EvalPool,
    ExampleOrigin,
    FrameIndex,
    build_eval_pool,
    pool_from_arrays,
    pools_from_scores,
)
from sapeval.sampling import SapConfig, mix_seed, sampled_ap

from conftest import MICRO_DET, MICRO_GT, box, det, det_columns, gt, gt_columns
from oracles import reference_build_eval_pool, reference_frame_ap, reference_pools_from_scores

BACKGROUND = ExampleOrigin.BACKGROUND_DETECTION


def raw_pool(scores, ids, is_positive, origin):
    return EvalPool(0, scores, ids, is_positive, origin)


def side(pool, positive):
    """One side of a pool as (score, id, is_positive, origin name) tuples."""
    mask = pool.is_positive == positive
    return [
        (float(s), int(i), bool(p), ExampleOrigin(o).name)
        for s, i, p, o in zip(
            pool.scores[mask], pool.ids[mask], pool.is_positive[mask], pool.origin[mask]
        )
    ]


def pool_of(instances, detections, category, iou_threshold=0.5):
    return build_eval_pool(gt_columns(instances), det_columns(detections), category, iou_threshold)


def categories_of(instances, detections):
    return sorted({c for g in instances for c in g.categories} | {d.category for d in detections})


def backgrounds(pool):
    return pool.scores[pool.origin == BACKGROUND].tolist()


class TestEvalPool:
    def test_rejects_score_below_sentinel(self):
        with pytest.raises(ValueError):
            raw_pool([0.5, -1.5], [0, 1], [True, False], [0, 0])

    def test_rejects_nan_score(self):
        with pytest.raises(ValueError, match="NaN"):
            raw_pool([0.5, np.nan], [0, 1], [True, False], [0, 0])

    def test_sentinel_allowed(self):
        raw_pool([-1.0], [0], [True], [ExampleOrigin.UNMATCHED_GT])

    def test_rejects_inconsistent_flags(self):
        # a background detection matched no annotated box, so it cannot be
        # a positive; and origin codes must name an ExampleOrigin
        with pytest.raises(ValueError):
            raw_pool([0.5], [0], [True], [BACKGROUND])
        with pytest.raises(ValueError):
            raw_pool([0.5], [0], [False], [len(ExampleOrigin)])

    def test_rejects_duplicate_ids(self):
        with pytest.raises(ValueError):
            raw_pool([0.5, 0.4], [0, 0], [True, False], [0, 0])

    def test_rejects_unequal_lengths(self):
        with pytest.raises(ValueError):
            raw_pool([0.5, 0.4], [0, 1], [True], [0, 0])

    def test_columns_are_typed_and_read_only(self):
        p = raw_pool([1, 0], [3, 4], [1, 0], [0, 2])
        columns = (p.scores, p.ids, p.is_positive, p.origin)
        assert [a.dtype for a in columns] == [np.float64, np.int64, np.bool_, np.int8]
        assert (p.n_pos, p.n_neg) == (1, 1)
        for column in columns:
            with pytest.raises(ValueError):
                column[0] = 0


class TestBuildEvalPool:
    def test_perfect_detector(self):
        # every annotated box detected at 1.0 for exactly its labels
        instances = [
            gt("v", 1, box(0.1, 0.1, 0.3, 0.3), {0}, 0),
            gt("v", 1, box(0.5, 0.5, 0.7, 0.7), {1}, 1),
            gt("v", 2, box(0.2, 0.2, 0.4, 0.4), {0}, 2),
        ]
        detections = [
            det("v", 1, box(0.1, 0.1, 0.3, 0.3), 0, 1.0),
            det("v", 1, box(0.5, 0.5, 0.7, 0.7), 1, 1.0),
            det("v", 2, box(0.2, 0.2, 0.4, 0.4), 0, 1.0),
        ]
        p = pool_of(instances, detections, 0)
        positive = p.is_positive
        assert p.scores[positive].tolist() == [1.0, 1.0]
        assert (p.origin[positive] == ExampleOrigin.MATCHED_GT).all()
        assert p.scores[~positive].tolist() == [-1.0]
        assert (p.origin[~positive] != BACKGROUND).all()

    def test_stray_detection_becomes_background_negative(self):
        instances = [gt("v", 1, box(0.1, 0.1, 0.3, 0.3), {0}, 0)]
        detections = [det("v", 1, box(0.6, 0.6, 0.8, 0.8), 0, 0.7)]
        p = pool_of(instances, detections, 0)
        assert backgrounds(p) == [0.7]
        assert not p.is_positive[p.origin == BACKGROUND].any()

    def test_micro_fixture_pool_sizes(self):
        # category 0: gt0 and gt2 positive; gt1, gt3, gt4 negative; one stray
        p = pool_of(MICRO_GT, MICRO_DET, 0)
        assert (p.n_pos, p.n_neg) == (2, 4)
        assert sorted(p.scores[p.is_positive].tolist()) == [0.7, 0.9]
        assert backgrounds(p) == [0.4]

    def test_micro_fixture_other_category(self):
        # category 2 has one positive (gt0) never detected as 2
        p = pool_of(MICRO_GT, MICRO_DET, 2)
        assert p.n_pos == 1
        assert p.scores[p.is_positive].tolist() == [-1.0]
        assert p.origin[p.is_positive].tolist() == [ExampleOrigin.UNMATCHED_GT]

    def test_positive_count_independent_of_detections(self):
        for detections in ([], MICRO_DET, MICRO_DET * 1):
            p = pool_of(MICRO_GT, detections, 0)
            assert p.n_pos == 2

    def test_cross_category_confusion_scores_negative(self):
        # a category-0 detection sitting on a category-1 box scores that
        # negative instead of becoming background
        instances = [
            gt("v", 1, box(0.1, 0.1, 0.3, 0.3), {0}, 0),
            gt("v", 1, box(0.5, 0.5, 0.7, 0.7), {1}, 1),
        ]
        detections = [det("v", 1, box(0.5, 0.5, 0.7, 0.7), 0, 0.8)]
        p = pool_of(instances, detections, 0)
        assert p.n_pos == 1 and p.scores[p.is_positive].tolist() == [-1.0]
        assert p.scores[~p.is_positive].tolist() == [0.8]
        assert p.origin[~p.is_positive].tolist() == [ExampleOrigin.MATCHED_GT]

    def test_unknown_category(self):
        with pytest.raises(UnknownCategory):
            pool_of(MICRO_GT, MICRO_DET, 99)

    def test_invalid_iou_threshold(self):
        with pytest.raises(ValueError):
            pool_of(MICRO_GT, MICRO_DET, 0, iou_threshold=0.0)

    def test_detection_contributes_at_most_one_entry(self):
        p = pool_of(MICRO_GT, MICRO_DET, 0)
        det_scores = [d.score for d in MICRO_DET if d.category == 0]
        pool_scores = [s for s in p.scores.tolist() if s >= 0]
        assert all(pool_scores.count(s) <= det_scores.count(s) for s in pool_scores)


class TestPoolsFromScores:
    def test_multi_label_memberships(self):
        scores = np.array([[0.9, 0.1], [0.2, 0.8], [0.6, 0.7]])
        targets = np.array([[True, False], [False, True], [True, True]])
        pools = pools_from_scores(scores, targets)
        assert pools[0].n_pos == 2 and pools[0].n_neg == 1
        assert pools[1].n_pos == 2 and pools[1].n_neg == 1
        assert set(pools[0].ids[pools[0].is_positive].tolist()) == {0, 2}

    def test_duplicate_example_ids_raise(self):
        with pytest.raises(ValueError):
            pools_from_scores(np.zeros((2, 1)), np.ones((2, 1), dtype=bool), [7, 7])

    def test_pool_from_arrays_round_trip(self):
        p = pool_from_arrays(3, [0.5, 0.25], [True, False])
        assert p.category == 3
        assert p.n_pos == 1 and p.n_neg == 1


# ---------------------------------------------- columnar vs reference


def oracle_trial_aps(positives, negatives, config):
    """sampled_ap's trials, computed from reference pool sides."""
    if not config.include_background:
        negatives = [e for e in negatives if e[3] != "BACKGROUND_DETECTION"]
    pos_scores = np.array([e[0] for e in positives], dtype=np.float64)
    pos_ids = np.array([e[1] for e in positives], dtype=np.int64)
    neg_scores = np.array([e[0] for e in negatives], dtype=np.float64)
    neg_ids = np.array([e[1] for e in negatives], dtype=np.int64)
    n_pos, n_neg = len(pos_scores), len(neg_scores)
    aps = []
    for i in range(config.n_trials):
        pick = np.arange(n_neg)
        if n_neg > n_pos:
            rng = np.random.default_rng(mix_seed(config.seed, i))
            pick = rng.choice(n_neg, size=n_pos, replace=False)
        flags = np.r_[np.ones(n_pos, dtype=bool), np.zeros(len(pick), dtype=bool)]
        aps.append(average_precision_from_arrays(
            np.concatenate([pos_scores, neg_scores[pick]]),
            flags,
            np.concatenate([pos_ids, neg_ids[pick]]),
        ))
    return tuple(aps)


def assert_matches_reference(p, reference, seed):
    positives, negatives = reference
    assert side(p, True) == positives
    assert side(p, False) == negatives
    if positives:
        for include_background in (True, False):
            config = SapConfig(n_trials=4, seed=seed, include_background=include_background)
            assert sampled_ap(p, config).trial_aps == oracle_trial_aps(
                positives, negatives, config
            )


TIED_SCORES = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])


@st.composite
def score_matrices(draw):
    n = draw(st.integers(1, 25))
    k = draw(st.integers(1, 4))
    scores = np.array(draw(st.lists(
        st.one_of(TIED_SCORES, st.floats(0.0, 1.0)), min_size=n * k, max_size=n * k
    ))).reshape(n, k)
    targets = np.array(draw(st.lists(st.booleans(), min_size=n * k, max_size=n * k))).reshape(n, k)
    ids = draw(st.one_of(
        st.none(), st.lists(st.integers(-1000, 1000), min_size=n, max_size=n, unique=True)
    ))
    return scores, targets, ids


# corners on a coarse grid so that boxes often coincide or overlap near the
# threshold; three frames, some of which end up without boxes or detections
CORNERS = st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(1, 4), st.integers(1, 4))
FRAMES = st.sampled_from([("a", 0), ("a", 1), ("b", 0)])


def grid_box(corners):
    x, y, w, h = corners
    return box(x / 10, y / 10, (x + w) / 10, (y + h) / 10)


@st.composite
def detection_sets(draw):
    gt_specs = draw(st.lists(
        st.tuples(FRAMES, CORNERS, st.frozensets(st.integers(0, 3), min_size=1, max_size=2)),
        max_size=10,
    ))
    instances = [
        gt(video, ts, grid_box(corners), cats, i)
        for i, ((video, ts), corners, cats) in enumerate(gt_specs)
    ]
    # a detection either copies an annotated box's corners, shifted by up
    # to one grid step, or is a stray box anywhere
    det_specs = draw(st.lists(
        st.tuples(
            st.one_of(
                st.tuples(st.integers(0, max(len(gt_specs) - 1, 0)), st.integers(-1, 1)),
                st.tuples(FRAMES, CORNERS),
            ),
            st.integers(0, 3),
            TIED_SCORES,
        ),
        max_size=16,
    ))
    detections = []
    for where, category, score in det_specs:
        if isinstance(where[0], int):
            if not gt_specs:
                continue
            (video, ts), (x, y, w, h), _ = gt_specs[where[0]]
            x, y = min(max(x + where[1], 0), 6), min(max(y + where[1], 0), 6)
            corners = (x, y, w, h)
        else:
            (video, ts), corners = where
        detections.append(det(video, ts, grid_box(corners), category, score))
    iou_threshold = draw(st.sampled_from([0.5, 0.3, 1.0]))
    return instances, detections, iou_threshold


class TestColumnarMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(score_matrices(), st.integers(0, 2**32))
    def test_pools_from_scores(self, case, seed):
        scores, targets, ids = case
        reference = reference_pools_from_scores(scores, targets, ids)
        pools = pools_from_scores(scores, targets, ids)
        assert sorted(pools) == sorted(reference)
        for c, p in pools.items():
            assert_matches_reference(p, reference[c], seed)

    @settings(max_examples=150, deadline=None)
    @given(detection_sets(), st.integers(0, 2**32))
    def test_build_eval_pool(self, case, seed):
        instances, detections, iou_threshold = case
        for c in categories_of(instances, detections):
            reference = reference_build_eval_pool(instances, detections, c, iou_threshold)
            p = pool_of(instances, detections, c, iou_threshold)
            assert_matches_reference(p, reference, seed)


# ------------------------------------------- frame index vs references

# corners in eighths, so every IoU is computed exactly: overlaps land
# exactly on the thresholds (1/2, and 3/10 as the nearest double) and two
# boxes often tie on IoU with one detection
EIGHTHS = st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(1, 4), st.integers(1, 4))
# boxes and stray detections draw their frames independently, so some
# frames have detections but no boxes
FRAMES4 = st.sampled_from([("a", 0), ("a", 1), ("b", 0), ("c", 2)])


def eighths_box(corners):
    x, y, w, h = corners
    return box(x / 8, y / 8, (x + w) / 8, (y + h) / 8)


@st.composite
def exact_detection_sets(draw):
    gt_specs = draw(st.lists(
        st.tuples(FRAMES4, EIGHTHS, st.frozensets(st.integers(0, 3), min_size=1, max_size=2)),
        max_size=10,
    ))
    instances = draw(st.permutations([
        gt(video, ts, eighths_box(corners), cats, i)
        for i, ((video, ts), corners, cats) in enumerate(gt_specs)
    ]))
    detections = []
    for where, (dx, dy), category, score in draw(st.lists(
        st.tuples(
            st.one_of(st.integers(0, 9), st.tuples(FRAMES4, EIGHTHS)),
            st.tuples(st.integers(-1, 1), st.integers(-1, 1)),
            st.integers(0, 3),
            st.one_of(TIED_SCORES, st.floats(0.0, 1.0)),
        ),
        max_size=20,
    )):
        if isinstance(where, int):  # on an annotated box, maybe shifted
            if where >= len(gt_specs):
                continue
            frame, (x, y, w, h), _ = gt_specs[where]
            where = frame, (min(max(x + dx, 0), 4), min(max(y + dy, 0), 4), w, h)
        (video, ts), corners = where
        detections.append(det(video, ts, eighths_box(corners), category, score))
    return instances, detections, draw(st.sampled_from([0.3, 0.5, 1.0]))


def assert_index_matches_references(instances, detections, iou_threshold):
    gts, dets = gt_columns(instances), det_columns(detections)
    index = FrameIndex(gts, dets, iou_threshold)
    for c in categories_of(instances, detections):
        positives, negatives = reference_build_eval_pool(instances, detections, c, iou_threshold)
        p = index.pool(c)
        assert (side(p, True), side(p, False)) == (positives, negatives)
        expected = reference_frame_ap(instances, detections, c, iou_threshold)
        if expected is None:
            with pytest.raises(NoPositives):
                frame_ap_from_index(index, c)
            continue
        assert frame_ap_from_index(index, c) == pytest.approx(expected, abs=1e-12)
        assert frame_ap(gts, dets, c, iou_threshold) == frame_ap_from_index(index, c)


class TestFrameIndexMatchesReferences:
    @settings(max_examples=300, deadline=None)
    @given(exact_detection_sets())
    def test_every_category(self, case):
        assert_index_matches_references(*case)

    @pytest.mark.parametrize("iou_threshold", [0.3, 0.5, 1.0])
    @pytest.mark.parametrize(
        "case",
        [
            # two boxes at IoU 0.6 each with the first detection, then a
            # detection on the second box
            ([(0, 0, 4, 4), (2, 0, 4, 4)], [((1, 0, 4, 4), 0.9), ((2, 0, 4, 4), 0.8)]),
            # IoU exactly 1/2 and exactly 3/10
            ([(0, 0, 4, 4)], [((0, 0, 4, 2), 0.7)]),
            ([(0, 0, 5, 2)], [((0, 0, 3, 1), 0.9), ((0, 1, 3, 1), 0.4)]),
            # tied scores on one box, and a detection in a frame without boxes
            ([(0, 0, 2, 2)], [((0, 0, 2, 2), 0.5), ((1, 0, 2, 2), 0.5), ((0, 0, 2, 2), 0.5)]),
        ],
        ids=["equal_iou_tie", "iou_one_half", "iou_three_tenths", "tied_scores"],
    )
    def test_hand_built(self, case, iou_threshold):
        corners, detections = case
        instances = [gt("v", 0, eighths_box(c), {0}, i) for i, c in enumerate(corners)]
        dets = [det("v", 0, eighths_box(c), 0, s) for c, s in detections]
        dets.append(det("w", 3, eighths_box((0, 0, 2, 2)), 0, 0.6))
        for order in (instances, instances[::-1]):
            assert_index_matches_references(order, dets, iou_threshold)
