import numpy as np
import pytest
from hypothesis import given, strategies as st

from sapeval.boxes import match_detections, iou, paired_iou

from conftest import box
from oracles import grid_iou


def valid_boxes():
    coords = st.floats(0.0, 1.0, allow_nan=False, width=32)

    def build(draw):
        x1, x2 = sorted(draw(st.tuples(coords, coords)))
        y1, y2 = sorted(draw(st.tuples(coords, coords)))
        if x2 - x1 < 1e-3 or y2 - y1 < 1e-3:
            x1, x2 = 0.0, max(x2, 1e-3)
            y1, y2 = 0.0, max(y2, 1e-3)
        return box(x1, y1, x2, y2)

    return st.composite(build)()


class TestIou:
    def test_identity(self):
        b = box(0.2, 0.3, 0.6, 0.9)
        assert iou(b, b) == 1.0

    def test_disjoint(self):
        assert iou(box(0.0, 0.0, 0.2, 0.2), box(0.5, 0.5, 0.9, 0.9)) == 0.0

    def test_one_third_overlap(self):
        # half-width shift of equal squares: intersection 1, union 3
        a = box(0.0, 0.0, 0.10, 0.10)
        b = box(0.05, 0.0, 0.15, 0.10)
        assert iou(a, b) == pytest.approx(1 / 3, abs=1e-12)
        assert iou(a, b) == pytest.approx(grid_iou(a, b), abs=1e-2)

    def test_matches_grid_oracle(self, rng):
        for _ in range(10):
            x = sorted(rng.uniform(0, 1, size=2))
            y = sorted(rng.uniform(0, 1, size=2))
            u = sorted(rng.uniform(0, 1, size=2))
            v = sorted(rng.uniform(0, 1, size=2))
            if x[1] - x[0] < 0.05 or y[1] - y[0] < 0.05:
                continue
            if u[1] - u[0] < 0.05 or v[1] - v[0] < 0.05:
                continue
            a = box(x[0], y[0], x[1], y[1])
            b = box(u[0], v[0], u[1], v[1])
            assert iou(a, b) == pytest.approx(grid_iou(a, b), abs=1e-2)

    @given(valid_boxes(), valid_boxes())
    def test_symmetric_and_bounded(self, a, b):
        ab = iou(a, b)
        assert ab == iou(b, a)
        assert 0.0 <= ab <= 1.0

    @given(valid_boxes())
    def test_self_iou_is_one(self, a):
        assert iou(a, a) == pytest.approx(1.0)

    @given(st.lists(st.tuples(valid_boxes(), valid_boxes()), max_size=5))
    def test_paired_iou_is_bitwise_iou(self, pairs):
        a = np.reshape([p[0] for p in pairs], (-1, 4))
        b = np.reshape([p[1] for p in pairs], (-1, 4))
        assert paired_iou(a, b).tolist() == [iou(*p) for p in pairs]


class TestMatchDetections:
    def test_single_match(self):
        g = [box(0.1, 0.1, 0.3, 0.3)]
        result = match_detections([0.75], [box(0.12, 0.1, 0.32, 0.3)], g, 0.5)
        assert result.is_true_positive == (True,)
        assert result.gt_match == (0,)

    def test_duplicate_detection_is_fp(self):
        # two detections on one box: the higher-scored one wins
        g = [box(0.1, 0.1, 0.3, 0.3)]
        d = [box(0.1, 0.1, 0.3, 0.3), box(0.11, 0.1, 0.31, 0.3)]
        result = match_detections([0.9, 0.8], d, g, 0.5)
        assert result.is_true_positive == (True, False)
        assert result.gt_match == (0,)

    def test_threshold_is_strict_geq(self):
        # overlap just below the threshold stays unmatched; match at equality
        a = box(0.0, 0.0, 0.2, 0.2)
        b = box(0.1, 0.0, 0.3, 0.2)  # IoU = 1/3
        assert not match_detections([0.9], [b], [a], 0.5).is_true_positive[0]
        assert match_detections([0.9], [b], [a], 1 / 3).is_true_positive[0]

    def test_empty_inputs(self):
        assert match_detections([], [], [], 0.5).is_true_positive == ()
        result = match_detections([], [], [box(0.1, 0.1, 0.2, 0.2)], 0.5)
        assert result.gt_match == (-1,)

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            match_detections([], [], [], 0.0)

    @given(st.permutations(range(5)))
    def test_permutation_invariant_with_distinct_scores(self, order):
        g = [box(0.1, 0.1, 0.3, 0.3), box(0.5, 0.5, 0.7, 0.7)]
        scores = [0.9, 0.7, 0.8, 0.3, 0.5]
        boxes = [
            box(0.1, 0.1, 0.3, 0.3),
            box(0.12, 0.1, 0.32, 0.3),
            box(0.5, 0.5, 0.7, 0.7),
            box(0.52, 0.5, 0.72, 0.7),
            box(0.0, 0.8, 0.1, 0.9),
        ]
        base = match_detections(scores, boxes, g, 0.5)
        shuffled = [scores[i] for i in order]
        result = match_detections(shuffled, [boxes[i] for i in order], g, 0.5)
        # same detections flagged TP regardless of input order
        base_tp = {scores[i] for i in range(5) if base.is_true_positive[i]}
        perm_tp = {shuffled[i] for i in range(5) if result.is_true_positive[i]}
        assert base_tp == perm_tp
        # each box claimed by the same detection (scores are distinct)
        assert [scores[d] if d >= 0 else None for d in base.gt_match] == [
            shuffled[d] if d >= 0 else None for d in result.gt_match
        ]
