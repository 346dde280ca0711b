import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sapeval.datasets import ZipfSpec, synthesize_dataset
from sapeval.errors import ParseError
from sapeval.formats import (
    read_category_ap,
    read_detections_csv,
    read_feature_dataset,
    read_ground_truth_csv,
    read_predictions,
    serialize_detections,
    serialize_feature_dataset,
    serialize_ground_truth,
    serialize_predictions,
)

from conftest import MICRO_DET, MICRO_GT, det_columns, gt_columns
from oracles import reference_read_detections, reference_read_ground_truth


def gt_rows(columns):
    """Ground-truth columns as (video_id, timestamp, corners, categories,
    instance id) rows."""
    labels = [set() for _ in range(len(columns))]
    for row, c in zip(columns.label_row.tolist(), columns.label_category.tolist()):
        labels[row].add(c)
    return [
        (*columns.frames[f], tuple(b), frozenset(cats), i)
        for f, b, cats, i in zip(
            columns.frame.tolist(), columns.boxes.tolist(), labels, columns.ids.tolist()
        )
    ]


class TestGroundTruthCsv:
    def test_round_trip_is_identity(self, tmp_path):
        path = tmp_path / "gt.csv"
        path.write_text(serialize_ground_truth(gt_columns(MICRO_GT)))
        once = read_ground_truth_csv(path)
        assert gt_rows(once) == [
            (g.frame.video_id, g.frame.timestamp, tuple(g.box), g.categories, g.instance_id)
            for g in MICRO_GT
        ]
        path.write_text(serialize_ground_truth(once))
        assert gt_rows(read_ground_truth_csv(path)) == gt_rows(once)

    def test_multilabel_rows_merge(self, tmp_path):
        path = tmp_path / "gt.csv"
        path.write_text(
            "v,1,0.100000,0.100000,0.300000,0.300000,4\n"
            "v,1,0.100000,0.100000,0.300000,0.300000,7\n"
            "v,1,0.500000,0.500000,0.700000,0.700000,4\n"
        )
        instances = gt_rows(read_ground_truth_csv(path))
        assert len(instances) == 2
        assert instances[0][3] == {4, 7}
        assert instances[0][4] != instances[1][4]

    def test_field_count_error_carries_line_number(self, tmp_path):
        path = tmp_path / "gt.csv"
        path.write_text("v,1,0.1,0.1,0.3,0.3,0\nv,1,0.1\n")
        with pytest.raises(ParseError) as err:
            read_ground_truth_csv(path)
        assert err.value.line == 2

    def test_bad_number_error(self, tmp_path):
        path = tmp_path / "gt.csv"
        path.write_text("v,1,0.1,0.1,0.3,oops,0\n")
        with pytest.raises(ParseError) as err:
            read_ground_truth_csv(path)
        assert err.value.line == 1

    def test_coordinates_quantized_to_six_decimals(self, tmp_path):
        path = tmp_path / "gt.csv"
        path.write_text("v,1,0.12345678,0.1,0.3,0.3,0\n")
        instances = read_ground_truth_csv(path)
        assert instances.boxes[0, 0] == pytest.approx(0.123457, abs=1e-12)

    def test_rejects_inverted_corners(self, tmp_path):
        path = tmp_path / "gt.csv"
        path.write_text("v,1,0.1,0.1,0.3,0.3,0\nv,1,0.5,0.1,0.2,0.3,0\n")
        with pytest.raises(ParseError) as err:
            read_ground_truth_csv(path)
        assert err.value.line == 2
        assert "invalid box corners: BoundingBox(x1=0.5, y1=0.1, x2=0.2, y2=0.3)" in str(err.value)

    def test_rejects_out_of_range(self, tmp_path):
        path = tmp_path / "gt.csv"
        for corners in ("-0.1,0.0,0.5,0.5", "0.0,0.0,1.2,0.5"):
            path.write_text(f"v,1,{corners},0\n")
            with pytest.raises(ParseError, match="invalid box corners") as err:
                read_ground_truth_csv(path)
            assert err.value.line == 1


def rows_of(columns):
    """Detection columns as (video_id, timestamp, corners, category, score) rows."""
    return [
        (*columns.frames[f], tuple(b), c, s)
        for f, b, c, s in zip(
            columns.frame.tolist(), columns.boxes.tolist(),
            columns.category.tolist(), columns.score.tolist(),
        )
    ]


class TestDetectionsCsv:
    def test_round_trip_is_identity(self, tmp_path):
        path = tmp_path / "det.csv"
        path.write_text(serialize_detections(det_columns(MICRO_DET)))
        once = read_detections_csv(path)
        assert rows_of(once) == [
            (d.frame.video_id, d.frame.timestamp, tuple(d.box), d.category, d.score)
            for d in MICRO_DET
        ]
        path.write_text(serialize_detections(once))
        assert rows_of(read_detections_csv(path)) == rows_of(once)

    def test_score_out_of_range(self, tmp_path):
        path = tmp_path / "det.csv"
        path.write_text("v,1,0.1,0.1,0.3,0.3,0,1.5\n")
        with pytest.raises(ParseError):
            read_detections_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "det.csv"
        path.write_text("")
        assert len(read_detections_csv(path)) == 0


def micro_text(draw, micros):
    """A number of millionths as CSV text: 6 decimals, shortest form, or
    with extra digits that round away."""
    plain = f"{micros // 10**6}.{micros % 10**6:06d}"
    form = draw(st.sampled_from(["plain", "short", "extra"]))
    if form == "short":
        return repr(micros / 10**6)
    if form == "extra" and micros < 10**6:
        return plain + draw(st.text("0123456789", min_size=1, max_size=3))
    return plain


@st.composite
def detection_lines(draw):
    """Fields of one valid detection row."""
    x1, y1 = draw(st.integers(0, 900_000)), draw(st.integers(0, 900_000))
    x2 = draw(st.one_of(st.just(10**6), st.integers(x1 + 3, 999_999)))
    y2 = draw(st.one_of(st.just(10**6), st.integers(y1 + 3, 999_999)))
    timestamp = draw(st.integers(0, 3))
    return [
        draw(st.sampled_from(["v1", "v2", "clip 7"])),
        draw(st.sampled_from([str(timestamp), f"0{timestamp}", f"+{timestamp}",
                              f" {timestamp}", str(2**63 - 1), str(-(2**63))])),
        *(micro_text(draw, v) for v in (x1, y1, x2, y2)),
        str(draw(st.one_of(st.integers(0, 4), st.sampled_from([-3, 2**63 - 1, -(2**63)])))),
        micro_text(draw, draw(st.one_of(st.integers(0, 10**6), st.sampled_from([0, 10**6])))),
    ]


def csv_text(draw, rows):
    """Rows joined into a file, with blank lines between some of them and
    sometimes no final newline."""
    lines = []
    for fields in rows:
        lines.append(",".join(fields) + "\n")
        if draw(st.integers(0, 9)) == 0:
            lines.append(draw(st.sampled_from(["\n", "  \n"])))
    text = "".join(lines)
    return text.rstrip("\n") if draw(st.booleans()) else text


CORRUPTIONS = ["fields", "video_id", "number", "inverted", "corner", "score", "int64"]


def corrupt(draw, fields, kind):
    fields = list(fields)
    if kind == "fields":
        fields = fields[:-1] if draw(st.booleans()) else fields + ["0.5"]
    elif kind == "video_id":
        fields[0] = ""
    elif kind == "number":
        fields[draw(st.integers(1, len(fields) - 1))] = draw(st.sampled_from(["x", "1.2.3", "", "0x1", "2.5e"]))
    elif kind == "inverted":
        fields[2], fields[4] = fields[4], fields[2]
    elif kind == "corner":  # one corner past its own bound
        i = draw(st.integers(2, 5))
        fields[i] = {2: "-0.1", 3: "-0.000001", 4: "1.5", 5: "1.0000006"}[i]
    elif kind == "score":
        fields[7] = draw(st.sampled_from(["1.5", "-0.25", "nan", "1.0000006", "inf"]))
    else:
        fields[draw(st.sampled_from([1, 6]))] = str(draw(st.sampled_from([2**63, -(2**63) - 1])))
    return fields


class TestColumnarReaderMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_valid_files_give_reference_rows(self, tmp_path_factory, data):
        rows = data.draw(st.lists(detection_lines(), max_size=12))
        path = tmp_path_factory.mktemp("det") / "det.csv"
        path.write_text(csv_text(data.draw, rows), encoding="utf-8")
        assert rows_of(read_detections_csv(path)) == reference_read_detections(path)

    @pytest.mark.parametrize("kind", CORRUPTIONS)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_corrupted_files_give_reference_error(self, tmp_path_factory, kind, data):
        rows = data.draw(st.lists(detection_lines(), min_size=1, max_size=8))
        bad = data.draw(st.lists(st.integers(0, len(rows) - 1), min_size=1, max_size=2, unique=True))
        for i, row_kind in zip(bad, [kind, data.draw(st.sampled_from(CORRUPTIONS))]):
            rows[i] = corrupt(data.draw, rows[i], row_kind)
        path = tmp_path_factory.mktemp("det") / "det.csv"
        path.write_text(csv_text(data.draw, rows), encoding="utf-8")
        with pytest.raises(ParseError) as expected:
            reference_read_detections(path)
        with pytest.raises(ParseError) as err:
            read_detections_csv(path)
        assert (err.value.line, str(err.value)) == (expected.value.line, str(expected.value))


def corner_text(draw, micros):
    """``micro_text``, or for a zero corner a form that reads as zero by
    value only: a negative zero or a digit below the grid."""
    if micros == 0 and draw(st.booleans()):
        return draw(st.sampled_from(["-0", "-0.0", "0.0000001", "-0.0000004"]))
    return micro_text(draw, micros)


@st.composite
def ground_truth_lines(draw):
    """Fields of one valid ground-truth row, drawn from few boxes, frames
    and labels so that rows often merge, sometimes only by value."""
    x1, y1 = draw(st.sampled_from([0, 250_000])), draw(st.sampled_from([0, 250_000]))
    x2, y2 = draw(st.sampled_from([500_000, 10**6])), draw(st.sampled_from([500_000, 10**6]))
    timestamp = draw(st.integers(0, 2))
    return [
        draw(st.sampled_from(["v1", "v2"])),
        draw(st.sampled_from([str(timestamp), f"0{timestamp}", f"+{timestamp}", f" {timestamp}"])),
        *(corner_text(draw, v) for v in (x1, y1, x2, y2)),
        str(draw(st.integers(0, 2))),
    ]


GT_LINES = st.one_of(ground_truth_lines(), detection_lines().map(lambda fields: fields[:7]))


def exact(rows):
    """Reader rows with corners as text, so that -0.0 and 0.0 differ."""
    return [(*row[:2], tuple(map(repr, row[2])), *row[3:]) for row in rows]


class TestGroundTruthReaderMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_valid_files_give_reference_boxes(self, tmp_path_factory, data):
        rows = data.draw(st.lists(GT_LINES, max_size=14))
        path = tmp_path_factory.mktemp("gt") / "gt.csv"
        path.write_text(csv_text(data.draw, rows), encoding="utf-8")
        columns = read_ground_truth_csv(path)
        assert exact(gt_rows(columns)) == exact(reference_read_ground_truth(path))
        pairs = list(zip(columns.label_row.tolist(), columns.label_category.tolist()))
        assert pairs == sorted(set(pairs))  # each (box, label) once, sorted

    @pytest.mark.parametrize("kind", [k for k in CORRUPTIONS if k != "score"])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_corrupted_files_give_reference_error(self, tmp_path_factory, kind, data):
        rows = data.draw(st.lists(GT_LINES, min_size=1, max_size=8))
        bad = data.draw(st.lists(st.integers(0, len(rows) - 1), min_size=1, max_size=2, unique=True))
        second = data.draw(st.sampled_from([k for k in CORRUPTIONS if k != "score"]))
        for i, row_kind in zip(bad, [kind, second]):
            rows[i] = corrupt(data.draw, rows[i], row_kind)
        path = tmp_path_factory.mktemp("gt") / "gt.csv"
        path.write_text(csv_text(data.draw, rows), encoding="utf-8")
        with pytest.raises(ParseError) as expected:
            reference_read_ground_truth(path)
        with pytest.raises(ParseError) as err:
            read_ground_truth_csv(path)
        assert (err.value.line, str(err.value)) == (expected.value.line, str(expected.value))


class TestFeatureDatasetJsonl:
    def test_round_trip_preserves_everything(self, tmp_path):
        spec = ZipfSpec(
            n_categories=4,
            max_count=40,
            min_count=2,
            feature_dim=5,
            multilabel_rate=0.3,
            seed=1,
        )
        train = synthesize_dataset(spec)["train"]
        path = tmp_path / "train.jsonl"
        text = serialize_feature_dataset(train)
        path.write_text(text)
        loaded = read_feature_dataset(path, n_categories=4)
        assert len(loaded) == len(train)
        assert np.array_equal(loaded.ids, train.ids)
        assert loaded.labels == train.labels
        assert np.array_equal(loaded.features, train.features)
        assert np.array_equal(loaded.targets, train.targets)
        # serialize(parse(x)) == x byte for byte
        assert serialize_feature_dataset(loaded) == text

    @pytest.mark.parametrize(
        "later",
        ['{"id": 9, "split": "train", "labels": [-1], "features": [0.0, 1.0]}',
         '{"id": 9, "split": "train", "labels": [0], "features": [0.0]}'],
        ids=["negative_label", "short_features"],
    )
    def test_non_finite_feature_before_a_bad_line_is_reported(self, tmp_path, later):
        path = tmp_path / "train.jsonl"
        path.write_text('{"id": 0, "split": "train", "labels": [0], "features": [0.0, 1.0]}\n\n'
                        '{"id": 1, "split": "train", "labels": [1], "features": [Infinity, 1.0]}\n'
                        f"{later}\n")
        with pytest.raises(ParseError, match="non-finite feature") as err:
            read_feature_dataset(path)
        assert err.value.line == 3

    def test_bad_record(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": 0, "split": "train", "labels": [0]}\n')
        with pytest.raises(ParseError) as err:
            read_feature_dataset(path)
        assert err.value.line == 1


class TestPredictions:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        scores = rng.random((6, 3))
        labels = [sorted({int(rng.integers(0, 3))}) for _ in range(6)]
        text = serialize_predictions(list(range(6)), labels, scores)
        path = tmp_path / "preds.jsonl"
        path.write_text(text)
        ids, label_sets, matrix = read_predictions(path)
        assert ids == list(range(6))
        assert [sorted(s) for s in label_sets] == labels
        assert np.array_equal(matrix, scores)
        assert serialize_predictions(ids, [sorted(s) for s in label_sets], matrix) == text

    def test_inconsistent_widths(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        path.write_text(
            '{"id": 0, "labels": [0], "scores": [0.1, 0.2]}\n'
            '{"id": 1, "labels": [1], "scores": [0.3]}\n'
        )
        with pytest.raises(ParseError) as err:
            read_predictions(path)
        assert err.value.line == 2

    @pytest.mark.parametrize(
        "record,message",
        [
            ('{"id": 1, "labels": [0], "scores": [0.1, 1.5]}', "scores must lie in [0, 1]"),
            ('{"id": 1, "labels": [0, 2], "scores": [0.1, 0.5]}', "labels must lie in [0, 2)"),
        ],
        ids=["score", "label"],
    )
    def test_range_error_gives_the_record_line(self, tmp_path, record, message):
        path = tmp_path / "preds.jsonl"
        path.write_text('{"id": 0, "labels": [1], "scores": [0.9, 0.2]}\n\n' + record + "\n")
        with pytest.raises(ParseError, match=re.escape(message)) as err:
            read_predictions(path)
        assert err.value.line == 3

    @pytest.mark.parametrize("first", ["label", "score"])
    def test_first_range_error_is_reported(self, tmp_path, first):
        bad = {"label": '{"id": 1, "labels": [2], "scores": [0.1, 0.5]}',
               "score": '{"id": 1, "labels": [0], "scores": [0.1, -0.5]}'}
        second = bad["score" if first == "label" else "label"].replace('"id": 1', '"id": 2')
        path = tmp_path / "preds.jsonl"
        path.write_text('{"id": 0, "labels": [1], "scores": [0.9, 0.2]}\n'
                        f'{bad[first]}\n{second}\n')
        with pytest.raises(ParseError, match=f"{first}s must lie in") as err:
            read_predictions(path)
        assert err.value.line == 2

    def test_empty_predictions(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        path.write_text("")
        with pytest.raises(ParseError):
            read_predictions(path)


class TestCategoryAp:
    def test_plain_mapping(self, tmp_path):
        path = tmp_path / "ap.json"
        path.write_text('{"0": 0.5, "3": 0.25}')
        assert read_category_ap(path) == {0: 0.5, 3: 0.25}

    def test_report_shape(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text(
            '{"categories": [{"category": 1, "ap": 0.75}, {"category": 2, "ap": null}]}'
        )
        assert read_category_ap(path) == {1: 0.75}
