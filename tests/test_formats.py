import json
import math
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
from oracles import reference_read_detections, reference_read_ground_truth, reference_read_jsonl


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
        loaded = read_feature_dataset(path, "train", n_categories=4)
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
            read_feature_dataset(path, "train")
        assert err.value.line == 3

    def test_bad_record(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": 0, "split": "train", "labels": [0]}\n')
        with pytest.raises(ParseError) as err:
            read_feature_dataset(path, "train")
        assert err.value.line == 1


class TestPredictions:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        scores = rng.random((6, 3))
        targets = rng.random((6, 3)) < 0.4
        text = serialize_predictions(list(range(6)), targets, scores)
        path = tmp_path / "preds.jsonl"
        path.write_text(text)
        ids, read_targets, matrix = read_predictions(path)
        assert ids.tolist() == list(range(6))
        assert np.array_equal(read_targets, targets)
        assert np.array_equal(matrix, scores)
        assert serialize_predictions(ids, read_targets, matrix) == text

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


KEYS = {"predictions": "scores", "features": "features"}


@st.composite
def jsonl_records(draw, kind):
    """Two to eight valid records of a predictions or feature file with K
    scores or features each, and K."""
    k = draw(st.integers(1, 4))
    ids = draw(st.lists(st.one_of(st.integers(-5, 50), st.sampled_from([2**63 - 1, -(2**63)])),
                        min_size=2, max_size=8, unique=True))
    if kind == "predictions":
        values = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0, 1]))
    else:
        values = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.integers(-9, 9))
    records = []
    for example_id in ids:
        record = {
            "id": example_id,
            "labels": draw(st.lists(st.integers(0, k - 1), unique=True,
                                    min_size=kind == "features", max_size=k)),
            KEYS[kind]: draw(st.lists(values, min_size=k, max_size=k)),
        }
        if kind == "features":
            record["split"] = "train"
        records.append(record)
    return records, k


def jsonl_text(draw, records):
    """Records as JSON lines (a string record is written as it is), with
    blank lines between some of them and sometimes no final newline."""
    return csv_text(draw, [[r if isinstance(r, str) else json.dumps(r)] for r in records])


JSONL_CORRUPTIONS = {
    "predictions": ["type", "missing", "not_json", "duplicate_id", "width", "score",
                    "label_range", "repeated_label"],
    "features": ["type", "missing", "not_json", "duplicate_id", "width", "non_finite",
                 "label_range", "repeated_label", "split", "no_labels"],
}


def corrupt_record(draw, records, i, file_kind, kind, k):
    """A copy of record ``i`` of a ``file_kind`` file with one fault of
    ``kind``, or the text of a line that is not JSON."""
    key = KEYS[file_kind]
    record = json.loads(json.dumps(records[i]))
    if kind == "type":
        field, value = draw(st.sampled_from([
            ("id", 1.5), ("id", "7"), ("id", True), ("id", 2**63), ("id", -(2**63) - 1),
            ("labels", [0.5]), ("labels", ["1"]), ("labels", [2**64]),
            (key, ["0.5"]), (key, [None]), (key, [True]), (key, [10**400]),
        ]))
        record[field] = value if field == "id" else record[field] + value
    elif kind == "missing":
        del record[draw(st.sampled_from(sorted(record)))]
    elif kind == "not_json":
        return json.dumps(record)[:-1]
    elif kind == "duplicate_id":
        record["id"] = records[draw(st.sampled_from([j for j in range(len(records)) if j != i]))]["id"]
    elif kind == "width":
        record[key] = record[key][:-1] if draw(st.booleans()) else record[key] + [0.5]
    elif kind in ("score", "non_finite"):
        record[key][draw(st.integers(0, k - 1))] = draw(st.sampled_from(
            [1.5, -0.25, 1.0000001, math.nan, math.inf] if kind == "score"
            else [math.nan, math.inf, -math.inf]
        ))
    elif kind == "label_range":
        record["labels"].insert(draw(st.integers(0, len(record["labels"]))),
                                draw(st.sampled_from([-1, k, k + 3])))
    elif kind == "repeated_label":
        record["labels"] = record["labels"] + record["labels"][:1] if record["labels"] else [0, 0]
    elif kind == "split":
        record["split"] = draw(st.sampled_from(["val", "Train", 5, None, ["train"]]))
    else:
        record["labels"] = []
    return record


def read_with(reader, path):
    """``("ok", result)`` or ``("error", line, message, faults)``."""
    try:
        return "ok", reader(path)
    except ParseError as exc:
        return "error", exc.line, str(exc), getattr(exc, "faults", None)


class TestJsonlReaderMatchesReference:
    @staticmethod
    def readers(kind, n_categories):
        """The library's reader and the reference's, with comparable results."""
        if kind == "predictions":
            def library(path):
                ids, targets, scores = read_predictions(path)
                return (ids.tolist(), [tuple(np.flatnonzero(t)) for t in targets],
                        scores.tolist())

            def reference(path):
                ids, labels, rows = reference_read_jsonl(path, "scores")
                return ids, [tuple(sorted(t)) for t in labels], rows
        else:
            def library(path):
                d = read_feature_dataset(path, "train", n_categories)
                return d.ids.tolist(), d.labels, d.features.tolist(), d.split, d.n_categories

            def reference(path):
                ids, labels, rows = reference_read_jsonl(path, "features", "train", n_categories)
                k = n_categories if n_categories is not None else max(map(max, labels)) + 1
                return ids, labels, rows, "train", k
        return library, reference

    @pytest.mark.parametrize("kind", sorted(KEYS))
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_valid_files_give_reference_records(self, tmp_path_factory, kind, data):
        records, k = data.draw(jsonl_records(kind))
        path = tmp_path_factory.mktemp("jsonl") / "records.jsonl"
        path.write_text(jsonl_text(data.draw, records), encoding="utf-8")
        library, reference = self.readers(kind, data.draw(st.sampled_from([None, k])))
        assert library(path) == reference(path)

    @pytest.mark.parametrize(
        "kind,corruption", [(kind, c) for kind in sorted(KEYS) for c in JSONL_CORRUPTIONS[kind]]
    )
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_corrupted_files_give_reference_error(self, tmp_path_factory, kind, corruption, data):
        """The first bad line is the reference's; so is the message when
        that record has a single fault. A corruption can also leave a
        valid file (a label of K when K is inferred), read the same way."""
        records, k = data.draw(jsonl_records(kind))
        bad = data.draw(st.lists(st.integers(0, len(records) - 1), min_size=1, max_size=2,
                                 unique=True))
        kinds = [corruption, data.draw(st.sampled_from(JSONL_CORRUPTIONS[kind]))]
        corrupted = list(records)
        for i, record_kind in zip(bad, kinds):
            corrupted[i] = corrupt_record(data.draw, records, i, kind, record_kind, k)
        path = tmp_path_factory.mktemp("jsonl") / "records.jsonl"
        path.write_text(jsonl_text(data.draw, corrupted), encoding="utf-8")
        library, reference = self.readers(kind, data.draw(st.sampled_from([None, k])))
        expected, result = read_with(reference, path), read_with(library, path)
        several_faults = expected[0] == "error" and len(expected[3]) > 1
        assert result[:2 if several_faults else 3] == expected[:2 if several_faults else 3]


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
