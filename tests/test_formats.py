import json
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sapeval import datasets, formats
from sapeval.datasets import ZipfSpec, label_pairs, synthesize_dataset
from sapeval.errors import ParseError
from sapeval.formats import (
    read_category_ap,
    read_detections_csv,
    read_feature_dataset,
    read_ground_truth_csv,
    read_predictions,
    read_split,
    serialize_feature_dataset,
)
from sapeval.pools import FrameIndex, pools_from_scores

from conftest import (
    MICRO_DET,
    MICRO_GT,
    det_columns,
    gt_columns,
    serialize_detections,
    serialize_ground_truth,
    serialize_predictions,
)
from oracles import reference_read_detections, reference_read_ground_truth, reference_read_jsonl
from test_cli import NESTED_TOO_DEEP, write_ava_fixture


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


# ------------------------------------- box CSV grammar at the C parser's edges

ROW = "v,1,0.1,0.1,0.3,0.3,0"
CORNERS = "0.1,0.1,0.3,0.3"

#: detection files, each read by the C parser or falling back to the line
#: reader; either way the rows or the first error must be the reference's
DETECTION_GRAMMAR = {
    "underscore_category": "v,1,0.1,0.1,0.3,0.3,1_0,0.5\n",
    "underscore_score": "v,1,0.1,0.1,0.3,0.3,0,0.5_0\n",
    "arabic_indic_timestamp": "v,١,0.1,0.1,0.3,0.3,0,0.5\n",
    "full_width_category": "v,1,0.1,0.1,0.3,0.3,７,0.5\n",
    "full_width_score": "v,1,0.1,0.1,0.3,0.3,0,０.５\n",
    "whitespace_only_line": f"{ROW},0.5\n  \n\t\nw,2,0.1,0.1,0.3,0.3,1,0.25\n",
    "hash_in_video_id": "v#1,1,0.1,0.1,0.3,0.3,0,0.5\n",
    "hash_after_score": f"{ROW},0.5\n{ROW},0.5 # note\n",
    "hash_glued_to_score": f"{ROW},0.5#\n",
    "crlf": f"{ROW},0.5\r\nw,2,0.1,0.1,0.3,0.3,1,0.25\r\n",
    "cr_only": f"{ROW},0.5\rw,2,0.1,0.1,0.3,0.3,1,0.25\r",
    "quoted_video_id": '"v 1",1,0.1,0.1,0.3,0.3,0,0.5\n',
    "quoted_comma": '"v,1",1,0.1,0.1,0.3,0.3,0,0.5\n',
    "long_video_id": f"{'v' * 65}x,1,0.1,0.1,0.3,0.3,0,0.5\n{'v' * 65}y,1,0.1,0.1,0.3,0.3,0,0.5\n",
    "bom": f"\ufeff{ROW},0.5\nv,1,0.1,0.1,0.3,0.3,1,0.5\n",
    "trailing_comma": f"{ROW},0.5\n{ROW},0.5,\n",
    "unit_separator_in_number": f"{ROW},0.5\x1f\n",
    "unit_separator_in_video_id": "v\x1c1,1,0.1,0.1,0.3,0.3,0,0.5\n",
    "float_timestamp": "v,1.5,0.1,0.1,0.3,0.3,0,0.5\n",
    "exponent_timestamp": f"{ROW},0.5\nv,1e3,0.1,0.1,0.3,0.3,0,0.5\n",
    "float_category": "v,1,0.1,0.1,0.3,0.3,2.0,0.5\n",
    "far_timestamps": f"v,{-2**63},{CORNERS},0,0.5\nw,{2**63 - 1},{CORNERS},1,0.5\n"
                      f"v,{2**63 - 1},{CORNERS},0,0.5\n",
    "large_close_timestamps": f"v,{2**62 + 1},{CORNERS},0,0.5\nw,{2**62},{CORNERS},1,0.5\n"
                              f"v,{2**62},{CORNERS},0,0.5\nv,{2**62 + 1},{CORNERS},2,0.5\n",
    "empty": "",
    "blank_only": "\n\n\n",
    "spaces_only": "  \n \n",
}

#: ground-truth files: the detection cases less the score
GROUND_TRUTH_GRAMMAR = {
    "underscore_category": "v,1,0.1,0.1,0.3,0.3,1_0\n",
    "arabic_indic_timestamp": "v,١,0.1,0.1,0.3,0.3,0\n",
    "full_width_category": "v,1,0.1,0.1,0.3,0.3,７\n",
    "full_width_corner": "v,1,０.1,0.1,0.3,0.3,0\n",
    "whitespace_only_line": f"{ROW}\n  \n\t\n{ROW[:-1]}2\n",
    "hash_in_video_id": "v#1,1,0.1,0.1,0.3,0.3,0\n",
    "hash_after_category": f"{ROW}\n{ROW} # note\n",
    "crlf": f"{ROW}\r\nw,2,0.1,0.1,0.3,0.3,1\r\n",
    "cr_only": f"{ROW}\rw,2,0.1,0.1,0.3,0.3,1\r",
    "quoted_video_id": '"v 1",1,0.1,0.1,0.3,0.3,0\n',
    "long_video_id": f"{'v' * 65}x,1,0.1,0.1,0.3,0.3,0\n{'v' * 65}y,1,0.1,0.1,0.3,0.3,0\n",
    "bom": f"\ufeff{ROW}\n{ROW[:-1]}1\n",
    "trailing_comma": f"{ROW}\n{ROW},\n",
    "unit_separator_in_number": f"{ROW}\x1e\n",
    "float_timestamp": "v,1.5,0.1,0.1,0.3,0.3,0\n",
    "exponent_timestamp": f"{ROW}\nv,1e3,0.1,0.1,0.3,0.3,0\n",
    "float_category": "v,1,0.1,0.1,0.3,0.3,2.0\n",
    "far_timestamps": f"v,{-2**63},{CORNERS},0\nw,{2**63 - 1},{CORNERS},1\n"
                      f"v,{2**63 - 1},{CORNERS},0\n",
    "large_close_timestamps": f"v,{2**62 + 1},{CORNERS},0\nw,{2**62},{CORNERS},1\n"
                              f"v,{2**62},{CORNERS},0\nv,{2**62 + 1},{CORNERS},2\n",
    "empty": "",
    "blank_only": "\n\n\n",
}


def expect_reference(path, read, reference, rows):
    """``read(path)`` gives ``reference(path)``'s rows, or its first error."""
    try:
        expected = reference(path)
    except ParseError as exc:
        with pytest.raises(ParseError) as err:
            read(path)
        assert (err.value.line, str(err.value)) == (exc.line, str(exc))
    else:
        assert rows(read(path)) == expected


class TestBoxCsvGrammar:
    @pytest.mark.parametrize("name", sorted(DETECTION_GRAMMAR))
    def test_detections_read_as_reference(self, tmp_path, name):
        path = tmp_path / "det.csv"
        path.write_bytes(DETECTION_GRAMMAR[name].encode("utf-8"))
        expect_reference(path, read_detections_csv, reference_read_detections, rows_of)

    @pytest.mark.parametrize("name", sorted(GROUND_TRUTH_GRAMMAR))
    def test_ground_truth_reads_as_reference(self, tmp_path, name):
        path = tmp_path / "gt.csv"
        path.write_bytes(GROUND_TRUTH_GRAMMAR[name].encode("utf-8"))
        expect_reference(path, read_ground_truth_csv,
                         lambda p: exact(reference_read_ground_truth(p)),
                         lambda columns: exact(gt_rows(columns)))

    def test_valid_edge_cases_are_read(self, tmp_path):
        """The cases the line reader must accept, not merely match."""
        path = tmp_path / "det.csv"
        for name in ("underscore_category", "full_width_category", "whitespace_only_line",
                     "hash_in_video_id", "quoted_video_id", "long_video_id", "bom",
                     "unit_separator_in_video_id"):
            path.write_bytes(DETECTION_GRAMMAR[name].encode("utf-8"))
            assert len(read_detections_csv(path)) > 0, name
        for name in ("empty", "blank_only", "spaces_only"):
            path.write_bytes(DETECTION_GRAMMAR[name].encode("utf-8"))
            assert len(read_detections_csv(path)) == 0, name

    @pytest.mark.parametrize("name", ["float_timestamp", "exponent_timestamp", "float_category"])
    def test_non_integer_in_an_integer_column_is_a_parse_error(self, tmp_path, name):
        path = tmp_path / "det.csv"
        path.write_bytes(DETECTION_GRAMMAR[name].encode("utf-8"))
        with pytest.raises(ParseError, match="invalid literal for int"):
            read_detections_csv(path)

    @pytest.mark.parametrize("name", ["far_timestamps", "large_close_timestamps"])
    def test_frames_of_extreme_timestamps(self, tmp_path, name):
        """Timestamps too far apart to pack into one frame key, and large
        ones close together, which pack from their minimum."""
        path = tmp_path / "det.csv"
        path.write_bytes(DETECTION_GRAMMAR[name].encode("utf-8"))
        columns = read_detections_csv(path)
        assert [columns.frames[f] for f in columns.frame.tolist()] == [
            (line.split(",")[0], int(line.split(",")[1]))
            for line in DETECTION_GRAMMAR[name].splitlines()]


class TestFastPaths:
    """The golden CSVs must come through the C parser: with the line reader
    broken, a fast path that always fell back would fail here."""

    def test_a_parser_warning_sends_the_file_to_the_line_reader(self, tmp_path, monkeypatch):
        """A C parser that warns as it reads a value wrongly, as numpy's
        did for a float in an integer column, is not trusted."""
        gt, det = write_ava_fixture(tmp_path)
        expected = (exact(reference_read_ground_truth(gt)), reference_read_detections(det))
        loadtxt = np.loadtxt

        def warning_loadtxt(*args, **kwargs):
            warnings.warn("implicit cast", DeprecationWarning)
            rows = loadtxt(*args, **kwargs)
            rows["timestamp"] += 1
            return rows

        monkeypatch.setattr(np, "loadtxt", warning_loadtxt)
        assert exact(gt_rows(read_ground_truth_csv(gt))) == expected[0]
        assert rows_of(read_detections_csv(det)) == expected[1]

    def test_golden_csvs_need_no_line_reader(self, tmp_path, monkeypatch):
        gt, det = write_ava_fixture(tmp_path)
        expected = (exact(reference_read_ground_truth(gt)), reference_read_detections(det))

        def line_reader_called(*args):
            raise AssertionError("read line by line")

        monkeypatch.setattr(formats, "_check_box_row", line_reader_called)
        assert exact(gt_rows(read_ground_truth_csv(gt))) == expected[0]
        assert rows_of(read_detections_csv(det)) == expected[1]

    def test_whitespace_only_lines_need_no_line_reader(self, tmp_path, monkeypatch):
        """Whitespace-only lines are dropped before the C parser reads a
        file, so they do not send it to the line reader."""
        gt, det = write_ava_fixture(tmp_path)
        for path in (gt, det):
            lines = path.read_text().splitlines(keepends=True)
            lines[len(lines) // 2:len(lines) // 2] = ["  \n", "\t\n"]
            path.write_text("".join(lines) + " \n")
        expected = (exact(reference_read_ground_truth(gt)), reference_read_detections(det))
        calls = []
        check_box_row = formats._check_box_row
        monkeypatch.setattr(formats, "_check_box_row",
                            lambda *args: calls.append(args) or check_box_row(*args))
        assert exact(gt_rows(read_ground_truth_csv(gt))) == expected[0]
        assert rows_of(read_detections_csv(det)) == expected[1]
        assert calls == []


def box_csv_lines(n, n_fields=8, seed=0):
    """``n`` valid random box CSV lines, detections or (7 fields) ground
    truth, over 40 videos x 50 timestamps, in 6-decimal fixed point."""
    rng = np.random.default_rng(seed)
    x1, y1 = rng.integers(0, 500_000, (2, n))
    x2, y2 = x1 + rng.integers(1, 500_000, n), y1 + rng.integers(1, 500_000, n)
    video, stamp, category = rng.integers(0, 40, n), rng.integers(0, 50, n), rng.integers(0, 20, n)
    score = [f",0.{s:06d}" for s in rng.integers(0, 10**6, n).tolist()] if n_fields == 8 else [""] * n
    return [f"vid{v},{t},0.{a:06d},0.{b:06d},0.{c:06d},0.{d:06d},{k}{s}\n"
            for v, t, a, b, c, d, k, s in zip(video.tolist(), stamp.tolist(), x1.tolist(),
                                                y1.tolist(), x2.tolist(), y2.tolist(),
                                                category.tolist(), score)]


#: each box CSV reader, its reference, and how to compare their rows
BOX_READERS = {
    "detections": (8, read_detections_csv, reference_read_detections, rows_of),
    "ground_truth": (7, read_ground_truth_csv, lambda path: exact(reference_read_ground_truth(path)),
                     lambda columns: exact(gt_rows(columns))),
}


class TestBoxCsvChunks:
    """The C parser reads ``formats.CHUNK`` lines per call: files around a
    chunk's edge, and rows whose frame or error lies past the first chunk,
    read as the reference does."""

    @pytest.mark.parametrize("kind", sorted(BOX_READERS))
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_files_around_a_chunk(self, tmp_path, monkeypatch, kind, offset):
        n_fields, read, reference, rows = BOX_READERS[kind]
        path = tmp_path / "boxes.csv"
        path.write_text("".join(box_csv_lines(formats.CHUNK + offset, n_fields)))
        expected = reference(path)
        calls = []
        monkeypatch.setattr(formats, "_check_box_row", lambda *args: calls.append(args))
        assert rows(read(path)) == expected
        assert calls == []  # the C parser read it all

    @pytest.mark.parametrize("kind", sorted(BOX_READERS))
    def test_video_first_seen_in_the_last_chunk(self, tmp_path, kind):
        n_fields, read, reference, rows = BOX_READERS[kind]
        lines = box_csv_lines(2 * formats.CHUNK + 3, n_fields)
        lines[-2] = "late" + lines[-2][lines[-2].index(","):]
        path = tmp_path / "boxes.csv"
        path.write_text("".join(lines))
        columns = read(path)
        assert columns.frames[-1][0] == "late"
        assert rows(columns) == reference(path)

    @pytest.mark.parametrize("kind", sorted(BOX_READERS))
    @pytest.mark.parametrize("bad", ["x", "1.5"], ids=["number", "corner"])
    def test_bad_row_in_the_second_chunk(self, tmp_path, kind, bad):
        n_fields, read, reference, _ = BOX_READERS[kind]
        lines = box_csv_lines(2 * formats.CHUNK, n_fields)
        fields = lines[formats.CHUNK + 7].split(",")
        fields[4] = bad
        lines[formats.CHUNK + 7] = ",".join(fields)
        path = tmp_path / "boxes.csv"
        path.write_text("".join(lines))
        with pytest.raises(ParseError) as expected:
            reference(path)
        with pytest.raises(ParseError) as err:
            read(path)
        assert expected.value.line == formats.CHUNK + 8
        assert (err.value.line, str(err.value)) == (expected.value.line, str(expected.value))


#: valid values the C parser rejects, by field: underscores between digits
#: and non-ASCII digits
ODD_FIELDS = {1: ["١", "0_1"], 6: ["1_0", "７"], 7: ["0.5_0", "０.５"]}


@st.composite
def mixed_box_line(draw, n_fields):
    """One box CSV line as bytes: a valid row, a valid row the C parser
    rejects, a bad row, a blank line or a row holding invalid UTF-8."""
    fields = draw(detection_lines() if n_fields == 8 else GT_LINES)
    kind = draw(st.sampled_from(["valid", "odd", "bad", "blank", "byte"]))
    if kind == "odd":
        i = draw(st.sampled_from([i for i in ODD_FIELDS if i < n_fields]))
        fields[i] = draw(st.sampled_from(ODD_FIELDS[i]))
    elif kind == "bad":
        kinds = [k for k in CORRUPTIONS if n_fields == 8 or k != "score"]
        fields = corrupt(draw, fields, draw(st.sampled_from(kinds)))
    line = ",".join(fields).encode()
    if kind == "blank":
        return b" "
    if kind == "byte":
        at = draw(st.integers(0, len(line)))
        line = line[:at] + draw(st.sampled_from([b"\xff", b"\xe9", b"\xc3"])) + line[at:]
    return line


class TestFallbackPerChunk:
    """A chunk the C parser rejects, and only that chunk, is read again by
    the line reader; the rows, or the first error, are the reference's."""

    @pytest.mark.parametrize("kind", sorted(BOX_READERS))
    def test_only_the_rejected_chunk_is_read_line_by_line(self, tmp_path, monkeypatch, kind):
        n_fields, read, reference, rows = BOX_READERS[kind]
        lines = box_csv_lines(2 * formats.CHUNK + 3, n_fields)
        edits = {formats.CHUNK + 5: (0, "new"), formats.CHUNK + 9: (6, "1_0")}
        for i, (field, value) in edits.items():
            fields = lines[i].rstrip("\n").split(",")
            fields[field] = value
            lines[i] = ",".join(fields) + "\n"
        path = tmp_path / "boxes.csv"
        path.write_text("".join(lines))
        expected = reference(path)
        line_numbers = []
        check_box_row = formats._check_box_row
        monkeypatch.setattr(formats, "_check_box_row",
                            lambda *args: line_numbers.append(args[1]) or check_box_row(*args))
        columns = read(path)
        assert line_numbers == list(range(formats.CHUNK + 1, 2 * formats.CHUNK + 1))
        assert rows(columns) == expected
        assert list(columns.frames) == list(dict.fromkeys(
            (video, int(stamp)) for video, stamp, *_ in (line.split(",") for line in lines)))

    @pytest.mark.parametrize("kind", sorted(BOX_READERS))
    def test_a_control_sends_only_its_chunk_to_the_line_reader(self, tmp_path, monkeypatch,
                                                               kind):
        """A control the C parser would strip as whitespace (here in a video
        id of the last chunk) sends that chunk, not the file, line by line."""
        n_fields, read, reference, rows = BOX_READERS[kind]
        lines = box_csv_lines(2 * formats.CHUNK + 3, n_fields)
        lines[-2] = "\x1f" + lines[-2]
        path = tmp_path / "boxes.csv"
        path.write_text("".join(lines))
        expected = reference(path)
        line_numbers = []
        check_box_row = formats._check_box_row
        monkeypatch.setattr(formats, "_check_box_row",
                            lambda *args: line_numbers.append(args[1]) or check_box_row(*args))
        columns = read(path)
        assert line_numbers == list(range(2 * formats.CHUNK + 1, 2 * formats.CHUNK + 4))
        assert rows(columns) == expected

    @pytest.mark.parametrize("kind", sorted(BOX_READERS))
    @settings(max_examples=150, deadline=None)
    @given(chunk=st.integers(1, 3), data=st.data())
    def test_mixed_files_read_as_reference(self, tmp_path_factory, kind, chunk, data):
        n_fields, read, reference, rows = BOX_READERS[kind]
        lines = data.draw(st.lists(mixed_box_line(n_fields), max_size=10))
        path = tmp_path_factory.mktemp("boxes") / "boxes.csv"
        path.write_bytes(b"".join(line + b"\n" for line in lines))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(formats, "CHUNK", chunk)
            expect_reference(path, read, reference, rows)

    @pytest.mark.parametrize("kind", sorted(BOX_READERS))
    def test_a_chunk_whose_rows_fail_the_array_check_is_taken_back(self, tmp_path,
                                                                   monkeypatch, kind):
        """Rows the C parser read wrongly (here every chunk's last x1) are
        dropped, and the line reader writes the chunk where they were."""
        n_fields, read, reference, rows = BOX_READERS[kind]
        monkeypatch.setattr(formats, "CHUNK", 3)
        path = tmp_path / "boxes.csv"
        path.write_text("".join(box_csv_lines(8, n_fields)))
        expected = reference(path)
        loadtxt = np.loadtxt

        def misreading_loadtxt(*args, **kwargs):
            parsed = loadtxt(*args, **kwargs)
            parsed["box"][-1, 0] = 2.0
            return parsed

        monkeypatch.setattr(np, "loadtxt", misreading_loadtxt)
        assert rows(read(path)) == expected

    def test_earlier_bad_line_in_a_fallback_chunk_wins_over_a_later_byte(self, tmp_path,
                                                                         monkeypatch):
        monkeypatch.setattr(formats, "CHUNK", 3)
        path = tmp_path / "det.csv"
        path.write_bytes(f"{ROW},0.5\n{ROW},0.5\n{ROW},0.5\n{ROW[:-1]}1_0,0.5\nv,1\n"
                         f"\xff{ROW},0.5\n".encode("latin-1"))
        with pytest.raises(ParseError, match="expected 8 fields, got 2") as err:
            read_detections_csv(path)
        assert err.value.line == 5

    def test_bad_line_in_the_chunk_after_a_fallback_chunk(self, tmp_path, monkeypatch):
        """Line numbers count the blank lines of every chunk before."""
        monkeypatch.setattr(formats, "CHUNK", 2)
        path = tmp_path / "det.csv"
        path.write_text(f"{ROW},0.5\n\n{ROW},0.5\n{ROW[:-1]}1_0,0.5\n \n{ROW},0.5\n\n"
                        f"{ROW},0.5\nw,1,0.1,0.1,1.5,0.3,0,0.5\n")
        expect_reference(path, read_detections_csv, reference_read_detections, rows_of)
        with pytest.raises(ParseError, match="invalid box corners") as err:
            read_detections_csv(path)
        assert err.value.line == 9


class TestInvalidUtf8:
    @pytest.mark.parametrize("read,good", [
        (read_detections_csv, f"{ROW},0.5"), (read_ground_truth_csv, ROW)],
        ids=["detections", "ground_truth"])
    def test_box_csv_names_the_line(self, tmp_path, read, good):
        path = tmp_path / "boxes.csv"
        # past the first read buffer, so the bad byte is met mid-file
        path.write_bytes(f"{good}\n".encode() * 2000 + b"v\xff,1,0.1,0.1,0.3,0.3,0\n")
        with pytest.raises(ParseError, match="invalid UTF-8 byte 0xff") as err:
            read(path)
        assert err.value.line == 2001

    def test_box_csv_earlier_bad_line_wins(self, tmp_path):
        path = tmp_path / "det.csv"
        path.write_bytes(f"{ROW},0.5\nv,1\n{ROW},0.5\n\xe9\n".encode("latin-1"))
        with pytest.raises(ParseError, match="expected 8 fields") as err:
            read_detections_csv(path)
        assert err.value.line == 2

    def test_predictions_name_the_line(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        good = '{"id": %d, "labels": [0], "scores": [0.5, 0.25]}\n'
        path.write_bytes("".join(good % i for i in range(500)).encode()
                         + b'{"id": 500, "labels": [0], "scores": [0.5, 0.25]}\xc3\n')
        with pytest.raises(ParseError, match="invalid UTF-8 byte 0xc3") as err:
            read_predictions(path)
        assert err.value.line == 501

    def test_predictions_earlier_bad_row_wins(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        path.write_bytes(b'{"id": 0, "labels": [0], "scores": [0.5, 0.25]}\n'
                         b'{"id": 1, "labels": [0], "scores": [1.5, 0.25]}\n'
                         b'{"id": 2, "labels": [0], "scores": [0.5, 0.25]}\n\xff\n')
        with pytest.raises(ParseError, match=r"scores must lie in \[0, 1\]") as err:
            read_predictions(path)
        assert err.value.line == 2

    def test_feature_file_names_the_line(self, tmp_path):
        path = tmp_path / "train.jsonl"
        path.write_bytes(b'{"id": 0, "split": "train", "labels": [0], "features": [1.0]}\n'
                         b'{"id": 1, "split": "tr\xffain", "labels": [0], "features": [1.0]}\n')
        with pytest.raises(ParseError, match="invalid UTF-8") as err:
            read_feature_dataset(path, "train")
        assert err.value.line == 2


class TestLineReader:
    def test_invalid_utf8_found_in_one_text_read(self, tmp_path, monkeypatch):
        """A byte that is not UTF-8 past the first read buffer is found by
        the one text-mode read of the file, not by a second read."""
        path = tmp_path / "preds.jsonl"
        good = '{"id": %d, "labels": [0], "scores": [0.5, 0.25]}\n'
        path.write_bytes("".join(good % i for i in range(500)).encode() + b'{"id": \xff}\n')
        text_opens = []

        def counting_open(file, mode="r", *args, **kwargs):
            if "b" not in mode:
                text_opens.append(file)
            return open(file, mode, *args, **kwargs)

        monkeypatch.setattr(formats, "open", counting_open, raising=False)
        with pytest.raises(ParseError, match="invalid UTF-8 byte 0xff") as err:
            read_predictions(path)
        assert err.value.line == 501
        assert len(text_opens) == 1


class TestOneBinaryPass:
    """Each text-file read scans the file's bytes once, in ``_blocks``,
    whether or not a chunk falls back to the line reader."""

    def count_binary_passes(self, monkeypatch):
        calls = []
        blocks = formats._blocks
        monkeypatch.setattr(formats, "_blocks", lambda path: calls.append(path) or blocks(path))
        return calls

    @pytest.mark.parametrize("kind", sorted(BOX_READERS))
    @pytest.mark.parametrize("edit", [None, (0, "\x1fv"), (6, "1_0")],
                             ids=["clean", "control", "underscore_category"])
    def test_box_csv(self, tmp_path, monkeypatch, kind, edit):
        n_fields, read, reference, rows = BOX_READERS[kind]
        lines = box_csv_lines(2 * formats.CHUNK + 3, n_fields)
        if edit:
            field, value = edit
            fields = lines[formats.CHUNK + 5].rstrip("\n").split(",")
            fields[field] = value
            lines[formats.CHUNK + 5] = ",".join(fields) + "\n"
        path = tmp_path / "boxes.csv"
        path.write_text("".join(lines))
        expected = reference(path)
        calls = self.count_binary_passes(monkeypatch)
        assert rows(read(path)) == expected
        assert len(calls) == 1

    def test_predictions_with_a_bad_record(self, tmp_path, monkeypatch):
        lines = prediction_lines(3 * formats.JSON_BLOCK)
        bad = formats.JSON_BLOCK + 10
        lines[bad] = '{"id": %d, "labels": [0], "scores": [0.5, null, 0.25]}' % bad
        path = tmp_path / "preds.jsonl"
        path.write_text("\n".join(lines) + "\n")
        library, reference = TestJsonlReaderMatchesReference.readers("predictions", None)
        expected = read_with(reference, path)
        calls = self.count_binary_passes(monkeypatch)
        result = read_with(library, path)
        assert result[0] == "error" and result[:3] == expected[:3]
        assert len(calls) == 1


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

    def test_labels_are_paired_once(self, tmp_path, monkeypatch):
        # the reader's row checks and the dataset's targets share one pairing
        calls = []

        def counted(labels):
            calls.append(len(labels))
            return label_pairs(labels)

        monkeypatch.setattr(formats, "label_pairs", counted)
        monkeypatch.setattr(datasets, "label_pairs", counted)
        path = tmp_path / "train.jsonl"
        path.write_text('{"id": 0, "split": "train", "labels": [1, 0], "features": [0.5]}\n'
                        '{"id": 1, "split": "train", "labels": [2], "features": [0.25]}\n')
        loaded = read_feature_dataset(path, "train")
        assert calls == [2]
        assert loaded.targets.tolist() == [[True, True, False], [False, False, True]]


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


def prediction_lines(n, k=3):
    """``n`` valid prediction records of ``k`` scores, one string each."""
    return [json.dumps({"id": i, "labels": [i % k], "scores": [(i * 7 + c) % 10 / 10
                                                               for c in range(k)]})
            for i in range(n)]


def read_as_reference(path):
    """``read_with`` of the library's and the reference's predictions
    reader, as comparable values."""
    library, reference = TestJsonlReaderMatchesReference.readers("predictions", None)
    return read_with(library, path), read_with(reference, path)


class TestJsonlReaderBoundaries:
    """The predictions matrix has one row per line from the first record
    on, counted by ``_byte_pass`` in blocks: 1 MiB is a whole number of
    them, so these files end before, on and past a block's edge."""

    CHUNK = 1 << 20

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_files_around_the_count_chunk(self, tmp_path, end, offset):
        """Files of a chunk -1, +0 and +1 bytes, the last one's line end
        (a "\\r\\n" too) falling before, on and across the chunk's edge."""
        lines = prediction_lines(self.CHUNK // 64)
        text = end.join(lines) + end
        pad = self.CHUNK + offset - len(text.encode())
        assert pad >= 0
        # spaces before the last record's closing brace keep it valid JSON
        text = text[:-len(end) - 1] + " " * pad + text[-len(end) - 1:]
        path = tmp_path / "preds.jsonl"
        path.write_bytes(text.encode())
        assert path.stat().st_size == self.CHUNK + offset
        with open(path, encoding="utf-8") as fh:
            assert formats._byte_pass(str(path))[0] == sum(1 for _ in fh) == len(lines)
        result, expected = read_as_reference(path)
        assert result[0] == "ok" and result == expected

    @pytest.mark.parametrize("edge", [b"\r\n", b"\r", b"\n", b"\r\r\n"],
                             ids=["crlf_split", "cr", "lf", "cr_then_crlf"])
    @pytest.mark.parametrize("size", [1, 3, formats.JSON_BLOCK])
    def test_rejected_chunks_reread_around_the_block_edge(self, tmp_path, edge, size):
        """Every chunk rejected, the line reader gets the (line number,
        line) pairs of a text-mode read, blank lines dropped, with ``edge``
        ending a line at the last byte of the first 256 KiB block."""
        block = 1 << 18
        ends = [b"\n", b"\r\n", b"\r"]
        body = b"".join((b"line %d" % i if i % 7 else b"  ") + ends[i % 3]
                        for i in range(block // 16))
        head = body[:body.rindex(b"\n", 0, block - 64) + 1]
        text = head + b"y" * (block - 1 - len(head)) + edge + body
        path = tmp_path / "lines.txt"
        path.write_bytes(text)
        with open(path, encoding="utf-8", newline=None) as fh:
            expected = [(n, line) for n, line in enumerate(fh, 1) if not line.isspace()]
        pairs = []
        formats._read_chunks(str(path), size, [], lambda chunk: False, pairs.extend)
        assert pairs == expected

    def test_control_line_numbers_are_text_mode_line_indices(self, tmp_path):
        """``\\x1f`` at the first and last byte of a 256 KiB block, and right
        after a ``\\r\\n`` split between two blocks."""
        block = 1 << 18
        ends = [b"\n", b"\r\n", b"\r"]
        text = bytearray(b"".join(b"line %d" % i + ends[i % 3] for i in range(block // 4)))
        for at in (0, block - 1, block):
            text[at] = 0x1F
        text[2 * block - 1:2 * block + 2] = b"\r\n\x1f"
        path = tmp_path / "lines.txt"
        path.write_bytes(bytes(text))
        assert [len(b) for b in formats._blocks(str(path))][:2] == [block, block + 1]
        with open(path, encoding="utf-8", newline=None) as fh:
            expected = [i for i, line in enumerate(fh) for c in line if c == "\x1f"]
        assert len(expected) == 4
        assert formats._byte_pass(str(path))[1] == expected

    @pytest.mark.parametrize("text", [
        "\n \n{0}\n\t\n{1}\n   \n{2}\n\n",
        "{0}\n{1}\n{2}",
        "{0}\r\n\r\n{1}\r\n{2}\r\n",
        "\r\n{0}\r{1}\n \r{2}",
    ], ids=["blank_and_whitespace_lines", "no_final_newline", "crlf", "mixed_ends"])
    def test_line_layouts_read_as_reference(self, tmp_path, text):
        path = tmp_path / "preds.jsonl"
        path.write_bytes(text.format(*prediction_lines(3)).encode())
        result, expected = read_as_reference(path)
        assert result[0] == "ok" and result == expected

    def test_later_score_out_of_range_precedes_a_json_error(self, tmp_path):
        """A score out of range on a row deep in the file is reported
        before the JSON error of a later line, which stopped the read."""
        lines = prediction_lines(400)
        lines[300] = json.dumps({"id": 300, "labels": [0], "scores": [0.5, 1.5, 0.25]})
        lines[350] = lines[350][:-1]
        path = tmp_path / "preds.jsonl"
        path.write_text("\n".join(lines) + "\n")
        result, expected = read_as_reference(path)
        assert result[:3] == expected[:3]
        assert result[1] == 301 and "scores must lie in [0, 1]" in result[2]


RECORD = '{"id": 1, "labels": [0], "scores": [0.5, 0.25, 1.0]}'


class TestLineDecoding:
    """The C scanner decodes a line that is one JSON value up to its end;
    ``json.loads`` decodes every other line and raises every decode error.
    Each case is the second line of a file, after a valid record."""

    @pytest.mark.parametrize("line, end", [
        (" \t" + RECORD, "\n"),
        (RECORD + " \t ", "\n"),
        (RECORD, ""),
        (RECORD, "\r\n"),
        ('{"id": 1, "labels": [0], "scores": [0.5, 0.25, 1.0], "note": [NaN, Infinity]}', "\n"),
        ('{"id": 1, "labels": [0], "scores": [0.5, 0.25, 1.0], "id": 2, "labels": [1]}', "\n"),
        ('{"\\u0069d": 1, "labels": [0], "scores": [0.5, 0.25, 1.0], "\\u00e9": "\\ud83d\\ude00"}',
         "\n"),
    ], ids=["leading_whitespace", "trailing_blanks", "no_final_newline", "crlf",
            "nan_and_infinity", "duplicate_keys", "u_escapes"])
    def test_line_reads_as_json_loads(self, tmp_path, line, end):
        path = tmp_path / "preds.jsonl"
        path.write_bytes((prediction_lines(1)[0] + (end or "\n") + line + end).encode())
        result, expected = read_as_reference(path)
        assert result == expected and result[0] == "ok"

    @pytest.mark.parametrize("line", [
        "\ufeff" + RECORD,
        RECORD + ' {"id": 2}',
        RECORD[:-3],
    ], ids=["bom", "trailing_data", "truncated_object"])
    def test_bad_line_raises_the_json_loads_error(self, tmp_path, line):
        path = tmp_path / "preds.jsonl"
        path.write_bytes((prediction_lines(1)[0] + "\n" + line + "\n").encode())
        with pytest.raises(json.JSONDecodeError) as loads_error:
            json.loads(line + "\n")
        library, _ = TestJsonlReaderMatchesReference.readers("predictions", None)
        assert read_with(library, path)[:3] == (
            "error", 2, f"{path}:2: bad record: {loads_error.value}")

    @pytest.mark.parametrize("line", [f"[{RECORD}]", "7", '"id"', "null", " [1, 2]"],
                             ids=["top_level_array", "number", "string", "null", "spaced_array"])
    def test_line_that_is_not_an_object_reads_as_reference(self, tmp_path, line):
        path = tmp_path / "preds.jsonl"
        path.write_bytes((prediction_lines(1)[0] + "\n" + line + "\n").encode())
        result, expected = read_as_reference(path)
        assert result[:3] == expected[:3] == (
            "error", 2, f"{path}:2: bad record: not a JSON object")


#: ROADMAP item 5's hazard: joined, these two lines decode to two records
#: (ids 1 and 2), one per line, and each starts with "{" and ends with "}";
#: read one at a time, the first holds extra data
HAZARD_LINES = ['{"id": 1, "labels": [0], "scores": [0.5]}, '
                '{"id": 2, "labels": [0], "scores": [0.5], "x": [{}',
                '{"id": 3, "labels": [0], "scores": [0.5]}]}']
#: JSON values that are not an int64: ints beyond it, a bool, a float
ODD_INTS = [2**63, -(2**63) - 1, 2**64, 10**400, True, False, 1.5]
#: values of a row under ``scores``: numbers, then values that are not one
#: or that numpy would take as one (a bool, an int beyond float, a string,
#: a nested list, null)
ROW_VALUES = st.one_of(
    st.floats(), st.integers(-3, 3), st.sampled_from([-(2**63), 2**63 - 1, 2**63, 2**64]),
    st.sampled_from([True, False, 10**400, "0.5", [0.5], [], None]),
)


def rarely(draw, odd, usual):
    """A value of ``odd`` one time in ten, else of ``usual``."""
    return draw(odd if draw(st.integers(0, 9)) == 0 else usual)


@st.composite
def json_line(draw, key, extra):
    """One line of a JSON-lines file as bytes: mostly a record under
    ``key`` (with ``extra``, the split, when given), valid or not, else a
    blank line, a hazard line, or a line that is not JSON."""
    kind = draw(st.sampled_from(["record"] * 6 + ["blank", "hazard", "not_json"]))
    if kind == "blank":
        return draw(st.sampled_from([b"", b" ", b"\t "]))
    if kind == "hazard":
        return draw(st.sampled_from(HAZARD_LINES)).encode()
    width = draw(st.sampled_from([2, 2, 2, 1, 3]))
    row = st.one_of(st.lists(st.floats(0.0, 1.0), min_size=width, max_size=width),
                    st.lists(ROW_VALUES, min_size=width, max_size=width))
    record = {
        "id": rarely(draw, st.sampled_from(ODD_INTS), st.integers(0, 12)),
        "labels": draw(st.lists(st.integers(0, 3), max_size=3)),
        # rarely a row that is not a list of values: a number, nested lists, a string
        key: rarely(draw, st.sampled_from([0.5, [[0.5]] * width, "0.5"]), row),
        "note": "~",  # where an invalid byte may go into a string
    }
    if draw(st.integers(0, 9)) == 0:
        record["labels"].append(draw(st.sampled_from(ODD_INTS)))
    if extra:
        record[extra] = draw(st.sampled_from(["train", "train", "val", 5]))
    if draw(st.integers(0, 9)) == 0:
        del record[draw(st.sampled_from(sorted(record)))]
    text = json.dumps(rarely(draw, st.just([record]), st.just(record)))
    if kind == "not_json":
        text = text[:draw(st.integers(0, len(text) - 1))]
    text = rarely(draw, st.sampled_from([" ", "\t"]), st.just("")) + text + rarely(
        draw, st.sampled_from([" ", " \t"]), st.just(""))
    line = text.encode()
    if draw(st.integers(0, 9)) == 0:
        at = draw(st.one_of(st.integers(0, len(line)), st.just(line.find(b"~"))))
        line = line[:at] + draw(st.sampled_from([b"\xff", b"\xc3"])) + line[at:]
    return line


def read_records(path, kind, line_by_line):
    """``_read_records`` of a predictions or feature file as comparable
    values: the matrix by its bits, and the error by line and message. With
    ``line_by_line`` every block goes to the per-line reader."""
    key, extra, order = ("scores", None, "F") if kind == "predictions" else (
        "features", "split", "C")
    with pytest.MonkeyPatch.context() as patch:
        if line_by_line:
            patch.setattr(formats._Records, "add_block", lambda *args: False)
        ids, labels, matrix, extras, error = formats._read_records(
            str(path), key, "width differs", extra, order)
    return (ids.tolist(), labels, extras, matrix.dtype, matrix.shape, matrix.tobytes(order="A"),
            matrix.flags.f_contiguous, error and (error.line, str(error)))


class TestJsonBlocks:
    """``_Records.add_block`` reads a block of JSON lines only when the
    per-line reader would read every line of it to the same records; a
    block it rejects, and only that block, goes to the per-line reader."""

    def spy_on_records(self, monkeypatch):
        """The lines ``_record``, the per-line decoder, is called on."""
        calls = []
        record = formats._record
        monkeypatch.setattr(formats, "_record", lambda *args: calls.append(args[0]) or record(*args))
        return calls

    def test_clean_blocks_need_no_line_reader(self, tmp_path, monkeypatch):
        path = tmp_path / "preds.jsonl"
        path.write_text("\n".join(prediction_lines(3 * formats.JSON_BLOCK + 5)) + "\n\n")
        calls = self.spy_on_records(monkeypatch)
        result, expected = read_as_reference(path)
        assert result[0] == "ok" and result == expected
        assert calls == []

    def test_a_bad_record_sends_only_its_block_to_the_line_reader(self, tmp_path, monkeypatch):
        lines = [line + "\n" for line in prediction_lines(3 * formats.JSON_BLOCK)]
        bad = formats.JSON_BLOCK + 10
        lines[bad] = '{"id": %d, "labels": [0], "scores": [0.5, null, 0.25]}\n' % bad
        path = tmp_path / "preds.jsonl"
        path.write_text("".join(lines))
        calls = self.spy_on_records(monkeypatch)
        result, expected = read_as_reference(path)
        assert result[:3] == expected[:3] == (
            "error", bad + 1, f"{path}:{bad + 1}: bad record: score None is not a number")
        assert calls == lines[formats.JSON_BLOCK:bad + 1]

    @pytest.mark.parametrize("kind", sorted(KEYS))
    @settings(max_examples=300, deadline=None)
    @given(block=st.integers(1, 3), data=st.data())
    def test_block_path_reads_as_the_line_reader(self, tmp_path_factory, kind, block, data):
        key, extra = ("scores", None) if kind == "predictions" else ("features", "split")
        lines = data.draw(st.lists(json_line(key, extra), max_size=10))
        ends = data.draw(st.lists(st.sampled_from([b"\n", b"\n", b"\r\n", b"\r"]),
                                  min_size=len(lines), max_size=len(lines)))
        if lines and data.draw(st.booleans()):
            ends[-1] = b""  # no final line end
        path = tmp_path_factory.mktemp("jsonl") / "records.jsonl"
        path.write_bytes(b"".join(line + end for line, end in zip(lines, ends)))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(formats, "JSON_BLOCK", block)
            assert read_records(path, kind, False) == read_records(path, kind, True)

    @pytest.mark.parametrize("lines, error", [
        ([b'{"id": 0, "labels": [0], "scores": [0.5]}', *map(str.encode, HAZARD_LINES)],
         (2, "bad record: Extra data: line 1 column 42 (char 41)")),
        ([b'{"id": 1, "labels": [0], "scores": [0.5, 0.25], "note": [NaN, Infinity]}',
          b'{"id": 2, "labels": [0], "scores": [0.5, null]}', b'{"id": 3, "labels": [0], "sc\xff'],
         (2, "bad record: score None is not a number")),
        ([b'{"id": 0, "labels": [0], "scores": [0.5, 0.25]}',
          b'{"id": 1, "labels": [0], "scores": [true, 0.25]}'],
         (2, "bad record: score True is not a number")),
        ([b'{"id": 0, "labels": [0], "scores": [0.5]}', b'{"id": 1, "labels": [0], "scores": [1]}',
          b'{"id": 2, "labels": [0], "scores": [0.5]}', b'{"id": 0, "labels": [0], "scores": [0]}'],
         (4, "duplicate id 0")),
        ([b'{"id": 0, "labels": [0], "scores": [0.5]}', b'{"id": 1, "labels": [0], "scores": [1]}',
          b'{"id": 2, "labels": [0], "scores": [0.5]}', b'{"id": 3, "labels": [0], "scores": [1, 0]}'],
         (4, "width differs")),
        ([b'{"id": 0, "labels": [0], "scores": [0.5], "note": "\xff"}'],
         (1, "invalid UTF-8 byte 0xff")),
        ([b'{"id": %d, "labels": [0], "scores": [[0.5], [0.25]]}' % i for i in range(3)],
         (1, "bad record: score [0.5] is not a number")),
        ([b'{"id": %d, "labels": [0], "scores": 0.5}' % i for i in range(3)],
         (1, "bad record: 'float' object is not iterable")),
        ([b'{"id": 0, "labels": [0], "scores": [0.5]}', b'{"id": 1.5, "labels": [0], "scores": [0.5]}'],
         (2, "bad record: id 1.5 is not an integer")),
        ([b'{"id": 0, "labels": [0], "scores": [0.5]}', b'{"id": 1, "labels": [true], "scores": [0.5]}'],
         (2, "bad record: label True is not an integer")),
        ([b'{"id": 0, "labels": [0], "scores": [0.5]}',
          b'{"id": 1, "labels": [9223372036854775808], "scores": [0.5]}'],
         (2, "bad record: label 9223372036854775808 outside int64")),
    ], ids=["hazard_lines", "invalid_utf8_after_a_bad_record", "bool_score",
            "duplicate_id_across_blocks", "width_across_blocks", "invalid_utf8_in_a_string",
            "nested_rows", "number_rows", "float_id", "bool_label", "label_beyond_int64"])
    def test_block_path_names_the_line_reader_error(self, tmp_path, monkeypatch, lines, error):
        """Blocks of three lines: each error comes from the first bad line,
        as the per-line reader raises it."""
        monkeypatch.setattr(formats, "JSON_BLOCK", 3)
        path = tmp_path / "preds.jsonl"
        path.write_bytes(b"\n".join(lines) + b"\n")
        result = read_records(path, "predictions", False)
        assert result == read_records(path, "predictions", True)
        assert result[-1] == (error[0], f"{path}:{error[0]}: {error[1]}")


class TestPredictionsMemory:
    def write(self, tmp_path, n, k, tail=""):
        rng = np.random.default_rng(0)
        path = tmp_path / "preds.jsonl"
        path.write_text(serialize_predictions(list(range(n)), rng.random((n, k)) < 0.1,
                                              rng.random((n, k))) + tail)
        return path

    def test_peak_stays_near_the_matrix(self, tmp_path):
        """The read holds no Python float per score: its traced peak stays
        within 2.5 times the score matrix."""
        path = self.write(tmp_path, 8000, 50)
        tracemalloc.start()
        try:
            _, _, scores = read_predictions(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * scores.nbytes

    @pytest.mark.parametrize("tail", ["", "\n \n"], ids=["every_line_a_record", "blank_lines"])
    def test_pools_are_views_of_the_read_matrices(self, tmp_path, tail):
        ids, targets, scores = read_predictions(self.write(tmp_path, 50, 4, tail))
        assert scores.flags.f_contiguous and targets.flags.f_contiguous
        for c, pool in pools_from_scores(scores, targets, ids).items():
            assert np.shares_memory(pool.scores, scores)
            assert np.shares_memory(pool.is_positive, targets)
            assert np.array_equal(pool.scores, scores[:, c])


class TestDetectionsMemory:
    """The detection path holds about one copy of its data: the reader
    one chunk of structured rows beside its columns, the frame index no
    reordered copy of the corners and its IoU table built in blocks."""

    N = 8 * formats.CHUNK

    def write(self, tmp_path):
        det, gt = tmp_path / "det.csv", tmp_path / "gt.csv"
        det.write_text("".join(box_csv_lines(self.N)))
        # three boxes in each of the detections' frames
        gt.write_text("".join(f"vid{v},{t},0.{s}00000,0.100000,0.{s}50000,0.600000,{s}\n"
                              for v in range(40) for t in range(50) for s in (1, 4, 7)))
        return det, gt

    def test_read_peak_stays_near_the_columns(self, tmp_path):
        """Within 1.6 times the columns returned."""
        det, _ = self.write(tmp_path)
        tracemalloc.start()
        try:
            columns = read_detections_csv(det)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(columns) == self.N
        size = sum(a.nbytes for a in (columns.frame, columns.boxes, columns.category,
                                      columns.score))
        assert peak < 1.6 * size

    def test_line_reader_peak_stays_near_the_columns(self, tmp_path):
        """A valid file with one row the C parser rejects (a ``1_0``
        category) has that row's chunk read line by line into the same
        columns: within 2.5 times the columns returned."""
        lines = box_csv_lines(self.N)
        fields = lines[self.N // 2].split(",")
        fields[6] = "1_0"
        lines[self.N // 2] = ",".join(fields)
        det = tmp_path / "det.csv"
        det.write_text("".join(lines))
        tracemalloc.start()
        try:
            columns = read_detections_csv(det)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(columns) == self.N and columns.category[self.N // 2] == 10
        size = sum(a.nbytes for a in (columns.frame, columns.boxes, columns.category,
                                      columns.score))
        assert peak < 2.5 * size

    def test_line_reader_peak_over_a_whole_file(self, tmp_path):
        """A ``1_0`` category in every chunk sends every line through the
        line reader, one chunk of rows at a time: within 2.5 times the
        columns returned."""
        lines = box_csv_lines(self.N)
        for i in range(formats.CHUNK // 2, self.N, formats.CHUNK):
            fields = lines[i].split(",")
            fields[6] = "1_0"
            lines[i] = ",".join(fields)
        det = tmp_path / "det.csv"
        det.write_text("".join(lines))
        tracemalloc.start()
        try:
            columns = read_detections_csv(det)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(columns) == self.N and columns.category[formats.CHUNK // 2] == 10
        size = sum(a.nbytes for a in (columns.frame, columns.boxes, columns.category,
                                      columns.score))
        assert peak < 2.5 * size

    def test_index_peak_stays_near_its_arrays(self, tmp_path):
        """Reading the detections and indexing them, as the CLI does, peaks
        within twice the arrays the index keeps."""
        det, gt = self.write(tmp_path)
        ground_truth = read_ground_truth_csv(gt)
        tracemalloc.start()
        try:
            index = FrameIndex(ground_truth, read_detections_csv(det))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert index.iou.shape == (self.N, 3)
        size = sum(v.nbytes for v in vars(index).values() if isinstance(v, np.ndarray))
        assert peak < 2 * size

    def test_index_build_peak_stays_near_the_arrays_it_makes(self, tmp_path):
        """Indexing columns already read peaks within 1.4 times the arrays
        the index makes (the corners it keeps are the columns' own): 1.36
        with the packed sort key written over the frame numbers, 1.50 with
        the key an array of its own beside them."""
        det, gt = self.write(tmp_path)
        ground_truth, detections = read_ground_truth_csv(gt), read_detections_csv(det)
        tracemalloc.start()
        try:
            index = FrameIndex(ground_truth, detections)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert index.boxes is detections.boxes
        size = sum(v.nbytes for v in vars(index).values()
                   if isinstance(v, np.ndarray) and v is not index.boxes)
        assert peak < 1.4 * size


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


class TestDeeplyNestedJson:
    """JSON nested deeper than json's decoders recurse is a ``ParseError``,
    not the decoders' ``RecursionError``."""

    @pytest.mark.parametrize("read", [read_split, read_category_ap])
    def test_json_file(self, tmp_path, read):
        path = tmp_path / "nested.json"
        path.write_text(NESTED_TOO_DEEP)
        with pytest.raises(ParseError, match=r"RecursionError\("):
            read(path)

    @pytest.mark.parametrize(
        "read,first",
        [(read_predictions, '{"id": 0, "labels": [0], "scores": [0.5]}'),
         (lambda path: read_feature_dataset(path, "train"),
          '{"id": 0, "split": "train", "labels": [0], "features": [0.5]}')],
        ids=["predictions", "features"],
    )
    def test_json_lines_record(self, tmp_path, read, first):
        path = tmp_path / "nested.jsonl"
        path.write_text(f"{first}\n{NESTED_TOO_DEEP}\n")
        with pytest.raises(ParseError, match="bad record: maximum recursion depth") as err:
            read(path)
        assert err.value.line == 2


class TestSplit:
    def test_reads_what_split_writes(self, tmp_path):
        path = tmp_path / "split.json"
        path.write_text('{"head": [2, 0], "tail": [1], "threshold": 1}')
        split = read_split(path)
        assert (split.head, split.tail) == ({0, 2}, {1})
        assert split.threshold == 1.0 and type(split.threshold) is float
        path.write_text('{"head": [0], "tail": []}')
        assert read_split(path).threshold == 0.0

    @pytest.mark.parametrize(
        "text,message",
        [
            ('{"head": [0], "tail": [1], "threshold": true}', "threshold True is not a number"),
            ('{"head": [0], "tail": [1], "threshold": "0.25"}',
             "threshold '0.25' is not a number"),
            ('{"head": [0], "tail": [1], "threshold": NaN}', "threshold nan is not finite"),
            ('{"head": [0], "tail": [1], "threshold": -Infinity}',
             "threshold -inf is not finite"),
            ('{"head": [0, 2, 0], "tail": [1]}', "category 0 listed twice"),
            ('{"head": [0, 1], "tail": [2, 1]}', "category 1 listed twice"),
        ],
        ids=["bool_threshold", "string_threshold", "nan_threshold", "infinite_threshold",
             "twice_in_head", "in_head_and_tail"],
    )
    def test_bad_split_is_parse_error(self, tmp_path, text, message):
        path = tmp_path / "split.json"
        path.write_text(text)
        with pytest.raises(ParseError, match=re.escape(message)):
            read_split(path)
