import ast
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import sapeval.cli
import sapeval.pools
from sapeval.cli import ConfigError, _config_dict, build_parser, main
from sapeval.errors import ParseError, SapEvalError
from sapeval.manifest import sha256_file
from sapeval.training import VARIANTS, Ablation

from conftest import (
    MICRO_DET,
    MICRO_GT,
    DetRecord,
    det_columns,
    gt_columns,
    serialize_detections,
    serialize_ground_truth,
    serialize_predictions,
)


@pytest.fixture
def detection_files(tmp_path):
    gt = tmp_path / "gt.csv"
    det = tmp_path / "det.csv"
    gt.write_text(serialize_ground_truth(gt_columns(MICRO_GT)))
    det.write_text(serialize_detections(det_columns(MICRO_DET)))
    return gt, det


def run(*argv):
    return main([str(a) for a in argv])


#: JSON nested deeper than json's decoders recurse: they raise RecursionError
NESTED_TOO_DEEP = "[" * 200_000 + "]" * 200_000


def digests(paths):
    return {p.name: sha256_file(p) for p in paths}


class TestSynth:
    def test_deterministic_outputs(self, tmp_path):
        for name in ("a", "b"):
            assert run(
                "synth", "--out-dir", tmp_path / name, "--categories", 6,
                "--max-count", 60, "--min-count", 2, "--seed", 7,
            ) == 0
        files = ["train.jsonl", "val.jsonl", "test.jsonl", "dataset_manifest.json"]
        assert digests([tmp_path / "a" / f for f in files]) == digests(
            [tmp_path / "b" / f for f in files]
        )

    def test_invalid_fractions_exit_2_naming_flag(self, tmp_path, capsys):
        assert run(
            "synth", "--out-dir", tmp_path, "--fractions", "0.9,0.9,0.9"
        ) == 2
        assert "--fractions" in capsys.readouterr().err

    def test_zero_feature_dim_exit_2(self, tmp_path, capsys):
        out = tmp_path / "data"
        assert run("synth", "--out-dir", out, "--feature-dim", 0) == 2
        assert "feature_dim" in capsys.readouterr().err
        assert not out.exists()

    def test_manifest_digests_match_files(self, tmp_path):
        out = tmp_path / "data"
        assert run(
            "synth", "--out-dir", out, "--categories", 5, "--max-count", 40,
            "--min-count", 2, "--seed", 1,
        ) == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        for name, digest in manifest["outputs"].items():
            assert sha256_file(out / name) == digest


class TestEval:
    def test_perfect_detections_give_map_one(self, tmp_path):
        gt = tmp_path / "gt.csv"
        gt.write_text(serialize_ground_truth(gt_columns(MICRO_GT)))
        perfect = [
            DetRecord(g.frame, g.box, c, 1.0) for g in MICRO_GT for c in g.categories
        ]
        det = tmp_path / "det.csv"
        det.write_text(serialize_detections(det_columns(perfect)))
        out = tmp_path / "report.json"
        assert run("eval", "--gt", gt, "--det", det, "--out", out, "--min-examples", 1) == 0
        report = json.loads(out.read_text())
        assert report["aggregate"]["map"] == 1.0

    def test_empty_detections_all_zero(self, detection_files, tmp_path):
        gt, det = detection_files
        det.write_text("")
        out = tmp_path / "report.json"
        assert run("eval", "--gt", gt, "--det", det, "--out", out, "--min-examples", 1) == 0
        report = json.loads(out.read_text())
        assert all(c["ap"] == 0.0 for c in report["categories"])

    def test_micro_fixture_values(self, detection_files, tmp_path):
        gt, det = detection_files
        out = tmp_path / "report.json"
        assert run("eval", "--gt", gt, "--det", det, "--out", out, "--min-examples", 1) == 0
        by_cat = {
            c["category"]: c for c in json.loads(out.read_text())["categories"]
        }
        assert by_cat[0]["ap"] == 1.0  # both positives detected, stray below
        assert by_cat[1]["ap"] == pytest.approx(2 / 3)  # gt4 never detected
        assert by_cat[2]["ap"] == 0.0  # the {0,2} box never detected as 2
        assert by_cat[0]["n_pos"] == 2 and by_cat[0]["n_neg"] == 4

    def test_parse_error_exit_3_with_line(self, detection_files, tmp_path, capsys):
        gt, det = detection_files
        det.write_text("v1,1,bad\n")
        assert run("eval", "--gt", gt, "--det", det, "--out", tmp_path / "x.json") == 3
        assert ":1:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "row,message",
        [
            ("v1,9223372036854775808,0.1,0.1,0.3,0.3,0,0.5",
             "timestamp 9223372036854775808 outside int64"),
            ("v1,1,0.1,0.1,0.3,0.3,-9223372036854775809,0.5",
             "category -9223372036854775809 outside int64"),
        ],
        ids=["timestamp", "category"],
    )
    def test_int64_overflow_is_parse_error_with_line(
        self, detection_files, tmp_path, capsys, row, message
    ):
        gt, det = detection_files
        det.write_text(det.read_text().splitlines()[0] + "\n" + row + "\n")
        assert run("eval", "--gt", gt, "--det", det, "--out", tmp_path / "x.json") == 3
        err = capsys.readouterr().err
        assert "det.csv:2:" in err and message in err

    def test_no_eligible_exit_4(self, detection_files, tmp_path):
        gt, det = detection_files
        assert run(
            "eval", "--gt", gt, "--det", det, "--out", tmp_path / "x.json",
            "--min-examples", 100,
        ) == 4

    def test_missing_file_exit_2(self, tmp_path):
        assert run(
            "eval", "--gt", tmp_path / "none.csv", "--det", tmp_path / "none2.csv",
            "--out", tmp_path / "x.json",
        ) == 2

    @pytest.mark.parametrize("command", ["eval", "sap", "stability"])
    @pytest.mark.parametrize("iou", ["1.5", "0", "nan"])
    def test_bad_iou_exit_2_with_one_message(self, detection_files, tmp_path, capsys,
                                             command, iou):
        gt, det = detection_files
        extra = ["--category", 0] if command == "stability" else []
        out = tmp_path / "x.out"
        assert run(command, "--gt", gt, "--det", det, "--out", out, "--iou", iou, *extra) == 2
        assert capsys.readouterr().err == "error: --iou: must lie in (0, 1]\n"
        assert not out.exists()


class TestSap:
    def test_detection_mode_forced_full_sample(self, detection_files, tmp_path):
        gt, det = detection_files
        out = tmp_path / "sap.json"
        assert run(
            "sap", "--gt", gt, "--det", det, "--out", out,
            "--trials", 9, "--seed", 5, "--min-examples", 1, "--store-trials",
        ) == 0
        report = json.loads(out.read_text())
        by_cat = {c["category"]: c for c in report["categories"]}
        # category 1: 3 positives vs only 2 negatives, degenerate full sample
        assert by_cat[1]["degenerate"] is True
        assert by_cat[1]["sap_std"] == 0.0
        assert by_cat[1]["sap_mean"] == by_cat[1]["ap"]
        assert len(by_cat[1]["trial_aps"]) == 9
        # category 2: 1 positive vs 5 negatives, sampling active
        assert by_cat[2]["degenerate"] is False and by_cat[2]["n_pos"] == 1

    def test_deterministic_json(self, detection_files, tmp_path):
        gt, det = detection_files
        outs = []
        for name in ("s1.json", "s2.json"):
            out = tmp_path / name
            assert run(
                "sap", "--gt", gt, "--det", det, "--out", out,
                "--trials", 15, "--seed", 1, "--min-examples", 1,
            ) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_classification_mode(self, tmp_path):
        rng = np.random.default_rng(3)
        scores = rng.random((40, 3))
        targets = np.arange(40)[:, None] % 3 == np.arange(3)
        preds = tmp_path / "preds.jsonl"
        preds.write_text(serialize_predictions(list(range(40)), targets, scores))
        out = tmp_path / "sap.json"
        assert run(
            "sap", "--predictions", preds, "--out", out, "--trials", 10,
            "--min-examples", 1,
        ) == 0
        report = json.loads(out.read_text())
        assert len(report["categories"]) == 3
        assert 0.0 <= report["aggregate"]["msap"] <= 1.0

    def test_requires_exactly_one_mode(self, detection_files, tmp_path, capsys):
        gt, det = detection_files
        assert run("sap", "--gt", gt, "--out", tmp_path / "x.json") == 2
        assert run(
            "sap", "--gt", gt, "--det", det, "--predictions", gt,
            "--out", tmp_path / "x.json",
        ) == 2

    def test_score_out_of_range_is_parse_error(self, tmp_path):
        preds = tmp_path / "preds.jsonl"
        preds.write_text('{"id": 0, "labels": [0], "scores": [1.2]}\n')
        assert run("sap", "--predictions", preds, "--out", tmp_path / "x.json") == 3

    @pytest.mark.parametrize(
        "record",
        [
            '{"id": 1, "labels": [0], "scores": [NaN, 0.5]}',
            '{"id": 1, "labels": [2], "scores": [0.1, 0.5]}',
            '{"id": 1, "labels": [-1], "scores": [0.1, 0.5]}',
        ],
        ids=["nan_score", "label_too_large", "negative_label"],
    )
    @pytest.mark.parametrize("command", ["sap", "stability"])
    def test_bad_prediction_record_is_parse_error(self, tmp_path, capsys, record, command):
        preds = tmp_path / "preds.jsonl"
        preds.write_text('{"id": 0, "labels": [0, 1], "scores": [0.9, 0.2]}\n' + record + "\n")
        extra = ("--category", 0) if command == "stability" else ()
        assert run(command, "--predictions", preds, "--out", tmp_path / "x.out", *extra) == 3
        err = capsys.readouterr().err
        assert "preds.jsonl:2:" in err and "must lie in" in err
        assert not (tmp_path / "x.out").exists()

    @pytest.mark.parametrize(
        "record,message",
        [
            ('{"id": 1, "labels": [1.7], "scores": [0.1, 0.5]}', "not an integer"),
            ('{"id": 1, "labels": [true], "scores": [0.1, 0.5]}', "not an integer"),
            ('{"id": 1.0, "labels": [1], "scores": [0.1, 0.5]}', "not an integer"),
            ('{"id": "1", "labels": [1], "scores": [0.1, 0.5]}', "not an integer"),
            ('{"id": 0, "labels": [1], "scores": [0.1, 0.5]}', "duplicate id 0"),
            ('{"id": 100000000000000000000000, "labels": [1], "scores": [0.1, 0.5]}',
             "id 100000000000000000000000 outside int64"),
            ('{"id": 1, "labels": [1, 1], "scores": [0.1, 0.5]}', "repeated label in [1, 1]"),
            (NESTED_TOO_DEEP, "bad record: maximum recursion depth exceeded"),
        ],
        ids=["float_label", "bool_label", "float_id", "string_id", "duplicate_id", "int64_id",
             "repeated_label", "nested_too_deep"],
    )
    def test_bad_prediction_id_or_label_is_parse_error_with_line(
        self, tmp_path, capsys, record, message
    ):
        preds = tmp_path / "preds.jsonl"
        preds.write_text('{"id": 0, "labels": [0, 1], "scores": [0.9, 0.2]}\n' + record + "\n")
        assert run("sap", "--predictions", preds, "--out", tmp_path / "x.json") == 3
        err = capsys.readouterr().err
        assert "preds.jsonl:2:" in err and message in err
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize(
        "scores,message",
        [
            ('["0.1", 0.5]', "score '0.1' is not a number"),
            ("[0.1, true]", "score True is not a number"),
            ("[null, 0.5]", "score None is not a number"),
            (f"[{'9' * 400}, 0.5]", "int too large to convert to float"),
        ],
        ids=["string_score", "bool_score", "null_score", "huge_integer_score"],
    )
    def test_non_number_score_is_parse_error_with_line(self, tmp_path, capsys, scores, message):
        preds = tmp_path / "preds.jsonl"
        preds.write_text('{"id": 0, "labels": [0, 1], "scores": [0.9, 0.2]}\n'
                         f'{{"id": 1, "labels": [1], "scores": {scores}}}\n')
        assert run("sap", "--predictions", preds, "--out", tmp_path / "x.json") == 3
        err = capsys.readouterr().err
        assert "preds.jsonl:2:" in err and message in err
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize(
        "line2,message",
        [
            ('{"id": 1, "labels": [0], "scores": [0.1, 1.5]}', "scores must lie in [0, 1]"),
            ('{"id": 1, "labels": [2], "scores": [0.1, 0.5]}', "labels must lie in [0, 2)"),
        ],
        ids=["score", "label"],
    )
    @pytest.mark.parametrize(
        "line3",
        [
            '{"id": 1, "labels": [1], "scores": [0.1, 0.5]}',
            '{"id": 2, "labels": [1], "scores": [0.1]}',
            '{"id": 2, "labels": [1.5], "scores": [0.1, 0.5]}',
        ],
        ids=["duplicate_id", "short_scores", "bad_record"],
    )
    def test_first_bad_line_is_reported(self, tmp_path, capsys, line2, message, line3):
        preds = tmp_path / "preds.jsonl"
        preds.write_text('{"id": 0, "labels": [0, 1], "scores": [0.9, 0.2]}\n'
                         f"{line2}\n{line3}\n")
        assert run("sap", "--predictions", preds, "--out", tmp_path / "x.json") == 3
        err = capsys.readouterr().err
        assert "preds.jsonl:2:" in err and message in err

    def test_integer_scores_read_as_floats(self, tmp_path):
        reports = []
        for name, scores in (("ints", "[1, 0]"), ("floats", "[1.0, 0.0]")):
            preds = tmp_path / f"{name}.jsonl"
            preds.write_text('{"id": 0, "labels": [0, 1], "scores": [0.9, 0.2]}\n'
                             f'{{"id": 1, "labels": [1], "scores": {scores}}}\n'
                             '{"id": 2, "labels": [], "scores": [0.3, 0.4]}\n')
            out = tmp_path / f"{name}.json"
            assert run("sap", "--predictions", preds, "--out", out, "--min-examples", 1) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]

    def test_rare_random_category_ap_collapses_but_sap_does_not(self, tmp_path):
        # 32 positives out of ~94k with uniformly random scores: plain AP
        # lands at the positive ratio while the balanced metric stays near
        # one half (single pool draw, so the band is generous)
        rng = np.random.default_rng(2)
        n_total, n_pos = 93994, 32
        scores = rng.random((n_total, 1))
        targets = (np.arange(n_total) < n_pos)[:, None]
        preds = tmp_path / "preds.jsonl"
        preds.write_text(serialize_predictions(list(range(n_total)), targets, scores))
        out = tmp_path / "sap.json"
        assert run(
            "sap", "--predictions", preds, "--out", out,
            "--trials", 15, "--seed", 0, "--min-examples", 1,
        ) == 0
        record = json.loads(out.read_text())["categories"][0]
        assert record["ap"] == pytest.approx(0.00034, abs=0.001)
        assert 0.4 <= record["sap_mean"] <= 0.65

    def test_min_examples_zero_skips_a_category_without_positives(self, tmp_path):
        # category 1 has no positive: listed with null metrics, never averaged
        rng = np.random.default_rng(6)
        targets = np.zeros((30, 3), dtype=bool)
        targets[:, 0] = np.arange(30) % 2 == 0
        targets[:, 2] = np.arange(30) % 7 == 0
        preds = tmp_path / "preds.jsonl"
        preds.write_text(serialize_predictions(list(range(30)), targets, rng.random((30, 3))))
        out = tmp_path / "sap.json"
        assert run(
            "sap", "--predictions", preds, "--out", out, "--trials", 5, "--min-examples", 0,
        ) == 0
        report = json.loads(out.read_text())
        empty = report["categories"][1]
        assert empty == {"category": 1, "n_pos": 0, "ap": None, "sap_mean": None,
                         "sap_std": None, "degenerate": None}
        scored = [c["sap_mean"] for c in report["categories"] if c["n_pos"]]
        assert len(scored) == 2
        assert report["aggregate"]["msap"] == float(np.mean(scored))


class TestStability:
    def test_csv_shape(self, detection_files, tmp_path):
        gt, det = detection_files
        out = tmp_path / "stab.csv"
        assert run(
            "stability", "--gt", gt, "--det", det, "--category", 0,
            "--trials", "5,10,15,20,40", "--repeats", 5, "--out", out,
        ) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "N,mean,std"
        assert len(lines) == 6  # header + one row per trial count

    def test_unknown_category_exit_2(self, detection_files, tmp_path):
        gt, det = detection_files
        assert run(
            "stability", "--gt", gt, "--det", det, "--category", 42,
            "--out", tmp_path / "x.csv",
        ) == 2

    @pytest.mark.parametrize("trials", ["5,,10", "5,5", "0", "x"])
    def test_bad_trial_list_exit_2(self, detection_files, tmp_path, capsys, trials):
        gt, det = detection_files
        out = tmp_path / "x.csv"
        assert run(
            "stability", "--gt", gt, "--det", det, "--category", 0,
            "--trials", trials, "--out", out,
        ) == 2
        assert "--trials" in capsys.readouterr().err
        assert not out.exists()


class TestInvalidUtf8:
    """A byte that is not UTF-8 is a parse error (exit 3) naming its line."""

    @pytest.mark.parametrize("which", ["gt", "det"])
    def test_detection_csv(self, detection_files, tmp_path, capsys, which):
        files = dict(zip(("gt", "det"), detection_files))
        path = files[which]
        path.write_bytes(path.read_bytes() + b"v\xff,1,0.1,0.1,0.3,0.3,0,0.5\n")
        lines = len(path.read_bytes().splitlines())
        assert run("eval", "--gt", files["gt"], "--det", files["det"],
                   "--out", tmp_path / "x.json") == 3
        assert f"{which}.csv:{lines}: invalid UTF-8 byte 0xff" in capsys.readouterr().err

    def test_predictions(self, tmp_path, capsys):
        preds = tmp_path / "preds.jsonl"
        preds.write_bytes(b'{"id": 0, "labels": [0], "scores": [0.5]}\n'
                          b'{"id": 1, "labels": [0], "scores": [0.5]} \xfe\n')
        assert run("sap", "--predictions", preds, "--out", tmp_path / "x.json") == 3
        assert "preds.jsonl:2: invalid UTF-8 byte 0xfe" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()


class TestSplit:
    def test_known_gaps(self, tmp_path):
        (tmp_path / "train.json").write_text('{"0": 0.9, "1": 0.2, "2": 0.6}')
        (tmp_path / "val.json").write_text('{"0": 0.5, "1": 0.3, "2": 0.6}')
        out = tmp_path / "split.json"
        assert run(
            "split", "--train-ap", tmp_path / "train.json",
            "--val-ap", tmp_path / "val.json", "--out", out,
        ) == 0
        payload = json.loads(out.read_text())
        assert payload["head"] == [0]
        assert payload["tail"] == [1, 2]

    def test_mismatched_categories_exit_2(self, tmp_path):
        (tmp_path / "train.json").write_text('{"0": 0.9}')
        (tmp_path / "val.json").write_text('{"1": 0.5}')
        assert run(
            "split", "--train-ap", tmp_path / "train.json",
            "--val-ap", tmp_path / "val.json", "--out", tmp_path / "split.json",
        ) == 2


    @pytest.mark.parametrize("threshold", ["nan", "inf"])
    def test_non_finite_threshold_exit_2(self, tmp_path, capsys, threshold):
        (tmp_path / "train.json").write_text('{"0": 0.9, "1": 0.2}')
        (tmp_path / "val.json").write_text('{"0": 0.5, "1": 0.3}')
        out = tmp_path / "split.json"
        assert run(
            "split", "--train-ap", tmp_path / "train.json", "--val-ap", tmp_path / "val.json",
            "--threshold", threshold, "--out", out,
        ) == 2
        assert "--threshold: must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text,message",
        [
            ('{"categories": [{"category": 1.7, "ap": 0.5}]}', "category 1.7 is not an integer"),
            ('{"categories": [{"ap": 0.5}]}', "KeyError('category')"),
            ('{"categories": [{"category": 1}]}', "KeyError('ap')"),
            ('{"1.5": 0.5}', "invalid literal"),
            ('{"0": 0.5,\n "1": }', "ap.json:2:"),
            ('{"0": true, "1": 0.25}', "AP True is not a number"),
            ('{"0": 0.5, "1": "0.25"}', "AP '0.25' is not a number"),
            ('{"categories": [{"category": 0, "ap": 0.5}, {"category": 1, "ap": "0.25"}]}',
             "AP '0.25' is not a number"),
            ('{"categories": [{"category": 0, "ap": 0.5}, {"category": 0, "ap": null}]}',
             "category 0 listed twice"),
            ('{"0": 0.5, "00": 0.7}', "category 0 listed twice"),
            ('{"0": NaN, "1": 0.5}', "AP nan is not finite"),
            ('{"0": 0.5, "1": Infinity}', "AP inf is not finite"),
            ('{"categories": [{"category": 0, "ap": -Infinity}, {"category": 1, "ap": 0.5}]}',
             "AP -inf is not finite"),
            (NESTED_TOO_DEEP, "bad AP file: RecursionError("),
        ],
        ids=["float_category", "no_category", "no_ap", "float_key", "malformed_json",
             "bool_ap", "string_ap", "string_ap_in_report", "duplicate_category",
             "duplicate_key", "nan_ap", "infinite_ap", "negative_infinite_ap_in_report",
             "nested_too_deep"],
    )
    def test_bad_ap_file_is_parse_error(self, tmp_path, capsys, text, message):
        (tmp_path / "train.json").write_text('{"0": 0.9, "1": 0.2}')
        (tmp_path / "ap.json").write_text(text)
        assert run(
            "split", "--train-ap", tmp_path / "train.json",
            "--val-ap", tmp_path / "ap.json", "--out", tmp_path / "split.json",
        ) == 3
        assert message in capsys.readouterr().err
        assert not (tmp_path / "split.json").exists()


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "synth"
    assert main([
        "synth", "--out-dir", str(out), "--categories", "6", "--max-count", "80",
        "--min-count", "4", "--feature-dim", "8", "--sigma", "0.5", "--seed", "3",
    ]) == 0
    return out


class TestTrain:
    def _train(self, synth_dir, out_dir, *extra):
        return main([
            "train", "--data-dir", str(synth_dir), "--out-dir", str(out_dir),
            "--seed", "2", "--hidden-dim", "12", "--embedding-dim", "6",
            "--stage1-lr-start", "0.5", "--stage1-lr-end", "0.05",
            "--stage1-epochs", "3", "--stage2-lr-start", "0.5",
            "--stage2-lr-end", "0.05", "--stage2-epochs", "2",
            "--trials", "5", *[str(a) for a in extra],
        ])

    def test_variant_requires_split(self, synth_dir, tmp_path):
        assert self._train(synth_dir, tmp_path / "x", "--variant", "two_stage") == 2

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_only_two_stage_variants_need_a_split(self, synth_dir, tmp_path, capsys, variant):
        out = tmp_path / "run"
        rc = self._train(synth_dir, out, "--variant", variant, "--stage1-epochs", "1")
        if VARIANTS[variant].second_stage:
            assert rc == 2
            assert "--auto-split" in capsys.readouterr().err
            assert not out.exists()
        else:
            assert rc == 0
            assert (out / "checkpoint.json").exists()

    @pytest.mark.parametrize(
        "name,line_no,edit",
        [
            ("train.jsonl", 2, lambda r: r.update(labels=[-1])),
            ("val.jsonl", 3, lambda r: r.update(labels=[9])),
            ("train.jsonl", 4, lambda r: r.update(features=r["features"][:-1])),
            ("train.jsonl", 2, lambda r: r.update(labels=[r["labels"][0] + 0.7])),
            ("val.jsonl", 3, lambda r: r.update(id=float(r["id"]))),
            ("train.jsonl", 2, lambda r: r.update(labels=[r["labels"][0]] * 2)),
            ("train.jsonl", 3, lambda r: r["features"].__setitem__(0, float("nan"))),
            ("val.jsonl", 3, lambda r: r["features"].__setitem__(1, float("nan"))),
            ("val.jsonl", 2, lambda r: r["features"].__setitem__(2, float("-inf"))),
            ("train.jsonl", 1, lambda r: r.update(features=[r["features"]])),
            ("val.jsonl", 2, lambda r: r["features"].__setitem__(0, "0.5")),
        ],
        ids=[
            "negative_label", "label_beyond_categories", "short_features",
            "non_integer_label", "non_integer_id", "repeated_label", "nan_train_feature",
            "nan_val_feature", "infinite_val_feature", "nested_features", "string_feature",
        ],
    )
    def test_bad_feature_record_is_parse_error_with_line(
        self, synth_dir, tmp_path, capsys, name, line_no, edit
    ):
        data = tmp_path / "data"
        data.mkdir()
        for part in ("train.jsonl", "val.jsonl"):
            lines = (synth_dir / part).read_text().splitlines()
            if part == name:
                record = json.loads(lines[line_no - 1])
                edit(record)
                lines[line_no - 1] = json.dumps(record)
            (data / part).write_text("\n".join(lines) + "\n")
        rc = self._train(data, tmp_path / "run", "--variant", "baseline_plain")
        assert rc == 3
        assert f"{name}:{line_no}:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field,message",
        [("id", "duplicate id"), ("split", "split 'val', expected 'train'")],
    )
    def test_record_disagreeing_with_earlier_ones_is_parse_error(
        self, synth_dir, tmp_path, capsys, field, message
    ):
        # line 3 repeats line 1's id, or names another split than the file's
        data = tmp_path / "data"
        data.mkdir()
        records = [json.loads(line) for line in (synth_dir / "train.jsonl").read_text().splitlines()]
        records[2][field] = records[0]["id"] if field == "id" else "val"
        (data / "train.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records))
        (data / "val.jsonl").write_text((synth_dir / "val.jsonl").read_text())
        assert self._train(data, tmp_path / "run", "--variant", "baseline_plain") == 3
        assert f"train.jsonl:3: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "value,message", [("val", "split 'val', expected 'train'"), (5, "split 5, expected")]
    )
    def test_every_record_must_name_the_files_split(
        self, synth_dir, tmp_path, capsys, value, message
    ):
        data = tmp_path / "data"
        data.mkdir()
        records = [json.loads(line) for line in (synth_dir / "train.jsonl").read_text().splitlines()]
        for record in records:
            record["split"] = value
        (data / "train.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records))
        (data / "val.jsonl").write_text((synth_dir / "val.jsonl").read_text())
        out = tmp_path / "run"
        assert self._train(data, out, "--variant", "baseline_plain") == 3
        assert f"train.jsonl:1: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--hidden-dim", "--embedding-dim"])
    def test_zero_model_width_exit_2(self, synth_dir, tmp_path, capsys, flag):
        out = tmp_path / "run"
        assert self._train(synth_dir, out, "--variant", "baseline_plain", flag, 0) == 2
        assert flag[2:].replace("-", "_") in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_split_beyond_the_categories_rejected_for_every_variant(
        self, synth_dir, tmp_path, capsys, variant
    ):
        split_file = tmp_path / "split.json"
        split_file.write_text('{"head": [0, 1, 2, 99], "tail": [3, 4, 5]}')
        out = tmp_path / "run"
        assert self._train(synth_dir, out, "--variant", variant, "--split", split_file) == 2
        assert "does not cover the dataset's categories" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name", ["train.jsonl", "val.jsonl"])
    def test_empty_feature_file_is_parse_error(self, synth_dir, tmp_path, capsys, name):
        data = tmp_path / "data"
        data.mkdir()
        for part in ("train.jsonl", "val.jsonl"):
            (data / part).write_text("" if part == name else (synth_dir / part).read_text())
        assert self._train(data, tmp_path / "run", "--variant", "baseline_plain") == 3
        assert f"{name}:0: no feature records" in capsys.readouterr().err

    def test_repeated_label_is_not_counted_twice(self, tmp_path, capsys):
        # counted twice, category 1 would outnumber category 0 and lead the head
        data = tmp_path / "data"
        data.mkdir()
        records = [(i, [0]) for i in range(3)] + [(3, [1, 1]), (4, [1, 1])]
        (data / "train.jsonl").write_text("".join(
            json.dumps({"id": i, "split": "train", "labels": labels, "features": [0.1 * i]}) + "\n"
            for i, labels in records
        ))
        (data / "val.jsonl").write_text((data / "train.jsonl").read_text())
        assert self._train(data, tmp_path / "run", "--variant", "two_stage", "--auto-split") == 3
        assert "train.jsonl:4: repeated label" in capsys.readouterr().err

    def test_min_examples_zero_aggregates_cover_scored_categories(self, synth_dir, tmp_path):
        # validation without category 5: at --min-examples 0 it is listed
        # with null metrics and left out of every aggregate
        data = tmp_path / "data"
        data.mkdir()
        (data / "train.jsonl").write_text((synth_dir / "train.jsonl").read_text())
        (data / "val.jsonl").write_text("".join(
            line + "\n" for line in (synth_dir / "val.jsonl").read_text().splitlines()
            if 5 not in json.loads(line)["labels"]
        ))
        out = tmp_path / "run"
        assert self._train(
            data, out, "--variant", "two_stage", "--auto-split", "--min-examples", 0
        ) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        groups = {"all": range(6), "head": metrics["head"], "tail": metrics["tail"]}
        for name, evaluation in metrics["evaluation"].items():
            by_category = {c["category"]: c for c in evaluation["categories"]}
            assert (by_category[5]["ap"] is None) == (name == "val")
            for group, members in groups.items():
                scored = [by_category[c] for c in members if by_category[c]["n_pos"]]
                assert all(c["ap"] is not None for c in scored)
                assert evaluation["aggregates"][group] == {
                    "msap": float(np.mean([c["sap_mean"] for c in scored])),
                    "map": float(np.mean([c["ap"] for c in scored])),
                    "categories": len(members),
                    "eligible": len(scored),
                }, (name, group)
        assert 5 in metrics["tail"]

    @pytest.mark.parametrize(
        "text,message",
        [
            ('{"head": [0, 1, 2]}', "KeyError('tail')"),
            ('{"head": [0, 1.9], "tail": [2, 3, 4, 5]}', "category 1.9 is not an integer"),
            ('{"head": [0, "1"], "tail": [2, 3, 4, 5]}', "category '1' is not an integer"),
            ('[0, 1]', "bad split"),
            ('{"head": [0, 1, 2],\n "tail": [3, 4, 5}', "split.json:2:"),
            ('{"head": [0, 1, 2], "tail": [2, 3, 4, 5]}', "category 2 listed twice"),
            (NESTED_TOO_DEEP, "bad split: RecursionError("),
        ],
        ids=["no_tail", "float_category", "string_category", "list", "malformed_json",
             "head_and_tail", "nested_too_deep"],
    )
    def test_bad_split_file_is_parse_error(self, synth_dir, tmp_path, capsys, text, message):
        split_file = tmp_path / "split.json"
        split_file.write_text(text)
        out = tmp_path / "run"
        assert self._train(synth_dir, out, "--split", split_file) == 3
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_zero_trials_rejected_before_training(self, synth_dir, tmp_path, capsys,
                                                  monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("trained before checking --trials")

        monkeypatch.setattr(Ablation, "train", no_training)
        out = tmp_path / "run"
        assert self._train(synth_dir, out, "--variant", "baseline_plain", "--trials", 0) == 2
        assert "--trials: must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    def test_val_narrower_than_train_exit_2_before_training(self, synth_dir, tmp_path, capsys,
                                                             monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("trained before checking the feature widths")

        monkeypatch.setattr(Ablation, "train", no_training)
        data, out = tmp_path / "data", tmp_path / "run"
        shutil.copytree(synth_dir, data)
        records = [json.loads(line) for line in (data / "val.jsonl").read_text().splitlines()]
        (data / "val.jsonl").write_text("".join(
            json.dumps({**r, "features": r["features"][:-1]}) + "\n" for r in records
        ))
        assert self._train(data, out, "--variant", "baseline_plain") == 2
        err = capsys.readouterr().err
        assert f"{data / 'val.jsonl'} has 7 features, {data / 'train.jsonl'} 8" in err
        assert not out.exists()

    def test_train_writes_checkpoint_and_metrics(self, synth_dir, tmp_path):
        out = tmp_path / "run"
        assert self._train(
            synth_dir, out, "--variant", "two_stage", "--auto-split"
        ) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["variant"] == "two_stage"
        assert set(metrics["evaluation"]) == {"train", "val"}
        checkpoint = json.loads((out / "checkpoint.json").read_text())
        assert checkpoint["dims"]["n_categories"] == 6
        assert checkpoint["training"]["config"]["stage2_freeze"] is True
        assert len(checkpoint["training"]["config_hash"]) == 16

    @pytest.mark.parametrize("variant,flags", [
        (["focal"], ["baseline_plain", "--loss", "focal"]),
        (["stage2_unbalanced", "--auto-split"], ["two_stage", "--no-balance", "--auto-split"]),
    ], ids=["focal", "stage2_unbalanced"])
    def test_checkpoint_records_the_config_the_variant_trained_with(self, synth_dir, tmp_path,
                                                                     variant, flags):
        """A variant's overrides reach the recorded config: it matches the
        config of the flags that train the same weights."""
        records = []
        for name, argv in (("variant", variant), ("flags", flags)):
            assert self._train(synth_dir, tmp_path / name, "--variant", *argv) == 0
            records.append(json.loads((tmp_path / name / "checkpoint.json").read_text()))
        by_variant, by_flags = records
        assert by_variant["weights"] == by_flags["weights"]
        for key in ("config", "config_hash"):
            assert by_variant["training"][key] == by_flags["training"][key], key

    def test_baseline_then_split_then_report_pipeline(self, synth_dir, tmp_path):
        base = tmp_path / "base"
        assert self._train(synth_dir, base, "--variant", "baseline_plain") == 0
        metrics = json.loads((base / "metrics.json").read_text())
        train_ap = tmp_path / "train_ap.json"
        val_ap = tmp_path / "val_ap.json"
        train_ap.write_text(json.dumps(metrics["train_ap"]))
        val_ap.write_text(json.dumps(metrics["val_ap"]))
        split_file = tmp_path / "split.json"
        assert run(
            "split", "--train-ap", train_ap, "--val-ap", val_ap, "--out", split_file
        ) == 0
        two = tmp_path / "two"
        rc = self._train(synth_dir, two, "--variant", "two_stage", "--split", split_file)
        split_payload = json.loads(split_file.read_text())
        if split_payload["head"]:
            assert rc == 0
            assert (two / "metrics.json").exists()
        else:
            assert rc == 4  # the gap criterion put every category in the tail
        report_dir = tmp_path / "report"
        assert run(
            "report", "--metrics", base / "metrics.json", "--out-dir", report_dir,
            "--counts", synth_dir / "dataset_manifest.json",
        ) == 0
        summary = (report_dir / "summary.csv").read_text().splitlines()
        assert summary[0] == "group,msap,map,categories,eligible"
        assert (report_dir / "ap_vs_sap.svg").exists()
        assert (report_dir / "counts.svg").exists()


#: JSON inputs that do not parse, each with the line its error names:
#: empty, cut off on its second line, and not UTF-8 (line 0).
UNPARSEABLE_JSON = [(b"", 1), (b'{"categories": [\n', 2), (b'{"a": "\xff"}', 0),
                    (NESTED_TOO_DEEP.encode(), 0)]
UNPARSEABLE_JSON_IDS = ["empty", "truncated", "not_utf8", "nested_too_deep"]


@pytest.mark.parametrize("command", ["eval", "sap", "train"])
def test_negative_min_examples_exit_2_naming_the_flag(detection_files, synth_dir, tmp_path,
                                                      capsys, command):
    gt, det = detection_files
    out = tmp_path / "out"
    argv = (["train", "--data-dir", synth_dir, "--out-dir", out, "--variant", "baseline_plain"]
            if command == "train" else [command, "--gt", gt, "--det", det, "--out", out])
    assert run(*argv, "--min-examples", -3) == 2
    assert capsys.readouterr().err == "error: --min-examples: must be at least 0\n"
    assert not out.exists()


@pytest.mark.parametrize("command,flag,value,field", [
    ("synth", "--sigma", "nan", "cluster_spread"),
    ("synth", "--sigma", "inf", "cluster_spread"),
    ("synth", "--zipf-s", "nan", "exponent"),
    ("synth", "--fractions", "nan,0.5,0.5", "--fractions"),
    ("train", "--gamma", "nan", "focal_gamma"),
    ("train", "--stage1-lr-start", "nan", "lr_start"),
    ("train", "--stage1-lr-end", "inf", "lr_end"),
])
def test_non_finite_float_flag_exit_2_naming_the_field(synth_dir, tmp_path, capsys, command,
                                                       flag, value, field):
    out = tmp_path / "out"
    argv = (["train", "--data-dir", synth_dir, "--out-dir", out, "--variant", "baseline_plain"]
            if command == "train" else ["synth", "--out-dir", out])
    assert run(*argv, flag, value) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and field in err
    assert not out.exists()


class TestRerunDeterminism:
    def test_rerun_from_manifest_reproduces_bytes(self, synth_dir, tmp_path):
        out = tmp_path / "run"
        assert main([
            "train", "--data-dir", str(synth_dir), "--out-dir", str(out),
            "--variant", "naive_balanced", "--seed", "5",
            "--hidden-dim", "10", "--embedding-dim", "5",
            "--stage1-epochs", "2", "--stage1-lr-start", "0.5",
            "--stage1-lr-end", "0.05", "--trials", "4",
        ]) == 0
        before = {
            name: sha256_file(out / name)
            for name in ("checkpoint.json", "metrics.json")
        }
        (out / "checkpoint.json").unlink()
        (out / "metrics.json").unlink()
        assert run("rerun", out / "run_manifest.json") == 0
        after = {
            name: sha256_file(out / name)
            for name in ("checkpoint.json", "metrics.json")
        }
        assert before == after

    def test_rerun_synth(self, tmp_path):
        out = tmp_path / "data"
        assert run(
            "synth", "--out-dir", out, "--categories", 5, "--max-count", 30,
            "--min-count", 2, "--seed", 9,
        ) == 0
        before = sha256_file(out / "train.jsonl")
        (out / "train.jsonl").unlink()
        assert run("rerun", out / "run_manifest.json") == 0
        assert sha256_file(out / "train.jsonl") == before

    def test_rerun_refuses_a_changed_input(self, detection_files, tmp_path, capsys):
        """A rerun whose input no longer has its recorded digest exits 2,
        names that input, and leaves the output and its manifest as they were."""
        gt, det = detection_files
        out = tmp_path / "e.json"
        assert run("eval", "--gt", gt, "--det", det, "--out", out, "--min-examples", 1) == 0
        manifest = Path(str(out) + ".manifest.json")
        before = out.read_bytes(), manifest.read_bytes()
        text = det.read_text()
        det.write_text(text.replace(",0.900000\n", ",0.100000\n", 1))  # one score
        assert det.read_text() != text
        capsys.readouterr()
        assert run("rerun", manifest) == 2
        err = capsys.readouterr().err
        assert f"det ({det})" in err and "gt (" not in err
        assert (out.read_bytes(), manifest.read_bytes()) == before

    def test_rerun_hashes_each_input_once(self, detection_files, tmp_path, monkeypatch):
        """One digest of each input serves both the rerun's check and the
        manifest it writes."""
        gt, det = detection_files
        out = tmp_path / "e.json"
        assert run("eval", "--gt", gt, "--det", det, "--out", out, "--min-examples", 1) == 0
        digests = []
        real = hashlib.sha256
        monkeypatch.setattr(hashlib, "sha256", lambda *a: digests.append(real(*a)) or digests[-1])
        assert run("rerun", Path(str(out) + ".manifest.json")) == 0
        # gt.csv, det.csv and the report
        assert len(digests) == 3

    def test_rerun_rejects_non_object_inputs(self, tmp_path, capsys):
        config = _config_dict(build_parser().parse_args(["sap", "--out", "x.json"]))
        manifest = tmp_path / "run_manifest.json"
        manifest.write_text(json.dumps({"command": "sap", "config": config, "inputs": []}))
        assert run("rerun", manifest) == 2
        assert "manifest inputs is not an object" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["rerun", "mystery", None])
    def test_rerun_rejects_unknown_command(self, tmp_path, capsys, command):
        manifest = tmp_path / "run_manifest.json"
        manifest.write_text(json.dumps({"command": command, "config": {}}))
        assert run("rerun", manifest) == 2
        assert "unknown command" in capsys.readouterr().err

    def test_rerun_rejects_missing_config_keys(self, tmp_path, capsys):
        manifest = tmp_path / "run_manifest.json"
        manifest.write_text(json.dumps({"command": "sap", "config": {}}))
        assert run("rerun", manifest) == 2
        assert (
            "lacks det, gt, iou, min_examples, no_background, out, predictions, seed, "
            "store_trials, trials"
        ) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,key,value",
        [
            (["sap", "--out", "x.json"], "trials", "15"),
            (["sap", "--out", "x.json"], "iou", True),
            (["sap", "--out", "x.json"], "no_background", 0),
            (["sap", "--out", "x.json"], "gt", 3),
            (["train", "--data-dir", "d", "--out-dir", "o"], "variant", "bogus"),
            (["train", "--data-dir", "d", "--out-dir", "o"], "loss", ["bce"]),
        ],
        ids=["int_flag", "float_flag", "store_true_flag", "path_flag", "choice",
             "unhashable_choice"],
    )
    def test_rerun_rejects_mistyped_config_values(self, tmp_path, capsys, argv, key, value):
        config = _config_dict(build_parser().parse_args(argv))
        config[key] = value
        manifest = tmp_path / "run_manifest.json"
        manifest.write_text(json.dumps({"command": argv[0], "config": config}))
        assert run("rerun", manifest) == 2
        assert f"manifest config mistypes {key}" in capsys.readouterr().err

    def test_rerun_rejects_non_object_manifest(self, tmp_path, capsys):
        manifest = tmp_path / "run_manifest.json"
        manifest.write_text(json.dumps([{"command": "eval", "config": {}}]))
        assert run("rerun", manifest) == 2
        assert "manifest is not an object" in capsys.readouterr().err

    def test_rerun_rejects_missing_config(self, tmp_path, capsys):
        manifest = tmp_path / "run_manifest.json"
        manifest.write_text(json.dumps({"command": "eval"}))
        assert run("rerun", manifest) == 2
        assert "lacks det, gt, iou, min_examples, out" in capsys.readouterr().err

    @pytest.mark.parametrize("text,line", UNPARSEABLE_JSON, ids=UNPARSEABLE_JSON_IDS)
    def test_unparseable_manifest_exit_3(self, tmp_path, capsys, text, line):
        manifest = tmp_path / "run_manifest.json"
        manifest.write_bytes(text)
        assert run("rerun", manifest) == 3
        assert capsys.readouterr().err.startswith(f"error: {manifest}:{line}: manifest: ")


class TestReportCompare:
    def test_compare_chart(self, synth_dir, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out, variant in ((a, "baseline_plain"), (b, "naive_balanced")):
            assert main([
                "train", "--data-dir", str(synth_dir), "--out-dir", str(out),
                "--variant", variant, "--seed", "2", "--hidden-dim", "10",
                "--embedding-dim", "5", "--stage1-epochs", "2",
                "--stage1-lr-start", "0.5", "--stage1-lr-end", "0.05",
                "--trials", "4",
            ]) == 0
        report_dir = tmp_path / "cmp"
        assert run(
            "report", "--metrics", b / "metrics.json", "--compare", a / "metrics.json",
            "--out-dir", report_dir,
        ) == 0
        assert (report_dir / "compare.svg").exists()


    def test_aggregate_without_msap_exit_2(self, tmp_path, capsys):
        metrics = tmp_path / "metrics.json"
        metrics.write_text(json.dumps({
            "categories": [{"category": 0, "ap": 0.5, "sap_mean": 0.6}],
            "aggregates": {"all": {"map": 0.5, "categories": 1, "eligible": 1}},
        }))
        assert run("report", "--metrics", metrics, "--out-dir", tmp_path / "out") == 2
        assert "the all aggregate lacks 'msap'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag,payload,message",
        [
            ("--metrics", {"evaluation": {"train": {}}}, "KeyError('val')"),
            ("--metrics", {"categories": [{"ap": 0.5, "sap_mean": 0.6}], "aggregates": {}},
             "KeyError('category')"),
            ("--metrics", {"categories": [{"category": 0, "sap_mean": 0.6}], "aggregates": {}},
             "KeyError('ap')"),
            ("--metrics", {"categories": [], "aggregates": {"all": {"map": 0.5}}},
             "the all aggregate lacks 'msap'"),
            ("--compare", {"evaluation": {"train": {}}}, "KeyError('val')"),
            ("--counts", {"spec": {}}, "KeyError('zipf_counts')"),
            ("--metrics", {"categories": [], "aggregates": []}, "AttributeError"),
            ("--metrics", {"categories": [], "aggregates": {"all": [0.5]}}, "TypeError"),
            ("--counts", {"zipf_counts": 7}, "TypeError"),
            ("--counts", {"zipf_counts": [5, -3, "x"]}, "count 'x' is not a number"),
            ("--counts", {"zipf_counts": [5, -3]}, "count -3.0 outside [0, inf]"),
            ("--counts", {"zipf_counts": [float("nan"), 5]}, "count nan is not finite"),
            ("--counts", {"zipf_counts": [5, 10**400]}, "OverflowError"),
            ("--metrics", {"categories": [{"category": 0, "ap": 0.5, "sap_mean": "x"}],
                           "aggregates": {}}, "sampled AP 'x' is not a number"),
            ("--metrics", {"categories": [{"category": 0, "ap": None, "sap_mean": 0.6}],
                           "aggregates": {}}, "AP None is not a number"),
            ("--compare", {"categories": [{"category": 0, "ap": 1.5, "sap_mean": 0.6}],
                           "aggregates": {}}, "AP 1.5 outside [0, 1.0]"),
            ("--metrics", {"categories": [{"category": 0, "ap": 0.5, "sap_mean": None}],
                           "aggregates": {}}, "no category has a sampled AP (sap_mean)"),
            ("--counts", {"zipf_counts": []}, "zipf_counts is empty"),
            ("--compare", {"categories": [{"category": 1, "ap": 0.5, "sap_mean": 0.6}],
                           "aggregates": {}}, "shares no scored category with --metrics"),
        ],
        ids=["no_val", "no_category", "no_ap", "no_msap", "compare_no_val", "no_zipf_counts",
             "aggregates_list", "aggregate_list", "counts_not_list", "count_string",
             "count_negative", "count_nan", "count_huge", "sap_string", "ap_null",
             "compare_ap_above_one", "no_sampled_ap", "counts_empty", "compare_disjoint"],
    )
    def test_malformed_report_input_exit_2(self, tmp_path, capsys, flag, payload, message):
        good, bad, out = tmp_path / "good.json", tmp_path / "bad.json", tmp_path / "out"
        good.write_text(json.dumps(REPORT_EVALUATION))
        bad.write_text(json.dumps(payload))
        files = {"--metrics": good, flag: bad}
        assert run("report", *(a for item in files.items() for a in item), "--out-dir", out) == 2
        err = capsys.readouterr().err
        assert f"{flag}: {bad}: " in err and message in err
        assert not list(out.rglob("*"))

    def test_missing_counts_file_writes_nothing(self, tmp_path):
        metrics, out = tmp_path / "metrics.json", tmp_path / "out"
        metrics.write_text(json.dumps(REPORT_EVALUATION))
        assert run("report", "--metrics", metrics, "--counts", tmp_path / "missing.json",
                   "--out-dir", out) == 2
        assert not list(out.rglob("*"))

    @pytest.mark.parametrize("flag", ["--metrics", "--compare", "--counts"])
    @pytest.mark.parametrize("text,line", UNPARSEABLE_JSON, ids=UNPARSEABLE_JSON_IDS)
    def test_unparseable_report_input_exit_3(self, tmp_path, capsys, flag, text, line):
        good, bad, out = tmp_path / "good.json", tmp_path / "bad.json", tmp_path / "out"
        good.write_text(json.dumps(REPORT_EVALUATION))
        bad.write_bytes(text)
        files = {"--metrics": good, flag: bad}
        assert run("report", *(a for item in files.items() for a in item), "--out-dir", out) == 3
        assert capsys.readouterr().err.startswith(f"error: {bad}:{line}: {flag}: ")
        assert not list(out.rglob("*"))


#: A one-category evaluation that ``report`` accepts.
REPORT_EVALUATION = {
    "categories": [{"category": 0, "ap": 0.5, "sap_mean": 0.6}],
    "aggregates": {"all": {"msap": 0.6, "map": 0.5, "categories": 1, "eligible": 1}},
}


def _error_types(cls=SapEvalError):
    """``cls`` and every subclass of it defined so far."""
    return [cls] + [t for sub in cls.__subclasses__() for t in _error_types(sub)]


#: The exit code README documents for each error ``main`` reports.
EXIT_CODES = {
    "SapEvalError": 2, "ConfigError": 2, "UnknownCategory": 2, "InvalidCounts": 2,
    "CategoryMismatch": 2, "DimMismatch": 2, "ValueError": 2, "OSError": 2,
    "ParseError": 3,
    "NoPositives": 4, "DegeneratePool": 4, "NoEligibleCategories": 4, "EmptyCategory": 4,
    "EmptyHead": 4,
    "NonFiniteLoss": 1,
}
ERROR_TYPES = [*_error_types(), ValueError, OSError]


def test_every_error_type_has_a_documented_exit_code():
    assert ConfigError in ERROR_TYPES
    assert sorted(t.__name__ for t in ERROR_TYPES) == sorted(EXIT_CODES)


@pytest.mark.parametrize("error", ERROR_TYPES, ids=lambda t: t.__name__)
def test_error_exits_with_its_code_and_one_line(tmp_path, capsys, monkeypatch, error):
    exc = error("data.csv", 7, "bad row") if error is ParseError else error("went wrong")

    def fail(args):
        raise exc

    monkeypatch.setattr(sapeval.cli, "cmd_synth", fail)
    assert run("synth", "--out-dir", tmp_path) == EXIT_CODES[error.__name__]
    assert capsys.readouterr().err == f"error: {exc}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--gt", "{dir}", "--det", "{det}", "--out", "{tmp}/report.json"],
        ["sap", "--predictions", "{dir}", "--out", "{tmp}/report.json"],
        ["split", "--train-ap", "{dir}", "--val-ap", "{dir}", "--out", "{tmp}/split.json"],
        ["eval", "--gt", "{gt}", "--det", "{det}", "--out", "{dir}", "--min-examples", "1"],
    ],
    ids=["eval_gt", "sap_predictions", "split_train_ap", "eval_out"],
)
def test_directory_path_exit_2(detection_files, tmp_path, capsys, argv):
    gt, det = detection_files
    directory = tmp_path / "dir"
    directory.mkdir()
    paths = {"dir": directory, "gt": gt, "det": det, "tmp": tmp_path}
    assert run(*(a.format(**paths) for a in argv)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and str(directory) in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["det.csv", "dir", "gt.csv"]
    assert not list(directory.iterdir())


def write_ava_fixture(directory, seed=11):
    """A small AVA-shaped pair of CSVs, the same for a given seed: 4 videos
    x 3 key frames x 3 boxes with 1-2 of 5 labels; one detection per box
    and category, most near their box and some shifted down by 0.4 or 0.6
    of its height, plus a stray box per frame; corners and scores in
    millionths, some scores tied; detection rows shuffled."""
    rng = np.random.default_rng(seed)

    def micro(v):
        return f"{v // 10**6}.{v % 10**6:06d}"

    def row(frame, corners):
        return ",".join([frame, *map(micro, corners)])

    def score():
        if rng.random() < 0.2:
            return micro(int(rng.choice([250_000, 500_000, 750_000])))
        return micro(int(rng.integers(0, 10**6 + 1)))

    gt_rows, det_rows = [], []
    for video in range(4):
        for timestamp in (902, 903, 904):
            frame = f"vid{video},{timestamp}"
            for slot in range(3):
                x1 = slot * 330_000 + int(rng.integers(20_000, 60_000))
                y1 = int(rng.integers(0, 300_000))
                corners = [x1, y1, x1 + int(rng.integers(150_000, 260_000)),
                           y1 + int(rng.integers(200_000, 600_000))]
                labels = sorted({int(c) for c in rng.integers(0, 5, int(rng.integers(1, 3)))})
                gt_rows += [f"{row(frame, corners)},{c}" for c in labels]
                for c in range(5):
                    moved = [v + int(d) for v, d in zip(corners, rng.integers(-15_000, 15_001, 4))]
                    off = int(rng.choice([0, 0, 0, 0, 0, 0, 4, 6]))  # tenths of the height
                    shift = (corners[3] - corners[1]) * off // 10  # IoU about 0.43 or 0.25
                    moved[1], moved[3] = moved[1] + shift, moved[3] + shift
                    moved = [min(max(v, 0), 10**6) for v in moved]
                    det_rows.append(f"{row(frame, moved)},{c},{score()}")
            det_rows.append(f"{row(frame, [0, 950_000, 40_000, 1_000_000])},"
                            f"{int(rng.integers(0, 5))},{score()}")
    gt, det = directory / "gt.csv", directory / "det.csv"
    gt.write_text("\n".join(gt_rows) + "\n")
    det.write_text("\n".join(det_rows[i] for i in rng.permutation(len(det_rows))) + "\n")
    return gt, det


#: SHA-256 of each report on ``write_ava_fixture``'s files, recorded with
#: the object-per-detection matcher that the frame index replaced; the
#: reports must stay byte-identical to it.
GOLDEN_REPORTS = {
    "eval": (["eval"],
            "4ad1d24b84b82652b156e0b45e58c029cd64ec3e218bf69ee6a1d89174952628"),
    "eval_iou_0.3": (["eval", "--iou", "0.3"],
                    "75f56cb8718343c4f021cbc24edae4428a1f9f6b932fa194356f3fff4dc41538"),
    "sap": (["sap", "--trials", "7", "--seed", "4"],
           "ec8252c830d45fabb72e91ad5c78ff6c8b25830de062ca2b0b36e0e51ec27de6"),
    "sap_no_background": (["sap", "--trials", "7", "--seed", "4", "--no-background"],
                         "dd6990f9c95a2aa0992def5ea99c85749e7975c493b07ebdb242abd7353e6f00"),
    "sap_iou_0.3": (["sap", "--trials", "7", "--seed", "4", "--iou", "0.3"],
                   "34d95667222ed34d64c4b4588b0b6d7dd146765c12b82a01e59dfa982a78a7f9"),
    "sap_store_trials": (["sap", "--trials", "7", "--seed", "4", "--store-trials"],
                        "94591eca4dd50be329376522d631cae669d82350778fe77aabba8f3b9c18c45d"),
    "sap_all": (["sap", "--trials", "5", "--seed", "9", "--no-background", "--iou", "0.3",
                 "--store-trials"],
               "a499d015610b29bcf337a643871acf4d013332679ef32b371ca78572f5750ce5"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_REPORTS))
def test_reports_are_byte_identical_to_golden(tmp_path, name):
    argv, digest = GOLDEN_REPORTS[name]
    gt, det = write_ava_fixture(tmp_path)
    out = tmp_path / "report.json"
    assert run(*argv, "--gt", gt, "--det", det, "--out", out, "--min-examples", 3) == 0
    assert sha256_file(out) == digest


@pytest.mark.parametrize("name", sorted(GOLDEN_REPORTS))
def test_reports_are_golden_on_the_three_key_detection_sort(tmp_path, name):
    """One extra detection of a category 10¹⁵ above the others, which the
    ground truth does not label, spreads the categories too far for the
    frame index's packed sort key: the index sorts by three keys, and the
    ground-truth categories' reports stay byte-identical to golden."""
    argv, digest = GOLDEN_REPORTS[name]
    gt, det = write_ava_fixture(tmp_path)
    with det.open("a") as fh:
        fh.write(f"vid0,902,0.100000,0.100000,0.300000,0.300000,{10**15},0.500000\n")
    out = tmp_path / "report.json"
    with mock.patch.object(sapeval.pools, "_sort_runs", wraps=sapeval.pools._sort_runs) as sort:
        assert run(*argv, "--gt", gt, "--det", det, "--out", out, "--min-examples", 3) == 0
    assert [len(call.args) for call in sort.call_args_list] == [3]
    assert sha256_file(out) == digest


def write_golden_inputs(directory, seed=13):
    """Small seeded inputs for every command, written as text so they do
    not depend on sapeval's serializers: a predictions JSONL (60 examples x
    4 categories, scores in millionths, some tied, category 3 rare), the
    AVA-shaped CSVs of ``write_ava_fixture``, a train/val feature dataset
    over 6 Zipf-sized categories, a head/tail split, per-category AP files
    in both accepted shapes, two metrics JSONs for ``report`` (the train
    command's shape and a bare evaluation) and a dataset manifest with
    category counts."""
    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    paths = {}

    def write(name, lines):
        paths[name.split(".")[0]] = directory / name
        (directory / name).write_text("\n".join(lines) + "\n")

    records = []
    for i in range(60):
        labels = sorted({i % 3, *([3] if i % 11 == 0 else [])})
        scores = [int(v) / 10**6 for v in rng.integers(0, 10**6 + 1, 4)]
        scores[int(rng.integers(0, 4))] = float(rng.choice([0.25, 0.5, 0.75]))
        records.append(json.dumps({"id": 100 + 7 * i, "labels": labels, "scores": scores}))
    write("preds.jsonl", records)
    paths["gt"], paths["det"] = write_ava_fixture(directory)

    data = directory / "data"
    data.mkdir()
    paths["data"] = data
    for split, scale in (("train", 1.0), ("val", 0.5)):
        lines = []
        for c, count in enumerate((40, 22, 12, 7, 4, 3)):
            for _ in range(max(2, int(count * scale))):
                center = [1.0 if d == c else 0.0 for d in range(6)]
                features = [round(v + float(rng.normal(0, 0.4)), 4) for v in center]
                labels = [c, *([int(rng.integers(0, 6))] if rng.random() < 0.1 else [])]
                lines.append(json.dumps({"id": len(lines), "split": split,
                                         "labels": list(dict.fromkeys(labels)),
                                         "features": features}))
        order = rng.permutation(len(lines))
        (data / f"{split}.jsonl").write_text("\n".join(lines[i] for i in order) + "\n")
    write("split.json", [json.dumps({"head": [0, 1, 2], "tail": [3, 4, 5], "threshold": 0.0})])

    aps = [round(float(v), 4) for v in rng.random(12)]
    write("train_ap.json", [json.dumps({str(c): aps[c] for c in range(6)})])
    write("val_ap.json", [json.dumps({"categories": [
        {"category": c, "n_pos": 3, "ap": aps[6 + c] if c != 4 else aps[4]} for c in range(6)
    ] + [{"category": 6, "n_pos": 0, "ap": None}]})])

    def evaluation():
        categories = []
        for c in range(6):
            ap = float(rng.random())
            sap = None if c == 5 else float(rng.random())
            categories.append({"category": c, "n_pos": 6 - c, "n_neg": 30, "ap": ap,
                               "sap_mean": sap, "sap_std": None if sap is None else 0.05,
                               "degenerate": None if sap is None else False})
        aggregates = {
            group: {"msap": float(rng.random()), "map": float(rng.random()),
                    "categories": n, "eligible": n - 1}
            for group, n in (("all", 6), ("head", 3), ("tail", 3))
        }
        return {"categories": categories, "aggregates": aggregates}

    write("metrics.json", [json.dumps({"variant": "two_stage",
                                       "evaluation": {"train": evaluation(),
                                                      "val": evaluation()}})])
    write("compare.json", [json.dumps(evaluation())])
    write("counts.json", [json.dumps({"zipf_counts": [40, 22, 12, 7, 4, 3]})])
    return paths


#: SHA-256 of every output of each command on ``write_golden_inputs``'s
#: files, recorded with the per-command scoring, writing and loading code
#: that one shared scorer, report writer and detection loader replaced.
GOLDEN_OUTPUTS = {
    "sap_predictions": (
        ["sap", "--predictions", "{preds}", "--out", "{out}/sap.json", "--trials", "6",
         "--seed", "3", "--min-examples", "2"],
        {
            "sap.json": "dc66bbaa248f7789d89fab5307cac5b63188e587d366e40d3e7064613158a59b",
        }),
    "sap_predictions_store_trials": (
        ["sap", "--predictions", "{preds}", "--out", "{out}/sap.json", "--trials", "4",
         "--seed", "8", "--min-examples", "5", "--store-trials"],
        {
            "sap.json": "a89c3a042ab1099ab133c26243b0f6f9ecba700c6e09a54647268a3c5af569f4",
        }),
    "stability_predictions": (
        ["stability", "--predictions", "{preds}", "--category", "1", "--trials", "3,6",
         "--repeats", "3", "--seed", "2", "--out", "{out}/profile.csv"],
        {
            "profile.csv": "cfaa4568b833e79d249e4692e7192dac4f7d60087432823d816d5b2478fd6944",
        }),
    "stability_detections": (
        ["stability", "--gt", "{gt}", "--det", "{det}", "--category", "2", "--trials", "2,5",
         "--repeats", "4", "--seed", "6", "--no-background", "--out", "{out}/profile.csv"],
        {
            "profile.csv": "2e3fe6e757ce940bb78b9284438ec64e941ef93793d50754c1f58f8770687a5b",
        }),
    "split": (
        ["split", "--train-ap", "{train_ap}", "--val-ap", "{val_ap}", "--threshold", "0.1",
         "--out", "{out}/split.json"],
        {
            "split.json": "e243114e019af1d22f3abd2eb52f6abaa5d1fd4c5d5ce9fbc3859548218e8a85",
        }),
    "synth": (
        ["synth", "--out-dir", "{out}", "--categories", "5", "--max-count", "30",
         "--min-count", "3", "--feature-dim", "4", "--multilabel-rate", "0.3", "--seed", "4"],
        {
            "train.jsonl": "f6f40bfbd2767d6f761db6d66ddd506f58cb9f17b678c8b6b77952e88e5d4fc0",
            "val.jsonl": "9555c2d0c79bd6c977ed1d8b8b720e781bef379ffc9b2dd365b53a08c1b41b6c",
            "test.jsonl": "1786e3e022ce9110d4f0a134a5d5b5d49b47e312d0209a3d05c53f04aa8db71a",
            "dataset_manifest.json": "03fa41d06b7565915ff056bf0a03a6071c14f171aee698faa0ccc61c201df935",
        }),
    "train_two_stage": (
        ["train", "--data-dir", "{data}", "--out-dir", "{out}", "--variant", "two_stage",
         "--split", "{split}", "--seed", "1", "--hidden-dim", "8", "--embedding-dim", "4",
         "--stage1-lr-start", "0.5", "--stage1-lr-end", "0.05", "--stage1-epochs", "3",
         "--stage2-lr-start", "0.3", "--stage2-lr-end", "0.03", "--stage2-epochs", "2",
         "--trials", "5"],
        {
            "metrics.json": "e6b75a3448aa64d0bf6ffb9457fc64418780b9ee202bb740a95e8ad87b85702e",
            "checkpoint.json": "a041cbef004fe52c6b1a92521597d7f7c6f05bff71863e8b1e947bd72c193b11",
        }),
    "train_naive_balanced": (
        ["train", "--data-dir", "{data}", "--out-dir", "{out}", "--variant", "naive_balanced",
         "--auto-split", "--seed", "3", "--hidden-dim", "8", "--embedding-dim", "4",
         "--stage1-lr-start", "0.5", "--stage1-lr-end", "0.05", "--stage1-epochs", "2",
         "--trials", "3", "--min-examples", "3"],
        {
            "metrics.json": "8747c7a0e8fd2d77ffa706de0aaf91119a55ebbe81e0f8ce801a17ea3bc4ce5f",
            "checkpoint.json": "78aa2551cd3816191b00740b5b28bf5d2b7a01b04c6c413d5bc51704003d7f25",
        }),
    "report": (
        ["report", "--metrics", "{metrics}", "--compare", "{compare}", "--counts", "{counts}",
         "--out-dir", "{out}"],
        {
            "summary.csv": "c0287e8357cb5e21174af894b89da4be40051e3e0feb701616936488dede89da",
            "ap_vs_sap.svg": "96ddd786e72fbe7f3042074d84bd024e933af718ab78b5ab06be186c5d7f6de4",
            "compare.svg": "833171a7e088b310634bef090df6cbf159ae5ee9147a074ff7ffd78b8d45524c",
            "counts.svg": "d5d5cbb5e136b55cc94c34e24bdf71f411c752bb5a75b29cc2b4d29266ac749a",
        }),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_OUTPUTS))
def test_outputs_are_byte_identical_to_golden(tmp_path, name):
    argv, expected = GOLDEN_OUTPUTS[name]
    paths = write_golden_inputs(tmp_path / "in")
    out = tmp_path / "out"
    assert run(*(a.format(out=out, **paths) for a in argv)) == 0
    assert digests(out / f for f in expected) == expected



@pytest.mark.parametrize("name", ["sap_predictions", "stability_detections", "split"])
def test_output_manifest_sits_next_to_the_output(tmp_path, name):
    argv, expected = GOLDEN_OUTPUTS[name]
    paths = write_golden_inputs(tmp_path / "in")
    out = tmp_path / "out"
    assert run(*(a.format(out=out, **paths) for a in argv)) == 0
    (output,) = expected
    manifest = json.loads((out / f"{output}.manifest.json").read_text())
    assert manifest["command"] == argv[0]
    assert list(manifest["outputs"].values()) == [expected[output]]
    assert manifest["seed"] == (int(argv[argv.index("--seed") + 1]) if "--seed" in argv else None)

def test_tracer_finds_every_name_it_wraps():
    """``perfbench/tracing.install`` wraps entry points by name in the module
    that calls them (``cli.sampled_ap``, ``training.average_precision``, ...);
    installing it fails if any of those names is gone."""
    root = Path(__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-c", "import tracing; tracing.install('check')"],
        cwd=root / "perfbench", env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr


def test_every_import_kept_for_the_tracer_is_wrapped():
    """A ``noqa: F401`` import in ``src/sapeval`` is kept only for
    ``perfbench/tracing.install`` to wrap; each such name must carry
    ``__wrapped__`` once the tracer is installed."""
    root = Path(__file__).resolve().parents[1]
    kept = []
    for path in sorted((root / "src" / "sapeval").glob("*.py")):
        for line in path.read_text(encoding="utf-8").splitlines():
            if "noqa: F401" in line:
                (node,) = ast.parse(line.strip()).body
                assert isinstance(node, ast.ImportFrom), line
                kept += [(path.stem, alias.asname or alias.name) for alias in node.names]
    assert kept
    check = (
        "import importlib, sys, tracing\n"
        "tracing.install('check')\n"
        f"for module, name in {kept!r}:\n"
        "    if not hasattr(getattr(importlib.import_module('sapeval.' + module), name),"
        " '__wrapped__'):\n"
        "        print(f'{module}.{name}')\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", check],
        cwd=root / "perfbench", env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "", f"kept for the tracer but not wrapped: {result.stdout.split()}"


def test_tracer_sees_each_frame_ap_of_eval(tmp_path):
    """``eval`` calls frame AP under the name the tracer wraps, so a traced
    ``eval`` records one ``metrics.frame_ap`` span per ground-truth
    category."""
    root = Path(__file__).resolve().parents[1]
    gt, det = write_ava_fixture(tmp_path)
    categories = {line.rsplit(",", 1)[1] for line in gt.read_text().splitlines()}
    argv = ["eval", "--gt", str(gt), "--det", str(det), "--out", str(tmp_path / "report.json"),
            "--min-examples", "3"]
    check = (
        "import sapeval.cli, tracing\n"
        "tracer = tracing.install('check')\n"
        f"assert sapeval.cli.main({argv!r}) == 0\n"
        "code = tracer.names.get('metrics.frame_ap')\n"
        "print(list(tracer.spans[2::5]).count(code))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", check],
        cwd=root / "perfbench", env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == str(len(categories))


def test_every_import_is_used():
    """Each name a ``src/sapeval`` module imports is read in that module,
    apart from ``__init__.py``'s re-exports, ``from __future__`` and the
    ``noqa: F401`` imports pinned above."""
    root = Path(__file__).resolve().parents[1]
    unused = []
    for path in sorted((root / "src" / "sapeval").glob("*.py")):
        if path.name == "__init__.py":
            continue
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        tree = ast.parse(text)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if "noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                if name not in used:
                    unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []


#: The functions of the evaluation half of ``cli``, which read no training code.
EVALUATION_FUNCTIONS = ("cmd_eval", "cmd_sap", "cmd_stability", "_load_pools",
                        "_detection_index", "_sap_config", "_write_outputs")


def test_evaluation_commands_read_no_training_code():
    """``eval``, ``sap`` and ``stability`` and the helpers they call read no
    name ``cli`` imports from ``training``, ``benchmark`` or ``charts``."""
    tree = ast.parse(Path(sapeval.cli.__file__).read_text(encoding="utf-8"))
    training_side = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        and node.module in ("training", "benchmark", "charts")
        for alias in node.names
    }
    assert training_side
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    read = {
        f"{name}: {node.id}"
        for name in EVALUATION_FUNCTIONS
        for node in ast.walk(functions[name])
        if isinstance(node, ast.Name) and node.id in training_side
    }
    assert read == set()

