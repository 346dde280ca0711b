import json

import numpy as np
import pytest

from sapeval.cli import main
from sapeval.formats import serialize_detections, serialize_ground_truth, serialize_predictions
from sapeval.manifest import sha256_file
from sapeval.training import VARIANTS

from conftest import MICRO_DET, MICRO_GT


@pytest.fixture
def detection_files(tmp_path):
    gt = tmp_path / "gt.csv"
    det = tmp_path / "det.csv"
    gt.write_text(serialize_ground_truth(MICRO_GT))
    det.write_text(serialize_detections(MICRO_DET))
    return gt, det


def run(*argv):
    return main([str(a) for a in argv])


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
        from sapeval.boxes import Detection

        gt = tmp_path / "gt.csv"
        gt.write_text(serialize_ground_truth(MICRO_GT))
        perfect = [
            Detection(g.frame, g.box, c, 1.0) for g in MICRO_GT for c in g.categories
        ]
        det = tmp_path / "det.csv"
        det.write_text(serialize_detections(perfect))
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
        labels = [[int(i % 3)] for i in range(40)]
        preds = tmp_path / "preds.jsonl"
        preds.write_text(serialize_predictions(list(range(40)), labels, scores))
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
        assert "must lie in" in capsys.readouterr().err
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
        ],
        ids=["float_label", "bool_label", "float_id", "string_id", "duplicate_id", "int64_id"],
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

    def test_rare_random_category_ap_collapses_but_sap_does_not(self, tmp_path):
        # 32 positives out of ~94k with uniformly random scores: plain AP
        # lands at the positive ratio while the balanced metric stays near
        # one half (single pool draw, so the band is generous)
        rng = np.random.default_rng(2)
        n_total, n_pos = 93994, 32
        scores = rng.random((n_total, 1))
        labels = [[0] if i < n_pos else [] for i in range(n_total)]
        preds = tmp_path / "preds.jsonl"
        preds.write_text(serialize_predictions(list(range(n_total)), labels, scores))
        out = tmp_path / "sap.json"
        assert run(
            "sap", "--predictions", preds, "--out", out,
            "--trials", 15, "--seed", 0, "--min-examples", 1,
        ) == 0
        record = json.loads(out.read_text())["categories"][0]
        assert record["ap"] == pytest.approx(0.00034, abs=0.001)
        assert 0.4 <= record["sap_mean"] <= 0.65


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
        ],
        ids=[
            "negative_label", "label_beyond_categories", "short_features",
            "non_integer_label", "non_integer_id",
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

    def test_rerun_rejects_missing_config(self, tmp_path, capsys):
        manifest = tmp_path / "run_manifest.json"
        manifest.write_text(json.dumps({"command": "eval"}))
        assert run("rerun", manifest) == 2
        assert "lacks det, gt, iou, min_examples, out" in capsys.readouterr().err


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
