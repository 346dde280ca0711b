"""Acceptance suite: one test per release criterion, each at its stated
tolerance. A summary line per criterion is printed at the end of the
pytest run (see the terminal-summary hook in conftest)."""

import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from sapeval.benchmark import ordering_checks, run_benchmark
from sapeval.cli import main as cli_main
from sapeval.datasets import EmptySplitWarning
from sapeval.manifest import sha256_file
from sapeval.metrics import (
    average_precision,
    average_precision_from_arrays,
    roc_auc,
)
from sapeval.pools import pool_from_arrays
from sapeval.sampling import SapConfig, sampled_ap, stability_profile
from sapeval.training import _backprop, logit_loss

from conftest import (
    MICRO_DET,
    MICRO_GT,
    det_columns,
    gt_columns,
    make_pool,
    pool_sides,
    random_pool,
    serialize_detections,
    serialize_ground_truth,
)
from oracles import exact_expected_random_ap, exhaustive_sampled_ap
from test_training import finite_difference_grads, tiny_problem

POOL_TOTAL = 93994
FREQUENT = 44449
RARE = 32


def _random_flagged_pool(n_pos, n_total, seed):
    rng = np.random.default_rng(seed)
    flags = np.zeros(n_total, dtype=bool)
    flags[:n_pos] = True
    return rng.random(n_total), flags


def test_criterion_01_random_baseline_ap():
    started = time.monotonic()
    for n_pos, target, tolerance in (
        (FREQUENT, 0.473, 0.01),
        (RARE, 0.00034, 0.0005),
    ):
        aps = []
        for seed in range(20):
            scores, flags = _random_flagged_pool(n_pos, POOL_TOTAL, seed)
            aps.append(average_precision_from_arrays(scores, flags))
        assert abs(np.mean(aps) - target) <= tolerance
    assert time.monotonic() - started < 30.0


def test_criterion_02_sap_frequency_invariance():
    started = time.monotonic()
    band = (0.47, 0.53)

    # frequent category: one pool is already a tight estimate
    scores, flags = _random_flagged_pool(FREQUENT, POOL_TOTAL, 7)
    frequent = sampled_ap(
        pool_from_arrays(0, scores, flags), SapConfig(n_trials=15, seed=0)
    ).sap_mean
    assert band[0] <= frequent <= band[1]

    # rare category: balanced trials are 32-vs-32, so a single pool draw
    # scatters +-0.04 around the metric's true expectation. That exact
    # expectation comes from an independent enumeration oracle; the
    # implementation must agree with it over a frozen pool ensemble.
    exact = exact_expected_random_ap(RARE, 2 * RARE)
    assert band[0] <= exact <= band[1]
    ensemble = []
    for i in range(12):
        scores, flags = _random_flagged_pool(RARE, POOL_TOTAL, 100 + i)
        ensemble.append(
            sampled_ap(
                pool_from_arrays(0, scores, flags), SapConfig(n_trials=15, seed=200 + i)
            ).sap_mean
        )
    # 3 sigma of the 12-pool ensemble mean
    assert abs(np.mean(ensemble) - exact) <= 0.04
    assert time.monotonic() - started < 60.0


def test_criterion_03_sap_oracle_equivalence():
    exact = exhaustive_sampled_ap([0.9, 0.4], [0.8, 0.3, 0.1])
    assert exact == pytest.approx(8 / 9, abs=1e-12)
    assert round(exact, 4) == 0.8889

    rng = np.random.default_rng(2024)
    for trial in range(50):
        n_pos = int(rng.integers(1, 6))
        n_neg = int(rng.integers(1, 9))
        pool = random_pool(rng, n_pos, n_pos + n_neg)
        estimate = sampled_ap(pool, SapConfig(n_trials=10_000, seed=trial)).sap_mean
        assert abs(estimate - exhaustive_sampled_ap(*pool_sides(pool))) <= 0.01


def test_criterion_04_sap_equals_ap_when_balanced():
    rng = np.random.default_rng(5)
    for trial in range(25):
        n_pos = int(rng.integers(1, 40))
        pool = random_pool(rng, n_pos, 2 * n_pos)
        result = sampled_ap(pool, SapConfig(n_trials=15, seed=trial))
        assert result.sap_mean == average_precision(pool)
        assert result.sap_std == 0.0


def test_criterion_05_stability_profile():
    pool = random_pool(np.random.default_rng(77), 200, 4200)
    points = stability_profile(pool, [5, 20, 40], repeats=200, seed=11)
    by_n = {p.n_trials: p.std for p in points}
    assert by_n[40] <= by_n[5]
    ratio = by_n[5] / by_n[20]
    assert 1.6 <= ratio <= 2.4


def test_criterion_06_ap_fixtures_and_invariance():
    assert average_precision(make_pool([0.9, 0.7], [0.8])) == pytest.approx(
        5 / 6, abs=1e-12
    )
    from sapeval.metrics import frame_ap
    from sapeval.pools import FrameIndex
    from conftest import box, det

    missing_one = [det("v1", 1, box(0.1, 0.1, 0.3, 0.3), 0, 0.9)]
    micro_gt = gt_columns(MICRO_GT)
    assert frame_ap(FrameIndex(micro_gt, det_columns(missing_one)), 0) == pytest.approx(
        0.5, abs=1e-12
    )
    stray_first = [
        det("v1", 1, box(0.7, 0.7, 0.9, 0.9), 0, 0.95),
        det("v1", 1, box(0.1, 0.1, 0.3, 0.3), 0, 0.9),
        det("v1", 2, box(0.2, 0.2, 0.4, 0.4), 0, 0.7),
    ]
    assert frame_ap(FrameIndex(micro_gt, det_columns(stray_first)), 0) == pytest.approx(
        (0.5 + 2 / 3) / 2, abs=1e-12
    )

    rng = np.random.default_rng(6)
    for _ in range(100):
        n = int(rng.integers(3, 60))
        scores = rng.random(n)
        flags = rng.random(n) < 0.4
        if not flags.any():
            flags[int(rng.integers(0, n))] = True
        base = average_precision_from_arrays(scores, flags)
        for transform in (lambda s: 5 * s - 2, np.exp, lambda s: np.tanh(s) + 2):
            assert average_precision_from_arrays(
                transform(scores), flags
            ) == pytest.approx(base, abs=1e-12)


def test_criterion_07_gradient_checks():
    worst = 0.0
    for point in range(100):
        params, x, y = tiny_problem(seed=point, n=3, dims=(3, 4, 3, 4))
        loss, gamma = ("bce", 0.0) if point % 2 == 0 else ("focal", 2.0)
        _, grads = _backprop(params, x, y, loss, gamma)
        fd = finite_difference_grads(params, x, y, loss, gamma, step=1e-5)
        for name, grad in fd.items():
            analytic = getattr(grads, name)
            denom = np.maximum(np.abs(grad), 1e-6)
            worst = max(worst, float(np.max(np.abs(analytic - grad) / denom)))
    assert worst < 1e-4

    rng = np.random.default_rng(1)
    p = rng.uniform(0.01, 0.99, size=(50, 7))
    y = (rng.random((50, 7)) < 0.5).astype(float)
    z = np.log(p) - np.log1p(-p)
    bce_entries, bce_grad = logit_loss(z, y, "bce", 0.0)
    focal_entries, focal_grad = logit_loss(z, y, "focal", 0.0)
    assert abs(bce_entries.mean() - focal_entries.mean()) <= 1e-12
    assert np.max(np.abs(bce_grad - focal_grad)) / z.size <= 1e-12


def test_criterion_08_training_schema_orderings():
    started = time.monotonic()
    warnings.simplefilter("ignore", EmptySplitWarning)
    wins = {
        "tail_two_stage_gt_baseline": 0,
        "all_two_stage_gt_naive_balanced": 0,
        "tail_unbalanced_lt_balanced": 0,
    }
    for seed in range(5):
        result = run_benchmark(seed)
        checks = ordering_checks(result)
        for name in wins:
            wins[name] += bool(checks[name])
    for name, count in wins.items():
        assert count >= 4, f"{name}: only {count}/5 seeds"
    assert time.monotonic() - started < 600.0


def test_criterion_09_cli_determinism(tmp_path):
    def rerun_and_compare(out_files, manifest):
        before = {str(p): sha256_file(p) for p in out_files}
        for p in out_files:
            p.unlink()
        assert cli_main(["rerun", str(manifest)]) == 0
        after = {str(p): sha256_file(p) for p in out_files}
        assert before == after

    data = tmp_path / "data"
    assert cli_main([
        "synth", "--out-dir", str(data), "--categories", "6", "--max-count", "60",
        "--min-count", "3", "--feature-dim", "8", "--sigma", "0.5", "--seed", "13",
    ]) == 0
    rerun_and_compare(
        [data / "train.jsonl", data / "val.jsonl", data / "test.jsonl"],
        data / "run_manifest.json",
    )

    gt = tmp_path / "gt.csv"
    det = tmp_path / "det.csv"
    gt.write_text(serialize_ground_truth(gt_columns(MICRO_GT)))
    det.write_text(serialize_detections(det_columns(MICRO_DET)))
    for command, out_name, extra in (
        ("eval", "eval.json", ["--min-examples", "1"]),
        ("sap", "sap.json", ["--min-examples", "1", "--trials", "7", "--seed", "3"]),
        ("stability", "stab.csv", ["--category", "0", "--trials", "5,10", "--repeats", "4"]),
    ):
        out = tmp_path / out_name
        assert cli_main(
            [command, "--gt", str(gt), "--det", str(det), "--out", str(out)] + extra
        ) == 0
        rerun_and_compare([out], Path(str(out) + ".manifest.json"))

    (tmp_path / "tap.json").write_text('{"0": 0.9, "1": 0.1}')
    (tmp_path / "vap.json").write_text('{"0": 0.4, "1": 0.3}')
    split_out = tmp_path / "split.json"
    assert cli_main([
        "split", "--train-ap", str(tmp_path / "tap.json"),
        "--val-ap", str(tmp_path / "vap.json"), "--out", str(split_out),
    ]) == 0
    rerun_and_compare([split_out], Path(str(split_out) + ".manifest.json"))

    run_dir = tmp_path / "run"
    assert cli_main([
        "train", "--data-dir", str(data), "--out-dir", str(run_dir),
        "--variant", "two_stage", "--auto-split", "--seed", "3",
        "--hidden-dim", "10", "--embedding-dim", "5",
        "--stage1-lr-start", "0.5", "--stage1-lr-end", "0.05",
        "--stage1-epochs", "2", "--stage2-lr-start", "0.5",
        "--stage2-lr-end", "0.05", "--stage2-epochs", "1", "--trials", "4",
    ]) == 0
    rerun_and_compare(
        [run_dir / "checkpoint.json", run_dir / "metrics.json"],
        run_dir / "run_manifest.json",
    )

    report_dir = tmp_path / "report"
    assert cli_main([
        "report", "--metrics", str(run_dir / "metrics.json"),
        "--out-dir", str(report_dir), "--counts", str(data / "dataset_manifest.json"),
    ]) == 0
    rerun_and_compare(
        [report_dir / "summary.csv", report_dir / "ap_vs_sap.svg", report_dir / "counts.svg"],
        report_dir / "report_manifest.json",
    )


def test_criterion_10_roc_sanity():
    assert roc_auc(make_pool([0.9, 0.8], [0.2, 0.1])) == 1.0

    rng = np.random.default_rng(3)
    for seed in range(5):
        pool = random_pool(np.random.default_rng(seed), 4000, 8000)
        assert abs(roc_auc(pool) - 0.5) <= 0.02

    # a mediocre scorer that confidently misranks a slice of the negatives:
    # with few positives and a large negative pool the global rank statistic
    # stays high while the balanced-sample AP pays for every top-ranked
    # distractor. Documented margin: ROC-AUC exceeds sampled AP by >= 0.05.
    rng = np.random.default_rng(0)
    n_pos, n_neg = 30, 10000
    pos_raw = rng.normal(1.8, 0.6, n_pos)
    neg_raw = np.where(
        rng.random(n_neg) < 0.10,
        rng.normal(3.5, 0.6, n_neg),
        rng.normal(0.0, 0.6, n_neg),
    )
    squash = lambda v: 1 / (1 + np.exp(-v))
    pool = pool_from_arrays(
        0,
        np.concatenate([squash(pos_raw), squash(neg_raw)]),
        [True] * n_pos + [False] * n_neg,
    )
    roc = roc_auc(pool)
    sap = sampled_ap(pool, SapConfig(n_trials=15, seed=0)).sap_mean
    assert average_precision(pool) < 0.1  # plain AP is crushed by imbalance
    assert roc - sap >= 0.05
