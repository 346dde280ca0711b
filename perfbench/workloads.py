"""The benchmark's workloads: seeded input generators, the operations one
pass runs, and the checks on every output.

Each workload turns the workload seed into input files (or, for
``train-reference``, into the seeds handed to ``run_benchmark``) and keeps
the values it planted, so the checks compare the program's reports with
numbers derived from the generator's own data rather than from sapeval.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

#: Golden-ratio stride that spreads the fixed per-category separations over
#: [0.5, 2.0] without a random draw, so the scored quality of a category does
#: not change with the workload seed.
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
MICRO = 1_000_000
MIN_EXAMPLES = 25  # the CLI's default eligibility floor for mAP and mSAP
TOLERANCE = 1e-9


@dataclass
class Op:
    """One operation of a pass: a CLI invocation (``argv``) or one
    ``run_benchmark`` seed (``reference_seed``), with the files it writes."""

    name: str
    outputs: dict[str, str]
    argv: list[str] | None = None
    reference_seed: int | None = None

    def to_json(self) -> dict:
        return asdict(self)


@dataclass
class Checked:
    """Check failures per operation and the pass's headline mSAP."""

    errors: list[list[str]]
    msap: float
    ordering_checks_passed: int = 0


def _separation(k: int) -> float:
    return 0.5 + 1.5 * ((k * _GOLDEN) % 1.0)


def _zipf_probabilities(n_categories: int, exponent: float) -> np.ndarray:
    weights = np.arange(1, n_categories + 1, dtype=np.float64) ** -exponent
    return weights / weights.sum()


def _zipf_labels(rng, n: int, n_categories: int, exponent: float, extra_rate: float):
    """Multi-hot labels: a Zipf-drawn primary category, plus one more label
    (also Zipf-drawn, never the primary) for ``extra_rate`` of the examples."""
    p = _zipf_probabilities(n_categories, exponent)
    primary = rng.choice(n_categories, size=n, p=p)
    extra = rng.choice(n_categories, size=n, p=p)
    extra = np.where(extra == primary, (extra + 1) % n_categories, extra)
    has_extra = rng.random(n) < extra_rate
    y = np.zeros((n, n_categories), dtype=bool)
    y[np.arange(n), primary] = True
    y[np.flatnonzero(has_extra), extra[has_extra]] = True
    return y


def _scores(rng, y: np.ndarray) -> np.ndarray:
    """Scores on the 6-decimal grid: sigmoid of noise plus a fixed
    per-category separation for positives. ``q / MICRO`` is the exact
    double that parsing the written digits gives back."""
    mu = np.array([_separation(k) for k in range(y.shape[1])])
    z = rng.normal(size=y.shape) + mu * y - 1.0
    q = np.rint(MICRO / (1.0 + np.exp(-z))).astype(np.int64)
    return q / MICRO


def ranked_ap(scores, ids, hit, n_relevant: int) -> float:
    """AP of a ranking by descending score, ties by ascending id: the sum of
    precision at each hit's rank, over ``n_relevant``."""
    order = np.lexsort((ids, -np.asarray(scores)))
    ranks = np.flatnonzero(np.asarray(hit)[order]) + 1
    return float(np.sum(np.arange(1, len(ranks) + 1) / ranks) / n_relevant)


def _close(a, b) -> bool:
    return a is not None and b is not None and abs(a - b) <= TOLERANCE


def _in_unit(value) -> bool:
    return value is not None and math.isfinite(value) and 0.0 <= value <= 1.0


def _read_json(path: Path, errors: list[str]):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        errors.append(f"{path.name}: unreadable ({exc})")
        return None


def _check_aggregate(name: str, reported, values: list, errors: list[str]) -> None:
    """An aggregate must equal the mean of its eligible per-category values."""
    expected = float(np.mean(values)) if values else None
    if not _close(reported, expected):
        errors.append(f"{name} {reported} != mean of eligible categories {expected}")


def _check_categories(report: dict, n_pos: list[int], ap: list[float], errors: list[str]) -> dict:
    """Per-category n_pos and AP against the planted values; every metric in
    [0, 1]. Returns the records by category."""
    by_cat = {r["category"]: r for r in report.get("categories", [])}
    if sorted(by_cat) != list(range(len(n_pos))):
        errors.append(f"categories {sorted(by_cat)} != 0..{len(n_pos) - 1}")
        return by_cat
    for c, record in by_cat.items():
        if record["n_pos"] != n_pos[c]:
            errors.append(f"category {c}: n_pos {record['n_pos']} != {n_pos[c]}")
        if not _close(record["ap"], ap[c]):
            errors.append(f"category {c}: ap {record['ap']} != {ap[c]}")
        for key in ("ap", "sap_mean", "sap_std", "roc_auc"):
            if key in record and record[key] is not None and not _in_unit(record[key]):
                errors.append(f"category {c}: {key} {record[key]} outside [0, 1]")
    return by_cat


def _check_sap_report(path: Path, n_pos: list[int], ap: list[float], errors: list[str]):
    report = _read_json(path, errors)
    if report is None:
        return None
    by_cat = _check_categories(report, n_pos, ap, errors)
    msap = report.get("aggregate", {}).get("msap")
    if not _in_unit(msap):
        errors.append(f"msap {msap} outside [0, 1]")
    eligible = [r["sap_mean"] for r in by_cat.values() if r["n_pos"] >= MIN_EXAMPLES]
    _check_aggregate("msap", msap, eligible, errors)
    return msap


def _write_predictions(path: Path, ids: np.ndarray, y: np.ndarray, scores: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(len(ids)):
            labels = ", ".join(str(c) for c in np.flatnonzero(y[i]))
            values = ", ".join(map(repr, scores[i].tolist()))
            fh.write(f'{{"id": {ids[i]}, "labels": [{labels}], "scores": [{values}]}}\n')


class ScoresWorkload:
    """Classification mode: a predictions JSONL scored by ``sapeval sap``."""

    def __init__(self, examples: int, categories: int, zipf_s: float, extra_label_rate: float):
        self.params = {"examples": examples, "categories": categories, "zipf_s": zipf_s,
                       "extra_label_rate": extra_label_rate}

    def _generate_predictions(self, seed: int, in_dir: Path) -> dict:
        p = self.params
        rng = np.random.default_rng([seed, p["categories"]])
        y = _zipf_labels(rng, p["examples"], p["categories"], p["zipf_s"], p["extra_label_rate"])
        scores = _scores(rng, y)
        ids = rng.permutation(p["examples"]) + 1000
        _write_predictions(in_dir / "predictions.jsonl", ids, y, scores)
        return {"y": y, "scores": scores, "ids": ids}

    def generate(self, seed: int, in_dir: Path) -> dict:
        data = self._generate_predictions(seed, in_dir)
        y, scores, ids = data["y"], data["scores"], data["ids"]
        return {
            "seed": seed,
            "n_pos": [int(v) for v in y.sum(axis=0)],
            "ap": [ranked_ap(scores[:, c], ids, y[:, c], int(y[:, c].sum()))
                   for c in range(y.shape[1])],
        }

    def ops(self, expected: dict, in_dir: Path, out_dir: Path) -> list[Op]:
        out = out_dir / "sap.json"
        argv = ["sap", "--predictions", str(in_dir / "predictions.jsonl"),
                "--out", str(out), "--seed", str(expected["seed"])]
        return [Op("sap", {"sap.json": str(out)}, argv=argv)]

    def check(self, expected: dict, ops: list[Op]) -> Checked:
        errors: list[str] = []
        msap = _check_sap_report(Path(ops[0].outputs["sap.json"]), expected["n_pos"],
                                 expected["ap"], errors)
        return Checked([errors], msap or 0.0)


class StabilityWorkload(ScoresWorkload):
    """``sapeval stability`` on one head category of a predictions JSONL."""

    def __init__(self, examples, categories, zipf_s, extra_label_rate, category: int,
                 trials: str, repeats: int):
        super().__init__(examples, categories, zipf_s, extra_label_rate)
        self.params.update(category=category, trials=trials, repeats=repeats)

    def generate(self, seed: int, in_dir: Path) -> dict:
        self._generate_predictions(seed, in_dir)
        return {"seed": seed}

    def ops(self, expected: dict, in_dir: Path, out_dir: Path) -> list[Op]:
        p = self.params
        out = out_dir / "profile.csv"
        argv = ["stability", "--predictions", str(in_dir / "predictions.jsonl"),
                "--category", str(p["category"]), "--trials", p["trials"],
                "--repeats", str(p["repeats"]), "--seed", str(expected["seed"]),
                "--out", str(out)]
        return [Op("stability", {"profile.csv": str(out)}, argv=argv)]

    def check(self, expected: dict, ops: list[Op]) -> Checked:
        errors: list[str] = []
        requested = [int(v) for v in self.params["trials"].split(",")]
        try:
            text = Path(ops[0].outputs["profile.csv"]).read_text(encoding="utf-8")
            rows = list(csv.DictReader(io.StringIO(text)))
            points = [(int(r["N"]), float(r["mean"]), float(r["std"])) for r in rows]
        except (OSError, KeyError, TypeError, ValueError) as exc:
            return Checked([[f"profile.csv: unreadable ({exc})"]], 0.0)
        if [n for n, _, _ in points] != requested:
            errors.append(f"rows for N={[n for n, _, _ in points]}, requested {requested}")
        for n, mean, std in points:
            if not (_in_unit(mean) and _in_unit(std)):
                errors.append(f"N={n}: mean {mean} or std {std} outside [0, 1]")
        return Checked([errors], points[-1][1] if points and _in_unit(points[-1][1]) else 0.0)


class DetectionWorkload:
    """Detection mode: AVA-shaped CSVs through ``sapeval eval`` then
    ``sapeval sap``.

    Frames hold boxes in disjoint thirds of the image, and every box gets
    one detection per category. Most detections sit on their box (IoU at
    least 0.84); a few are shifted down by 0.6 of the box height (IoU 0.25)
    and so miss it. That fixes every match outcome in advance, which is
    what lets the checks compute each category's AP without sapeval.
    """

    def __init__(self, videos: int, frames_per_video: int, boxes_per_frame: int,
                 categories: int, zipf_s: float, extra_label_rate: float,
                 mislocalized_rate: float):
        self.params = {"videos": videos, "frames_per_video": frames_per_video,
                       "boxes_per_frame": boxes_per_frame, "categories": categories,
                       "zipf_s": zipf_s, "extra_label_rate": extra_label_rate,
                       "mislocalized_rate": mislocalized_rate}

    def generate(self, seed: int, in_dir: Path) -> dict:
        p = self.params
        rng = np.random.default_rng([seed, p["categories"], p["boxes_per_frame"]])
        n_frames = p["videos"] * p["frames_per_video"]
        per_frame, k = p["boxes_per_frame"], p["categories"]
        n_boxes = n_frames * per_frame
        slot = np.tile(np.arange(per_frame), n_frames)
        # corners in millionths; each box stays inside its own column
        x1 = slot * (MICRO // per_frame) + rng.integers(10_000, 40_000, n_boxes)
        x2 = x1 + rng.integers(200_000, 270_000, n_boxes)
        y1 = rng.integers(20_000, 100_000, n_boxes)
        y2 = y1 + rng.integers(300_000, 400_000, n_boxes)
        boxes = np.stack([x1, y1, x2, y2], axis=1)
        y = _zipf_labels(rng, n_boxes, k, p["zipf_s"], p["extra_label_rate"])
        frames = [f"vid{f // p['frames_per_video']:04d},{902 + f % p['frames_per_video']}"
                  for f in range(n_frames)]
        frame_of = np.repeat(np.arange(n_frames), per_frame).tolist()

        def row(b, corners):
            return frames[frame_of[b]] + "".join(f",0.{v:06d}" for v in corners)

        with open(in_dir / "gt.csv", "w", encoding="utf-8") as fh:
            for b, corners in enumerate(boxes.tolist()):
                prefix = row(b, corners)
                fh.writelines(f"{prefix},{c}\n" for c in np.flatnonzero(y[b]))

        # per (box, category): a distinct score, and whether the box is hit
        mislocalized = rng.random((n_boxes, k)) < p["mislocalized_rate"]
        raw = rng.normal(size=(n_boxes, k)) + np.array([_separation(c) for c in range(k)]) * y
        score_q = np.empty((n_boxes, k), dtype=np.int64)
        for c in range(k):
            grid = np.sort(rng.choice(np.arange(1, MICRO), size=n_boxes, replace=False))
            score_q[np.argsort(raw[:, c], kind="stable"), c] = grid
        scores = score_q / MICRO
        shift = (y2 - y1) * 6 // 10
        missed = boxes.copy()
        missed[:, [1, 3]] += shift[:, None]
        corners = np.where(mislocalized[..., None], missed[:, None, :],
                           boxes[:, None, :] + rng.integers(-5_000, 5_001, (n_boxes, k, 4)))
        lines = [
            f"{row(b, corners_bc)},{c},0.{q:06d}\n"
            for b, (corners_b, q_b) in enumerate(zip(corners.tolist(), score_q.tolist()))
            for c, (corners_bc, q) in enumerate(zip(corners_b, q_b))
        ]
        with open(in_dir / "det.csv", "w", encoding="utf-8") as fh:
            fh.writelines(lines[i] for i in rng.permutation(len(lines)))

        n_pos, frame_ap, pool_ap, n_neg = [], [], [], []
        box_ids = np.arange(n_boxes)
        for c in range(k):
            positive, hit = y[:, c], ~mislocalized[:, c]
            n_pos.append(int(positive.sum()))
            # frame AP: every detection ranked, hits on labeled boxes count
            frame_ap.append(ranked_ap(scores[:, c], box_ids, positive & hit, n_pos[c]))
            # pool AP: boxes scored by their hit or -1, misses join as background
            n_bg = int((~hit).sum())
            pool_scores = np.concatenate([np.where(hit, scores[:, c], -1.0), scores[~hit, c]])
            pool_ids = np.arange(n_boxes + n_bg)
            pool_pos = np.concatenate([positive, np.zeros(n_bg, dtype=bool)])
            pool_ap.append(ranked_ap(pool_scores, pool_ids, pool_pos, n_pos[c]))
            n_neg.append(n_boxes - n_pos[c] + n_bg)
        return {"seed": seed, "n_pos": n_pos, "n_neg": n_neg, "frame_ap": frame_ap,
                "pool_ap": pool_ap}

    def ops(self, expected: dict, in_dir: Path, out_dir: Path) -> list[Op]:
        gt, det = str(in_dir / "gt.csv"), str(in_dir / "det.csv")
        eval_out, sap_out = out_dir / "eval.json", out_dir / "sap.json"
        return [
            Op("eval", {"eval.json": str(eval_out)},
               argv=["eval", "--gt", gt, "--det", det, "--out", str(eval_out)]),
            Op("sap", {"sap.json": str(sap_out)},
               argv=["sap", "--gt", gt, "--det", det, "--out", str(sap_out),
                     "--seed", str(expected["seed"])]),
        ]

    def check(self, expected: dict, ops: list[Op]) -> Checked:
        eval_errors: list[str] = []
        report = _read_json(Path(ops[0].outputs["eval.json"]), eval_errors)
        if report is not None:
            by_cat = _check_categories(report, expected["n_pos"], expected["frame_ap"],
                                       eval_errors)
            for c, record in by_cat.items():
                if record.get("n_neg") != expected["n_neg"][c]:
                    eval_errors.append(f"category {c}: n_neg {record.get('n_neg')} "
                                       f"!= {expected['n_neg'][c]}")
            aggregate = report.get("aggregate", {})
            eligible = [r["ap"] for r in by_cat.values() if r["n_pos"] >= MIN_EXAMPLES]
            if not _in_unit(aggregate.get("map")):
                eval_errors.append(f"map {aggregate.get('map')} outside [0, 1]")
            _check_aggregate("map", aggregate.get("map"), eligible, eval_errors)
            if aggregate.get("eligible_categories") != len(eligible):
                eval_errors.append(f"eligible_categories {aggregate.get('eligible_categories')}"
                                   f" != {len(eligible)}")
        sap_errors: list[str] = []
        msap = _check_sap_report(Path(ops[1].outputs["sap.json"]), expected["n_pos"],
                                 expected["pool_ap"], sap_errors)
        return Checked([eval_errors, sap_errors], msap or 0.0)


class ReferenceWorkload:
    """``benchmark.run_benchmark`` for a few seeds derived from the workload
    seed, with its default variants."""

    def __init__(self, seeds_per_pass: int):
        self.params = {"seeds_per_pass": seeds_per_pass}

    def generate(self, seed: int, in_dir: Path) -> dict:
        n = self.params["seeds_per_pass"]
        return {"seed": seed, "reference_seeds": [n * seed + i for i in range(n)]}

    def ops(self, expected: dict, in_dir: Path, out_dir: Path) -> list[Op]:
        return [
            Op("run_benchmark", {"reference.json": str(out_dir / f"reference-{s}.json")},
               reference_seed=s)
            for s in expected["reference_seeds"]
        ]

    def check(self, expected: dict, ops: list[Op]) -> Checked:
        errors_per_op, tails, passed = [], [], 0
        for op in ops:
            errors: list[str] = []
            errors_per_op.append(errors)
            payload = _read_json(Path(op.outputs["reference.json"]), errors)
            if payload is None:
                continue
            passed += sum(bool(v) for v in payload["ordering_checks"].values())
            for variant, report in payload["reports"].items():
                _check_evaluation(variant, report, payload["head"], payload["tail"], errors)
            tails.append(payload["reports"]["two_stage"]["aggregates"]["tail"]["msap"])
        msap = float(np.mean(tails)) if tails and all(_in_unit(t) for t in tails) else 0.0
        return Checked(errors_per_op, msap, ordering_checks_passed=passed)


def _check_evaluation(variant: str, report: dict, head: list, tail: list,
                      errors: list[str]) -> None:
    """Validation report of one variant: every value in [0, 1]; head and
    tail partition the categories; each group aggregate is the mean of its
    eligible categories (``run_benchmark`` uses min_examples=1)."""
    records = report["categories"]
    if sorted(head + tail) != [r["category"] for r in records]:
        errors.append(f"{variant}: head and tail do not partition the categories")
    for r in records:
        for key in ("ap", "sap_mean", "sap_std"):
            if r[key] is not None and not _in_unit(r[key]):
                errors.append(f"{variant}: category {r['category']} {key} {r[key]} outside [0, 1]")
    groups = {"all": records,
              "head": [r for r in records if r["category"] in head],
              "tail": [r for r in records if r["category"] in tail]}
    for group, members in groups.items():
        aggregate = report["aggregates"][group]
        scored = [r for r in members if r["n_pos"] >= 1 and r["sap_mean"] is not None]
        if aggregate["categories"] != len(members) or aggregate["eligible"] != len(scored):
            errors.append(f"{variant}/{group}: category counts {aggregate['categories']}/"
                          f"{aggregate['eligible']} != {len(members)}/{len(scored)}")
        for key, field_name in (("msap", "sap_mean"), ("map", "ap")):
            if not _in_unit(aggregate[key]):
                errors.append(f"{variant}/{group}: {key} {aggregate[key]} outside [0, 1]")
            _check_aggregate(f"{variant}/{group} {key}", aggregate[key],
                             [r[field_name] for r in scored], errors)


#: The workloads by name, with their generator parameters; BENCHMARK.json
#: gives the one-line reason for each.
WORKLOADS = {
    "scores-longtail": ScoresWorkload(examples=20_000, categories=80, zipf_s=1.0,
                                      extra_label_rate=0.1),
    "detect-ava": DetectionWorkload(videos=50, frames_per_video=40, boxes_per_frame=3,
                                    categories=20, zipf_s=1.0, extra_label_rate=0.1,
                                    mislocalized_rate=0.05),
    "stability-head": StabilityWorkload(examples=40_000, categories=4, zipf_s=0.5,
                                        extra_label_rate=0.1, category=0,
                                        trials="5,10,15,20,40", repeats=5),
    "train-reference": ReferenceWorkload(seeds_per_pass=3),
}
