"""Independent reference implementations used only to check the library.

These deliberately avoid the library's code paths: plain-Python ranked
accumulation for AP, dense grid counting for IoU, and closed-form
enumeration for the expectation of AP under a random ranking.
"""

from __future__ import annotations

from math import comb

import numpy as np


def grid_iou(a, b, resolution: float = 1e-3) -> float:
    """IoU by counting grid cells at the given resolution."""
    ticks = np.arange(resolution / 2, 1.0, resolution)
    xs, ys = np.meshgrid(ticks, ticks, indexing="ij")

    def inside(box):
        return (box.x1 <= xs) & (xs < box.x2) & (box.y1 <= ys) & (ys < box.y2)

    in_a, in_b = inside(a), inside(b)
    union = np.count_nonzero(in_a | in_b)
    return np.count_nonzero(in_a & in_b) / union if union else 0.0


def brute_force_ap(scored: list[tuple[float, bool]], ids=None) -> float:
    """AP by explicit PR accumulation over the ranked list.

    ``scored`` holds (score, is_positive); ties rank by ascending id
    (position when ids are omitted).
    """
    if ids is None:
        ids = list(range(len(scored)))
    ranked = sorted(zip(scored, ids), key=lambda t: (-t[0][0], t[1]))
    n_pos = sum(1 for (_, pos), _ in ranked if pos)
    assert n_pos > 0
    tp = 0
    total = 0.0
    for rank, ((_, pos), _) in enumerate(ranked, start=1):
        if pos:
            tp += 1
            total += tp / rank
    return total / n_pos


def brute_force_roc_auc(positives, negatives) -> float:
    """ROC-AUC by comparing every (positive, negative) pair: a win counts
    one, a tie one half, over n_pos * n_neg pairs."""
    wins = sum(p > n for p in positives for n in negatives)
    ties = sum(p == n for p in positives for n in negatives)
    return (wins + ties / 2) / (len(positives) * len(negatives))


def exact_expected_random_ap(n_pos: int, n_total: int) -> float:
    """E[AP] of a uniformly random ranking, by negative-hypergeometric
    enumeration over the rank of each positive."""
    denom = comb(n_total, n_pos)
    total = 0.0
    for k in range(1, n_pos + 1):
        for r in range(k, k + n_total - n_pos + 1):
            total += (k / r) * comb(r - 1, k - 1) * comb(n_total - r, n_pos - k) / denom
    return total / n_pos


def exhaustive_sampled_ap(positives, negatives) -> float:
    """Expected sampled AP by enumerating every negative subset."""
    from itertools import combinations

    n = len(positives)
    total = 0.0
    count = 0
    for subset in combinations(negatives, min(n, len(negatives))):
        scored = [(s, True) for s in positives] + [(s, False) for s in subset]
        ids = list(range(len(scored)))
        total += brute_force_ap(scored, ids)
        count += 1
    return total / count


def reference_sampled_ap(pool, config) -> dict:
    """``sampled_ap`` one trial at a time: the library's seeded draws
    (``mix_seed``, ``rng.choice``) over the pool's positives and eligible
    negatives, each trial's rows ranked by Python ``sorted`` on
    (-score, id), and its precisions summed in one float64 array.

    Returns the fields of ``sampled_ap``'s record other than the category,
    ``n_neg`` and the whole-pool AP.
    """
    from sapeval.pools import ExampleOrigin
    from sapeval.sampling import mix_seed

    rows = list(zip(pool.scores.tolist(), pool.ids.tolist(), pool.is_positive.tolist(),
                    pool.origin.tolist()))
    positives = [r for r in rows if r[2]]
    negatives = [r for r in rows if not r[2] and (
        config.include_background or r[3] != ExampleOrigin.BACKGROUND_DETECTION)]
    n_pos, n_neg = len(positives), len(negatives)
    assert n_pos > 0
    trial_aps = []
    for i in range(config.n_trials):
        picked = negatives
        if n_neg > n_pos:
            rng = np.random.default_rng(mix_seed(config.seed, i))
            picked = [negatives[j] for j in rng.choice(n_neg, size=n_pos, replace=False)]
        ranked = sorted(positives + picked, key=lambda r: (-r[0], r[1]))
        precisions, tp = [], 0
        for rank, row in enumerate(ranked, start=1):
            if row[2]:
                tp += 1
                precisions.append(tp / rank)
        trial_aps.append(float(np.array(precisions, dtype=np.float64).sum() / n_pos))
    aps = np.array(trial_aps, dtype=np.float64)
    if aps.min() == aps.max():
        mean, std = trial_aps[0], 0.0
    else:
        mean, std = float(aps.mean()), float(aps.std())
    return {"trial_aps": tuple(trial_aps), "sap_mean": mean, "sap_std": std, "n_pos": n_pos,
            "degenerate": n_neg < n_pos}


def _box_iou(a, b) -> float:
    ix = min(a.x2, b.x2) - max(a.x1, b.x1)
    iy = min(a.y2, b.y2) - max(a.y1, b.y1)
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    inter = ix * iy
    return inter / ((a.x2 - a.x1) * (a.y2 - a.y1) + (b.x2 - b.x1) * (b.y2 - b.y1) - inter)


def reference_pools_from_scores(scores, targets, example_ids=None):
    """Classification pools built one example at a time from a score
    matrix and the multi-hot label matrix of the same shape.

    Returns ``{category: (positives, negatives)}``, each side a list of
    ``(score, id, is_positive, origin name)`` tuples in example order.
    """
    n, k = np.shape(scores)
    ids = list(example_ids) if example_ids is not None else list(range(n))
    pools = {}
    for c in range(k):
        sides = ([], [])
        for i in range(n):
            positive = bool(targets[i][c])
            sides[0 if positive else 1].append(
                (float(scores[i][c]), ids[i], positive, "MATCHED_GT")
            )
        pools[c] = sides
    return pools


def reference_build_eval_pool(ground_truth, detections, category, iou_threshold=0.5):
    """Detection pool built one example at a time, with its own greedy match.

    Frames in sorted order; within a frame, annotated boxes by instance id
    and detections of ``category`` by (descending score, box corners). Each
    detection in that order claims the unclaimed box it overlaps most
    (first on ties) at IoU >= threshold. Returns ``(positives, negatives)``
    lists of ``(score, id, is_positive, origin name)``; detections left
    unclaimed and overlapping no box at the threshold follow the annotated
    negatives, sorted by (frame, score, box), with ids after the largest
    instance id.
    """
    frames = {}
    for g in ground_truth:
        frames.setdefault((g.frame.video_id, g.frame.timestamp), ([], []))[0].append(g)
    for d in detections:
        if d.category == category:
            frames.setdefault((d.frame.video_id, d.frame.timestamp), ([], []))[1].append(d)
    positives, negatives, background = [], [], []
    for frame in sorted(frames):
        gts = sorted(frames[frame][0], key=lambda g: g.instance_id)
        dets = sorted(frames[frame][1], key=lambda d: (-d.score, tuple(d.box)))
        claimed = [None] * len(gts)
        for d in dets:
            best, best_iou = None, 0.0
            for j, g in enumerate(gts):
                overlap = _box_iou(d.box, g.box)
                if claimed[j] is None and overlap >= iou_threshold and overlap > best_iou:
                    best, best_iou = j, overlap
            if best is not None:
                claimed[best] = d
            elif all(_box_iou(d.box, g.box) < iou_threshold for g in gts):
                background.append((frame, d.score, tuple(d.box)))
        for g, d in zip(gts, claimed):
            positive = category in g.categories
            entry = (
                (d.score, g.instance_id, positive, "MATCHED_GT")
                if d is not None
                else (-1.0, g.instance_id, positive, "UNMATCHED_GT")
            )
            (positives if positive else negatives).append(entry)
    next_id = max((g.instance_id for g in ground_truth), default=-1) + 1
    for i, (_, score, _) in enumerate(sorted(background)):
        negatives.append((score, next_id + i, False, "BACKGROUND_DETECTION"))
    return positives, negatives


def reference_frame_ap(ground_truth, detections, category, iou_threshold=0.5):
    """Detection-protocol AP for one category, one object at a time.

    In each frame (sorted), the category's detections by (descending score,
    box corners) each claim the unclaimed box labeled with the category
    they overlap most (first by instance id on ties) at IoU >= threshold.
    All of them are then ranked by descending score, ties in that frame
    order, and AP averages the precision at each claim over the number of
    boxes labeled with the category. ``None`` when there are none.
    """
    def frame_of(x):
        return (x.frame.video_id, x.frame.timestamp)

    labeled = [g for g in ground_truth if category in g.categories]
    if not labeled:
        return None
    ours = [d for d in detections if d.category == category]
    hits = []  # (score, claimed) in frame order
    for frame in sorted({frame_of(d) for d in ours}):
        boxes = sorted((g for g in labeled if frame_of(g) == frame), key=lambda g: g.instance_id)
        claimed = [False] * len(boxes)
        for d in sorted((d for d in ours if frame_of(d) == frame),
                        key=lambda d: (-d.score, tuple(d.box))):
            best, best_iou = None, 0.0
            for j, g in enumerate(boxes):
                overlap = _box_iou(d.box, g.box)
                if not claimed[j] and overlap >= iou_threshold and overlap > best_iou:
                    best, best_iou = j, overlap
            if best is not None:
                claimed[best] = True
            hits.append((d.score, best is not None))
    ranked = sorted(range(len(hits)), key=lambda i: (-hits[i][0], i))
    tp, total = 0, 0.0
    for rank, i in enumerate(ranked, start=1):
        if hits[i][1]:
            tp += 1
            total += tp / rank
    return total / len(labeled)


def _reference_box_lines(path, n_fields):
    """``(video_id, timestamp, corners, category, scores)`` of each
    non-blank line of a box CSV with ``n_fields`` fields, the scores
    the fields after the category. Raises ``ParseError`` at the first bad
    line: a line holding invalid UTF-8 names the first such byte; else
    the checks go in this order: a 0x1c-0x1f control anywhere, field
    count, video id, each number field in turn an ASCII number (no ``_``
    and, whitespace around it aside, only ASCII characters), then timestamp
    (integer, int64), corners (numbers quantized to 6 decimals, then box
    validity), category (integer, int64), score (number, then [0, 1])."""
    from sapeval.errors import ParseError

    def int64(text, what):
        value = int(text)
        if not -(2**63) <= value <= 2**63 - 1:
            raise ValueError(f"{what} {value} outside int64")
        return value

    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            raw = line.encode("utf-8", "surrogateescape")  # the line's own bytes
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ParseError(str(path), line_no,
                                 f"invalid UTF-8 byte 0x{raw[exc.start]:02x}") from None
            if not line.strip():
                continue
            fields = line.rstrip("\n").split(",")
            try:
                controls = [c for c in line if "\x1c" <= c <= "\x1f"]
                if controls:
                    raise ValueError(f"control character 0x{ord(controls[0]):02x}")
                if len(fields) != n_fields:
                    raise ValueError(f"expected {n_fields} fields, got {len(fields)}")
                if not fields[0]:
                    raise ValueError("empty video_id")
                for i, field in enumerate(fields[1:], start=2):
                    body = field.strip()
                    if not body.isascii() or "_" in body:
                        raise ValueError(f"field {i} {field!r} is not an ASCII number")
                timestamp = int64(fields[1], "timestamp")
                x1, y1, x2, y2 = (round(float(v), 6) for v in fields[2:6])
                if not (0.0 <= x1 < x2 <= 1.0 and 0.0 <= y1 < y2 <= 1.0):
                    raise ValueError(f"invalid box corners: BoundingBox("
                                     f"x1={x1!r}, y1={y1!r}, x2={x2!r}, y2={y2!r})")
                category = int64(fields[6], "category")
                scores = [round(float(v), 6) for v in fields[7:]]
                for score in scores:
                    if not 0.0 <= score <= 1.0:
                        raise ValueError(f"detection score {score} outside [0, 1]")
            except ValueError as exc:
                raise ParseError(str(path), line_no, str(exc)) from None
            yield fields[0], timestamp, (x1, y1, x2, y2), category, scores


def reference_read_detections(path):
    """Detection CSV rows as ``(video_id, timestamp, corners, category,
    score)``, parsed one line at a time by ``_reference_box_lines``."""
    return [
        (video_id, timestamp, corners, category, score)
        for video_id, timestamp, corners, category, (score,) in _reference_box_lines(path, 8)
    ]


def reference_read_ground_truth(path):
    """Ground-truth CSV as ``(video_id, timestamp, corners, categories,
    instance id)`` rows, one per box, parsed one line at a time by
    ``_reference_box_lines``. Rows with equal (video_id, timestamp,
    corners) values merge, keeping the first row's corners; ids count the
    boxes in sorted (video_id, timestamp, corners) order."""
    boxes = {}
    for video_id, timestamp, corners, category, _ in _reference_box_lines(path, 7):
        boxes.setdefault((video_id, timestamp, corners), (corners, set()))[1].add(category)
    return [
        (video_id, timestamp, corners, frozenset(categories), i)
        for i, ((video_id, timestamp, _), (corners, categories)) in enumerate(sorted(boxes.items()))
    ]


def _reference_record_faults(record, key, split, n_categories, first):
    """Every fault of one parsed JSON-lines record, in the order the
    readers report them, and its id, labels and row (None where a field
    does not parse). ``first`` is the (id set, width) of the good records
    before it, or None for the first record."""
    import math

    def integer(value, what):
        if type(value) is not int:
            return f"bad record: {what} {value!r} is not an integer"
        if not -(2**63) <= value < 2**63:
            return f"bad record: {what} {value} outside int64"
        return None

    if type(record) is not dict:
        return ["bad record: not a JSON object"], None, None, None
    faults, example_id, labels, row = [], None, None, None
    if "id" not in record:
        faults.append("bad record: 'id'")
    elif integer(record["id"], "id"):
        faults.append(integer(record["id"], "id"))
    else:
        example_id = record["id"]
    if "labels" not in record:
        faults.append("bad record: 'labels'")
    else:
        bad = [integer(c, "label") for c in record["labels"] if integer(c, "label")]
        if bad:
            faults.append(bad[0])
        else:
            labels = tuple(record["labels"])
    what = key[:-1]
    if key not in record:
        faults.append(f"bad record: '{key}'")
    else:
        bad = [v for v in record[key] if type(v) not in (int, float)]
        if bad:
            faults.append(f"bad record: {what} {bad[0]!r} is not a number")
        else:
            try:
                row = [float(v) for v in record[key]]
            except OverflowError as exc:
                faults.append(f"bad record: {exc}")
    if split is not None and "split" not in record:
        faults.append("bad record: 'split'")
    seen, width = first if first else (set(), None)
    if example_id is not None and example_id in seen:
        faults.append(f"duplicate id {example_id}")
    if labels is not None and len(set(labels)) < len(labels):
        faults.append(f"repeated label in {list(labels)}")
    if row is not None and width is not None and len(row) != width:
        faults.append("inconsistent score vector length" if split is None
                      else "feature length differs from the first record's")
    if split is None:
        if row is not None and not all(0.0 <= v <= 1.0 for v in row):
            faults.append("scores must lie in [0, 1]")
        k = width if first else None if row is None else len(row)
        if labels is not None and k is not None and any(c < 0 or c >= k for c in labels):
            faults.append(f"labels must lie in [0, {k})")
    else:
        if "split" in record and record["split"] != split:
            faults.append(f"split {record['split']!r}, expected {split!r}")
        if labels is not None and not labels:
            faults.append("example has no labels")
        if labels is not None and any(c < 0 for c in labels):
            faults.append("negative label")
        if labels is not None and n_categories is not None and any(c >= n_categories for c in labels):
            faults.append(f"label beyond the {n_categories} categories")
        if row is not None and not all(math.isfinite(v) for v in row):
            faults.append("non-finite feature")
    return faults, example_id, labels, row


def reference_read_jsonl(path, key, split=None, n_categories=None):
    """Ids, label tuples and rows of a predictions file (``key``
    "scores") or a feature file (``key`` "features", whose records must
    name ``split``), read one line at a time. At the first record with a
    fault, raises ``ParseError`` with its first fault's message; the
    error's ``faults`` lists all of that record's faults. The faults:
    a field that does not parse (int64 id, integer labels, numbers), an
    id seen before, a label twice, a row wider or narrower than the first
    record's; for predictions a score outside [0, 1] or a label outside
    [0, K) for the first record's width K; for features another split,
    no labels, a negative label, one at or beyond ``n_categories``, or a
    non-finite feature."""
    import json

    from sapeval.errors import ParseError

    ids, labels, rows, seen = [], [], [], set()
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                faults = [f"bad record: {exc}"]
            else:
                first = (seen, len(rows[0])) if rows else None
                faults, example_id, example_labels, row = _reference_record_faults(
                    record, key, split, n_categories, first
                )
            if faults:
                error = ParseError(str(path), line_no, faults[0])
                error.faults = faults
                raise error
            ids.append(example_id)
            seen.add(example_id)
            labels.append(example_labels)
            rows.append(row)
    if not rows:
        raise ParseError(str(path), 0, f"no {'prediction' if split is None else 'feature'} records")
    return ids, labels, rows


def reference_oversample_balance(labels, n_categories, seed=0):
    """Oversampled row indices of a dataset with these label tuples, one
    example at a time: each example joins the group of its rarest label
    (least count, then lowest category), each group is repeated whole to
    the largest group's size and trimmed to it, and the concatenation in
    category order is shuffled by ``seed``."""
    from sapeval.errors import EmptyCategory
    from sapeval.sampling import mix_seed

    contains = [0] * n_categories
    for example_labels in labels:
        for c in example_labels:
            contains[c] += 1
    if 0 in contains:
        raise EmptyCategory(f"category {contains.index(0)} has no examples")

    groups: dict[int, list[int]] = {}
    for i, example_labels in enumerate(labels):
        rarest = min(example_labels, key=lambda c: (contains[c], c))
        groups.setdefault(rarest, []).append(i)

    target = max(len(g) for g in groups.values())
    indices: list[int] = []
    for c in sorted(groups):
        group = groups[c]
        copies = -(-target // len(group))  # ceil
        indices.extend((group * copies)[:target])

    rng = np.random.default_rng(mix_seed(seed, 1))
    return [indices[i] for i in rng.permutation(len(indices))]


def masked_sigmoid(z: np.ndarray) -> np.ndarray:
    """The logistic function evaluated branch by branch: ``1 / (1 + e^-z)``
    where z >= 0, ``e^z / (1 + e^z)`` elsewhere, each over its own gather."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def reference_loss(z: np.ndarray, y: np.ndarray, loss: str, gamma: float):
    """Mean binary cross-entropy (``loss="bce"``) or focal loss of logits
    ``z`` against 0/1 targets ``y``, averaged with ``np.mean``, and its
    gradient with respect to the logits, worked in probability space from
    ``p = masked_sigmoid(z)`` by the chain rule. Its rounding grows as p
    nears 0 or 1, so it is a reference for unsaturated logits only."""
    p = masked_sigmoid(z)
    if loss == "bce":
        entries = -(y * np.log(p) + (1.0 - y) * np.log1p(-p))
        slope = (p - y) / (p * (1.0 - p))
    else:
        # cross-entropy of p_t, the probability of the true label, scaled
        # by (1 - p_t)^gamma; slope by the chain rule through p_t
        p_t = np.where(y > 0.5, p, 1.0 - p)
        focus = (1.0 - p_t) ** gamma
        entries = -focus * np.log(p_t)
        dl_dpt = gamma * (1.0 - p_t) ** (gamma - 1.0) * np.log(p_t) - focus / p_t
        slope = np.where(y > 0.5, dl_dpt, -dl_dpt)
    return float(np.mean(entries)), slope / p.size * p * (1.0 - p)


def load_checkpoint(path):
    """Weights and training record of a ``checkpoint.json``; rejects any
    format version but 1 and weights whose shapes disagree with the stored
    dims."""
    import dataclasses
    import json
    from pathlib import Path

    from sapeval.errors import DimMismatch
    from sapeval.training import ModelParams, init_params

    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    version = payload.get("format_version")
    if version != 1:
        raise ValueError(f"{path}: unsupported checkpoint format_version {version!r}")
    template = init_params(**payload["dims"])
    weights = {}
    for f in dataclasses.fields(ModelParams):
        weights[f.name] = np.asarray(payload["weights"][f.name], dtype=np.float64)
        if weights[f.name].shape != getattr(template, f.name).shape:
            raise DimMismatch(f"{path}: {f.name} shape disagrees with dims {payload['dims']}")
    return ModelParams(**weights), payload.get("training", {})
