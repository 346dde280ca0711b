"""File formats.

Ground-truth CSV (UTF-8, no header), one row per (box, label) pair::

    video_id,timestamp,x1,y1,x2,y2,category_id

Rows sharing (video_id, timestamp, x1, y1, x2, y2) merge into one
multi-label instance. Detection CSV adds a trailing ``score`` column and is
read into ``DetectionColumns``: each line streams straight into flat
arrays, and the rows are checked as arrays once the file is read.
Coordinates and scores are written as 6-decimal fixed point and quantized
to that grid on read, so parse -> serialize -> parse is the identity.
Timestamps and category ids must fit in int64.

Feature datasets are JSON lines, one record per example::

    {"id": int, "split": str, "labels": [int, ...], "features": [float, ...]}

The first label is the example's generating (primary) category. Prediction
files are JSON lines of ``{"id", "labels", "scores"}`` where ``scores``
has one entry per category.
"""

from __future__ import annotations

import json
import math
from array import array
from itertools import chain
from pathlib import Path
from typing import Sequence

import numpy as np

from .boxes import BoundingBox, Detection, DetectionColumns, FrameKey, GroundTruthInstance
from .datasets import FeatureDataset, HeadTailSplit
from .errors import ParseError


def _q6(value: float) -> float:
    return round(value, 6)


def _fmt6(value: float) -> str:
    return f"{value:.6f}"


def _json_int(value, what: str) -> int:
    """``value`` if it is a JSON integer within int64; ``ValueError`` for a
    float, a string or a boolean, which ``int()`` would convert silently."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} {value!r} is not an integer")
    return _int64(value, what)


def _int64(value: str | int, what: str) -> int:
    value = int(value)
    if not -(2**63) <= value < 2**63:
        raise ValueError(f"{what} {value} outside int64")
    return value


def _parse_row(path: str, line_no: int, line: str, n_fields: int) -> list[str]:
    fields = line.rstrip("\n").split(",")
    if len(fields) != n_fields:
        raise ParseError(path, line_no, f"expected {n_fields} fields, got {len(fields)}")
    return fields


def _parse_common(path: str, line_no: int, fields: list[str]):
    video_id = fields[0]
    if not video_id:
        raise ParseError(path, line_no, "empty video_id")
    try:
        timestamp = _int64(fields[1], "timestamp")
        coords = tuple(_q6(float(v)) for v in fields[2:6])
    except ValueError as exc:
        raise ParseError(path, line_no, str(exc)) from None
    try:
        box = BoundingBox(*coords)
    except ValueError as exc:
        raise ParseError(path, line_no, str(exc)) from None
    return FrameKey(video_id, timestamp), box


def read_ground_truth_csv(path: str | Path) -> list[GroundTruthInstance]:
    path = str(path)
    merged: dict[tuple, set[int]] = {}
    order: list[tuple] = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            fields = _parse_row(path, line_no, line, 7)
            frame, box = _parse_common(path, line_no, fields)
            try:
                category = _int64(fields[6], "category")
            except ValueError as exc:
                raise ParseError(path, line_no, str(exc)) from None
            key = (frame, box)
            if key not in merged:
                merged[key] = set()
                order.append(key)
            merged[key].add(category)
    return [
        GroundTruthInstance(frame, box, frozenset(merged[(frame, box)]), i)
        for i, (frame, box) in enumerate(order)
    ]


def serialize_ground_truth(instances: Sequence[GroundTruthInstance]) -> str:
    lines = []
    for inst in instances:
        for category in sorted(inst.categories):
            lines.append(
                ",".join(
                    [
                        inst.frame.video_id,
                        str(inst.frame.timestamp),
                        *(_fmt6(v) for v in inst.box.as_tuple()),
                        str(category),
                    ]
                )
            )
    return "\n".join(lines) + ("\n" if lines else "")


def read_detections_csv(path: str | Path) -> DetectionColumns:
    """Detection CSV as columns. A bad row makes the columnar read fail;
    the file is then checked line by line, which raises the ``ParseError``
    of the first bad line."""
    path = str(path)
    try:
        return _detection_columns(path)
    except (ValueError, OverflowError):
        with open(path, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                if line.strip():
                    _check_detection_row(path, line_no, line)
        raise


def _detection_columns(path: str) -> DetectionColumns:
    """Raises ``ValueError`` or ``OverflowError`` for a file where
    ``_check_detection_row`` raises ``ParseError`` on some line."""
    raw_frames: dict[tuple[str, str], int] = {}
    frame, category, boxes, score = array("q"), array("q"), array("d"), array("d")
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            try:
                video_id, timestamp, x1, y1, x2, y2, c, s = line.split(",")
            except ValueError:
                if line.strip():
                    raise
                continue
            frame.append(raw_frames.setdefault((video_id, timestamp), len(raw_frames)))
            boxes.extend((float(x1), float(y1), float(x2), float(y2)))
            category.append(int(c))  # OverflowError beyond int64
            score.append(float(s))
    if not all(video_id for video_id, _ in raw_frames):
        raise ValueError("empty video_id")
    # one code per (video_id, timestamp) value: "7" and "07" are one frame
    frames: dict[tuple[str, int], int] = {}
    codes = [frames.setdefault((v, _int64(t, "timestamp")), len(frames)) for v, t in raw_frames]
    box_array, score_array = np.frombuffer(boxes).reshape(-1, 4), np.frombuffer(score)
    # a float np.round leaves unchanged is one round(value, 6) leaves
    # unchanged; only values with more than 6 decimals go through round
    for column in (box_array.reshape(-1), score_array):
        with np.errstate(over="ignore", invalid="ignore"):
            off_grid = np.flatnonzero(np.round(column, 6) != column)
        column[off_grid] = [_q6(v) for v in column[off_grid].tolist()]
    x1, y1, x2, y2 = box_array.T
    if not ((0.0 <= x1) & (x1 < x2) & (x2 <= 1.0) & (0.0 <= y1) & (y1 < y2) & (y2 <= 1.0)
            & (0.0 <= score_array) & (score_array <= 1.0)).all():
        raise ValueError("invalid box corners or score")
    frame_codes = np.array(codes, dtype=np.int64)[np.frombuffer(frame, dtype=np.int64)]
    return DetectionColumns(tuple(frames), frame_codes, box_array,
                            np.frombuffer(category, dtype=np.int64), score_array)


def _check_detection_row(path: str, line_no: int, line: str) -> None:
    fields = _parse_row(path, line_no, line, 8)
    _parse_common(path, line_no, fields)
    try:
        _int64(fields[6], "category")
        score = _q6(float(fields[7]))
    except ValueError as exc:
        raise ParseError(path, line_no, str(exc)) from None
    if not 0.0 <= score <= 1.0:
        raise ParseError(path, line_no, f"detection score {score} outside [0, 1]")


def serialize_detections(detections: DetectionColumns | Sequence[Detection]) -> str:
    d = DetectionColumns.of(detections)
    lines = [
        ",".join([*map(str, d.frames[f]), *map(_fmt6, box), str(c), _fmt6(score)])
        for f, box, c, score in zip(
            d.frame.tolist(), d.boxes.tolist(), d.category.tolist(), d.score.tolist()
        )
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def serialize_feature_dataset(dataset: FeatureDataset) -> str:
    lines = [
        json.dumps({"id": i, "split": dataset.split, "labels": list(labels), "features": row})
        for i, labels, row in zip(
            dataset.ids.tolist(), dataset.labels, dataset.features.tolist()
        )
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def read_feature_dataset(path: str | Path, n_categories: int | None = None) -> FeatureDataset:
    """Feature JSON lines as a dataset. A record needs at least one label,
    no label twice, and finite features as many as the first record's. Of
    several bad records, the error names the first."""
    path = str(path)
    ids: list[int] = []
    labels: list[tuple[int, ...]] = []
    rows: list[list[float]] = []
    split, error = "", None
    try:
        with open(path, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                    example_id = _json_int(record["id"], "id")
                    row = _json_numbers(record["features"], "feature")
                    example_labels = tuple(_json_int(c, "label") for c in record["labels"])
                    split = str(record["split"])
                except (KeyError, TypeError, ValueError, OverflowError) as exc:
                    raise ParseError(path, line_no, f"bad record: {exc}") from None
                if not example_labels:
                    raise ParseError(path, line_no, "example has no labels")
                if len(set(example_labels)) < len(example_labels):
                    raise ParseError(path, line_no, f"repeated label in {list(example_labels)}")
                if min(example_labels) < 0:
                    raise ParseError(path, line_no, "negative label")
                if n_categories is not None and max(example_labels) >= n_categories:
                    raise ParseError(path, line_no, f"label beyond the {n_categories} categories")
                if rows and len(row) != len(rows[0]):
                    raise ParseError(path, line_no, "feature length differs from the first record's")
                ids.append(example_id)
                labels.append(example_labels)
                rows.append(row)
    except ParseError as exc:
        error = exc  # raised after the finiteness check: an earlier bad line wins
    if not rows:
        raise error or ParseError(path, 0, "no feature records")
    features = np.array(rows, dtype=np.float64)
    finite = np.isfinite(features).all(axis=1)
    if not finite.all():
        raise ParseError(path, _record_line(path, int(finite.argmin())), "non-finite feature")
    if error:
        raise error
    k = n_categories if n_categories is not None else max(map(max, labels)) + 1
    return FeatureDataset(ids, features, labels, split, k)


def serialize_predictions(
    example_ids: Sequence[int],
    label_sets: Sequence[Sequence[int]],
    scores: np.ndarray,
) -> str:
    lines = [
        json.dumps(
            {
                "id": int(example_ids[i]),
                "labels": sorted(int(c) for c in label_sets[i]),
                "scores": [float(v) for v in scores[i]],
            }
        )
        for i in range(len(example_ids))
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def _json_numbers(values: list, what: str) -> list:
    """``values`` as floats if all are JSON numbers; ``ValueError`` for a
    string, boolean or null, ``OverflowError`` for an integer beyond the
    float range."""
    kinds = {*map(type, values)}
    if not kinds <= {float, int}:
        bad = next(v for v in values if type(v) not in (float, int))
        raise ValueError(f"{what} {bad!r} is not a number")
    return [float(v) for v in values] if int in kinds else values


def read_predictions(path: str | Path) -> tuple[list[int], list[frozenset[int]], np.ndarray]:
    """Returns (example ids, label sets, score matrix). Scores must lie in
    [0, 1] and labels in [0, K) for K scores per record. Of several bad
    records, the error names the first."""
    path = str(path)
    ids: list[int] = []
    labels: list[frozenset[int]] = []
    rows: list[list[float]] = []
    seen: set[int] = set()
    error = None
    try:
        with open(path, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                    example_id = _json_int(record["id"], "id")
                    label_set = frozenset(_json_int(c, "label") for c in record["labels"])
                    row = _json_numbers(record["scores"], "score")
                except (KeyError, TypeError, ValueError, OverflowError) as exc:
                    raise ParseError(path, line_no, f"bad record: {exc}") from None
                if example_id in seen:
                    raise ParseError(path, line_no, f"duplicate id {example_id}")
                if rows and len(row) != len(rows[0]):
                    raise ParseError(path, line_no, "inconsistent score vector length")
                seen.add(example_id)
                ids.append(example_id)
                labels.append(label_set)
                rows.append(row)
    except ParseError as exc:
        error = exc  # raised after the range checks: an earlier bad line wins
    if not rows:
        raise error or ParseError(path, 0, "no prediction records")
    scores = np.asarray(rows, dtype=np.float64)
    k = scores.shape[1]
    # row extremes (NaN propagates): no matrix-sized mask while ``rows`` lives
    bad_scores = ~((scores.min(axis=1, initial=0.0) >= 0.0)
                   & (scores.max(axis=1, initial=1.0) <= 1.0))
    flat = np.fromiter(chain.from_iterable(labels), dtype=np.int64)
    bad_labels = np.zeros_like(bad_scores)
    if ((flat < 0) | (flat >= k)).any():  # only then are the records checked one by one
        bad_labels[:] = [any(c < 0 or c >= k for c in s) for s in labels]
    bad = bad_scores | bad_labels
    if bad.any():
        row = int(bad.argmax())
        message = "scores must lie in [0, 1]" if bad_scores[row] else f"labels must lie in [0, {k})"
        raise ParseError(path, _record_line(path, row), message)
    if error:
        raise error
    return ids, labels, scores


def _record_line(path: str, row: int) -> int:
    """Line number of record ``row`` of a JSON-lines file, blank lines skipped."""
    with open(path, encoding="utf-8") as fh:
        return [n for n, line in enumerate(fh, start=1) if line.strip()][row]


def read_category_ap(path: str | Path) -> dict[int, float]:
    """Per-category AP map from either a plain ``{\"category\": ap}`` object
    or a report JSON carrying a ``categories`` list, whose records need a
    ``category`` and an ``ap`` (null for a category that was not scored).
    APs must be finite JSON numbers, and no category may appear twice."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        if isinstance(payload, dict) and "categories" in payload:
            pairs = [(_json_int(c["category"], "category"), c["ap"]) for c in payload["categories"]]
            scored = [(c, ap) for c, ap in pairs if ap is not None]
        else:
            pairs = scored = [(_int64(k, "category"), v) for k, v in payload.items()]
        categories = [c for c, _ in pairs]
        if len(set(categories)) < len(categories):
            twice = next(c for c in categories if categories.count(c) > 1)
            raise ValueError(f"category {twice} listed twice")
        aps = _json_numbers([ap for _, ap in scored], "AP")
        non_finite = [ap for ap in aps if not math.isfinite(ap)]
        if non_finite:
            raise ValueError(f"AP {non_finite[0]} is not finite")
        return dict(zip([c for c, _ in scored], aps))
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(str(path), getattr(exc, "lineno", 0), f"bad AP file: {exc!r}") from None


def read_split(path: str | Path) -> HeadTailSplit:
    """Head/tail split as the ``split`` command writes it: integer ``head``
    and ``tail`` lists and an optional ``threshold``."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        head, tail = (frozenset(_json_int(c, "category") for c in payload[side])
                      for side in ("head", "tail"))
        threshold = float(payload.get("threshold", 0.0))
    except (KeyError, TypeError, ValueError) as exc:  # JSONDecodeError too
        raise ParseError(str(path), getattr(exc, "lineno", 0), f"bad split: {exc!r}") from None
    return HeadTailSplit(head, tail, threshold)
