"""File formats.

Ground-truth CSV (UTF-8, no header), one row per (box, label) pair::

    video_id,timestamp,x1,y1,x2,y2,category_id

Rows sharing (video_id, timestamp, x1, y1, x2, y2) merge into one
multi-label box. Detection CSV adds a trailing ``score`` column. One
streaming reader reads both, into ``GroundTruthColumns`` and
``DetectionColumns``: each line goes straight into flat arrays, and the
rows are checked as arrays once the file is read; only a file that fails
that check is read again line by line, for the first bad line's error.
Coordinates and scores are written as 6-decimal fixed point and quantized
to that grid on read, so parse -> serialize -> parse is the identity.
Timestamps and category ids must fit in int64.

Feature datasets are JSON lines, one record per example::

    {"id": int, "split": str, "labels": [int, ...], "features": [float, ...]}

Every record of a feature file names that file's split, and the first
label is the example's generating (primary) category. Prediction files
are JSON lines of ``{"id", "labels", "scores"}`` where ``scores`` has one
entry per category. One loop reads both kinds of JSON lines and holds the
rules they share: int64 ids, no id twice, integer labels, no label twice,
and rows of equal width. Each reader then checks its own rules as one row
mask per rule, and the first bad line's error is raised. Labels leave
both readers as an n x K multi-hot matrix.
"""

from __future__ import annotations

import json
import math
from array import array
from pathlib import Path
from typing import Sequence

import numpy as np

from .boxes import DetectionColumns, GroundTruthColumns
from .datasets import FeatureDataset, HeadTailSplit, label_pairs, multi_hot
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


def read_ground_truth_csv(path: str | Path) -> GroundTruthColumns:
    """Ground-truth CSV as columns, one row per annotated box. Rows with
    equal frame and quantized corners merge into one multi-label box,
    compared by value (``-0`` and ``0`` are one corner, ``1`` and ``01``
    one timestamp), keeping the corners of its first row; instance ids
    number the boxes in order of first appearance."""
    frames, frame, boxes, category = _read_box_csv(str(path), 7)
    # lexsort is stable, so each run of equal keys starts at its first row
    order = np.lexsort((*boxes.T[::-1], frame))
    key_frame, key_boxes = frame[order], boxes[order]
    starts = np.ones(len(order), dtype=bool)
    starts[1:] = (key_frame[1:] != key_frame[:-1]) | (key_boxes[1:] != key_boxes[:-1]).any(axis=1)
    first = np.sort(order[starts])
    instance = np.empty(len(order), dtype=np.int64)
    instance[order] = np.searchsorted(first, order[starts])[np.cumsum(starts) - 1]
    labels = np.unique(np.stack([instance, category], axis=1), axis=0)
    return GroundTruthColumns(frames, frame[first], boxes[first], np.arange(len(first)),
                              labels[:, 0], labels[:, 1])


def serialize_ground_truth(gt: GroundTruthColumns) -> str:
    """One line per label of each box, boxes in row order."""
    rows = gt.label_row
    lines = [
        ",".join([*map(str, gt.frames[f]), *map(_fmt6, box), str(c)])
        for f, box, c in zip(
            gt.frame[rows].tolist(), gt.boxes[rows].tolist(), gt.label_category.tolist()
        )
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def read_detections_csv(path: str | Path) -> DetectionColumns:
    """Detection CSV as columns, one row per line."""
    frames, frame, values, category = _read_box_csv(str(path), 8)
    return DetectionColumns(frames, frame, np.ascontiguousarray(values[:, :4]), category,
                            values[:, 4].copy())


def _read_box_csv(path: str, n_fields: int):
    """The rows of a box CSV, ground truth (7 fields) or detections (8,
    the last a score), as frames, per-row frame codes, an (n, 4 or 5)
    array of the corners and the score, and categories. Each line streams
    straight into flat arrays, checked as arrays once the file is read. A
    bad row makes that fail; the file is then checked line by line, which
    raises the ``ParseError`` of the first bad line."""
    try:
        return _box_columns(path, n_fields)
    except (ValueError, OverflowError):
        with open(path, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                if line.strip():
                    _check_box_row(path, line_no, line, n_fields)
        raise


def _box_columns(path: str, n_fields: int):
    """Raises ``ValueError`` or ``OverflowError`` for a file where
    ``_check_box_row`` raises ``ParseError`` on some line."""
    raw_frames: dict[tuple[str, str], int] = {}
    frame, category, values = array("q"), array("q"), array("d")
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            fields = line.split(",")
            if len(fields) != n_fields:
                if line.strip():
                    raise ValueError("wrong field count")
                continue
            frame.append(raw_frames.setdefault((fields[0], fields[1]), len(raw_frames)))
            category.append(int(fields.pop(6)))  # OverflowError beyond int64
            values.extend(map(float, fields[2:]))
    if not all(video_id for video_id, _ in raw_frames):
        raise ValueError("empty video_id")
    # one code per (video_id, timestamp) value: "7" and "07" are one frame
    frames: dict[tuple[str, int], int] = {}
    codes = [frames.setdefault((v, _int64(t, "timestamp")), len(frames)) for v, t in raw_frames]
    flat = np.frombuffer(values)
    # a float np.round leaves unchanged is one round(value, 6) leaves
    # unchanged; only values with more than 6 decimals go through round
    with np.errstate(over="ignore", invalid="ignore"):
        off_grid = np.flatnonzero(np.round(flat, 6) != flat)
    flat[off_grid] = [_q6(v) for v in flat[off_grid].tolist()]
    values = flat.reshape(-1, n_fields - 3)
    x1, y1, x2, y2 = values.T[:4]
    score = values[:, 4:]
    if not ((0.0 <= x1) & (x1 < x2) & (x2 <= 1.0) & (0.0 <= y1) & (y1 < y2) & (y2 <= 1.0)
            & ((0.0 <= score) & (score <= 1.0)).all(axis=1)).all():
        raise ValueError("invalid box corners or score")
    frame_codes = np.array(codes, dtype=np.int64)[np.frombuffer(frame, dtype=np.int64)]
    return tuple(frames), frame_codes, values, np.frombuffer(category, dtype=np.int64)


def _check_box_row(path: str, line_no: int, line: str, n_fields: int) -> None:
    fields = line.rstrip("\n").split(",")
    if len(fields) != n_fields:
        raise ParseError(path, line_no, f"expected {n_fields} fields, got {len(fields)}")
    if not fields[0]:
        raise ParseError(path, line_no, "empty video_id")
    try:
        _int64(fields[1], "timestamp")
        x1, y1, x2, y2 = (_q6(float(v)) for v in fields[2:6])
    except ValueError as exc:
        raise ParseError(path, line_no, str(exc)) from None
    if not (0.0 <= x1 < x2 <= 1.0 and 0.0 <= y1 < y2 <= 1.0):
        # the message names the box type of earlier releases, as scripts may match it
        raise ParseError(path, line_no, f"invalid box corners: BoundingBox("
                                        f"x1={x1!r}, y1={y1!r}, x2={x2!r}, y2={y2!r})")
    try:
        _int64(fields[6], "category")
        scores = [_q6(float(v)) for v in fields[7:]]
    except ValueError as exc:
        raise ParseError(path, line_no, str(exc)) from None
    for score in scores:
        if not 0.0 <= score <= 1.0:
            raise ParseError(path, line_no, f"detection score {score} outside [0, 1]")


def serialize_detections(d: DetectionColumns) -> str:
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


def read_feature_dataset(path: str | Path, split: str,
                         n_categories: int | None = None) -> FeatureDataset:
    """Feature JSON lines as the dataset of ``split``. Besides the rules of
    ``_read_records``, a record needs ``split`` as its split, at least one
    label, no negative label (nor one at or beyond ``n_categories`` when
    given), and finite features. Of several bad records, the error names
    the first."""
    path = str(path)
    ids, labels, features, splits, error = _read_records(
        path, "features", "feature length differs from the first record's", "split"
    )
    rows, cols = label_pairs(labels)
    limit = np.inf if n_categories is None else n_categories
    _raise_first(path, error, [
        (np.array([s != split for s in splits], dtype=bool),
         lambda row: f"split {splits[row]!r}, expected {split!r}"),
        (np.bincount(rows, minlength=len(labels)) == 0, "example has no labels"),
        (np.bincount(rows[cols < 0], minlength=len(labels)) > 0, "negative label"),
        (np.bincount(rows[cols >= limit], minlength=len(labels)) > 0,
         f"label beyond the {n_categories} categories"),
        (~np.isfinite(features).all(axis=1), "non-finite feature"),
    ])
    if not labels:
        raise ParseError(path, 0, "no feature records")
    k = n_categories if n_categories is not None else int(cols.max()) + 1
    return FeatureDataset(ids, features, labels, split, k)


def serialize_predictions(example_ids: Sequence[int], targets: np.ndarray,
                          scores: np.ndarray) -> str:
    """One record per example, its labels the true columns of ``targets``."""
    lines = [
        json.dumps({"id": i, "labels": np.flatnonzero(t).tolist(), "scores": row})
        for i, t, row in zip(
            np.asarray(example_ids, dtype=np.int64).tolist(),
            np.asarray(targets, dtype=bool),
            np.asarray(scores, dtype=np.float64).tolist(),
        )
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


def read_predictions(path: str | Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Returns (example ids, n x K multi-hot targets, n x K scores).
    Besides the rules of ``_read_records``, scores must lie in [0, 1] and
    labels in [0, K). Of several bad records, the error names the first."""
    path = str(path)
    ids, labels, scores, _, error = _read_records(path, "scores",
                                                  "inconsistent score vector length")
    k = scores.shape[1]
    rows, cols = label_pairs(labels)
    _raise_first(path, error, [
        # row extremes (NaN propagates): no matrix-sized mask
        (~((scores.min(axis=1, initial=0.0) >= 0.0) & (scores.max(axis=1, initial=1.0) <= 1.0)),
         "scores must lie in [0, 1]"),
        (np.bincount(rows[(cols < 0) | (cols >= k)], minlength=len(labels)) > 0,
         f"labels must lie in [0, {k})"),
    ])
    if not labels:
        raise ParseError(path, 0, "no prediction records")
    return ids, multi_hot(labels, k), scores


def _read_records(path: str, key: str, width_message: str, extra: str | None = None):
    """The records of a JSON-lines file of examples, read up to the first
    one that breaks a rule every such file shares: an int64 ``id`` no
    earlier record has, integer ``labels`` with no label twice, and JSON
    numbers under ``key``, as many as the first record's (else the error
    says ``width_message``). Returns the int64 ids, the label tuples, the
    rows under ``key`` as a float matrix, each record's ``extra`` field
    (None without one), and the deferred ``ParseError`` of the line where
    reading stopped (None if none did)."""
    ids, labels, rows, extras, seen, error = [], [], [], [], set(), None
    try:
        with open(path, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                    example_id = _json_int(record["id"], "id")
                    example_labels = tuple(_json_int(c, "label") for c in record["labels"])
                    row = _json_numbers(record[key], key[:-1])  # "score" or "feature"
                    value = record[extra] if extra else None
                except (KeyError, TypeError, ValueError, OverflowError) as exc:
                    raise ParseError(path, line_no, f"bad record: {exc}") from None
                if example_id in seen:
                    raise ParseError(path, line_no, f"duplicate id {example_id}")
                if len(set(example_labels)) < len(example_labels):
                    raise ParseError(path, line_no, f"repeated label in {list(example_labels)}")
                if rows and len(row) != len(rows[0]):
                    raise ParseError(path, line_no, width_message)
                seen.add(example_id)
                ids.append(example_id)
                labels.append(example_labels)
                rows.append(row)
                extras.append(value)
    except ParseError as exc:
        error = exc  # raised after the row checks: an earlier bad line wins
    matrix = np.array(rows, dtype=np.float64) if rows else np.empty((0, 0))
    return np.array(ids, dtype=np.int64), labels, matrix, extras, error


def _raise_first(path: str, error: ParseError | None, checks: list) -> None:
    """Raise the ``ParseError`` of the first row that any of ``checks``,
    (row mask, message) pairs, flags, with the message of the first check
    flagging it, a string or a function of the row; failing that, raise
    ``error``, whose line follows every row read."""
    flagged = np.any([mask for mask, _ in checks], axis=0)
    if flagged.any():
        row = int(flagged.argmax())
        message = next(message for mask, message in checks if mask[row])
        raise ParseError(path, _record_line(path, row),
                         message if isinstance(message, str) else message(row))
    if error:
        raise error


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
