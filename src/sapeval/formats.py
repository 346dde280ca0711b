"""File formats.

Ground-truth CSV (UTF-8, no header), one row per (box, label) pair::

    video_id,timestamp,x1,y1,x2,y2,category_id

Rows sharing (video_id, timestamp, x1, y1, x2, y2) merge into one
multi-label instance. Detection CSV adds a trailing ``score`` column.
Coordinates and scores are written as 6-decimal fixed point and quantized
to that grid on read, so parse -> serialize -> parse is the identity.

Feature datasets are JSON lines, one record per example::

    {"id": int, "split": str, "labels": [int, ...], "features": [float, ...]}

The first label is the example's generating (primary) category. Prediction
files are JSON lines of ``{"id", "labels", "scores"}`` where ``scores``
has one entry per category.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Sequence

import numpy as np

from .boxes import BoundingBox, Detection, FrameKey, GroundTruthInstance
from .datasets import Example, FeatureDataset
from .errors import ParseError


def _q6(value: float) -> float:
    return round(value, 6)


def _fmt6(value: float) -> str:
    return f"{value:.6f}"


def _json_int(value, what: str) -> int:
    """``value`` if it is a JSON integer; ``ValueError`` for a float, a
    string or a boolean, which ``int()`` would convert silently."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} {value!r} is not an integer")
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
        timestamp = int(fields[1])
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
                category = int(fields[6])
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


def read_detections_csv(path: str | Path) -> list[Detection]:
    path = str(path)
    detections = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            fields = _parse_row(path, line_no, line, 8)
            frame, box = _parse_common(path, line_no, fields)
            try:
                category = int(fields[6])
                score = _q6(float(fields[7]))
            except ValueError as exc:
                raise ParseError(path, line_no, str(exc)) from None
            try:
                detections.append(Detection(frame, box, category, score))
            except ValueError as exc:
                raise ParseError(path, line_no, str(exc)) from None
    return detections


def serialize_detections(detections: Sequence[Detection]) -> str:
    lines = [
        ",".join(
            [
                d.frame.video_id,
                str(d.frame.timestamp),
                *(_fmt6(v) for v in d.box.as_tuple()),
                str(d.category),
                _fmt6(d.score),
            ]
        )
        for d in detections
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def serialize_feature_dataset(dataset: FeatureDataset) -> str:
    lines = [
        json.dumps(
            {
                "id": e.example_id,
                "split": dataset.split,
                "labels": list(e.labels),
                "features": [float(v) for v in e.features],
            }
        )
        for e in dataset.examples
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def read_feature_dataset(path: str | Path, n_categories: int | None = None) -> FeatureDataset:
    path = str(path)
    examples = []
    split = ""
    max_label = -1
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                example = Example(
                    _json_int(record["id"], "id"),
                    np.asarray(record["features"], dtype=np.float64),
                    tuple(_json_int(c, "label") for c in record["labels"]),
                )
                split = str(record["split"])
            except (KeyError, TypeError, ValueError) as exc:
                raise ParseError(path, line_no, f"bad record: {exc}") from None
            if not example.labels:
                raise ParseError(path, line_no, "example has no labels")
            if min(example.labels) < 0:
                raise ParseError(path, line_no, "negative label")
            if n_categories is not None and max(example.labels) >= n_categories:
                raise ParseError(path, line_no, f"label beyond the {n_categories} categories")
            if examples and example.features.shape != examples[0].features.shape:
                raise ParseError(path, line_no, "feature length differs from the first record's")
            max_label = max(max_label, *example.labels)
            examples.append(example)
    k = n_categories if n_categories is not None else max_label + 1
    return FeatureDataset(examples, split, k)


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


def read_predictions(path: str | Path) -> tuple[list[int], list[frozenset[int]], np.ndarray]:
    """Returns (example ids, label sets, score matrix)."""
    path = str(path)
    ids: list[int] = []
    labels: list[frozenset[int]] = []
    rows: list[list[float]] = []
    seen: set[int] = set()
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                ids.append(_json_int(record["id"], "id"))
                labels.append(frozenset(_json_int(c, "label") for c in record["labels"]))
                rows.append([float(v) for v in record["scores"]])
            except (KeyError, TypeError, ValueError) as exc:
                raise ParseError(path, line_no, f"bad record: {exc}") from None
            if ids[-1] in seen:
                raise ParseError(path, line_no, f"duplicate id {ids[-1]}")
            seen.add(ids[-1])
            if rows and len(rows[-1]) != len(rows[0]):
                raise ParseError(path, line_no, "inconsistent score vector length")
    if not ids:
        raise ParseError(path, 0, "no prediction records")
    return ids, labels, np.asarray(rows, dtype=np.float64)


def read_category_ap(path: str | Path) -> dict[int, float]:
    """Per-category AP map from either a plain ``{\"category\": ap}`` object
    or a report JSON carrying a ``categories`` list."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if isinstance(payload, dict) and "categories" in payload:
        return {
            int(c["category"]): float(c["ap"])
            for c in payload["categories"]
            if c.get("ap") is not None
        }
    return {int(k): float(v) for k, v in payload.items()}
