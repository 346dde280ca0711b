"""File formats.

Ground-truth CSV (UTF-8, no header), one row per (box, label) pair::

    video_id,timestamp,x1,y1,x2,y2,category_id

Rows sharing (video_id, timestamp, x1, y1, x2, y2) merge into one
multi-label box. Detection CSV adds a trailing ``score`` column.

A text file is read in one binary pass, ``_byte_pass`` (its line count,
and the lines holding a 0x1c-0x1f control), and one text pass, the chunk
loop of both formats, ``_read_chunks``: each chunk of lines, blank ones
dropped, goes to the format's block parser, and a chunk it rejects or
that holds a control, and only that chunk, is read again from where it
began by the format's per-line reader, which raises the first bad line's
error, so every error and line number comes from it. For box CSVs the
block parser, numpy's C parser, ``CHUNK`` lines per call, is the only
code that turns text into values, into ``GroundTruthColumns`` and
``DetectionColumns``: each chunk's structured rows are checked as arrays
and written into columns sized from the line count, then dropped, so that
no copy of the whole file's rows exists. A chunk it rejects or warns on,
whose rows fail that check, or that holds a control it would strip as
whitespace, goes to the line checker, which builds no row. Its grammar is
the C parser's: ``1_0``, non-ASCII digits and 0x1c-0x1f controls are
errors. Coordinates and scores are quantized to 6 decimals on read, so
parse -> serialize -> parse is the identity. Timestamps and category ids
must fit in int64. Frames and instance ids are numbered in sorted order.
In every line-based file, invalid UTF-8 is a parse error at its line.

Feature datasets are JSON lines, one record per example::

    {"id": int, "split": str, "labels": [int, ...], "features": [float, ...]}

Every record of a feature file names that file's split, and the first
label is the example's generating (primary) category. Prediction files
are JSON lines of ``{"id", "labels", "scores"}`` where ``scores`` has one
entry per category. One reader reads both kinds and holds the rules they
share: int64 ids, no id twice, integer labels, no label twice, and rows
of equal width. Its block parser takes ``JSON_BLOCK`` lines at a time:
json's C scanner decodes each line, which must be one value up to its
newline, the shared rules are checked once for the block, and one
``np.array`` builds its rows, written into one float64 matrix sized from
the line count. A block it cannot take whole (a bad record, a line that
is not one value, a boolean where numpy would read a number, an
undecodable byte) goes to the per-line reader, which decodes any other
line with ``json.loads`` and raises every decode error. Labels leave as
an n x K multi-hot matrix: category-major for predictions, so that pools
are views of them, row-major for features, which training gathers by
row. Each reader then checks its own rules as one row mask per rule, and
the first bad line's error is raised.
"""

from __future__ import annotations

import itertools
import json
import math
import re
import warnings
from pathlib import Path

import numpy as np

from .boxes import DetectionColumns, GroundTruthColumns
from .datasets import FeatureDataset, HeadTailSplit, label_pairs, multi_hot
from .errors import ParseError
from .pools import _sort_runs


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
    number the boxes in sorted (video_id, timestamp, corners) order, so
    that they do not depend on the order of the lines."""
    frames, frame, boxes, category, _ = _read_box_csv(str(path), 7)
    first, instance = _number_runs(frame, *boxes.T)  # frames are numbered in sorted order
    pairs, distinct = _sort_runs(instance, category)  # one (box, category) pair per run
    pairs = pairs[distinct]
    return GroundTruthColumns(frames, frame[first], boxes[first], np.arange(len(first)),
                              instance[pairs], category[pairs])


def read_detections_csv(path: str | Path) -> DetectionColumns:
    """Detection CSV as columns, one row per line."""
    return DetectionColumns(*_read_box_csv(str(path), 8))


_BOX_FIELDS = [("video", "i8"), ("timestamp", "i8"), ("box", "f8", (4,)), ("category", "i8")]
#: a box CSV row by its field count; the C parser checks the count
_BOX_ROWS = {7: np.dtype(_BOX_FIELDS), 8: np.dtype([*_BOX_FIELDS, ("score", "f8")])}
#: the controls the C parser strips around a number as whitespace, and
#: ``int`` and ``float`` do not; ``_byte_pass`` finds them
_C_ONLY_SPACE = "\x1c\x1d\x1e\x1f"
#: lines per ``_read_chunks`` chunk of a box CSV, one ``np.loadtxt`` call: one
#: chunk's rows are the only copy of the data a box CSV read holds beside its
#: columns, and a chunk the C parser rejects is checked again line by line
CHUNK = 1 << 14
#: lines per ``_read_chunks`` block of a JSON-lines file, decoded line by line
#: by json's C scanner and checked once; far fewer than ``CHUNK``, as a
#: block's decoded records hold a Python float per value
JSON_BLOCK = 64


def _read_chunks(path: str, size: int, controls: list[int], parse_chunk, read_lines) -> None:
    """Read ``path`` ``size`` lines at a time through one text handle.
    ``parse_chunk`` gets each chunk's lines that are not whitespace only, as
    an iterator, and says whether it read them all, leaving nothing changed
    when it did not. A chunk it rejects, or one holding a line of
    ``controls`` (0-based line numbers), and only that chunk, is read again
    from the same handle, sought back to its own first line, by
    ``read_lines``: the format's per-line reader, which gets the chunk's
    (line number, line) pairs from ``_numbered`` and raises the first bad
    line's ``ParseError``."""
    control_chunks = {line // size for line in controls}
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for number in itertools.count():
            # readline, as iterating the handle disables tell(); a fresh
            # iterator per read, as one stays exhausted once it meets the end
            start = fh.tell()
            if not (line := fh.readline()):
                return
            chunk = itertools.chain((line,), itertools.islice(iter(fh.readline, ""), size - 1))
            if number in control_chunks or not parse_chunk(
                    itertools.filterfalse(str.isspace, chunk)):
                fh.seek(start)
                read_lines(_numbered(path, itertools.islice(iter(fh.readline, ""), size),
                                     number * size + 1))


def _read_box_csv(path: str, n_fields: int):
    """The rows of a box CSV, ground truth (7 fields) or detections (8,
    the last a score): the frames, each (video_id, timestamp) once in
    sorted order, each row's index into them, the (n, 4) corners, the
    categories, and the scores (None for ground truth).

    ``_read_chunks`` hands each ``CHUNK`` to numpy's C parser, which writes
    it into columns sized from the line count. A chunk it rejects or warns
    on, or one holding a ``_C_ONLY_SPACE`` control, goes to
    ``_check_box_row``, which raises the first bad line's ``ParseError``;
    with none (a control in a blank line), the C parser reads it after all."""
    n_lines, controls = _byte_pass(path)
    videos, columns, dtype = _Codes(), _BoxColumns(n_lines, n_fields), _BOX_ROWS[n_fields]

    def parse_chunk(chunk) -> bool:
        try:
            columns.add(np.loadtxt(chunk, dtype, delimiter=",", comments=None, ndmin=1,
                                   converters={0: videos.__getitem__}))
            return True
        except (ValueError, OverflowError, Warning):
            return False

    def read_lines(numbered) -> None:
        # each line checked before the next is read: an earlier bad line wins
        lines = [_check_box_row(path, *line, n_fields) or line for line in numbered]
        if lines and not parse_chunk(text for _, text in lines):
            raise ParseError(path, lines[0][0], "chunk rejected by numpy's C parser")

    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning sends the chunk to the line checker
        _read_chunks(path, CHUNK, controls, parse_chunk, read_lines)
    return columns.finish(videos)


class _Codes(dict):
    """Strings to int codes in order of first appearance; ``ValueError`` for
    an empty string or one holding a byte ``_numbered`` rejects."""

    def __missing__(self, key: str) -> int:
        if not key or (not key.isascii() and _UNDECODED.search(key)):
            raise ValueError(f"video_id {key!r}")
        self[key] = code = len(self)
        return code


def _byte_pass(path: str) -> tuple[int, list[int]]:
    """How many lines ``path`` has, blank ones too (a last line needs no
    end), and the 0-based number of the line of each ``_C_ONLY_SPACE``
    control, lines split as text-mode reads split them."""
    count, last, controls = 0, b"", []
    for block in _blocks(path):
        if any(control.encode() in block for control in _C_ONLY_SPACE):
            codes = np.frombuffer(block, np.uint8)
            at = np.flatnonzero((codes >= 0x1C) & (codes <= 0x1F))
            controls += (np.searchsorted(np.flatnonzero(_line_ends(block)), at) + count).tolist()
        # no mask held into the next block's read, which doubled this pass's time
        count += np.count_nonzero(_line_ends(block))
        last = block[-1:]
    return count + (last not in (b"", b"\n", b"\r")), controls


def _blocks(path: str):
    """The bytes of ``path`` in 256 KiB blocks, a ``\\r\\n`` never split
    between two."""
    with open(path, "rb") as fh:
        while block := fh.read(1 << 18):
            while block.endswith(b"\r") and (byte := fh.read(1)):
                block += byte
            yield block


def _line_ends(block: bytes) -> np.ndarray:
    """The mask of the bytes of ``block`` that end a line, as text-mode reads
    split lines: ``\\n``, and ``\\r`` not followed by ``\\n``."""
    codes = np.frombuffer(block, np.uint8)
    ends = codes == ord("\n")
    if b"\r" in block:
        returns = codes == ord("\r")
        returns[:-1] &= ~ends[1:]
        ends |= returns
    return ends


class _BoxColumns:
    """The columns of a box CSV, sized for ``n_rows`` rows and written one
    chunk of structured rows at a time, corners and scores quantized."""

    def __init__(self, n_rows: int, n_fields: int):
        self.n = 0
        self.video, self.timestamp, self.category = (np.empty(n_rows, np.int64) for _ in range(3))
        self.boxes = np.empty((n_rows, 4))
        self.score = np.empty(n_rows) if n_fields == 8 else None

    def add(self, rows: np.ndarray) -> None:
        """Write ``rows`` after the rows so far; ``ValueError`` for a bad
        box or a score outside [0, 1], with no row counted."""
        part = slice(self.n, self.n + len(rows))
        for name in ("video", "timestamp", "category"):
            getattr(self, name)[part] = rows[name]
        boxes = self.boxes[part]
        boxes[:] = rows["box"]
        _quantize(boxes.reshape(-1))
        x1, y1, x2, y2 = boxes.T
        valid = (0.0 <= x1) & (x1 < x2) & (x2 <= 1.0) & (0.0 <= y1) & (y1 < y2) & (y2 <= 1.0)
        if self.score is not None:
            score = self.score[part]
            score[:] = rows["score"]
            _quantize(score)
            valid &= (0.0 <= score) & (score <= 1.0)
        if not valid.all():
            raise ValueError("invalid box corners or score")
        self.n = part.stop

    def finish(self, videos: dict[str, int]):
        """``_read_box_csv``'s result for the rows written, their videos codes in ``videos``."""
        n, names = self.n, sorted(videos)
        video, stamp = self.video[:n], self.timestamp[:n]
        position = dict(zip(names, itertools.count()))
        video[:] = np.array([position[name] for name in videos], dtype=np.int64)[video]
        low, high = (int(stamp.min()), int(stamp.max())) if n else (0, 0)
        span = high - low + 1
        # one frame per (video_id, timestamp) value: "7" and "07" are one frame
        if len(names) * span < 2**63:
            # each frame as one int64 key, written over the video codes: one
            # unstable sort instead of a two-key lexsort, and the timestamps
            # go before it (a 120k-row read: 9 ms and a 1.9x peak -> 1.45x)
            key = video
            key *= span
            stamp -= low
            key += stamp
            self.video = self.timestamp = video = stamp = None
            first, frame = _number_runs(key)
            frames = tuple((names[k // span], k % span + low) for k in key[first].tolist())
        else:  # timestamps too far apart to pack
            first, frame = _number_runs(video, stamp)
            frames = tuple(zip([names[v] for v in video[first].tolist()],
                               stamp[first].tolist()))
        score = None if self.score is None else self.score[:n]
        return frames, frame, self.boxes[:n], self.category[:n], score


def _quantize(values: np.ndarray) -> None:
    """Set each value of the 1-D ``values`` to ``round(value, 6)``."""
    # a float np.round leaves unchanged is one round(value, 6) leaves
    # unchanged; only values with more than 6 decimals go through round
    with np.errstate(over="ignore", invalid="ignore"):
        off_grid = np.flatnonzero(np.round(values, 6) != values)
    values[off_grid] = [round(v, 6) for v in values[off_grid].tolist()]


def _number_runs(*keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows grouped by equal keys, groups numbered in sorted key order: each
    group's first row, by group, and each row's group."""
    order, starts = _sort_runs(*keys)
    first = np.minimum.reduceat(order, np.flatnonzero(starts))
    run = np.cumsum(starts)
    run -= 1  # in place: a 120k-row detection read peaks 0.9 MB lower
    group = np.empty(len(order), dtype=np.int64)
    group[order] = run
    return first, group


def _check_box_row(path: str, line_no: int, line: str, n_fields: int) -> None:
    """Raise the ``ParseError`` of one box CSV line if it is bad, checking a
    0x1c-0x1f control anywhere, the field count, the video id, numbers the C
    parser cannot read, then each value in field order; return nothing."""
    if control := re.search(f"[{_C_ONLY_SPACE}]", line):
        raise ParseError(path, line_no, f"control character 0x{ord(control.group()):02x}")
    fields = line.rstrip("\n").split(",")
    if len(fields) != n_fields:
        raise ParseError(path, line_no, f"expected {n_fields} fields, got {len(fields)}")
    if not fields[0]:
        raise ParseError(path, line_no, "empty video_id")
    for i, field in enumerate(fields[1:], start=2):  # where int and float read 1_0 or ７
        if "_" in field or not field.strip().isascii():
            raise ParseError(path, line_no, f"field {i} {field!r} is not an ASCII number")
    try:
        _int64(fields[1], "timestamp")
        x1, y1, x2, y2 = (round(float(v), 6) for v in fields[2:6])
    except ValueError as exc:
        raise ParseError(path, line_no, str(exc)) from None
    if not (0.0 <= x1 < x2 <= 1.0 and 0.0 <= y1 < y2 <= 1.0):
        # the message names the box type of earlier releases, as scripts may match it
        raise ParseError(path, line_no, f"invalid box corners: BoundingBox("
                                        f"x1={x1!r}, y1={y1!r}, x2={x2!r}, y2={y2!r})")
    try:
        _int64(fields[6], "category")
        scores = [round(float(v), 6) for v in fields[7:]]
    except ValueError as exc:
        raise ParseError(path, line_no, str(exc)) from None
    for score in scores:
        if not 0.0 <= score <= 1.0:
            raise ParseError(path, line_no, f"detection score {score} outside [0, 1]")


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
    rows, cols = pairs = label_pairs(labels)
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
    return FeatureDataset(ids, features, labels, split, k, pairs)


def _json_numbers(values: list, what: str) -> list:
    """``values`` as floats if all are JSON numbers; ``ValueError`` for a
    string, boolean or null, ``OverflowError`` for an integer beyond the
    float range."""
    kinds = {*map(type, values)}
    if not kinds <= {float, int}:
        bad = next(v for v in values if type(v) not in (float, int))
        raise ValueError(f"{what} {bad!r} is not a number")
    return [float(v) for v in values] if int in kinds else values


def _finite_numbers(values: list, what: str) -> list:
    """``_json_numbers`` that must all be finite: ``ValueError`` for NaN or
    an infinity."""
    numbers = _json_numbers(values, what)
    non_finite = [v for v in numbers if not math.isfinite(v)]
    if non_finite:
        raise ValueError(f"{what} {non_finite[0]} is not finite")
    return numbers


def _check_once(categories: list[int]) -> None:
    """``ValueError`` naming the first category listed twice."""
    if len(set(categories)) < len(categories):
        twice = next(c for c in categories if categories.count(c) > 1)
        raise ValueError(f"category {twice} listed twice")


def read_predictions(path: str | Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Returns (example ids, n x K multi-hot targets, n x K scores), the
    two matrices category-major, so that each category's column is
    contiguous. Besides the rules of ``_read_records``, scores must lie in
    [0, 1] and labels in [0, K). Of several bad records, the error names
    the first."""
    path = str(path)
    ids, labels, scores, _, error = _read_records(path, "scores",
                                                  "inconsistent score vector length", order="F")
    k = scores.shape[1]
    rows, cols = pairs = label_pairs(labels)
    _raise_first(path, error, [
        # row extremes (NaN propagates): no matrix-sized mask
        (~((scores.min(axis=1, initial=0.0) >= 0.0) & (scores.max(axis=1, initial=1.0) <= 1.0)),
         "scores must lie in [0, 1]"),
        (np.bincount(rows[(cols < 0) | (cols >= k)], minlength=len(labels)) > 0,
         f"labels must lie in [0, {k})"),
    ])
    if not labels:
        raise ParseError(path, 0, "no prediction records")
    return ids, multi_hot(pairs, len(labels), k, order="F"), scores


def _read_records(path: str, key: str, width_message: str, extra: str | None = None,
                  order: str = "C"):
    """The records of a JSON-lines file of examples, read up to the first
    one that breaks a rule every such file shares: an int64 ``id`` no
    earlier record has, integer ``labels`` with no label twice, and JSON
    numbers under ``key``, as many as the first record's (else the error
    says ``width_message``). Returns the int64 ids, the label tuples, the
    rows under ``key`` as a float64 matrix in ``order`` ("C" row-major, "F"
    column-major), each record's ``extra`` field (None without one), and
    the deferred ``ParseError`` of the line where reading stopped (None if
    none did).

    ``_read_chunks`` hands each ``JSON_BLOCK`` of lines to
    ``_Records.add_block``, and a block it rejects to ``add_lines``."""
    n_lines, controls = _byte_pass(path)
    records, error = _Records(path, key, width_message, extra, order, n_lines), None
    try:
        _read_chunks(path, JSON_BLOCK, controls, lambda chunk: records.add_block(list(chunk)),
                     records.add_lines)
    except ParseError as exc:
        error = exc  # raised after the row checks: an earlier bad line wins
    return (*records.finish(), error)


class _Records:
    """The records of ``_read_records``' file read so far: ids, label tuples
    and ``extra`` fields in lists, and rows in one float64 matrix with a row
    for every line of the file, made at the first record; when blank lines
    or a stop leave some rows unused, ``finish`` copies the rows read out
    once."""

    def __init__(self, path: str, key: str, width_message: str, extra: str | None, order: str,
                 n_lines: int):
        self.path, self.key, self.width_message, self.extra = path, key, width_message, extra
        self.ids, self.labels, self.extras, self.seen = [], [], [], set()
        self.n_lines, self.order, self.matrix = n_lines, order, None

    def fits(self, width: int) -> bool:
        """Whether rows of ``width`` go in the matrix, made for them if none is."""
        if self.matrix is None:
            self.matrix = np.empty((self.n_lines, width), order=self.order)
        return self.matrix.shape[1] == width

    def add_lines(self, numbered) -> None:
        """Add the records of (line number, line) pairs one at a time; the
        ``ParseError`` of the first line that breaks a rule."""
        path = self.path
        for line_no, line in numbered:
            try:
                example_id, example_labels, row, value = _record(line, self.key, self.extra)
            except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
                raise ParseError(path, line_no, f"bad record: {exc}") from None
            if example_id in self.seen:
                raise ParseError(path, line_no, f"duplicate id {example_id}")
            if len(set(example_labels)) < len(example_labels):
                raise ParseError(path, line_no, f"repeated label in {list(example_labels)}")
            if not self.fits(len(row)):
                raise ParseError(path, line_no, self.width_message)
            self.matrix[len(self.ids)] = row
            self.seen.add(example_id)
            self.ids.append(example_id)
            self.labels.append(example_labels)
            self.extras.append(value)

    def add_block(self, lines: list[str]) -> bool:
        """Add the records of ``lines`` if ``add_lines`` would add them all
        as they are, checking each rule once for the block; else False,
        with nothing added. json's C scanner decodes each line, which must
        be one value up to its newline, and one ``np.array`` builds the
        rows, taken only as a 2-D float64 or int64 array."""
        if not lines:
            return True  # a block of blank lines
        if not lines[0].endswith(("}\n", "}")):
            return False  # saves decoding a block of, say, lines with trailing blanks
        if not all(map(str.isascii, lines)) and any(map(_UNDECODED.search, lines)):
            return False  # _numbered raises at an escaped byte
        try:
            records, ends = zip(*map(_scan, lines, itertools.repeat(0)))
            ids = [record["id"] for record in records]
            labels = [tuple(record["labels"]) for record in records]
            rows = np.array([record[self.key] for record in records])
            extras = ([record[self.extra] for record in records] if self.extra
                      else [None] * len(lines))
        except (StopIteration, KeyError, TypeError, ValueError, OverflowError, RecursionError):
            return False
        ints = [*ids, *itertools.chain.from_iterable(labels)]
        # every line but the file's last ends at "\n": one value up to it leaves only that
        if (sum(map(len, lines)) - sum(ends) != len(lines) - (not lines[-1].endswith("\n"))
                or {*map(type, ints)} != {int} or min(ints) < -(2**63) or max(ints) >= 2**63
                or rows.ndim != 2 or rows.dtype not in (np.float64, np.int64)
                or len({*ids}) < len(ids) or not self.seen.isdisjoint(ids)
                or any(len({*t}) < len(t) for t in labels if len(t) > 1)):
            return False
        if ((rows == 0) | (rows == 1)).any():  # where np.array may have read a bool
            text = "".join(lines)
            if "true" in text or "false" in text:
                return False
        if not self.fits(rows.shape[1]):
            return False
        n = len(self.ids)
        self.matrix[n:n + len(rows)] = rows
        self.seen.update(ids)
        self.ids += ids
        self.labels += labels
        self.extras += extras
        return True

    def finish(self):
        """The int64 ids, label tuples, rows and ``extra`` fields read."""
        matrix = self.matrix
        if matrix is None:
            matrix = np.empty((0, 0))
        elif len(self.ids) < len(matrix):
            matrix = np.array(matrix[:len(self.ids)], order=self.order)
        return np.array(self.ids, dtype=np.int64), self.labels, matrix, self.extras


_scan = json.JSONDecoder().scan_once  # the C scanner of json.loads


def _record(line: str, key: str, extra: str | None):
    """The int64 id, label tuple, numbers under ``key`` as floats and
    ``extra`` field (None without one) of one JSON line. The C scanner
    decodes a line that is one value up to its newline, ``json.loads`` any
    other; ``_json_int`` and ``_json_numbers`` check the fields, raising
    every error, and a value that is not an object is "not a JSON object"."""
    try:
        record, end = _scan(line, 0)
        if line[end:] not in ("\n", ""):
            raise ValueError("not one value up to the newline")
    except (StopIteration, ValueError):
        record = json.loads(line)
    if type(record) is not dict:
        raise ValueError("not a JSON object")
    return (_json_int(record["id"], "id"), tuple(_json_int(c, "label") for c in record["labels"]),
            _json_numbers(record[key], key[:-1]), record[extra] if extra else None)


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
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        return next(itertools.islice(_numbered(path, fh), row, None))[0]


#: what an undecodable byte becomes under ``errors="surrogateescape"``
_UNDECODED = re.compile("[\udc80-\udcff]")


def _numbered(path: str, lines, first: int = 1):
    """(line number, line) of each of ``lines``, lines of ``path`` read with
    undecodable bytes escaped, that is not whitespace only, numbered from
    ``first``. Invalid UTF-8 is the ``ParseError`` of the first line holding
    an escaped byte, raised once every line before it has been yielded."""
    for line_no, line in enumerate(lines, start=first):
        if not line.isascii() and (bad := _UNDECODED.search(line)):
            byte = ord(bad.group()) - 0xDC00
            raise ParseError(path, line_no, f"invalid UTF-8 byte 0x{byte:02x}")
        if not line.isspace():
            yield line_no, line


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
        _check_once([c for c, _ in pairs])
        aps = _finite_numbers([ap for _, ap in scored], "AP")
        return dict(zip([c for c, _ in scored], aps))
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
        raise ParseError(str(path), getattr(exc, "lineno", 0), f"bad AP file: {exc!r}") from None


def read_split(path: str | Path) -> HeadTailSplit:
    """Head/tail split as the ``split`` command writes it: integer ``head``
    and ``tail`` lists that name no category twice, and an optional finite
    ``threshold``."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        head, tail = ([_json_int(c, "category") for c in payload[side]]
                      for side in ("head", "tail"))
        _check_once(head + tail)
        (threshold,) = _finite_numbers([payload.get("threshold", 0.0)], "threshold")
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:  # JSONDecodeError too
        raise ParseError(str(path), getattr(exc, "lineno", 0), f"bad split: {exc!r}") from None
    return HeadTailSplit(frozenset(head), frozenset(tail), threshold)
