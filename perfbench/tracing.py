"""Spans around sapeval's layer entry points, recorded from outside the
package, and the per-layer metrics computed from them.

``install`` replaces each entry point with a wrapper in the namespace its
caller looks the name up in (``sapeval.cli.build_eval_pool``, not
``sapeval.pools.build_eval_pool``), so the program itself is unchanged.
Every call records a span ``(trace id, span id, parent span id, name,
start, end)`` in memory; ``Tracer.dump`` writes them out when the pass
ends, and ``Tracer.call_costs`` measures what a span adds to a call.
Counters are taken at the same boundaries. ``layer_metrics`` turns a dump
into the per-layer metrics, with self time = a span's duration minus the
durations of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import time
from array import array
from collections import Counter, defaultdict

#: The IoU threshold every detection workload uses (the CLI default).
IOU_THRESHOLD = 0.5
#: No-op calls timed, wrapped and plain, to measure what a span costs.
PROBE_CALLS = 20_000


class Tracer:
    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        # five numbers per span: span id, parent id, name code, start, end;
        # an array holds no objects the cyclic collector would have to scan
        self.spans = array("d")
        self.names: dict[str, int] = {}
        self.stack: list[int] = []
        self.next_id = itertools.count()
        self.counts: Counter = Counter()

    def span(self, name: str, fn, count=None):
        """Wrap ``fn`` so each call records a span; ``count(counts, args,
        kwargs, result)`` runs after the span has closed."""
        spans, stack, counts, clock = self.spans, self.stack, self.counts, time.perf_counter
        next_id = self.next_id
        code = self.names.setdefault(name, len(self.names))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = next(next_id)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans.extend((span_id, parent, code, start, clock()))
                stack.pop()
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        return wrapper

    def call_costs(self) -> dict[str, float]:
        """Seconds a span and an IoU counter each add to one call, from
        timing ``PROBE_CALLS`` wrapped and plain calls of a no-op."""

        def noop(a, b):
            return 0.0

        probe = Tracer(self.trace_id)
        wrapped = {"span_call_s": probe.span("probe", noop, _increment("probe")),
                   "count_call_s": _count_iou(probe, noop)}
        clock = time.perf_counter

        def timed(fn) -> float:
            start = clock()
            for _ in range(PROBE_CALLS):
                fn(None, None)
            return clock() - start

        plain = timed(noop)
        return {key: max(timed(fn) - plain, 0.0) / PROBE_CALLS
                for key, fn in wrapped.items()}

    def dump(self, path: str) -> None:
        """Write the spans as ``(trace id, span id, parent id, name, start,
        end)`` lists, with the counters."""
        names = {code: name for name, code in self.names.items()}
        fields = [self.spans[i::5] for i in range(5)]
        spans = [(self.trace_id, int(span_id), int(parent), names[int(code)], start, end)
                 for span_id, parent, code, start, end in zip(*fields)]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"counts": dict(self.counts), "spans": spans}))


def _count_iou(tracer: Tracer, fn):
    counts = tracer.counts

    @functools.wraps(fn)
    def wrapper(a, b):
        value = fn(a, b)
        counts["iou_calls"] += 1
        if value >= IOU_THRESHOLD:
            counts["iou_hits"] += 1
        return value

    return wrapper


def _count_hashed(tracer: Tracer, fn):
    counts = tracer.counts

    @functools.wraps(fn)
    def wrapper(path):
        counts["bytes_hashed"] += os.path.getsize(path)
        return fn(path)

    return wrapper


def _records(counts, args, kwargs, result):
    counts["records"] += len(result[0] if isinstance(result, tuple) else result)


def _pool_entries(counts, args, kwargs, result):
    pools = result.values() if isinstance(result, dict) else [result]
    counts["pool_entries"] += sum(p.n_pos + p.n_neg for p in pools)


def _category_scan(cache: dict):
    """Detections passed to build_eval_pool, and how many had the requested
    category. Category counts are taken once per detection list; the cache
    holds the list, so it is cleared when each CLI command returns."""

    def count(counts, args, kwargs, result):
        detections, category = args[1], args[2]
        if id(detections) not in cache:
            cache[id(detections)] = (detections, Counter(d.category for d in detections))
        counts["scan_passed"] += len(detections)
        counts["scan_useful"] += cache[id(detections)][1][category]
        _pool_entries(counts, args, kwargs, result)

    return count


def _clear(cache: dict):
    def count(counts, args, kwargs, result):
        cache.clear()

    return count


def _increment(key: str):
    def count(counts, args, kwargs, result):
        counts[key] += 1

    return count


def _ranked(counts, args, kwargs, result):
    counts["trials"] += 1
    counts["ranked_entries"] += len(args[0])


def _sgd_steps(fn):
    signature = inspect.signature(fn)

    def count(counts, args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        n = len(bound.arguments["features"])
        batches = -(-n // bound.arguments["batch_size"])
        counts["sgd_steps"] += bound.arguments["plan"].epochs * batches

    return count


def _rows(counts, args, kwargs, result):
    counts["oversampled_rows"] += len(result)


def install(trace_id: str) -> Tracer:
    """Import sapeval and wrap its layer entry points; returns the tracer."""
    tracer = Tracer(trace_id)
    modules = {name: importlib.import_module(f"sapeval.{name}")
               for name in ("cli", "boxes", "pools", "metrics", "sampling", "manifest",
                            "training", "benchmark")}
    scan_cache: dict = {}
    spans = [
        # (module where the caller looks the name up, attribute, span, counter)
        ("cli", "main", "cli.command", _clear(scan_cache)),
        ("cli", "read_predictions", "formats.read", _records),
        ("cli", "read_ground_truth_csv", "formats.read", _records),
        ("cli", "read_detections_csv", "formats.read", _records),
        ("cli", "build_eval_pool", "pools.build", _category_scan(scan_cache)),
        ("cli", "pools_from_scores", "pools.build", _pool_entries),
        ("training", "pools_from_scores", "pools.build", _pool_entries),
        ("pools", "_greedy_match", "boxes.match", _increment("match_calls")),
        ("metrics", "match_detections", "boxes.match", _increment("match_calls")),
        ("cli", "average_precision", "metrics.ap", _increment("ap_calls")),
        ("training", "average_precision", "metrics.ap", _increment("ap_calls")),
        ("cli", "frame_ap", "metrics.frame_ap", None),
        ("cli", "roc_auc", "metrics.roc_auc", None),
        ("cli", "stability_profile", "sampling.profile", None),
        ("cli", "sampled_ap", "sampling.sap", None),
        ("training", "sampled_ap", "sampling.sap", None),
        ("sampling", "sampled_ap", "sampling.sap", None),
        ("sampling", "average_precision_from_arrays", "sampling.trial_ap", _ranked),
        ("cli", "write_atomic", "manifest.write", None),
        ("cli", "write_manifest", "manifest.write", None),
        ("benchmark", "synthesize_dataset", "datasets.synth", None),
        ("benchmark", "oversample_balance", "datasets.oversample", _rows),
        ("training", "oversample_balance", "datasets.oversample", _rows),
        ("training", "sgd_train", "training.sgd", _sgd_steps(modules["training"].sgd_train)),
        ("benchmark", "evaluate_model", "training.eval", None),
        ("benchmark", "run_benchmark", "benchmark.run", None),
    ]
    for module, attr, name, count in spans:
        setattr(modules[module], attr, tracer.span(name, getattr(modules[module], attr), count))
    for module in ("boxes", "pools"):
        modules[module].iou = _count_iou(tracer, modules[module].iou)
    modules["manifest"].sha256_file = _count_hashed(tracer, modules["manifest"].sha256_file)
    return tracer


#: Per-layer self-time metrics. Every span name falls in exactly one, so
#: together they add up to the time inside spans.
SELF_TIME_METRICS = {
    "cli.self_s": "cli.command",
    "formats.read_s": "formats.read",
    "pools.self_s": "pools.build",
    "boxes.match_s": "boxes.match",
    "metrics.ap_s": "metrics.ap",
    "metrics.frame_ap_s": "metrics.frame_ap",
    "metrics.roc_auc_s": "metrics.roc_auc",
    "sampling.self_s": ("sampling.sap", "sampling.profile"),
    "sampling.trial_ap_s": "sampling.trial_ap",
    "manifest.write_s": "manifest.write",
    "datasets.synth_s": "datasets.synth",
    "datasets.oversample_s": "datasets.oversample",
    "training.sgd_s": "training.sgd",
    "training.eval_s": "training.eval",
    "benchmark.self_s": "benchmark.run",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(path: str, wall_s: float, ops_s: float,
                  costs: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of one traced pass from its span dump, its wall
    time, the seconds its child process spent running operations and the
    child's ``trace_costs``.

    ``pass.outside_s`` is the wall time outside that window (interpreter
    start, imports, installing the spans, writing them out), measured by
    the pass process itself and not derived from the spans.
    ``trace.overhead_s`` is what tracing added to the wall time: installing
    the spans, measuring their cost and writing them out, plus each span's
    and each IoU counter's measured cost per call times its calls."""
    with open(path, encoding="utf-8") as fh:
        dump = json.load(fh)
    spans, counts = dump["spans"], Counter(dump["counts"])
    if len({s[0] for s in spans}) > 1:
        raise ValueError(f"{path}: spans of more than one pass")
    duration = {s[1]: s[5] - s[4] for s in spans}
    name = {s[1]: s[3] for s in spans}
    children = defaultdict(float)
    for _, span_id, parent, *_ in spans:
        if parent >= 0:
            children[parent] += duration[span_id]
    total, self_time = defaultdict(float), defaultdict(float)
    for span_id, span_name in name.items():
        total[span_name] += duration[span_id]
        self_time[span_name] += duration[span_id] - children[span_id]

    sampling = ("sampling.sap", "sampling.profile")
    sap_s = sum(duration[s[1]] for s in spans
                if s[3] in sampling and (s[2] < 0 or name[s[2]] not in sampling))

    metrics = {key: sum(self_time[n] for n in ((names,) if isinstance(names, str) else names))
               for key, names in SELF_TIME_METRICS.items()}
    sgd_steps = counts["sgd_steps"]
    metrics.update({
        "pass.outside_s": wall_s - ops_s,
        "trace.overhead_s": (costs["install_s"] + costs["probe_and_dump_s"]
                             + len(spans) * costs["span_call_s"]
                             + counts["iou_calls"] * costs["count_call_s"]),
        "trace.wall_s": wall_s,
        "cli.command_s": total["cli.command"],
        "formats.records": counts["records"],
        "boxes.match_calls": counts["match_calls"],
        "boxes.iou_calls": counts["iou_calls"],
        "boxes.iou_hit_ratio": _ratio(counts["iou_hits"], counts["iou_calls"]),
        "pools.build_s": total["pools.build"],
        "pools.entries": counts["pool_entries"],
        "pools.scan_useful_ratio": _ratio(counts["scan_useful"], counts["scan_passed"]),
        "metrics.ap_calls": counts["ap_calls"],
        "sampling.sap_s": sap_s,
        "sampling.trials": counts["trials"],
        "sampling.ranked_entries": counts["ranked_entries"],
        "datasets.oversampled_rows": counts["oversampled_rows"],
        "training.sgd_steps": sgd_steps,
        "training.step_us": _ratio(metrics["training.sgd_s"] * 1e6, sgd_steps),
        "manifest.bytes_hashed": counts["bytes_hashed"],
        "benchmark.run_s": total["benchmark.run"],
    })
    return metrics


def unaccounted_s(metrics: dict[str, float]) -> float:
    """Traced wall time that is neither in a layer's self time nor in
    ``pass.outside_s``: the pass process's own work between operations."""
    return (metrics["trace.wall_s"] - metrics["pass.outside_s"]
            - sum(metrics[key] for key in SELF_TIME_METRICS))


def scaled(metrics: dict[str, float], factor: float) -> dict[str, float]:
    """``metrics`` with every time (``*_s``, ``*_us``) multiplied by ``factor``."""
    return {key: value * factor if key.endswith(("_s", "_us")) else value
            for key, value in metrics.items()}
