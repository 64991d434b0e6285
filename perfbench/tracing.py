"""Spans around the calls through which one driftscope layer calls the next.

The tracer replaces module attributes with wrappers that record a span per
call: its name, the operation it belongs to, start, end, parent span and a
few counts read from the call's result. Spans stay in memory and are
written to a file when the run ends. Garbage-collector pauses are recorded
through ``gc.callbacks``.

A wrapped name that no longer exists raises :class:`TraceError` when the
tracer is installed, and a span that never fires raises it when the
metrics are read, so a broken trace can never read as zero work.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import time
from dataclasses import dataclass, field

#: Spans each traced run must see; the Granger scan only where it runs.
REQUIRED = (
    "cli.main", "ingest.parse", "model.sort_and_validate", "pipeline.run",
    "timeseries.build_intervals", "timeseries.build_time_series",
    "changepoint.pelt", "pipeline.to_json",
)
SCAN = "causality.test_all_pairs"

#: Per-layer metrics in output order, with their units.
UNITS = {
    "ingest.parse_s": "s",
    "ingest.events": "count",
    "ingest.rss_mb": "MB",
    "model.validate_s": "s",
    "python.gc_s": "s",
    "python.gc_collections": "count",
    "timeseries.intervals_s": "s",
    "timeseries.series_s": "s",
    "timeseries.cells": "count",
    "changepoint.pelt_s": "s",
    "changepoint.evaluations": "count",
    "changepoint.change_points": "count",
    "causality.scan_s": "s",
    "causality.scans": "count",
    "causality.scan_lags": "count",
    "causality.pairs_tested": "count",
    "causality.pairs_degenerate": "count",
    "causality.pairs_significant": "count",
    "pipeline.run_s": "s",
    "pipeline.self_s": "s",
    "pipeline.report_s": "s",
    "pipeline.report_bytes": "bytes",
    "cli.main_s": "s",
    "cli.self_s": "s",
}


class TraceError(RuntimeError):
    """The trace cannot be trusted: a wrapped name or a span is missing."""


@dataclass
class Span:
    name: str
    op: int
    span_id: int
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _parse_counts(args, kwargs, log) -> dict:
    return {"events": log.event_count, "rss_mb": _rss_mb()}


def _series_counts(args, kwargs, matrix) -> dict:
    return {"cells": matrix.n_features * matrix.n_intervals}


def _pelt_counts(args, kwargs, cps) -> dict:
    return {"evaluations": cps.evaluations, "change_points": len(cps)}


def _scan_counts(args, kwargs, scan) -> dict:
    lag = args[2] if len(args) > 2 else kwargs["lag"]
    return {
        "lag": lag,
        "tested": scan.tested,
        "degenerate": scan.skipped_degenerate,
        "significant": len(scan.pairs),
    }


def _json_counts(args, kwargs, text) -> dict:
    return {"bytes": len(text.encode("utf-8"))}


class Tracer:
    def __init__(self, scans: bool):
        self.required = REQUIRED + ((SCAN,) if scans else ())
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._op = -1
        self._gc_start = 0.0
        self.gc_seconds: list[float] = []
        self.gc_collections: list[int] = []

    def install(self) -> None:
        import driftscope.cli as cli
        import driftscope.ingest as ingest
        import driftscope.pipeline as pipeline

        self._wrap(cli, "parse_csv", "ingest.parse", _parse_counts)
        self._wrap(cli, "parse_xes", "ingest.parse", _parse_counts)
        self._wrap(ingest, "sort_and_validate", "model.sort_and_validate")
        self._wrap(cli, "run", "pipeline.run")
        self._wrap(pipeline, "build_intervals", "timeseries.build_intervals")
        self._wrap(pipeline, "build_time_series", "timeseries.build_time_series",
                   _series_counts)
        self._wrap(pipeline, "pelt", "changepoint.pelt", _pelt_counts)
        self._wrap(pipeline, "test_all_pairs", SCAN, _scan_counts)
        self._wrap(pipeline.AnalysisReport, "to_json", "pipeline.to_json", _json_counts)
        gc.callbacks.append(self._on_gc)

    def _wrap(self, owner, attr: str, name: str, counts=None) -> None:
        original = getattr(owner, attr, None)
        if original is None:
            raise TraceError(f"cannot trace {name}: {owner.__name__}.{attr} does not exist")
        tracer = self

        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(span)
            if counts is not None:
                span.counts = counts(args, kwargs, result)
            return result

        traced.__wrapped__ = original
        setattr(owner, attr, traced)

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(name, self._op, len(self.spans), parent, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def _on_gc(self, phase: str, info: dict) -> None:
        if not self._stack:
            return
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_seconds[self._op] += time.perf_counter() - self._gc_start
            self.gc_collections[self._op] += 1

    def operation(self, call):
        """Run one operation under a root span named ``cli.main``."""
        self._op += 1
        self.gc_seconds.append(0.0)
        self.gc_collections.append(0)
        span = self._open("cli.main")
        try:
            return call()
        finally:
            self._close(span)

    def metrics(self) -> dict:
        """Per-layer metrics: the median over operations of each figure."""
        fired = {s.name for s in self.spans}
        missing = [name for name in self.required if name not in fired]
        if missing:
            raise TraceError(f"spans never fired: {', '.join(missing)}")
        per_op = [self._op_metrics(op) for op in range(self._op + 1)]
        out = {}
        for name, unit in UNITS.items():
            values = [m[name] for m in per_op]
            if name == "ingest.rss_mb":
                # The high-water mark only means "right after parsing" in the
                # first operation; later ones inherit the peaks before them.
                out[name] = values[0]
            elif unit == "s":
                out[name] = statistics.median(values)
            else:
                out[name] = statistics.median_low(values)
        return out

    def _op_metrics(self, op: int) -> dict:
        spans = [s for s in self.spans if s.op == op]
        by_name: dict[str, list[Span]] = {}
        for s in spans:
            by_name.setdefault(s.name, []).append(s)

        def total(name: str) -> float:
            return sum((s.seconds for s in by_name.get(name, ())), 0.0)

        def count(name: str, key: str) -> int:
            return sum(s.counts.get(key, 0) for s in by_name.get(name, ()))

        scans = by_name.get(SCAN, [])
        (root,) = by_name["cli.main"]
        (run,) = by_name["pipeline.run"]
        (parse,) = by_name["ingest.parse"]
        return {
            "ingest.parse_s": total("ingest.parse"),
            "ingest.events": count("ingest.parse", "events"),
            "ingest.rss_mb": parse.counts["rss_mb"],
            "model.validate_s": total("model.sort_and_validate"),
            "python.gc_s": self.gc_seconds[op],
            "python.gc_collections": self.gc_collections[op],
            "timeseries.intervals_s": total("timeseries.build_intervals"),
            "timeseries.series_s": total("timeseries.build_time_series"),
            "timeseries.cells": count("timeseries.build_time_series", "cells"),
            "changepoint.pelt_s": total("changepoint.pelt"),
            "changepoint.evaluations": count("changepoint.pelt", "evaluations"),
            "changepoint.change_points": count("changepoint.pelt", "change_points"),
            "causality.scan_s": total(SCAN),
            "causality.scans": len(scans),
            "causality.scan_lags": len({s.counts["lag"] for s in scans}),
            "causality.pairs_tested": count(SCAN, "tested"),
            "causality.pairs_degenerate": count(SCAN, "degenerate"),
            "causality.pairs_significant": count(SCAN, "significant"),
            "pipeline.run_s": run.seconds,
            "pipeline.self_s": _self_seconds(run, spans),
            "pipeline.report_s": total("pipeline.to_json"),
            "pipeline.report_bytes": count("pipeline.to_json", "bytes"),
            "cli.main_s": root.seconds,
            "cli.self_s": _self_seconds(root, spans),
        }

    def write(self, path) -> None:
        records = [
            {
                "name": s.name, "op": s.op, "id": s.span_id, "parent": s.parent,
                "start": s.start, "end": s.end, "counts": s.counts,
            }
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": records, "gc_seconds": self.gc_seconds,
                       "gc_collections": self.gc_collections}, fh, indent=1)


def _self_seconds(span: Span, spans: list[Span]) -> float:
    """The span's duration minus the part its direct children cover."""
    children = sorted(
        (s.start, s.end) for s in spans if s.parent == span.span_id
    )
    covered, reach = 0.0, span.start
    for start, end in children:
        start = max(start, reach)
        if end > start:
            covered += end - start
            reach = end
    return span.seconds - covered
