"""Multivariate time-series construction from event logs.

The log's span is divided into equal-length, contiguous, half-open intervals
``[start, end)`` measured from the earliest event timestamp; a trailing
remainder shorter than the duration is dropped. Feature extractors then map
the events of each interval onto one or more numeric rows, so that a list of
extractor specifications yields a feature matrix with one column per
interval and a fixed, deterministically ordered set of labelled rows.

Extractors come in four perspectives:

* ``control_flow``: directly-follows counts over the activity alphabet,
  relation indicators (causal/parallel), dependency scores, and the number
  of distinct activities.
* ``performance``: per-activity service and sojourn times, case durations,
  and overtime counts.
* ``data``: aggregations and threshold counts over attribute values, plus
  raw event/case counts.
* ``resource``: per-resource workload, active-resource counts and resource
  attribute aggregations.

All interval arithmetic is carried out in integer microseconds so that
boundary membership never depends on floating-point rounding.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from statistics import fmean

import numpy as np

from .errors import (
    ConfigInvalid,
    NoExtractableFeatures,
    SpanTooShort,
    TypeMismatch,
)
from .model import (
    LIFECYCLE_COMPLETE,
    LIFECYCLE_START,
    NUMBER,
    Event,
    EventLog,
)

US_PER_SECOND = 1_000_000

PERSPECTIVES = ("control_flow", "performance", "data", "resource")

#: Aggregator names accepted by the data/resource aggregation extractors,
#: in canonical row order.
AGGREGATORS = ("min", "max", "sum", "avg", "count", "set_avg")

#: Aggregators that only make sense for numeric attribute values.
_NUMERIC_AGGREGATORS = frozenset(AGGREGATORS) - {"count"}


@dataclass(frozen=True)
class TimeInterval:
    """Half-open interval ``[start, end)`` of offsets from the log origin."""

    start_us: int
    end_us: int

    @property
    def start(self) -> float:
        """Interval start in seconds."""
        return self.start_us / US_PER_SECOND

    @property
    def end(self) -> float:
        """Interval end in seconds."""
        return self.end_us / US_PER_SECOND

    def contains_us(self, offset_us: int) -> bool:
        return self.start_us <= offset_us < self.end_us


@dataclass(frozen=True)
class IntervalSequence:
    """Contiguous equal-length intervals anchored at a reference instant."""

    intervals: tuple[TimeInterval, ...]
    duration_us: int
    origin: datetime
    dropped_tail_us: int = 0

    def __len__(self) -> int:
        return len(self.intervals)

    def __iter__(self):
        return iter(self.intervals)

    @property
    def duration_seconds(self) -> float:
        return self.duration_us / US_PER_SECOND

    def index_of_us(self, offset_us: int) -> int | None:
        """0-based interval index containing the offset, or None outside."""
        if offset_us < 0:
            return None
        idx = offset_us // self.duration_us
        return int(idx) if idx < len(self.intervals) else None

    def start_datetime(self, index0: int) -> datetime:
        return self.origin + timedelta(microseconds=self.intervals[index0].start_us)

    @classmethod
    def regular(
        cls,
        n: int,
        duration_seconds: float = 86400.0,
        origin: datetime = datetime(2020, 1, 6),
    ) -> "IntervalSequence":
        """Build a synthetic sequence of ``n`` intervals (test/tool helper)."""
        dur_us = _duration_us(duration_seconds)
        ivs = tuple(TimeInterval(i * dur_us, (i + 1) * dur_us) for i in range(n))
        return cls(intervals=ivs, duration_us=dur_us, origin=origin)


def _duration_us(duration_seconds: float) -> int:
    dur_us = round(duration_seconds * US_PER_SECOND)
    if dur_us <= 0:
        raise ConfigInvalid(f"interval duration must be positive, got {duration_seconds}")
    return dur_us


def build_intervals(
    log: EventLog, duration_seconds: float, min_intervals: int = 2
) -> IntervalSequence:
    """Cover the log span with full-length intervals from the origin.

    ``min_intervals`` defaults to 2 because a single column supports no
    drift analysis; raw series extraction may lower it to 1.
    """
    if log.span is None:
        raise SpanTooShort("log contains no events")
    dur_us = _duration_us(duration_seconds)
    span_us = log.offset_us(log.span[1])
    n = span_us // dur_us
    if n < min_intervals:
        raise SpanTooShort(
            f"log spans {span_us / US_PER_SECOND:.0f}s: only {n} full interval(s) "
            f"of {duration_seconds:.0f}s fit, {min_intervals} required"
        )
    intervals = tuple(TimeInterval(i * dur_us, (i + 1) * dur_us) for i in range(n))
    return IntervalSequence(
        intervals=intervals,
        duration_us=dur_us,
        origin=log.origin,
        dropped_tail_us=span_us - n * dur_us,
    )


@dataclass(frozen=True)
class FeatureLabel:
    """Identifies one feature row: perspective, extractor and row key."""

    perspective: str
    extractor: str
    key: str = ""

    def __str__(self) -> str:
        if self.key:
            return f"{self.perspective}:{self.extractor}:{self.key}"
        return f"{self.perspective}:{self.extractor}"


@dataclass
class ExtractorSpec:
    """A parsed extractor request: perspective, extractor name, parameters."""

    perspective: str
    name: str
    params: dict = field(default_factory=dict)


_SPEC_RE = re.compile(r"^\s*(\w+)\s*:\s*(\w+)\s*(?:\(([^)]*)\))?\s*$")

#: Extractor names per perspective, used for validation and suggestions.
KNOWN_EXTRACTORS = {
    "control_flow": ("df", "alpha", "dependency", "activity_count"),
    "performance": ("service_time", "case_duration", "overtime", "sojourn"),
    "data": ("agg", "threshold", "event_count", "case_count"),
    "resource": ("workload", "agg"),
}


def parse_spec(text: str) -> ExtractorSpec:
    """Parse ``perspective:name`` or ``perspective:name(arg, ...)``."""
    m = _SPEC_RE.match(text)
    if not m:
        raise ConfigInvalid(f"cannot parse extractor expression {text!r}")
    perspective, name, argtext = m.group(1), m.group(2), m.group(3)
    if perspective not in KNOWN_EXTRACTORS:
        raise ConfigInvalid(
            f"unknown perspective {perspective!r}; expected one of {', '.join(PERSPECTIVES)}"
        )
    if name not in KNOWN_EXTRACTORS[perspective]:
        hint = _closest(name, KNOWN_EXTRACTORS[perspective])
        raise ConfigInvalid(
            f"unknown extractor {perspective}:{name}"
            + (f" (did you mean {perspective}:{hint}?)" if hint else "")
        )
    args = [a.strip() for a in argtext.split(",")] if argtext else []
    args = [a for a in args if a]
    return ExtractorSpec(perspective, name, _build_params(perspective, name, args, text))


def _closest(name: str, options: tuple[str, ...]) -> str | None:
    import difflib

    matches = difflib.get_close_matches(name, options, n=1)
    return matches[0] if matches else None


def _build_params(perspective: str, name: str, args: list[str], text: str) -> dict:
    if name == "agg":
        if not args:
            raise ConfigInvalid(f"{text!r}: agg requires an attribute name")
        aggs = tuple(args[1:]) or AGGREGATORS
        bad = [a for a in aggs if a not in AGGREGATORS]
        if bad:
            raise ConfigInvalid(f"{text!r}: unknown aggregator(s) {bad}")
        return {"attr": args[0], "aggregators": aggs}
    if name == "threshold":
        if len(args) != 2:
            raise ConfigInvalid(f"{text!r}: threshold requires (attribute, bound)")
        return {"attr": args[0], "bound": _number(args[1], text)}
    if name == "overtime":
        if len(args) != 1:
            raise ConfigInvalid(f"{text!r}: overtime requires a duration bound in seconds")
        return {"bound_seconds": _number(args[0], text)}
    if args:
        raise ConfigInvalid(f"{text!r}: {perspective}:{name} takes no arguments")
    return {}


def _number(text: str, where: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigInvalid(f"{where!r}: {text!r} is not a number") from None


def render_spec(spec: ExtractorSpec) -> str:
    """Canonical string form of a spec (inverse of :func:`parse_spec`)."""
    if spec.name == "agg":
        args = [spec.params["attr"], *spec.params["aggregators"]]
    elif spec.name == "threshold":
        args = [spec.params["attr"], _trim(spec.params["bound"])]
    elif spec.name == "overtime":
        args = [_trim(spec.params["bound_seconds"])]
    else:
        args = []
    suffix = f"({','.join(args)})" if args else ""
    return f"{spec.perspective}:{spec.name}{suffix}"


def _trim(x: float) -> str:
    return repr(int(x)) if float(x).is_integer() else repr(float(x))


class LogIndex:
    """Per-log lookups shared by the extractors.

    Built once per matrix: event offsets in microseconds, predecessor links
    within each case, case end events with durations, and start/complete
    service pairs matched per case and activity by nearest preceding start.
    """

    def __init__(self, log: EventLog):
        self.log = log
        self.offset_us: dict[str, int] = {}
        self.prev: dict[str, Event] = {}
        self.case_end: dict[str, tuple[str, float]] = {}
        self.service_s: dict[str, float] = {}
        for case in log.cases.values():
            open_starts: dict[str, list[Event]] = {}
            prev_event: Event | None = None
            for e in case.events:
                self.offset_us[e.event_id] = log.offset_us(e.timestamp)
                if prev_event is not None:
                    self.prev[e.event_id] = prev_event
                prev_event = e
                if e.lifecycle == LIFECYCLE_START:
                    open_starts.setdefault(e.activity, []).append(e)
                elif e.lifecycle == LIFECYCLE_COMPLETE:
                    stack = open_starts.get(e.activity)
                    if stack:
                        start = stack.pop()
                        delta = (e.timestamp - start.timestamp).total_seconds()
                        self.service_s[e.event_id] = delta
            if case.events:
                first, last = case.events[0], case.events[-1]
                duration = (last.timestamp - first.timestamp).total_seconds()
                self.case_end[case.case_id] = (last.event_id, duration)


class BoundExtractor:
    """An extractor bound to a log: fixed labels, one column per interval."""

    perspective: str = ""
    name: str = ""

    def __init__(self, log: EventLog, index: LogIndex, params: dict):
        self.log = log
        self.index = index
        self.params = params
        self.warnings: list[str] = []
        self.labels: tuple[FeatureLabel, ...] = ()

    def _label(self, key: str = "", extractor: str | None = None) -> FeatureLabel:
        return FeatureLabel(self.perspective, extractor or self.name, key)

    def column(self, events: list[Event], interval: TimeInterval) -> list[float]:
        raise NotImplementedError


def _mean_or_zero(values: list[float]) -> float:
    return fmean(values) if values else 0.0


class _ControlFlowBase(BoundExtractor):
    perspective = "control_flow"

    def _df_counts(self, events: list[Event], interval: TimeInterval) -> np.ndarray:
        """Directly-follows counts; both endpoints must lie in the interval."""
        alphabet = self.log.activities
        pos = {a: i for i, a in enumerate(alphabet)}
        counts = np.zeros((len(alphabet), len(alphabet)))
        for e in events:
            p = self.index.prev.get(e.event_id)
            if p is not None and interval.contains_us(self.index.offset_us[p.event_id]):
                counts[pos[p.activity], pos[e.activity]] += 1.0
        return counts


class _DirectlyFollows(_ControlFlowBase):
    name = "df"

    def __init__(self, log, index, params):
        super().__init__(log, index, params)
        self.labels = tuple(
            self._label(f"{a}->{b}") for a in log.activities for b in log.activities
        )

    def column(self, events, interval):
        return list(self._df_counts(events, interval).ravel())


class _AlphaRelations(_ControlFlowBase):
    """Causal/parallel indicators per unordered activity pair.

    For a pair (a, b) in alphabet order: the causal row is 1 when a is
    directly followed by b but never the reverse; the parallel row is 1
    when both directions occur. Both rows zero means independence or a
    reversed causal relation.
    """

    name = "alpha"

    def __init__(self, log, index, params):
        super().__init__(log, index, params)
        labels = []
        for i, a in enumerate(log.activities):
            for b in log.activities[i + 1:]:
                labels.append(self._label(f"causal({a}->{b})"))
                labels.append(self._label(f"parallel({a}||{b})"))
        self.labels = tuple(labels)

    def column(self, events, interval):
        df = self._df_counts(events, interval)
        out = []
        for i in range(len(self.log.activities)):
            for j in range(i + 1, len(self.log.activities)):
                out.append(1.0 if df[i, j] > 0 and df[j, i] == 0 else 0.0)
                out.append(1.0 if df[i, j] > 0 and df[j, i] > 0 else 0.0)
        return out


class _DependencyScore(_ControlFlowBase):
    """Signed dependency score per ordered pair: (|a>b|-|b>a|)/(|a>b|+|b>a|+1)."""

    name = "dependency"

    def __init__(self, log, index, params):
        super().__init__(log, index, params)
        self.labels = tuple(
            self._label(f"{a}=>{b}") for a in log.activities for b in log.activities
        )

    def column(self, events, interval):
        df = self._df_counts(events, interval)
        score = (df - df.T) / (df + df.T + 1.0)
        return list(score.ravel())


class _ActivityCount(_ControlFlowBase):
    name = "activity_count"

    def __init__(self, log, index, params):
        super().__init__(log, index, params)
        self.labels = (self._label(),)

    def column(self, events, interval):
        return [float(len({e.activity for e in events}))]


class _ServiceTime(BoundExtractor):
    """Mean service time per activity over pairs completing in the interval."""

    perspective = "performance"
    name = "service_time"

    def __init__(self, log, index, params):
        super().__init__(log, index, params)
        self.labels = tuple(self._label(a) for a in log.activities)
        if not index.service_s:
            self.warnings.append(
                "no start/complete pairs found; service_time rows will be all zero"
            )

    def column(self, events, interval):
        acc: dict[str, list[float]] = {}
        for e in events:
            d = self.index.service_s.get(e.event_id)
            if d is not None:
                acc.setdefault(e.activity, []).append(d)
        return [_mean_or_zero(acc.get(a, [])) for a in self.log.activities]


class _Sojourn(BoundExtractor):
    """Mean wait per activity since the previous event of the same case."""

    perspective = "performance"
    name = "sojourn"

    def __init__(self, log, index, params):
        super().__init__(log, index, params)
        self.labels = tuple(self._label(a) for a in log.activities)

    def column(self, events, interval):
        acc: dict[str, list[float]] = {}
        for e in events:
            p = self.index.prev.get(e.event_id)
            if p is not None:
                delta = (e.timestamp - p.timestamp).total_seconds()
                acc.setdefault(e.activity, []).append(delta)
        return [_mean_or_zero(acc.get(a, [])) for a in self.log.activities]


class _CaseDuration(BoundExtractor):
    """Mean duration of the cases that end inside the interval."""

    perspective = "performance"
    name = "case_duration"

    def __init__(self, log, index, params):
        super().__init__(log, index, params)
        self.labels = (self._label(),)

    def _durations(self, events):
        out = []
        for e in events:
            end = self.index.case_end.get(e.case_id)
            if end is not None and end[0] == e.event_id:
                out.append(end[1])
        return out

    def column(self, events, interval):
        return [_mean_or_zero(self._durations(events))]


class _Overtime(_CaseDuration):
    """Number of cases ending in the interval that ran over the bound."""

    name = "overtime"

    def __init__(self, log, index, params):
        super().__init__(log, index, params)
        if "bound_seconds" not in params:
            raise ConfigInvalid("performance:overtime requires a bound in seconds")
        self.bound = float(params["bound_seconds"])

    def column(self, events, interval):
        return [float(sum(1 for d in self._durations(events) if d > self.bound))]


class _Aggregate(BoundExtractor):
    """Aggregations over the values an attribute takes inside the interval.

    Event-level attributes contribute the values of in-interval events;
    case-level attributes contribute one value per case active in the
    interval. ``set_avg`` averages distinct values. Empty intervals yield 0
    for every aggregator.
    """

    perspective = "data"
    name = "agg"

    def __init__(self, log, index, params):
        super().__init__(log, index, params)
        self.attr = params["attr"]
        self.aggregators = tuple(params.get("aggregators") or AGGREGATORS)
        self.level = _resolve_attr_level(log, self.attr)
        value_type = (
            log.event_attr_types if self.level == "event" else log.case_attr_types
        )[self.attr]
        for agg in self.aggregators:
            if agg in _NUMERIC_AGGREGATORS and value_type != NUMBER:
                raise TypeMismatch(
                    f"aggregator {agg!r} requires numeric values, but attribute "
                    f"{self.attr!r} holds {value_type}",
                    attr=self.attr,
                    aggregator=agg,
                )
        self.labels = tuple(self._label(f"{self.attr}.{agg}") for agg in self.aggregators)

    def _values(self, events: list[Event]) -> list:
        if self.level == "event":
            return [e.attrs[self.attr] for e in self._scope(events) if self.attr in e.attrs]
        seen: dict[str, None] = {}
        for e in events:
            seen.setdefault(e.case_id)
        return [
            self.log.cases[cid].attrs[self.attr]
            for cid in seen
            if self.attr in self.log.cases[cid].attrs
        ]

    def _scope(self, events: list[Event]) -> list[Event]:
        return events

    def column(self, events, interval):
        values = self._values(events)
        return [_aggregate(agg, values) for agg in self.aggregators]


def _aggregate(agg: str, values: list) -> float:
    if agg == "count":
        return float(len(values))
    if not values:
        return 0.0
    if agg == "min":
        return float(min(values))
    if agg == "max":
        return float(max(values))
    if agg == "sum":
        return float(sum(values))
    if agg == "avg":
        return fmean(values)
    if agg == "set_avg":
        return fmean(sorted(set(values)))
    raise ConfigInvalid(f"unknown aggregator {agg!r}")


def _resolve_attr_level(log: EventLog, attr: str) -> str:
    if attr in log.event_attr_types:
        return "event"
    if attr in log.case_attr_types:
        return "case"
    raise NoExtractableFeatures(
        f"attribute {attr!r} does not occur in the log "
        f"(event attributes: {sorted(log.event_attr_types) or 'none'}; "
        f"case attributes: {sorted(log.case_attr_types) or 'none'})"
    )


class _ThresholdCount(BoundExtractor):
    """How many attribute values in the interval exceed the bound."""

    perspective = "data"
    name = "threshold"

    def __init__(self, log, index, params):
        super().__init__(log, index, params)
        self.attr = params["attr"]
        self.bound = float(params["bound"])
        self.level = _resolve_attr_level(log, self.attr)
        value_type = (
            log.event_attr_types if self.level == "event" else log.case_attr_types
        )[self.attr]
        if value_type != NUMBER:
            raise TypeMismatch(
                f"threshold on attribute {self.attr!r} requires numeric values, got {value_type}",
                attr=self.attr,
                aggregator="threshold",
            )
        self.labels = (self._label(f"{self.attr}>{_trim(self.bound)}"),)

    def column(self, events, interval):
        if self.level == "event":
            values = [e.attrs[self.attr] for e in events if self.attr in e.attrs]
        else:
            seen: dict[str, None] = {}
            for e in events:
                seen.setdefault(e.case_id)
            values = [
                self.log.cases[cid].attrs[self.attr]
                for cid in seen
                if self.attr in self.log.cases[cid].attrs
            ]
        return [float(sum(1 for v in values if v > self.bound))]


class _EventCount(BoundExtractor):
    perspective = "data"
    name = "event_count"

    def __init__(self, log, index, params):
        super().__init__(log, index, params)
        self.labels = (self._label(),)

    def column(self, events, interval):
        return [float(len(events))]


class _CaseCount(BoundExtractor):
    """Number of cases with at least one event in the interval."""

    perspective = "data"
    name = "case_count"

    def __init__(self, log, index, params):
        super().__init__(log, index, params)
        self.labels = (self._label(),)

    def column(self, events, interval):
        return [float(len({e.case_id for e in events}))]


class _Workload(BoundExtractor):
    """Events handled per resource, plus active and total workload rows."""

    perspective = "resource"
    name = "workload"

    def __init__(self, log, index, params):
        super().__init__(log, index, params)
        if not log.resources:
            self.warnings.append("log carries no resource information; workload rows are zero")
        self.labels = tuple(self._label(r) for r in log.resources) + (
            self._label(extractor="active_resources"),
            self._label(extractor="total_workload"),
        )

    def column(self, events, interval):
        counts = {r: 0 for r in self.log.resources}
        total = 0
        for e in events:
            if e.resource is not None:
                counts[e.resource] += 1
                total += 1
        active = sum(1 for r in self.log.resources if counts[r] > 0)
        return [float(counts[r]) for r in self.log.resources] + [float(active), float(total)]


class _ResourceAggregate(_Aggregate):
    """Attribute aggregation restricted to events that carry a resource."""

    perspective = "resource"

    def _scope(self, events):
        return [e for e in events if e.resource is not None]


_EXTRACTOR_CLASSES: dict[tuple[str, str], type[BoundExtractor]] = {
    ("control_flow", "df"): _DirectlyFollows,
    ("control_flow", "alpha"): _AlphaRelations,
    ("control_flow", "dependency"): _DependencyScore,
    ("control_flow", "activity_count"): _ActivityCount,
    ("performance", "service_time"): _ServiceTime,
    ("performance", "case_duration"): _CaseDuration,
    ("performance", "overtime"): _Overtime,
    ("performance", "sojourn"): _Sojourn,
    ("data", "agg"): _Aggregate,
    ("data", "threshold"): _ThresholdCount,
    ("data", "event_count"): _EventCount,
    ("data", "case_count"): _CaseCount,
    ("resource", "workload"): _Workload,
    ("resource", "agg"): _ResourceAggregate,
}


def make_extractor(
    spec: ExtractorSpec, log: EventLog, index: LogIndex | None = None
) -> BoundExtractor:
    """Validate a spec against the log's catalogs and bind it."""
    cls = _EXTRACTOR_CLASSES.get((spec.perspective, spec.name))
    if cls is None:
        raise ConfigInvalid(f"unknown extractor {spec.perspective}:{spec.name}")
    return cls(log, index if index is not None else LogIndex(log), spec.params)


@dataclass
class TimeSeriesMatrix:
    """Feature matrix: one labelled row per feature, one column per interval."""

    values: np.ndarray
    labels: tuple[FeatureLabel, ...]
    intervals: IntervalSequence
    warnings: tuple[str, ...] = ()

    @property
    def n_features(self) -> int:
        return self.values.shape[0]

    @property
    def n_intervals(self) -> int:
        return self.values.shape[1]

    def label_strings(self) -> list[str]:
        return [str(label) for label in self.labels]

    def row(self, label: FeatureLabel | str) -> np.ndarray:
        wanted = str(label)
        for i, lab in enumerate(self.labels):
            if str(lab) == wanted:
                return self.values[i]
        raise KeyError(f"no feature row labelled {wanted!r}")

    @classmethod
    def from_rows(
        cls,
        rows,
        intervals: IntervalSequence | None = None,
        perspective: str = "data",
        extractor: str = "series",
        keys: list[str] | None = None,
    ) -> "TimeSeriesMatrix":
        """Wrap a plain 2-d array as a matrix with generated labels."""
        values = np.asarray(rows, dtype=float)
        if values.ndim == 1:
            values = values[None, :]
        m, n = values.shape
        if intervals is None:
            intervals = IntervalSequence.regular(n)
        if keys is None:
            keys = [f"r{i}" for i in range(m)]
        labels = tuple(FeatureLabel(perspective, extractor, k) for k in keys)
        return cls(values=values, labels=labels, intervals=intervals)


def build_time_series(
    log: EventLog, intervals: IntervalSequence, specs: list[ExtractorSpec]
) -> TimeSeriesMatrix:
    """Run every extractor over every interval and stack the rows."""
    if not specs:
        raise ConfigInvalid("at least one extractor is required")
    index = LogIndex(log)
    extractors = [make_extractor(spec, log, index) for spec in specs]
    labels: list[FeatureLabel] = []
    for ext in extractors:
        labels.extend(ext.labels)
    rendered = [str(label) for label in labels]
    if len(set(rendered)) != len(rendered):
        dupes = sorted({s for s in rendered if rendered.count(s) > 1})
        raise ConfigInvalid(f"duplicate feature rows requested: {dupes}")
    if not labels:
        raise NoExtractableFeatures("the configured extractors produce no feature rows")

    buckets: list[list[Event]] = [[] for _ in range(len(intervals))]
    for e in log.iter_events():
        idx = intervals.index_of_us(log.offset_us(e.timestamp))
        if idx is not None:
            buckets[idx].append(e)

    values = np.empty((len(labels), len(intervals)), dtype=float)
    row = 0
    for ext in extractors:
        width = len(ext.labels)
        for j, interval in enumerate(intervals):
            col = ext.column(buckets[j], interval)
            values[row:row + width, j] = col
        row += width
    if not np.isfinite(values).all():
        raise NoExtractableFeatures("extraction produced non-finite values")

    warnings = tuple(w for ext in extractors for w in ext.warnings)
    return TimeSeriesMatrix(
        values=values, labels=tuple(labels), intervals=intervals, warnings=warnings
    )


def write_series_csv(matrix: TimeSeriesMatrix, path) -> None:
    """Write the matrix transposed: one row per interval, one column per feature."""
    import csv as _csv

    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = _csv.writer(fh)
        writer.writerow(["interval_start", "interval_end"] + matrix.label_strings())
        origin = matrix.intervals.origin
        for j, interval in enumerate(matrix.intervals):
            start = origin + timedelta(microseconds=interval.start_us)
            end = origin + timedelta(microseconds=interval.end_us)
            writer.writerow(
                [start.isoformat(), end.isoformat()]
                + [repr(float(v)) for v in matrix.values[:, j]]
            )
