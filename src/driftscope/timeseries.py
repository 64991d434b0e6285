"""Multivariate time-series construction from event logs.

An interval sequence is equal-length, contiguous, half-open intervals
``[start, end)`` from its origin; :func:`build_intervals` starts it at the
earliest event and drops a trailing remainder shorter than the duration.
Feature extractors map the events of each interval onto numeric rows, so a
list of extractor specifications yields a feature matrix with one column per
interval and a fixed, deterministically ordered set of labelled rows.

Extraction reads the log's event table (:class:`~driftscope.model.EventTable`),
which every matrix built from one log shares. An event's interval is its
offset from the sequence's origin floor-divided by the duration, in integer
microseconds, so membership never depends on floating-point rounding. Events
before the origin or past the last interval (the dropped tail) count nowhere.
Extractors come in four perspectives:

* ``control_flow``: directly-follows counts over the activity alphabet,
  causal/parallel indicators and dependency scores derived from them, and
  the number of distinct activities. A directly-follows pair counts only
  when both of its events lie in the same interval.
* ``performance``: per-activity service and sojourn times, case durations,
  and overtime counts. A complete event's service time runs from the
  nearest preceding start of the same activity in the same case that no
  other complete has closed; it counts in the complete's interval. A
  sojourn runs from the previous event of the case, wherever that lies. A
  case's duration counts in the interval of its last event.
* ``data``: aggregations and threshold counts over attribute values, plus
  raw event/case counts. Event-level attributes give one value per event
  that carries them; case-level attributes give one value per case active
  in the interval.
* ``resource``: per-resource workload, active-resource counts, and
  attribute aggregations; an event-level attribute counts there only on
  events that carry a resource, a case-level one on every active case.

A mean, minimum, maximum or sum over an interval with no values is 0. Means
are exactly rounded (``statistics.fmean``) and sums run left to right in log
order, so every figure is the same whatever the grouping machinery.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from functools import cached_property, partial
from numbers import Integral, Real
from statistics import fmean

import numpy as np

from .errors import ConfigInvalid, NoExtractableFeatures, SpanTooShort, TypeMismatch
from .model import NUMBER, EventLog, to_us

US_PER_SECOND = 1_000_000

#: Aggregator names accepted by the data/resource aggregation extractors,
#: in canonical row order.
AGGREGATORS = ("min", "max", "sum", "avg", "count", "set_avg")


@dataclass(frozen=True)
class TimeInterval:
    """Half-open interval ``[start, end)`` of offsets from the sequence's origin."""

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

    def contains_us(self, at_us: int) -> bool:
        return self.start_us <= at_us < self.end_us


@dataclass(frozen=True)
class IntervalSequence:
    """``count`` contiguous intervals of ``duration_us`` from ``origin``.

    The :class:`TimeInterval` objects are built on the first read of
    :attr:`intervals` (or iteration). ``dropped_tail_us`` is the part of the
    log span after the last interval. ConfigInvalid unless ``duration_us`` is
    an integer of at least 1 and the other two integers of at least 0.
    """

    origin: datetime
    duration_us: int
    count: int
    dropped_tail_us: int = 0

    def __post_init__(self):
        for name, least in (("duration_us", 1), ("count", 0), ("dropped_tail_us", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral) or value < least:
                raise ConfigInvalid(f"{name} must be an integer of at least {least}, got {value!r}")

    def __len__(self) -> int:
        return self.count

    def __iter__(self):
        return iter(self.intervals)

    @cached_property
    def intervals(self) -> tuple[TimeInterval, ...]:
        d, n = self.duration_us, self.count
        return tuple(map(TimeInterval, range(0, n * d, d), range(d, (n + 1) * d, d)))

    @property
    def duration_seconds(self) -> float:
        return self.duration_us / US_PER_SECOND

    def bucket(self, time_us: np.ndarray) -> np.ndarray:
        """Interval of each stamp (int64 us since EPOCH), ``count`` outside the sequence."""
        out = (time_us - to_us(self.origin)) // self.duration_us  # numpy reuses the difference
        out[(out < 0) | (out > self.count)] = self.count
        return out

    def index_of_us(self, offset_us: int) -> int | None:
        """0-based interval index containing the offset from the origin, or None outside."""
        idx = int(offset_us) // self.duration_us
        return idx if 0 <= idx < self.count else None

    def start_datetime(self, index0: int) -> datetime:
        """Start instant of interval ``index0``; ``count`` gives the end of the last one."""
        return self.origin + timedelta(microseconds=index0 * self.duration_us)

    @classmethod
    def regular(
        cls,
        n: int,
        duration_seconds: float = 86400.0,
        origin: datetime = datetime(2020, 1, 6),
    ) -> "IntervalSequence":
        """Build a synthetic sequence of ``n`` intervals (test/tool helper)."""
        return cls(origin, duration_to_us(duration_seconds), n)


def duration_to_us(duration_seconds: float) -> int:
    """The duration in whole microseconds; ConfigInvalid unless it is a positive real number
    whose microseconds fit int64. A numpy scalar is read as a Python number, so it cannot wrap."""
    if isinstance(duration_seconds, bool) or not isinstance(duration_seconds, Real):
        raise ConfigInvalid(f"interval duration must be a number, got {duration_seconds!r}")
    dur_us = (int if isinstance(duration_seconds, Integral) else float)(duration_seconds)
    dur_us *= US_PER_SECOND
    dur_us = round(dur_us) if 0 < dur_us < 2**63 else 0
    if dur_us <= 0:
        raise ConfigInvalid(
            f"interval duration must be positive and below 2**63 us, got {duration_seconds}")
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
    dur_us = duration_to_us(duration_seconds)
    span_us = log.offset_us(log.span[1])
    n = span_us // dur_us
    if n < min_intervals:
        raise SpanTooShort(
            f"log spans {span_us / US_PER_SECOND:.0f}s: only {n} full interval(s) "
            f"of {duration_seconds:.0f}s fit, {min_intervals} required"
        )
    return IntervalSequence(log.origin, dur_us, n, dropped_tail_us=span_us - n * dur_us)


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


#: The parameters each extractor name takes, in written order, with the type
#: an argument is read as; ``tuple`` takes every remaining argument (the
#: aggregators; none written means all of :data:`AGGREGATORS`).
_PARAMS = {"agg": {"attr": str, "aggregators": tuple}, "threshold": {"attr": str, "bound": float},
           "overtime": {"bound_seconds": float}}


@dataclass(frozen=True)
class ExtractorSpec:
    """An extractor request: perspective, extractor name, parameters.

    Construction checks the pair against the extractor catalogue and the
    parameters against what that extractor takes, and stores each value
    read as :data:`_PARAMS` types it (a float must be finite).
    """

    perspective: str
    name: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        where = f"{self.perspective}:{self.name}"
        names = [n for p, n in _EXTRACTORS if p == self.perspective]
        if not names:
            known = ", ".join(dict.fromkeys(p for p, _ in _EXTRACTORS))
            raise ConfigInvalid(
                f"unknown perspective {self.perspective!r}; expected one of {known}"
            )
        if self.name not in names:
            import difflib  # only an error needs it, so analyses do not load it

            hint = difflib.get_close_matches(self.name, names, n=1)
            raise ConfigInvalid(
                f"unknown extractor {where}"
                + (f" (did you mean {self.perspective}:{hint[0]}?)" if hint else "")
            )
        wanted = _PARAMS.get(self.name, {})
        if sorted(self.params) != sorted(wanted):
            raise ConfigInvalid(
                f"{where} takes parameters {list(wanted)}, got {sorted(self.params)}"
            )
        read = {}
        for key, kind in wanted.items():
            value = self.params[key]
            try:
                read[key] = kind(value)
            except (TypeError, ValueError):
                raise ConfigInvalid(f"{where}: {key} {value!r} is not a {kind.__name__}") from None
            if kind is float and not np.isfinite(read[key]):
                raise ConfigInvalid(f"{where}: {key} must be finite, got {value!r}")
        aggs = read.get("aggregators", AGGREGATORS)
        if not aggs or any(a not in AGGREGATORS for a in aggs):
            raise ConfigInvalid(f"{where}: aggregators must be among {AGGREGATORS}, got {aggs}")
        object.__setattr__(self, "params", read)


_SPEC_RE = re.compile(r"^\s*(\w+)\s*:\s*(\w+)\s*(?:\(([^)]*)\))?\s*$")


def parse_spec(text: str) -> ExtractorSpec:
    """Parse ``perspective:name[(arg, ...)]``, the args filling :data:`_PARAMS` in order."""
    m = _SPEC_RE.match(text)
    if not m:
        raise ConfigInvalid(f"cannot parse extractor expression {text!r}")
    perspective, name, argtext = m.groups()
    args = [a.strip() for a in (argtext or "").split(",") if a.strip()]
    kinds, params = _PARAMS.get(name, {}), {}
    for key, kind in kinds.items():
        if kind is tuple:
            params[key], args = tuple(args) or AGGREGATORS, []
        elif args:
            params[key] = args.pop(0)
    spec = ExtractorSpec(perspective, name, params)  # an unknown extractor fails first
    if args:
        raise ConfigInvalid(f"{text!r}: {name} takes {len(kinds) or 'no'} argument(s)")
    return spec


def render_spec(spec: ExtractorSpec) -> str:
    """Canonical string form of a spec (inverse of :func:`parse_spec`)."""
    args = []
    for key, kind in _PARAMS.get(spec.name, {}).items():
        value = spec.params[key]
        args += value if kind is tuple else [_trim(value) if kind is float else value]
    suffix = f"({','.join(args)})" if args else ""
    return f"{spec.perspective}:{spec.name}{suffix}"


def _trim(x: float) -> str:
    return repr(int(x)) if x.is_integer() else repr(x)


def _counts(bucket: np.ndarray, key, size: int, n: int) -> np.ndarray:
    """Events per (key, interval) as a float ``size x n`` array.

    Interval ``n`` is the dropped tail: it is counted and then cut off.
    """
    flat = np.bincount(bucket * size + key, minlength=(n + 1) * size)
    return flat[: n * size].reshape(n, size).T.astype(float)


def _reduce(bucket: np.ndarray, key, values: np.ndarray, size: int, n: int, fn) -> np.ndarray:
    """``fn`` over the values of each (key, interval) in row order, 0 where none.

    The values of one group are handed to ``fn`` as a Python list, so the
    builtins (``min``, ``sum``, ``fmean``...) see exactly the sequence the
    events produce, in the order ``iter_events`` yields them.
    """
    keep = bucket < n
    keys = (bucket * size + key)[keep]
    order = np.argsort(keys, kind="stable")
    keys, vals = keys[order], values[keep][order].tolist()
    heads = np.flatnonzero(np.diff(keys, prepend=-1))
    bounds = [*heads.tolist(), len(vals)]
    out = np.zeros(n * size)
    out[keys[heads]] = [fn(vals[a:b]) for a, b in zip(bounds, bounds[1:])]
    return out.reshape(n, size).T


#: Numeric aggregators; ``count`` needs no values. ``fmean`` is an exactly
#: rounded sum divided by the length, so the order of a set does not matter.
_REDUCERS = {
    "min": min,
    "max": max,
    "sum": sum,
    "avg": fmean,
    "set_avg": lambda values: fmean(set(values)),
}


class _Grid:
    """One log's event table cut into the intervals of one sequence."""

    def __init__(self, log: EventLog, intervals: IntervalSequence):
        self.log = log
        self.table = log.table
        self.n = len(intervals)
        self.bucket = intervals.bucket(log.columns.time_us)
        self.warnings: list[str] = []

    @cached_property
    def df(self) -> np.ndarray:
        """Directly-follows counts as an ``A x A x n`` array, both events in one interval."""
        t, a = self.table, len(self.log.activities)
        rows = np.flatnonzero(t.prev >= 0)
        rows = rows[self.bucket[rows] == self.bucket[t.prev[rows]]]
        prev = t.prev[rows]
        key = t.activity[prev] * a + t.activity[rows]
        return _counts(self.bucket[rows], key, a * a, self.n).reshape(a, a, self.n)

    @cached_property
    def case_heads(self) -> np.ndarray:
        """Rows that are their case's first event in their interval."""
        prev = self.table.prev
        return (prev < 0) | (self.bucket[prev] != self.bucket)

    def per_activity(self, rows: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Mean of ``values`` (one per row in ``rows``) per activity and interval."""
        size = len(self.log.activities)
        return _reduce(self.bucket[rows], self.table.activity[rows], values, size, self.n, fmean)

    def attr_values(self, attr: str, level: str, resource_only: bool) -> tuple:
        """Interval and value of every attribute value the intervals see, in row order.

        Event-level: each event carrying the attribute (with a resource, if
        ``resource_only``). Case-level: one value per case active in the
        interval, taken at its first event there.
        """
        t = self.table
        present, values = t.attr_column(attr, level)
        if level == "event":
            rows = present & (t.resource >= 0) if resource_only else present
            return self.bucket[rows], values[rows]
        rows = self.case_heads & present[t.case]
        return self.bucket[rows], values[t.case[rows]]


def _resolve_attr(log: EventLog, attr: str) -> tuple[str, str]:
    """The attribute's level (``event`` or ``case``) and value type."""
    if attr in log.event_attr_types:
        return "event", log.event_attr_types[attr]
    if attr in log.case_attr_types:
        return "case", log.case_attr_types[attr]
    raise NoExtractableFeatures(
        f"attribute {attr!r} does not occur in the log "
        f"(event attributes: {sorted(log.event_attr_types) or 'none'}; "
        f"case attributes: {sorted(log.case_attr_types) or 'none'})"
    )


def _df(g: _Grid, params: dict):
    acts = g.log.activities
    return [f"{a}->{b}" for a in acts for b in acts], g.df.reshape(-1, g.n)


def _alpha(g: _Grid, params: dict):
    acts = g.log.activities
    i, j = np.triu_indices(len(acts), 1)
    fwd, back = g.df[i, j] > 0, g.df[j, i] > 0
    rows = np.empty((2 * len(i), g.n))
    rows[0::2] = fwd & ~back
    rows[1::2] = fwd & back
    keys = []
    for a, b in zip(i.tolist(), j.tolist()):
        keys += [f"causal({acts[a]}->{acts[b]})", f"parallel({acts[a]}||{acts[b]})"]
    return keys, rows


def _dependency(g: _Grid, params: dict):
    acts = g.log.activities
    df, rev = g.df, g.df.transpose(1, 0, 2)
    score = (df - rev) / (df + rev + 1.0)
    return [f"{a}=>{b}" for a in acts for b in acts], score.reshape(-1, g.n)


def _activity_count(g: _Grid, params: dict):
    counts = _counts(g.bucket, g.table.activity, len(g.log.activities), g.n)
    return [""], (counts > 0).sum(axis=0, keepdims=True).astype(float)


def _service_time(g: _Grid, params: dict):
    service = g.table.service_s
    rows = np.flatnonzero(~np.isnan(service))
    if not len(rows):
        g.warnings.append("no start/complete pairs found; service_time rows will be all zero")
    return list(g.log.activities), g.per_activity(rows, service[rows])


def _sojourn(g: _Grid, params: dict):
    prev, time_us = g.table.prev, g.log.columns.time_us
    rows = np.flatnonzero(prev >= 0)
    waits = (time_us[rows] - time_us[prev[rows]]) / 1e6
    return list(g.log.activities), g.per_activity(rows, waits)


def _case_ends(g: _Grid) -> tuple[np.ndarray, np.ndarray]:
    t = g.table
    return g.bucket[t.case_end], t.case_duration_s[t.case[t.case_end]]


def _case_duration(g: _Grid, params: dict):
    bucket, durations = _case_ends(g)
    return [""], _reduce(bucket, 0, durations, 1, g.n, fmean)


def _overtime(g: _Grid, params: dict):
    bucket, durations = _case_ends(g)
    return [""], _counts(bucket[durations > params["bound_seconds"]], 0, 1, g.n)


def _agg(g: _Grid, params: dict, resource_only: bool = False):
    attr, aggs = params["attr"], params["aggregators"]
    level, value_type = _resolve_attr(g.log, attr)
    for agg in aggs:
        if agg != "count" and value_type != NUMBER:
            raise TypeMismatch(
                f"aggregator {agg!r} requires numeric values, but attribute "
                f"{attr!r} holds {value_type}",
                attr=attr,
                aggregator=agg,
            )
    bucket, values = g.attr_values(attr, level, resource_only)
    rows = [
        _counts(bucket, 0, 1, g.n) if agg == "count"
        else _reduce(bucket, 0, values, 1, g.n, _REDUCERS[agg])
        for agg in aggs
    ]
    return [f"{attr}.{agg}" for agg in aggs], np.vstack(rows)


def _threshold(g: _Grid, params: dict):
    attr, bound = params["attr"], params["bound"]
    level, value_type = _resolve_attr(g.log, attr)
    if value_type != NUMBER:
        raise TypeMismatch(
            f"threshold on attribute {attr!r} requires numeric values, got {value_type}",
            attr=attr,
            aggregator="threshold",
        )
    bucket, values = g.attr_values(attr, level, resource_only=False)
    return [f"{attr}>{_trim(bound)}"], _counts(bucket[values > bound], 0, 1, g.n)


def _event_count(g: _Grid, params: dict):
    return [""], _counts(g.bucket, 0, 1, g.n)


def _case_count(g: _Grid, params: dict):
    return [""], _counts(g.bucket[g.case_heads], 0, 1, g.n)


def _workload(g: _Grid, params: dict):
    resources = g.log.resources
    if not resources:
        g.warnings.append("log carries no resource information; workload rows are zero")
    res = g.table.resource
    counts = _counts(g.bucket[res >= 0], res[res >= 0], len(resources), g.n)
    keys = [*resources, ("active_resources", ""), ("total_workload", "")]
    return keys, np.vstack([counts, (counts > 0).sum(axis=0), counts.sum(axis=0)])


#: The extractor catalogue: (perspective, name) -> function of (grid, params)
#: giving (row keys, rows). A key given as a pair names a row under another
#: extractor name. :class:`ExtractorSpec` accepts exactly these pairs.
_EXTRACTORS = {
    ("control_flow", "df"): _df,
    ("control_flow", "alpha"): _alpha,
    ("control_flow", "dependency"): _dependency,
    ("control_flow", "activity_count"): _activity_count,
    ("performance", "service_time"): _service_time,
    ("performance", "case_duration"): _case_duration,
    ("performance", "overtime"): _overtime,
    ("performance", "sojourn"): _sojourn,
    ("data", "agg"): _agg,
    ("data", "threshold"): _threshold,
    ("data", "event_count"): _event_count,
    ("data", "case_count"): _case_count,
    ("resource", "workload"): _workload,
    ("resource", "agg"): partial(_agg, resource_only=True),
}


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
    """Run every extractor over the log's event table and stack the rows."""
    if not specs:
        raise ConfigInvalid("at least one extractor is required")
    grid = _Grid(log, intervals)
    labels: list[FeatureLabel] = []
    blocks: list[np.ndarray] = []
    for spec in specs:
        keys, rows = _EXTRACTORS[spec.perspective, spec.name](grid, spec.params)
        for key in keys:
            name, key = key if isinstance(key, tuple) else (spec.name, key)
            labels.append(FeatureLabel(spec.perspective, name, key))
        blocks.append(rows)
    rendered = [str(label) for label in labels]
    if len(set(rendered)) != len(rendered):
        dupes = sorted({s for s in rendered if rendered.count(s) > 1})
        raise ConfigInvalid(f"duplicate feature rows requested: {dupes}")
    if not labels:
        raise NoExtractableFeatures("the configured extractors produce no feature rows")

    values = np.vstack(blocks)
    if not np.isfinite(values).all():
        raise NoExtractableFeatures("extraction produced non-finite values")
    return TimeSeriesMatrix(
        values=values, labels=tuple(labels), intervals=intervals, warnings=tuple(grid.warnings)
    )


def write_series_csv(matrix: TimeSeriesMatrix, path) -> None:
    """Write the matrix transposed: one row per interval, one column per feature."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["interval_start", "interval_end"] + matrix.label_strings())
        seq = matrix.intervals
        for j in range(len(seq)):
            writer.writerow(
                [seq.start_datetime(j).isoformat(), seq.start_datetime(j + 1).isoformat()]
                + [repr(float(v)) for v in matrix.values[:, j]]
            )
