"""Core event-log model.

An :class:`EventLog` is a collection of cases; a :class:`Case` is a sequence
of events ordered by timestamp. Events carry an activity name, a timestamp,
an optional resource and lifecycle marker, and a free-form attribute map.
Attribute values are restricted to numbers, text, booleans and timestamps,
and a given key must carry one type throughout a log.

Logs are assembled in whatever order the source provides and then passed
through :func:`sort_and_validate`, which orders events, checks identifier
uniqueness and rebuilds the derived catalogs (activity alphabet, resource
set, attribute tables, time span). After that the log is treated as
immutable by the rest of the package, which reads it through
:attr:`EventLog.table`: the same events as numpy columns, built on first use
and kept for the life of the log.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from datetime import datetime, timedelta
from functools import cached_property
from typing import Iterator

import numpy as np

from .errors import (
    AttributeTypeMismatch,
    DuplicateEventId,
    EventInMultipleCases,
)

#: One microsecond, used to convert timestamp differences to exact integers.
_US = timedelta(microseconds=1)

#: Attribute type names used in the per-log attribute tables.
NUMBER = "number"
TEXT = "text"
BOOLEAN = "boolean"
TIMESTAMP = "timestamp"

#: Lifecycle markers recognised by the performance extractors.
LIFECYCLE_START = "start"
LIFECYCLE_COMPLETE = "complete"


def attribute_type(value) -> str:
    """Return the type tag for an attribute value.

    Booleans are checked before numbers because ``bool`` is a subtype of
    ``int`` in Python.
    """
    if isinstance(value, bool):
        return BOOLEAN
    if isinstance(value, (int, float)):
        return NUMBER
    if isinstance(value, datetime):
        return TIMESTAMP
    if isinstance(value, str):
        return TEXT
    raise TypeError(f"unsupported attribute value type: {type(value).__name__}")


@dataclass
class Event:
    """A single observed activity execution."""

    event_id: str
    case_id: str
    activity: str
    timestamp: datetime
    resource: str | None = None
    lifecycle: str | None = None
    attrs: dict = field(default_factory=dict)


@dataclass
class Case:
    """One process instance: its identifier, attributes and event sequence."""

    case_id: str
    attrs: dict = field(default_factory=dict)
    events: list[Event] = field(default_factory=list)


@dataclass
class EventLog:
    """A validated collection of cases plus derived catalogs.

    ``activities`` and ``resources`` are sorted tuples so that feature row
    order never depends on ingestion order. ``span`` is the pair of earliest
    and latest event timestamps; the earliest one doubles as the reference
    instant for all interval arithmetic. ``meta`` carries ingestion notes
    (e.g. how many exotic lifecycle transitions were dropped) that the
    pipeline surfaces in report metadata.
    """

    cases: dict[str, Case] = field(default_factory=dict)
    activities: tuple[str, ...] = ()
    resources: tuple[str, ...] = ()
    event_attr_types: dict[str, str] = field(default_factory=dict)
    case_attr_types: dict[str, str] = field(default_factory=dict)
    span: tuple[datetime, datetime] | None = None
    meta: dict = field(default_factory=dict)

    def iter_events(self) -> Iterator[Event]:
        """Yield all events, case by case, in stored order."""
        for case in self.cases.values():
            yield from case.events

    @property
    def event_count(self) -> int:
        return sum(len(c.events) for c in self.cases.values())

    @property
    def case_count(self) -> int:
        return len(self.cases)

    @property
    def origin(self) -> datetime:
        """Reference instant: the earliest event timestamp."""
        if self.span is None:
            raise ValueError("empty log has no origin")
        return self.span[0]

    def offset_us(self, ts: datetime) -> int:
        """Offset of ``ts`` from the log origin in exact integer microseconds."""
        return (ts - self.origin) // _US

    @cached_property
    def table(self) -> "EventTable":
        """The events as numpy columns; built once, on first use."""
        return EventTable(self)


class EventTable:
    """The events of a validated log as numpy columns.

    Row ``i`` is the ``i``-th event of :meth:`EventLog.iter_events`, so each
    case's events are contiguous and in time order. ``case``, ``activity``
    and ``resource`` are int32 codes into ``log.cases`` (stored order),
    ``log.activities`` and ``log.resources``; -1 means no resource.

    * ``offset_us``: int64 offset from the log origin.
    * ``prev``: row of the previous event of the same case, -1 for none.
    * ``service_s``: for a complete event, seconds since the nearest
      preceding still-open start of the same activity in the same case,
      which that complete closes; NaN for every other event.
    * ``case_end``: the row is its case's last event; ``case_duration_s``
      holds each case's first-to-last span, indexed by case code.
    * :meth:`attr_column`: per attribute key, a presence mask and a float64
      column (per event or per case), NaN where absent. A non-numeric
      attribute's column is all NaN: the only aggregation over it is
      ``count``, which reads the mask. Each column is built the first time it
      is asked for, so attributes no extractor reads cost nothing.

    Durations are integer-microsecond differences divided by 1e6, which is
    exactly ``timedelta.total_seconds()``.
    """

    def __init__(self, log: EventLog):
        cases = list(log.cases.values())
        events = [e for case in cases for e in case.events]
        n = len(events)
        sizes = np.array([len(case.events) for case in cases], dtype=np.int64)
        first = np.cumsum(sizes) - sizes
        last = (first + sizes - 1)[sizes > 0]
        first = first[sizes > 0]

        origin = log.span[0] if log.span else None
        self.offset_us = np.fromiter(((e.timestamp - origin) // _US for e in events), np.int64, n)
        self.case = np.repeat(np.arange(len(cases), dtype=np.int32), sizes)
        act = {a: i for i, a in enumerate(log.activities)}
        self.activity = np.fromiter((act[e.activity] for e in events), np.int32, n)
        res = {r: i for i, r in enumerate(log.resources)}
        self.resource = np.fromiter((res.get(e.resource, -1) for e in events), np.int32, n)
        self.prev = np.arange(-1, n - 1)
        self.prev[first] = -1
        self.case_end = np.zeros(n, dtype=bool)
        self.case_end[last] = True
        self.case_duration_s = np.zeros(len(cases))
        self.case_duration_s[sizes > 0] = (self.offset_us[last] - self.offset_us[first]) / 1e6
        self.service_s = self._service_seconds(events, len(log.activities))
        self._cases = cases
        self._types = {"event": log.event_attr_types, "case": log.case_attr_types}
        self._columns: dict[tuple[str, str], tuple[np.ndarray, np.ndarray]] = {}

    def attr_column(self, key: str, level: str) -> tuple[np.ndarray, np.ndarray]:
        """Presence mask and values of an ``"event"`` or ``"case"`` attribute, built once."""
        if (key, level) not in self._columns:
            if level == "event":
                maps = [e.attrs for case in self._cases for e in case.events]
            else:
                maps = [case.attrs for case in self._cases]
            present = np.fromiter((key in m for m in maps), bool, len(maps))
            if self._types[level][key] == NUMBER:
                values = np.fromiter((m.get(key, np.nan) for m in maps), np.float64, len(maps))
            else:
                values = np.full(len(maps), np.nan)
            self._columns[key, level] = present, values
        return self._columns[key, level]

    def _service_seconds(self, events: list[Event], n_activities: int) -> np.ndarray:
        # Walk the start/complete rows grouped by (case, activity), in time
        # order within each group; no per-event containers, so no GC churn.
        kinds = {LIFECYCLE_START: 1, LIFECYCLE_COMPLETE: 2}
        kind = np.fromiter((kinds.get(e.lifecycle, 0) for e in events), np.int8, len(events))
        rows = np.flatnonzero(kind)
        group = self.case[rows].astype(np.int64) * n_activities + self.activity[rows]
        order = np.argsort(group, kind="stable")
        rows, group = rows[order], group[order]
        open_starts: list[int] = []
        starts: list[int] = []
        completes: list[int] = []
        current = -1
        for row, g, k in zip(rows.tolist(), group.tolist(), kind[rows].tolist()):
            if g != current:
                open_starts.clear()
                current = g
            if k == 1:
                open_starts.append(row)
            elif open_starts:
                starts.append(open_starts.pop())
                completes.append(row)
        out = np.full(len(events), np.nan)
        out[completes] = (self.offset_us[completes] - self.offset_us[starts]) / 1e6
        return out


def sort_and_validate(log: EventLog) -> EventLog:
    """Order events, check identifiers and rebuild all derived catalogs.

    Events inside each case are sorted by timestamp with a stable sort, so
    simultaneous events keep their ingestion order. Raises
    :class:`DuplicateEventId` when an identifier repeats inside one case,
    :class:`EventInMultipleCases` when it appears across cases, and
    :class:`AttributeTypeMismatch` when one attribute key mixes types.
    """
    seen: dict[str, str] = {}
    activities: set[str] = set()
    resources: set[str] = set()
    event_types: dict[str, str] = {}
    case_types: dict[str, str] = {}
    lo: datetime | None = None
    hi: datetime | None = None

    cases: dict[str, Case] = {}
    for case in log.cases.values():
        events = sorted(case.events, key=lambda e: e.timestamp)
        for e in events:
            owner = seen.get(e.event_id)
            if owner == case.case_id:
                raise DuplicateEventId(
                    f"event id {e.event_id!r} occurs twice in case {case.case_id!r}"
                )
            if owner is not None:
                raise EventInMultipleCases(
                    f"event id {e.event_id!r} appears in cases {owner!r} and {case.case_id!r}"
                )
            if e.case_id != case.case_id:
                raise EventInMultipleCases(
                    f"event {e.event_id!r} carries case id {e.case_id!r} "
                    f"but is stored under case {case.case_id!r}"
                )
            seen[e.event_id] = case.case_id
            activities.add(e.activity)
            if e.resource is not None:
                resources.add(e.resource)
            _merge_types(event_types, e.attrs, where=f"event {e.event_id!r}")
            if lo is None or e.timestamp < lo:
                lo = e.timestamp
            if hi is None or e.timestamp > hi:
                hi = e.timestamp
        _merge_types(case_types, case.attrs, where=f"case {case.case_id!r}")
        cases[case.case_id] = replace(case, events=events)

    return EventLog(
        cases=cases,
        activities=tuple(sorted(activities)),
        resources=tuple(sorted(resources)),
        event_attr_types=event_types,
        case_attr_types=case_types,
        span=None if lo is None else (lo, hi),
        meta=dict(log.meta),
    )


def _merge_types(table: dict[str, str], attrs: dict, where: str) -> None:
    for key, value in attrs.items():
        t = attribute_type(value)
        prev = table.setdefault(key, t)
        if prev != t:
            raise AttributeTypeMismatch(
                f"attribute {key!r} is {prev} elsewhere but {t} at {where}"
            )
