"""Core event-log model.

An :class:`EventLog` is a collection of cases; a :class:`Case` is a sequence
of events ordered by timestamp. Events carry an activity name, a timestamp,
an optional resource and lifecycle marker, and a free-form attribute map.
Attribute values are restricted to numbers, text, booleans and timestamps,
and a given key must carry one type throughout a log.

A validated log stores its events once, as the parallel arrays of a
:class:`LogColumns`. Every source codes its case ids, activities, resources
and lifecycles through :func:`coded` (the CSV reader a block at a time,
through :class:`Coder`) and hands the codes and the other per-event values to
:func:`columnar_log`, which reads the lifecycles and stores the attributes,
rejecting a key that mixes types: the parsers, the generator, and
:func:`sort_and_validate` for a draft (``EventLog()``, which holds only
``cases`` and ``meta``) filled with :class:`Case` and :class:`Event` objects,
after checking their ids and values as the parsers check cells.
:func:`sort_and_validate` then orders the events and sorts the catalogs.
After that the log is treated as immutable and the package reads only its
columns: the extractors through :attr:`EventLog.table`, the writers directly.
``log.cases`` and :meth:`EventLog.iter_events` build ``Case``/``Event``
objects from the columns on demand, case by case, and keep none of them.
"""

from __future__ import annotations

from array import array
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from datetime import datetime, timedelta, timezone
from functools import cached_property
from itertools import count, repeat
from typing import Iterator, NamedTuple

import numpy as np

from .errors import (
    AttributeTypeMismatch,
    DuplicateEventId,
    EmptyValue,
    EventInMultipleCases,
    NonFiniteNumber,
    TimestampParse,
)

#: One microsecond, used to convert timestamp differences to exact integers.
_US = timedelta(microseconds=1)
#: Timestamps are stored as integer microseconds since this naive instant.
EPOCH = datetime(1970, 1, 1)
_EPOCH_UTC = EPOCH.replace(tzinfo=timezone.utc)
_US_MIN, _US_MAX = (datetime.min - EPOCH) // _US, (datetime.max - EPOCH) // _US

#: Attribute type names used in the per-log attribute tables.
NUMBER = "number"
TEXT = "text"
BOOLEAN = "boolean"
TIMESTAMP = "timestamp"

#: Lifecycle markers recognised by the performance extractors; the lifecycle
#: column stores the index into ``LIFECYCLES`` (0: none).
LIFECYCLE_START = "start"
LIFECYCLE_COMPLETE = "complete"
LIFECYCLES = (None, LIFECYCLE_START, LIFECYCLE_COMPLETE)


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


def to_us(ts: datetime) -> int:
    """A timestamp as integer microseconds since :data:`EPOCH`; an aware one is
    read as its UTC instant, which raises ``OverflowError`` outside ``datetime``'s range."""
    us = (ts - (EPOCH if ts.tzinfo is None else _EPOCH_UTC)) // _US
    if not _US_MIN <= us <= _US_MAX:  # only an aware stamp can fall outside
        raise OverflowError("date value out of range")
    return us


def from_us(us: int) -> datetime:
    """The naive timestamp ``us`` microseconds after :data:`EPOCH` (inverse of :func:`to_us`)."""
    return EPOCH + int(us) * _US


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


class Attribute(NamedTuple):
    """One attribute key over all events (or all cases) of a log.

    ``values`` is float64 (NaN where absent) for numbers, bool for booleans,
    object (``None`` where absent) for text and ``datetime64[us]`` for timestamps.
    """

    type: str
    present: np.ndarray
    values: np.ndarray

    @classmethod
    def of(cls, name: str, n: int, rows, types, values) -> "Attribute":
        """The column ``name`` of ``n`` entries holding typed records: ``values[i]``
        at entry ``rows[i]``. ``types`` is one type for every record or one per
        record, all alike (else :class:`AttributeTypeMismatch`); timestamps come
        as integer microseconds since :data:`EPOCH`."""
        types, *mixed = [types] if isinstance(types, str) else dict.fromkeys(types)
        if mixed:
            raise AttributeTypeMismatch(f"{name} mixes {' and '.join([types, *mixed])} values")
        dtype, empty = _STORAGE[types]
        if types == TIMESTAMP:
            values = np.asarray(values, dtype=np.int64).astype(dtype)
        elif dtype is object:
            values = np.asarray(values, dtype=object)
        present = np.zeros(n, dtype=bool)
        present[rows] = True
        column = np.full(n, empty, dtype=dtype)
        column[rows] = values
        return cls(types, present, column)


_STORAGE = {NUMBER: (np.float64, np.nan), BOOLEAN: (bool, False),
            TIMESTAMP: ("datetime64[us]", None), TEXT: (object, None)}


@dataclass
class LogColumns:
    """A log's events as parallel arrays; row ``i`` is one event.

    ``case``, ``activity`` and ``resource`` are codes into ``case_ids``,
    ``activities`` and ``resources`` (-1: no resource); ``lifecycle``
    indexes :data:`LIFECYCLES`; ``time_us`` is naive UTC in microseconds
    since :data:`EPOCH`. Event attributes have one entry per row, case
    attributes one per case code. ``source`` is each row's position in
    ingestion order (``None``: the rows are in that order); ``event_ids``
    lists the identifiers in ingestion order (``None``: ``e1``, ``e2``, ...).
    """

    case_ids: list[str]
    case: np.ndarray
    activities: tuple[str, ...]
    activity: np.ndarray
    resources: tuple[str, ...]
    resource: np.ndarray
    lifecycle: np.ndarray
    time_us: np.ndarray
    event_attrs: dict[str, Attribute] = field(default_factory=dict)
    case_attrs: dict[str, Attribute] = field(default_factory=dict)
    source: np.ndarray | None = None
    event_ids: list[str] | None = None


class EventLog:
    """A collection of cases plus derived catalogs.

    ``EventLog()`` starts a draft holding only ``meta`` and ``cases``, a dict
    to fill with :class:`Case` objects before :func:`sort_and_validate`. The
    other members read the :class:`LogColumns` of a validated log, whose
    ``cases`` is a read-only mapping that builds each case when asked for.

    ``activities`` and ``resources`` are sorted tuples so that feature row
    order never depends on ingestion order. ``span`` is the pair of earliest
    and latest event timestamps; the earliest one doubles as the reference
    instant for all interval arithmetic. ``meta`` carries ingestion notes
    (e.g. how many exotic lifecycle transitions were dropped) that the
    pipeline surfaces in report metadata.
    """

    def __init__(self, cases: dict[str, Case] | None = None, meta: dict | None = None,
                 columns: LogColumns | None = None):
        self.meta = {} if meta is None else meta
        self.columns = columns
        self._draft = {} if cases is None else cases
        self.span: tuple[datetime, datetime] | None = None
        if columns is not None and len(columns.time_us):
            self.span = (from_us(columns.time_us.min()), from_us(columns.time_us.max()))

    @cached_property
    def cases(self) -> Mapping[str, Case]:
        return self._draft if self.columns is None else CaseView(self.columns)

    @property
    def activities(self) -> tuple[str, ...]:
        return self.columns.activities

    @property
    def resources(self) -> tuple[str, ...]:
        return self.columns.resources

    @property
    def event_attr_types(self) -> dict[str, str]:
        return _types(self.columns.event_attrs)

    @property
    def case_attr_types(self) -> dict[str, str]:
        return _types(self.columns.case_attrs)

    def iter_events(self) -> Iterator[Event]:
        """Yield all events, case by case, in stored order."""
        for case in self.cases.values():
            yield from case.events

    @property
    def event_count(self) -> int:
        return len(self.columns.time_us)

    @property
    def case_count(self) -> int:
        return len(self.columns.case_ids)

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
        """The derived per-event columns; built once, on first use."""
        return EventTable(self)


def _types(attrs: dict[str, Attribute]) -> dict[str, str]:
    return {key: attr.type for key, attr in attrs.items()}


class CaseView(Mapping):
    """``log.cases`` of a validated log: case id to :class:`Case`, each built
    from the columns when it is asked for and not kept."""

    def __init__(self, columns: LogColumns):
        self._c = columns
        self._bounds = np.searchsorted(columns.case, np.arange(len(columns.case_ids) + 1)).tolist()

    @cached_property
    def _code(self) -> dict[str, int]:
        return {case_id: i for i, case_id in enumerate(self._c.case_ids)}

    def __len__(self) -> int:
        return len(self._c.case_ids)

    def __iter__(self) -> Iterator[str]:
        return iter(self._c.case_ids)

    def __getitem__(self, case_id: str) -> Case:
        return self._case(self._code[case_id])

    def _case(self, code: int) -> Case:
        c, a, b = self._c, self._bounds[code], self._bounds[code + 1]
        case_id = c.case_ids[code]
        rows = range(a, b) if c.source is None else c.source[a:b].tolist()
        ids = [c.event_ids[i] for i in rows] if c.event_ids else [f"e{i + 1}" for i in rows]
        events = map(Event, ids, repeat(case_id), decode(c.activities, c.activity[a:b]),
                     c.time_us[a:b].astype("datetime64[us]").tolist(),
                     decode((*c.resources, None), c.resource[a:b]),
                     decode(LIFECYCLES, c.lifecycle[a:b]), _attr_dicts(c.event_attrs, a, b))
        return Case(case_id, _attr_dicts(c.case_attrs, code, code + 1)[0], list(events))


def decode(names, codes: np.ndarray) -> list:
    """``names[code]`` for each code."""
    return list(map(names.__getitem__, codes.tolist()))


def _attr_dicts(attrs: dict[str, Attribute], a: int, b: int) -> list[dict]:
    """The attribute dicts of entries ``a`` to ``b`` (events or cases)."""
    out: list[dict] = [{} for _ in range(b - a)]
    for key, attr in attrs.items():
        values = attr.values[a:b].tolist()
        for i in np.flatnonzero(attr.present[a:b]).tolist():
            out[i][key] = values[i]
    return out


class EventTable:
    """The per-event columns the extractors read, derived from a validated log.

    Row ``i`` is the ``i``-th event of :meth:`EventLog.iter_events`, so each
    case's events are contiguous and in time order. ``case``, ``activity``
    and ``resource`` are the log's int32 codes into ``log.cases`` (stored
    order), ``log.activities`` and ``log.resources``; -1 means no resource.

    * ``prev``: int32 row of the previous event of the same case, -1 for none.
    * ``service_s``: for a complete event, seconds since the nearest
      preceding still-open start of the same activity in the same case,
      which that complete closes; NaN for every other event. Built on
      first read, as only the service-time extractor reads it.
    * ``case_end``: the row is its case's last event; ``case_duration_s``
      holds each case's first-to-last span, indexed by case code.
    * :meth:`attr_column`: per attribute key, a presence mask and a float64
      column (per event or per case), NaN where absent. A non-numeric
      attribute's column is all NaN: the only aggregation over it is
      ``count``, which reads the mask.

    Durations: ``log.columns.time_us`` differences over 1e6, exactly ``timedelta.total_seconds()``.
    """

    def __init__(self, log: EventLog):
        c = log.columns
        n = len(c.time_us)
        sizes = np.bincount(c.case, minlength=len(c.case_ids))
        first = np.cumsum(sizes) - sizes
        last = (first + sizes - 1)[sizes > 0]
        first = first[sizes > 0]

        self.case = c.case
        self.activity = c.activity
        self.resource = c.resource
        self.prev = np.arange(-1, n - 1, dtype=np.int32)
        self.prev[first] = -1
        self.case_end = np.zeros(n, dtype=bool)
        self.case_end[last] = True
        self.case_duration_s = np.zeros(len(c.case_ids))
        self.case_duration_s[sizes > 0] = (c.time_us[last] - c.time_us[first]) / 1e6
        self._columns = c
        self._attrs = {"event": c.event_attrs, "case": c.case_attrs}

    @property
    def offset_us(self) -> np.ndarray:
        """Offsets from the log origin, computed when read; nothing in the package reads them."""
        return self._columns.time_us - self._columns.time_us.min(initial=_US_MAX)

    def attr_column(self, key: str, level: str) -> tuple[np.ndarray, np.ndarray]:
        """Presence mask and float64 values of an ``"event"`` or ``"case"`` attribute."""
        attr = self._attrs[level][key]
        if attr.type == NUMBER:
            return attr.present, attr.values
        return attr.present, np.full(len(attr.present), np.nan)

    @cached_property
    def service_s(self) -> np.ndarray:
        return self._service_seconds(self._columns.lifecycle, len(self._columns.activities))

    def _service_seconds(self, kind: np.ndarray, n_activities: int) -> np.ndarray:
        # Walk the start/complete rows grouped by (case, activity), in time
        # order within each group; no per-event containers, so no GC churn.
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
        out = np.full(len(kind), np.nan)
        out[completes] = (self._columns.time_us[completes] - self._columns.time_us[starts]) / 1e6
        return out


def columnar_log(case: tuple, activity: tuple, resource: tuple | None, lifecycle: tuple | None,
                 time_us: np.ndarray, event_attrs: dict, case_attrs: dict, meta: dict,
                 event_ids: list[str] | None = None) -> EventLog:
    """An unvalidated log of per-event values in ingestion order, for
    :func:`sort_and_validate`; every way of building a log goes through here.

    ``case``, ``activity``, ``resource`` and ``lifecycle`` are each a catalog
    and an int32 code per event, as :func:`coded` gives them (-1: no value);
    None for the whole resource or lifecycle means the log has no such
    field. A lifecycle of start or complete is read without regard to case;
    any other text is dropped and counted in ``ignored_lifecycle_transitions``.
    ``event_attrs`` and ``case_attrs`` map each key to its typed records
    ``(rows, types, values)`` as :meth:`Attribute.of` takes them; it rejects a
    key that mixes types. Only ``meta``'s non-zero counts are kept.
    ``event_ids`` defaults to ``e1``, ``e2``, ...
    """
    n = len(time_us)
    kind, ignored = np.zeros(n, dtype=np.int8), 0
    if lifecycle is not None:
        names, codes = lifecycle
        lower = [str(name).lower() for name in names]
        known = [LIFECYCLES.index(k) if k in LIFECYCLES else 0 for k in lower]
        kind = np.array(known + [0], dtype=np.int8)[codes]  # code -1 (no value) takes the 0
        ignored = int(np.count_nonzero(codes >= 0)) - int(np.count_nonzero(kind))
    note = "ignored_lifecycle_transitions"
    counts = {**meta, note: meta.get(note, 0) + ignored}
    if resource is None:
        resource = (), np.full(n, -1, dtype=np.int32)
    case_ids, case = case
    columns = LogColumns(
        list(case_ids), case, *activity, *resource, kind, time_us,
        {key: Attribute.of(f"event attribute {key!r}", n, *records)
         for key, records in event_attrs.items()},
        {key: Attribute.of(f"case attribute {key!r}", len(case_ids), *records)
         for key, records in case_attrs.items()},
        event_ids=event_ids,
    )
    return EventLog(meta={key: value for key, value in counts.items() if value}, columns=columns)


def sort_and_validate(log: EventLog) -> EventLog:
    """Order events and derive the catalogs.

    Events are ordered by case, then timestamp, with a stable sort, so
    simultaneous events keep their ingestion order. A log built from objects
    is first checked in ingestion order: :class:`EmptyValue` for an empty case
    id or activity or :class:`EventInMultipleCases` for another case's id, then
    :class:`DuplicateEventId` or :class:`EventInMultipleCases` when an event id
    repeats in a case or across cases, then :class:`NonFiniteNumber`.
    """
    if log.columns is None:  # built from Case and Event objects
        cases, events, owner = list(log.cases.values()), [], {}
        for number, case in enumerate(cases, start=1):
            if not str(case.case_id or "").strip():
                raise EmptyValue(f"case #{number}: case_id is empty")
            for e in case.events:
                if e.case_id != case.case_id:
                    raise EventInMultipleCases(
                        f"event {e.event_id!r} carries case id {e.case_id!r} "
                        f"but is stored under case {case.case_id!r}"
                    )
                if not str(e.activity or "").strip():
                    raise EmptyValue(f"event {e.event_id!r}: activity is empty")
        for code, case in enumerate(cases):
            for e in case.events:
                first = owner.get(e.event_id)
                if first == code:
                    raise DuplicateEventId(
                        f"event id {e.event_id!r} occurs twice in case {case.case_id!r}")
                if first is not None:
                    raise EventInMultipleCases(
                        f"event id {e.event_id!r} appears in cases "
                        f"{cases[first].case_id!r} and {case.case_id!r}")
                owner[e.event_id] = code
            events += case.events
        ids = [e.event_id for e in events]
        codes = np.repeat(np.arange(len(cases), dtype=np.int32), [len(c.events) for c in cases])
        log = columnar_log(
            ([case.case_id for case in cases], codes),
            coded([e.activity for e in events]), coded([e.resource for e in events]),
            coded([e.lifecycle for e in events]),
            np.array([_us(e.timestamp, "event", e.event_id) for e in events], dtype=np.int64),
            _records([e.attrs for e in events], "event", ids),
            _records([case.attrs for case in cases], "case", [case.case_id for case in cases]),
            log.meta, ids,
        )
    c = log.columns
    order = np.lexsort((c.time_us, c.case))
    if (order[1:] < order[:-1]).any():  # a permutation with no descent is the identity
        c = replace(
            c, case=c.case[order], activity=c.activity[order], resource=c.resource[order],
            lifecycle=c.lifecycle[order], time_us=c.time_us[order],
            source=order if c.source is None else c.source[order],
            event_attrs={k: Attribute(a.type, a.present[order], a.values[order])
                         for k, a in c.event_attrs.items()},
        )
    activities, activity = _sorted_codes(c.activities, c.activity)
    resources, resource = _sorted_codes(c.resources, c.resource)
    c = replace(c, activities=activities, activity=activity,
                resources=resources, resource=resource)
    return EventLog(meta=dict(log.meta), columns=c)


def _us(ts: datetime, level: str, name: str) -> int:
    """:func:`to_us` of a stamp held by the ``level`` (event or case) ``name``."""
    try:
        return to_us(ts)
    except OverflowError as exc:
        raise TimestampParse(f"{level} {name!r}: timestamp {ts.isoformat()}: {exc}") from exc


def _sorted_codes(names: tuple, codes: np.ndarray) -> tuple[tuple, np.ndarray]:
    """The catalog in sorted order and the codes renumbered to match; -1 stays."""
    order = sorted(range(len(names)), key=names.__getitem__)
    rank = np.empty(len(names) + 1, dtype=np.int32)
    rank[order] = np.arange(len(names), dtype=np.int32)
    rank[-1] = -1
    return tuple(names[i] for i in order), rank[codes]


class Coder:
    """Codes values into their distinct values, in first-appearance order, a
    block of values at a time. Between blocks it keeps only each distinct
    value with its first row, and for each value added the number of that
    row, in one growing int32 buffer."""

    def __init__(self):
        self.first: dict = {}  # each value's first row, in first-appearance order
        self._rows = array("i")

    def add(self, values: list) -> None:
        # each value's first row, in one C-level pass
        rows = map(self.first.setdefault, values, count(len(self._rows)))
        self._rows.frombytes(np.fromiter(rows, np.int32, len(values)).view(np.uint8))

    def result(self, absent=None) -> tuple[tuple, np.ndarray]:
        """The distinct values and an int32 code per value added; ``absent`` is
        not a value: its code is -1."""
        names = list(self.first)
        number = np.arange(len(names), dtype=np.int32)
        if absent in self.first:
            gone = names.index(absent)
            del names[gone]
            number[gone + 1:] -= 1
            number[gone] = -1
        # a value's code is its first row's rank; only first rows are looked up
        rows = np.frombuffer(self._rows, np.int32)
        rank = np.empty(len(rows), np.int32)
        rank[np.fromiter(self.first.values(), np.int64, len(number))] = number
        return tuple(names), rank[rows]


def coded(values: list) -> tuple[tuple, np.ndarray]:
    """Distinct values in first-appearance order and an int32 code per value;
    None is not a value: its code is -1."""
    coder = Coder()
    coder.add(values)
    return coder.result()


def _records(dicts: list[dict], level: str, names: list[str]) -> dict[str, tuple[list, list, list]]:
    """The typed records of each key of a list of attribute dicts, row ``i``
    being ``dicts[i]``, the attributes of the ``level`` ``names[i]``."""
    out: dict[str, tuple[list, list, list]] = {}
    for row, attrs in enumerate(dicts):
        for key, value in attrs.items():
            rows, types, values = out.setdefault(key, ([], [], []))
            rows.append(row)
            types.append(attribute_type(value))
            if types[-1] == NUMBER and not np.isfinite(value):
                raise NonFiniteNumber(f"{level} {names[row]!r}, attribute", key, str(value))
            values.append(_us(value, level, names[row]) if types[-1] == TIMESTAMP else value)
    return out
