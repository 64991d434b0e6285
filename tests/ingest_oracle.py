"""The event-log parsers as they were before ingest became columnar.

``parse_csv``, ``parse_xes`` and ``sort_and_validate`` are kept here
unchanged, with the object-model ``EventLog`` they build, as the oracle for
the parity properties in ``test_ingest_parity.py``: they build one
``Event`` per row through ``csv.reader`` and ``ElementTree`` and validate
event by event. ``Case`` and ``Event`` are the package's own, so the two
object views compare field by field. ``unreadable_row`` is the whole-file
reading of the first record that is not UTF-8 or that ``csv`` cannot split,
the oracle for the streamed ``RowUnreadable``. ``write_csv`` is the CSV
writer as it was, one row at a time through ``csv.writer``: the oracle for
the one-pass writer, which must give the same bytes.
"""

from __future__ import annotations

import csv
import io
import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field, replace
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import Iterator

from driftscope.errors import (
    AttributeTypeMismatch,
    DuplicateEventId,
    DuplicateTraceId,
    EmptyLog,
    EmptyValue,
    EventInMultipleCases,
    MissingColumn,
    MissingConceptName,
    NonFiniteNumber,
    TimestampParse,
    XmlMalformed,
)
from driftscope.ingest import CsvMapping, _formatted, _isoformat
from driftscope.model import (
    BOOLEAN,
    LIFECYCLE_COMPLETE,
    LIFECYCLE_START,
    LIFECYCLES,
    NUMBER,
    TEXT,
    TIMESTAMP,
    Case,
    Event,
    attribute_type,
    decode,
)

_XES_NS = "{http://www.xes-standard.org/}"

KEY_ACTIVITY = "concept:name"
KEY_TIMESTAMP = "time:timestamp"
KEY_RESOURCE = "org:resource"
KEY_LIFECYCLE = "lifecycle:transition"

#: One microsecond, used to convert timestamp differences to exact integers.
_US = timedelta(microseconds=1)


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


def parse_timestamp(text: str, fmt: str | None = None, row: int | None = None) -> datetime:
    """Parse one timestamp; timezone-aware values are normalised to naive UTC."""
    raw = text.strip()
    try:
        if fmt is not None:
            ts = datetime.strptime(raw, fmt)
        else:
            # Python 3.10 fromisoformat rejects a trailing Z; map it by hand.
            ts = datetime.fromisoformat(raw[:-1] + "+00:00" if raw.endswith(("Z", "z")) else raw)
    except ValueError as exc:
        where = "" if row is None else f"row {row}: "
        raise TimestampParse(f"{where}cannot parse timestamp {text!r}: {exc}", row=row) from exc
    if ts.tzinfo is not None:
        ts = ts.astimezone(timezone.utc).replace(tzinfo=None)
    return ts


def _parse_bool(text: str) -> bool | None:
    low = text.strip().lower()
    if low == "true":
        return True
    if low == "false":
        return False
    return None


def _infer_column_type(values: list[str]) -> str:
    """Infer one type for a CSV column from all its non-empty values."""
    if not values:
        return TEXT
    if all(_parse_bool(v) is not None for v in values):
        return BOOLEAN
    try:
        for v in values:
            float(v)
        return NUMBER
    except ValueError:
        pass
    try:
        for v in values:
            parse_timestamp(v)
        return TIMESTAMP
    except TimestampParse:
        pass
    return TEXT


def _convert(value: str, ctype: str, row: int, col: str):
    if ctype == BOOLEAN:
        return _parse_bool(value)
    if ctype == NUMBER:
        number = float(value)
        if not math.isfinite(number):
            raise NonFiniteNumber(f"row {row}, column", col, value, row=row)
        return number
    if ctype == TIMESTAMP:
        return parse_timestamp(value)
    return value


def parse_csv(path: str | Path, mapping: CsvMapping) -> EventLog:
    """Read a delimited file into a validated event log.

    One event is created per data row, with identifiers synthesised from the
    row number; duplicate rows are therefore accepted. An empty case id or
    activity cell raises :class:`EmptyValue`; other empty cells count as
    missing values and are skipped. A case attribute takes the first value
    its case's rows give it; every row's cell is still converted and
    checked, and each later value that differs is counted in
    ``log.meta["case_attr_conflicts"]``.
    """
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh, delimiter=mapping.delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyLog(f"{path}: file is empty") from None
        rows = list(reader)

    colidx: dict[str, int] = {}
    for i, name in enumerate(header):
        colidx.setdefault(name.strip(), i)
    for col in mapping.columns():
        if col not in colidx:
            raise MissingColumn(f"{path}: column {col!r} not found in header {header}")
    if not rows:
        raise EmptyLog(f"{path}: no data rows")

    def cell(row: list[str], col: str) -> str:
        i = colidx[col]
        return row[i].strip() if i < len(row) else ""

    attr_cols = tuple(mapping.event_attr_cols) + tuple(mapping.case_attr_cols)
    col_types = {
        col: _infer_column_type([cell(r, col) for r in rows if cell(r, col) != ""])
        for col in attr_cols
    }

    log = EventLog()
    ignored_lifecycle = 0
    case_attr_conflicts = 0
    for rownum, row in enumerate(rows, start=2):
        case_id = cell(row, mapping.case_id_col)
        activity = cell(row, mapping.activity_col)
        if not (case_id and activity):
            col = mapping.activity_col if case_id else mapping.case_id_col
            raise EmptyValue(f"row {rownum}: column {col!r} is empty", row=rownum)
        ts = parse_timestamp(
            cell(row, mapping.timestamp_col), mapping.timestamp_format, row=rownum
        )
        resource = cell(row, mapping.resource_col) if mapping.resource_col else ""
        lifecycle = None
        if mapping.lifecycle_col:
            raw = cell(row, mapping.lifecycle_col).lower()
            if raw in (LIFECYCLE_START, LIFECYCLE_COMPLETE):
                lifecycle = raw
            elif raw:
                ignored_lifecycle += 1
        attrs = {}
        for col in mapping.event_attr_cols:
            value = cell(row, col)
            if value != "":
                attrs[col] = _convert(value, col_types[col], rownum, col)
        case = log.cases.get(case_id)
        if case is None:
            case = log.cases[case_id] = Case(case_id=case_id)
        for col in mapping.case_attr_cols:
            value = cell(row, col)
            if value != "":
                value = _convert(value, col_types[col], rownum, col)
                if case.attrs.setdefault(col, value) != value:
                    case_attr_conflicts += 1
        case.events.append(
            Event(
                event_id=f"e{rownum - 1}",
                case_id=case_id,
                activity=activity,
                timestamp=ts,
                resource=resource or None,
                lifecycle=lifecycle,
                attrs=attrs,
            )
        )
    if ignored_lifecycle:
        log.meta["ignored_lifecycle_transitions"] = ignored_lifecycle
    if case_attr_conflicts:
        log.meta["case_attr_conflicts"] = case_attr_conflicts
    return sort_and_validate(log)


def unreadable_row(path: str | Path, delimiter: str) -> tuple[int, str | None]:
    """Row and problem of the first record that is not UTF-8 or that ``csv``
    cannot split, found in the whole file decoded at once."""
    data = Path(path).read_bytes()
    try:
        text, problem = data.decode("utf-8"), None
    except UnicodeDecodeError as exc:
        # the last record of the text up to the bad byte is the one holding it
        text = data[:exc.start].decode("utf-8") + "?"
        problem = f"byte {data[exc.start]:#04x} is not UTF-8"
    row = 0
    try:
        for row, _ in enumerate(csv.reader(io.StringIO(text, newline=""), delimiter=delimiter),
                                start=1):
            pass
    except csv.Error as exc:
        row, problem = row + 1, str(exc)
    return row, problem


def write_csv(log, mapping: CsvMapping, path: str | Path) -> None:
    """Export a columnar log (``driftscope.model.EventLog``) through ``csv.writer``."""
    c = log.columns
    fmt = mapping.timestamp_format
    stamps = (_isoformat(c.time_us) if fmt is None
              else [ts.strftime(fmt) for ts in c.time_us.astype("datetime64[us]").tolist()])
    out = [decode(c.case_ids, c.case), decode(c.activities, c.activity), stamps]
    if mapping.resource_col:
        out.append(decode((*c.resources, ""), c.resource))
    if mapping.lifecycle_col:
        out.append(decode(("", *LIFECYCLES[1:]), c.lifecycle))
    out += [_formatted(c.event_attrs.get(col), len(c.case)) for col in mapping.event_attr_cols]
    out += [decode(_formatted(c.case_attrs.get(col), len(c.case_ids)), c.case)
            for col in mapping.case_attr_cols]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, delimiter=mapping.delimiter)
        writer.writerow(mapping.columns())
        writer.writerows(zip(*out))


def parse_xes(path: str | Path) -> EventLog:
    """Read an XES document into a validated event log.

    Trace-level attributes become case attributes, with concept:name as the
    case identifier (synthesised when absent); two traces with one identifier
    raise :class:`DuplicateTraceId`. Lifecycle transitions other
    than start/complete are dropped and counted in ``log.meta``. Unknown
    attribute keys are preserved with their declared types.
    """
    try:
        tree = ET.parse(path)
    except ET.ParseError as exc:
        raise XmlMalformed(f"{path}: {exc}") from exc
    root = tree.getroot()
    if _local(root.tag) != "log":
        raise XmlMalformed(f"{path}: root element is <{root.tag}>, expected <log>")

    log = EventLog()
    ignored_lifecycle = 0
    event_index = 0
    trace_of: dict[str, int] = {}
    for tracenum, trace in enumerate(_children(root, "trace"), start=1):
        case_attrs = _parse_attrs(trace, f"trace {tracenum}", skip_events=True)
        case_id = case_attrs.pop(KEY_ACTIVITY, None) or f"trace_{tracenum}"
        case = Case(case_id=str(case_id), attrs=case_attrs)
        first = trace_of.setdefault(case.case_id, tracenum)
        if first != tracenum:
            raise DuplicateTraceId(
                f"traces {first} and {tracenum} share the case id {case.case_id!r}"
            )
        for ev in _children(trace, "event"):
            event_index += 1
            attrs = _parse_attrs(ev, f"event #{event_index}", skip_events=False)
            activity = attrs.pop(KEY_ACTIVITY, None)
            if activity is None or not str(activity).strip():
                raise MissingConceptName(
                    f"event #{event_index} (trace {case.case_id!r}) has "
                    + ("no" if activity is None else "an empty") + " concept:name",
                    event_index=event_index,
                )
            ts = attrs.pop(KEY_TIMESTAMP, None)
            if ts is None:
                raise TimestampParse(
                    f"event #{event_index} (trace {case.case_id!r}) has no time:timestamp",
                    row=event_index,
                )
            if not isinstance(ts, datetime):
                raise TimestampParse(
                    f"event #{event_index}: time:timestamp is not a date attribute",
                    row=event_index,
                )
            resource = attrs.pop(KEY_RESOURCE, None)
            lifecycle = attrs.pop(KEY_LIFECYCLE, None)
            if lifecycle is not None:
                lifecycle = str(lifecycle).lower()
                if lifecycle not in (LIFECYCLE_START, LIFECYCLE_COMPLETE):
                    ignored_lifecycle += 1
                    lifecycle = None
            case.events.append(
                Event(
                    event_id=f"e{event_index}",
                    case_id=case.case_id,
                    activity=str(activity),
                    timestamp=ts,
                    resource=None if resource is None else str(resource),
                    lifecycle=lifecycle,
                    attrs=attrs,
                )
            )
        log.cases[case.case_id] = case
    if event_index == 0:
        raise EmptyLog(f"{path}: document contains no events")
    if ignored_lifecycle:
        log.meta["ignored_lifecycle_transitions"] = ignored_lifecycle
    return sort_and_validate(log)


def _local(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def _children(elem: ET.Element, name: str) -> list[ET.Element]:
    return [c for c in elem if _local(c.tag) == name]


def _parse_attrs(elem: ET.Element, where: str, skip_events: bool) -> dict:
    attrs: dict = {}
    for child in elem:
        tag = _local(child.tag)
        if skip_events and tag == "event":
            continue
        key = child.get("key")
        value = child.get("value")
        if key is None or value is None:
            continue
        if tag == "string":
            attrs[key] = value
        elif tag == "date":
            attrs[key] = parse_timestamp(value)
        elif tag in ("int", "float"):
            try:
                attrs[key] = float(value)
            except ValueError as exc:
                raise XmlMalformed(f"attribute {key!r} has non-numeric value {value!r}") from exc
            if not math.isfinite(attrs[key]):
                raise NonFiniteNumber(f"{where}, attribute", key, value)
        elif tag == "boolean":
            flag = value.strip().lower()
            if flag not in ("true", "false"):
                raise XmlMalformed(f"{where}, attribute {key!r} has non-boolean value {value!r}")
            attrs[key] = flag == "true"
        # container and extension elements are outside the supported subset
    return attrs


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
