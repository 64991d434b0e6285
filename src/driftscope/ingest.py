"""Event-log ingestion and export: delimited text files and XES.

The CSV reader understands RFC-4180 quoting with a configurable delimiter.
A :class:`CsvMapping` names the columns holding the mandatory fields
(case id, activity, timestamp) plus any optional ones, and may carry a
``strftime`` pattern for non-ISO timestamps. Attribute columns are typed by
inference over the whole file: a column where every non-empty value parses
as a boolean/number/timestamp gets that type, otherwise it stays text.
A number that parses to NaN or an infinity, in a CSV cell or an XES
int/float attribute, is an error that names its row or event and column.

The XES reader covers the trace/event subset of IEEE 1849-2016 with
string/date/int/float/boolean attributes. The standard keys concept:name,
time:timestamp, org:resource and lifecycle:transition map onto the model
fields; everything else is preserved as a typed attribute.
"""

from __future__ import annotations

import csv
import json
import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from .errors import (
    ConfigInvalid,
    EmptyLog,
    MissingColumn,
    MissingConceptName,
    NonFiniteNumber,
    TimestampParse,
    XmlMalformed,
)
from .model import (
    BOOLEAN,
    LIFECYCLE_COMPLETE,
    LIFECYCLE_START,
    NUMBER,
    TEXT,
    TIMESTAMP,
    Case,
    Event,
    EventLog,
    sort_and_validate,
)

_XES_NS = "{http://www.xes-standard.org/}"

KEY_ACTIVITY = "concept:name"
KEY_TIMESTAMP = "time:timestamp"
KEY_RESOURCE = "org:resource"
KEY_LIFECYCLE = "lifecycle:transition"


@dataclass
class CsvMapping:
    """Column mapping for delimited event-log files."""

    case_id_col: str
    activity_col: str
    timestamp_col: str
    timestamp_format: str | None = None
    resource_col: str | None = None
    lifecycle_col: str | None = None
    event_attr_cols: tuple[str, ...] = ()
    case_attr_cols: tuple[str, ...] = ()
    delimiter: str = ","

    def __post_init__(self):
        self.event_attr_cols = tuple(self.event_attr_cols)
        self.case_attr_cols = tuple(self.case_attr_cols)
        mandatory = (self.case_id_col, self.activity_col, self.timestamp_col)
        if not all(mandatory):
            raise ConfigInvalid("case id, activity and timestamp columns are all required")
        if len(set(mandatory)) != 3:
            raise ConfigInvalid("case id, activity and timestamp columns must be distinct")
        if len(self.delimiter) != 1:
            raise ConfigInvalid("delimiter must be a single character")

    def columns(self) -> list[str]:
        """All referenced column names, mandatory first."""
        cols = [self.case_id_col, self.activity_col, self.timestamp_col]
        if self.resource_col:
            cols.append(self.resource_col)
        if self.lifecycle_col:
            cols.append(self.lifecycle_col)
        cols.extend(self.event_attr_cols)
        cols.extend(self.case_attr_cols)
        return cols

    def to_dict(self) -> dict:
        return {
            "case_id_col": self.case_id_col,
            "activity_col": self.activity_col,
            "timestamp_col": self.timestamp_col,
            "timestamp_format": self.timestamp_format,
            "resource_col": self.resource_col,
            "lifecycle_col": self.lifecycle_col,
            "event_attr_cols": list(self.event_attr_cols),
            "case_attr_cols": list(self.case_attr_cols),
            "delimiter": self.delimiter,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CsvMapping":
        known = {
            "case_id_col", "activity_col", "timestamp_col", "timestamp_format",
            "resource_col", "lifecycle_col", "event_attr_cols", "case_attr_cols",
            "delimiter",
        }
        unknown = set(data) - known
        if unknown:
            raise ConfigInvalid(f"unknown mapping keys: {sorted(unknown)}")
        try:
            return cls(**data)
        except TypeError as exc:
            raise ConfigInvalid(f"invalid mapping: {exc}") from exc

    @classmethod
    def from_json_file(cls, path: str | Path) -> "CsvMapping":
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigInvalid(f"cannot read mapping file {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigInvalid("mapping file must hold a JSON object")
        return cls.from_dict(data)


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
    row number; duplicate rows are therefore accepted. Empty cells count as
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


def write_csv(log: EventLog, mapping: CsvMapping, path: str | Path) -> None:
    """Export a log to a delimited file laid out per ``mapping``."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, delimiter=mapping.delimiter)
        writer.writerow(mapping.columns())
        for case in log.cases.values():
            for e in case.events:
                row = [case.case_id, e.activity, _format_ts(e.timestamp, mapping)]
                if mapping.resource_col:
                    row.append(e.resource or "")
                if mapping.lifecycle_col:
                    row.append(e.lifecycle or "")
                for col in mapping.event_attr_cols:
                    row.append(_format_value(e.attrs.get(col)))
                for col in mapping.case_attr_cols:
                    row.append(_format_value(case.attrs.get(col)))
                writer.writerow(row)


def _format_ts(ts: datetime, mapping: CsvMapping) -> str:
    if mapping.timestamp_format is not None:
        return ts.strftime(mapping.timestamp_format)
    return ts.isoformat()


def _format_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, datetime):
        return value.isoformat()
    return str(value)


def parse_xes(path: str | Path) -> EventLog:
    """Read an XES document into a validated event log.

    Trace-level attributes become case attributes, with concept:name as the
    case identifier (synthesised when absent). Lifecycle transitions other
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
    for tracenum, trace in enumerate(_children(root, "trace"), start=1):
        case_attrs = _parse_attrs(trace, f"trace {tracenum}", skip_events=True)
        case_id = case_attrs.pop(KEY_ACTIVITY, None) or f"trace_{tracenum}"
        case = Case(case_id=str(case_id), attrs=case_attrs)
        for ev in _children(trace, "event"):
            event_index += 1
            attrs = _parse_attrs(ev, f"event #{event_index}", skip_events=False)
            activity = attrs.pop(KEY_ACTIVITY, None)
            if activity is None:
                raise MissingConceptName(
                    f"event #{event_index} (trace {case.case_id!r}) has no concept:name",
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
            attrs[key] = value.strip().lower() == "true"
        # container and extension elements are outside the supported subset
    return attrs


def write_xes(log: EventLog, path: str | Path) -> None:
    """Export a log as an XES document using typed attribute elements."""
    root = ET.Element("log", {"xes.version": "1849-2016", "xes.features": ""})
    for case in log.cases.values():
        trace = ET.SubElement(root, "trace")
        _emit_attr(trace, KEY_ACTIVITY, case.case_id)
        for key, value in case.attrs.items():
            _emit_attr(trace, key, value)
        for e in case.events:
            ev = ET.SubElement(trace, "event")
            _emit_attr(ev, KEY_ACTIVITY, e.activity)
            _emit_attr(ev, KEY_TIMESTAMP, e.timestamp)
            if e.resource is not None:
                _emit_attr(ev, KEY_RESOURCE, e.resource)
            if e.lifecycle is not None:
                _emit_attr(ev, KEY_LIFECYCLE, e.lifecycle)
            for key, value in e.attrs.items():
                _emit_attr(ev, key, value)
    tree = ET.ElementTree(root)
    ET.indent(tree)
    tree.write(path, encoding="utf-8", xml_declaration=True)


def _emit_attr(parent: ET.Element, key: str, value) -> None:
    if isinstance(value, bool):
        tag, text = "boolean", "true" if value else "false"
    elif isinstance(value, (int, float)):
        tag, text = "float", repr(float(value))
    elif isinstance(value, datetime):
        tag, text = "date", value.isoformat()
    else:
        tag, text = "string", str(value)
    ET.SubElement(parent, tag, {"key": key, "value": text})
