"""Event-log ingestion and export: delimited text files and XES.

Both parsers code their case ids, activities, resources and lifecycles
through :func:`~driftscope.model.coded`, hand the codes and the other
per-event values to :func:`~driftscope.model.columnar_log`, and build no
per-event objects. The CSV reader understands RFC-4180 quoting with a
configurable delimiter. It reads ``_BLOCK_ROWS`` (4,096) rows at a time and
codes every column it keeps, attribute columns too, through a
:class:`~driftscope.model.Coder`, so between blocks it holds only one int32
first-row buffer per coded column and the stamps in one int64 buffer. A CSV
costs its finished columns plus about one block of Python strings, and peaks
at 1.6 to 2 times the file's size. A :class:`CsvMapping` names the columns
holding the mandatory fields (case id, activity, timestamp) plus any optional
ones, and may carry a ``strftime`` pattern for non-ISO timestamps. Attribute
columns are typed by inference over the whole file, each distinct text once:
a column where every non-empty value parses as a boolean/number/timestamp
gets that type, otherwise it stays text. The delimiter may not be CR or LF.

ISO-8601 stamps of the shapes in ``_iso_bytes``, naive or ending in ``Z`` or
``±hh:mm``, are parsed in one numpy call; every other stamp goes one by one
through :func:`_parse_datetime`, and both give the same microseconds. A number
that parses to NaN or an infinity, in a CSV cell or an XES int/float
attribute, is an error that names its row or event and column. A file that
is not UTF-8 or that ``csv`` cannot split raises
:class:`~driftscope.errors.RowUnreadable` naming the row, before any other
error, so the CSV reader reads the whole file before it raises a cell error.
When several rows are bad, the error names the first one.

The XES reader streams the document through expat and covers the
trace/event subset of IEEE 1849-2016 with string/date/int/float/boolean
attributes. The standard keys concept:name, time:timestamp, org:resource and
lifecycle:transition map onto the model fields; everything else is kept as
a typed attribute, and the last of two values of one key wins. Per key it
keeps its elements' serial numbers in an ``array`` and its value texts,
interned unless they do not repeat, and it types one key at a time, freeing
each key's record before the next, so a document peaks at about twice its
size.

Both writers format every stamp, attribute stamps too, in one numpy call
(:func:`_isoformat`, ``datetime.isoformat`` of each); only a CSV mapping's
``strftime`` pattern goes one stamp at a time. :func:`write_csv` quotes each
catalog's names once and decodes the quoted names per event; in a column of
stamps or event attributes it quotes only the cells, if any, that hold the
delimiter, ``"``, CR or LF, as ``csv``'s QUOTE_MINIMAL does, and it writes
the header and every row, joined by ``\\r\\n``, in one string.

``log.meta`` counts what ingest drops or reads with a caveat, each key only
when non-zero: ``ignored_lifecycle_transitions``, ``case_attr_conflicts``
(CSV), ``skipped_container_attributes`` (XES ``<list>``/``<container>``
elements of traces and events) and ``naive_timestamps_among_aware`` (event
stamps without an offset, read as UTC, in a log where other stamps have one).
"""

from __future__ import annotations

import csv
import gc
import json
import math
from array import array
from collections import deque
from itertools import chain, islice
import xml.etree.ElementTree as ET
from dataclasses import dataclass, fields
from datetime import datetime
from functools import cache, partial
from pathlib import Path
from xml.parsers import expat

import numpy as np

from .errors import (
    ConfigInvalid,
    DuplicateTraceId,
    EmptyLog,
    EmptyValue,
    MissingColumn,
    MissingConceptName,
    NonFiniteNumber,
    RowUnreadable,
    TimestampParse,
    XmlMalformed,
)
from .model import (
    BOOLEAN,
    LIFECYCLES,
    NUMBER,
    TEXT,
    TIMESTAMP,
    _US_MAX,
    _US_MIN,
    Attribute,
    Coder,
    EventLog,
    coded,
    columnar_log,
    csv_quoted,
    decode,
    from_us,
    sort_and_validate,
    to_us,
)

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
        for f in fields(self):
            value, many = getattr(self, f.name), f.name.endswith("_attr_cols")
            if many:  # a bare string would read as its letters
                ok = isinstance(value, (list, tuple)) and all(isinstance(v, str) for v in value)
            else:
                ok = isinstance(value, str) or (value is None and f.default is None)
            if not ok:
                kind = "a list of strings" if many else "a string"
                raise ConfigInvalid(f"mapping key {f.name!r} must be {kind}, got {value!r}")
        self.event_attr_cols = tuple(self.event_attr_cols)
        self.case_attr_cols = tuple(self.case_attr_cols)
        mandatory = (self.case_id_col, self.activity_col, self.timestamp_col)
        if not all(mandatory):
            raise ConfigInvalid("case id, activity and timestamp columns are all required")
        if len(set(mandatory)) != 3:
            raise ConfigInvalid("case id, activity and timestamp columns must be distinct")
        if len(self.delimiter) != 1 or self.delimiter in "\r\n":
            raise ConfigInvalid("delimiter must be a single character other than CR or LF")

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
        return {k: list(v) if isinstance(v, tuple) else v for k, v in vars(self).items()}

    @classmethod
    def from_dict(cls, data: dict) -> "CsvMapping":
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigInvalid(f"unknown mapping keys: {sorted(unknown)}")
        try:
            return cls(**data)
        except TypeError as exc:
            raise ConfigInvalid(f"invalid mapping: {exc}") from exc

    @classmethod
    def from_json_file(cls, path: str | Path) -> "CsvMapping":
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8-sig"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigInvalid(f"cannot read mapping file {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigInvalid("mapping file must hold a JSON object")
        return cls.from_dict(data)


def _parse_datetime(text: str, fmt: str | None) -> datetime:
    raw = text.strip()
    if fmt is not None:
        return datetime.strptime(raw, fmt)
    # Python 3.10 fromisoformat rejects a trailing Z; map it by hand.
    return datetime.fromisoformat(raw[:-1] + "+00:00" if raw.endswith(("Z", "z")) else raw)


def _stamp_error(where: str, text: str, exc: Exception, row: int | None) -> TimestampParse:
    return TimestampParse(f"{where}cannot parse timestamp {text!r}: {exc}", row=row)


#: The widest :func:`_iso_bytes` shape, ``dddd-dd-ddTdd:dd:dd.dddddd+dd:dd``.
_WIDTH = 32


@cache
def _iso_bytes() -> dict[int, tuple[np.ndarray, np.ndarray, int]]:
    """ISO-8601 shapes that numpy parses as Python 3.10 and 3.11 do, by length
    (``d`` a digit, ``T`` the separator ``T`` or a space, ``+`` the sign of a
    UTC offset): the lowest byte allowed at each position, how far above it
    the allowed bytes reach, and the length of the naive part. A date alone
    takes no suffix, as Python reads ``2021-01-04+01:00`` as 01:00 that day."""
    times = ("dddd-dd-ddTdd:dd", "dddd-dd-ddTdd:dd:dd", "dddd-dd-ddTdd:dd:dd.ddd",
             "dddd-dd-ddTdd:dd:dd.dddddd")
    shapes = [("dddd-dd-dd", 10)]
    shapes += [(t + suffix, len(t)) for t in times for suffix in ("", "Z", "+dd:dd")]
    return {len(shape): (np.frombuffer(shape.replace("d", "0").ljust(_WIDTH, "\0").encode(),
                                       np.uint8),
                         np.array([9 * (ch == "d") + 2 * (ch == "+") for ch in shape.ljust(_WIDTH)],
                                  np.uint8),
                         naive)
            for shape, naive in shapes}


def _parse_stamps(texts: list[str], fmt: str | None = None):
    """Microseconds since the epoch (naive UTC) of each text, whether it carried
    an offset, and ``(index, error)`` of the first text that does not parse.

    Texts of an :func:`_iso_bytes` shape (year 0 excepted) are parsed by numpy in
    one call, their offsets subtracted in numpy; the rest, and a stamp whose
    offset or UTC instant Python may not accept, one by one through
    :func:`_parse_datetime`."""
    n = len(texts)
    us, fast, zoned = np.zeros(n, np.int64), np.zeros(n, bool), np.zeros(n, bool)
    if fmt is None and n:
        lengths = np.fromiter(map(len, texts), np.intp, n)
        try:
            stamps = np.array(texts, dtype=f"S{_WIDTH}")
        except UnicodeEncodeError:
            stamps = np.array([t.encode("ascii", "replace") for t in texts], dtype=f"S{_WIDTH}")
        raw, shift = stamps.view(np.uint8).reshape(n, _WIDTH), np.zeros(n, np.int64)
        shapes, seen = _iso_bytes(), np.flatnonzero(np.bincount(lengths.clip(max=_WIDTH + 1)))
        for length in shapes.keys() & seen.tolist():  # only the lengths that occur
            low, span, naive = shapes[length]
            rows = np.flatnonzero(lengths == length)
            codes = raw[rows]
            codes[codes == 32] = 84  # a space separates date and time as a T does
            fast[rows] = ((codes - low) <= span).all(axis=1) & (codes[:, :4] != 48).any(axis=1)
            if length > naive + 1:  # ±hh:mm; 44 less the sign byte is 1 for +, -1 for -
                sign = 44 - codes[:, naive].astype(np.int64)
                digits = codes[:, naive + 1:length].astype(np.int64) - 48  # hh:mm
                hours, minutes = digits[:, 0] * 10 + digits[:, 1], digits[:, 3] * 10 + digits[:, 4]
                fast[rows] &= (sign != 0) & (hours < 24) & (minutes < 60)
                shift[rows] = sign * (hours * 60 + minutes) * 60_000_000
            zoned[rows] = length > naive
            raw[rows, naive:] = 0  # numpy reads the naive part
        try:
            us[fast] = stamps[fast].astype("datetime64[us]").view(np.int64) - shift[fast]
        except ValueError:  # a field out of range: the loop below names it
            fast[:] = False
        fast &= (_US_MIN <= us) & (us <= _US_MAX)  # else Python's OverflowError
    aware = fast & zoned
    slow, values, offsets, bad = np.flatnonzero(~fast).tolist(), [], [], None
    for i in slow:
        try:
            ts = _parse_datetime(texts[i], fmt)
            values.append(to_us(ts))  # OverflowError for an instant out of range
        except (ValueError, OverflowError) as exc:
            bad = (i, exc.with_traceback(None))  # no frame cycle to keep the block alive
            break
        offsets.append(ts.tzinfo is not None)
    us[slow[:len(values)]] = values
    aware[slow[:len(values)]] = offsets
    return us, aware, bad


#: Rows read and coded at a time. Between blocks the reader keeps only the
#: stamps and the codes.
_BLOCK_ROWS = 1 << 12


def _read_columns(path, mapping: CsvMapping):
    """Read the file a block of rows at a time, header excluded. Returns a
    :class:`~driftscope.model.Coder` of the stripped cells of each mapped
    column, by name: case id, activity, resource, lifecycle and every
    attribute column, the timestamp column only when it is also an attribute;
    the stamps in microseconds and which of them carried an offset, each
    grown block by block in one buffer; and the first bad stamp as
    ``(row index, text, error)``."""
    cols = mapping.columns()  # the third is the timestamp's, coded only as an attribute
    coders = {col: Coder() for col in cols[:2] + cols[3:]}
    stamps, aware, first_bad = array("q"), bytearray(), None
    collecting = gc.isenabled()
    gc.disable()  # many fresh row lists the collector need not walk
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:  # a leading BOM is dropped
            reader = csv.reader(fh, delimiter=mapping.delimiter)
            try:
                header = next(reader, None)
                if header is None:
                    raise EmptyLog(f"{path}: file is empty")
                colidx: dict[str, int] = {}
                for i, name in enumerate(header):
                    colidx.setdefault(name.strip(), i)
                missing = [col for col in cols if col not in colidx]
                if missing:
                    deque(reader, maxlen=0)  # an unreadable row anywhere is named first
                    raise MissingColumn(
                        f"{path}: column {missing[0]!r} not found in header {header}")
                width = max(colidx[col] for col in cols) + 1
                for rows in iter(lambda: list(islice(reader, _BLOCK_ROWS)), []):
                    if min(map(len, rows)) < width:
                        rows = [r + [""] * (width - len(r)) for r in rows]
                    transposed = list(zip(*rows))
                    del rows
                    for col, coder in coders.items():
                        coder.add(list(map(str.strip, transposed[colidx[col]])))
                    texts = list(map(str.strip, transposed[colidx[mapping.timestamp_col]]))
                    del transposed
                    us, offset, bad = _parse_stamps(texts, mapping.timestamp_format)
                    if bad is not None and first_bad is None:
                        first_bad = len(stamps) + bad[0], texts[bad[0]], bad[1]
                    stamps.frombytes(us.view(np.uint8))
                    aware.extend(offset.view(np.uint8))
                    del texts  # free this block's strings before the next is read
            except (UnicodeDecodeError, csv.Error):
                raise _unreadable(path, mapping.delimiter) from None
    finally:
        if collecting:
            gc.enable()
    if not stamps:
        raise EmptyLog(f"{path}: no data rows")
    return coders, np.frombuffer(stamps, np.int64), np.frombuffer(aware, bool), first_bad


def _unreadable(path, delimiter: str) -> RowUnreadable:
    """The error for the first record that is not UTF-8 or that ``csv`` cannot split, streamed:
    a bad byte reads as a lone surrogate, which UTF-8 never decodes to, and the text ends there."""
    problem, row = None, 0

    def lines(fh):
        nonlocal problem
        for line in fh:
            try:
                line.encode("utf-8")
            except UnicodeEncodeError as exc:
                problem = f"byte {ord(line[exc.start]) - 0xdc00:#04x} is not UTF-8"
                yield line[:exc.start] + "?"  # the last record is the one holding it
                return
            yield line

    with open(path, encoding="utf-8-sig", errors="surrogateescape", newline="") as fh:
        try:
            for row, _ in enumerate(csv.reader(lines(fh), delimiter=delimiter), start=1):
                pass
        except csv.Error as exc:
            row, problem = row + 1, str(exc)
    return RowUnreadable(f"{path}: row {row}: {problem}", row=row)


def _csv_values(coder: Coder, col: str):
    """The column's type, the rows with a value, their values, and the first
    failure as ``(row index, error)``. Each distinct text is typed once."""
    texts, code = coder.result("")
    rows = np.flatnonzero(code >= 0)
    code = code[rows]
    if all(t.lower() in ("true", "false") for t in texts):
        return BOOLEAN, rows, np.array([t.lower() == "true" for t in texts], bool)[code], None
    try:
        numbers = np.array([float(t) for t in texts])
    except ValueError:
        us, _, bad = _parse_stamps(texts)
        if bad is None:
            return TIMESTAMP, rows, us[code], None
        return TEXT, rows, np.array(texts, dtype=object)[code], None
    bad = [(coder.first[t], t) for t, x in zip(texts, numbers.tolist()) if not math.isfinite(x)]
    if bad:
        i, text = min(bad)
        return NUMBER, rows, numbers[code], (i, NonFiniteNumber(f"row {i + 2}, column", col, text,
                                                                row=i + 2))
    return NUMBER, rows, numbers[code], None


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
    coders, time_us, aware, bad_stamp = _read_columns(path, mapping)
    # (row index, check, error): a row-by-row reading meets the least first
    failures = []
    empty = [(coders[col].first[""], col) for col in (mapping.case_id_col, mapping.activity_col)
             if "" in coders[col].first]
    if empty:
        i, col = min(empty, key=lambda e: e[0])  # the case id's column on a tie
        failures.append((i, 0, EmptyValue(f"row {i + 2}: column {col!r} is empty", row=i + 2)))
    if bad_stamp is not None:
        i, text, exc = bad_stamp
        failures.append((i, 1, _stamp_error(f"row {i + 2}: ", text, exc, i + 2)))
    attr_cols = [(col, True) for col in mapping.event_attr_cols]
    attr_cols += [(col, False) for col in mapping.case_attr_cols]
    typed = [_csv_values(coders[col], col) for col, _ in attr_cols]
    failures += [(f[0], check, f[1]) for check, (*_, f) in enumerate(typed, start=2) if f]
    if failures:
        raise min(failures, key=lambda f: f[:2])[2]

    case_ids, case = coders[mapping.case_id_col].result()
    event_attrs, case_attrs, conflicts = {}, {}, 0
    for (col, per_event), (vtype, rows, values, _) in zip(attr_cols, typed):
        if per_event and len(rows):
            event_attrs[col] = rows, vtype, values
        elif len(rows):
            owners = case[rows]
            _, first, inverse = np.unique(owners, return_index=True, return_inverse=True)
            case_attrs[col] = owners[first], vtype, values[first]
            conflicts += int(np.count_nonzero(values != values[first][inverse]))
    n = len(time_us)
    meta = {"case_attr_conflicts": conflicts,
            "naive_timestamps_among_aware": n - int(aware.sum()) if aware.any() else 0}
    # an empty resource or lifecycle cell is no value
    resource, lifecycle = (coders[col].result("") if col else None
                           for col in (mapping.resource_col, mapping.lifecycle_col))
    return sort_and_validate(columnar_log(
        (case_ids, case), coders[mapping.activity_col].result(), resource, lifecycle, time_us,
        event_attrs, case_attrs, meta))


def write_csv(log: EventLog, mapping: CsvMapping, path: str | Path) -> None:
    """Export a log to a delimited file laid out per ``mapping``."""
    c = log.columns
    fmt, quote = mapping.timestamp_format, partial(csv_quoted, delimiter=mapping.delimiter)
    stamps = (_isoformat(c.time_us) if fmt is None
              else [ts.strftime(fmt) for ts in c.time_us.astype("datetime64[us]").tolist()])
    out = [decode(quote(c.case_ids), c.case), decode(quote(c.activities), c.activity),
           quote(stamps)]
    if mapping.resource_col:
        out.append(decode(quote((*c.resources, "")), c.resource))
    if mapping.lifecycle_col:
        out.append(decode(quote(("", *LIFECYCLES[1:])), c.lifecycle))
    out += [quote(_formatted(c.event_attrs.get(col), len(c.case)))
            for col in mapping.event_attr_cols]
    out += [decode(quote(_formatted(c.case_attrs.get(col), len(c.case_ids))), c.case)
            for col in mapping.case_attr_cols]
    rows = chain([quote(mapping.columns())], zip(*out))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\r\n".join(map(mapping.delimiter.join, rows)) + "\r\n")


def _formatted(attr: Attribute | None, n: int, absent: str | None = "") -> list[str | None]:
    """Cell texts, ``absent`` where absent: ``repr`` of numbers, ISO stamps, lower-case booleans."""
    if attr is None:
        return [absent] * n
    fmt = {NUMBER: repr, BOOLEAN: lambda v: "true" if v else "false"}.get(attr.type, str)
    values = _isoformat(attr.values.view("i8")) if attr.type == TIMESTAMP else attr.values.tolist()
    return [fmt(v) if p else absent for v, p in zip(values, attr.present.tolist())]


def _isoformat(us: np.ndarray) -> list[str]:
    """``datetime.isoformat`` of each int64 stamp, which leaves out a zero fraction."""
    text = np.datetime_as_string(us.astype("datetime64[us]"))
    whole = us % 1_000_000 == 0
    text[whole] = text[whole].astype("U19")
    return text.tolist()


_XES_TYPES = {"string": TEXT, "date": TIMESTAMP, "int": NUMBER, "float": NUMBER,
              "boolean": BOOLEAN}
_XES_BOOLEANS = {"true": True, "false": False}
#: The element :func:`write_xes` writes for each attribute type.
_XES_TAGS = {TEXT: "string", TIMESTAMP: "date", NUMBER: "float", BOOLEAN: "boolean"}


def _read_xes(path):
    """Stream the document. Returns the root's name; where each trace and event
    starts, as the serial number of its element; per attribute key, the serial
    numbers, tags and value texts of its trace-level and of its event-level
    records; and the number of ``<list>`` and ``<container>`` elements of
    traces and events. Serial numbers are ``array("q")``s.

    A record interns its texts through its own dict until, at two checks in a
    row (at traces 1, 2, 4, 8, ...), the dict holds one entry per record and
    more entries than traces have begun; then it keeps them as read. A key
    seen at most once per trace keeps interning: a few traces say little of it."""
    parser = expat.ParserCreate(namespace_separator="}")
    parser.ordered_attributes = True
    names: dict[str, str] = {}
    root, trace_keys, event_keys = [], {}, {}
    trace_at, event_at = array("q"), array("q")
    as_read = {}.get  # (text, text) -> text, storing nothing
    distinct: set[tuple[int, str]] = set()  # the records that passed the last check

    def settle():
        nonlocal distinct
        passed = set()
        for level, keys in enumerate((trace_keys, event_keys)):
            for key, (at, tags, texts, intern) in keys.items():
                if intern is not as_read and len(intern.__self__) == len(texts) > len(trace_at):
                    if (level, key) in distinct:
                        keys[key] = at, tags, texts, as_read  # frees the dict
                    passed.add((level, key))
        distinct = passed

    # Depth is elements opened minus elements closed; closing appends to a
    # list from C, which spares a Python call per element.
    closed: list[str] = []
    opened, in_trace, in_event, skipped = 0, False, False, 0

    def local(name: str) -> str:
        tag = names[name] = name.rpartition("}")[2]
        return tag

    def start(name, attrs):
        nonlocal opened, in_trace, in_event, skipped
        opened += 1
        depth = opened - len(closed)
        if depth == 4:
            if not in_event:
                return
            keys = event_keys
        elif depth == 3:
            in_event = False
            if not in_trace:
                return
            if (names.get(name) or local(name)) == "event":
                in_event = True
                event_at.append(opened)
                return
            keys = trace_keys
        else:
            if depth == 2:
                in_trace = (names.get(name) or local(name)) == "trace"
                if in_trace:
                    trace_at.append(opened)
                    if not len(trace_at) & (len(trace_at) - 1):  # a power of two
                        settle()
            elif depth == 1:
                root.append(local(name))
            return
        tag = names.get(name) or local(name)
        if tag not in _XES_TYPES:
            skipped += tag in ("list", "container")
            return
        if len(attrs) == 4 and attrs[0] == "key" and attrs[2] == "value":
            key, value = attrs[1], attrs[3]
        else:
            named = dict(zip(attrs[::2], attrs[1::2]))
            key, value = named.get("key"), named.get("value")
            if key is None or value is None:
                return
        record = keys.get(key)
        if record is None:
            record = keys[key] = (array("q"), [], [], {}.setdefault)
        record[0].append(opened)
        record[1].append(tag)
        record[2].append(record[3](value, value))

    parser.StartElementHandler, parser.EndElementHandler = start, closed.append
    try:
        with open(path, "rb") as fh:
            parser.ParseFile(fh)
    except (expat.ExpatError, LookupError) as exc:  # LookupError: an unknown declared encoding
        raise XmlMalformed(f"{path}: {exc}") from exc
    return root[0], trace_at, event_at, trace_keys, event_keys, skipped


def _xes_values(key: str, tags: list[str], texts: list[str], where):
    """Type and value of each record of one key (stamps in microseconds since
    the epoch), which stamps carried an offset, and the first failure as
    ``(record, error)``; ``where(i)`` is record ``i``'s place and event number.
    The values are ``texts``, typed in place."""
    mixed = len(set(tags)) > 1
    types = [_XES_TYPES[t] for t in tags] if mixed else [_XES_TYPES[tags[0]]] * len(tags)
    values, aware, failures = texts, np.zeros(len(texts), bool), []
    dates = [i for i, t in enumerate(types) if t == TIMESTAMP] if TIMESTAMP in types else []
    if dates:
        us, aware[dates], bad = _parse_stamps([texts[i] for i in dates])
        if bad is not None:
            i = dates[bad[0]]
            place, row = where(i)
            failures.append((i, _stamp_error(f"{place}, attribute {key!r}: ", texts[i], bad[1],
                                             row)))
        for i, value in zip(dates, us.tolist()):
            values[i] = value
    for i, vtype in enumerate(types if mixed or types[0] in (NUMBER, BOOLEAN) else ()):
        if vtype not in (NUMBER, BOOLEAN):
            continue
        text = texts[i]
        try:
            values[i] = float(text) if vtype == NUMBER else _XES_BOOLEANS[text.strip().lower()]
        except (ValueError, KeyError):
            kind = "numeric" if vtype == NUMBER else "boolean"
            failures.append((i, XmlMalformed(
                f"{where(i)[0]}, attribute {key!r} has non-{kind} value {text!r}")))
            break
        if not math.isfinite(values[i]):
            failures.append((i, NonFiniteNumber(f"{where(i)[0]}, attribute", key, text,
                                                row=where(i)[1])))
            break
    return types, values, aware, min(failures, default=None, key=lambda f: f[0])


def parse_xes(path: str | Path) -> EventLog:
    """Read an XES document into a validated event log.

    Trace-level attributes become case attributes, with concept:name as the
    case identifier (synthesised when absent); two traces with one identifier
    raise :class:`DuplicateTraceId`. Lifecycle transitions other
    than start/complete are dropped and counted in ``log.meta``. Unknown
    attribute keys are preserved with their declared types.
    """
    root, trace_at, event_at, trace_keys, event_keys, skipped = _read_xes(path)
    if root != "log":
        raise XmlMalformed(f"{path}: root element is <{root}>, expected <log>")
    n = len(event_at)
    # each event belongs to the last trace begun before it
    event_trace = (np.searchsorted(trace_at, event_at) - 1).astype(np.int32)
    # (trace, part, offset, check, error): the least is the one a trace-by-trace
    # reading meets first, taking a trace's attributes (part 0), its id (1),
    # then its events (2) in document order.
    failures: list[tuple] = []
    finals = {}
    for per_event, keys, starts in ((False, trace_keys, trace_at), (True, event_keys, event_at)):
        starts = np.frombuffer(starts, np.int64)
        for key in list(keys):  # each key's record is freed before the next is typed
            at, tags, texts = keys.pop(key)[:3]
            owner = np.searchsorted(starts, np.frombuffer(at, np.int64), side="right") - 1

            def where(i, owner=owner, per_event=per_event):
                o = int(owner[i]) + 1
                return (f"event #{o}", o) if per_event else (f"trace {o}", None)

            types, values, aware, failure = _xes_values(key, tags, texts, where)
            if failure is not None:
                i = failure[0]
                trace = event_trace[owner[i]] if per_event else owner[i]
                failures.append((int(trace), 2 * per_event, at[i], 0, failure[1]))
            finals[per_event, key] = owner, types, values, aware
            if (owner[1:] == owner[:-1]).any():  # a key repeated in one element: the last wins
                last = np.flatnonzero(np.append(owner[1:] != owner[:-1], True)).tolist()
                finals[per_event, key] = (owner[last], [types[i] for i in last],
                                          [values[i] for i in last], aware[last])

    case_ids = [f"trace_{t + 1}" for t in range(len(trace_at))]
    for t, vtype, value in zip(*_final(finals, False, KEY_ACTIVITY)[:3]):
        case_ids[t] = str(_python(vtype, value) or case_ids[t])
    first_of: dict[str, int] = {}
    for t, case_id in enumerate(case_ids):
        if first_of.setdefault(case_id, t) != t:
            failures.append((t, 1, 0, 0, DuplicateTraceId(
                f"traces {first_of[case_id] + 1} and {t + 1} share the case id {case_id!r}")))

    def after(e: int):
        return event_at[e + 1] if e + 1 < n else math.inf

    def named(e: int) -> str:
        return f"event #{e + 1} (trace {case_ids[event_trace[e]]!r})"

    activity = _standard(finals, KEY_ACTIVITY, n)
    for e, text in enumerate(activity if None in activity or not all(map(str.strip, activity))
                             else ()):
        if text is None or not text.strip():
            failures.append((event_trace[e], 2, after(e), 1, MissingConceptName(
                f"{named(e)} has {'no' if text is None else 'an empty'} concept:name",
                event_index=e + 1)))
    owners, types, values, aware = _final(finals, True, KEY_TIMESTAMP)
    has_stamp = np.zeros(n, dtype=bool)
    has_stamp[owners] = True
    for e in np.flatnonzero(~has_stamp).tolist():
        failures.append((event_trace[e], 2, after(e), 2, TimestampParse(
            f"{named(e)} has no time:timestamp", row=e + 1)))
    for e, vtype in zip(owners.tolist(), types):
        if vtype != TIMESTAMP:
            failures.append((event_trace[e], 2, after(e), 2, TimestampParse(
                f"event #{e + 1}: time:timestamp is not a date attribute", row=e + 1)))
    if failures:
        raise min(failures, key=lambda f: f[:4])[4]
    if n == 0:
        raise EmptyLog(f"{path}: document contains no events")
    time_us = np.zeros(n, dtype=np.int64)
    time_us[owners] = values
    meta = {"skipped_container_attributes": skipped,
            "naive_timestamps_among_aware": n - int(aware.sum()) if aware.any() else 0}
    resource, lifecycle = _standard(finals, KEY_RESOURCE, n), _standard(finals, KEY_LIFECYCLE, n)
    attrs = {False: {}, True: {}}
    for (per_event, key), (owners, types, values, _) in finals.items():
        attrs[per_event][key] = owners, types, values
    return sort_and_validate(columnar_log((case_ids, event_trace), coded(activity), coded(resource),
                                          coded(lifecycle), time_us, attrs[True], attrs[False],
                                          meta))


def _final(finals: dict, per_event: bool, key: str):
    """Owners, types, values and offset flags of a key's last record per owner; removed."""
    return finals.pop((per_event, key), (np.zeros(0, np.intp), [], [], np.zeros(0, bool)))


def _standard(finals: dict, key: str, n: int) -> list:
    """Per event, the text of a standard key's value (``str`` of a non-string), or None."""
    owners, types, values, _ = _final(finals, True, key)
    if len(owners) == n and types.count(TEXT) == n:  # every event has it, as a string
        return values
    text: list = [None] * n
    for e, vtype, value in zip(owners.tolist(), types, values):
        text[e] = value if vtype == TEXT else str(_python(vtype, value))
    return text


def _python(vtype: str, value):
    """A record's value as the object model holds it."""
    return from_us(value) if vtype == TIMESTAMP else value


def write_xes(log: EventLog, path: str | Path) -> None:
    """Export a log as an XES document using typed attribute elements."""
    c = log.columns
    trace_cols = [(KEY_ACTIVITY, "string", c.case_ids), *_tagged(c.case_attrs, len(c.case_ids))]
    event_cols = [(KEY_ACTIVITY, "string", decode(c.activities, c.activity)),
                  (KEY_TIMESTAMP, "date", _isoformat(c.time_us)),
                  (KEY_RESOURCE, "string", decode((*c.resources, None), c.resource)),
                  (KEY_LIFECYCLE, "string", decode(LIFECYCLES, c.lifecycle)),
                  *_tagged(c.event_attrs, len(c.case))]
    root = ET.Element("log", {"xes.version": "1849-2016", "xes.features": ""})
    traces = [_element(root, "trace", trace_cols, code) for code in range(len(c.case_ids))]
    for row, code in enumerate(c.case.tolist()):
        _element(traces[code], "event", event_cols, row)
    tree = ET.ElementTree(root)
    ET.indent(tree)
    tree.write(path, encoding="utf-8", xml_declaration=True)


def _tagged(attrs: dict[str, Attribute], n: int) -> list[tuple[str, str, list]]:
    return [(key, _XES_TAGS[attr.type], _formatted(attr, n, None)) for key, attr in attrs.items()]


def _element(parent: ET.Element, tag: str, columns: list, i: int) -> ET.Element:
    """A ``tag`` child of ``parent`` with an element per column whose text ``i`` is not None."""
    element = ET.SubElement(parent, tag)
    for key, value_tag, texts in columns:
        if texts[i] is not None:
            ET.SubElement(element, value_tag, {"key": key, "value": texts[i]})
    return element
