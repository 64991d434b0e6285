"""The columnar parsers against the object-building ones they replaced.

``ingest_oracle`` holds the parsers as they were: one ``Event`` per row,
validated event by event. For generated CSV files and XES documents, good
and bad, both must give the same log (the event-table columns bit for bit,
the catalogs, ``meta`` and every field of the object view) or fail with the
same exception class at the same row or event. Ingest notes the oracle did
not keep (``NEW_NOTES``) are left out of the ``meta`` comparison, and a row
or event number is compared where the oracle gives one. Fuzzed input must
fail, if at all, with an ingestion or validation error (exit 3). The CSV
reader also runs at block sizes of 1, 2 and 3 rows, where it must match the
oracle and give what it gives at its own block size: the same columns and
``meta`` bit for bit, or the same exception class, message and row. The
streamed ``RowUnreadable`` must name the row and problem that the oracle's
whole-file reading finds, for any bytes.
"""

from __future__ import annotations

import dataclasses
import json
import tracemalloc
from dataclasses import fields
from datetime import datetime

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import ingest_oracle as oracle
from driftscope import ingest
from driftscope.cli import GENERATOR_MAPPING, main
from driftscope.errors import (
    EmptyValue,
    IngestionError,
    NonFiniteNumber,
    RowUnreadable,
    TimestampParse,
    ValidationError,
)
from driftscope.ingest import (
    CsvMapping,
    _parse_datetime,
    _parse_stamps,
    parse_csv,
    parse_xes,
    write_csv,
    write_xes,
)
from driftscope.model import (
    BOOLEAN,
    NUMBER,
    TEXT,
    TIMESTAMP,
    EventLog,
    LogColumns,
    coded,
    columnar_log,
    sort_and_validate,
    to_us,
)
from driftscope.synthetic import GeneratorConfig, generate
from ingest_oracle import parse_timestamp

NEW_NOTES = ("skipped_container_attributes", "naive_timestamps_among_aware")

SETTINGS = settings(max_examples=120, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])

MAPPING = CsvMapping(
    case_id_col="case", activity_col="activity", timestamp_col="ts",
    resource_col="res", lifecycle_col="life",
    event_attr_cols=("amount", "flag", "note", "when"), case_attr_cols=("budget", "region"),
)


def _outcome(parse, path):
    try:
        return parse(path), None
    except Exception as exc:  # noqa: BLE001 - the class is what is compared
        return None, exc


def _place(exc):
    return getattr(exc, "row", None) or getattr(exc, "event_index", None)


def assert_same(path, new_parse, old_parse):
    new, new_err = _outcome(new_parse, path)
    old, old_err = _outcome(old_parse, path)
    if old_err is not None or new_err is not None:
        assert type(new_err) is type(old_err), (new_err, old_err)
        if _place(old_err) is not None:
            assert _place(new_err) == _place(old_err), (new_err, old_err)
        return
    assert_same_log(new, old)


def assert_same_log(new: EventLog, old) -> None:
    assert new.activities == old.activities
    assert new.resources == old.resources
    assert new.event_attr_types == old.event_attr_types
    assert new.case_attr_types == old.case_attr_types
    assert new.span == old.span
    assert {k: v for k, v in new.meta.items() if k not in NEW_NOTES} == old.meta
    assert (new.case_count, new.event_count) == (old.case_count, old.event_count)
    for (new_id, new_case), (old_id, old_case) in zip(new.cases.items(), old.cases.items()):
        assert new_id == old_id
        assert new_case.attrs == old_case.attrs
        assert new_case.events == old_case.events
    # the same events through the object route give the same table, bit for bit
    rebuilt = sort_and_validate(EventLog(cases=dict(old.cases), meta=dict(old.meta)))
    a, b = new.table, rebuilt.table
    for name in ("offset_us", "case", "activity", "resource", "prev", "case_end",
                 "case_duration_s", "service_s"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name
    for level, types in (("event", new.event_attr_types), ("case", new.case_attr_types)):
        for key in types:
            for x, y in zip(a.attr_column(key, level), b.attr_column(key, level)):
                assert x.tobytes() == y.tobytes(), (level, key)


# ------------------------------------------------------------------- CSV

#: Per column, cells that parse and cells that fail (an empty, unparseable or
#: non-finite value); each cell is a failing one with probability 1/60.
_CELLS = {
    "case": (["c1", "c2", " c3", "c4 ", "c,5"], [""]),
    "activity": (["a", "b", "mail; send", "line\nbreak"], ["", " "]),
    "ts": (["2021-06-15 12:30", "2021-06-15T12:30:00", "2021-06-15T12:31:07.250",
            "2021-06-15T12:32:00.000001", "2021-06-16", "2021-06-15T12:30:00Z",
            "2021-06-15T14:30:00+02:00", "2021-06-15T12:30:00.5", " 2021-06-15 13:00 ",
            "20210615T133000", "2021-06-15T12:30:00,5"],
           ["yesterday", "", "NaT", "2021-06", "2021-06-15T25:00", "2021-02-30T00:00:00",
            "0000-01-01"]),
    "res": (["", "Peter", "Sophia", " Peter "], []),
    "life": (["", "start", "complete", "COMPLETE", "schedule"], []),
    "amount": (["", "1", "2.5", "-0", "1e3", "x", "true"], ["nan", "inf"]),
    "flag": (["", "true", "False", "TRUE", "yes"], []),
    "note": (["", "web", "phone", '"quoted"', "12"], []),
    "when": (["", "2021-06-15", "2021-06-15T10:00:00+01:00", "soon"], []),
    "budget": (["", "1", "1.0", "2"], ["-inf"]),
    "region": (["", "north", "south"], []),
}


@st.composite
def _cell(draw, col):
    good, bad = _CELLS[col]
    return draw(st.sampled_from(bad if bad and draw(st.integers(0, 59)) == 0 else good))


@st.composite
def csv_texts(draw):
    header = list(_CELLS)
    if draw(st.booleans()):
        header = draw(st.permutations(header))
    rows = [header]
    for _ in range(draw(st.integers(0, 8))):
        row = [draw(_cell(col)) for col in header]
        if draw(st.integers(0, 15)) == 0:
            row = row[:draw(st.integers(0, len(row)))]
        rows.append(row)
    out = []
    for row in rows:
        out.append(",".join(
            '"' + cell.replace('"', '""') + '"' if any(c in cell for c in ',"\n') else cell
            for cell in row))
    return "\n".join(out) + draw(st.sampled_from(["\n", "", "\r\n"]))


#: Block sizes that put a block boundary between almost every pair of rows.
SMALL_BLOCKS = [1, 2, 3]


def _at_block(rows: int, parse):
    """``parse`` with the CSV reader taking ``rows`` rows at a time."""
    def run(path):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ingest, "_BLOCK_ROWS", rows)
            return parse(path)
    return run


def _same(x, y) -> bool:
    if type(x) is not type(y):
        return False
    if isinstance(x, np.ndarray):
        if x.dtype != y.dtype or x.shape != y.shape:
            return False
        return x.tolist() == y.tolist() if x.dtype == object else x.tobytes() == y.tobytes()
    if isinstance(x, dict):
        return x.keys() == y.keys() and all(all(map(_same, x[k], y[k])) for k in x)
    return x == y


def assert_same_outcome(path, new_parse, old_parse) -> None:
    """The same exception (class, message and row), or logs whose columns and
    ``meta`` agree bit for bit."""
    new, new_err = _outcome(new_parse, path)
    old, old_err = _outcome(old_parse, path)
    if old_err is not None or new_err is not None:
        assert type(new_err) is type(old_err), (new_err, old_err)
        assert str(new_err) == str(old_err) and _place(new_err) == _place(old_err)
        return
    assert new.meta == old.meta
    for field in fields(LogColumns):
        assert _same(getattr(new.columns, field.name), getattr(old.columns, field.name)), field


def _csv(path):
    return parse_csv(path, MAPPING)


@SETTINGS
@given(csv_texts(), st.sampled_from([*SMALL_BLOCKS, ingest._BLOCK_ROWS]))
def test_property_csv_parity_with_object_parser(tmp_path, text, rows):
    path = tmp_path / "log.csv"
    path.write_text(text, encoding="utf-8")
    assert_same(path, _at_block(rows, _csv), lambda p: oracle.parse_csv(p, MAPPING))
    assert_same_outcome(path, _at_block(rows, _csv), _csv)


def test_csv_parity_on_a_generated_log(tmp_path):
    from driftscope.cli import GENERATOR_MAPPING
    from driftscope.ingest import write_csv
    from driftscope.synthetic import GeneratorConfig, generate

    path = tmp_path / "log.csv"
    write_csv(generate(GeneratorConfig(seed=3, days=12, cases_per_day=7, drift_day=6)),
              GENERATOR_MAPPING, path)
    assert_same(path, lambda p: parse_csv(p, GENERATOR_MAPPING),
                lambda p: oracle.parse_csv(p, GENERATOR_MAPPING))


def test_a_leading_byte_order_mark_is_ignored(tmp_path):
    # Excel's "CSV UTF-8" export starts the file with one; no strategy here draws it
    write_csv(generate(GeneratorConfig(days=3, cases_per_day=4, drift_day=2)), GENERATOR_MAPPING,
              tmp_path / "log.csv")
    (tmp_path / "mapping.json").write_bytes(json.dumps(GENERATOR_MAPPING.to_dict()).encode())
    for name in ("log.csv", "mapping.json"):
        (tmp_path / f"bom-{name}").write_bytes(b"\xef\xbb\xbf" + (tmp_path / name).read_bytes())
    plain = parse_csv(tmp_path / "log.csv", CsvMapping.from_json_file(tmp_path / "mapping.json"))
    assert_same_outcome(
        tmp_path,
        lambda d: parse_csv(d / "bom-log.csv", CsvMapping.from_json_file(d / "bom-mapping.json")),
        lambda _: plain,
    )


# ------------------------------------------------------------ CSV writer

#: Cell texts: each delimiter drawn below, ``"``, CR, LF, spaces, the
#: characters of stamps and numbers, and non-ASCII ones (U+2028 is no line
#: break to ``csv``).
_WRITER_TEXTS = st.text(st.sampled_from([*',;\t|. 0"', "\r", "\n", "a", "é", "日", "\u2028"]),
                        max_size=5)


@st.composite
def writer_cases(draw):
    """A log whose texts and a mapping whose column names and delimiter each
    may need quoting, with every attribute type, absent values and a column
    the log lacks."""
    names = draw(st.lists(_WRITER_TEXTS.filter(bool), min_size=10, max_size=10, unique=True))
    case_ids = draw(st.lists(_WRITER_TEXTS, min_size=1, max_size=4, unique=True))
    n = draw(st.integers(1, 10))
    case = np.sort(draw(st.lists(st.integers(0, len(case_ids) - 1), min_size=n, max_size=n)))
    texts = st.lists(_WRITER_TEXTS, min_size=n, max_size=n)
    maybe = st.lists(st.none() | _WRITER_TEXTS, min_size=n, max_size=n)
    stamps = st.lists(st.integers(0, 3).map(1_000_000 .__mul__) | st.integers(0, 2 * 10**17),
                      min_size=n, max_size=n)
    values = {TEXT: _WRITER_TEXTS, NUMBER: st.floats(allow_nan=False, allow_infinity=False),
              BOOLEAN: st.booleans(), TIMESTAMP: st.integers(-10**12, 4 * 10**15)}

    def records(kind, size):
        rows = sorted(draw(st.sets(st.integers(0, size - 1))))
        return rows, kind, [draw(values[kind]) for _ in rows]

    kinds = (TEXT, NUMBER, BOOLEAN, TIMESTAMP)
    log = sort_and_validate(columnar_log(
        (case_ids, case.astype(np.int32)), coded(draw(texts)), coded(draw(maybe)),
        coded(draw(st.lists(st.sampled_from([None, "start", "complete", "x"]), min_size=n,
                            max_size=n))),
        np.array(draw(stamps), dtype=np.int64),
        {key: records(kind, n) for key, kind in zip(names[5:9], kinds)},
        {names[9]: records(TEXT, len(case_ids))}, {},
    ))
    mapping = CsvMapping(
        *names[:3], timestamp_format=draw(st.sampled_from([None, '%d"%m %H;%M', "%Y\n%j|%f"])),
        resource_col=names[3], lifecycle_col=names[4],
        event_attr_cols=(*names[5:9], "absent"), case_attr_cols=(names[9],),
        delimiter=draw(st.sampled_from(',;\t|. 0"')),
    )
    return log, mapping


@SETTINGS
@given(writer_cases())
def test_property_csv_writer_gives_the_bytes_of_csv_writer(tmp_path, case):
    log, mapping = case
    write_csv(log, mapping, tmp_path / "new.csv")
    oracle.write_csv(log, mapping, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


# ------------------------------------------------------------------- XES

#: XES attributes (key, tag, value) that parse and ones that fail; an
#: attribute is a failing one with probability 1/12.
_STANDARD = (
    [("concept:name", "string", "register"), ("concept:name", "string", "pay"),
     ("concept:name", "int", "7"), ("time:timestamp", "date", "2021-06-15T12:30:00"),
     ("time:timestamp", "date", "2021-06-15T13:30:00.123+01:00"),
     ("time:timestamp", "date", "2021-06-15T11:00:00Z"),
     ("time:timestamp", "date", "2021-06-15T11:00"),
     ("org:resource", "string", "Peter"), ("org:resource", "boolean", "true"),
     ("lifecycle:transition", "string", "start"),
     ("lifecycle:transition", "string", "COMPLETE"),
     ("lifecycle:transition", "string", "schedule")],
    [("concept:name", "string", " "), ("time:timestamp", "date", "June"),
     ("time:timestamp", "string", "2021-06-15")],
)
_TYPED = (
    [("note", "string", "web"), ("note", "string", ""), ("amount", "int", "3"),
     ("amount", "float", "2.5"), ("flag", "boolean", "true"), ("flag", "boolean", " FALSE "),
     ("due", "date", "2021-06-15"), ("ref", "id", "1")],
    [("amount", "float", "NaN"), ("amount", "int", "x"), ("due", "date", "yesterday"),
     ("amount", "string", "text"), ("flag", "boolean", "no")],
)
_OTHER = [
    '<list key="l"><string key="x" value="1"/></list>',
    '<container key="c"><int key="n" value="2"/></container>',
    '<string key="nested" value="a"><string key="inner" value="b"/></string>',
    '<string value="no key"/>',
]


@st.composite
def _attr(draw, standard):
    kind = draw(st.integers(0, 9))
    if kind == 4:
        return draw(st.sampled_from(_OTHER))
    good, bad = _STANDARD if kind < 4 and standard else _TYPED
    key, tag, value = draw(st.sampled_from(bad if draw(st.integers(0, 11)) == 0 else good))
    return f'<{tag} key="{key}" value="{value}"/>'


@st.composite
def _event(draw):
    parts = [
        '<string key="concept:name" value="' + draw(st.sampled_from(["a", "b", "c"])) + '"/>',
        '<date key="time:timestamp" value="2021-06-15T'
        + draw(st.sampled_from(["08:00:00", "09:30:00", "09:30:00+01:00", "10:15:00.5"]))
        + '"/>',
    ]
    if draw(st.integers(0, 15)) == 0:
        parts = parts[draw(st.integers(0, 1)):][:1]
    parts += draw(st.lists(_attr(True), max_size=4))
    return "<event>" + "".join(draw(st.permutations(parts))) + "</event>"


@st.composite
def xes_documents(draw):
    traces = []
    for t in range(draw(st.integers(0, 4))):
        name = draw(st.sampled_from(
            [f'<string key="concept:name" value="T{t}"/>'] * 6
            + ['<string key="concept:name" value="T0"/>', '<string key="concept:name" value=""/>',
               '<int key="concept:name" value="0"/>', ""]))
        attrs = [name] + draw(st.lists(_attr(False), max_size=2))
        events = draw(st.lists(_event(), max_size=4))
        body = draw(st.permutations(attrs + events)) if draw(st.booleans()) else attrs + events
        traces.append("<trace>" + "".join(body) + "</trace>")
    ns = draw(st.sampled_from(["", ' xmlns="http://www.xes-standard.org/"']))
    glob = '<global scope="event"><string key="concept:name" value="x"/></global>'
    return f'<?xml version="1.0" encoding="UTF-8"?><log{ns}>{glob}{"".join(traces)}</log>'


@SETTINGS
@given(xes_documents())
def test_property_xes_parity_with_object_parser(tmp_path, doc):
    path = tmp_path / "log.xes"
    path.write_text(doc, encoding="utf-8")
    assert_same(path, parse_xes, oracle.parse_xes)


def test_xes_trace_attributes_are_checked_before_the_trace_events(tmp_path):
    # the bad event comes first in the document, the bad trace attribute after it
    doc = """<log><trace><string key="concept:name" value="t"/>
      <event><string key="concept:name" value="a"/><date key="time:timestamp" value="x"/></event>
      <float key="budget" value="nan"/></trace></log>"""
    path = tmp_path / "log.xes"
    path.write_text(doc, encoding="utf-8")
    assert_same(path, parse_xes, oracle.parse_xes)
    with pytest.raises(NonFiniteNumber):
        parse_xes(path)


def test_xes_string_timestamp_fails_as_the_object_parser_fails(tmp_path):
    doc = """<log><trace><string key="concept:name" value="t"/>
      <event><string key="concept:name" value="a"/>
        <date key="time:timestamp" value="2021-06-15"/></event>
      <event><string key="concept:name" value="b"/>
        <string key="time:timestamp" value="2021-06-16"/></event>
      </trace></log>"""
    path = tmp_path / "log.xes"
    path.write_text(doc, encoding="utf-8")
    assert_same(path, parse_xes, oracle.parse_xes)
    with pytest.raises(TimestampParse) as err:
        parse_xes(path)
    assert err.value.row == 2 and "not a date attribute" in str(err.value)


def test_xes_texts_that_do_not_repeat_stop_interning_and_parse_the_same(tmp_path):
    traces = "".join(
        f'<trace><string key="concept:name" value="t{t}"/><string key="goal" value="g{t}"/>'
        + "".join(f'<event><string key="concept:name" value="{a}"/>'
                  f'<string key="EventID" value="e{t}-{a}"/>'
                  f'<date key="time:timestamp" value="2021-06-{t + 1:02d}T0{i}:00:00"/></event>'
                  for i, a in enumerate("abc"))
        + "</trace>" for t in range(9))
    path = tmp_path / "log.xes"
    path.write_text(f"<log>{traces}</log>", encoding="utf-8")
    *_, trace_keys, event_keys, _ = ingest._read_xes(path)
    interned = {key: len(record[3].__self__) for key, record in event_keys.items()}
    # EventID and the stamps stop at trace 4 with 9 texts each; "goal", once per trace, interns
    assert interned == {"concept:name": 3, "EventID": 0, "time:timestamp": 0}
    assert len(trace_keys["goal"][3].__self__) == 9
    assert_same(path, parse_xes, oracle.parse_xes)


# ------------------------------------------------------------------- fuzz

def _fails_cleanly(parse, path) -> None:
    try:
        parse(path)
    except (IngestionError, ValidationError):
        pass


def _mutated(draw, text: str) -> bytes:
    data = text.encode("utf-8")
    how = draw(st.sampled_from(["truncate", "quote", "bytes", "random"]))
    at = draw(st.integers(0, len(data)))
    if how == "truncate":
        return data[:at]
    if how == "quote":
        return data[:at] + draw(st.sampled_from([b'"', b"'", b"<", b"&", b">"])) + data[at:]
    if how == "bytes":
        return data[:at] + draw(st.binary(min_size=1, max_size=6)) + data[at:]
    return draw(st.binary(max_size=200))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_fuzzed_csv_fails_only_with_ingestion_errors(tmp_path, data):
    path = tmp_path / "log.csv"
    path.write_bytes(_mutated(data.draw, data.draw(csv_texts())))
    at_block = _at_block(data.draw(st.sampled_from([*SMALL_BLOCKS, ingest._BLOCK_ROWS])), _csv)
    _fails_cleanly(at_block, path)
    assert_same_outcome(path, at_block, _csv)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_fuzzed_xes_fails_only_with_ingestion_errors(tmp_path, data):
    path = tmp_path / "log.xes"
    path.write_bytes(_mutated(data.draw, data.draw(xes_documents())))
    _fails_cleanly(parse_xes, path)


# -------------------------------------------------------------- blocks

def _good_rows(n: int) -> list[list[str]]:
    """``n`` rows that parse, in the columns of ``_CELLS``."""
    return [[f"c{i // 2}", "ab"[i % 2], f"2021-06-15 1{i % 10}:30", "Peter", "complete",
             str(i), "true", "web", "2021-06-15", "1", "north"] for i in range(n)]


def _write_rows(path, rows) -> None:
    path.write_text("\n".join(",".join(r) for r in [list(_CELLS), *rows]) + "\n",
                    encoding="utf-8")


_BAD_CELLS = [("case", "", EmptyValue), ("activity", "", EmptyValue),
              ("ts", "yesterday", TimestampParse), ("amount", "inf", NonFiniteNumber),
              ("budget", "-inf", NonFiniteNumber)]


@pytest.mark.parametrize("rows", SMALL_BLOCKS)
@pytest.mark.parametrize("side", [-1, 0])
@pytest.mark.parametrize("col, cell, error", _BAD_CELLS)
def test_a_bad_cell_beside_a_block_boundary(tmp_path, rows, side, col, cell, error):
    # the bad row is the last of the second block (side -1) or the first of the third (0)
    bad = 2 * rows + side
    data = _good_rows(3 * rows + 2)
    data[bad][list(_CELLS).index(col)] = cell
    path = tmp_path / "log.csv"
    _write_rows(path, data)
    with pytest.raises(error) as err:
        _at_block(rows, _csv)(path)
    assert err.value.row == bad + 2
    assert_same(path, _at_block(rows, _csv), lambda p: oracle.parse_csv(p, MAPPING))
    assert_same_outcome(path, _at_block(rows, _csv), _csv)


@pytest.mark.parametrize("rows", SMALL_BLOCKS)
def test_the_least_row_wins_across_a_block_boundary(tmp_path, rows):
    # a later check on the last row of block 1 beats an earlier check on block 2's first row
    data = _good_rows(2 * rows + 1)
    data[rows - 1][list(_CELLS).index("amount")] = "nan"
    data[rows][list(_CELLS).index("case")] = ""
    path = tmp_path / "log.csv"
    _write_rows(path, data)
    with pytest.raises(NonFiniteNumber) as err:
        _at_block(rows, _csv)(path)
    assert err.value.row == rows + 1
    assert_same_outcome(path, _at_block(rows, _csv), _csv)


@pytest.mark.parametrize("rows", SMALL_BLOCKS)
def test_short_rows_only_in_a_later_block(tmp_path, rows):
    data = _good_rows(3 * rows)
    for row in data[2 * rows:]:
        del row[-3:]  # no when, budget or region
    path = tmp_path / "log.csv"
    _write_rows(path, data)
    log = _at_block(rows, _csv)(path)
    assert log.columns.event_attrs["when"].present.sum() == 2 * rows
    assert_same(path, _at_block(rows, _csv), lambda p: oracle.parse_csv(p, MAPPING))
    assert_same_outcome(path, _at_block(rows, _csv), _csv)


def test_an_unreadable_row_in_block_3_beats_a_bad_stamp_in_block_1(tmp_path):
    rows = 200
    lines = [",".join(r) for r in [list(_CELLS), *_good_rows(3 * rows - 1)]]
    lines[2] = lines[2].replace("2021-06-15 11:30", "yesterday")
    path = tmp_path / "log.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(TimestampParse):
        _at_block(rows, _csv)(path)
    path.write_bytes(path.read_bytes() + b"c9,a\xff,2021-06-15 12:30\n")
    with pytest.raises(RowUnreadable) as err:
        _at_block(rows, _csv)(path)
    assert err.value.row == 3 * rows + 1
    assert_same_outcome(path, _at_block(rows, _csv), _csv)


def test_an_unreadable_row_beats_a_missing_column(tmp_path):
    lines = [",".join(r) for r in [list(_CELLS), *_good_rows(600)]]
    lines[0] = lines[0].replace("region", "area")
    path = tmp_path / "log.csv"
    path.write_bytes(("\n".join(lines) + "\n").encode("utf-8") + b"c9,a\xff,2021-06-15 12:30\n")
    with pytest.raises(RowUnreadable) as err:
        _at_block(200, _csv)(path)
    assert err.value.row == 602


#: Byte runs that make records, break them, or fail to decode: a lone
#: continuation byte, a cut three-byte sequence, an encoded surrogate.
_PIECES = [b"a", b"bc", b",", b";", b'"', b" ", b"\n", b"\r", b"\r\n", b"\x00",
           "\u00e9".encode(), b"\xe2\x82\xac", b"\xff", b"\xe2\x82", b"\xed\xa0\x80"]


@SETTINGS
@given(st.lists(st.sampled_from(_PIECES), max_size=40), st.sampled_from([",", ";"]))
def test_property_streamed_unreadable_row_matches_whole_file_reading(tmp_path, pieces, delim):
    path = tmp_path / "log.csv"
    path.write_bytes(b"".join(pieces))
    err = ingest._unreadable(path, delim)
    row, problem = oracle.unreadable_row(path, delim)
    assert err.row == row and str(err) == f"{path}: row {row}: {problem}"


@pytest.mark.parametrize("text", ["2021-01-04Z", "2021-01-04+01:00", "2021-01-04-01:00"])
def test_a_date_alone_with_a_suffix_reads_as_python_reads_it(text):
    # Python takes the suffix's sign for the separator and its digits for the time
    us, aware, bad = _parse_stamps([text])
    assert bad is None and int(us[0]) == to_us(_parse_datetime(text, None))
    assert not aware[0]


@pytest.fixture(scope="module")
def generated_csv(tmp_path_factory):
    """A generated log of 52,000 rows and its mapping."""
    path = tmp_path_factory.mktemp("generated") / "log.csv"
    mapping = path.with_name("mapping.json")
    assert main(["generate", "--days", "104", "--cases-per-day", "100", "--drift-day", "52",
                 "--out-csv", str(path), "--write-mapping", str(mapping)]) == 0
    return path, CsvMapping.from_json_file(mapping)


def _traced_peak(parse, path):
    """What ``parse(path)`` gives or raises, and the peak of memory it traced."""
    tracemalloc.start()
    try:
        return _outcome(parse, path), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_parse_csv_peak_memory_is_a_small_multiple_of_the_file(generated_csv, monkeypatch):
    path, mapping = generated_csv
    monkeypatch.setattr(ingest, "_BLOCK_ROWS", 4096)
    (log, _), peak = _traced_peak(lambda p: parse_csv(p, mapping), path)
    assert log.event_count == 52_000
    assert peak < 3 * path.stat().st_size, peak / path.stat().st_size


def test_a_bad_stamp_in_every_block_keeps_no_block_alive(generated_csv, monkeypatch):
    path, mapping = generated_csv
    monkeypatch.setattr(ingest, "_BLOCK_ROWS", 4096)
    mapping = dataclasses.replace(mapping, timestamp_format="%d/%m/%Y")
    (_, err), peak = _traced_peak(lambda p: parse_csv(p, mapping), path)
    assert isinstance(err, TimestampParse) and err.row == 2
    assert peak < 3 * path.stat().st_size, peak / path.stat().st_size


def test_an_undecodable_last_row_is_named_without_reading_the_whole_file(
        generated_csv, tmp_path, monkeypatch):
    path, mapping = generated_csv
    data = path.read_bytes()
    last = data.rstrip(b"\n").rfind(b"\n") + 1
    bad = tmp_path / "log.csv"
    bad.write_bytes(data[:last] + b"\xff" + data[last + 1:])
    monkeypatch.setattr(ingest, "_BLOCK_ROWS", 4096)
    (_, err), peak = _traced_peak(lambda p: parse_csv(p, mapping), bad)
    assert isinstance(err, RowUnreadable) and err.row == 52_001
    assert "byte 0xff is not UTF-8" in str(err)
    assert peak < 3 * bad.stat().st_size, peak / bad.stat().st_size



def test_the_event_table_of_a_parsed_log_holds_at_most_16_bytes_per_event(tmp_path):
    path = tmp_path / "log.csv"
    write_csv(generate(GeneratorConfig(seed=1)), GENERATOR_MAPPING, path)
    log = parse_csv(path, GENERATOR_MAPPING)
    tracemalloc.start()
    try:
        table = log.table
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert log.event_count == 26_000
    assert held <= 16 * log.event_count, held / log.event_count
    assert table.prev.dtype == np.int32


def test_the_event_table_stores_no_stamps_and_holds_at_most_8_bytes_per_event():
    log = generate(GeneratorConfig(seed=1))
    tracemalloc.start()
    try:
        table = log.table
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert log.event_count == 26_000
    assert held <= 8 * log.event_count, held / log.event_count
    assert "offset_us" not in vars(table)


@pytest.fixture(scope="module")
def generated_xes(generated_csv):
    """The generated log of 52,000 events, written by ``write_xes``."""
    path, mapping = generated_csv
    out = path.with_name("log.xes")
    write_xes(parse_csv(path, mapping), out)
    return out


def test_parse_xes_peak_memory_is_a_small_multiple_of_the_file(generated_xes):
    (log, _), peak = _traced_peak(parse_xes, generated_xes)
    assert log.event_count == 52_000
    assert peak < 2.5 * generated_xes.stat().st_size, peak / generated_xes.stat().st_size


def test_a_bad_stamp_in_the_last_xes_event_is_named_within_the_same_bound(
        generated_xes, tmp_path):
    data = generated_xes.read_bytes()
    at = data.rfind(b'key="time:timestamp" value="') + len(b'key="time:timestamp" value="')
    bad = tmp_path / "log.xes"
    bad.write_bytes(data[:at] + b"x" + data[at + 1:])
    (_, err), peak = _traced_peak(parse_xes, bad)
    assert isinstance(err, TimestampParse) and err.row == 52_000
    assert str(err).startswith("event #52000, attribute 'time:timestamp': cannot parse"), err
    assert peak < 2.5 * bad.stat().st_size, peak / bad.stat().st_size

# -------------------------------------------------------------- stamps

@pytest.mark.parametrize("text", ["", "NaT", "2021-01", " "])
def test_stamps_numpy_accepts_still_fail_naming_the_row(tmp_path, text):
    path = tmp_path / "log.csv"
    path.write_text(f"case,activity,ts\nc1,a,2021-01-04 08:00:00\nc1,b,{text}\n", encoding="utf-8")
    mapping = CsvMapping(case_id_col="case", activity_col="activity", timestamp_col="ts")
    with pytest.raises(TimestampParse) as err:
        parse_csv(path, mapping)
    assert err.value.row == 3 and "row 3" in str(err.value)


def _agree_with_parse_timestamp(texts: list[str]) -> None:
    """``_parse_stamps`` gives parse_timestamp's microseconds, and fails where it first fails."""
    us, _, bad = _parse_stamps(texts)
    for i, text in enumerate(texts):
        try:
            expected = to_us(parse_timestamp(text))
        except Exception:  # noqa: BLE001 - any failure must be the first one reported
            assert bad is not None and bad[0] == i, (text, bad)
            return
        assert int(us[i]) == expected, text
    assert bad is None


@pytest.mark.parametrize("text", ["0000-01-01", "0000-01-01T00:00:00", "2021-02-29",
                                  "2021-01-04T24:00", "2021-13-01 00:00:00", "2021-01-04t08:00",
                                  "2021-01-04T08:00:00.1234", "2021-01-04_08:00",
                                  "2021-01-04+01:00", "2021-01-04Z", "2021-01-04T08:00+24:00",
                                  "2021-01-04T08:00-01:60", "2021-01-04T08:00,01:00",
                                  "2021-01-04T08:00z", "2021-02-29T08:00:00+01:00",
                                  "2021-01-04T24:00Z", "0001-01-01T00:30+01:00",
                                  "9999-12-31T23:30:00-01:00", "0000-01-01T00:00Z"])
def test_stamps_numpy_would_read_differently_go_to_parse_timestamp(text):
    _agree_with_parse_timestamp(["2021-01-04", text, "2021-01-05"])


@pytest.mark.parametrize("text", ["2021-01-04 08:00:00", "2021-01-04T08:00:00.5",
                                  "20210104T080000", "2021-01-04T08:00:00.123456",
                                  "2021-01-04", "2021-01-04T08:00", "0001-01-01T00:00:00",
                                  "9999-12-31 23:59:59.999", "2016-01-04T08:00:00.000+01:00",
                                  "2021-01-04T08:00Z", "2021-01-04 08:00:00-05:30",
                                  "2021-01-04T08:00:00.123456+23:59", "2021-01-04T08:00:00-00:00",
                                  "0001-01-01T01:00-01:00", "9999-12-31T23:59:59.999999Z",
                                  "0001-01-01T00:30-01:00", "9999-12-31T23:30+01:00"])
def test_stamp_shapes_parse_as_parse_timestamp_does(text):
    _agree_with_parse_timestamp([text, text])


_OFFSETS = st.tuples(st.sampled_from("+-,"), st.integers(0, 25), st.integers(0, 61)).map(
    lambda o: "%s%02d:%02d" % o)


@settings(max_examples=300, deadline=None)
@given(st.lists(
    st.tuples(st.datetimes(), st.sampled_from(["minutes", "seconds", "milliseconds",
                                               "microseconds"]),
              st.sampled_from(["T", " "]), st.one_of(st.just("Z"), _OFFSETS)).map(
        lambda p: p[0].isoformat(p[2], p[1]) + p[3]),
    max_size=6,
))
def test_property_offset_stamps_agree_with_parse_timestamp(texts):
    _agree_with_parse_timestamp(texts)
    us, aware, bad = _parse_stamps(texts)
    for i, text in enumerate(texts[:len(texts) if bad is None else bad[0]]):
        assert aware[i] == (_parse_datetime(text, None).tzinfo is not None), text


_STAMP_CHARS = st.sampled_from(list("0123456789") * 3 + list("-:T .Z+,t"))


@settings(max_examples=300, deadline=None)
@given(st.lists(
    st.one_of(
        st.text(_STAMP_CHARS, max_size=28),
        st.datetimes(min_value=datetime(1, 1, 2)).map(
            lambda d: d.isoformat(sep=" " if d.microsecond % 2 else "T")),
        st.tuples(st.integers(0, 9999), st.integers(0, 13), st.integers(0, 32),
                  st.integers(0, 25), st.integers(0, 61)).map(
            lambda p: "%04d-%02d-%02dT%02d:%02d" % p),
    ),
    max_size=6,
))
def test_property_stamp_gate_agrees_with_parse_timestamp(texts):
    _agree_with_parse_timestamp(texts)
