"""Ingestion: CSV and XES parsing, export roundtrips, error reporting."""

import csv
import hashlib
from datetime import datetime

import numpy as np
import pytest

from driftscope.errors import (
    ConfigInvalid,
    DuplicateTraceId,
    EmptyLog,
    EmptyValue,
    IngestionError,
    MissingColumn,
    MissingConceptName,
    NonFiniteNumber,
    RowError,
    RowUnreadable,
    TimestampParse,
    XmlMalformed,
)
from driftscope.ingest import (
    CsvMapping,
    _isoformat,
    parse_csv,
    parse_xes,
    write_csv,
    write_xes,
)
from driftscope.model import _US_MAX, _US_MIN, Case, Event, EventLog, from_us, sort_and_validate
from driftscope.synthetic import GeneratorConfig, generate

from conftest import CLAIMS_CSV, logs_equivalent
from ingest_oracle import parse_timestamp

MAPPING = CsvMapping(
    case_id_col="case",
    activity_col="activity",
    timestamp_col="timestamp",
    resource_col="resource",
)


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_parse_csv_claims(tmp_path):
    log = parse_csv(_write(tmp_path, "log.csv", CLAIMS_CSV), MAPPING)
    assert log.case_count == 2
    assert log.event_count == 4
    assert log.activities == ("register", "reply", "submit")
    assert log.resources == ("Christina", "Peter", "Sophia")
    assert [e.activity for e in log.cases["1"].events] == ["register", "submit", "reply"]


def test_parse_csv_synthesises_distinct_ids_for_duplicate_rows(tmp_path):
    text = CLAIMS_CSV + "1,reply,2021-06-15 14:21,Christina\n"
    log = parse_csv(_write(tmp_path, "log.csv", text), MAPPING)
    assert log.event_count == 5


def test_parse_csv_missing_column(tmp_path):
    with pytest.raises(MissingColumn):
        parse_csv(
            _write(tmp_path, "log.csv", CLAIMS_CSV),
            CsvMapping(case_id_col="case", activity_col="activity", timestamp_col="when"),
        )


def _mapping_no_resource():
    return CsvMapping(case_id_col="case", activity_col="activity", timestamp_col="timestamp")


def test_parse_csv_header_only_is_empty(tmp_path):
    with pytest.raises(EmptyLog):
        parse_csv(_write(tmp_path, "log.csv", "case,activity,timestamp\n"), _mapping_no_resource())


def test_parse_csv_bad_timestamp_names_row(tmp_path):
    text = "case,activity,timestamp\nc1,a,2021-06-15 12:30\nc1,b,not-a-date\n"
    with pytest.raises(TimestampParse) as err:
        parse_csv(_write(tmp_path, "log.csv", text), _mapping_no_resource())
    assert err.value.row == 3


@pytest.mark.parametrize("row,column", [("c1,,2021-06-15 12:40", "activity"),
                                        (" ,b,2021-06-15 12:40", "case")])
def test_parse_csv_empty_mandatory_value_names_row_and_column(tmp_path, row, column):
    text = f"case,activity,timestamp\nc1,a,2021-06-15 12:30\n{row}\n"
    with pytest.raises(EmptyValue) as err:
        parse_csv(_write(tmp_path, "log.csv", text), _mapping_no_resource())
    assert isinstance(err.value, IngestionError) and err.value.row == 3
    assert "row 3" in str(err.value) and repr(column) in str(err.value)


def test_parse_csv_custom_timestamp_format(tmp_path):
    text = "case,activity,timestamp\nc1,a,15/06/2021 12:30\nc1,b,15/06/2021 12:45\n"
    mapping = CsvMapping(
        case_id_col="case",
        activity_col="activity",
        timestamp_col="timestamp",
        timestamp_format="%d/%m/%Y %H:%M",
    )
    log = parse_csv(_write(tmp_path, "log.csv", text), mapping)
    assert log.span == (datetime(2021, 6, 15, 12, 30), datetime(2021, 6, 15, 12, 45))


def test_parse_csv_semicolon_and_quoting(tmp_path):
    text = 'case;activity;timestamp\nc1;"mail; send";2021-06-15 12:30\nc1;done;2021-06-15 12:40\n'
    mapping = CsvMapping(
        case_id_col="case", activity_col="activity", timestamp_col="timestamp", delimiter=";"
    )
    log = parse_csv(_write(tmp_path, "log.csv", text), mapping)
    assert log.activities == ("done", "mail; send")


def test_parse_csv_typed_attributes(tmp_path):
    text = (
        "case,activity,timestamp,amount,approved,channel\n"
        "c1,a,2021-06-15 12:30,100.5,true,web\n"
        "c1,b,2021-06-15 12:40,7,false,phone\n"
        "c2,a,2021-06-15 12:50,,true,\n"
    )
    mapping = CsvMapping(
        case_id_col="case",
        activity_col="activity",
        timestamp_col="timestamp",
        event_attr_cols=("amount", "approved", "channel"),
    )
    log = parse_csv(_write(tmp_path, "log.csv", text), mapping)
    assert log.event_attr_types == {
        "amount": "number",
        "approved": "boolean",
        "channel": "text",
    }
    first = log.cases["c1"].events[0]
    assert first.attrs == {"amount": 100.5, "approved": True, "channel": "web"}
    # empty cells are missing values, not empty strings
    assert "amount" not in log.cases["c2"].events[0].attrs


@pytest.mark.parametrize("bad", ["nan", "inf", "-Infinity"])
def test_parse_csv_non_finite_number_names_row_and_column(tmp_path, bad):
    text = (
        "case,activity,timestamp,amount\n"
        "c1,a,2021-06-15 12:30,100.5\n"
        f"c1,b,2021-06-15 12:40,{bad}\n"
    )
    mapping = CsvMapping(
        case_id_col="case",
        activity_col="activity",
        timestamp_col="timestamp",
        event_attr_cols=("amount",),
    )
    with pytest.raises(NonFiniteNumber) as err:
        parse_csv(_write(tmp_path, "log.csv", text), mapping)
    assert (err.value.row, err.value.key) == (3, "amount")
    assert "row 3" in str(err.value) and "'amount'" in str(err.value)


def test_parse_csv_non_finite_case_attribute_names_row(tmp_path):
    text = "case,activity,timestamp,budget\nc1,a,2021-06-15 12:30,1\nc2,a,2021-06-15 12:40,inf\n"
    mapping = CsvMapping(
        case_id_col="case", activity_col="activity", timestamp_col="timestamp",
        case_attr_cols=("budget",),
    )
    with pytest.raises(NonFiniteNumber) as err:
        parse_csv(_write(tmp_path, "log.csv", text), mapping)
    assert (err.value.row, err.value.key) == (3, "budget")


def test_parse_csv_case_attrs_from_first_row(tmp_path):
    text = (
        "case,activity,timestamp,region\n"
        "c1,a,2021-06-15 12:30,north\n"
        "c1,b,2021-06-15 12:40,south\n"
    )
    mapping = CsvMapping(
        case_id_col="case",
        activity_col="activity",
        timestamp_col="timestamp",
        case_attr_cols=("region",),
    )
    log = parse_csv(_write(tmp_path, "log.csv", text), mapping)
    assert log.cases["c1"].attrs == {"region": "north"}


BUDGET_MAPPING = CsvMapping(
    case_id_col="case", activity_col="activity", timestamp_col="timestamp",
    case_attr_cols=("budget",),
)


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_parse_csv_non_finite_case_attribute_in_a_later_row(tmp_path, bad):
    # the first row of the case is clean; the bad cell is in its second row
    text = (
        "case,activity,timestamp,budget\n"
        "c1,a,2021-06-15 12:30,1\n"
        f"c1,b,2021-06-15 12:40,{bad}\n"
    )
    with pytest.raises(NonFiniteNumber) as err:
        parse_csv(_write(tmp_path, "log.csv", text), BUDGET_MAPPING)
    assert (err.value.row, err.value.key) == (3, "budget")
    assert "row 3" in str(err.value)


def test_parse_csv_case_attr_conflicts_are_counted(tmp_path):
    text = (
        "case,activity,timestamp,budget\n"
        "c1,a,2021-06-15 12:30,1\n"
        "c1,b,2021-06-15 12:40,2\n"
        "c1,c,2021-06-15 12:50,1.0\n"
        "c2,a,2021-06-15 13:00,\n"
        "c2,b,2021-06-15 13:10,5\n"
        "c2,c,2021-06-15 13:20,6\n"
    )
    log = parse_csv(_write(tmp_path, "log.csv", text), BUDGET_MAPPING)
    # the first value a case's rows give wins; 2 and 6 conflict with it
    assert log.cases["c1"].attrs == {"budget": 1.0}
    assert log.cases["c2"].attrs == {"budget": 5.0}
    assert log.meta == {"case_attr_conflicts": 2}


def test_parse_csv_consistent_case_attrs_leave_meta_empty(tmp_path):
    text = (
        "case,activity,timestamp,budget\n"
        "c1,a,2021-06-15 12:30,1\n"
        "c1,b,2021-06-15 12:40,1\n"
        "c1,c,2021-06-15 12:50,\n"
    )
    log = parse_csv(_write(tmp_path, "log.csv", text), BUDGET_MAPPING)
    assert log.cases["c1"].attrs == {"budget": 1.0}
    assert log.meta == {}


def test_mapping_requires_distinct_mandatory_columns():
    with pytest.raises(ConfigInvalid):
        CsvMapping(case_id_col="x", activity_col="x", timestamp_col="ts")
    with pytest.raises(ConfigInvalid):
        CsvMapping(case_id_col="a", activity_col="b", timestamp_col="c", delimiter=";;")
    with pytest.raises(ConfigInvalid, match="are all required"):
        CsvMapping(case_id_col="a", activity_col="b", timestamp_col="")


def test_mapping_json_roundtrip(tmp_path):
    path = tmp_path / "m.json"
    import json

    path.write_text(json.dumps(MAPPING.to_dict()), encoding="utf-8")
    assert CsvMapping.from_json_file(path) == MAPPING
    with pytest.raises(ConfigInvalid):
        CsvMapping.from_dict({"case_id_col": "a", "bogus": 1})


@pytest.mark.parametrize("key,value", [
    ("timestamp_format", 5), ("resource_col", ["act"]), ("case_id_col", 5),
    ("lifecycle_col", 1.5), ("delimiter", None), ("event_attr_cols", "age"),
    ("case_attr_cols", ["region", 3]), ("event_attr_cols", None),
])
def test_mapping_rejects_values_of_the_wrong_type_naming_the_key(key, value):
    data = {"case_id_col": "case", "activity_col": "activity", "timestamp_col": "timestamp",
            key: value}
    with pytest.raises(ConfigInvalid, match=repr(key)):
        CsvMapping.from_dict(data)


OVERLAP_CSV = (
    "case,act,ts,x\n"
    "c1,a,2021-01-04T08:00:00,1\n"
    "c1,b,2021-01-04T09:00:00,2\n"
    "c2,a,2021-01-04T10:00:00,2\n"
    "c2,c,2021-01-04T11:00:00,3\n"
)


def test_parse_csv_reads_a_column_mapped_twice_as_each_of_its_fields(tmp_path):
    # the stamp and the resource are also event attributes; the activity and
    # the case id are also case attributes
    mapping = CsvMapping(case_id_col="case", activity_col="act", timestamp_col="ts",
                         resource_col="x", event_attr_cols=("ts", "x"),
                         case_attr_cols=("act", "case"))
    log = parse_csv(_write(tmp_path, "log.csv", OVERLAP_CSV), mapping)
    assert log.event_attr_types == {"ts": "timestamp", "x": "number"}
    assert log.case_attr_types == {"act": "text", "case": "text"}
    events = [e for case in log.cases.values() for e in case.events]
    assert [e.resource for e in events] == ["1", "2", "2", "3"]
    assert [e.attrs for e in events] == [
        {"ts": datetime(2021, 1, 4, h), "x": x} for h, x in ((8, 1.0), (9, 2.0), (10, 2.0),
                                                             (11, 3.0))]
    assert {k: c.attrs for k, c in log.cases.items()} == {
        "c1": {"act": "a", "case": "c1"}, "c2": {"act": "a", "case": "c2"}}
    assert log.meta == {"case_attr_conflicts": 2}


def test_parse_csv_non_ascii_texts_stay_text_and_bad_stamps_name_their_row(tmp_path):
    text = "case,act,ts,city\nc1,a,2021-01-04T08:00:00,café\nc1,b,2021-01-04T09:00:00,Zürich\n"
    mapping = CsvMapping(case_id_col="case", activity_col="act", timestamp_col="ts",
                         event_attr_cols=("city",))
    log = parse_csv(_write(tmp_path, "log.csv", text), mapping)
    assert log.event_attr_types == {"city": "text"}
    assert [e.attrs["city"] for e in log.cases["c1"].events] == ["café", "Zürich"]
    text = ("case,activity,timestamp\nc1,a,2021-01-04T08:00:00\n"
            "c1,b,2021-01-05T08:00:00\uff0b01:00\n")  # a full-width plus
    with pytest.raises(TimestampParse) as err:
        parse_csv(_write(tmp_path, "log.csv", text), _mapping_no_resource())
    assert err.value.row == 3 and "row 3" in str(err.value)


def test_parse_timestamp_accepts_zulu_and_offsets():
    assert parse_timestamp("2021-06-15T10:00:00Z") == datetime(2021, 6, 15, 10, 0)
    assert parse_timestamp("2021-06-15T12:00:00+02:00") == datetime(2021, 6, 15, 10, 0)


def test_csv_roundtrip_preserves_log(tmp_path):
    original = generate(GeneratorConfig(seed=5, days=8, cases_per_day=3, drift_day=4))
    mapping = CsvMapping(
        case_id_col="case_id",
        activity_col="activity",
        timestamp_col="timestamp",
        resource_col="resource",
        event_attr_cols=("age",),
    )
    path = tmp_path / "out.csv"
    write_csv(original, mapping, path)
    again = parse_csv(path, mapping)
    assert logs_equivalent(original, again)


XES_DOC = """<?xml version="1.0" encoding="UTF-8"?>
<log xes.version="1849-2016">
  <trace>
    <string key="concept:name" value="1"/>
    <string key="channel" value="web"/>
    <event>
      <string key="concept:name" value="register"/>
      <date key="time:timestamp" value="2021-06-15T12:30:00"/>
      <string key="org:resource" value="Peter"/>
      <string key="lifecycle:transition" value="complete"/>
      <int key="age" value="44"/>
    </event>
    <event>
      <string key="concept:name" value="submit"/>
      <date key="time:timestamp" value="2021-06-15T12:35:00+00:00"/>
      <string key="org:resource" value="Sophia"/>
      <boolean key="urgent" value="true"/>
    </event>
  </trace>
</log>
"""


def test_parse_xes_minimal(tmp_path):
    log = parse_xes(_write(tmp_path, "log.xes", XES_DOC))
    assert log.case_count == 1
    case = log.cases["1"]
    assert case.attrs == {"channel": "web"}
    first, second = case.events
    assert first.activity == "register"
    assert first.timestamp == datetime(2021, 6, 15, 12, 30)
    assert first.resource == "Peter"
    assert first.lifecycle == "complete"
    assert first.attrs == {"age": 44.0}
    assert second.attrs == {"urgent": True}
    assert second.lifecycle is None


def test_parse_xes_namespaced_document(tmp_path):
    doc = XES_DOC.replace("<log ", '<log xmlns="http://www.xes-standard.org/" ')
    log = parse_xes(_write(tmp_path, "log.xes", doc))
    assert log.event_count == 2


def test_parse_xes_exotic_lifecycle_counted(tmp_path):
    doc = XES_DOC.replace('value="complete"', 'value="schedule"')
    log = parse_xes(_write(tmp_path, "log.xes", doc))
    assert log.cases["1"].events[0].lifecycle is None
    assert log.meta["ignored_lifecycle_transitions"] == 1


@pytest.mark.parametrize("element, bad, message", [
    ('<boolean key="urgent" value="true"/>', '<int key="n" value="abc"/>',
     "event #2, attribute 'n' has non-numeric value 'abc'"),
    ('<string key="channel" value="web"/>', '<float key="n" value="x"/>',
     "trace 1, attribute 'n' has non-numeric value 'x'"),
])
def test_parse_xes_non_numeric_number_names_its_place(tmp_path, element, bad, message):
    with pytest.raises(XmlMalformed) as err:
        parse_xes(_write(tmp_path, "log.xes", XES_DOC.replace(element, bad)))
    assert str(err.value) == message


@pytest.mark.parametrize("element, bad, message", [
    ('<boolean key="urgent" value="true"/>', '<boolean key="ok" value="maybe"/>',
     "event #2, attribute 'ok' has non-boolean value 'maybe'"),
    ('<string key="channel" value="web"/>', '<boolean key="vip" value="1"/>',
     "trace 1, attribute 'vip' has non-boolean value '1'"),
])
def test_parse_xes_non_boolean_value_names_its_place(tmp_path, element, bad, message):
    with pytest.raises(XmlMalformed) as err:
        parse_xes(_write(tmp_path, "log.xes", XES_DOC.replace(element, bad)))
    assert str(err.value) == message


def test_parse_xes_boolean_ignores_case_and_surrounding_space(tmp_path):
    doc = XES_DOC.replace('value="true"/>', 'value=" FALSE "/>')
    assert parse_xes(_write(tmp_path, "log.xes", doc)).cases["1"].events[1].attrs == {
        "urgent": False}


@pytest.mark.parametrize("error", [TimestampParse, EmptyValue, RowUnreadable])
def test_row_errors_share_one_base_and_carry_the_row(error):
    assert issubclass(error, RowError) and issubclass(error, IngestionError)
    assert error("bad", row=4).row == 4 and error("bad").row is None


def test_parse_xes_missing_concept_name(tmp_path):
    doc = XES_DOC.replace('<string key="concept:name" value="register"/>', "")
    with pytest.raises(MissingConceptName) as err:
        parse_xes(_write(tmp_path, "log.xes", doc))
    assert err.value.event_index == 1


@pytest.mark.parametrize("name", ["", "  "])
def test_parse_xes_empty_concept_name_names_event(tmp_path, name):
    doc = XES_DOC.replace('value="submit"', f'value="{name}"')
    with pytest.raises(MissingConceptName) as err:
        parse_xes(_write(tmp_path, "log.xes", doc))
    assert err.value.event_index == 2
    assert "event #2" in str(err.value) and "empty concept:name" in str(err.value)


def test_parse_xes_traces_sharing_a_name_are_rejected(tmp_path):
    doc = """<?xml version="1.0"?><log>
      <trace><string key="concept:name" value="A"/>
        <event><string key="concept:name" value="a"/>
               <date key="time:timestamp" value="2021-06-15T12:30:00"/></event>
        <event><string key="concept:name" value="b"/>
               <date key="time:timestamp" value="2021-06-15T12:40:00"/></event></trace>
      <trace><string key="concept:name" value="A"/>
        <event><string key="concept:name" value="a"/>
               <date key="time:timestamp" value="2021-06-15T13:30:00"/></event></trace>
    </log>"""
    with pytest.raises(DuplicateTraceId) as err:
        parse_xes(_write(tmp_path, "log.xes", doc))
    assert isinstance(err.value, IngestionError)
    assert "traces 1 and 2" in str(err.value) and "'A'" in str(err.value)


def test_parse_xes_missing_timestamp_names_event(tmp_path):
    doc = XES_DOC.replace('<date key="time:timestamp" value="2021-06-15T12:30:00"/>', "")
    with pytest.raises(TimestampParse) as err:
        parse_xes(_write(tmp_path, "log.xes", doc))
    assert err.value.row == 1


@pytest.mark.parametrize("tag,bad", [("float", "NaN"), ("int", "inf"), ("float", "-INF")])
def test_parse_xes_non_finite_number_names_event_and_key(tmp_path, tag, bad):
    doc = XES_DOC.replace('<int key="age" value="44"/>', f'<{tag} key="age" value="{bad}"/>')
    with pytest.raises(NonFiniteNumber) as err:
        parse_xes(_write(tmp_path, "log.xes", doc))
    assert err.value.key == "age"
    assert "event #1" in str(err.value) and "'age'" in str(err.value)


def test_parse_xes_non_finite_trace_attribute_names_trace(tmp_path):
    doc = XES_DOC.replace(
        '<string key="channel" value="web"/>', '<float key="budget" value="nan"/>'
    )
    with pytest.raises(NonFiniteNumber) as err:
        parse_xes(_write(tmp_path, "log.xes", doc))
    assert err.value.key == "budget"
    assert "trace 1" in str(err.value)


def test_parse_xes_malformed(tmp_path):
    with pytest.raises(XmlMalformed):
        parse_xes(_write(tmp_path, "log.xes", "<log><trace>"))
    with pytest.raises(XmlMalformed):
        parse_xes(_write(tmp_path, "log.xes", "<notalog/>"))
    with pytest.raises(XmlMalformed, match="unknown encoding"):
        parse_xes(_write(tmp_path, "log.xes", '<?xml version="1.0" encoding="U-TF-8"?><log/>'))


def test_parse_xes_no_events_is_empty(tmp_path):
    doc = '<?xml version="1.0"?><log><trace><string key="concept:name" value="1"/></trace></log>'
    with pytest.raises(EmptyLog):
        parse_xes(_write(tmp_path, "log.xes", doc))


def test_parse_xes_trace_without_name_gets_synthetic_id(tmp_path):
    doc = XES_DOC.replace('<string key="concept:name" value="1"/>', "")
    log = parse_xes(_write(tmp_path, "log.xes", doc))
    assert list(log.cases) == ["trace_1"]


def test_xes_roundtrip_preserves_log(tmp_path):
    original = generate(GeneratorConfig(seed=9, days=6, cases_per_day=2, drift_day=3))
    path = tmp_path / "log.xes"
    write_xes(original, path)
    again = parse_xes(path)
    assert logs_equivalent(original, again)


def test_csv_of_claims_roundtrip(tmp_path, claims_log):
    path = tmp_path / "claims.csv"
    write_csv(claims_log, MAPPING, path)
    again = parse_csv(path, MAPPING)
    assert logs_equivalent(claims_log, again)


def test_parse_csv_invalid_utf8_names_the_row(tmp_path):
    path = tmp_path / "log.csv"
    path.write_bytes(
        b'case,activity,timestamp\nc1,a,2021-06-15 12:30\nc1,"b\n\xff",2021-06-15 12:40\n'
    )
    with pytest.raises(RowUnreadable) as err:
        parse_csv(path, _mapping_no_resource())
    assert isinstance(err.value, IngestionError) and err.value.row == 3
    assert "row 3" in str(err.value)


def test_parse_csv_field_over_the_csv_limit_names_the_row(tmp_path):
    big = "x" * (csv.field_size_limit() + 1)
    text = f"case,activity,timestamp\nc1,a,2021-06-15 12:30\nc1,\"{big}\",2021-06-15 12:40\n"
    with pytest.raises(RowUnreadable) as err:
        parse_csv(_write(tmp_path, "log.csv", text), _mapping_no_resource())
    assert err.value.row == 3


def test_parse_xes_bad_date_attribute_names_event_and_key(tmp_path):
    doc = XES_DOC.replace('<boolean key="urgent" value="true"/>',
                          '<date key="due" value="yesterday"/>')
    with pytest.raises(TimestampParse) as err:
        parse_xes(_write(tmp_path, "log.xes", doc))
    assert err.value.row == 2
    assert "event #2" in str(err.value) and "'due'" in str(err.value)
    assert "'yesterday'" in str(err.value)


def test_parse_xes_non_ascii_stamp_names_its_event(tmp_path):
    doc = XES_DOC.replace('value="2021-06-15T12:30:00"', 'value="2021-06-15T12:30:00é"')
    with pytest.raises(TimestampParse) as err:
        parse_xes(_write(tmp_path, "log.xes", doc))
    assert err.value.row == 1 and "event #1" in str(err.value)


NAIVE_XES_DOC = XES_DOC.replace("+00:00", "")


def test_parse_xes_counts_skipped_list_and_container_attributes(tmp_path):
    doc = NAIVE_XES_DOC.replace(
        '<string key="channel" value="web"/>',
        '<string key="channel" value="web"/><list key="tags"><string key="t" value="a"/></list>',
    ).replace('<int key="age" value="44"/>',
              '<int key="age" value="44"/><container key="c"><int key="n" value="1"/></container>')
    log = parse_xes(_write(tmp_path, "log.xes", doc))
    assert log.meta == {"skipped_container_attributes": 2}
    assert log.cases["1"].attrs == {"channel": "web"}
    assert log.cases["1"].events[0].attrs == {"age": 44.0}
    assert parse_xes(_write(tmp_path, "plain.xes", NAIVE_XES_DOC)).meta == {}


def test_parse_xes_counts_naive_stamps_mixed_with_aware(tmp_path):
    # XES_DOC's first stamp is naive, its second carries an offset
    log = parse_xes(_write(tmp_path, "log.xes", XES_DOC))
    assert log.meta == {"naive_timestamps_among_aware": 1}
    doc = XES_DOC.replace("2021-06-15T12:30:00", "2021-06-15T14:30:00+02:00")
    log = parse_xes(_write(tmp_path, "aware.xes", doc))
    assert log.meta == {}
    assert log.cases["1"].events[0].timestamp == datetime(2021, 6, 15, 12, 30)


def test_parse_csv_counts_naive_stamps_mixed_with_aware(tmp_path):
    text = ("case,activity,timestamp\nc1,a,2021-06-15 12:30\nc1,b,2021-06-15T12:40:00Z\n"
            "c1,c,2021-06-15T14:50:00+02:00\n")
    log = parse_csv(_write(tmp_path, "log.csv", text), _mapping_no_resource())
    assert log.meta == {"naive_timestamps_among_aware": 1}
    log = parse_csv(_write(tmp_path, "aware.csv", text.replace("12:30", "12:30Z")),
                    _mapping_no_resource())
    assert log.meta == {}


def test_parse_xes_non_finite_event_attribute_carries_the_event_number(tmp_path):
    doc = XES_DOC.replace('<boolean key="urgent" value="true"/>',
                          '<boolean key="urgent" value="true"/><float key="amount" value="nan"/>')
    with pytest.raises(NonFiniteNumber) as err:
        parse_xes(_write(tmp_path, "log.xes", doc))
    assert err.value.row == 2 and "event #2" in str(err.value)


# ---------------------------------------------------------------- writers


def _typed_log(empty_text: bool) -> EventLog:
    """Two cases with every attribute type at both levels, an int-valued
    number, events without a resource and start/complete lifecycles."""
    log = EventLog()
    log.cases["c1"] = Case("c1", {"budget": 3, "vip": True, "opened": datetime(2020, 12, 1, 8),
                                  "region": "" if empty_text else "north"}, [
        Event("e1", "c1", "register", datetime(2021, 1, 4, 8, 0, 0, 250000), "ann", "start",
              {"amount": 7, "urgent": False, "due": datetime(2021, 1, 9), "note": "first"}),
        Event("e2", "c1", "register", datetime(2021, 1, 4, 9, 30), "ann", "complete",
              {"amount": 2.5}),
        Event("e3", "c1", "decide", datetime(2021, 1, 5, 10), None, None,
              {"urgent": True, "note": "" if empty_text else "last"}),
    ])
    log.cases["c2"] = Case("c2", {"budget": 0.125, "region": "south"}, [
        Event("e4", "c2", "register", datetime(2021, 1, 4, 11), None, "complete",
              {"due": datetime(2021, 1, 10, 12, 15)}),
    ])
    return sort_and_validate(log)


def test_xes_writer_roundtrips_every_attribute_type(tmp_path):
    original = _typed_log(empty_text=True)
    path = tmp_path / "log.xes"
    write_xes(original, path)
    again = parse_xes(path)
    assert logs_equivalent(original, again)
    assert again.cases["c1"].attrs["region"] == ""
    assert again.cases["c1"].events[2].attrs["note"] == ""
    assert again.cases["c1"].events[2].resource is None
    assert again.event_attr_types == {"amount": "number", "urgent": "boolean",
                                      "due": "timestamp", "note": "text"}


@pytest.mark.parametrize("timestamp_format", [None, "%d/%m/%Y %H:%M:%S.%f"])
def test_csv_writer_roundtrips_every_attribute_type(tmp_path, timestamp_format):
    original = _typed_log(empty_text=False)
    mapping = CsvMapping(
        case_id_col="case", activity_col="activity", timestamp_col="time",
        timestamp_format=timestamp_format, resource_col="resource", lifecycle_col="life",
        event_attr_cols=("amount", "urgent", "due", "note", "absent"),
        case_attr_cols=("budget", "vip", "opened", "region"), delimiter=";",
    )
    path = tmp_path / "log.csv"
    write_csv(original, mapping, path)
    again = parse_csv(path, mapping)
    assert logs_equivalent(original, again)
    assert again.case_attr_types == {"budget": "number", "vip": "boolean",
                                     "opened": "timestamp", "region": "text"}
    if timestamp_format:
        assert "04/01/2021 08:00:00.250000" in path.read_text(encoding="utf-8")


def test_xes_writer_bytes_are_pinned(tmp_path):
    path = tmp_path / "log.xes"
    write_xes(generate(GeneratorConfig(seed=2, days=4, cases_per_day=3, drift_day=2)), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "2126bf6fde0ae387b2b9f666aa05681aef18c4e00322fa26d0a7932a94b9d90d")


def test_isoformat_matches_datetime_isoformat():
    rng = np.random.default_rng(11)
    us = np.concatenate([
        [_US_MIN, _US_MAX, -1, 0, 1, -1_000_000, 1_000_000, _US_MIN + 999_999, _US_MAX - 999_999],
        rng.integers(_US_MIN, _US_MAX, 5_000, endpoint=True),
        rng.integers(_US_MIN // 1_000_000, _US_MAX // 1_000_000, 5_000) * 1_000_000,
    ]).astype(np.int64)
    assert _isoformat(us) == [from_us(u).isoformat() for u in us.tolist()]
    assert _isoformat(np.array([], np.int64)) == []


def test_writers_bytes_are_pinned_for_every_attribute_type(tmp_path):
    # timestamp attributes, with and without a fraction, pass through _isoformat too
    mapping = CsvMapping(
        case_id_col="case", activity_col="activity", timestamp_col="time",
        resource_col="resource", lifecycle_col="life",
        event_attr_cols=("amount", "urgent", "due", "note", "absent"),
        case_attr_cols=("budget", "vip", "opened", "region"), delimiter=";",
    )
    log = _typed_log(empty_text=False)
    write_csv(log, mapping, tmp_path / "log.csv")
    write_xes(log, tmp_path / "log.xes")
    assert hashlib.sha256((tmp_path / "log.csv").read_bytes()).hexdigest() == (
        "c4392ec4c4352690a352b3b698a2cdc015e1c46a12bf513dfca699d96a998477")
    assert hashlib.sha256((tmp_path / "log.xes").read_bytes()).hexdigest() == (
        "d7a230dba6643205d3d0feda604315a5c3d3fa31d66d58f98b854f21559ff127")
