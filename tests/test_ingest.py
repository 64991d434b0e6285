"""Ingestion: CSV and XES parsing, export roundtrips, error reporting."""

from datetime import datetime

import pytest

from driftscope.errors import (
    ConfigInvalid,
    EmptyLog,
    MissingColumn,
    MissingConceptName,
    NonFiniteNumber,
    TimestampParse,
    XmlMalformed,
)
from driftscope.ingest import (
    CsvMapping,
    parse_csv,
    parse_timestamp,
    parse_xes,
    write_csv,
    write_xes,
)
from driftscope.synthetic import GeneratorConfig, generate

from conftest import CLAIMS_CSV, logs_equivalent

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


def test_mapping_json_roundtrip(tmp_path):
    path = tmp_path / "m.json"
    import json

    path.write_text(json.dumps(MAPPING.to_dict()), encoding="utf-8")
    assert CsvMapping.from_json_file(path) == MAPPING
    with pytest.raises(ConfigInvalid):
        CsvMapping.from_dict({"case_id_col": "a", "bogus": 1})


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


def test_parse_xes_missing_concept_name(tmp_path):
    doc = XES_DOC.replace('<string key="concept:name" value="register"/>', "")
    with pytest.raises(MissingConceptName) as err:
        parse_xes(_write(tmp_path, "log.xes", doc))
    assert err.value.event_index == 1


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
