"""Event-log model: ordering, validation, catalogs and projections."""

from collections import Counter
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given, strategies as st

from driftscope.errors import (
    AttributeTypeMismatch,
    DriftscopeError,
    DuplicateEventId,
    EmptyValue,
    EventInMultipleCases,
    NonFiniteNumber,
)
from driftscope.model import (
    Case,
    Coder,
    Event,
    EventLog,
    attribute_type,
    coded,
    sort_and_validate,
)

from conftest import build_log, project_attr


def test_claims_log_catalogs(claims_log):
    assert claims_log.activities == ("register", "reply", "submit")
    assert claims_log.resources == ("Christina", "Peter", "Sophia")
    assert claims_log.case_count == 2
    assert claims_log.event_count == 4
    assert claims_log.span == (datetime(2021, 6, 15, 12, 30), datetime(2021, 6, 15, 14, 21))


def test_events_sorted_within_case(claims_log):
    case = claims_log.cases["1"]
    assert [e.activity for e in case.events] == ["register", "submit", "reply"]


def test_origin_is_earliest_event(claims_log):
    assert claims_log.origin == datetime(2021, 6, 15, 12, 30)
    assert claims_log.offset_us(datetime(2021, 6, 15, 12, 35)) == 300_000_000


def test_project_attr_resource_multiset(claims_log):
    values = project_attr(claims_log, "resource")
    assert Counter(values) == Counter({"Peter": 2, "Sophia": 1, "Christina": 1})


def test_project_attr_activity_total(claims_log):
    assert len(project_attr(claims_log, "activity")) == claims_log.event_count


def test_project_attr_unknown_key_empty(claims_log):
    assert project_attr(claims_log, "no_such_key") == []
    assert project_attr(claims_log, "no_such_key", level="case") == []


def test_project_attr_bad_level(claims_log):
    with pytest.raises(ValueError):
        project_attr(claims_log, "resource", level="trace")


def test_timestamp_ties_keep_ingestion_order():
    ts = datetime(2021, 1, 1, 9, 0)
    log = build_log(
        [("c", "a", ts), ("c", "b", ts), ("c", "c", ts + timedelta(seconds=1))]
    )
    assert [e.activity for e in log.cases["c"].events] == ["a", "b", "c"]


def test_sort_and_validate_idempotent(claims_log):
    again = sort_and_validate(claims_log)
    assert again.activities == claims_log.activities
    assert [e.event_id for e in again.iter_events()] == [
        e.event_id for e in claims_log.iter_events()
    ]


def test_duplicate_event_id_in_case_rejected():
    ts = datetime(2021, 1, 1)
    log = EventLog()
    log.cases["c"] = Case(
        case_id="c",
        events=[
            Event("e1", "c", "a", ts),
            Event("e1", "c", "b", ts + timedelta(minutes=1)),
        ],
    )
    with pytest.raises(DuplicateEventId):
        sort_and_validate(log)


def test_event_id_across_cases_rejected():
    ts = datetime(2021, 1, 1)
    log = EventLog()
    log.cases["c1"] = Case(case_id="c1", events=[Event("e1", "c1", "a", ts)])
    log.cases["c2"] = Case(case_id="c2", events=[Event("e1", "c2", "a", ts)])
    with pytest.raises(EventInMultipleCases):
        sort_and_validate(log)


def test_event_claiming_foreign_case_rejected():
    ts = datetime(2021, 1, 1)
    log = EventLog()
    log.cases["c1"] = Case(case_id="c1", events=[Event("e1", "other", "a", ts)])
    with pytest.raises(EventInMultipleCases):
        sort_and_validate(log)


def test_mixed_attribute_types_rejected():
    ts = datetime(2021, 1, 1)
    log = EventLog()
    log.cases["c"] = Case(
        case_id="c",
        events=[
            Event("e1", "c", "a", ts, attrs={"v": 1.0}),
            Event("e2", "c", "a", ts + timedelta(minutes=1), attrs={"v": "text"}),
        ],
    )
    with pytest.raises(AttributeTypeMismatch):
        sort_and_validate(log)


def test_object_route_reads_lifecycles_as_the_parsers_do():
    t = datetime(2021, 1, 1, 9)
    log = EventLog(meta={"case_attr_conflicts": 2})
    log.cases["c"] = Case(case_id="c", events=[
        Event("e1", "c", "a", t, lifecycle="START"),
        Event("e2", "c", "a", t + timedelta(hours=1), lifecycle="COMPLETE"),
        Event("e3", "c", "a", t + timedelta(hours=2), lifecycle="schedule"),
    ])
    log = sort_and_validate(log)
    assert [e.lifecycle for e in log.cases["c"].events] == ["start", "complete", None]
    assert log.meta == {"case_attr_conflicts": 2, "ignored_lifecycle_transitions": 1}
    assert log.table.service_s[1] == 3600.0


def test_service_seconds_are_built_on_first_read_as_computed_directly():
    t = datetime(2021, 1, 1, 9)
    log = EventLog()
    steps = [("a", "start", 0), ("b", "start", 10), ("a", "complete", 30),
             ("b", "complete", 60), ("a", "complete", 70)]
    for case, shift in (("c1", 0), ("c2", 5)):
        log.cases[case] = Case(case_id=case, events=[
            Event(f"{case}e{i}", case, act, t + timedelta(minutes=minute + shift), lifecycle=kind)
            for i, (act, kind, minute) in enumerate(steps)])
    log = sort_and_validate(log)
    table = log.table
    assert "service_s" not in vars(table)
    direct = table._service_seconds(log.columns.lifecycle, len(log.activities))
    assert table.service_s.tobytes() == direct.tobytes()
    assert np.isnan(direct).tolist() == [True, True, False, False, True] * 2
    assert direct[~np.isnan(direct)].tolist() == [1800.0, 3000.0] * 2


@given(st.lists(st.sampled_from(["a", "b", "", "c", None, "d"]), max_size=40),
       st.lists(st.integers(0, 40), max_size=6), st.sampled_from([None, ""]))
def test_coder_fed_in_blocks_codes_as_one_shot(values, cuts, absent):
    bounds = [0, *sorted(min(c, len(values)) for c in cuts), len(values)]
    coder = Coder()
    for a, b in zip(bounds, bounds[1:]):
        coder.add(values[a:b])
    names, codes = coder.result(absent)
    expected = list(dict.fromkeys(v for v in values if v != absent))
    assert names == tuple(expected)
    assert codes.dtype == np.int32
    assert codes.tolist() == [-1 if v == absent else expected.index(v) for v in values]
    if absent is None:
        assert (names, codes.tolist()) == (coded(values)[0], coded(values)[1].tolist())
    again = coder.result(absent)
    assert again[0] == names and again[1].dtype == np.int32 and again[1].tolist() == codes.tolist()


def test_object_route_adds_the_lifecycle_count_only_when_non_zero():
    t = datetime(2021, 1, 1, 9)
    log = EventLog(meta={"ignored_lifecycle_transitions": 2})
    log.cases["c"] = Case(case_id="c", events=[Event("e1", "c", "a", t, lifecycle="x")])
    assert sort_and_validate(log).meta == {"ignored_lifecycle_transitions": 3}
    log = EventLog()
    log.cases["c"] = Case(case_id="c", events=[Event("e1", "c", "a", t, lifecycle="start")])
    assert sort_and_validate(log).meta == {}


def _one_case_log(stamps, attr_stamps=None):
    log = EventLog()
    log.cases["c"] = Case(case_id="c", attrs={"opened": stamps[0]}, events=[
        Event(f"e{i}", "c", "a", ts, attrs={"due": due})
        for i, (ts, due) in enumerate(zip(stamps, attr_stamps or stamps))
    ])
    return sort_and_validate(log)


def test_aware_stamps_validate_as_their_utc_instants():
    plus_two = timezone(timedelta(hours=2))
    naive = [datetime(2021, 1, 1, 9), datetime(2021, 1, 1, 10, 30), datetime(2021, 1, 1, 12)]
    aware = [datetime(2021, 1, 1, 9, tzinfo=timezone.utc),
             datetime(2021, 1, 1, 12, 30, tzinfo=plus_two),
             datetime(2021, 1, 1, 14, tzinfo=plus_two)]
    want, got = _one_case_log(naive), _one_case_log(aware)
    assert got.span == want.span
    assert [e.timestamp for e in got.iter_events()] == naive
    for name in ("offset_us", "case", "activity", "prev", "case_duration_s", "service_s"):
        assert getattr(got.table, name).tobytes() == getattr(want.table, name).tobytes(), name
    for level, key in (("event_attrs", "due"), ("case_attrs", "opened")):
        got_attr, want_attr = getattr(got.columns, level)[key], getattr(want.columns, level)[key]
        assert got_attr.type == want_attr.type == "timestamp"
        assert got_attr.values.tobytes() == want_attr.values.tobytes()


@pytest.mark.parametrize("stamp", [
    datetime(1, 1, 1, tzinfo=timezone(timedelta(hours=2))),
    datetime(9999, 12, 31, 23, tzinfo=timezone(timedelta(hours=-2))),
])
def test_object_stamp_outside_datetime_range_is_a_driftscope_error(stamp):
    fine = datetime(2021, 1, 1)
    with pytest.raises(DriftscopeError):
        _one_case_log([stamp])
    with pytest.raises(DriftscopeError):
        _one_case_log([fine], attr_stamps=[stamp])


def test_attribute_type_tags():
    assert attribute_type(True) == "boolean"
    assert attribute_type(1.5) == "number"
    assert attribute_type(3) == "number"
    assert attribute_type("x") == "text"
    assert attribute_type(datetime(2021, 1, 1)) == "timestamp"
    with pytest.raises(TypeError):
        attribute_type(object())


def test_attribute_tables(claims_log):
    assert claims_log.event_attr_types == {}
    log = build_log(
        [("c", "a", datetime(2021, 1, 1), None, None, {"v": 2.0, "flag": True})],
        case_attrs={"c": {"segment": "gold"}},
    )
    assert log.event_attr_types == {"v": "number", "flag": "boolean"}
    assert log.case_attr_types == {"segment": "text"}


_activities = st.sampled_from(["a", "b", "c", "d"])
_minutes = st.integers(min_value=0, max_value=5000)


@st.composite
def random_logs(draw):
    base = datetime(2021, 3, 1)
    rows = []
    for case_no in range(draw(st.integers(1, 4))):
        for _ in range(draw(st.integers(1, 6))):
            rows.append(
                (
                    f"c{case_no}",
                    draw(_activities),
                    base + timedelta(minutes=draw(_minutes)),
                    draw(st.sampled_from(["r1", "r2", None])),
                )
            )
    return build_log(rows)


@given(random_logs())
def test_cases_partition_events(log):
    ids = [e.event_id for e in log.iter_events()]
    assert len(ids) == len(set(ids)) == log.event_count
    for case in log.cases.values():
        assert all(e.case_id == case.case_id for e in case.events)
        stamps = [e.timestamp for e in case.events]
        assert stamps == sorted(stamps)


@given(random_logs())
def test_catalogs_match_content(log):
    assert set(log.activities) == {e.activity for e in log.iter_events()}
    assert set(log.resources) == {
        e.resource for e in log.iter_events() if e.resource is not None
    }
    assert len(project_attr(log, "activity")) == log.event_count


# ------------------------------------------- values of a log built from objects


def _draft(case_id="c1", activity="a", event_attrs=None, case_attrs=None) -> EventLog:
    log = EventLog()
    log.cases[case_id] = Case(case_id, dict(case_attrs or {}), [
        Event("e1", case_id, "a", datetime(2021, 1, 1, 9)),
        Event("e2", case_id, activity, datetime(2021, 1, 1, 10), attrs=dict(event_attrs or {})),
    ])
    return log


@pytest.mark.parametrize("case_id", ["", "  ", None])
def test_object_log_rejects_an_empty_case_id(case_id):
    with pytest.raises(EmptyValue) as err:
        sort_and_validate(_draft(case_id=case_id))
    assert "case #1" in str(err.value) and "case_id" in str(err.value)


@pytest.mark.parametrize("activity", ["", " ", None])
def test_object_log_rejects_an_empty_activity(activity):
    with pytest.raises(EmptyValue) as err:
        sort_and_validate(_draft(activity=activity))
    assert "'e2'" in str(err.value) and "activity" in str(err.value)


@pytest.mark.parametrize("level,value", [("event", float("nan")), ("event", float("inf")),
                                         ("case", float("-inf"))])
def test_object_log_rejects_a_non_finite_number(level, value):
    draft = _draft(**{f"{level}_attrs": {"amount": value}})
    with pytest.raises(NonFiniteNumber) as err:
        sort_and_validate(draft)
    assert err.value.key == "amount"
    assert ("'e2'" if level == "event" else "'c1'") in str(err.value)
