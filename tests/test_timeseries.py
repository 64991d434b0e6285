"""Interval construction and feature extraction checks.

Expected numbers in the hand-check tests were worked out by hand from the
fixture logs before the extractors were written; see each test's comment
for the counting argument.
"""

from datetime import datetime, timedelta

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from driftscope.errors import (
    ConfigInvalid,
    NoExtractableFeatures,
    SpanTooShort,
    TypeMismatch,
)
from driftscope.synthetic import GeneratorConfig, generate
from driftscope.timeseries import (
    AGGREGATORS,
    US_PER_SECOND,
    ExtractorSpec,
    IntervalSequence,
    TimeInterval,
    build_intervals,
    build_time_series,
    duration_to_us,
    parse_spec,
    render_spec,
    write_series_csv,
)
from driftscope.timeseries import TimeSeriesMatrix

from conftest import build_log, select_events
from extractor_oracle import LogIndex, make_extractor, oracle_time_series

BASE = datetime(2021, 6, 15, 12, 0)


def _at(minutes: float) -> datetime:
    return BASE + timedelta(minutes=minutes)


def _single_interval(log, seconds: float) -> IntervalSequence:
    return IntervalSequence.regular(1, seconds, origin=log.origin)


# ---------------------------------------------------------------- intervals


def test_build_intervals_exact_division():
    log = build_log([("c", "a", _at(0)), ("c", "b", _at(240))])  # span 4 h
    seq = build_intervals(log, 3600)
    assert len(seq) == 4
    assert seq.dropped_tail_us == 0
    assert [(iv.start, iv.end) for iv in seq] == [
        (0.0, 3600.0), (3600.0, 7200.0), (7200.0, 10800.0), (10800.0, 14400.0)
    ]
    assert seq.origin == _at(0)


def test_build_intervals_drops_trailing_remainder():
    log = build_log([("c", "a", _at(0)), ("c", "b", _at(270))])  # span 4.5 h
    seq = build_intervals(log, 3600)
    assert len(seq) == 4
    assert seq.dropped_tail_us == 1800 * US_PER_SECOND


def test_build_intervals_span_too_short():
    log = build_log([("c", "a", _at(0)), ("c", "b", _at(90))])
    with pytest.raises(SpanTooShort):
        build_intervals(log, 3600)  # only one full hour fits, two required
    seq = build_intervals(log, 3600, min_intervals=1)
    assert len(seq) == 1


def test_a_log_without_events_has_no_intervals_and_no_origin():
    log = build_log([])
    with pytest.raises(SpanTooShort, match="log contains no events"):
        build_intervals(log, 3600)
    with pytest.raises(ValueError):
        log.origin


@pytest.mark.parametrize("duration_us,count,dropped_tail_us", [
    (0, 3, 0),  # used to divide by zero while bucketing
    (-3_600_000_000, 3, 0),  # used to give all-zero series
    (3.6e9, 3, 0),
    (True, 3, 0),
    (3_600_000_000, -2, 0),
    (3_600_000_000, 3.0, 0),
    (3_600_000_000, 3, -1),
    (3_600_000_000, 3, 0.5),
])
def test_a_hand_built_sequence_refuses_unusable_sizes(duration_us, count, dropped_tail_us):
    with pytest.raises(ConfigInvalid):
        IntervalSequence(BASE, duration_us, count, dropped_tail_us)


def test_build_intervals_rejects_bad_duration():
    log = build_log([("c", "a", _at(0)), ("c", "b", _at(240))])
    with pytest.raises(ConfigInvalid):
        build_intervals(log, 0)
    with pytest.raises(ConfigInvalid):
        build_intervals(log, -5)
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ConfigInvalid):
            duration_to_us(bad)
        with pytest.raises(ConfigInvalid):
            build_intervals(log, bad)


def test_duration_past_int64_microseconds_is_config_invalid():
    for bad in (10**20, 2**63 // US_PER_SECOND + 1, 1e20, 2.0**63 / US_PER_SECOND):
        with pytest.raises(ConfigInvalid):
            duration_to_us(bad)
    assert duration_to_us(2**63 // US_PER_SECOND) == 2**63 // US_PER_SECOND * US_PER_SECOND
    assert duration_to_us(86400) == 86_400_000_000


def test_duration_must_be_a_real_number_and_a_numpy_integer_does_not_wrap():
    # 18446744073710 s is about 585,000 years; its microseconds used to wrap
    # in int64 to 448,384, a 0.45-second interval
    for bad in (np.int64(18446744073710), np.int64(2**62), "3600", None, 1j):
        with pytest.raises(ConfigInvalid):
            duration_to_us(bad)
    assert duration_to_us(np.int64(3600)) == duration_to_us(3600) == 3_600_000_000
    assert duration_to_us(np.float64(1.5)) == 1_500_000
    assert duration_to_us(np.int64(2**63 // US_PER_SECOND)) == 2**63 // US_PER_SECOND * US_PER_SECOND


def test_interval_membership_is_half_open():
    iv = TimeInterval(0, 3600 * US_PER_SECOND)
    assert iv.contains_us(0)
    assert iv.contains_us(3600 * US_PER_SECOND - 1)
    assert not iv.contains_us(3600 * US_PER_SECOND)
    assert not iv.contains_us(-1)


def test_index_of_us_matches_containment():
    seq = IntervalSequence.regular(3, 60)
    assert seq.index_of_us(0) == 0
    assert seq.index_of_us(59_999_999) == 0
    assert seq.index_of_us(60_000_000) == 1
    assert seq.index_of_us(180_000_000) is None
    assert seq.index_of_us(-1) is None


def test_a_hand_built_sequence_places_events_against_its_own_origin():
    # 4 days of 3 cases a day; with 1-day intervals from the first stamp the
    # event counts are [3, 15, 15, 15]. A sequence that starts a day later or
    # a day earlier must see the same days, and nothing before the first event.
    log = generate(GeneratorConfig(days=4, cases_per_day=3, drift_day=2))
    specs = [parse_spec(s) for s in ("data:event_count", "data:case_count", "control_flow:df",
                                     "performance:sojourn", "performance:case_duration")]
    full = build_intervals(log, 86400)
    assert full.origin == log.origin and full.count == 4

    def series(days: int, count: int) -> np.ndarray:
        seq = IntervalSequence(full.origin + timedelta(days=days), full.duration_us, count)
        return build_time_series(log, seq, specs).values

    want = series(0, 4)
    assert want[0].tolist() == [3.0, 15.0, 15.0, 15.0]
    assert series(1, 3)[0].tolist() == [15.0, 15.0, 15.0]
    assert series(-1, 5)[0].tolist() == [0.0, 3.0, 15.0, 15.0, 15.0]
    assert series(1, 3).tobytes() == want[:, 1:].tobytes()
    assert series(-1, 5).tobytes() == np.hstack([np.zeros((len(want), 1)), want]).tobytes()


def test_select_events_window(claims_log):
    # offsets: register 0 s, submit 300 s, second register 2520 s, reply 6660 s
    window = TimeInterval(0, 1800 * US_PER_SECOND)
    picked = select_events(claims_log, window)
    assert [e.activity for e in picked] == ["register", "submit"]


# ------------------------------------------------------------- control flow


def test_df_counts_on_claims(claims_log):
    # the only in-order pairs are register->submit and submit->reply in case 1
    seq = _single_interval(claims_log, 7000)
    matrix = build_time_series(claims_log, seq, [parse_spec("control_flow:df")])
    assert matrix.label_strings() == [
        "control_flow:df:register->register",
        "control_flow:df:register->reply",
        "control_flow:df:register->submit",
        "control_flow:df:reply->register",
        "control_flow:df:reply->reply",
        "control_flow:df:reply->submit",
        "control_flow:df:submit->register",
        "control_flow:df:submit->reply",
        "control_flow:df:submit->submit",
    ]
    assert matrix.values[:, 0].tolist() == [0, 0, 1, 0, 0, 0, 0, 1, 0]


def test_dependency_scores_on_claims(claims_log):
    # one observation each way: (1-0)/(1+0+1) = 0.5, antisymmetric
    seq = _single_interval(claims_log, 7000)
    matrix = build_time_series(claims_log, seq, [parse_spec("control_flow:dependency")])
    assert matrix.row("control_flow:dependency:register=>submit")[0] == 0.5
    assert matrix.row("control_flow:dependency:submit=>register")[0] == -0.5
    assert matrix.row("control_flow:dependency:submit=>reply")[0] == 0.5
    assert matrix.row("control_flow:dependency:register=>reply")[0] == 0.0
    assert matrix.row("control_flow:dependency:register=>register")[0] == 0.0


def test_alpha_relations_on_claims(claims_log):
    seq = _single_interval(claims_log, 7000)
    matrix = build_time_series(claims_log, seq, [parse_spec("control_flow:alpha")])
    assert matrix.row("control_flow:alpha:causal(register->submit)")[0] == 1.0
    assert matrix.row("control_flow:alpha:parallel(register||submit)")[0] == 0.0
    # submit->reply holds but the pair is labelled in alphabet order, so the
    # reversed causal relation leaves both indicator rows at zero
    assert matrix.row("control_flow:alpha:causal(reply->submit)")[0] == 0.0
    assert matrix.row("control_flow:alpha:parallel(reply||submit)")[0] == 0.0


def test_alpha_parallel_on_interleaved_trace():
    # trace a,b,a,b: df(a,b)=2, df(b,a)=1 -> parallel, dependency 0.25
    log = build_log(
        [("c", "a", _at(0)), ("c", "b", _at(10)), ("c", "a", _at(20)), ("c", "b", _at(30))]
    )
    seq = _single_interval(log, 1900)
    df = build_time_series(log, seq, [parse_spec("control_flow:df")])
    assert df.row("control_flow:df:a->b")[0] == 2.0
    assert df.row("control_flow:df:b->a")[0] == 1.0
    alpha = build_time_series(log, seq, [parse_spec("control_flow:alpha")])
    assert alpha.row("control_flow:alpha:causal(a->b)")[0] == 0.0
    assert alpha.row("control_flow:alpha:parallel(a||b)")[0] == 1.0
    dep = build_time_series(log, seq, [parse_spec("control_flow:dependency")])
    assert dep.row("control_flow:dependency:a=>b")[0] == pytest.approx(0.25)


def test_df_pairs_crossing_interval_boundary_are_not_counted():
    log = build_log([("c", "a", _at(0)), ("c", "b", _at(40)), ("c", "c2", _at(60))])
    seq = build_intervals(log, 1800, min_intervals=1)  # [0, 30 min), [30, 60)
    matrix = build_time_series(log, seq, [parse_spec("control_flow:df")])
    assert matrix.values.sum() == 0.0  # a->b and b->c2 both straddle a boundary


def test_activity_count(claims_log):
    seq = _single_interval(claims_log, 7000)
    matrix = build_time_series(claims_log, seq, [parse_spec("control_flow:activity_count")])
    assert matrix.values.tolist() == [[3.0]]


# -------------------------------------------------------------- performance


def test_sojourn_on_claims(claims_log):
    # submit waits 300 s after register; reply 6360 s after submit
    seq = _single_interval(claims_log, 7000)
    matrix = build_time_series(claims_log, seq, [parse_spec("performance:sojourn")])
    assert matrix.row("performance:sojourn:register")[0] == 0.0
    assert matrix.row("performance:sojourn:submit")[0] == 300.0
    assert matrix.row("performance:sojourn:reply")[0] == 6360.0


def test_sojourn_predecessor_may_precede_the_interval():
    log = build_log([("c", "a", _at(0)), ("c", "b", _at(40)), ("c", "end", _at(60))])
    seq = build_intervals(log, 1800, min_intervals=1)
    matrix = build_time_series(log, seq, [parse_spec("performance:sojourn")])
    assert matrix.row("performance:sojourn:b").tolist() == [0.0, 2400.0]


def test_service_time_matches_nearest_preceding_start():
    # two overlapping executions of the same activity: LIFO matching pairs
    # complete@20 with start@10 (600 s) and complete@50 with start@0 (3000 s)
    log = build_log(
        [
            ("c", "task", _at(0), None, "start"),
            ("c", "task", _at(10), None, "start"),
            ("c", "task", _at(20), None, "complete"),
            ("c", "task", _at(50), None, "complete"),
        ]
    )
    seq = _single_interval(log, 3600)
    matrix = build_time_series(log, seq, [parse_spec("performance:service_time")])
    assert matrix.row("performance:service_time:task")[0] == pytest.approx(1800.0)


def test_service_time_attributed_to_completion_interval():
    log = build_log(
        [
            ("c", "task", _at(0), None, "start"),
            ("c", "task", _at(40), None, "complete"),
            ("c", "done", _at(60)),
        ]
    )
    seq = build_intervals(log, 1800)  # [0, 30 min), [30, 60)
    matrix = build_time_series(log, seq, [parse_spec("performance:service_time")])
    assert matrix.row("performance:service_time:task").tolist() == [0.0, 2400.0]


def test_service_time_without_lifecycle_warns(claims_log):
    seq = _single_interval(claims_log, 7000)
    matrix = build_time_series(claims_log, seq, [parse_spec("performance:service_time")])
    assert matrix.values.tolist() == [[0.0]] * 3
    assert any("service_time" in w for w in matrix.warnings)


def test_case_duration_attributed_to_final_event():
    # case 1 ends at 6660 s (duration 6660), case 2 at 2520 s (duration 0)
    log = build_log(
        [
            ("1", "register", _at(0)),
            ("1", "submit", _at(5)),
            ("2", "register", _at(42)),
            ("1", "reply", _at(111)),
        ]
    )
    seq = build_intervals(log, 3000, min_intervals=1)  # [0, 3000 s), [3000, 6000)
    matrix = build_time_series(log, seq, [parse_spec("performance:case_duration")])
    # interval 0 holds case 2's last event only; case 1 ends at 6660 s, outside
    assert matrix.values.tolist() == [[0.0, 0.0]]
    full = build_time_series(log, _single_interval(log, 7000), [parse_spec("performance:case_duration")])
    assert full.values.tolist() == [[3330.0]]


def test_overtime_counts_cases_over_bound(claims_log):
    seq = _single_interval(claims_log, 7000)
    over = build_time_series(claims_log, seq, [parse_spec("performance:overtime(3600)")])
    assert over.values.tolist() == [[1.0]]  # only case 1 (6660 s) exceeds an hour
    none_over = build_time_series(claims_log, seq, [parse_spec("performance:overtime(7000)")])
    assert none_over.values.tolist() == [[0.0]]


# --------------------------------------------------------------------- data


ATTR_ROWS = [
    ("c1", "a", _at(0), "r1", None, {"v": 3.0}),
    ("c1", "a", _at(5), None, None, {"v": 3.0}),
    ("c2", "a", _at(10), "r2", None, {"v": 6.0}),
    ("c2", "b", _at(40), "r2", None, {}),
]


def test_aggregate_event_level():
    log = build_log(ATTR_ROWS)
    seq = _single_interval(log, 1800)
    matrix = build_time_series(log, seq, [parse_spec("data:agg(v)")])
    assert matrix.label_strings() == [f"data:agg:v.{a}" for a in AGGREGATORS]
    # values 3, 3, 6: set_avg averages the distinct values {3, 6}
    assert matrix.values[:, 0].tolist() == [3.0, 6.0, 12.0, 4.0, 3.0, 4.5]


def test_aggregate_empty_interval_yields_zero():
    log = build_log(ATTR_ROWS)
    seq = IntervalSequence.regular(2, 3600, origin=log.origin)  # second hour empty
    matrix = build_time_series(log, seq, [parse_spec("data:agg(v,avg,count)")])
    assert matrix.values[:, 1].tolist() == [0.0, 0.0]


def test_aggregate_case_level_one_value_per_active_case():
    log = build_log(
        [("c1", "x", _at(0)), ("c1", "x", _at(16)), ("c2", "y", _at(16))],
        case_attrs={"c1": {"prio": 3.0}, "c2": {"prio": 7.0}},
    )
    seq = IntervalSequence.regular(2, 900, origin=log.origin)
    matrix = build_time_series(log, seq, [parse_spec("data:agg(prio,avg,count)")])
    assert matrix.row("data:agg:prio.avg").tolist() == [3.0, 5.0]
    assert matrix.row("data:agg:prio.count").tolist() == [1.0, 2.0]


def test_aggregate_rejects_numeric_aggregator_on_text():
    log = build_log([("c", "a", _at(0), None, None, {"tag": "x"}), ("c", "b", _at(10))])
    seq = _single_interval(log, 1800)
    with pytest.raises(TypeMismatch) as err:
        build_time_series(log, seq, [parse_spec("data:agg(tag,avg)")])
    assert err.value.attr == "tag"
    assert err.value.aggregator == "avg"
    # count is type-agnostic
    counted = build_time_series(log, seq, [parse_spec("data:agg(tag,count)")])
    assert counted.values.tolist() == [[1.0]]


def test_aggregate_unknown_attribute():
    log = build_log([("c", "a", _at(0)), ("c", "b", _at(10))])
    with pytest.raises(NoExtractableFeatures):
        build_time_series(log, _single_interval(log, 1800), [parse_spec("data:agg(ghost)")])


def test_threshold_event_and_case_level():
    log = build_log(ATTR_ROWS)
    seq = _single_interval(log, 2700)
    strict = build_time_series(log, seq, [parse_spec("data:threshold(v,3)")])
    assert strict.label_strings() == ["data:threshold:v>3"]
    assert strict.values.tolist() == [[1.0]]  # strictly greater: only the 6
    case_log = build_log(
        [("c1", "x", _at(0)), ("c2", "y", _at(10))],
        case_attrs={"c1": {"prio": 3.0}, "c2": {"prio": 7.0}},
    )
    case_matrix = build_time_series(
        case_log, _single_interval(case_log, 1800), [parse_spec("data:threshold(prio,4)")]
    )
    assert case_matrix.values.tolist() == [[1.0]]


def test_threshold_requires_numeric_attribute():
    log = build_log([("c", "a", _at(0), None, None, {"tag": "x"}), ("c", "b", _at(10))])
    with pytest.raises(TypeMismatch):
        build_time_series(log, _single_interval(log, 1800), [parse_spec("data:threshold(tag,1)")])


def test_event_and_case_counts(claims_log):
    seq = _single_interval(claims_log, 7000)
    matrix = build_time_series(
        claims_log, seq, [parse_spec("data:event_count"), parse_spec("data:case_count")]
    )
    assert matrix.row("data:event_count").tolist() == [4.0]
    assert matrix.row("data:case_count").tolist() == [2.0]


# ----------------------------------------------------------------- resource


def test_workload_rows(claims_log):
    # Peter handles both registrations, Sophia and Christina one event each
    seq = _single_interval(claims_log, 7000)
    matrix = build_time_series(claims_log, seq, [parse_spec("resource:workload")])
    assert matrix.label_strings() == [
        "resource:workload:Christina",
        "resource:workload:Peter",
        "resource:workload:Sophia",
        "resource:active_resources",
        "resource:total_workload",
    ]
    assert matrix.values[:, 0].tolist() == [1.0, 2.0, 1.0, 3.0, 4.0]


def test_workload_without_resources_warns():
    log = build_log([("c", "a", _at(0)), ("c", "b", _at(10))])
    matrix = build_time_series(
        log, _single_interval(log, 1800), [parse_spec("resource:workload")]
    )
    assert matrix.values[:, 0].tolist() == [0.0, 0.0]  # active + total only
    assert any("resource" in w for w in matrix.warnings)


def test_resource_agg_skips_unattributed_events():
    log = build_log(ATTR_ROWS)
    seq = _single_interval(log, 2700)
    plain = build_time_series(log, seq, [parse_spec("data:agg(v,sum)")])
    scoped = build_time_series(log, seq, [parse_spec("resource:agg(v,sum)")])
    assert plain.values.tolist() == [[12.0]]
    assert scoped.values.tolist() == [[9.0]]  # the resource-less 3.0 is excluded


# ------------------------------------------------------------ spec language


def test_parse_spec_basic_forms():
    assert parse_spec("control_flow:df") == ExtractorSpec("control_flow", "df", {})
    spec = parse_spec(" data : agg ( age , avg ) ")
    assert spec == ExtractorSpec("data", "agg", {"attr": "age", "aggregators": ("avg",)})
    assert parse_spec("data:agg(age)").params["aggregators"] == AGGREGATORS
    assert parse_spec("data:threshold(age,40)").params == {"attr": "age", "bound": 40.0}
    assert parse_spec("performance:overtime(86400)").params == {"bound_seconds": 86400.0}


@pytest.mark.parametrize(
    "text",
    [
        "nonsense",
        "control_flow:",
        "bogus:df",
        "control_flow:df(x)",
        "data:agg",
        "data:agg(age,median)",
        "data:threshold(age)",
        "data:threshold(age,soon)",
        "data:threshold(age,nan)",
        "performance:overtime",
        "performance:overtime(a,b)",
        "performance:overtime(inf)",
    ],
)
def test_parse_spec_rejects(text):
    with pytest.raises(ConfigInvalid):
        parse_spec(text)


def test_parse_spec_suggests_close_name():
    with pytest.raises(ConfigInvalid) as err:
        parse_spec("control_flow:dff")
    assert "did you mean control_flow:df?" in str(err.value)


def test_parse_spec_names_an_unknown_extractor_before_counting_its_arguments():
    with pytest.raises(ConfigInvalid) as err:
        parse_spec("control_flow:dff(x)")
    assert "did you mean control_flow:df?" in str(err.value)


@pytest.mark.parametrize("params", [{"attr": "age", "bound": "x"},
                                    {"attr": "age", "bound": float("nan")},
                                    {"attr": "age", "bound": None}])
def test_hand_built_spec_reads_its_values_at_construction(params):
    with pytest.raises(ConfigInvalid) as err:
        ExtractorSpec("data", "threshold", params)
    assert "bound" in str(err.value)


def test_hand_built_spec_stores_values_as_parsed():
    spec = ExtractorSpec("performance", "overtime", {"bound_seconds": "3600"})
    assert spec == parse_spec("performance:overtime(3600)")
    assert spec.params["bound_seconds"] == 3600.0
    assert render_spec(spec) == "performance:overtime(3600)"
    agg = ExtractorSpec("data", "agg", {"attr": "age", "aggregators": ["avg", "count"]})
    assert agg.params["aggregators"] == ("avg", "count")


@pytest.mark.parametrize(
    "text",
    [
        "control_flow:df",
        "control_flow:alpha",
        "performance:overtime(3600)",
        "performance:overtime(0.5)",
        "data:agg(age)",
        "data:agg(age,avg,set_avg)",
        "data:threshold(age,39.5)",
        "resource:workload",
        "resource:agg(age,count)",
    ],
)
def test_render_parse_roundtrip(text):
    spec = parse_spec(text)
    assert parse_spec(render_spec(spec)) == spec


# ------------------------------------------------------------ matrix basics


def test_duplicate_feature_rows_rejected(claims_log):
    seq = _single_interval(claims_log, 7000)
    with pytest.raises(ConfigInvalid):
        build_time_series(claims_log, seq, [parse_spec("control_flow:df")] * 2)


def test_empty_spec_list_rejected(claims_log):
    with pytest.raises(ConfigInvalid):
        build_time_series(claims_log, _single_interval(claims_log, 7000), [])


def test_matrix_row_lookup_unknown_label(claims_log):
    seq = _single_interval(claims_log, 7000)
    matrix = build_time_series(claims_log, seq, [parse_spec("data:event_count")])
    with pytest.raises(KeyError):
        matrix.row("data:case_count")


def test_from_rows_wraps_plain_arrays():
    m = TimeSeriesMatrix.from_rows([1.0, 2.0, 3.0])
    assert m.values.shape == (1, 3)
    assert m.label_strings() == ["data:series:r0"]
    m2 = TimeSeriesMatrix.from_rows([[1, 2], [3, 4]], keys=["p", "q"])
    assert m2.label_strings() == ["data:series:p", "data:series:q"]
    assert m2.n_features == 2 and m2.n_intervals == 2


def test_write_series_csv_roundtrips_values(tmp_path, claims_log):
    import csv

    seq = build_intervals(claims_log, 3000, min_intervals=1)
    matrix = build_time_series(
        claims_log, seq, [parse_spec("data:event_count"), parse_spec("resource:workload")]
    )
    path = tmp_path / "series.csv"
    write_series_csv(matrix, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["interval_start", "interval_end"] + matrix.label_strings()
    assert len(rows) == 1 + len(seq)
    assert rows[1][0] == claims_log.origin.isoformat()
    got = np.array([[float(v) for v in row[2:]] for row in rows[1:]]).T
    assert np.array_equal(got, matrix.values)


def test_matrix_columns_match_direct_extraction(claims_log):
    """The bucketing path must agree with per-interval event selection."""
    specs = [
        parse_spec("control_flow:df"),
        parse_spec("control_flow:alpha"),
        parse_spec("control_flow:dependency"),
        parse_spec("control_flow:activity_count"),
        parse_spec("performance:service_time"),
        parse_spec("performance:case_duration"),
        parse_spec("performance:overtime(3600)"),
        parse_spec("performance:sojourn"),
        parse_spec("data:event_count"),
        parse_spec("data:case_count"),
        parse_spec("resource:workload"),
    ]
    seq = build_intervals(claims_log, 3000, min_intervals=1)
    matrix = build_time_series(claims_log, seq, specs)
    index = LogIndex(claims_log)
    row = 0
    for spec in specs:
        ext = make_extractor(spec, claims_log, index)
        for j, interval in enumerate(seq):
            expected = ext.column(select_events(claims_log, interval), interval)
            assert matrix.values[row:row + len(ext.labels), j].tolist() == expected
        row += len(ext.labels)
    assert row == matrix.n_features


# -------------------------------------------------------------- properties


@st.composite
def small_logs(draw):
    base = datetime(2021, 6, 15, 8, 0)
    rows = []
    for c in range(draw(st.integers(1, 4))):
        minutes = sorted(
            draw(st.lists(st.integers(0, 360), min_size=1, max_size=6))
        )
        for m in minutes:
            rows.append(
                (
                    f"c{c}",
                    draw(st.sampled_from(["a", "b", "c"])),
                    base + timedelta(minutes=m),
                    draw(st.sampled_from([None, "r1", "r2"])),
                )
            )
    return build_log(rows)


def _intervals_or_skip(log, minutes):
    try:
        return build_intervals(log, minutes * 60, min_intervals=1)
    except SpanTooShort:
        assume(False)


@settings(max_examples=100, deadline=None)
@given(small_logs(), st.integers(10, 120))
def test_property_intervals_tile_the_span(log, minutes):
    seq = _intervals_or_skip(log, minutes)
    assert seq.intervals[0].start_us == 0
    for prev, nxt in zip(seq.intervals, seq.intervals[1:]):
        assert prev.end_us == nxt.start_us
        assert nxt.end_us - nxt.start_us == seq.duration_us
    span_us = log.offset_us(log.span[1])
    assert len(seq) * seq.duration_us + seq.dropped_tail_us == span_us
    assert 0 <= seq.dropped_tail_us < seq.duration_us
    for off in (log.offset_us(e.timestamp) for e in log.iter_events()):
        idx = seq.index_of_us(off)
        if idx is not None:
            assert seq.intervals[idx].contains_us(off)
        else:
            assert off >= len(seq) * seq.duration_us


@settings(max_examples=100, deadline=None)
@given(small_logs(), st.integers(10, 120))
def test_property_df_matrix_matches_naive_recount(log, minutes):
    seq = _intervals_or_skip(log, minutes)
    matrix = build_time_series(log, seq, [parse_spec("control_flow:df")])
    pos = {a: i for i, a in enumerate(log.activities)}
    expected = np.zeros_like(matrix.values)
    for case in log.cases.values():
        for p, e in zip(case.events, case.events[1:]):
            ip = seq.index_of_us(log.offset_us(p.timestamp))
            ie = seq.index_of_us(log.offset_us(e.timestamp))
            if ip is not None and ip == ie:
                expected[pos[p.activity] * len(pos) + pos[e.activity], ip] += 1
    assert np.array_equal(matrix.values, expected)


@settings(max_examples=100, deadline=None)
@given(small_logs(), st.integers(10, 120))
def test_property_alpha_relations_follow_df(log, minutes):
    seq = _intervals_or_skip(log, minutes)
    both = build_time_series(
        log, seq, [parse_spec("control_flow:df"), parse_spec("control_flow:alpha")]
    )
    acts = log.activities
    for j in range(both.n_intervals):
        for i, a in enumerate(acts):
            for b in acts[i + 1:]:
                ab = both.row(f"control_flow:df:{a}->{b}")[j]
                ba = both.row(f"control_flow:df:{b}->{a}")[j]
                causal = both.row(f"control_flow:alpha:causal({a}->{b})")[j]
                parallel = both.row(f"control_flow:alpha:parallel({a}||{b})")[j]
                assert causal == (1.0 if ab > 0 and ba == 0 else 0.0)
                assert parallel == (1.0 if ab > 0 and ba > 0 else 0.0)
                assert not (causal == 1.0 and parallel == 1.0)


@settings(max_examples=100, deadline=None)
@given(small_logs(), st.integers(10, 120))
def test_property_dependency_bounded_and_antisymmetric(log, minutes):
    seq = _intervals_or_skip(log, minutes)
    matrix = build_time_series(log, seq, [parse_spec("control_flow:dependency")])
    assert (np.abs(matrix.values) < 1.0).all()
    acts = log.activities
    for a in acts:
        assert (matrix.row(f"control_flow:dependency:{a}=>{a}") == 0.0).all()
        for b in acts:
            fwd = matrix.row(f"control_flow:dependency:{a}=>{b}")
            rev = matrix.row(f"control_flow:dependency:{b}=>{a}")
            assert np.array_equal(fwd, -rev)


@settings(max_examples=100, deadline=None)
@given(small_logs(), st.integers(10, 120))
def test_property_counts_match_bucketed_events(log, minutes):
    seq = _intervals_or_skip(log, minutes)
    matrix = build_time_series(
        log,
        seq,
        [parse_spec("data:event_count"), parse_spec("data:case_count"), parse_spec("resource:workload")],
    )
    for j, interval in enumerate(seq):
        events = select_events(log, interval)
        assert matrix.row("data:event_count")[j] == len(events)
        assert matrix.row("data:case_count")[j] == len({e.case_id for e in events})
        with_resource = [e for e in events if e.resource is not None]
        assert matrix.row("resource:total_workload")[j] == len(with_resource)
        assert matrix.row("resource:active_resources")[j] == len(
            {e.resource for e in with_resource}
        )
    assert matrix.row("data:event_count").sum() == sum(
        1
        for e in log.iter_events()
        if seq.index_of_us(log.offset_us(e.timestamp)) is not None
    )


@settings(max_examples=100, deadline=None)
@given(small_logs(), st.integers(10, 120))
def test_property_extraction_is_deterministic(log, minutes):
    seq = _intervals_or_skip(log, minutes)
    specs = [parse_spec("control_flow:df"), parse_spec("performance:sojourn")]
    first = build_time_series(log, seq, specs)
    second = build_time_series(log, seq, specs)
    assert np.array_equal(first.values, second.values)
    assert first.labels == second.labels


# ------------------------------------------------- columnar path vs oracle

ORACLE_SPECS = [
    "control_flow:df",
    "control_flow:alpha",
    "control_flow:dependency",
    "control_flow:activity_count",
    "performance:service_time",
    "performance:case_duration",
    "performance:overtime(1800)",
    "performance:sojourn",
    "data:agg(v)",
    "data:agg(tag,count)",
    "data:agg(amount)",
    "data:agg(region,count)",
    "data:threshold(v,0.5)",
    "data:threshold(amount,0)",
    "data:event_count",
    "data:case_count",
    "resource:workload",
    "resource:agg(v)",
    "resource:agg(amount,sum,count)",
    "resource:agg(tag,count)",
]

_NUMBERS = st.one_of(
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
    st.integers(-1000, 1000),
    st.sampled_from([0.1, 0.2, 0.3, 1e16, -1e16, 1.0]),  # rounding-sensitive sums
)


@st.composite
def rich_logs(draw):
    """Logs with lifecycles, missing resources, and numeric and text attributes."""
    base = datetime(2021, 6, 15, 8, 0)
    rows, case_attrs = [], {}
    for c in range(draw(st.integers(1, 5))):
        offsets = sorted(
            draw(st.lists(st.integers(0, 720 * 60_000_000), min_size=1, max_size=8))
        )
        for off in offsets:
            attrs = {}
            if draw(st.booleans()):
                attrs["v"] = draw(_NUMBERS)
            if draw(st.booleans()):
                attrs["tag"] = draw(st.sampled_from(["x", "y"]))
            rows.append(
                (
                    f"c{c}",
                    draw(st.sampled_from(["a", "b", "c"])),
                    base + timedelta(microseconds=off),
                    draw(st.sampled_from([None, "r1", "r2"])),
                    draw(st.sampled_from([None, "start", "complete"])),
                    attrs,
                )
            )
        attrs = {}
        if draw(st.booleans()):
            attrs["amount"] = draw(_NUMBERS)
        if draw(st.booleans()):
            attrs["region"] = draw(st.sampled_from(["north", "south"]))
        case_attrs[f"c{c}"] = attrs
    return build_log(rows, case_attrs=case_attrs)


def _extract(build, log, seq, spec):
    try:
        return build(log, seq, [parse_spec(spec)])
    except (NoExtractableFeatures, TypeMismatch, ConfigInvalid) as exc:
        return type(exc)


def _assert_matches_oracle(log, seq):
    for spec in ORACLE_SPECS:
        got = _extract(build_time_series, log, seq, spec)
        want = _extract(oracle_time_series, log, seq, spec)
        if isinstance(want, type):
            assert got is want, spec
            continue
        assert got.values.dtype == want.values.dtype and got.values.shape == want.values.shape
        assert np.array_equal(got.values, want.values), spec
        assert got.values.tobytes() == want.values.tobytes(), spec
        assert got.labels == want.labels, spec
        assert got.warnings == want.warnings, spec


@settings(max_examples=120, deadline=None)
@given(rich_logs(), st.integers(5, 240), st.integers(-1, 2))
def test_property_columns_equal_per_event_oracle(log, minutes, extra):
    """Bit for bit, for every extractor: intervals from the span (the last
    event always lies in the dropped tail) or a regular sequence that may
    end in empty intervals."""
    seq = _intervals_or_skip(log, minutes)
    _assert_matches_oracle(log, seq)
    longer = IntervalSequence.regular(max(1, len(seq) + extra), minutes * 60, origin=log.origin)
    _assert_matches_oracle(log, longer)


def test_columns_equal_oracle_on_lifecycle_fixture():
    # an unmatched start, overlapping starts, a complete without a start, an
    # event without a resource, an empty middle interval and a dropped tail
    log = build_log(
        [
            ("c1", "a", _at(0), "r1", "start", {"v": 0.1}),
            ("c1", "a", _at(5), None, "start", {"v": 0.2, "tag": "x"}),
            ("c1", "a", _at(9), "r2", "complete", {"v": 0.3}),
            ("c1", "b", _at(12), "r2", "complete"),
            ("c2", "b", _at(14), "r1", "start", {"tag": "y"}),
            ("c2", "a", _at(40), "r1", "complete", {"v": 1e16}),
            ("c2", "a", _at(41), None, None, {"v": -1e16}),
            ("c1", "c", _at(71), "r1", "complete"),
        ],
        case_attrs={"c1": {"amount": 2.5, "region": "north"}, "c2": {"region": "south"}},
    )
    seq = build_intervals(log, 1200, min_intervals=1)  # [0,20) [20,40) [40,60) min, tail
    assert len(seq) == 3 and seq.dropped_tail_us > 0
    _assert_matches_oracle(log, seq)
    matrix = build_time_series(log, seq, [parse_spec("data:event_count")])
    assert matrix.values.tolist() == [[5.0, 0.0, 2.0]]
