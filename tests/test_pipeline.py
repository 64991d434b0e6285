"""Orchestration: configuration, drift linking, report shape, determinism."""

import json
from datetime import datetime, timedelta

import numpy as np
import pytest

import driftscope
from driftscope.causality import CausalPair, PairScan
from driftscope.changepoint import ChangePoint, ChangePointSet
from driftscope.errors import ConfigInvalid, SpanTooShort
from driftscope.pipeline import AnalysisReport, FrameworkConfig, run
from driftscope.synthetic import GeneratorConfig, generate
from driftscope.timeseries import ExtractorSpec, parse_spec

from conftest import build_log


def _drift_config(p_threshold=1e-12) -> FrameworkConfig:
    return FrameworkConfig(
        primary_specs=[parse_spec("control_flow:df")],
        secondary_specs=[parse_spec("data:agg(age,avg,set_avg)")],
        interval_seconds=86400.0,
        beta_primary=3.0,
        beta_secondary=1.5,
        p_threshold=p_threshold,
    )


@pytest.fixture(scope="module")
def drifted_log():
    return generate(GeneratorConfig())  # 260 days, drift at day 130


@pytest.fixture(scope="module")
def drifted_report(drifted_log) -> AnalysisReport:
    return run(drifted_log, _drift_config())


# ------------------------------------------------------------ configuration


def test_config_requires_both_roles():
    with pytest.raises(ConfigInvalid):
        FrameworkConfig(primary_specs=[], secondary_specs=[parse_spec("data:event_count")],
                        interval_seconds=3600)
    with pytest.raises(ConfigInvalid):
        FrameworkConfig(primary_specs=[parse_spec("control_flow:df")], secondary_specs=[],
                        interval_seconds=3600)


def test_config_role_must_be_single_perspective():
    with pytest.raises(ConfigInvalid):
        FrameworkConfig(
            primary_specs=[parse_spec("control_flow:df"), parse_spec("data:event_count")],
            secondary_specs=[parse_spec("resource:workload")],
            interval_seconds=3600,
        )


@pytest.mark.parametrize(
    "kwargs",
    [
        {"interval_seconds": 0},
        {"interval_seconds": -60},
        {"beta_primary": -1.0},
        {"beta_secondary": -0.5},
        {"p_threshold": 1.0},
        {"p_threshold": -0.2},
        {"min_segment_length": 0},
        {"interval_seconds": float("nan")},
        {"interval_seconds": float("inf")},
        {"beta_primary": float("nan")},
        {"beta_secondary": float("inf")},
        {"interval_seconds": 1e303},  # finite, but not in microseconds
        {"interval_seconds": 10**20},  # an int whose microseconds pass int64
    ],
)
def test_config_numeric_validation(kwargs):
    base = dict(
        primary_specs=[parse_spec("control_flow:df")],
        secondary_specs=[parse_spec("data:event_count")],
        interval_seconds=3600,
    )
    base.update(kwargs)
    with pytest.raises(ConfigInvalid):
        FrameworkConfig(**base)


@pytest.mark.parametrize(
    "kwargs,field",
    [
        ({"normalization": "bogus"}, "normalization"),
        ({"beta_primary": -1.0}, "beta_primary"),
        ({"beta_secondary": -0.5}, "beta_secondary"),
    ],
)
def test_config_rejects_bad_pelt_settings_when_constructed(kwargs, field):
    with pytest.raises(ConfigInvalid) as err:
        FrameworkConfig(primary_specs=[parse_spec("control_flow:df")],
                        secondary_specs=[parse_spec("data:event_count")],
                        interval_seconds=3600, **kwargs)
    assert field in str(err.value)


@pytest.mark.parametrize(
    "kwargs,field",
    [
        ({"interval_seconds": np.int64(18446744073710)}, "interval duration"),  # wrapped
        ({"interval_seconds": "3600"}, "interval duration"),
        ({"beta_primary": "3"}, "beta_primary"),
        ({"beta_secondary": None}, "beta_secondary"),
        ({"p_threshold": "0.05"}, "p-value threshold"),
        ({"min_segment_length": 2.0}, "minimum segment length"),
        ({"min_segment_length": np.float64(2.5)}, "minimum segment length"),
        ({"interval_seconds": True}, "interval duration"),  # used to run 1-second intervals
        ({"beta_primary": True}, "beta_primary"),
        ({"beta_secondary": False}, "beta_secondary"),
        ({"p_threshold": False}, "p-value threshold"),
        ({"primary_specs": ["control_flow:df"]}, "primary"),  # a spec's text, not the spec
        ({"primary_specs": parse_spec("control_flow:df")}, "primary"),  # not in a list
    ],
)
def test_config_refuses_values_of_the_wrong_type_when_constructed(kwargs, field):
    with pytest.raises(ConfigInvalid) as err:
        FrameworkConfig(**{"primary_specs": [parse_spec("control_flow:df")],
                           "secondary_specs": [parse_spec("data:event_count")],
                           "interval_seconds": 3600, **kwargs})
    assert field in str(err.value)


@pytest.mark.parametrize(
    "perspective,name,params",
    [
        ("data", "agg", {"attr": "v", "aggregators": ("median",)}),
        ("data", "agg", {"attr": "v", "aggregators": ()}),
        ("data", "agg", {"attr": "v"}),
        ("performance", "overtime", {}),
        ("control_flow", "df", {"attr": "v"}),
        ("data", "dff", {}),
        ("bogus", "df", {}),
        ("data", "threshold", {"attr": "v", "bound": True}),  # used to store 1.0
        ("performance", "overtime", {"bound_seconds": False}),  # used to store 0.0
    ],
)
def test_hand_built_invalid_spec_fails_when_constructed(perspective, name, params):
    with pytest.raises(ConfigInvalid):
        ExtractorSpec(perspective, name, params)


@pytest.mark.parametrize("field,number", [("min_segment_length", 2),
                                          ("interval_seconds", 86400)])
def test_config_given_numpy_numbers_writes_the_report_of_python_numbers(field, number):
    log = generate(GeneratorConfig(days=30, drift_day=15))

    def report(value):
        cfg = FrameworkConfig(primary_specs=[parse_spec("control_flow:df")],
                              secondary_specs=[parse_spec("data:agg(age,avg,set_avg)")],
                              **{"interval_seconds": 86400, field: value})
        return run(log, cfg).to_json()

    assert report(np.int64(number)) == report(number)


def test_config_to_dict_renders_specs():
    cfg = _drift_config()
    d = cfg.to_dict()
    assert d["primary"] == {"perspective": "control_flow", "specs": ["control_flow:df"]}
    assert d["secondary"]["specs"] == ["data:agg(age,avg,set_avg)"]
    assert d["interval_seconds"] == 86400.0
    assert d["p_threshold"] == 1e-12


# ------------------------------------------------------------- drift linking


def _daily_log(days, second_activity):
    """One two-event case per day: register 08:00, then a varying successor."""
    base = datetime(2021, 3, 1, 8, 0)
    rows = []
    for d in range(days):
        rows.append((f"c{d}", "a", base + timedelta(days=d)))
        rows.append((f"c{d}", second_activity(d), base + timedelta(days=d, hours=1)))
    return build_log(rows)


def test_stationary_log_reports_nothing():
    log = _daily_log(12, lambda d: "b")
    cfg = FrameworkConfig(
        primary_specs=[parse_spec("control_flow:df")],
        secondary_specs=[parse_spec("data:event_count")],
        interval_seconds=86400.0,
    )
    report = run(log, cfg)
    assert report.primary_cps.indices == ()
    assert report.secondary_cps.indices == ()
    assert report.explanations == ()
    assert report.unexplained == ()


def test_stationary_generator_reports_nothing():
    log = generate(
        GeneratorConfig(seed=5, days=40, cases_per_day=15, drift_day=20,
                        pre_age_mean=45.0, post_age_mean=45.0)
    )
    report = run(log, _drift_config())
    assert report.primary_cps.indices == ()
    assert report.secondary_cps.indices == ()


def test_control_flow_drift_without_data_cause_is_unexplained():
    log = _daily_log(12, lambda d: "b" if d < 6 else "c")
    cfg = FrameworkConfig(
        primary_specs=[parse_spec("control_flow:df")],
        secondary_specs=[parse_spec("data:event_count")],  # constant: no cause
        interval_seconds=86400.0,
    )
    report = run(log, cfg)
    assert report.primary_cps.indices == (7,)
    assert report.secondary_cps.indices == ()
    assert report.explanations == ()
    assert report.unexplained == (7,)
    assert report.metadata["skipped_degenerate_pairs"] == 0


def test_secondary_drifts_after_or_too_far_before_the_primary_are_not_tested():
    # 15 days give 14 full intervals. The successor of "a" changes on day 8
    # (primary change point 9); one-event cases on days 3-10 raise the event
    # count (secondary change points 4 and 12). Change point 12 does not
    # precede 9, and lag 5 needs 3 * 5 + 3 = 18 intervals.
    base = datetime(2021, 3, 1, 8, 0)
    rows = []
    for d in range(15):
        rows += [(f"c{d}", "a", base + timedelta(days=d)),
                 (f"c{d}", "b" if d < 8 else "c", base + timedelta(days=d, hours=1))]
        if 3 <= d <= 10:
            rows.append((f"x{d}", "x", base + timedelta(days=d, hours=2)))
    log = build_log(rows)
    cfg = FrameworkConfig(
        primary_specs=[parse_spec("control_flow:df")],
        secondary_specs=[parse_spec("data:event_count")],
        interval_seconds=86400.0,
        beta_secondary=0.1,
    )
    report = run(log, cfg)
    assert len(report.intervals) == 14
    assert report.primary_cps.indices == (9,)
    assert report.secondary_cps.indices == (4, 12)
    assert report.explanations == ()
    assert report.unexplained == (9,)
    assert report.metadata["skipped_lag_pairs"] == 1


def test_each_primary_drift_is_explained_by_its_preceding_drifts_one_scan_per_lag(monkeypatch):
    # 60 days give 46 <= n < 93 intervals: lag 30 (10 -> 40) needs 93, lags 5 and 10 fit
    def fake_pelt(matrix, config):
        indices = (20, 40) if config.beta == 3.0 else (10, 30, 35, 40, 45)  # primary, secondary
        points = tuple(ChangePoint(i, matrix.intervals.intervals[i - 1]) for i in indices)
        return ChangePointSet(points, 0.0, 0)

    lags = []

    def fake_scan(primary, secondary, lag, p_threshold, /):  # perfbench's tracer reads args[2]
        lags.append(lag)
        pair = CausalPair(primary.labels[0], secondary.labels[0], 0.01)
        return PairScan(pairs=(pair,), tested=1, skipped_degenerate=0)

    monkeypatch.setattr("driftscope.pipeline.pelt", fake_pelt)
    monkeypatch.setattr("driftscope.pipeline.test_all_pairs", fake_scan)
    report = run(generate(GeneratorConfig(days=60, drift_day=30)), _drift_config())
    assert 46 <= len(report.intervals) < 93
    assert [(ex.primary.index, ex.secondary.index, ex.lag) for ex in report.explanations] == [
        (20, 10, 10), (40, 35, 5), (40, 30, 10)]  # drifts 40 and 45 are not tested against 40
    assert sorted(lags) == [5, 10]
    assert report.metadata["skipped_lag_pairs"] == 1
    assert report.unexplained == ()


def test_drifted_generator_links_age_to_notifications(drifted_report):
    report = drifted_report
    assert report.secondary_cps.indices == (130,)  # the configured drift day
    assert report.primary_cps.indices == (132,)
    assert report.unexplained == ()
    assert len(report.explanations) == 1
    ex = report.explanations[0]
    assert ex.secondary.index + ex.lag == ex.primary.index
    assert ex.lag >= 1
    assert all(p.p_value < 1e-12 for p in ex.pairs)
    links = {(str(p.primary_label), str(p.secondary_label)) for p in ex.pairs}
    assert ("control_flow:df:notify_email->submit_claim", "data:agg:age.avg") in links


def test_explanations_are_sorted_and_complete(drifted_report):
    report = drifted_report
    keys = [(ex.primary.index, ex.lag) for ex in report.explanations]
    assert keys == sorted(keys)
    explained = {ex.primary.index for ex in report.explanations}
    assert explained | set(report.unexplained) == set(report.primary_cps.indices)
    assert explained.isdisjoint(report.unexplained)
    for ex in report.explanations:
        ps = [p.p_value for p in ex.pairs]
        assert ps == sorted(ps)


def test_tighter_threshold_only_removes_pairs(drifted_log, drifted_report):
    loose = run(drifted_log, _drift_config(p_threshold=1e-6))
    tight = drifted_report  # 1e-12
    def pair_set(report):
        return {
            (ex.primary.index, ex.secondary.index, str(p.primary_label), str(p.secondary_label))
            for ex in report.explanations
            for p in ex.pairs
        }
    assert pair_set(tight) <= pair_set(loose)
    assert set(tight.unexplained) >= set(loose.unexplained)


def test_metadata_describes_the_run(drifted_log, drifted_report):
    meta = drifted_report.metadata
    assert meta["tool_version"] == driftscope.__version__
    assert meta["normalization"] == "max_abs"
    assert meta["cases"] == drifted_log.case_count
    assert meta["events"] == drifted_log.event_count
    assert meta["catalog"]["activities"] == len(drifted_log.activities)
    assert meta["catalog"]["resources"] == 5
    assert meta["dropped_tail_seconds"] == (
        drifted_report.intervals.dropped_tail_us / 1e6
    )
    assert meta["warnings"] == []
    assert meta["ingestion_notes"] == {}


def test_dropped_tail_events_are_counted():
    log = generate(GeneratorConfig(days=60, drift_day=30))
    report = run(log, _drift_config())
    first, last = log.span
    tail_start = first + (last - first) // timedelta(days=1) * timedelta(days=1)
    expected = sum(1 for e in log.iter_events() if e.timestamp >= tail_start)
    assert 0 < expected < log.event_count
    assert report.metadata["dropped_tail_events"] == expected


def test_short_log_propagates_span_error():
    log = _daily_log(1, lambda d: "b")
    with pytest.raises(SpanTooShort):
        run(log, _drift_config())


# ------------------------------------------------------------------- report


def test_report_dict_schema(drifted_report):
    d = drifted_report.to_dict()
    assert set(d) == {
        "config", "intervals", "primary_cps", "secondary_cps",
        "explanations", "unexplained", "metadata",
    }
    assert set(d["intervals"]) == {"duration_s", "count", "start_iso"}
    assert d["intervals"]["duration_s"] == 86400.0
    assert d["intervals"]["count"] == len(drifted_report.intervals)
    assert d["intervals"]["start_iso"] == drifted_report.intervals.origin.isoformat()
    for cp in d["primary_cps"] + d["secondary_cps"]:
        assert set(cp) == {"index", "interval_start_iso"}
        datetime.fromisoformat(cp["interval_start_iso"])
    for ex in d["explanations"]:
        assert set(ex) == {"primary_index", "secondary_index", "lag", "pairs"}
        for pair in ex["pairs"]:
            assert set(pair) == {"primary_label", "secondary_label", "p_value"}
    assert d["unexplained"] == []


def test_report_json_is_canonical(drifted_report):
    text = drifted_report.to_json()
    assert text.endswith("\n")
    loaded = json.loads(text)
    assert json.dumps(loaded, indent=2, sort_keys=True) + "\n" == text


def test_identical_runs_identical_json(drifted_log, drifted_report):
    again = run(drifted_log, _drift_config())
    assert again.to_json() == drifted_report.to_json()


def test_change_point_timestamps_line_up(drifted_report):
    report = drifted_report
    d = report.to_dict()
    for entry, cp in zip(d["primary_cps"], report.primary_cps):
        expected = report.intervals.start_datetime(cp.index - 1)
        assert entry["interval_start_iso"] == expected.isoformat()


def test_run_builds_the_event_table_once_for_both_roles(monkeypatch):
    import driftscope.model
    import driftscope.pipeline

    tables, series = [], []
    real_table = driftscope.model.EventTable
    real_series = driftscope.pipeline.build_time_series

    class CountingTable(real_table):
        def __init__(self, log):
            tables.append(log)
            super().__init__(log)

    def counting_series(*args, **kwargs):
        series.append(args)
        return real_series(*args, **kwargs)

    monkeypatch.setattr(driftscope.model, "EventTable", CountingTable)
    monkeypatch.setattr(driftscope.pipeline, "build_time_series", counting_series)
    log = generate(GeneratorConfig(days=30, cases_per_day=5, drift_day=15))
    run(log, _drift_config())
    assert len(series) == 2  # one matrix per role, through the module attribute
    assert tables == [log]


def test_hourly_log_keeps_its_exact_pelt_search():
    # the hourly-flat benchmark's log, built in memory: about 980 mostly empty
    # hours and no primary drift, so unpruned PELT does nearly all the work;
    # the counts and the bits of each total pin the search, not just its result
    log = generate(GeneratorConfig(seed=1, days=40, cases_per_day=20, drift_day=20))
    report = run(log, FrameworkConfig(primary_specs=[parse_spec("control_flow:df")],
                                      secondary_specs=[parse_spec("data:agg(age)")],
                                      interval_seconds=3600))
    primary, secondary = report.primary_cps, report.secondary_cps
    assert primary.evaluations + secondary.evaluations == 487_786
    assert (len(primary), len(secondary)) == (0, 79)
    assert primary.total_cost == 31.233765495280274
    assert secondary.total_cost == 123.42144387954424
