"""Synthetic claim-log generator: determinism, timing layout, drift shape."""

import hashlib
import math
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftscope.cli import GENERATOR_MAPPING
from driftscope.errors import ConfigInvalid
from driftscope.ingest import write_csv, write_xes
from driftscope.synthetic import (
    CHANNELS,
    GeneratorConfig,
    _hours_to_us,
    generate,
)
from driftscope.timeseries import build_intervals

from conftest import available_channels

SMALL = GeneratorConfig(seed=7, days=20, cases_per_day=8, drift_day=10)


def test_same_config_same_log_including_ids():
    a = generate(SMALL)
    b = generate(SMALL)
    assert list(a.cases) == list(b.cases)
    for ca, cb in zip(a.iter_events(), b.iter_events()):
        assert (ca.event_id, ca.case_id, ca.activity, ca.timestamp, ca.resource, ca.attrs) == (
            cb.event_id, cb.case_id, cb.activity, cb.timestamp, cb.resource, cb.attrs
        )


def test_different_seed_changes_the_log():
    a = generate(SMALL)
    b = generate(GeneratorConfig(seed=8, days=20, cases_per_day=8, drift_day=10))
    assert any(
        ea.timestamp != eb.timestamp for ea, eb in zip(a.iter_events(), b.iter_events())
    )


def test_case_and_event_counts():
    log = generate(SMALL)
    assert log.case_count == 20 * 8
    assert log.event_count == 20 * 8 * 5
    assert all(len(c.events) == 5 for c in log.cases.values())


def test_case_structure_and_order():
    log = generate(SMALL)
    for case in log.cases.values():
        acts = [e.activity for e in case.events]
        assert acts[0] == "register"
        assert acts[1] in CHANNELS
        assert acts[2] == "submit_claim"
        assert acts[3] == "decide"
        assert acts[4] in ("pay", "reject")
        times = [e.timestamp for e in case.events]
        assert times == sorted(times)
        assert "age" in case.events[0].attrs


def test_first_register_anchors_the_grid():
    log = generate(SMALL)
    assert log.origin == SMALL.start + timedelta(hours=8)
    assert log.cases["c0001_001"].events[0].timestamp == log.origin


def test_register_hours_inside_morning_window():
    log = generate(SMALL)
    for case in log.cases.values():
        reg = case.events[0].timestamp
        assert 8.0 <= reg.hour + reg.minute / 60.0 < 10.0


def test_day_d_registers_fall_in_interval_d():
    log = generate(SMALL)
    seq = build_intervals(log, 86400)
    for case in log.cases.values():
        day = int(case.case_id[1:5])
        reg_idx = seq.index_of_us(log.offset_us(case.events[0].timestamp))
        assert reg_idx == day - 1  # 0-based sequence, 1-based days
        for tail in case.events[1:]:
            idx = seq.index_of_us(log.offset_us(tail.timestamp))
            if idx is not None:  # the last days spill past the covered span
                assert idx == day


def test_channel_gates_respect_age():
    cfg = SMALL
    log = generate(cfg)
    for case in log.cases.values():
        age = case.events[0].attrs["age"]
        channel = case.events[1].activity
        assert channel in available_channels(age, cfg)


def test_available_channels_boundaries():
    cfg = GeneratorConfig(email_max_age=40, phone_max_age=60)
    assert available_channels(30, cfg) == ["notify_post", "notify_phone", "notify_email"]
    assert available_channels(40, cfg) == ["notify_post", "notify_phone"]  # bound excluded
    assert available_channels(59.9, cfg) == ["notify_post", "notify_phone"]
    assert available_channels(60, cfg) == ["notify_post"]
    assert available_channels(95, cfg) == ["notify_post"]


def test_ages_are_rounded_and_in_range():
    log = generate(SMALL)
    ages = [c.events[0].attrs["age"] for c in log.cases.values()]
    assert all(a == float(round(a)) for a in ages)
    assert all(18.0 <= a <= 95.0 for a in ages)


def test_age_mean_outside_the_range_clamps_to_its_nearer_end():
    # a hundred draws 0.5 around 200 or -50 never land in 18..95, so each age falls back
    cfg = GeneratorConfig(days=2, cases_per_day=3, drift_day=2, pre_age_mean=200.0,
                          post_age_mean=-50.0, age_stddev=0.5)
    ages = {c.case_id: c.events[0].attrs["age"] for c in generate(cfg).cases.values()}
    assert ages == {f"c000{day}_00{n}": age for day, age in ((1, 95.0), (2, 18.0))
                    for n in (1, 2, 3)}


def test_age_means_shift_at_drift_day():
    cfg = GeneratorConfig(seed=3, days=60, cases_per_day=30, drift_day=30)
    log = generate(cfg)
    pre, post = [], []
    for case in log.cases.values():
        day = int(case.case_id[1:5])
        (pre if day < cfg.drift_day else post).append(case.events[0].attrs["age"])
    n_pre, n_post = len(pre), len(post)
    mean_pre = sum(pre) / n_pre
    mean_post = sum(post) / n_post
    # sample means within 3 standard errors of the configured means
    assert abs(mean_pre - cfg.pre_age_mean) < 3 * cfg.age_stddev / math.sqrt(n_pre)
    assert abs(mean_post - cfg.post_age_mean) < 3 * cfg.age_stddev / math.sqrt(n_post)


def test_drift_increases_email_share():
    cfg = GeneratorConfig(seed=3, days=60, cases_per_day=30, drift_day=30)
    log = generate(cfg)
    pre_email = post_email = 0
    for case in log.cases.values():
        day = int(case.case_id[1:5])
        if case.events[1].activity == "notify_email":
            if day < cfg.drift_day:
                pre_email += 1
            else:
                post_email += 1
    n = cfg.cases_per_day * (cfg.drift_day - 1)
    m = cfg.cases_per_day * (cfg.days - cfg.drift_day + 1)
    assert post_email / m > 2 * (pre_email / n)


def test_resources_cycle_through_the_pool():
    log = generate(SMALL)
    seen = [e.resource for e in log.iter_events()]
    assert set(seen) == set(SMALL.resource_pool)
    assert log.resources == tuple(sorted(SMALL.resource_pool))


def test_a_pool_longer_than_the_log_names_only_the_resources_used():
    log = generate(GeneratorConfig(days=1, cases_per_day=1, drift_day=1,
                                   resource_pool=tuple("hgfedcba")))
    assert log.resources == tuple("defgh")


def test_outcome_mix_follows_pay_probability():
    cfg = GeneratorConfig(seed=11, days=30, cases_per_day=20, drift_day=15)
    log = generate(cfg)
    outcomes = [c.events[4].activity for c in log.cases.values()]
    share = outcomes.count("pay") / len(outcomes)
    sigma = math.sqrt(0.8 * 0.2 / len(outcomes))
    assert abs(share - cfg.pay_probability) < 4 * sigma


def test_always_pay_and_never_pay():
    paid = generate(GeneratorConfig(seed=1, days=3, cases_per_day=4, drift_day=2, pay_probability=1.0))
    assert all(c.events[4].activity == "pay" for c in paid.cases.values())
    rejected = generate(GeneratorConfig(seed=1, days=3, cases_per_day=4, drift_day=2, pay_probability=0.0))
    assert all(c.events[4].activity == "reject" for c in rejected.cases.values())


@pytest.mark.parametrize(
    "kwargs",
    [
        {"days": 0},
        {"cases_per_day": 0},
        {"drift_day": 0},
        {"days": 10, "drift_day": 11},
        {"age_stddev": 0.0},
        {"email_max_age": 0.0},
        {"email_max_age": 70.0, "phone_max_age": 60.0},
        {"pay_probability": 1.5},
        {"pay_probability": -0.1},
        {"resource_pool": ()},
        {"days": 2.5, "drift_day": 1},
        {"cases_per_day": 3.0},
        {"drift_day": 4.0},
        {"seed": 1.5},
        {"seed": "1"},
        {"days": True, "drift_day": 1},
        {"seed": False},
        {"start": datetime(9999, 12, 1), "days": 60, "cases_per_day": 1, "drift_day": 1},
        {"start": datetime(1, 1, 1, tzinfo=timezone(timedelta(hours=1)))},
        {"pre_age_mean": math.nan},
        {"post_age_mean": math.inf},
        {"pre_age_mean": None},
        {"age_stddev": math.nan},  # used to write a log of clamped mean ages
        {"age_stddev": "10"},
        {"email_max_age": True},
        {"phone_max_age": math.inf},
        {"pay_probability": True},
        {"pay_probability": "0.5"},
        {"resource_pool": ("a", 1)},  # used to end in a TypeError inside generate
        {"resource_pool": ("a", "")},  # the empty name was lost in the CSV round trip
        {"resource_pool": "clerk"},
        {"start": "2021-01-04"},  # used to raise AttributeError
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ConfigInvalid):
        GeneratorConfig(**kwargs)


def test_the_widest_case_may_end_at_the_last_instant_datetime_holds():
    # a case reaches at most 10 + 36 + 2 + 2 + 1 = 51 hours past its day's start
    last = datetime.max - timedelta(days=2, hours=51)
    log = generate(GeneratorConfig(start=last, days=3, cases_per_day=4, drift_day=2))
    assert log.event_count == 3 * 4 * 5
    with pytest.raises(ConfigInvalid):
        GeneratorConfig(start=last + timedelta(microseconds=1), days=3, cases_per_day=4,
                        drift_day=2)


def _timedelta_us(hours: float) -> int:
    return timedelta(hours=hours) // timedelta(microseconds=1)


@settings(max_examples=500, deadline=None)
@given(st.lists(st.floats(0.0, 48.0, exclude_max=True), min_size=1, max_size=50))
def test_hours_become_the_microseconds_timedelta_gives(hours):
    assert _hours_to_us(np.array(hours)).tolist() == [_timedelta_us(h) for h in hours]


@settings(max_examples=500, deadline=None)
@given(st.integers(0, 48 * 3_600_000_000 - 1))
def test_exact_halfway_microseconds_round_half_to_even(k):
    hours = (k + 0.5) / 3.6e9
    assert _hours_to_us(np.array([hours])).tolist() == [_timedelta_us(hours)]


def test_halfway_fractions_are_met_and_round_to_even():
    hours = [(k + 0.5) / 3.6e9 for k in range(0, 48 * 3_600_000_000, 4_999_999)]
    halfway = [h for h in hours if math.modf(math.modf(h)[0] * 3.6e9)[0] == 0.5]
    assert len(halfway) > 1000
    got = _hours_to_us(np.array(halfway)).tolist()
    assert got == [_timedelta_us(h) for h in halfway]
    assert all(us % 2 == 0 for us in got)  # each ends in .5, so rounds to the even side


# sha256 of what the writers produce for these configurations, taken from the
# generator that added ``timedelta``s to ``datetime``s event by event
@pytest.mark.parametrize("start,csv_digest,xes_digest", [
    (GeneratorConfig.start,
     "1d066bf79953fed4cd32c498708bd431e363ffa77fe755caca43937d0d3484ed",
     "4cae48ea1a3576661d4e9f3c3010bacac085369141552c0476c2105881d01e1c"),
    (datetime(2021, 1, 4, 6, 30, 15, 250001),
     "4bc365399618c7a796138be9d6dfe61481aeb04ba3a64c97df1c3050798071ae",
     "748ae7af68533a9f784e27f5360f22b689e87b3c0b9fc855e2def0c2d3361649"),
], ids=["default-start", "start-with-microseconds"])
def test_written_generated_logs_are_pinned(tmp_path, start, csv_digest, xes_digest):
    log = generate(GeneratorConfig(seed=5, days=8, cases_per_day=3, drift_day=4, start=start))
    write_csv(log, GENERATOR_MAPPING, tmp_path / "log.csv")
    write_xes(log, tmp_path / "log.xes")
    assert hashlib.sha256((tmp_path / "log.csv").read_bytes()).hexdigest() == csv_digest
    assert hashlib.sha256((tmp_path / "log.xes").read_bytes()).hexdigest() == xes_digest
