"""Release checklist: one test per release criterion.

A conftest hook appends "[ACCEPTANCE] criterion N: <verdict>" lines to the
terminal summary for every criterion collected here.

Every check here restates a guarantee the package advertises (exact
segmentation, calibrated causality tests, reproducible reports) and runs it
at full scale with a wall-clock budget.  Detailed edge cases live in the
per-module test files; this file is the go/no-go gate.
"""

import json
import os
import time
from datetime import datetime, timedelta

import numpy as np
import pytest

from driftscope.causality import granger_test, lag_between
from driftscope.changepoint import ChangePoint, PeltConfig, normalize, pelt
from driftscope.cli import main as cli_main
from driftscope.ingest import parse_xes
from driftscope.pipeline import FrameworkConfig, run
from driftscope.synthetic import GeneratorConfig, generate
from driftscope.timeseries import (
    IntervalSequence,
    TimeSeriesMatrix,
    build_intervals,
    build_time_series,
    parse_spec,
)

from conftest import brute_force_optimal, build_log, fixture_series

# Frozen from an independent OLS/F reference implementation (see the
# causality test module for the matching fixture at both tested lags).
P_REFERENCE_LAG1 = 2.0065357114402594e-192

BPI17_ENV = "DRIFTSCOPE_BPI17_XES"


def _cp(seq: IntervalSequence, index: int) -> ChangePoint:
    return ChangePoint(index=index, interval=seq.intervals[index - 1])


def test_criterion_1_lag_between_drift_indices():
    seq = IntervalSequence.regular(150)
    start = time.perf_counter()
    short = lag_between(seq, _cp(seq, 132), _cp(seq, 133))
    long = lag_between(seq, _cp(seq, 22), _cp(seq, 28))
    elapsed = time.perf_counter() - start
    assert short == 1
    assert long == 6
    assert elapsed < 1e-3


def test_criterion_2_pelt_equals_exhaustive_optimum():
    rng = np.random.default_rng(90125)
    start = time.perf_counter()
    for _ in range(200):
        msl = int(rng.integers(1, 4))
        n = int(rng.integers(max(2 * msl, 6), 51))
        m = int(rng.integers(1, 7))
        values = rng.normal(0.0, 1.0, size=(m, n))
        for _ in range(int(rng.integers(0, 4))):
            values[int(rng.integers(0, m)), int(rng.integers(1, n)):] += rng.normal(0.0, 3.0)
        beta = float(rng.uniform(0.0, 12.0))
        matrix = TimeSeriesMatrix.from_rows(values)
        fast = pelt(matrix, PeltConfig(beta=beta, min_segment_length=msl, normalize="none"))
        slow = brute_force_optimal(matrix, beta, min_segment_length=msl)
        assert fast.total_cost == slow.total_cost  # exact, shared segment pricing
        assert fast.indices == slow.indices
    assert time.perf_counter() - start < 30.0


def _ks_against_uniform(samples) -> float:
    ordered = sorted(samples)
    n = len(ordered)
    return max(
        max((i + 1) / n - p, p - i / n) for i, p in enumerate(ordered)
    )


def test_criterion_3_granger_power_and_null_calibration():
    start = time.perf_counter()

    y, x = fixture_series(200)
    planted = granger_test(y, x, lag=1)
    assert planted.p_value < 1e-6
    assert abs(planted.p_value - P_REFERENCE_LAG1) < 1e-6

    rng = np.random.default_rng(20230301)
    null_ps = []
    for _ in range(500):
        effect = rng.normal(size=120)
        cause = rng.normal(size=120)
        null_ps.append(granger_test(effect, cause, lag=1).p_value)
    rejection = sum(p < 0.05 for p in null_ps) / len(null_ps)
    assert 0.02 <= rejection <= 0.08
    assert _ks_against_uniform(null_ps) < 0.1

    assert time.perf_counter() - start < 60.0


def test_criterion_4_synthetic_drift_is_found_and_explained():
    start = time.perf_counter()
    log = generate(GeneratorConfig())  # days=260, drift at day 130
    config = FrameworkConfig(
        primary_specs=[parse_spec("control_flow:df")],
        secondary_specs=[parse_spec("data:agg(age,avg)"), parse_spec("data:agg(age,set_avg)")],
        interval_seconds=86400.0,
        beta_primary=3.0,
        beta_secondary=1.5,
        p_threshold=1e-12,
        normalization="max_abs",
    )
    report = run(log, config)

    secondary = [cp.index for cp in report.secondary_cps.points]
    primary = [cp.index for cp in report.primary_cps.points]
    near_drift = [i for i in secondary if abs(i - 130) <= 3]
    assert near_drift, f"no data-perspective drift near day 130: {secondary}"
    assert any(p > s for p in primary for s in near_drift), (
        f"no later control-flow drift: primary={primary} secondary={near_drift}"
    )

    def age_aggregate(label) -> bool:
        return label.extractor == "agg" and label.key.startswith("age")

    def email_df(label) -> bool:
        return label.extractor == "df" and "notify_email" in label.key.split("->")

    explained = any(
        any(age_aggregate(pair.secondary_label) for pair in exp.pairs)
        and any(email_df(pair.primary_label) for pair in exp.pairs)
        for exp in report.explanations
    )
    assert explained, "no explanation links customer age to email notifications"

    assert time.perf_counter() - start < 60.0


def test_criterion_5_claims_desk_single_interval_features(claims_log):
    start = time.perf_counter()
    seq = IntervalSequence.regular(1, 7200.0, origin=claims_log.origin)
    matrix = build_time_series(
        claims_log, seq, [parse_spec("control_flow:df"), parse_spec("resource:workload")]
    )
    assert matrix.row("control_flow:df:register->submit")[0] == 1.0
    assert matrix.row("control_flow:df:submit->reply")[0] == 1.0
    assert matrix.row("resource:workload:Peter")[0] == 2.0
    assert matrix.row("resource:active_resources")[0] == 3.0
    assert time.perf_counter() - start < 1.0


def _random_log(rng: np.random.Generator):
    base = datetime(2021, 6, 15)
    rows = [("anchor", "a0", base), ("anchor", "a1", base + timedelta(minutes=50))]
    for c in range(int(rng.integers(1, 5))):
        minute = 0
        for _ in range(int(rng.integers(1, 7))):
            minute += int(rng.integers(0, 15))
            resource = (None, "r1", "r2")[int(rng.integers(0, 3))]
            rows.append(
                (f"c{c}", f"a{int(rng.integers(0, 3))}",
                 base + timedelta(minutes=minute), resource)
            )
    return build_log(rows)


def test_criterion_6_invariants_hold_across_seeded_generations():
    start = time.perf_counter()

    # interval partition: contiguous tiling, every in-span event in one slot
    rng = np.random.default_rng(601)
    for _ in range(100):
        log = _random_log(rng)
        seq = build_intervals(log, 600.0, min_intervals=1)
        assert seq.intervals[0].start_us == 0
        for left, right in zip(seq.intervals, seq.intervals[1:]):
            assert left.end_us == right.start_us
        span_us = log.offset_us(log.span[1])
        assert len(seq) == span_us // seq.duration_us
        assert 0 <= seq.dropped_tail_us < seq.duration_us
        for event in log.iter_events():
            offset = log.offset_us(event.timestamp)
            idx = seq.index_of_us(offset)
            if offset < len(seq) * seq.duration_us:
                assert seq.intervals[idx].contains_us(offset)
            else:
                assert idx is None

    # conservation: bucketed counts add back up to whole-log tallies
    rng = np.random.default_rng(602)
    for _ in range(100):
        log = _random_log(rng)
        seq = build_intervals(log, 600.0, min_intervals=1)
        specs = [parse_spec("data:event_count"), parse_spec("resource:workload")]
        matrix = build_time_series(log, seq, specs)
        covered = len(seq) * seq.duration_us
        in_span = [e for e in log.iter_events() if log.offset_us(e.timestamp) < covered]
        assert matrix.row("data:event_count").sum() == len(in_span)
        per_resource = np.zeros(len(seq))
        for r in log.resources:
            row = matrix.row(f"resource:workload:{r}")
            assert row.sum() == sum(1 for e in in_span if e.resource == r)
            per_resource = per_resource + row
        assert np.array_equal(per_resource, matrix.row("resource:total_workload"))

    # normalization: row scale contracts hold and max_abs is idempotent
    rng = np.random.default_rng(603)
    for _ in range(100):
        values = rng.normal(0.0, float(rng.uniform(0.1, 50.0)), size=(3, 24))
        if rng.uniform() < 0.3:
            values[1] = 0.0
        matrix = TimeSeriesMatrix.from_rows(values)
        scaled = normalize(matrix, "max_abs")
        for row in scaled.values:
            peak = np.max(np.abs(row))
            assert peak == 1.0 or not row.any()
        again = normalize(scaled, "max_abs")
        assert np.array_equal(again.values, scaled.values)
        zs = normalize(matrix, "zscore")
        for row in zs.values:
            if row.any():
                assert abs(row.mean()) < 1e-9
                assert abs(row.std() - 1.0) < 1e-9

    # penalty monotonicity: larger beta never yields more change points
    rng = np.random.default_rng(604)
    for _ in range(100):
        n = int(rng.integers(8, 25))
        values = rng.normal(0.0, 1.0, size=(2, n))
        values[0, n // 2:] += rng.normal(0.0, 4.0)
        matrix = TimeSeriesMatrix.from_rows(values)
        counts = [
            len(pelt(matrix, PeltConfig(beta=beta, normalize="none")).points)
            for beta in (0.0, 1.0, 3.0, 8.0, 20.0)
        ]
        assert counts == sorted(counts, reverse=True)

    assert time.perf_counter() - start < 90.0


def test_criterion_7_analyze_is_byte_deterministic(tmp_path):
    log_path = tmp_path / "insurance.csv"
    mapping_path = tmp_path / "mapping.json"
    rc = cli_main(["generate", "--out-csv", str(log_path),
                   "--write-mapping", str(mapping_path)])
    assert rc == 0

    shared = ["analyze", "--log", str(log_path), "--mapping", str(mapping_path),
              "--interval", "1d", "--primary", "control_flow:df",
              "--secondary", "data:agg(age,avg)", "--p-value", "1e-12", "--out"]
    start = time.perf_counter()
    assert cli_main(shared + [str(tmp_path / "first.json")]) == 0
    assert cli_main(shared + [str(tmp_path / "second.json")]) == 0
    elapsed = time.perf_counter() - start

    first = (tmp_path / "first.json").read_bytes()
    second = (tmp_path / "second.json").read_bytes()
    assert first == second
    assert json.loads(first)  # non-trivial payload, not two empty files
    assert elapsed < 10.0


@pytest.mark.skipif(
    BPI17_ENV not in os.environ,
    reason=f"set {BPI17_ENV} to the BPI Challenge 2017 XES file to run this recipe",
)
def test_criterion_8_bpi_challenge_2017_recipe():
    log = parse_xes(os.environ[BPI17_ENV])
    config = FrameworkConfig(
        primary_specs=[parse_spec("performance:service_time")],
        secondary_specs=[parse_spec("resource:workload")],
        interval_seconds=7 * 86400.0,
        beta_primary=3.0,
        beta_secondary=1.5,
        p_threshold=0.015,
    )
    report = run(log, config)
    primary = [cp.index for cp in report.primary_cps.points]
    secondary = [cp.index for cp in report.secondary_cps.points]
    assert any(abs(i - 28) <= 2 for i in primary), f"service-time CPs: {primary}"
    assert any(abs(i - 22) <= 2 for i in secondary), f"workload CPs: {secondary}"
