"""Lag-restricted predictability tests and the pairwise scan.

The frozen reference numbers below were produced by an independent OLS +
F-distribution implementation on the LCG fixture series before this
package's version existed; they pin both the regression algebra and the
tail evaluation.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftscope.causality import (
    CausalPair,
    GrangerResult,
    PairScan,
    granger_test,
    lag_between,
    min_series_length,
)
from driftscope.causality import test_all_pairs as scan_pairs  # avoid collection
from driftscope.changepoint import ChangePoint
from driftscope.errors import (
    ConfigInvalid,
    DegenerateSeries,
    IntervalMismatch,
    NonPrecedingDrift,
)
from driftscope.timeseries import IntervalSequence, TimeSeriesMatrix

from conftest import fixture_series, lcg_normals

F_REF_LAG1 = 17009.89356010187
P_REF_LAG1 = 2.0065357114402594e-192
F_REF_LAG3 = 5826.914317883164
P_REF_LAG3 = 1.0791641306267805e-186


# ------------------------------------------------------------- frozen pairs


def test_frozen_fixture_lag1():
    y, x = fixture_series(200)
    res = granger_test(y, x, 1)
    assert res.f_statistic == pytest.approx(F_REF_LAG1, rel=1e-9)
    assert res.p_value == pytest.approx(P_REF_LAG1, rel=1e-6)
    assert abs(res.p_value - P_REF_LAG1) < 1e-6
    assert res.effective_sample_size == 199
    assert res.dof_num == 1
    assert res.dof_den == 196
    assert res.lag == 1


def test_frozen_fixture_lag3():
    y, x = fixture_series(200)
    res = granger_test(y, x, 3)
    assert res.f_statistic == pytest.approx(F_REF_LAG3, rel=1e-9)
    assert res.p_value == pytest.approx(P_REF_LAG3, rel=1e-6)
    assert res.dof_num == 3
    assert res.dof_den == 190


def test_reverse_direction_is_not_predictive():
    y, x = fixture_series(200)
    res = granger_test(x, y, 1)  # the cause is iid noise: nothing predicts it
    assert res.p_value > 0.2


def test_affine_rescaling_leaves_f_unchanged():
    y, x = fixture_series(200)
    base = granger_test(y, x, 1)
    moved = granger_test(10.0 * np.asarray(y) + 5.0, 2.0 * np.asarray(x) - 3.0, 1)
    assert moved.f_statistic == pytest.approx(base.f_statistic, rel=1e-9)
    assert moved.p_value == pytest.approx(base.p_value, rel=1e-6)


# --------------------------------------------------------------- edge cases


def test_constant_effect_is_degenerate():
    noise = lcg_normals(101, 50)
    with pytest.raises(DegenerateSeries):
        granger_test([4.0] * 50, noise, 1)


def test_constant_cause_is_degenerate():
    noise = lcg_normals(102, 50)
    with pytest.raises(DegenerateSeries):
        granger_test(noise, [4.0] * 50, 1)


def test_identical_series_are_collinear():
    noise = lcg_normals(103, 50)
    with pytest.raises(DegenerateSeries):
        granger_test(noise, noise, 1)


def test_quasi_flat_effect_yields_no_evidence():
    # constant after the first observation: both models fit exactly, so the
    # statistic must be 0 rather than a ratio of rounding residue
    flat = np.array([0.0] + [20.0] * 99)
    noise = np.array(lcg_normals(4242, 100))
    res = granger_test(flat, noise, 1)
    assert res.f_statistic == 0.0
    assert res.p_value == 1.0


def test_exactly_lagged_copy_is_infinite_evidence():
    noise = np.array(lcg_normals(4242, 100))
    copy = np.zeros(100)
    copy[1:] = noise[:-1]
    res = granger_test(copy, noise, 1)
    assert res.f_statistic == float("inf")
    assert res.p_value == 0.0


def test_input_validation():
    noise = lcg_normals(7, 40)
    with pytest.raises(ValueError):
        granger_test(noise, noise[:-1], 1)  # length mismatch
    with pytest.raises(ValueError):
        granger_test(noise, [float("nan")] * 40, 1)
    with pytest.raises(ValueError):
        granger_test(noise, noise, 0)
    with pytest.raises(ValueError):
        granger_test(noise[:5], noise[:5], 1)  # below min_series_length


def test_short_series_threshold_is_sharp():
    k = 2
    n = min_series_length(k)
    y = lcg_normals(11, n)
    x = lcg_normals(12, n)
    granger_test(y, x, k)  # exactly at the minimum: runs
    with pytest.raises(ValueError):
        granger_test(y[:-1], x[:-1], k)


def test_min_series_length_values():
    assert min_series_length(1) == 6
    assert min_series_length(2) == 9
    assert min_series_length(6) == 21


# ---------------------------------------------------------------------- lag


def _cp(seq: IntervalSequence, index: int) -> ChangePoint:
    return ChangePoint(index=index, interval=seq.intervals[index - 1])


def test_lag_between_adjacent_and_distant():
    seq = IntervalSequence.regular(140)
    assert lag_between(seq, _cp(seq, 132), _cp(seq, 133)) == 1
    assert lag_between(seq, _cp(seq, 22), _cp(seq, 28)) == 6


def test_lag_between_requires_strict_precedence():
    seq = IntervalSequence.regular(140)
    with pytest.raises(NonPrecedingDrift):
        lag_between(seq, _cp(seq, 133), _cp(seq, 132))
    with pytest.raises(NonPrecedingDrift):
        lag_between(seq, _cp(seq, 50), _cp(seq, 50))


def test_lag_between_checks_index_range():
    seq = IntervalSequence.regular(10)
    inside = _cp(seq, 5)
    outside = ChangePoint(index=11, interval=seq.intervals[9])
    with pytest.raises(ValueError):
        lag_between(seq, inside, outside)
    with pytest.raises(ValueError):
        lag_between(seq, ChangePoint(index=0, interval=seq.intervals[0]), inside)


# ------------------------------------------------------------ pairwise scan


def _pair_matrices(n=80):
    intervals = IntervalSequence.regular(n)
    cause = np.array(lcg_normals(501, n))
    eps = np.array(lcg_normals(502, n))
    indep = np.array(lcg_normals(503, n))
    effect = np.zeros(n)
    effect[1:] = 0.9 * cause[:-1] + 0.1 * eps[1:]
    primary = TimeSeriesMatrix.from_rows(
        [effect, indep], intervals=intervals, perspective="control_flow", keys=["effect", "indep"]
    )
    secondary = TimeSeriesMatrix.from_rows(
        [cause, np.full(n, 3.0)], intervals=intervals, keys=["cause", "flat"]
    )
    return primary, secondary


def test_all_pairs_finds_the_planted_link():
    primary, secondary = _pair_matrices()
    scan = scan_pairs(primary, secondary, lag=1, p_threshold=1e-6)
    assert isinstance(scan, PairScan)
    assert scan.tested == 4
    assert scan.skipped_degenerate == 2  # the flat secondary row, twice
    found = {(str(p.primary_label), str(p.secondary_label)) for p in scan.pairs}
    assert ("control_flow:series:effect", "data:series:cause") in found
    assert ("control_flow:series:indep", "data:series:cause") not in found
    ps = [p.p_value for p in scan.pairs]
    assert ps == sorted(ps)
    assert all(p.p_value < 1e-6 for p in scan.pairs)


def test_all_pairs_zero_threshold_reports_nothing():
    primary, secondary = _pair_matrices()
    scan = scan_pairs(primary, secondary, lag=1, p_threshold=0.0)
    assert scan.pairs == ()
    assert scan.tested == 4


def test_all_pairs_threshold_validation():
    primary, secondary = _pair_matrices()
    for bad in (1.0, 1.5, -0.01):
        with pytest.raises(ConfigInvalid):
            scan_pairs(primary, secondary, lag=1, p_threshold=bad)


def test_all_pairs_threshold_must_be_a_number():
    primary, secondary = _pair_matrices()
    for bad in ("0.05", None):
        with pytest.raises(ConfigInvalid):
            scan_pairs(primary, secondary, lag=1, p_threshold=bad)


def test_a_lag_that_is_not_an_integer_is_refused():
    primary, secondary = _pair_matrices()
    effect, cause = primary.values[0], secondary.values[0]
    for bad in (2.9, 2.7, 2.0, "2", True):  # 2.9 and 2.7 used to run at lag 2
        with pytest.raises(ValueError, match="lag must be an integer"):
            granger_test(effect, cause, bad)
        with pytest.raises(ValueError, match="lag must be an integer"):
            scan_pairs(primary, secondary, lag=bad, p_threshold=0.05)
    result = granger_test(effect, cause, np.int64(2))
    assert result == granger_test(effect, cause, 2)
    assert type(result.lag) is int
    assert scan_pairs(primary, secondary, np.int64(2), 0.05) == scan_pairs(
        primary, secondary, 2, 0.05)


def test_all_pairs_rejects_mismatched_intervals():
    primary, _ = _pair_matrices()
    other = TimeSeriesMatrix.from_rows(
        np.zeros((1, 80)), intervals=IntervalSequence.regular(80, duration_seconds=3600)
    )
    with pytest.raises(IntervalMismatch):
        scan_pairs(primary, other, lag=1, p_threshold=0.05)


def test_all_pairs_threshold_monotone_in_pairs():
    primary, secondary = _pair_matrices()
    loose = scan_pairs(primary, secondary, lag=1, p_threshold=0.5)
    tight = scan_pairs(primary, secondary, lag=1, p_threshold=1e-12)
    loose_keys = {(str(p.primary_label), str(p.secondary_label)) for p in loose.pairs}
    tight_keys = {(str(p.primary_label), str(p.secondary_label)) for p in tight.pairs}
    assert tight_keys <= loose_keys


# ---------------------------------------------------------------- sampling


def test_null_rejection_rate_is_plausible():
    rng = np.random.default_rng(20230301)
    trials, hits = 150, 0
    for _ in range(trials):
        y = rng.normal(size=120)
        x = rng.normal(size=120)
        if granger_test(y, x, 1).p_value < 0.05:
            hits += 1
    assert 0 <= hits / trials <= 0.12


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 4))
def test_property_result_invariants(seed, lag):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(min_series_length(lag), 80))
    y = rng.normal(size=n)
    x = rng.normal(size=n)
    res = granger_test(y, x, lag)
    assert isinstance(res, GrangerResult)
    assert res.f_statistic >= 0.0
    assert 0.0 <= res.p_value <= 1.0
    assert res.effective_sample_size == n - lag
    assert res.dof_num == lag
    assert res.dof_den == (n - lag) - (2 * lag + 1)
