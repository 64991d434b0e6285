"""Segmentation search checks: costs, tie-breaking, pruning soundness.

The search is compared against two independent oracles: an unpruned
quadratic dynamic program and a full enumeration of boundary subsets.
Both oracles price segments through the same prefix-sum arithmetic as the
search itself, so agreement is required to be exact, including ties.
"""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftscope.changepoint import (
    NORMALIZATIONS,
    ChangePointSet,
    PeltConfig,
    SegmentCost,
    normalize,
    pelt,
)
from driftscope.errors import ConfigInvalid, SpanTooShort
from driftscope.timeseries import TimeSeriesMatrix

from conftest import (
    brute_force_optimal,
    exhaustive_best_segmentation,
    per_row_segment_cost,
    segment_cost,
    two_pass_segment_cost,
)


def _matrix(rows) -> TimeSeriesMatrix:
    return TimeSeriesMatrix.from_rows(rows)


def _cfg(beta, msl=2, norm="none") -> PeltConfig:
    return PeltConfig(beta=beta, min_segment_length=msl, normalize=norm)


def _random_matrix(rng, m=None, n=None, shifts=None) -> TimeSeriesMatrix:
    """Noise matrix with 0..3 mean shifts injected at random positions."""
    m = m if m is not None else int(rng.integers(1, 5))
    n = n if n is not None else int(rng.integers(8, 41))
    values = rng.normal(0.0, 1.0, size=(m, n))
    shifts = shifts if shifts is not None else int(rng.integers(0, 4))
    for _ in range(shifts):
        start = int(rng.integers(2, n - 1))
        values[:, start:] += rng.normal(0.0, 3.0, size=(m, 1))
    return _matrix(values)


# ------------------------------------------------------------ configuration


def test_config_validation():
    with pytest.raises(ConfigInvalid):
        PeltConfig(beta=-0.5)
    for non_finite in (float("nan"), float("inf")):
        with pytest.raises(ConfigInvalid):
            PeltConfig(beta=non_finite)
    with pytest.raises(ConfigInvalid):
        PeltConfig(beta=1.0, min_segment_length=0)
    with pytest.raises(ConfigInvalid):
        PeltConfig(beta=1.0, normalize="minmax")
    assert PeltConfig(beta=0.0).normalize == "max_abs"


@pytest.mark.parametrize(
    "kwargs",
    [
        {"beta": "1"},
        {"beta": None},
        {"beta": 1.0, "min_segment_length": 2.0},  # used to fail in pelt's range()
        {"beta": 1.0, "min_segment_length": 2.5},
        {"beta": 1.0, "min_segment_length": "2"},
        {"beta": 1.0, "min_segment_length": True},
    ],
)
def test_config_refuses_settings_of_the_wrong_type(kwargs):
    with pytest.raises(ConfigInvalid):
        PeltConfig(**kwargs)


def test_config_takes_a_numpy_integer_segment_length():
    m = _random_matrix(np.random.default_rng(5), m=3, n=30, shifts=2)
    assert pelt(m, _cfg(1.0, msl=np.int64(3))) == pelt(m, _cfg(1.0, msl=3))


# ------------------------------------------------------------ normalization


def test_normalize_max_abs():
    m = _matrix([[2.0, -4.0, 1.0], [0.0, 0.0, 0.0]])
    out = normalize(m, "max_abs")
    assert out.values[0].tolist() == [0.5, -1.0, 0.25]
    assert out.values[1].tolist() == [0.0, 0.0, 0.0]  # all-zero row untouched
    assert m.values[0, 0] == 2.0  # input not mutated


def test_normalize_zscore():
    m = _matrix([[1.0, 3.0], [5.0, 5.0]])
    out = normalize(m, "zscore")
    assert out.values[0].tolist() == [-1.0, 1.0]
    assert out.values[1].tolist() == [0.0, 0.0]  # zero variance maps to zeros
    assert abs(out.values[0].mean()) < 1e-15


def test_normalize_none_and_unknown():
    m = _matrix([[1.0, 2.0]])
    assert normalize(m, "none").values.tolist() == [[1.0, 2.0]]
    with pytest.raises(ConfigInvalid):
        normalize(m, "standard")
    assert set(NORMALIZATIONS) == {"max_abs", "zscore", "none"}


# ------------------------------------------------------------- segment cost


def test_segment_cost_matches_two_pass_oracle():
    rng = np.random.default_rng(42)
    values = rng.normal(0.0, 5.0, size=(3, 12))
    m = _matrix(values)
    for i in range(1, 13):
        for j in range(i, 13):
            fast = segment_cost(m, i, j)
            slow = two_pass_segment_cost(values, i - 1, j)
            assert fast == pytest.approx(slow, rel=1e-9, abs=1e-9)


def test_segment_cost_rejects_bad_bounds():
    m = _matrix([[1.0, 2.0, 3.0]])
    for i, j in [(0, 2), (2, 1), (1, 4), (-1, 3)]:
        with pytest.raises(ValueError):
            segment_cost(m, i, j)


def test_segment_cost_single_column_is_zero():
    m = _matrix([[3.0, 7.0, 1.0]])
    assert segment_cost(m, 2, 2) == 0.0


@pytest.mark.parametrize("m", [1, 7, 64, 200])
def test_a_price_does_not_depend_on_the_other_starts(m):
    # pelt and the unpruned oracle price different sets of starts at a step,
    # so their totals agree bit for bit only if no price depends on its
    # company; at 64 and 200 rows a step prices well over a thousand starts
    rng = np.random.default_rng(m)
    n = 2600
    values = rng.normal(0.0, 1.0, size=(m, n)) + rng.normal(0.0, 50.0, size=(m, 1))
    cost = SegmentCost(values)
    for end in (n, 1733):
        every = cost.price(np.arange(end), end, np.empty(end))
        some = np.sort(rng.choice(end, size=end // 3, replace=False))
        assert np.array_equal(cost.price(some, end, np.empty(len(some))), every[some])
        alone = np.array([cost.cost(s, end) for s in some[::7].tolist()])
        assert np.array_equal(alone, every[some[::7]])


def test_price_matches_the_per_row_formula():
    # both sides difference prefix sums, so rounding scales with the sum of squares
    rng = np.random.default_rng(4242)
    eps = np.finfo(float).eps
    for offset in (0.0, 1e2, 1e4):
        for _ in range(10):
            m, n = int(rng.integers(1, 80)), int(rng.integers(2, 300))
            values = rng.normal(0.0, rng.uniform(0.1, 10.0, size=(m, 1)), size=(m, n))
            values += rng.normal(0.0, offset, size=(m, 1))
            cost = SegmentCost(values)
            for end in (n, int(rng.integers(1, n + 1))):
                starts = np.arange(end)
                np.testing.assert_allclose(
                    cost.price(starts, end, np.empty(end)),
                    per_row_segment_cost(values, starts, end),
                    rtol=1e-12, atol=8 * eps * float(cost.total_ss))


# ---------------------------------------------------------------- detection


def test_single_step_detected():
    m = _matrix([[0.0, 0.0, 0.0, 5.0, 5.0, 5.0]])
    res = pelt(m, _cfg(beta=1.0))
    assert res.indices == (4,)
    assert res.total_cost == 2.0  # two zero-cost segments, one beta each
    cp = res.points[0]
    assert cp.interval == m.intervals.intervals[cp.index - 1]


def test_constant_series_has_no_change_points():
    m = _matrix([[3.0] * 10])
    for norm in NORMALIZATIONS:
        res = pelt(m, _cfg(beta=0.5, norm=norm))
        assert res.indices == ()


def test_two_steps_detected():
    m = _matrix([[0.0] * 4 + [5.0] * 4 + [9.0] * 4])
    res = pelt(m, _cfg(beta=1.0))
    assert res.indices == (5, 9)


def test_signal_in_one_row_suffices():
    step = [0.0] * 3 + [5.0] * 3
    m = _matrix([step, [7.0] * 6])
    assert pelt(m, _cfg(beta=1.0)).indices == (4,)


def test_beta_zero_unit_segments():
    m = _matrix([[1.0, 2.0, 4.0, 8.0, 16.0, 32.0]])
    res = pelt(m, _cfg(beta=0.0, msl=1))
    assert res.indices == (2, 3, 4, 5, 6)  # strictly varying: every merge costs
    assert res.total_cost == 0.0


def test_cost_tie_prefers_fewer_change_points():
    # all zero-cost segmentations of the step exist at beta=0 with unit
    # segments allowed; the single boundary at the step must win
    m = _matrix([[0.0, 0.0, 0.0, 5.0, 5.0, 5.0]])
    res = pelt(m, _cfg(beta=0.0, msl=1))
    assert res.indices == (4,)


def test_sse_tie_prefers_no_split():
    # splitting [9,0 | 0,9] leaves the summed deviation unchanged (81), so
    # at beta=0 the single segment ties on cost and wins on count
    m = _matrix([[9.0, 0.0, 0.0, 9.0]])
    res = pelt(m, _cfg(beta=0.0))
    assert res.indices == ()
    assert res.total_cost == 81.0


def test_exact_tie_prefers_lexicographically_earlier_boundaries():
    # boundaries {3, 7}, {4, 6} and {4, 7} (0-based) tie exactly on cost and
    # on count; picking by the last boundary alone would give {4, 6}
    values = [[0.0, -1.0, -2.0, 0.0, 1.0, 2.0, 0.0, -2.0, -1.0]]
    cost = SegmentCost(values)

    def total(bounds):
        acc = 0.0
        for a, b in zip((0,) + bounds, bounds + (9,)):
            acc = acc + cost.cost(a, b) + 0.25
        return acc

    assert total((3, 7)) == total((4, 6)) == total((4, 7)) == 6.0
    res = pelt(_matrix(values), _cfg(beta=0.25))
    assert res.indices == (4, 8)
    assert res.total_cost == 6.0


def test_normalized_run_equals_prenormalized_run():
    rng = np.random.default_rng(7)
    m = _random_matrix(rng, m=3, n=30)
    direct = pelt(m, PeltConfig(beta=2.0, normalize="max_abs"))
    staged = pelt(normalize(m, "max_abs"), _cfg(beta=2.0))
    assert direct.indices == staged.indices
    assert direct.total_cost == staged.total_cost


def test_short_series_rejected():
    m = _matrix([[1.0, 2.0, 3.0]])
    with pytest.raises(SpanTooShort):
        pelt(m, _cfg(beta=1.0, msl=2))
    assert isinstance(pelt(m, _cfg(beta=1.0, msl=1)), ChangePointSet)


# ------------------------------------------------------------- oracle loops


def test_pelt_matches_unpruned_program_on_random_matrices():
    rng = np.random.default_rng(20210615)
    for _ in range(200):
        m = _random_matrix(rng, n=int(rng.integers(8, 51)))
        msl = int(rng.integers(1, 4))
        beta = float(rng.uniform(0.0, 12.0))
        fast = pelt(m, _cfg(beta, msl=msl))
        slow = brute_force_optimal(m, beta, min_segment_length=msl)
        assert fast.indices == slow.indices
        assert fast.total_cost == slow.total_cost  # same arithmetic: exact
        assert fast.evaluations <= slow.evaluations
        bounds = (0,) + tuple(i - 1 for i in fast.indices) + (m.n_intervals,)
        assert all(b2 - b1 >= msl for b1, b2 in zip(bounds, bounds[1:]))


def test_pelt_matches_boundary_enumeration_on_small_matrices():
    rng = np.random.default_rng(99)
    for _ in range(300):
        m = _random_matrix(rng, m=int(rng.integers(1, 4)), n=int(rng.integers(4, 13)))
        msl = int(rng.integers(1, 3))
        if m.n_intervals < 2 * msl:
            continue
        beta = float(rng.uniform(0.0, 8.0))
        res = pelt(m, _cfg(beta, msl=msl))
        cost = SegmentCost(m.values)
        indices, total = exhaustive_best_segmentation(
            cost.cost, m.n_intervals, beta, min_seg=msl
        )
        assert res.indices == indices
        assert res.total_cost == pytest.approx(total, rel=1e-9, abs=1e-9)


def test_pelt_matches_unpruned_program_on_wide_matrices():
    # numpy sums 8 or more rows with unrolled pairwise summation; with 64
    # rows the exact equality covers that summation order too
    rng = np.random.default_rng(64)
    for _ in range(40):
        m = _random_matrix(rng, m=64, n=int(rng.integers(8, 65)))
        msl = int(rng.integers(1, 4))
        beta = float(rng.uniform(0.0, 200.0))
        fast = pelt(m, _cfg(beta, msl=msl))
        slow = brute_force_optimal(m, beta, min_segment_length=msl)
        assert fast.indices == slow.indices
        assert fast.total_cost == slow.total_cost
        assert fast.evaluations <= slow.evaluations


def test_no_change_regime_is_exact_and_bounded_in_time():
    # nothing is pruned on pure noise under a large penalty: every step
    # prices every earlier candidate, about n^2 / 2 evaluations
    rng = np.random.default_rng(2000)
    values = rng.normal(0.0, 1.0, size=(64, 2000))
    start = time.perf_counter()
    res = pelt(_matrix(values), _cfg(beta=2000.0))
    elapsed = time.perf_counter() - start
    assert res.indices == ()
    assert res.total_cost == SegmentCost(values).cost(0, 2000) + 2000.0
    assert res.evaluations == 2 + sum(range(2, 1999))
    assert elapsed < 10.0  # generous: about 1 s on a 2-vCPU host


def test_reported_cost_matches_reported_boundaries():
    rng = np.random.default_rng(1234)
    for _ in range(50):
        m = _random_matrix(rng)
        res = pelt(m, _cfg(beta=3.0))
        cost = SegmentCost(m.values)
        bounds = (0,) + tuple(i - 1 for i in res.indices) + (m.n_intervals,)
        rebuilt = sum(cost.cost(a, b) for a, b in zip(bounds, bounds[1:]))
        rebuilt += 3.0 * (len(bounds) - 1)
        assert res.total_cost == pytest.approx(rebuilt, rel=1e-12)


def test_change_point_count_non_increasing_in_beta():
    rng = np.random.default_rng(5150)
    m = _random_matrix(rng, m=2, n=40, shifts=3)
    counts = [len(pelt(m, _cfg(beta)).indices) for beta in (0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0)]
    assert counts == sorted(counts, reverse=True)
    assert counts[0] > 0  # the injected shifts are visible at low penalty


def test_row_shift_does_not_move_change_points():
    rng = np.random.default_rng(31337)
    base = rng.integers(0, 3, size=(2, 30)).astype(float)
    base[:, 15:] += 9.0
    shifted = base + 1000.0
    a = pelt(_matrix(base), _cfg(beta=25.0))
    b = pelt(_matrix(shifted), _cfg(beta=25.0))
    assert a.indices == b.indices == (16,)


def test_row_order_does_not_move_change_points():
    rng = np.random.default_rng(8080)
    values = rng.integers(0, 3, size=(3, 24)).astype(float)
    values[:, 12:] += 7.0
    a = pelt(_matrix(values), _cfg(beta=30.0))
    b = pelt(_matrix(values[::-1]), _cfg(beta=30.0))
    assert a.indices == b.indices == (13,)


_ROWS = st.lists(
    st.lists(st.floats(-100, 100, allow_nan=False), min_size=6, max_size=18),
    min_size=1,
    max_size=3,
).filter(lambda rows: len({len(r) for r in rows}) == 1)
# where all-zero rows go: index i puts one before the i-th row (clipped to the end)
_ZERO_ROWS = st.lists(st.integers(0, 3), max_size=3)


def _with_zero_rows(rows, positions) -> TimeSeriesMatrix:
    rows = [list(r) for r in rows]
    for at in positions:
        rows.insert(min(at, len(rows)), [0.0] * len(rows[0]))
    return _matrix(rows)


@settings(max_examples=100, deadline=None)
@given(_ROWS, _ZERO_ROWS, st.floats(0, 10, allow_nan=False), st.integers(1, 3))
def test_property_pruned_equals_unpruned(rows, zero_rows, beta, msl):
    m = _with_zero_rows(rows, zero_rows)
    if m.n_intervals < 2 * msl:
        return
    fast = pelt(m, _cfg(beta, msl=msl))
    slow = brute_force_optimal(m, beta, min_segment_length=msl)
    assert fast.indices == slow.indices
    assert fast.total_cost == slow.total_cost
    assert fast.evaluations <= slow.evaluations


def test_pruning_keeps_an_equal_cost_candidate_rounding_would_drop():
    # Every admissible split of this row costs exactly 0; priced through
    # different prefix sums, a candidate can come out an ulp above F(t).
    x = 1.7088178741290943e-140
    m = _matrix([[0.0, 0.0, x, x, x, x]])
    fast = pelt(m, _cfg(0.0, msl=1))
    slow = brute_force_optimal(m, 0.0, min_segment_length=1)
    assert fast.indices == slow.indices == (3,)
    assert fast.total_cost == slow.total_cost == 0.0


@settings(max_examples=100, deadline=None)
@given(
    _ROWS,
    st.lists(st.integers(0, 3), min_size=1, max_size=3),
    st.floats(0, 10, allow_nan=False),
    st.integers(1, 3),
    st.sampled_from(NORMALIZATIONS),
)
def test_property_all_zero_rows_change_nothing(rows, zero_rows, beta, msl, norm):
    # an all-zero row costs 0.0 in every segment and stays all zero under
    # every normalization, so the search never sees it
    if len(rows[0]) < 2 * msl:
        return
    plain = pelt(_matrix(rows), _cfg(beta, msl=msl, norm=norm))
    padded = pelt(_with_zero_rows(rows, zero_rows), _cfg(beta, msl=msl, norm=norm))
    assert padded.indices == plain.indices
    assert padded.evaluations == plain.evaluations
    assert padded.total_cost == plain.total_cost


@pytest.mark.parametrize("msl", [1, 2])
@pytest.mark.parametrize("beta", [0.0, 1.5])
def test_all_zero_matrix_has_nothing_to_price(beta, msl):
    # e.g. control_flow:df at an interval shorter than any succession
    values = np.zeros((4, 12))
    cost = SegmentCost(values)
    assert [cost.cost(a, b) for a in range(12) for b in range(a + 1, 13)] == [0.0] * 78
    assert cost.price(np.arange(12), 12, np.empty(12)).tolist() == [0.0] * 12
    for norm in NORMALIZATIONS:
        fast = pelt(_matrix(values), _cfg(beta, msl=msl, norm=norm))
        slow = brute_force_optimal(_matrix(values), beta, min_segment_length=msl)
        assert fast.indices == slow.indices == ()
        assert fast.total_cost == slow.total_cost == beta
        assert fast.evaluations <= slow.evaluations
