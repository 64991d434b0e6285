"""The batched Granger kernel against the per-pair ``lstsq`` oracle.

Matrices mix the rows that stress a rank rule: constant rows, causes equal
to or affine in an effect, exactly lagged copies, sparse 0/1 and small
integer rows, rows constant except in one end cell, and plain noise, at
lags 1-12 and lengths near ``min_series_length``. The kernel and the oracle
must agree on which pairs are degenerate, on every F to 1e-9 (or to the
rounding an ill-conditioned design allows) and every p to 1e-6 (relative),
and on each scan's counts and reported pairs. Cause-row counts straddle the
kernel's chunk size.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftscope import fdist
from driftscope.causality import _CHUNK, _f_statistics, granger_test, min_series_length
from driftscope.causality import test_all_pairs as scan_pairs  # avoid collection
from driftscope.errors import DegenerateSeries
from driftscope.timeseries import IntervalSequence, TimeSeriesMatrix

from granger_oracle import _lag_columns, oracle_granger_test, oracle_scan

#: F-statistics of a cause that adds nothing are rounding noise around 0.
F_ABS = 1e-12
EPS = np.finfo(float).eps


def _f_rel_tol(y: np.ndarray, x: np.ndarray, lag: int) -> float:
    """1e-9, or the rounding both fits carry on an ill-conditioned design if larger.

    Any least-squares fit loses about ``cond * eps`` of relative accuracy, and
    the lags of step-like rows reach condition numbers of 1e8 to 1e12.
    """
    n_eff = len(y) - lag
    design = np.hstack([np.ones((n_eff, 1)), _lag_columns(y, lag), _lag_columns(x, lag)])
    return max(1e-9, np.linalg.cond(design) * EPS)


def _row(rng: np.random.Generator, kind: int, ref: np.ndarray) -> np.ndarray:
    n = ref.shape[0]
    if kind == 0:
        return np.full(n, float(rng.integers(-3, 4)))
    if kind == 1:
        return ref.copy()
    if kind == 2:
        return rng.choice([-2.5, 0.5, 3.0]) * ref + rng.choice([0.0, 7.0, -4.0])
    if kind == 3:
        shift = int(rng.integers(1, min(13, n)))
        row = np.empty(n)
        row[:shift] = rng.normal(size=shift)
        row[shift:] = ref[: n - shift]
        return row
    if kind == 4:
        return (rng.random(n) < rng.choice([0.02, 0.1, 0.5])).astype(float)
    if kind == 5:
        row = np.full(n, 2.0)
        row[-1] = 3.0
        return row
    if kind == 6:
        row = np.full(n, 2.0)
        row[0] = 3.0
        return row
    if kind == 7:
        return rng.integers(0, 3, size=n).astype(float)
    return rng.normal(size=n)


def _matrices(seed: int, lag: int, n_causes: int, n_effects: int = 4):
    """Effect and cause rows of one length near the shortest one ``lag`` allows."""
    rng = np.random.default_rng(seed)
    n = min_series_length(lag) + int(rng.integers(0, 6))
    base = rng.normal(size=n)
    effects = np.array([_row(rng, int(rng.integers(0, 9)), base) for _ in range(n_effects)])
    refs = np.vstack([effects, base])
    causes = np.array([
        _row(rng, int(rng.integers(0, 9)), refs[int(rng.integers(0, len(refs)))])
        for _ in range(n_causes)
    ])
    return effects, causes


def _p_matches(p_value: float, want, rel_tol: float) -> bool:
    """p to 1e-6, or on an ill-conditioned design the tail of an F within ``rel_tol``."""
    if rel_tol == 1e-9:
        return math.isclose(p_value, want.p_value, rel_tol=1e-6)
    f_lo = max(want.f_statistic * (1 - rel_tol) - F_ABS, 0.0)
    f_hi = want.f_statistic * (1 + rel_tol) + F_ABS
    k, dof = want.dof_num, want.dof_den
    return fdist.f_sf(f_hi, k, dof) <= p_value <= fdist.f_sf(f_lo, k, dof)


def _assert_matches_oracle(effects: np.ndarray, causes: np.ndarray, lag: int) -> None:
    f = _f_statistics(effects, causes, lag)
    assert f.shape == (len(effects), len(causes))
    oracle = {}
    for i, y in enumerate(effects):
        for j, x in enumerate(causes):
            try:
                want = oracle_granger_test(y, x, lag)
            except DegenerateSeries:
                assert np.isnan(f[i, j]), (i, j)
                continue
            assert not np.isnan(f[i, j]), (i, j)
            rel_tol = _f_rel_tol(y, x, lag)
            assert math.isclose(f[i, j], want.f_statistic, rel_tol=rel_tol, abs_tol=F_ABS), (i, j)
            assert _p_matches(granger_test(y, x, lag).p_value, want, rel_tol), (i, j)
            oracle[f"r{i}", f"r{j}"] = want, rel_tol

    n = effects.shape[1]
    intervals = IntervalSequence.regular(n)
    primary = TimeSeriesMatrix.from_rows(effects, intervals=intervals, perspective="control_flow")
    secondary = TimeSeriesMatrix.from_rows(causes, intervals=intervals)
    got = scan_pairs(primary, secondary, lag, 0.05)
    want = oracle_scan(primary, secondary, lag, 0.05)
    assert (got.tested, got.skipped_degenerate) == (want.tested, want.skipped_degenerate)
    keys = [(p.primary_label.key, p.secondary_label.key) for p in got.pairs]
    assert set(keys) == {(p.primary_label.key, p.secondary_label.key) for p in want.pairs}
    for key, pair in zip(keys, got.pairs):
        assert _p_matches(pair.p_value, *oracle[key]), key


@pytest.mark.parametrize("n_causes", [1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 152])
def test_kernel_matches_oracle_across_chunk_boundaries(n_causes):
    for lag in (1, 4, 12):
        effects, causes = _matrices(9000 + n_causes + lag, lag, n_causes)
        _assert_matches_oracle(effects, causes, lag)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 12), st.integers(1, 40))
def test_property_kernel_matches_oracle(seed, lag, n_causes):
    effects, causes = _matrices(seed, lag, n_causes)
    _assert_matches_oracle(effects, causes, lag)


def test_every_degenerate_kind_is_caught():
    rng = np.random.default_rng(3)
    y = rng.normal(size=30)
    lagged = np.concatenate([[0.5], y[:-1]])  # x lag 1 equals y lag 2 at lag 3
    flat_but_last = np.full(30, 2.0)
    flat_but_last[-1] = 5.0  # constant over the values its lags use
    causes = np.array([y, 2.0 * y - 1.0, lagged, flat_but_last, np.full(30, 4.0)])
    f = _f_statistics(y[None], causes, 3)
    assert np.isnan(f).all()
    assert np.isnan(_f_statistics(np.array([flat_but_last]), y[None], 3)).all()


def test_frobenius_bracket_settles_by_svd_as_the_oracle_does(monkeypatch):
    # Causes affine in the effect plus noise of relative size 2e-14 and 6e-14:
    # at lag 2 the unrestricted designs have condition numbers about 2.1 and
    # 0.65 times the limit, and the cheap Frobenius bound lies between the
    # limit and p_u = 5 times it for both, so an SVD decides each of them.
    rng = np.random.default_rng(0)
    y = rng.normal(size=30)
    causes = 2.0 * y + 1.0 + np.array([[2e-14], [6e-14]]) * rng.normal(size=(2, 30))
    settled, block = [], np.block

    def spy(*args, **kwargs):  # the kernel builds a factor only to take its SVD
        settled.append(args)
        return block(*args, **kwargs)

    monkeypatch.setattr(np, "block", spy)
    assert np.isnan(_f_statistics(y[None], causes, 2)[0]).tolist() == [True, False]
    assert len(settled) == 2
    monkeypatch.undo()
    _assert_matches_oracle(y[None], causes, 2)


def test_ill_conditioned_design_with_large_pivots_is_degenerate():
    # Lags of a step row: every QR pivot of the design is 0.01 or more of its
    # column's norm, yet the smallest singular value is rounding noise.
    effects, causes = _matrices(1005, 10, 18)
    y, x = effects[2], causes[17]
    assert (x[10:] == -1.0).all()
    with pytest.raises(DegenerateSeries):
        oracle_granger_test(y, x, 10)
    with pytest.raises(DegenerateSeries):
        granger_test(y, x, 10)
