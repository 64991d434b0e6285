"""Cause-effect testing between drifts via Granger causality.

Given a change point in each of two series over the same interval sequence,
the lag between them is simply the index difference. The Granger test then
asks whether the lagged history of the candidate cause improves a linear
autoregression of the effect series: a restricted ordinary least squares
model predicts each value from an intercept and its own last ``k`` values,
the unrestricted model adds the last ``k`` values of the cause, and the
improvement in residual sum of squares is scored with an F-statistic

    F = ((SSR_r - SSR_u) / k) / (SSR_u / (n_eff - p_u))

with ``n_eff = n - k`` usable observations and ``p_u = 2k + 1`` parameters
in the unrestricted model. Constant series and rank-deficient designs are
rejected as degenerate instead of being forced through a pseudo-inverse,
so a flat feature can never masquerade as a perfect cause.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fdist
from .errors import (
    ConfigInvalid,
    DegenerateSeries,
    IntervalMismatch,
    NonPrecedingDrift,
)
from .changepoint import ChangePoint
from .timeseries import FeatureLabel, IntervalSequence, TimeSeriesMatrix


@dataclass(frozen=True)
class GrangerResult:
    p_value: float
    f_statistic: float
    effective_sample_size: int
    lag: int
    dof_num: int
    dof_den: int


@dataclass(frozen=True)
class CausalPair:
    primary_label: FeatureLabel
    secondary_label: FeatureLabel
    p_value: float


@dataclass(frozen=True)
class PairScan:
    """Outcome of testing every feature pair at one lag."""

    pairs: tuple[CausalPair, ...]
    tested: int
    skipped_degenerate: int


def lag_between(
    intervals: IntervalSequence, cp_secondary: ChangePoint, cp_primary: ChangePoint
) -> int:
    """Lag in intervals from a preceding secondary drift to a primary drift."""
    n = len(intervals)
    for cp in (cp_secondary, cp_primary):
        if not 1 <= cp.index <= n:
            raise ValueError(f"change point index {cp.index} outside 1..{n}")
    k = cp_primary.index - cp_secondary.index
    if k <= 0:
        raise NonPrecedingDrift(
            f"secondary drift at interval {cp_secondary.index} does not strictly "
            f"precede primary drift at interval {cp_primary.index}"
        )
    return k


def min_series_length(lag: int) -> int:
    """Shortest series length that leaves positive residual degrees of freedom."""
    return 3 * lag + 3


def _lag_columns(series: np.ndarray, k: int) -> np.ndarray:
    n = series.shape[0]
    return np.column_stack([series[k - j - 1: n - j - 1] for j in range(k)])


def _ols_ssr(design: np.ndarray, target: np.ndarray) -> float:
    coef, _, rank, _ = np.linalg.lstsq(design, target, rcond=None)
    if rank < design.shape[1]:
        raise DegenerateSeries(
            "regression design is rank deficient (collinear or constant lags)"
        )
    residuals = target - design @ coef
    return float(residuals @ residuals)


def granger_test(effect, cause, lag: int) -> GrangerResult:
    """Test whether ``cause`` Granger-causes ``effect`` at the given lag."""
    y = np.asarray(effect, dtype=float)
    x = np.asarray(cause, dtype=float)
    if y.ndim != 1 or x.ndim != 1 or y.shape != x.shape:
        raise ValueError("effect and cause must be 1-d series of equal length")
    if not (np.isfinite(y).all() and np.isfinite(x).all()):
        raise ValueError("series must be finite")
    k = int(lag)
    n = y.shape[0]
    if k < 1:
        raise ValueError(f"lag must be at least 1, got {k}")
    if n - k < 2 * k + 3:
        raise ValueError(
            f"series of length {n} is too short for lag {k}; "
            f"need at least {min_series_length(k)} observations"
        )
    n_eff = n - k
    p_u = 2 * k + 1
    dof_den = n_eff - p_u

    if np.ptp(y) == 0.0:
        raise DegenerateSeries("effect series is constant over the regression window")
    if np.ptp(x[: n - 1]) == 0.0:
        raise DegenerateSeries("cause series is constant over the regression window")

    target = y[k:]
    intercept = np.ones((n_eff, 1))
    y_lags = _lag_columns(y, k)
    x_lags = _lag_columns(x, k)
    ssr_restricted = _ols_ssr(np.hstack([intercept, y_lags]), target)
    ssr_unrestricted = _ols_ssr(np.hstack([intercept, y_lags, x_lags]), target)

    # Residual sums at the level of floating-point noise are treated as zero;
    # otherwise an exactly self-predicting effect series would turn rounding
    # error into an arbitrarily large F-statistic.
    noise_floor = max(float(((target - target.mean()) ** 2).sum()), 1.0) * 1e-12
    if ssr_unrestricted < noise_floor:
        # A perfect unrestricted fit: infinite evidence if it improved anything.
        f_stat = 0.0 if ssr_restricted < noise_floor else float("inf")
    else:
        f_stat = ((ssr_restricted - ssr_unrestricted) / k) / (ssr_unrestricted / dof_den)
        if f_stat < 0.0:
            f_stat = 0.0
    p_value = fdist.f_sf(f_stat, k, dof_den)
    return GrangerResult(
        p_value=p_value,
        f_statistic=f_stat,
        effective_sample_size=n_eff,
        lag=k,
        dof_num=k,
        dof_den=dof_den,
    )


def check_p_threshold(p_threshold: float) -> None:
    """Raise :class:`ConfigInvalid` unless the threshold lies in [0, 1)."""
    if not 0.0 <= p_threshold < 1.0:
        raise ConfigInvalid(f"p-value threshold must lie in [0, 1), got {p_threshold}")


def test_all_pairs(
    primary: TimeSeriesMatrix,
    secondary: TimeSeriesMatrix,
    lag: int,
    p_threshold: float,
) -> PairScan:
    """Score every (secondary row, primary row) pair at one lag.

    Pairs whose regression is degenerate (constant rows, collinear lags)
    are counted and skipped rather than reported with a fake p-value.
    Surviving pairs are sorted by ascending p-value, then by labels.
    """
    if primary.intervals != secondary.intervals:
        raise IntervalMismatch(
            "primary and secondary series were built over different interval sequences"
        )
    check_p_threshold(p_threshold)
    pairs: list[CausalPair] = []
    tested = 0
    skipped = 0
    for i in range(primary.n_features):
        for j in range(secondary.n_features):
            tested += 1
            try:
                result = granger_test(primary.values[i], secondary.values[j], lag)
            except DegenerateSeries:
                skipped += 1
                continue
            if result.p_value < p_threshold:
                pairs.append(
                    CausalPair(
                        primary_label=primary.labels[i],
                        secondary_label=secondary.labels[j],
                        p_value=result.p_value,
                    )
                )
    pairs.sort(key=lambda p: (p.p_value, str(p.primary_label), str(p.secondary_label)))
    return PairScan(pairs=tuple(pairs), tested=tested, skipped_degenerate=skipped)
