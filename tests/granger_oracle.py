"""Per-pair Granger test with ``np.linalg.lstsq``: the oracle for the scan kernel.

Each pair fits both least-squares models from scratch, the way the package
tested pairs before the restricted fit was shared across causes. The code is
kept as it was so that the batched kernel in ``driftscope.causality`` can be
checked against it.
"""

from __future__ import annotations

import numpy as np

from driftscope import fdist
from driftscope.causality import (
    CausalPair,
    GrangerResult,
    PairScan,
    check_p_threshold,
    min_series_length,
)
from driftscope.errors import DegenerateSeries, IntervalMismatch
from driftscope.timeseries import TimeSeriesMatrix


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


def oracle_granger_test(effect, cause, lag: int) -> GrangerResult:
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


def oracle_scan(
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
                result = oracle_granger_test(primary.values[i], secondary.values[j], lag)
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
