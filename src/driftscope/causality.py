"""Cause-effect testing between drifts via Granger causality.

The lag between a secondary drift and a later primary drift is their index
difference. The Granger test asks whether the cause's last ``k`` values
improve an autoregression of the effect on an intercept and its own last
``k`` values, scored by

    F = ((SSR_r - SSR_u) / k) / (SSR_u / (n_eff - p_u))

with ``n_eff = n - k`` observations and ``p_u = 2k + 1`` parameters.

One kernel, :func:`_f_statistics`, prices every (effect row, cause row) pair
at one lag; :func:`granger_test` is its 1 x 1 case. The restricted design
``Z = [1, y lags] = Q R`` is factorised once per effect row, and ``SSR_r``
comes from ``r = t - Q Q^T t``. By Frisch-Waugh-Lovell (Lovell, JASA 1963)
the unrestricted residual is that of ``r`` on the cause lags residualised
against ``Z``, ``X~ = X - Q Q^T X``: one batched QR ``X~ = Q_x R_x`` gives
each ``SSR_u`` from the explicit residual ``r - Q_x Q_x^T r``, so a perfect
fit falls under the noise floor. Causes go ``_CHUNK`` rows at a time, so the
working set is a few ``_CHUNK x n_eff x k`` blocks however many rows there
are.

A pair is degenerate, and skipped rather than forced through a
pseudo-inverse, when the effect is constant, the cause is constant over
``x[:n-1]`` (the values its lags use), or a design is rank deficient: its
condition number, the ratio of its extreme singular values, reaches
``1 / (eps n_eff)``, NumPy's default cutoff for a least-squares rank. The
restricted factor's is computed directly. The unrestricted
factor ``[[R, Q^T X], [0, R_x]]`` has an inverse built from ``R^-1`` and
``R_x^-1``, and its Frobenius condition number lies between one and ``p_u``
times the singular-value one, so only a pair inside that bracket needs an
SVD of its ``p_u x p_u`` factor. The pivots ``|R_jj|`` alone would not do:
the lags of a step can be singular to rounding with every pivot near 1% of
its column's norm.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral, Real

import numpy as np

from . import fdist
from .errors import ConfigInvalid, DegenerateSeries, IntervalMismatch, NonPrecedingDrift
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


def _sizes(n: int, k: int) -> tuple[int, int]:
    """``n_eff`` and the residual degrees of freedom ``n_eff - p_u`` at lag ``k``."""
    return n - k, n - k - (2 * k + 1)


def min_series_length(lag: int) -> int:
    """Shortest series length that leaves two residual degrees of freedom."""
    return 2 - _sizes(0, lag)[1]  # each value adds one degree of freedom


#: Cause rows residualised and factorised in one batched QR.
_CHUNK = 32

_EPS = np.finfo(float).eps


def _lag_blocks(rows: np.ndarray, k: int) -> np.ndarray:
    """View with ``out[r, t, j] = rows[r, k - 1 - j + t]``: lag ``j + 1`` of target ``t``."""
    windows = np.lib.stride_tricks.sliding_window_view(rows[:, :-1], rows.shape[1] - k, axis=1)
    return windows[:, ::-1].transpose(0, 2, 1)


def _sq(a: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm of each matrix in a stack."""
    return (a * a).sum(axis=(-2, -1))


def _f_statistics(effects: np.ndarray, causes: np.ndarray, k: int) -> np.ndarray:
    """F-statistic of every (effect row, cause row) pair at lag ``k``; NaN if degenerate."""
    if not (np.isfinite(effects).all() and np.isfinite(causes).all()):
        raise ValueError("series must be finite")
    if isinstance(k, bool) or not isinstance(k, Integral) or k < 1:
        raise ValueError(f"lag must be an integer of at least 1, got {k}")
    n = effects.shape[1]
    if n < min_series_length(k):
        raise ValueError(
            f"series of length {n} is too short for lag {k}; "
            f"need at least {min_series_length(k)} observations"
        )
    n_eff, dof_den = _sizes(n, k)
    p_u = n_eff - dof_den
    max_cond = 1.0 / (_EPS * n_eff)
    f = np.full((effects.shape[0], causes.shape[0]), np.nan)
    live = np.flatnonzero(np.ptp(causes[:, :-1], axis=1) > 0.0)
    cause_lags = _lag_blocks(causes[live], k)
    design = np.ones((n_eff, k + 1))
    # A near-singular factor has a huge or non-finite inverse; its condition
    # test then fails (inf and NaN compare false), which marks it degenerate.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for i in np.flatnonzero(np.ptp(effects, axis=1) > 0.0):
            design[:, 1:] = _lag_blocks(effects[i: i + 1], k)[0]
            q, r = np.linalg.qr(design)
            if not np.linalg.cond(r) < max_cond:
                continue
            r_inv = np.linalg.inv(r)
            design_sq, inv_sq = _sq(design), _sq(r_inv)
            target = effects[i, k:]
            resid = target - q @ (q.T @ target)
            ssr_r = resid @ resid
            # Residual sums at the level of floating-point noise are treated as
            # zero; otherwise an exactly self-predicting effect series would turn
            # rounding error into an arbitrarily large F-statistic.
            noise_floor = max(((target - target.mean()) ** 2).sum(), 1.0) * 1e-12
            for start in range(0, len(live), _CHUNK):
                x = cause_lags[start: start + _CHUNK]
                coupling = q.T @ x
                qx, rx = np.linalg.qr(x - q @ coupling)
                u = resid - (qx @ (resid @ qx)[..., None])[..., 0]
                ssr_u = np.einsum("ct,ct->c", u, u)
                gain = (ssr_r - ssr_u) / k
                stat = np.maximum(gain / (np.maximum(ssr_u, noise_floor) / dof_den), 0.0)
                # A perfect unrestricted fit: infinite evidence if it improved anything.
                stat[ssr_u < noise_floor] = 0.0 if ssr_r < noise_floor else np.inf
                # The unrestricted factor [[r, coupling], [0, rx]] has the inverse
                # [[r_inv, -r_inv @ coupling @ rx_inv], [0, rx_inv]].
                singular = ~np.diagonal(rx, axis1=1, axis2=2).all(axis=1)
                rx_inv = np.linalg.inv(np.where(singular[:, None, None], np.eye(k), rx))
                rx_inv[singular] = np.nan
                cond_f = np.sqrt((design_sq + _sq(x))
                                 * (inv_sq + _sq(r_inv @ coupling @ rx_inv) + _sq(rx_inv)))
                full_rank = cond_f < max_cond
                for b in np.flatnonzero((cond_f >= max_cond) & (cond_f < p_u * max_cond)):
                    factor = np.block([[r, coupling[b]], [np.zeros((k, k + 1)), rx[b]]])
                    full_rank[b] = np.linalg.cond(factor) < max_cond
                stat[~full_rank] = np.nan
                f[i, live[start: start + _CHUNK]] = stat
    return f


def granger_test(effect, cause, lag: int) -> GrangerResult:
    """Test whether ``cause`` Granger-causes ``effect`` at the given lag."""
    y = np.asarray(effect, dtype=float)
    x = np.asarray(cause, dtype=float)
    if y.ndim != 1 or x.ndim != 1 or y.shape != x.shape:
        raise ValueError("effect and cause must be 1-d series of equal length")
    f_stat = float(_f_statistics(y[None], x[None], lag)[0, 0])
    k = int(lag)
    if np.isnan(f_stat):
        raise DegenerateSeries("constant series or rank-deficient design (collinear lags)")
    n_eff, dof_den = _sizes(y.shape[0], k)
    return GrangerResult(
        p_value=fdist.f_sf(f_stat, k, dof_den),
        f_statistic=f_stat,
        effective_sample_size=n_eff,
        lag=k,
        dof_num=k,
        dof_den=dof_den,
    )


def check_p_threshold(p_threshold: float) -> None:
    """Raise :class:`ConfigInvalid` unless the threshold is a number in [0, 1)."""
    if isinstance(p_threshold, bool) or not isinstance(p_threshold, Real):
        raise ConfigInvalid(f"p-value threshold must be a number, got {p_threshold!r}")
    if not 0.0 <= p_threshold < 1.0:
        raise ConfigInvalid(f"p-value threshold must lie in [0, 1), got {p_threshold}")


def test_all_pairs(
    primary: TimeSeriesMatrix, secondary: TimeSeriesMatrix, lag: int, p_threshold: float
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
    f = _f_statistics(primary.values, secondary.values, lag)
    k = int(lag)
    dof_den = _sizes(primary.n_intervals, k)[1]
    pairs: list[CausalPair] = []
    for i, j in zip(*np.nonzero(~np.isnan(f))):
        p_value = fdist.f_sf(float(f[i, j]), k, dof_den)
        if p_value < p_threshold:
            pairs.append(CausalPair(primary.labels[i], secondary.labels[j], p_value))
    pairs.sort(key=lambda p: (p.p_value, str(p.primary_label), str(p.secondary_label)))
    return PairScan(pairs=tuple(pairs), tested=f.size, skipped_degenerate=int(np.isnan(f).sum()))
