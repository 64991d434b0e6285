"""Change-point detection over feature matrices.

A segmentation of the interval axis is scored as the sum, over segments, of
the within-segment squared deviation from the segment mean (summed across
all feature rows) plus a penalty ``beta`` per segment. :func:`pelt` finds
the exact minimiser with pruned dynamic programming, pricing all live
candidates of a step with plain numpy expressions over prefix sums (a
gather, a subtraction and a sum of squares over the ``m`` feature rows per
candidate) and keeping states in flat arrays with back-pointers. Without
pruning the work is still O(n * live * m) for ``n`` intervals and ``live``
candidates. A row zero in every interval costs 0.0 in every segment and is
skipped, so ``m`` counts only the other rows: for ``control_flow:df``, the
directly-follows pairs observed, not A² for A activities. Change points
are 1-based indices of the first interval of each new segment; cost ties go
to fewer change points, then to lexicographically earlier indices; segments
have a minimum length.

Matrices are usually normalised first so that the penalty is comparable
across features with different scales: ``max_abs`` divides each row by its
maximum absolute value (default), ``zscore`` standardises each row, and
``none`` leaves the values alone.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, replace as _replace
from numbers import Integral, Real

import numpy as np

from .errors import ConfigInvalid, SpanTooShort
from .timeseries import TimeInterval, TimeSeriesMatrix

NORMALIZATIONS = ("max_abs", "zscore", "none")


def _check_normalization(mode: str) -> None:
    if mode not in NORMALIZATIONS:
        raise ConfigInvalid(f"unknown normalization {mode!r}; expected one of {NORMALIZATIONS}")


@dataclass(frozen=True)
class PeltConfig:
    """Penalty, minimum segment length and normalization of one PELT run.

    ``beta_name`` is the name the penalty goes by in error messages.
    """

    beta: float
    min_segment_length: int = 2
    normalize: str = "max_abs"
    beta_name: InitVar[str] = "beta"

    def __post_init__(self, beta_name: str):
        if not isinstance(self.beta, Real):
            raise ConfigInvalid(f"{beta_name} must be a number, got {self.beta!r}")
        if not 0 <= self.beta < float("inf"):
            raise ConfigInvalid(f"{beta_name} must be finite and non-negative, got {self.beta}")
        msl = self.min_segment_length
        if isinstance(msl, bool) or not isinstance(msl, Integral):
            raise ConfigInvalid(f"minimum segment length must be an integer, got {msl!r}")
        if msl < 1:
            raise ConfigInvalid(f"minimum segment length must be at least 1, got {msl}")
        _check_normalization(self.normalize)


@dataclass(frozen=True)
class ChangePoint:
    """First interval of a new segment; ``index`` is 1-based."""

    index: int
    interval: TimeInterval


@dataclass(frozen=True)
class ChangePointSet:
    """Detected change points plus the achieved objective value.

    ``total_cost`` is the penalised objective of the returned segmentation
    on the matrix the detector actually ran on (i.e. after normalization).
    ``evaluations`` counts candidate transitions inspected by the search,
    which lets tests confirm that pruning never does more work than the
    unpruned program.
    """

    points: tuple[ChangePoint, ...]
    total_cost: float
    evaluations: int

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(p.index for p in self.points)

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)


def normalize(matrix: TimeSeriesMatrix, mode: str = "max_abs") -> TimeSeriesMatrix:
    """Return a row-rescaled copy of the matrix.

    ``max_abs`` leaves all-zero rows untouched; ``zscore`` maps
    zero-variance rows to all zeros so they cannot attract change points.
    Either way such a row is zero throughout, and :class:`SegmentCost` skips it.
    """
    _check_normalization(mode)
    values = np.array(matrix.values, dtype=float, copy=True)
    if mode == "max_abs":
        scale = np.abs(values).max(axis=1)
        nonzero = scale > 0
        values[nonzero] /= scale[nonzero, None]
    elif mode == "zscore":
        mean = values.mean(axis=1, keepdims=True)
        std = values.std(axis=1)
        centered = values - mean
        out = np.zeros_like(values)
        nonzero = std > 0
        out[nonzero] = centered[nonzero] / std[nonzero, None]
        values = out
    return _replace(matrix, values=values)


class SegmentCost:
    """Squared-deviation cost of column ranges via prefix sums over ``[0, j)``.

    The ``(n + 1) x m`` sums keep each feature row apart; the squares, whose
    term does not depend on the split, keep one row-summed value per ``j``, as
    ``sum_r (q_r - s_r**2 / L) = Q[end] - Q[s] - sum_r s_r**2 / L``. :meth:`price`
    gathers, subtracts and squares the sums of all starts in one workspace of
    that size.
    All-zero rows are left out; a matrix without one is used uncopied.
    """

    def __init__(self, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        nonzero = values.any(axis=1)
        values = values if nonzero.all() else values[nonzero]
        m, n = values.shape
        self._sum = np.zeros((n + 1, m))
        np.cumsum(values.T, axis=0, out=self._sum[1:])
        self._sumsq = np.zeros(n + 1)
        np.cumsum(np.einsum("ij,ij->j", values, values), out=self._sumsq[1:])
        self.total_ss = self._sumsq[n]
        self._s = np.empty_like(self._sum)

    def price(self, starts: np.ndarray, end: int, out: np.ndarray) -> np.ndarray:
        """Write the cost of columns ``[s, end)`` for each ``s`` in ``starts``
        into ``out``; a start's price does not depend on the other starts."""
        s = self._sum.take(starts, axis=0, out=self._s[:len(starts)], mode="clip")
        np.subtract(self._sum[end], s, out=s)
        np.einsum("ij,ij->i", s, s, out=out)
        out /= end - starts
        return np.subtract(self._sumsq[end] - self._sumsq[starts], out, out=out)

    def cost(self, a: int, b: int) -> float:
        """Cost of columns ``[a, b)`` (0-based, half-open), priced by :meth:`price`."""
        return float(self.price(np.array([a]), b, np.empty(1))[0])


def _points(matrix: TimeSeriesMatrix, boundaries: tuple[int, ...]) -> tuple[ChangePoint, ...]:
    d = matrix.intervals.duration_us
    return tuple(ChangePoint(index=b + 1, interval=TimeInterval(b * d, (b + 1) * d))
                 for b in boundaries)


def _boundaries(back: np.ndarray, state: int) -> tuple[int, ...]:
    """Best boundaries of ``[0, state)`` followed by ``state`` itself (none for state 0)."""
    chain = []
    while state:
        chain.append(state)
        state = int(back[state])
    return tuple(reversed(chain))


def pelt(matrix: TimeSeriesMatrix, cfg: PeltConfig) -> ChangePointSet:
    """Exact penalised segmentation via pruned dynamic programming.

    States are prefix lengths; a transition from state ``s`` to ``t`` closes
    the segment covering columns ``[s, t)``. A candidate ``s`` is discarded
    once ``F(s) + cost(s, t) > F(t)``: any later segmentation through ``s``
    is then strictly beaten by one through ``t``. The comparison allows a
    rounding margin that scales with the matrix's sum of squares and the
    penalties, so that two segmentations of equal cost, priced through
    different prefix sums, can never prune the one the tie-break would
    choose. Because ``t`` itself is
    only usable once segments of ``min_segment_length`` fit, the discard
    takes effect ``min_segment_length`` steps later, which keeps the search
    exact rather than merely approximate under the length constraint.

    ``F`` and the back-pointer of each state are arrays; the ascending
    candidate array's usable prefix (``t - s >= min_segment_length``) is
    priced in one :meth:`SegmentCost.price` pass into a fresh array, to which
    the step adds ``F`` of each start and then the penalty. The minimum, the
    tied starts and the pruned starts are one comparison each. Only exact ties
    rebuild boundary tuples from the back-pointers, to apply the tie-break.
    """
    work = normalize(matrix, cfg.normalize)
    n = work.n_intervals
    msl = cfg.min_segment_length
    if n < 2 * msl:
        raise SpanTooShort(f"{n} interval(s) cannot hold two segments of length {msl}")
    cost = SegmentCost(work.values)
    beta = cfg.beta
    never = n + msl + 1
    # Every F and cost sums at most n segment prices and penalties, each
    # within a few ulps of the total sum of squares plus n penalties.
    margin = 8 * n * np.finfo(float).eps * (float(cost.total_ss) + n * beta)

    objective = np.zeros(n + 1)
    back = np.zeros(n + 1, dtype=np.int64)
    candidates = np.zeros(n + 1, dtype=np.int64)
    drop_at = np.full(n + 1, never, dtype=np.int64)
    size = 1
    next_drop = never
    evaluations = 0

    for t in range(msl, n + 1):
        if next_drop <= t:
            keep = drop_at[:size] > t
            kept = int(np.count_nonzero(keep))
            candidates[:kept] = candidates[:size][keep]
            drop_at[:kept] = drop_at[:size][keep]
            size = kept
            next_drop = int(drop_at[:size].min())
        live = int(candidates[:size].searchsorted(t - msl, side="right"))
        starts = candidates[:live]
        base = cost.price(starts, t, np.empty(live)) + objective.take(starts)
        total = base + beta
        evaluations += live

        pick = int(total.argmin())
        best = total[pick]
        tied = starts[total == best]
        objective[t] = best
        back[t] = starts[pick] if len(tied) == 1 else min(
            tied.tolist(),  # fewer points, earlier boundaries
            key=lambda s: (len(bounds := _boundaries(back, s)), bounds))

        pruned = base > best + margin
        if pruned.any():
            drop_at[:live][pruned] = np.minimum(drop_at[:live][pruned], t + msl)
            next_drop = min(next_drop, t + msl)
        candidates[size] = t
        drop_at[size] = never
        size += 1

    return ChangePointSet(
        points=_points(matrix, _boundaries(back, int(back[n]))),
        total_cost=float(objective[n]),
        evaluations=evaluations,
    )
