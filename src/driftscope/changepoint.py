"""Change-point detection over feature matrices.

A segmentation of the interval axis is scored as the sum, over segments, of
the within-segment squared deviation from the segment mean (summed across
all feature rows) plus a penalty ``beta`` per segment. :func:`pelt` finds
the exact minimiser with pruned dynamic programming, pricing all live
candidates of a step in one numpy pass over prefix sums and keeping states
in flat arrays with back-pointers. Without pruning (a series with no change
point) the work is still O(n * live * m) for ``n`` intervals, ``live``
candidates and ``m`` feature rows. Change points are 1-based indices of the
first interval of each new segment; cost ties go to fewer change points,
then to lexicographically earlier indices; segments have a minimum length.

Matrices are usually normalised first so that the penalty is comparable
across features with different scales: ``max_abs`` divides each row by its
maximum absolute value (default), ``zscore`` standardises each row, and
``none`` leaves the values alone.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as _replace

import numpy as np

from .errors import ConfigInvalid, SpanTooShort
from .timeseries import TimeInterval, TimeSeriesMatrix

NORMALIZATIONS = ("max_abs", "zscore", "none")


def check_penalty(beta: float, name: str = "penalty") -> None:
    """Raise :class:`ConfigInvalid` for a negative per-segment penalty."""
    if beta < 0:
        raise ConfigInvalid(f"{name} must be non-negative, got {beta}")


def check_min_segment_length(length: int) -> None:
    """Raise :class:`ConfigInvalid` for a minimum segment length below 1."""
    if length < 1:
        raise ConfigInvalid(f"minimum segment length must be at least 1, got {length}")


@dataclass(frozen=True)
class PeltConfig:
    beta: float
    min_segment_length: int = 2
    normalize: str = "max_abs"

    def __post_init__(self):
        check_penalty(self.beta)
        check_min_segment_length(self.min_segment_length)
        if self.normalize not in NORMALIZATIONS:
            raise ConfigInvalid(
                f"unknown normalization {self.normalize!r}; expected one of {NORMALIZATIONS}"
            )


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
    """
    if mode not in NORMALIZATIONS:
        raise ConfigInvalid(f"unknown normalization {mode!r}; expected one of {NORMALIZATIONS}")
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
    """Squared-deviation cost of column ranges via interval-major prefix sums.

    Row ``j`` of the ``(n + 1) x m`` prefix arrays sums columns ``[0, j)``.
    :meth:`price` works ``CHUNK`` starts at a time in workspaces made here.
    """

    CHUNK = 128

    def __init__(self, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        m, n = values.shape
        self._sum = np.zeros((n + 1, m))
        self._sumsq = np.zeros((n + 1, m))
        np.cumsum(values.T, axis=0, out=self._sum[1:])
        np.cumsum((values * values).T, axis=0, out=self._sumsq[1:])
        self._s = np.empty((self.CHUNK, m))
        self._q = np.empty((self.CHUNK, m))
        self._length = np.empty(self.CHUNK)

    def price(self, starts: np.ndarray, end: int, out: np.ndarray) -> np.ndarray:
        """Write the cost of columns ``[s, end)`` for each ``s`` in ``starts`` into ``out``."""
        for lo in range(0, len(starts), self.CHUNK):
            part = starts[lo:lo + self.CHUNK]
            rows = len(part)
            s, q, length = self._s[:rows], self._q[:rows], self._length[:rows]
            np.take(self._sum, part, axis=0, out=s, mode="clip")
            np.subtract(self._sum[end], s, out=s)
            np.take(self._sumsq, part, axis=0, out=q, mode="clip")
            np.subtract(self._sumsq[end], q, out=q)
            np.subtract(end, part, out=length)
            np.multiply(s, s, out=s)
            np.divide(s, length[:, None], out=s)
            np.subtract(q, s, out=q)
            np.sum(q, axis=1, out=out[lo:lo + rows])
        return out

    def cost(self, a: int, b: int) -> float:
        """Cost of columns ``[a, b)`` (0-based, half-open), priced as :meth:`price` does."""
        s = self._sum[b] - self._sum[a]
        q = self._sumsq[b] - self._sumsq[a]
        return float((q - s * s / (b - a)).sum())


def _points(matrix: TimeSeriesMatrix, boundaries: tuple[int, ...]) -> tuple[ChangePoint, ...]:
    ivs = matrix.intervals.intervals
    return tuple(ChangePoint(index=b + 1, interval=ivs[b]) for b in boundaries)


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
    is then strictly beaten by one through ``t``. Because ``t`` itself is
    only usable once segments of ``min_segment_length`` fit, the discard
    takes effect ``min_segment_length`` steps later, which keeps the search
    exact rather than merely approximate under the length constraint.

    ``F`` and the back-pointer of each state are arrays; the ascending
    candidate array's usable prefix (``t - s >= min_segment_length``) is
    priced in one :meth:`SegmentCost.price` pass. Only exact ties rebuild
    boundary tuples from the back-pointers, to apply the tie-break.
    """
    work = normalize(matrix, cfg.normalize)
    n = work.n_intervals
    msl = cfg.min_segment_length
    if n < 2 * msl:
        raise SpanTooShort(f"{n} interval(s) cannot hold two segments of length {msl}")
    cost = SegmentCost(work.values)
    beta = cfg.beta
    never = n + msl + 1

    objective = np.zeros(n + 1)
    back = np.zeros(n + 1, dtype=np.int64)
    candidates = np.zeros(n + 1, dtype=np.int64)
    drop_at = np.full(n + 1, never, dtype=np.int64)
    base = np.empty(n + 1)
    total = np.empty(n + 1)
    flags = np.empty(n + 1, dtype=bool)
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
        live = int(np.searchsorted(candidates[:size], t - msl, side="right"))
        starts = candidates[:live]
        cost.price(starts, t, base[:live])
        np.take(objective, starts, out=total[:live], mode="clip")
        np.add(total[:live], base[:live], out=base[:live])
        np.add(base[:live], beta, out=total[:live])
        evaluations += live

        pick = int(np.argmin(total[:live]))
        best = total[pick]
        chosen = int(starts[pick])
        np.equal(total[:live], best, out=flags[:live])
        if np.count_nonzero(flags[:live]) > 1:
            chosen = min(starts[flags[:live]].tolist(),  # fewer points, earlier boundaries
                         key=lambda s: (len(bounds := _boundaries(back, s)), bounds))
        objective[t] = best
        back[t] = chosen

        np.greater(base[:live], best, out=flags[:live])
        if flags[:live].any():
            np.minimum(drop_at[:live], t + msl, out=drop_at[:live], where=flags[:live])
            next_drop = min(next_drop, t + msl)
        candidates[size] = t
        drop_at[size] = never
        size += 1

    return ChangePointSet(
        points=_points(matrix, _boundaries(back, int(back[n]))),
        total_cost=float(objective[n]),
        evaluations=evaluations,
    )
