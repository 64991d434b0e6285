"""Shared fixtures and independent oracle helpers for the test suite."""

from __future__ import annotations

import itertools
import math
import re
from datetime import datetime

import numpy as np
import pytest

from driftscope.changepoint import ChangePoint, ChangePointSet, SegmentCost
from driftscope.errors import ConfigInvalid, SpanTooShort
from driftscope.fdist import betainc_reg
from driftscope.model import Case, Event, EventLog, sort_and_validate
from driftscope.timeseries import TimeInterval, TimeSeriesMatrix

_CRITERION = re.compile(r"test_acceptance\.py::test_criterion_(\d+)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Append one verdict line per release criterion that was collected."""
    verdicts = {}
    for outcome, verdict in (
        ("passed", "PASS"), ("failed", "FAIL"), ("error", "FAIL"), ("skipped", "SKIPPED")
    ):
        for report in terminalreporter.stats.get(outcome, []):
            match = _CRITERION.search(getattr(report, "nodeid", ""))
            if match:
                verdicts[int(match.group(1))] = verdict
    if verdicts:
        terminalreporter.write_line("")
        for criterion in sorted(verdicts):
            terminalreporter.write_line(
                f"[ACCEPTANCE] criterion {criterion}: {verdicts[criterion]}"
            )


def build_log(rows, case_attrs=None, meta=None) -> EventLog:
    """Assemble a validated log from (case_id, activity, timestamp, ...) tuples.

    Each row is (case_id, activity, timestamp[, resource[, lifecycle[, attrs]]]).
    Event ids are synthesised in row order, mirroring ingestion.
    """
    log = EventLog(meta=meta or {})
    for i, row in enumerate(rows, start=1):
        case_id, activity, ts = row[0], row[1], row[2]
        resource = row[3] if len(row) > 3 else None
        lifecycle = row[4] if len(row) > 4 else None
        attrs = dict(row[5]) if len(row) > 5 else {}
        case = log.cases.get(case_id)
        if case is None:
            case = Case(case_id=case_id, attrs=dict((case_attrs or {}).get(case_id, {})))
            log.cases[case_id] = case
        case.events.append(
            Event(
                event_id=f"e{i}",
                case_id=case_id,
                activity=activity,
                timestamp=ts,
                resource=resource,
                lifecycle=lifecycle,
                attrs=attrs,
            )
        )
    return sort_and_validate(log)


def _t(hour: int, minute: int) -> datetime:
    return datetime(2021, 6, 15, hour, minute)


@pytest.fixture
def claims_log() -> EventLog:
    """Two-case claim handling snapshot used for all hand-counted checks.

    Case 1: register 12:30 (Peter), submit 12:35 (Sophia), reply 14:21
    (Christina). Case 2: register 13:12 (Peter). Hand-derived facts used in
    tests: directly-follows register->submit and submit->reply once each,
    Peter handles two events, three distinct resources, sojourn times 300 s
    for submit and 6360 s for reply.
    """
    return build_log(
        [
            ("1", "register", _t(12, 30), "Peter"),
            ("1", "submit", _t(12, 35), "Sophia"),
            ("2", "register", _t(13, 12), "Peter"),
            ("1", "reply", _t(14, 21), "Christina"),
        ]
    )


CLAIMS_CSV = (
    "case,activity,timestamp,resource\n"
    "1,register,2021-06-15 12:30,Peter\n"
    "1,submit,2021-06-15 12:35,Sophia\n"
    "2,register,2021-06-15 13:12,Peter\n"
    "1,reply,2021-06-15 14:21,Christina\n"
)


def logs_equivalent(a: EventLog, b: EventLog) -> bool:
    """Structural equality ignoring synthesised event identifiers."""
    if sorted(a.cases) != sorted(b.cases):
        return False
    for case_id in a.cases:
        ca, cb = a.cases[case_id], b.cases[case_id]
        if ca.attrs != cb.attrs or len(ca.events) != len(cb.events):
            return False
        for ea, eb in zip(ca.events, cb.events):
            if (ea.activity, ea.timestamp, ea.resource, ea.lifecycle, ea.attrs) != (
                eb.activity, eb.timestamp, eb.resource, eb.lifecycle, eb.attrs
            ):
                return False
    return (
        a.activities == b.activities
        and a.resources == b.resources
        and a.event_attr_types == b.event_attr_types
        and a.case_attr_types == b.case_attr_types
        and a.span == b.span
    )


def project_attr(log: EventLog, key: str, level: str = "event") -> list:
    """Project an attribute across the log, returning the value multiset.

    At event level the built-in fields ``activity``, ``resource``,
    ``lifecycle`` and ``timestamp`` are served alongside free-form
    attributes; optional fields contribute only where set. Events or cases
    missing the key are skipped, so an unknown key yields an empty list
    rather than an error.
    """
    values: list = []
    if level == "event":
        for e in log.iter_events():
            if key == "activity":
                values.append(e.activity)
            elif key == "timestamp":
                values.append(e.timestamp)
            elif key == "resource":
                if e.resource is not None:
                    values.append(e.resource)
            elif key == "lifecycle":
                if e.lifecycle is not None:
                    values.append(e.lifecycle)
            elif key in e.attrs:
                values.append(e.attrs[key])
    elif level == "case":
        for case in log.cases.values():
            if key in case.attrs:
                values.append(case.attrs[key])
    else:
        raise ValueError(f"unknown attribute level: {level!r}")
    return values


def select_events(log: EventLog, interval: TimeInterval) -> list[Event]:
    """Events whose timestamp offset falls inside the interval, in log order."""
    return [e for e in log.iter_events() if interval.contains_us(log.offset_us(e.timestamp))]


def available_channels(age: float, config) -> list[str]:
    """Notification channels the generator may offer at ``age``: postal mail always,
    phone only strictly below ``phone_max_age``, email only strictly below ``email_max_age``."""
    channels = ["notify_post"]
    if age < config.phone_max_age:
        channels.append("notify_phone")
    if age < config.email_max_age:
        channels.append("notify_email")
    return channels


def f_cdf(f: float, d1: float, d2: float) -> float:
    """Lower tail P(F <= f) for an F(d1, d2) variate."""
    if d1 <= 0 or d2 <= 0:
        raise ValueError("degrees of freedom must be positive")
    if f <= 0.0:
        return 0.0
    if f == float("inf"):
        return 1.0
    # past the continued fraction's switch point, take 1 - I_y(b, a) with y computed
    # directly: betainc_reg would round 1 - x, which costs about 1e-12 when x is near 1
    a, b, total = d1 / 2.0, d2 / 2.0, d1 * f + d2
    x = d1 * f / total
    if x < (a + 1.0) / (a + b + 2.0):
        return betainc_reg(a, b, x)
    return 1.0 - betainc_reg(b, a, d2 / total)


def two_pass_segment_cost(values: np.ndarray, a: int, b: int) -> float:
    """Squared deviation of columns [a, b) computed the naive way."""
    total = 0.0
    for row in values:
        seg = row[a:b]
        mean = sum(seg) / len(seg)
        total += sum((v - mean) ** 2 for v in seg)
    return total


def per_row_segment_cost(values: np.ndarray, starts: np.ndarray, end: int) -> np.ndarray:
    """Cost of columns [s, end) for each s in ``starts``, as ``sum_r (q_r - s_r**2 / L)``.

    Every feature row keeps its own prefix of squares here, where
    ``SegmentCost`` sums the squares over the rows first; the two agree only
    up to rounding.
    """
    values = np.asarray(values, dtype=float)
    sums = np.vstack([np.zeros(len(values)), np.cumsum(values.T, axis=0)])
    squares = np.vstack([np.zeros(len(values)), np.cumsum((values * values).T, axis=0)])
    s = sums[end] - sums[starts]
    q = squares[end] - squares[starts]
    return (q - s * s / (end - starts)[:, None]).sum(axis=1)


def segment_cost(matrix: TimeSeriesMatrix, i: int, j: int) -> float:
    """Squared deviation from the mean over 1-based inclusive columns i..j."""
    n = matrix.n_intervals
    if not (1 <= i <= j <= n):
        raise ValueError(f"need 1 <= i <= j <= {n}, got i={i}, j={j}")
    return SegmentCost(matrix.values).cost(i - 1, j)


def brute_force_optimal(
    matrix: TimeSeriesMatrix, beta: float, min_segment_length: int = 2
) -> ChangePointSet:
    """Unpruned quadratic dynamic program over all admissible segmentations.

    Oracle for ``pelt``: same objective, same tie-breaking (fewer change
    points, then earlier boundaries), no pruning, one Python tuple per state.
    Segments are priced by the same ``SegmentCost.price`` routine as the
    search, so the two totals must agree bit for bit. Restricted to small
    inputs on purpose.
    """
    if beta < 0:
        raise ConfigInvalid(f"penalty must be non-negative, got {beta}")
    n = matrix.n_intervals
    msl = min_segment_length
    if n > 64:
        raise ValueError("brute-force search is limited to 64 intervals")
    if n < 2 * msl:
        raise SpanTooShort(f"{n} interval(s) cannot hold two segments of length {msl}")
    cost = SegmentCost(matrix.values)

    best: dict[int, tuple[float, int, tuple[int, ...]]] = {0: (0.0, 0, ())}
    evaluations = 0
    for t in range(msl, n + 1):
        starts = np.array([0] + list(range(msl, t - msl + 1)))
        prices = cost.price(starts, t, np.empty(len(starts))).tolist()
        chosen: tuple[float, int, tuple[int, ...]] | None = None
        for s, price in zip(starts.tolist(), prices):
            f, k, bounds = best[s]
            base = f + price
            entry = (base + beta, k + 1, bounds + (s,)) if s else (base + beta, 0, ())
            evaluations += 1
            if chosen is None or entry < chosen:
                chosen = entry
        best[t] = chosen

    total, _, boundaries = best[n]
    ivs = matrix.intervals.intervals
    points = tuple(ChangePoint(index=b + 1, interval=ivs[b]) for b in boundaries)
    return ChangePointSet(points=points, total_cost=total, evaluations=evaluations)


def enumerate_segmentations(n: int, min_seg: int):
    """Yield every admissible boundary tuple (0-based split positions)."""
    positions = range(min_seg, n - min_seg + 1)
    for r in range(0, n // min_seg):
        for combo in itertools.combinations(positions, r):
            bounds = (0,) + combo + (n,)
            if all(b2 - b1 >= min_seg for b1, b2 in zip(bounds, bounds[1:])):
                yield combo


def exhaustive_best_segmentation(cost_fn, n: int, beta: float, min_seg: int = 2):
    """Optimal segmentation by brute enumeration of boundary subsets.

    ``cost_fn(a, b)`` prices columns [a, b). Ties break toward fewer change
    points, then lexicographically earlier boundaries; returns (1-based
    indices, total cost).
    """
    best = None
    for combo in enumerate_segmentations(n, min_seg):
        bounds = (0,) + combo + (n,)
        cost = sum(cost_fn(b1, b2) for b1, b2 in zip(bounds, bounds[1:]))
        cost += beta * (len(bounds) - 1)
        key = (cost, len(combo), combo)
        if best is None or key < best:
            best = key
    return tuple(b + 1 for b in best[2]), best[0]


def lcg_normals(seed: int, count: int) -> list[float]:
    """Deterministic standard normals from a fixed 64-bit LCG + Box-Muller.

    Pure Python on purpose: fixture series frozen against reference
    statistics implementations must never shift with library versions.
    """
    state = seed & 0xFFFFFFFFFFFFFFFF
    out: list[float] = []

    def nxt() -> float:
        nonlocal state
        state = (6364136223846793005 * state + 1442695040888963407) % (1 << 64)
        return ((state >> 11) + 1) / (1 << 53)

    while len(out) < count:
        u1, u2 = nxt(), nxt()
        r = math.sqrt(-2.0 * math.log(u1))
        out.append(r * math.cos(2.0 * math.pi * u2))
        out.append(r * math.sin(2.0 * math.pi * u2))
    return out[:count]


def fixture_series(n: int = 200) -> tuple[list[float], list[float]]:
    """The frozen causal pair: y responds to x with lag 1 plus small noise."""
    x = lcg_normals(20210615, n)
    eps = lcg_normals(77000001, n)
    y = [0.0] * n
    y[0] = 0.1 * eps[0]
    for t in range(1, n):
        y[t] = 0.9 * x[t - 1] + 0.1 * eps[t]
    return y, x
