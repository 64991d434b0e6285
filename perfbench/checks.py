"""Computations made apart from driftscope, against which its outputs are checked.

None of these functions imports the program: counts and means come from
the input CSV, or from the XES generator's own rows, read with the standard
library; p-values from numpy least squares and ``scipy.stats.f.sf``; and
segmentations from an unpruned dynamic program.
Each check returns a list of problems; an empty list means the output is
right.
"""

from __future__ import annotations

import csv
import math
from datetime import datetime, timezone

import numpy as np

P_VALUE_RTOL = 1e-6
COST_RTOL = 1e-9
MEAN_RTOL = 1e-9


def _utc(text: str) -> datetime:
    ts = datetime.fromisoformat(text)
    if ts.tzinfo is not None:
        ts = ts.astimezone(timezone.utc).replace(tzinfo=None)
    return ts


def _offsets(origin: datetime, width_us: int):
    def bucket(ts: datetime) -> int:
        delta = ts - origin
        return ((delta.days * 86400 + delta.seconds) * 1_000_000 + delta.microseconds) // width_us
    return bucket


#: The aggregators of ``data:agg``, each applied to a non-empty list of values.
AGGREGATES = {
    "min": min,
    "max": max,
    "sum": math.fsum,
    "avg": lambda v: math.fsum(v) / len(v),
    "count": len,
    "set_avg": lambda v: math.fsum(set(v)) / len(set(v)),
}


def recount_insurance_csv(path, interval_seconds: float) -> dict:
    """Directly-follows counts and age aggregates per interval, from the CSV alone.

    A pair counts in the interval of its second event when both events lie
    in that interval. Returns the interval count, one array per ``"a->b"``
    pair seen, and one array per aggregator of :data:`AGGREGATES` over the
    ``age`` values of each interval (0 where an interval has no value).
    """
    cases: dict[str, list[tuple[datetime, str, str]]] = {}
    with open(path, encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            cases.setdefault(row["case_id"], []).append(
                (_utc(row["timestamp"]), row["activity"], row["age"])
            )
    origin = min(ts for events in cases.values() for ts, _, _ in events)
    last = max(ts for events in cases.values() for ts, _, _ in events)
    bucket_of = _offsets(origin, round(interval_seconds * 1_000_000))
    n = bucket_of(last)
    df: dict[str, np.ndarray] = {}
    ages: list[list[float]] = [[] for _ in range(n)]
    for events in cases.values():
        events.sort(key=lambda e: e[0])  # stable, like the program's ordering
        prev_bucket, prev_activity = None, None
        for ts, activity, age in events:
            bucket = bucket_of(ts)
            if bucket < n:
                if age != "":
                    ages[bucket].append(float(age))
                if prev_bucket == bucket:
                    key = f"{prev_activity}->{activity}"
                    df.setdefault(key, np.zeros(n))[bucket] += 1.0
            prev_bucket, prev_activity = bucket, activity
    age = {
        name: np.array([float(agg(v)) if v else 0.0 for v in ages])
        for name, agg in AGGREGATES.items()
    }
    return {"n": n, "df": df, "age": age}


def recount_bpi_rows(path, interval_seconds: float) -> dict:
    """Service times and workloads per interval, from the generated rows alone.

    ``path`` is the generator's ``expected.tsv``: (case, activity, UTC
    timestamp, resource, lifecycle) in log order. A complete event is paired
    with the latest open start of its activity in its case; its service time
    counts in the interval of the complete event. Returns the interval
    count, the mean service time per activity and interval (0 where none
    completes), and the events per resource and interval together with the
    ``active_resources`` and ``total_workload`` rows.
    """
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            case_id, activity, stamp, resource, lifecycle = line.rstrip("\n").split("\t")
            rows.append((case_id, activity, datetime.fromisoformat(stamp), resource, lifecycle))
    origin = min(r[2] for r in rows)
    bucket_of = _offsets(origin, round(interval_seconds * 1_000_000))
    n = bucket_of(max(r[2] for r in rows))
    service: dict[str, list[list[float]]] = {}
    workload: dict[str, np.ndarray] = {}
    open_starts: dict[tuple[str, str], list[datetime]] = {}
    for case_id, activity, ts, resource, lifecycle in rows:
        bucket = bucket_of(ts)
        per_bucket = service.setdefault(activity, [[] for _ in range(n)])
        counts = workload.setdefault(resource, np.zeros(n))
        if lifecycle == "start":
            open_starts.setdefault((case_id, activity), []).append(ts)
        elif lifecycle == "complete" and open_starts.get((case_id, activity)):
            started = open_starts[(case_id, activity)].pop()
            if bucket < n:
                per_bucket[bucket].append((ts - started).total_seconds())
        if bucket < n:
            counts[bucket] += 1.0
    busy = np.array(list(workload.values()))
    return {
        "n": n,
        "service_time": {
            activity: np.array([math.fsum(v) / len(v) if v else 0.0 for v in per_bucket])
            for activity, per_bucket in service.items()
        },
        "workload": {
            **{f"workload:{r}": row for r, row in workload.items()},
            "active_resources": (busy > 0).sum(axis=0).astype(float),
            "total_workload": busy.sum(axis=0),
        },
    }


def compare_rows(what: str, matrix, expected: dict, key_of, exact: bool) -> list[str]:
    """Each of the matrix's rows must equal ``expected[key_of(label)]``.

    Rows missing from ``expected`` must be all zero; keys of ``expected``
    that name no row are reported. Counts must match exactly, means to
    relative ``MEAN_RTOL``.
    """
    problems = []
    seen = set()
    for label, row in zip(matrix.labels, matrix.values):
        key = key_of(str(label))
        seen.add(key)
        want = expected.get(key, np.zeros(matrix.n_intervals))
        ok = row == want if exact else np.isclose(row, want, rtol=MEAN_RTOL, atol=0.0)
        if not ok.all():
            j = int(np.flatnonzero(~ok)[0])
            problems.append(
                f"{what} {key} in interval {j + 1}: report {float(row[j])!r}, "
                f"recount {float(want[j])!r}"
            )
    for key in sorted(set(expected) - seen):
        problems.append(f"{what} {key} occurs in the input but has no report row")
    return problems


def compare_insurance_matrices(recount: dict, primary, secondary) -> list[str]:
    """Check the report's df and age matrices against :func:`recount_insurance_csv`."""
    if primary.n_intervals != recount["n"]:
        return [f"report has {primary.n_intervals} intervals, the CSV gives {recount['n']}"]
    aggregators = {str(label).rsplit(".", 1)[1] for label in secondary.labels}
    return compare_rows(
        "df", primary, recount["df"], lambda label: label.split(":", 2)[2], exact=True
    ) + compare_rows(
        "age", secondary, {a: recount["age"][a] for a in aggregators},
        lambda label: label.rsplit(".", 1)[1], exact=False,
    )


def compare_bpi_matrices(recount: dict, primary, secondary) -> list[str]:
    """Check the service-time and workload matrices against :func:`recount_bpi_rows`."""
    if primary.n_intervals != recount["n"]:
        return [f"report has {primary.n_intervals} intervals, the rows give {recount['n']}"]
    return compare_rows(
        "service time", primary, recount["service_time"],
        lambda label: label.split(":", 2)[2], exact=False,
    ) + compare_rows(
        "resource", secondary, recount["workload"],
        lambda label: label.split(":", 1)[1], exact=True,
    )


def _ssr(design: np.ndarray, target: np.ndarray) -> float | None:
    """Residual sum of squares of the least-squares fit; None if rank deficient."""
    coef, _, rank, _ = np.linalg.lstsq(design, target, rcond=None)
    if rank < design.shape[1]:
        return None
    resid = target - design @ coef
    return float(resid @ resid)


def granger_p_values(effects: np.ndarray, causes: np.ndarray, lag: int) -> np.ndarray:
    """p-value of every (effect row, cause row) Granger F-test; nan where degenerate.

    The restricted model regresses the effect on an intercept and its own
    ``lag`` last values, the full model adds the cause's ``lag`` last values;
    ``scipy.stats.f.sf`` scores the drop in residual sum of squares. A pair
    is degenerate when the effect row is constant, when the cause is
    constant over the values its lags use, or when either design is rank
    deficient. A full model that fits to within 1e-12 of the target's
    spread is a perfect fit: p = 0 if it improved on the restricted model,
    else p = 1.
    """
    from scipy.stats import f as f_dist

    n = effects.shape[1]
    dof = n - lag - (2 * lag + 1)

    def lags(series):
        return np.column_stack([series[lag - j - 1: n - j - 1] for j in range(lag)])

    cause_lags = [None if np.ptp(x[: n - 1]) == 0 else lags(x) for x in causes]
    f_stats = np.full((len(effects), len(causes)), np.nan)
    for i, y in enumerate(effects):
        if np.ptp(y) == 0:
            continue
        target = y[lag:]
        restricted = np.column_stack([np.ones(n - lag), lags(y)])
        ssr_r = _ssr(restricted, target)
        if ssr_r is None:
            continue
        floor = max(float(((target - target.mean()) ** 2).sum()), 1.0) * 1e-12
        for j, x_lags in enumerate(cause_lags):
            if x_lags is None:
                continue
            ssr_u = _ssr(np.hstack([restricted, x_lags]), target)
            if ssr_u is None:
                continue
            if ssr_u < floor:
                f_stats[i, j] = 0.0 if ssr_r < floor else math.inf
            else:
                f_stats[i, j] = max(((ssr_r - ssr_u) / lag) / (ssr_u / dof), 0.0)
    return f_dist.sf(f_stats, lag, dof)


def check_scans(written: dict, primary, secondary) -> list[str]:
    """Every Granger scan the report implies, recomputed pair by pair.

    Each primary change point is scanned against each strictly earlier
    secondary change point, at their index difference, unless the series
    are too short for that lag (fewer than 2 residual degrees of freedom).
    The reported pairs of each scan must be exactly those below the
    p-value threshold, with matching p-values (pairs within relative
    ``P_VALUE_RTOL`` of the threshold may fall either way); a scan with no
    such pair must have no explanation. The degenerate and too-long counts
    in the report's metadata must match.
    """
    threshold = written["config"]["p_threshold"]
    n = written["intervals"]["count"]
    labels_p = [str(label) for label in primary.labels]
    labels_s = [str(label) for label in secondary.labels]
    index_p = {label: i for i, label in enumerate(labels_p)}
    index_s = {label: j for j, label in enumerate(labels_s)}
    reported = {(ex["primary_index"], ex["secondary_index"]): ex
                for ex in written["explanations"]}
    scans: dict[int, np.ndarray] = {}
    degenerate = too_long = 0
    problems = []
    for cp_p in written["primary_cps"]:
        for cp_s in written["secondary_cps"]:
            lag = cp_p["index"] - cp_s["index"]
            if lag <= 0:
                continue
            if n - lag - (2 * lag + 1) < 2:
                too_long += 1
                continue
            if lag not in scans:
                scans[lag] = granger_p_values(
                    np.asarray(primary.values, dtype=float),
                    np.asarray(secondary.values, dtype=float), lag)
            p = scans[lag]
            degenerate += int(np.isnan(p).sum())
            where = f"scan {cp_s['index']} -> {cp_p['index']} at lag {lag}"
            unsure = np.abs(p - threshold) <= P_VALUE_RTOL * threshold
            expected = {(i, j) for i, j in zip(*np.nonzero((p < threshold) & ~unsure))}
            ex = reported.pop((cp_p["index"], cp_s["index"]), None)
            got = set()
            for pair in ex["pairs"] if ex else ():
                i = index_p[pair["primary_label"]]
                j = index_s[pair["secondary_label"]]
                got.add((i, j))
                if not math.isclose(pair["p_value"], p[i, j], rel_tol=P_VALUE_RTOL, abs_tol=0.0):
                    problems.append(f"{where}: {labels_s[j]} -> {labels_p[i]} p-value "
                                    f"{pair['p_value']!r}, scipy gives {float(p[i, j])!r}")
            if ex and ex["lag"] != lag:
                problems.append(f"{where}: explanation reports lag {ex['lag']}")
            for what, ij in (("missing", expected - got),
                             ("not significant", {(i, j) for i, j in got - expected
                                                  if not unsure[i, j]})):
                if ij:
                    i, j = min(ij)
                    problems.append(f"{where}: {len(ij)} pairs {what}, such as "
                                    f"{labels_s[j]} -> {labels_p[i]} (p = {float(p[i, j])!r})")
    for key in reported:
        problems.append(f"explanation {key[1]} -> {key[0]} matches no preceding drift pair")
    meta = written["metadata"]
    if meta["skipped_degenerate_pairs"] != degenerate:
        problems.append(f"report skips {meta['skipped_degenerate_pairs']} degenerate pairs, "
                        f"recomputation finds {degenerate}")
    if meta["skipped_lag_pairs"] != too_long:
        problems.append(f"report skips {meta['skipped_lag_pairs']} drift pairs as too long, "
                        f"recomputation finds {too_long}")
    return problems


def normalize_max_abs(values: np.ndarray) -> np.ndarray:
    scale = np.abs(values).max(axis=1)
    scale[scale == 0] = 1.0
    return values / scale[:, None]


class Segments:
    """Squared deviation from the mean of any column range, via prefix sums."""

    def __init__(self, values: np.ndarray):
        m, n = values.shape
        self.sums = np.zeros((m, n + 1))
        self.sums[:, 1:] = np.cumsum(values, axis=1)
        self.squares = np.concatenate([[0.0], np.cumsum((values * values).sum(axis=0))])

    def cost(self, starts: np.ndarray, end: int) -> np.ndarray:
        """Cost of columns ``[s, end)`` for every ``s`` in ``starts``."""
        s = self.sums[:, end, None] - self.sums[:, starts]
        length = end - starts
        return self.squares[end] - self.squares[starts] - (s * s).sum(axis=0) / length


def unpruned_optimum(values: np.ndarray, beta: float, min_length: int) -> float:
    """Least penalised cost over all segmentations: every transition is priced."""
    n = values.shape[1]
    seg = Segments(values)
    best = np.full(n + 1, np.inf)
    best[0] = 0.0
    for t in range(min_length, n + 1):
        starts = np.concatenate([[0], np.arange(min_length, t - min_length + 1)])
        best[t] = (best[starts] + seg.cost(starts, t)).min() + beta
    return float(best[n])


def price(values: np.ndarray, beta: float, change_points) -> float:
    """Penalised cost of the segmentation that starts new segments at ``change_points``."""
    seg = Segments(values)
    bounds = [0] + [i - 1 for i in change_points] + [values.shape[1]]
    return sum(
        float(seg.cost(np.array([a]), b)[0]) + beta for a, b in zip(bounds, bounds[1:])
    )


def check_segmentation(role: str, matrix, cps, beta: float, min_length: int) -> list[str]:
    """The reported total cost and change points must reach the exhaustive optimum."""
    values = normalize_max_abs(np.asarray(matrix.values, dtype=float))
    optimum = unpruned_optimum(values, beta, min_length)
    problems = []
    if not math.isclose(cps.total_cost, optimum, rel_tol=COST_RTOL):
        problems.append(f"{role}: total_cost {cps.total_cost!r}, optimum {optimum!r}")
    priced = price(values, beta, cps.indices)
    if not math.isclose(priced, optimum, rel_tol=COST_RTOL):
        problems.append(
            f"{role}: change points {cps.indices} cost {priced!r}, optimum {optimum!r}"
        )
    return problems


def compare_parsed_log(log, expected_path) -> list[str]:
    """The parsed log must hold exactly the generated cases and events, in order."""
    parsed = _parsed_rows(log)
    number = 0
    with open(expected_path, encoding="utf-8") as fh:
        for number, line in enumerate(fh, start=1):
            expected = tuple(line.rstrip("\n").split("\t"))
            event = next(parsed, None)
            if event != expected:
                return [f"event {number}: parsed {event}, generated {expected}"]
    if log.event_count != number:
        return [f"parsed {log.event_count} events, generated {number}"]
    return []


def _parsed_rows(log):
    for case_id, case in log.cases.items():
        for e in case.events:
            yield (case_id, e.activity, e.timestamp.isoformat(), e.resource, e.lifecycle)


def check_planted_xes(report: dict, planted, lag: int, slack: int = 2) -> list[str]:
    """Each planted (secondary, primary) drift pair is explained at the planted lag."""
    problems = []
    for s_index, p_index in planted:
        if not any(
            abs(ex["secondary_index"] - s_index) <= slack
            and abs(ex["primary_index"] - p_index) <= slack
            and ex["lag"] == lag
            and ex["pairs"]
            for ex in report["explanations"]
        ):
            problems.append(
                f"no explanation at lag {lag} near the planted drifts "
                f"{s_index} -> {p_index}"
            )
    return problems


def check_planted_insurance(report: dict, drift_index: int, slack: int = 3) -> list[str]:
    """A secondary drift near the planted day, and a primary drift after it."""
    near = [cp["index"] for cp in report["secondary_cps"]
            if abs(cp["index"] - drift_index) <= slack]
    if not near:
        return [f"no secondary change point within {slack} of interval {drift_index}"]
    if not any(cp["index"] > min(near) for cp in report["primary_cps"]):
        return [f"no primary change point after the secondary drift at {min(near)}"]
    return []
