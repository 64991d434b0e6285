"""End-to-end drift analysis: build series, detect drifts, explain them.

A :class:`FrameworkConfig` names the primary perspective (where drifts are
to be explained) and the secondary perspective (where causes are sought).
Both series are built over the same interval sequence; change points are
detected separately with their own penalties; and every primary change
point is tested against every strictly preceding secondary change point at
the lag given by their index difference. Primary drifts with no surviving
causal pair are reported as unexplained. The whole analysis is
deterministic: identical data and configuration yield identical reports.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field, fields

import numpy as np

from . import __version__
from .causality import (
    CausalPair, check_p_threshold, lag_between, min_series_length, test_all_pairs,
)
from .changepoint import ChangePoint, ChangePointSet, PeltConfig, pelt
from .errors import ConfigInvalid
from .model import EventLog
from .timeseries import (
    ExtractorSpec,
    IntervalSequence,
    TimeSeriesMatrix,
    build_intervals,
    build_time_series,
    duration_to_us,
    render_spec,
)


@dataclass
class FrameworkConfig:
    """Configuration for one drift analysis run."""

    primary_specs: list[ExtractorSpec]
    secondary_specs: list[ExtractorSpec]
    interval_seconds: float
    beta_primary: float = 3.0
    beta_secondary: float = 1.5
    p_threshold: float = 0.05
    normalization: str = PeltConfig.normalize
    min_segment_length: int = PeltConfig.min_segment_length

    def __post_init__(self):
        for role in ("primary", "secondary"):
            specs = getattr(self, f"{role}_specs")
            if not (isinstance(specs, (list, tuple)) and specs
                    and all(isinstance(s, ExtractorSpec) for s in specs)):
                raise ConfigInvalid(f"{role} extractors must be a non-empty list of specs, "
                                    f"got {specs!r}")
            setattr(self, f"{role}_specs", list(specs))
            perspectives = {s.perspective for s in specs}
            if len(perspectives) != 1:
                raise ConfigInvalid(
                    f"{role} extractors must share one perspective, got {sorted(perspectives)}"
                )
        duration_to_us(self.interval_seconds)
        check_p_threshold(self.p_threshold)
        self.pelt_config("primary")
        self.pelt_config("secondary")
        for f in fields(self):  # a numpy scalar is kept as the Python number JSON writes
            if isinstance(value := getattr(self, f.name), np.generic):
                setattr(self, f.name, value.item())

    def pelt_config(self, role: str) -> PeltConfig:
        """PELT settings of the ``primary`` or ``secondary`` series."""
        return PeltConfig(getattr(self, f"beta_{role}"), self.min_segment_length,
                          self.normalization, f"beta_{role}")

    def to_dict(self) -> dict:
        return {
            "primary": {
                "perspective": self.primary_specs[0].perspective,
                "specs": [render_spec(s) for s in self.primary_specs],
            },
            "secondary": {
                "perspective": self.secondary_specs[0].perspective,
                "specs": [render_spec(s) for s in self.secondary_specs],
            },
            "interval_seconds": self.interval_seconds,
            "beta_primary": self.beta_primary,
            "beta_secondary": self.beta_secondary,
            "p_threshold": self.p_threshold,
            "normalization": self.normalization,
            "min_segment_length": self.min_segment_length,
        }


@dataclass(frozen=True)
class DriftExplanation:
    """One primary drift linked to one preceding secondary drift."""

    primary: ChangePoint
    secondary: ChangePoint
    lag: int
    pairs: tuple[CausalPair, ...]


def cp_entry(intervals: IntervalSequence, cp: ChangePoint) -> dict:
    """A change point as a report lists it: its index and its interval's start."""
    start = intervals.start_datetime(cp.index - 1)
    return {"index": cp.index, "interval_start_iso": start.isoformat()}


@dataclass
class AnalysisReport:
    config: FrameworkConfig
    intervals: IntervalSequence
    primary_matrix: TimeSeriesMatrix
    secondary_matrix: TimeSeriesMatrix
    primary_cps: ChangePointSet
    secondary_cps: ChangePointSet
    explanations: tuple[DriftExplanation, ...]
    unexplained: tuple[int, ...]
    metadata: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "intervals": {
                "duration_s": self.intervals.duration_seconds,
                "count": len(self.intervals),
                "start_iso": self.intervals.origin.isoformat(),
            },
            "primary_cps": [cp_entry(self.intervals, cp) for cp in self.primary_cps],
            "secondary_cps": [cp_entry(self.intervals, cp) for cp in self.secondary_cps],
            "explanations": [
                {
                    "primary_index": ex.primary.index,
                    "secondary_index": ex.secondary.index,
                    "lag": ex.lag,
                    "pairs": [
                        {
                            "primary_label": str(p.primary_label),
                            "secondary_label": str(p.secondary_label),
                            "p_value": p.p_value,
                        }
                        for p in ex.pairs
                    ],
                }
                for ex in self.explanations
            ],
            "unexplained": list(self.unexplained),
            "metadata": self.metadata,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


def run(log: EventLog, config: FrameworkConfig) -> AnalysisReport:
    """Run the full analysis on a validated log."""
    intervals = build_intervals(log, config.interval_seconds)
    primary = build_time_series(log, intervals, config.primary_specs)
    secondary = build_time_series(log, intervals, config.secondary_specs)

    primary_cps = pelt(primary, config.pelt_config("primary"))
    secondary_cps = pelt(secondary, config.pelt_config("secondary"))

    n = len(intervals)
    explanations: list[DriftExplanation] = []
    skipped_degenerate = skipped_lag_pairs = 0
    # the scan depends only on the lag, so each lag is scanned once
    scan = functools.cache(lambda k: test_all_pairs(primary, secondary, k, config.p_threshold))
    for cp_p in primary_cps:
        for cp_s in reversed(secondary_cps.points):  # latest first: lags ascend
            if cp_s.index >= cp_p.index:
                continue
            k = lag_between(intervals, cp_s, cp_p)
            if n < min_series_length(k):
                skipped_lag_pairs += 1
                continue
            found = scan(k)
            skipped_degenerate += found.skipped_degenerate
            if found.pairs:
                explanations.append(
                    DriftExplanation(primary=cp_p, secondary=cp_s, lag=k, pairs=found.pairs)
                )
    explained = {ex.primary.index for ex in explanations}
    unexplained = tuple(cp.index for cp in primary_cps if cp.index not in explained)

    metadata = {
        "tool_version": __version__,
        "normalization": config.normalization,
        "dropped_tail_seconds": intervals.dropped_tail_us / 1e6,
        "dropped_tail_events": int((intervals.bucket(log.columns.time_us) == n).sum()),
        "catalog": {
            "activities": len(log.activities),
            "resources": len(log.resources),
            "event_attributes": len(log.event_attr_types),
            "case_attributes": len(log.case_attr_types),
        },
        "cases": log.case_count,
        "events": log.event_count,
        "skipped_degenerate_pairs": skipped_degenerate,
        "skipped_lag_pairs": skipped_lag_pairs,
        "warnings": sorted(set(primary.warnings) | set(secondary.warnings)),
        "ingestion_notes": dict(log.meta),
    }
    return AnalysisReport(
        config=config,
        intervals=intervals,
        primary_matrix=primary,
        secondary_matrix=secondary,
        primary_cps=primary_cps,
        secondary_cps=secondary_cps,
        explanations=tuple(explanations),
        unexplained=unexplained,
        metadata=metadata,
    )
