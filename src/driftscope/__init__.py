"""Explainable concept drift detection for business process event logs.

The package turns an event log into per-perspective feature time series,
detects change points in a primary and a secondary perspective, and tests
whether the secondary drifts Granger-cause the primary ones.
"""

__version__ = "0.1.0"

from .causality import (  # noqa: F401
    CausalPair,
    GrangerResult,
    PairScan,
    granger_test,
    lag_between,
    test_all_pairs,
)
from .changepoint import (  # noqa: F401
    ChangePoint,
    ChangePointSet,
    PeltConfig,
    normalize,
    pelt,
)
from .ingest import CsvMapping, parse_csv, parse_xes, write_csv, write_xes  # noqa: F401
from .model import Case, Event, EventLog, sort_and_validate  # noqa: F401
from .pipeline import AnalysisReport, DriftExplanation, FrameworkConfig, run  # noqa: F401
from .synthetic import GeneratorConfig, generate  # noqa: F401
from .timeseries import (  # noqa: F401
    ExtractorSpec,
    FeatureLabel,
    IntervalSequence,
    TimeInterval,
    TimeSeriesMatrix,
    build_intervals,
    build_time_series,
    parse_spec,
    write_series_csv,
)
