"""Explainable concept drift detection for business process event logs.

The package turns an event log into per-perspective feature time series,
detects change points in a primary and a secondary perspective, and tests
whether the secondary drifts Granger-cause the primary ones.
"""

__version__ = "0.1.0"
