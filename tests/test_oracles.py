"""Checks on the test oracles themselves, which live in ``conftest.py``."""

import numpy as np
import pytest

from driftscope.errors import SpanTooShort
from driftscope.timeseries import TimeSeriesMatrix

from conftest import brute_force_optimal


def _matrix(rows) -> TimeSeriesMatrix:
    return TimeSeriesMatrix.from_rows(rows)


def test_brute_force_short_series_rejected():
    m = _matrix([[1.0, 2.0, 3.0]])
    with pytest.raises(SpanTooShort):
        brute_force_optimal(m, beta=1.0, min_segment_length=2)


def test_brute_force_input_cap():
    m = _matrix(np.zeros((1, 65)))
    with pytest.raises(ValueError):
        brute_force_optimal(m, beta=1.0)
