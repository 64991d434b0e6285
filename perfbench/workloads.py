"""The benchmark's workloads: how each input is made and how it is analysed.

Each workload names the ``driftscope analyze`` arguments it runs and the
spans its traced run must see. Inputs are generated from the run's seed
alone (see ``generate.py``), so the same seed always gives the same files.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import bpilike


@dataclass(frozen=True)
class Workload:
    name: str
    log_file: str
    interval: str
    primary: tuple[str, ...]
    secondary: tuple[str, ...]
    options: tuple[str, ...] = ()
    #: Parameters of ``driftscope generate`` for the insurance logs.
    days: int = 0
    cases_per_day: int = 0
    drift_day: int = 0
    #: Whether the Granger scan runs, so that its spans must fire.
    scans: bool = True

    def analyze_argv(self, directory: Path) -> list[str]:
        argv = ["analyze", "--log", str(directory / self.log_file)]
        if self.log_file.endswith(".csv"):
            argv += ["--mapping", str(directory / "mapping.json")]
        argv += ["--interval", self.interval]
        for spec in self.primary:
            argv += ["--primary", spec]
        for spec in self.secondary:
            argv += ["--secondary", spec]
        return argv + list(self.options) + ["--out", str(directory / "report.json")]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="csv-daily",
            log_file="input.csv",
            interval="1d",
            primary=("control_flow:df",),
            secondary=("data:agg(age,avg)", "data:agg(age,set_avg)"),
            days=520,
            cases_per_day=100,
            drift_day=260,
        ),
        Workload(
            name="hourly-flat",
            log_file="input.csv",
            interval="1h",
            primary=("control_flow:df",),
            secondary=("data:agg(age)",),
            days=40,
            cases_per_day=20,
            drift_day=20,
            scans=False,
        ),
        Workload(
            name="xes-weekly",
            log_file="input.xes",
            interval="1w",
            primary=("performance:service_time",),
            secondary=("resource:workload",),
            # The default secondary penalty of 1.5 puts a change point in
            # every second week of the 152-row workload matrix; 25 recovers
            # exactly the planted steps.
            options=("--beta-secondary", "25", "--p-value", "0.015"),
        ),
    )
}

#: 1-based interval of the planted data drift in the insurance logs.
CSV_DAILY_DRIFT = WORKLOADS["csv-daily"].drift_day
XES_PLANTED = bpilike.planted_change_points()
XES_LAG = bpilike.LAG
