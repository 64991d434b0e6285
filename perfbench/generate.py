"""Write one workload's input files for one seed.

Usage: python3 perfbench/generate.py <workload> <seed> <directory>

Run from the root of a driftscope checkout. The insurance logs are written
by the program's own ``driftscope generate``; the XES log comes from the
benchmark's generator and writer in ``bpilike.py``, together with the rows
the parsed log must reproduce (``expected.tsv``). ``run.py`` times this
script as one set-up.
"""

from __future__ import annotations

import sys
from pathlib import Path

import bpilike
from workloads import WORKLOADS


def main(argv: list[str]) -> int:
    name, seed, directory = argv[0], int(argv[1]), Path(argv[2])
    workload = WORKLOADS[name]
    directory.mkdir(parents=True, exist_ok=True)
    if workload.log_file.endswith(".xes"):
        cases = bpilike.generate(seed)
        bpilike.write_xes(cases, directory / workload.log_file)
        with open(directory / "expected.tsv", "w", encoding="utf-8") as fh:
            for row in bpilike.expected_rows(cases):
                fh.write("\t".join(row) + "\n")
        return 0

    from driftscope.cli import main as driftscope_main

    return driftscope_main([
        "generate",
        "--seed", str(seed),
        "--days", str(workload.days),
        "--cases-per-day", str(workload.cases_per_day),
        "--drift-day", str(workload.drift_day),
        "--out-csv", str(directory / workload.log_file),
        "--write-mapping", str(directory / "mapping.json"),
    ])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
