"""The measured process: runs ``driftscope analyze`` repeatedly on one input.

Usage: python3 perfbench/worker.py <workload> <directory> <seconds> <trace-file or ->

``run.py`` starts this script after the input files exist, so its peak
resident memory is that of the analysis alone. Each operation is one call
of ``driftscope.cli.main`` with the workload's ``analyze`` arguments,
preceded by a garbage collection outside the timed region. Operations
repeat until the next one would end after ``seconds``, with at least
``MIN_OPERATIONS``. The outputs are then checked against the computations
in ``checks.py``. The last line of standard output is one JSON object.

With a trace file, the tracer from ``tracing.py`` records the spans and
the per-layer metrics are added to the output.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import checks
from workloads import CSV_DAILY_DRIFT, WORKLOADS, XES_LAG, XES_PLANTED

MIN_OPERATIONS = 3


class Capture:
    """Stands in for ``driftscope.cli.run`` and keeps what it was given and returned."""

    def __init__(self, run):
        self.run = run
        self.log = None
        self.report = None

    def __call__(self, log, config):
        self.log = log
        self.report = self.run(log, config)
        return self.report


def main(argv: list[str]) -> int:
    workload = WORKLOADS[argv[0]]
    directory = Path(argv[1])
    seconds = float(argv[2])
    trace_file = None if argv[3] == "-" else Path(argv[3])

    import driftscope
    import driftscope.cli as cli

    capture = Capture(cli.run)
    cli.run = capture
    tracer = None
    if trace_file is not None:
        from tracing import Tracer

        tracer = Tracer(scans=workload.scans)
        tracer.install()

    analyze = workload.analyze_argv(directory)
    report_path = directory / "report.json"
    per_op_problems: list[list[str]] = []
    signatures: list[str | None] = []
    samples: dict[str, tuple] = {}
    durations: list[float] = []

    first_op_at = time.monotonic()
    started = time.perf_counter()
    while True:
        gc.collect()
        t0 = time.perf_counter()
        try:
            if tracer is not None:
                code = tracer.operation(lambda: cli.main(analyze))
            else:
                code = cli.main(analyze)
        except Exception:
            traceback.print_exc()
            code = None
        durations.append(time.perf_counter() - t0)

        problems: list[str] = []
        signature = None
        if code != 0:
            problems.append(f"driftscope analyze exited with {code}")
        else:
            signature, sample = _output(report_path, capture.report)
            samples.setdefault(signature, sample)
            if workload.name == "xes-weekly":
                problems += checks.compare_parsed_log(capture.log, directory / "expected.tsv")
        capture.log = capture.report = None
        per_op_problems.append(problems)
        signatures.append(signature)

        elapsed = time.perf_counter() - started
        if (len(durations) >= MIN_OPERATIONS
                and elapsed + statistics.median(durations) > seconds):
            break

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    layers = None
    if tracer is not None:
        layers = tracer.metrics()
        tracer.write(trace_file)

    verdicts = {sig: _check(workload, directory, *sample) for sig, sample in samples.items()}
    failed = 0
    wrong = False
    for problems, signature in zip(per_op_problems, signatures):
        problems = problems + verdicts.get(signature, [])
        if problems:
            failed += 1
            wrong = wrong or signature is not None
            for line in problems[:5]:
                print(f"perfbench: {workload.name}: {line}", file=sys.stderr)

    print(json.dumps({
        "driftscope": driftscope.__file__,
        "first_op_at": first_op_at,
        "durations": durations,
        "attempted": len(durations),
        "failed": failed,
        "correct": not wrong,
        "peak_rss_mb": peak_rss_mb,
        "layers": layers,
    }))
    return 0


def _output(report_path: Path, report) -> tuple[str, tuple]:
    """Digest of one operation's written report and in-memory results."""
    text = report_path.read_bytes()
    digest = hashlib.sha256(text)
    for matrix in (report.primary_matrix, report.secondary_matrix):
        digest.update(matrix.values.tobytes())
    for cps in (report.primary_cps, report.secondary_cps):
        digest.update(repr((cps.indices, cps.total_cost)).encode())
    return digest.hexdigest(), (json.loads(text), report)


def _check(workload, directory: Path, written: dict, report) -> list[str]:
    """Problems with one distinct output; an empty list means it is right."""
    primary, secondary = report.primary_matrix, report.secondary_matrix
    problems = []
    for role, cps in (("primary", report.primary_cps), ("secondary", report.secondary_cps)):
        listed = tuple(cp["index"] for cp in written[f"{role}_cps"])
        if listed != cps.indices:
            problems.append(f"report file lists {role} drifts {listed}, run found {cps.indices}")
    config = written["config"]
    problems += checks.check_scans(written, primary, secondary)
    if workload.name in ("csv-daily", "hourly-flat"):
        recount = checks.recount_insurance_csv(
            directory / workload.log_file, config["interval_seconds"]
        )
        problems += checks.compare_insurance_matrices(recount, primary, secondary)
    if workload.name == "csv-daily":
        problems += checks.check_planted_insurance(written, CSV_DAILY_DRIFT)
    elif workload.name == "hourly-flat":
        msl = config["min_segment_length"]
        problems += checks.check_segmentation(
            "primary", primary, report.primary_cps, config["beta_primary"], msl)
        problems += checks.check_segmentation(
            "secondary", secondary, report.secondary_cps, config["beta_secondary"], msl)
    elif workload.name == "xes-weekly":
        recount = checks.recount_bpi_rows(directory / "expected.tsv", config["interval_seconds"])
        problems += checks.compare_bpi_matrices(recount, primary, secondary)
        problems += checks.check_planted_xes(written, XES_PLANTED, XES_LAG)
    return problems


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
