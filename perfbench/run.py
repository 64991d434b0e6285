"""Benchmark of ``driftscope analyze``: one workload, one seed, one run.

Usage, from the root of a driftscope checkout:

    python3 perfbench/run.py --workload csv-daily --seed 1 --seconds 25 --trace 0

The run generates the workload's input ``SETUP_REPEATS`` times in fresh
processes, then starts one worker process that times repeated analyses of
it (see ``worker.py``). The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.

End-to-end metrics:
  analyze_s    median wall time of one analysis, log file to report file
  peak_rss_mb  peak resident memory of the worker process
  setup_s      median time of one input generation, plus the worker's time
               from its start to its first timed operation
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import UNITS
from workloads import WORKLOADS

SETUP_REPEATS = 3
#: Every child process is stopped by this many seconds after the start.
DEADLINE_S = 170
BENCH_DIR = Path(__file__).resolve().parent


def child_env(root: Path) -> dict:
    """One interpreter thread per process, single-threaded BLAS, fixed hashing."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    package = root / "src" / "driftscope"
    if not (package / "__init__.py").is_file():
        return fail(f"no driftscope sources under {package}; run from a checkout's root")
    out = root / "perfbench" / "out"
    work = out / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    env = child_env(root)
    deadline = time.monotonic() + DEADLINE_S
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = time.monotonic()
            subprocess.run(
                [sys.executable, str(BENCH_DIR / "generate.py"),
                 args.workload, str(args.seed), str(work)],
                env=env, check=True, timeout=deadline - time.monotonic(),
                stdout=subprocess.DEVNULL,
            )
            setups.append(time.monotonic() - t0)

        trace_file = out / f"trace-{args.workload}-s{args.seed}.json" if args.trace else "-"
        spawned = time.monotonic()
        worker = subprocess.run(
            [sys.executable, str(BENCH_DIR / "worker.py"),
             args.workload, str(work), str(args.seconds), str(trace_file)],
            env=env, check=True, timeout=deadline - time.monotonic(),
            stdout=subprocess.PIPE, text=True,
        )
    except subprocess.CalledProcessError as exc:
        return fail(f"{Path(exc.cmd[1]).name} exited with {exc.returncode}")
    except subprocess.TimeoutExpired as exc:
        return fail(f"{Path(exc.cmd[1]).name} was stopped at the {DEADLINE_S} s deadline")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = json.loads(worker.stdout.strip().splitlines()[-1])
    if Path(result["driftscope"]).resolve().parent != package.resolve():
        return fail(f"worker imported driftscope from {result['driftscope']}, not {package}")
    if args.trace:
        metrics = {
            name: {"value": value, "unit": UNITS[name]}
            for name, value in result["layers"].items()
        }
    else:
        metrics = {
            "analyze_s": {"value": statistics.median(result["durations"]), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
            "setup_s": {
                "value": statistics.median(setups) + result["first_op_at"] - spawned,
                "unit": "s",
            },
        }
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
