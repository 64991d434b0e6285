"""Steadiness command: repeat the benchmark and summarise each metric's spread.

Usage, from the root of a driftscope checkout:

    python3 perfbench/steady.py --runs 10 --first-seed 1
    python3 perfbench/steady.py --workload xes-weekly --runs 5 --traced-runs 2

Each run is one ``perfbench/run.py`` process of ``run_seconds`` from
``BENCHMARK.json``, with its own seed (``first-seed``, ``first-seed + 1``,
...). The workloads take turns, one run each per seed, so that a slow phase
of the host is shared among them instead of landing on one workload's whole
set. For every workload and end-to-end metric this prints the median, the
first and third quartile as ``statistics.quantiles(values, n=4)`` gives
them, and the spread: the distance between the quartiles as a share of the
median, next to the metric's bound from ``BENCHMARK.json``. With
``--traced-runs``, it also runs traced and reports the tracing overhead:
the traced median of ``cli.main_s`` against the untraced median of
``analyze_s``.

The summary is written to ``perfbench/out/steady-<first-seed>-<time>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main() -> int:
    bench = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--traced-runs", type=int, default=0)
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seeds = range(args.first_seed, args.first_seed + args.runs)

    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    for seed in seeds:
        for workload in workloads:
            result = run_once(workload, seed, seconds, 0)
            runs[workload].append(result)
            values = "  ".join(
                f"{name}={m['value']:.4f}" for name, m in result["metrics"].items()
            )
            print(f"{workload} seed={seed} attempted={result['attempted']} "
                  f"failed={result['failed']} correct={result['correct']}  {values}",
                  flush=True)
    traced: dict[str, list[dict]] = {w: [] for w in workloads}
    for seed in seeds[: args.traced_runs]:
        for workload in workloads:
            traced[workload].append(run_once(workload, seed, seconds, 1))

    summary = {"runs": args.runs, "first_seed": args.first_seed,
               "seconds": seconds, "workloads": {}}
    for workload in workloads:
        results = runs[workload]
        entry = {
            "results": results,
            "failed_share": (sum(r["failed"] for r in results)
                             / sum(r["attempted"] for r in results)),
            "correct": all(r["correct"] for r in results),
            "metrics": {},
        }
        for name, bound in bounds.items():
            stats = summarise([r["metrics"][name]["value"] for r in results])
            stats["bound"] = bound
            entry["metrics"][name] = stats
            print(f"{workload:12s} {name:12s} median={stats['median']:.4f} "
                  f"q1={stats['q1']:.4f} q3={stats['q3']:.4f} "
                  f"spread={stats['spread']:.3f} bound={bound}")
        if traced[workload]:
            entry["traced"] = traced[workload]
            traced_s = statistics.median(
                r["metrics"]["cli.main_s"]["value"] for r in traced[workload])
            untraced_s = entry["metrics"]["analyze_s"]["median"]
            entry["tracing_overhead"] = traced_s / untraced_s - 1.0
            print(f"{workload:12s} traced cli.main_s median={traced_s:.4f} "
                  f"overhead={entry['tracing_overhead']:+.3f}")
        print(f"{workload:12s} failed share={entry['failed_share']} "
              f"correct={entry['correct']}")
        summary["workloads"][workload] = entry

    out = Path("perfbench/out")
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"steady-{args.first_seed}-{time.strftime('%Y%m%dT%H%M%S')}.json"
    path.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
