"""Command line interface.

Four subcommands: ``analyze`` runs the full drift analysis and writes a
JSON report; ``extract`` dumps the raw feature series per perspective as
CSV; ``detect`` runs change-point detection on one feature matrix; and
``generate`` produces the synthetic insurance log.

Exit codes: 0 on success, 2 for usage or configuration errors, 3 when the
input cannot be ingested, 4 when the analysis cannot run on the given data.
Progress goes to stderr (level set via ``DRIFTSCOPE_LOG_LEVEL``); stdout is
never used for data.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import re
import sys
from pathlib import Path

from . import __version__
from .changepoint import NORMALIZATIONS, PeltConfig, pelt
from .errors import AnalysisError, ConfigInvalid, IngestionError, ValidationError
from .ingest import CsvMapping, parse_csv, parse_xes, write_csv, write_xes
from .model import EventLog
from .pipeline import FrameworkConfig, cp_entry, run
from .synthetic import GeneratorConfig, generate
from .timeseries import (
    build_intervals,
    build_time_series,
    parse_spec,
    write_series_csv,
)

log = logging.getLogger("driftscope")

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INGESTION = 3
EXIT_ANALYSIS = 4

_DURATION_UNITS = {"s": 1, "m": 60, "h": 3600, "d": 86400, "w": 604800}

#: Mapping used for logs written by the synthetic generator.
GENERATOR_MAPPING = CsvMapping(
    case_id_col="case_id",
    activity_col="activity",
    timestamp_col="timestamp",
    resource_col="resource",
    event_attr_cols=("age",),
)

#: ``GeneratorConfig`` fields that ``generate`` takes as flags, typed and
#: defaulted as the fields are.
_GENERATOR_FLAGS = ("seed", "days", "cases_per_day", "drift_day", "pre_age_mean",
                    "post_age_mean", "age_stddev", "email_max_age", "phone_max_age")


def parse_duration(text: str) -> float:
    """Parse ``<count><unit>`` durations like 30s, 15m, 6h, 1d, 2w into seconds."""
    m = re.fullmatch(r"\s*(\d+)([smhdw])\s*", text)
    if not m:
        raise ConfigInvalid(
            f"cannot parse interval {text!r}; expected <integer><unit> with unit "
            "s, m, h, d or w"
        )
    try:
        return float(int(m.group(1)) * _DURATION_UNITS[m.group(2)])
    except OverflowError:
        raise ConfigInvalid(f"interval {text!r} is too long") from None


def _setup_logging() -> None:
    level_name = os.environ.get("DRIFTSCOPE_LOG_LEVEL", "warn").lower()
    if level_name not in ("error", "warn", "info", "debug"):
        print(f"driftscope: unknown DRIFTSCOPE_LOG_LEVEL {level_name!r}; using warn",
              file=sys.stderr)
        level_name = "warn"
    # logging knows WARN as another name of WARNING
    logging.basicConfig(stream=sys.stderr, level=level_name.upper(),
                        format="%(levelname)s %(name)s: %(message)s")


def _load_log(args: argparse.Namespace) -> EventLog:
    fmt = args.format
    if fmt == "auto":
        fmt = "xes" if str(args.log).lower().endswith(".xes") else "csv"
    if fmt == "xes":
        return parse_xes(args.log)
    if args.mapping is None:
        raise ConfigInvalid("--mapping is required for CSV input")
    mapping = CsvMapping.from_json_file(args.mapping)
    return parse_csv(args.log, mapping)


def _add_input_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--log", required=True, help="path to the event log")
    sub.add_argument(
        "--format",
        choices=("csv", "xes", "auto"),
        default="auto",
        help="input format (auto: by file extension)",
    )
    sub.add_argument("--mapping", help="JSON column mapping (required for CSV input)")
    sub.add_argument(
        "--interval",
        required=True,
        help="interval duration, e.g. 30s, 15m, 6h, 1d, 2w",
    )


def _specs(texts: list[str]):
    return [parse_spec(t) for t in texts]


def cmd_analyze(args: argparse.Namespace) -> int:
    event_log = _load_log(args)
    config = FrameworkConfig(
        primary_specs=_specs(args.primary),
        secondary_specs=_specs(args.secondary),
        interval_seconds=parse_duration(args.interval),
        beta_primary=args.beta_primary,
        beta_secondary=args.beta_secondary,
        p_threshold=args.p_value,
        normalization=args.normalize,
        min_segment_length=args.min_segment,
    )
    log.info(
        "analyzing %d events in %d cases", event_log.event_count, event_log.case_count
    )
    report = run(event_log, config)
    Path(args.out).write_text(report.to_json(), encoding="utf-8")
    log.info(
        "%d primary and %d secondary change point(s), %d explanation(s)",
        len(report.primary_cps),
        len(report.secondary_cps),
        len(report.explanations),
    )
    return EXIT_OK


def cmd_extract(args: argparse.Namespace) -> int:
    event_log = _load_log(args)
    specs = _specs(args.spec)
    by_perspective: dict[str, list] = {}
    for spec in specs:
        by_perspective.setdefault(spec.perspective, []).append(spec)
    intervals = build_intervals(event_log, parse_duration(args.interval), min_intervals=1)
    out_dir = Path(args.series_out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for perspective, group in by_perspective.items():
        matrix = build_time_series(event_log, intervals, group)
        target = out_dir / f"{perspective}.csv"
        write_series_csv(matrix, target)
        log.info("wrote %s (%d features x %d intervals)",
                 target, matrix.n_features, matrix.n_intervals)
    return EXIT_OK


def cmd_detect(args: argparse.Namespace) -> int:
    event_log = _load_log(args)
    intervals = build_intervals(event_log, parse_duration(args.interval))
    matrix = build_time_series(event_log, intervals, _specs(args.spec))
    result = pelt(matrix, PeltConfig(args.beta, args.min_segment, args.normalize))
    payload = [cp_entry(intervals, cp) for cp in result]
    Path(args.out).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    log.info("%d change point(s) written to %s", len(result), args.out)
    return EXIT_OK


def cmd_generate(args: argparse.Namespace) -> int:
    config = GeneratorConfig(**{name: getattr(args, name) for name in _GENERATOR_FLAGS})
    event_log = generate(config)
    if args.out_csv:
        write_csv(event_log, GENERATOR_MAPPING, args.out_csv)
        log.info("wrote %s", args.out_csv)
    if args.out_xes:
        write_xes(event_log, args.out_xes)
        log.info("wrote %s", args.out_xes)
    if args.write_mapping:
        Path(args.write_mapping).write_text(
            json.dumps(GENERATOR_MAPPING.to_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        log.info("wrote %s", args.write_mapping)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="driftscope",
        description="Explainable concept drift detection for process event logs.",
    )
    parser.add_argument("--version", action="version", version=f"driftscope {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="full drift analysis with a JSON report")
    _add_input_args(analyze)
    analyze.add_argument(
        "--primary",
        action="append",
        required=True,
        help="primary extractor, e.g. control_flow:df (repeatable)",
    )
    analyze.add_argument(
        "--secondary",
        action="append",
        required=True,
        help="secondary extractor, e.g. data:agg(age) (repeatable)",
    )
    analyze.add_argument("--beta-primary", type=float, default=FrameworkConfig.beta_primary)
    analyze.add_argument("--beta-secondary", type=float, default=FrameworkConfig.beta_secondary)
    analyze.add_argument("--p-value", type=float, default=FrameworkConfig.p_threshold,
                         help="significance threshold for causal pairs")
    analyze.add_argument("--normalize", choices=NORMALIZATIONS,
                         default=FrameworkConfig.normalization)
    analyze.add_argument("--min-segment", type=int, default=FrameworkConfig.min_segment_length)
    analyze.add_argument("--out", required=True, help="path for the JSON report")
    analyze.set_defaults(handler=cmd_analyze)

    extract = sub.add_parser("extract", help="write feature series CSVs per perspective")
    _add_input_args(extract)
    extract.add_argument(
        "--spec",
        action="append",
        required=True,
        help="extractor to evaluate, e.g. performance:sojourn (repeatable)",
    )
    extract.add_argument("--series-out", required=True, help="output directory")
    extract.set_defaults(handler=cmd_extract)

    detect = sub.add_parser("detect", help="change points of one feature matrix")
    _add_input_args(detect)
    detect.add_argument("--spec", action="append", required=True,
                        help="extractor to evaluate (repeatable)")
    detect.add_argument("--beta", type=float, default=FrameworkConfig.beta_primary)
    detect.add_argument("--normalize", choices=NORMALIZATIONS, default=PeltConfig.normalize)
    detect.add_argument("--min-segment", type=int, default=PeltConfig.min_segment_length)
    detect.add_argument("--out", required=True, help="path for the JSON change-point list")
    detect.set_defaults(handler=cmd_detect)

    gen = sub.add_parser("generate", help="generate the synthetic insurance log")
    for name in _GENERATOR_FLAGS:
        default = getattr(GeneratorConfig, name)
        gen.add_argument(f"--{name.replace('_', '-')}", type=type(default), default=default)
    gen.add_argument("--out-csv", help="write the log as CSV")
    gen.add_argument("--out-xes", help="write the log as XES")
    gen.add_argument("--write-mapping", help="write the CSV column mapping as JSON")
    gen.set_defaults(handler=cmd_generate)
    return parser


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors and 0 for --help/--version
        return int(exc.code or 0)
    if args.command == "generate" and not (args.out_csv or args.out_xes):
        print("driftscope generate: at least one of --out-csv/--out-xes is required",
              file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.handler(args)
    except ConfigInvalid as exc:
        print(f"driftscope: configuration error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (IngestionError, ValidationError, OSError) as exc:
        print(f"driftscope: cannot ingest input: {exc}", file=sys.stderr)
        return EXIT_INGESTION
    except AnalysisError as exc:
        print(f"driftscope: analysis failed: {exc}", file=sys.stderr)
        return EXIT_ANALYSIS


if __name__ == "__main__":
    sys.exit(main())
