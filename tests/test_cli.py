"""Command line behavior: exit codes, outputs, determinism."""

import csv
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from driftscope.cli import GENERATOR_MAPPING, main, parse_duration
from driftscope.errors import ConfigInvalid
from driftscope.ingest import CsvMapping

from conftest import CLAIMS_CSV

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _write_mapping(tmp_path, mapping: CsvMapping):
    path = tmp_path / "mapping.json"
    path.write_text(json.dumps(mapping.to_dict()), encoding="utf-8")
    return path


def _generate_small(tmp_path, days=30, cases=5, drift=15):
    log_path = tmp_path / "log.csv"
    mapping_path = tmp_path / "mapping.json"
    rc = main(
        [
            "generate",
            "--days", str(days),
            "--cases-per-day", str(cases),
            "--drift-day", str(drift),
            "--out-csv", str(log_path),
            "--write-mapping", str(mapping_path),
        ]
    )
    assert rc == 0
    return log_path, mapping_path


# ---------------------------------------------------------------- durations


def test_parse_duration_units():
    assert parse_duration("30s") == 30.0
    assert parse_duration("15m") == 900.0
    assert parse_duration("6h") == 21600.0
    assert parse_duration("1d") == 86400.0
    assert parse_duration("2w") == 1209600.0
    assert parse_duration(" 7d ") == 7 * 86400.0


@pytest.mark.parametrize("bad", ["", "d", "90x", "1.5h", "-3d", "3 d", "h3",
                                 pytest.param("1" + "0" * 400 + "s", id="1e400s")])
def test_parse_duration_rejects(bad):
    with pytest.raises(ConfigInvalid):
        parse_duration(bad)


# --------------------------------------------------------------- exit codes


def test_version_exits_zero(capsys):
    assert main(["--version"]) == 0
    assert "driftscope" in capsys.readouterr().out


def test_missing_subcommand_is_usage_error(capsys):
    assert main([]) == 2


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["obliterate"]) == 2


def test_generate_requires_an_output(tmp_path, capsys):
    assert main(["generate"]) == 2
    assert "--out-csv/--out-xes" in capsys.readouterr().err


def test_generate_validates_config(tmp_path, capsys):
    rc = main(["generate", "--days", "30", "--drift-day", "50",
               "--out-csv", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "configuration error" in capsys.readouterr().err


def test_csv_input_requires_mapping(tmp_path, capsys):
    log_path = tmp_path / "log.csv"
    log_path.write_text(CLAIMS_CSV, encoding="utf-8")
    rc = main(["analyze", "--log", str(log_path), "--interval", "1h",
               "--primary", "control_flow:df", "--secondary", "data:event_count",
               "--out", str(tmp_path / "r.json")])
    assert rc == 2
    assert "--mapping" in capsys.readouterr().err


def test_unknown_extractor_is_usage_error_with_hint(tmp_path, capsys):
    log_path, mapping_path = _generate_small(tmp_path)
    rc = main(["analyze", "--log", str(log_path), "--mapping", str(mapping_path),
               "--interval", "1d", "--primary", "control_flow:dff",
               "--secondary", "data:agg(age)", "--out", str(tmp_path / "r.json")])
    assert rc == 2
    assert "did you mean control_flow:df?" in capsys.readouterr().err


def test_missing_input_file_is_ingestion_error(tmp_path, capsys):
    mapping_path = _write_mapping(tmp_path, GENERATOR_MAPPING)
    rc = main(["analyze", "--log", str(tmp_path / "nope.csv"),
               "--mapping", str(mapping_path), "--interval", "1d",
               "--primary", "control_flow:df", "--secondary", "data:event_count",
               "--out", str(tmp_path / "r.json")])
    assert rc == 3
    assert "cannot ingest" in capsys.readouterr().err


def test_unparseable_timestamp_is_ingestion_error(tmp_path, capsys):
    log_path = tmp_path / "log.csv"
    log_path.write_text(
        "case,activity,timestamp,resource\n1,a,yesterday,Peter\n", encoding="utf-8"
    )
    mapping = CsvMapping(case_id_col="case", activity_col="activity",
                         timestamp_col="timestamp", resource_col="resource")
    rc = main(["analyze", "--log", str(log_path),
               "--mapping", str(_write_mapping(tmp_path, mapping)),
               "--interval", "1h", "--primary", "control_flow:df",
               "--secondary", "data:event_count", "--out", str(tmp_path / "r.json")])
    assert rc == 3


def test_non_finite_number_is_ingestion_error_naming_row(tmp_path, capsys):
    log_path, mapping_path = _generate_small(tmp_path)
    lines = log_path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    cells = lines[2].split(",")
    cells[header.index("age")] = "nan"
    lines[2] = ",".join(cells)
    log_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    rc = main(["analyze", "--log", str(log_path), "--mapping", str(mapping_path),
               "--interval", "1d", "--primary", "control_flow:df",
               "--secondary", "data:agg(age)", "--out", str(tmp_path / "r.json")])
    assert rc == 3
    err = capsys.readouterr().err
    assert "cannot ingest" in err and "row 3" in err and "'age'" in err


def test_non_finite_case_attribute_in_a_later_row_exits_3(tmp_path, capsys):
    log_path = tmp_path / "budget.csv"
    log_path.write_text(
        "case,activity,timestamp,budget\n"
        "c1,a,2021-06-15 12:30,1\n"
        "c1,b,2021-06-15 14:40,nan\n"
        "c2,a,2021-06-15 16:30,2\n",
        encoding="utf-8",
    )
    mapping = CsvMapping(case_id_col="case", activity_col="activity",
                         timestamp_col="timestamp", case_attr_cols=("budget",))
    rc = main(["analyze", "--log", str(log_path),
               "--mapping", str(_write_mapping(tmp_path, mapping)),
               "--interval", "1h", "--primary", "control_flow:df",
               "--secondary", "data:agg(budget)", "--out", str(tmp_path / "r.json")])
    assert rc == 3
    err = capsys.readouterr().err
    assert "row 3" in err and "'budget'" in err


def test_empty_activity_cell_is_ingestion_error_naming_row(tmp_path, capsys):
    log_path = tmp_path / "log.csv"
    log_path.write_text(
        "case,activity,timestamp\n1,a,2021-06-15 12:30\n1,,2021-06-15 13:30\n",
        encoding="utf-8",
    )
    mapping = CsvMapping(case_id_col="case", activity_col="activity", timestamp_col="timestamp")
    rc = main(["analyze", "--log", str(log_path),
               "--mapping", str(_write_mapping(tmp_path, mapping)),
               "--interval", "1h", "--primary", "control_flow:df",
               "--secondary", "data:event_count", "--out", str(tmp_path / "r.json")])
    assert rc == 3
    err = capsys.readouterr().err
    assert "row 3" in err and "'activity'" in err


def test_too_few_intervals_is_analysis_error(tmp_path, capsys):
    log_path, mapping_path = _generate_small(tmp_path, days=30)
    rc = main(["analyze", "--log", str(log_path), "--mapping", str(mapping_path),
               "--interval", "5w", "--primary", "control_flow:df",
               "--secondary", "data:agg(age)", "--out", str(tmp_path / "r.json")])
    assert rc == 4
    assert "analysis failed" in capsys.readouterr().err


ONE_ACTIVITY_CSV = (
    "case,activity,timestamp,x\n"
    "c1,a,2021-01-04T08:00:00,1e308\n"
    "c1,a,2021-01-04T09:00:00,1e308\n"
    "c2,a,2021-01-05T08:00:00,1\n"
    "c2,a,2021-01-06T09:00:00,2\n"
)
ONE_ACTIVITY_MAPPING = CsvMapping(case_id_col="case", activity_col="activity",
                                  timestamp_col="timestamp", event_attr_cols=("x",))


def _detect(tmp_path, *args, mapping=None):
    log_path = tmp_path / "log.csv"
    log_path.write_text(ONE_ACTIVITY_CSV, encoding="utf-8")
    if mapping is None:
        mapping = _write_mapping(tmp_path, ONE_ACTIVITY_MAPPING)
    return main(["detect", "--log", str(log_path), "--mapping", str(mapping),
                 "--out", str(tmp_path / "cps.json"), *args])


@pytest.mark.parametrize("spec,message", [
    ("control_flow:alpha", "no feature rows"),  # one activity has no relations
    ("data:agg(x,sum)", "non-finite"),  # 1e308 + 1e308 is inf
])
def test_spec_without_finite_features_is_analysis_error(tmp_path, capsys, spec, message):
    assert _detect(tmp_path, "--interval", "1d", "--spec", spec) == 4
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("zeros", [400, 303])
def test_interval_too_long_is_usage_error(tmp_path, capsys, zeros):
    # 1e400 s is no float; 1e303 s is one, but not in microseconds
    assert _detect(tmp_path, "--interval", f"1{'0' * zeros}s", "--spec", "control_flow:df") == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("content", ["[1]", None, '{"case_id_col": 5, "activity_col": "activity",'
                                                 ' "timestamp_col": "timestamp"}'])
def test_unusable_mapping_file_is_usage_error(tmp_path, capsys, content):
    mapping = tmp_path / "bad.json"
    if content is not None:  # else the file does not exist
        mapping.write_text(content, encoding="utf-8")
    rc = _detect(tmp_path, "--interval", "1d", "--spec", "control_flow:df", mapping=mapping)
    assert rc == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("beta", ["nan", "inf", "-1"])
def test_penalty_that_is_not_finite_and_non_negative_is_usage_error(tmp_path, capsys, beta):
    log_path, mapping_path = _generate_small(tmp_path)
    common = ["--log", str(log_path), "--mapping", str(mapping_path), "--interval", "1d"]
    analyze = main(["analyze", *common, "--primary", "control_flow:df",
                    "--secondary", "data:agg(age)", "--beta-primary", beta,
                    "--out", str(tmp_path / "r.json")])
    assert analyze == 2
    assert "beta_primary must be finite and non-negative" in capsys.readouterr().err
    detect = main(["detect", *common, "--spec", "control_flow:df", "--beta", beta,
                   "--out", str(tmp_path / "cps.json")])
    assert detect == 2
    assert "beta must be finite and non-negative" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists() and not (tmp_path / "cps.json").exists()


def test_detect_requires_two_intervals(tmp_path):
    log_path = tmp_path / "claims.csv"
    log_path.write_text(CLAIMS_CSV, encoding="utf-8")
    mapping = CsvMapping(case_id_col="case", activity_col="activity",
                         timestamp_col="timestamp", resource_col="resource")
    rc = main(["detect", "--log", str(log_path),
               "--mapping", str(_write_mapping(tmp_path, mapping)),
               "--interval", "1h", "--spec", "control_flow:df",
               "--out", str(tmp_path / "cps.json")])
    assert rc == 4  # 1.85 h span holds a single full hour


# ------------------------------------------------------------ happy paths


def test_generate_then_analyze_roundtrip(tmp_path):
    log_path, mapping_path = _generate_small(tmp_path)
    report_path = tmp_path / "report.json"
    rc = main(["analyze", "--log", str(log_path), "--mapping", str(mapping_path),
               "--interval", "1d", "--primary", "control_flow:df",
               "--secondary", "data:agg(age,avg)", "--p-value", "1e-6",
               "--out", str(report_path)])
    assert rc == 0
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert set(report) == {
        "config", "intervals", "primary_cps", "secondary_cps",
        "explanations", "unexplained", "metadata",
    }
    assert report["config"]["primary"]["specs"] == ["control_flow:df"]
    assert report["intervals"]["duration_s"] == 86400.0
    assert report["metadata"]["cases"] == 30 * 5


def test_analyze_runs_are_byte_identical(tmp_path):
    log_path, mapping_path = _generate_small(tmp_path)
    args = ["analyze", "--log", str(log_path), "--mapping", str(mapping_path),
            "--interval", "1d", "--primary", "control_flow:df",
            "--secondary", "data:agg(age)", "--out"]
    assert main(args + [str(tmp_path / "a.json")]) == 0
    assert main(args + [str(tmp_path / "b.json")]) == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_extract_writes_one_csv_per_perspective(tmp_path):
    log_path = tmp_path / "claims.csv"
    log_path.write_text(CLAIMS_CSV, encoding="utf-8")
    mapping = CsvMapping(case_id_col="case", activity_col="activity",
                         timestamp_col="timestamp", resource_col="resource")
    out_dir = tmp_path / "series"
    rc = main(["extract", "--log", str(log_path),
               "--mapping", str(_write_mapping(tmp_path, mapping)),
               "--interval", "1h",
               "--spec", "control_flow:df",
               "--spec", "performance:sojourn",
               "--spec", "resource:workload",
               "--series-out", str(out_dir)])
    assert rc == 0
    assert sorted(p.name for p in out_dir.iterdir()) == [
        "control_flow.csv", "performance.csv", "resource.csv"
    ]
    with open(out_dir / "control_flow.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 2  # header + the single full interval
    assert len(rows[0]) == 2 + 9  # interval bounds + 3x3 df rows
    values = dict(zip(rows[0][2:], rows[1][2:]))
    assert float(values["control_flow:df:register->submit"]) == 1.0
    assert float(values["control_flow:df:submit->reply"]) == 0.0  # outside hour one
    with open(out_dir / "resource.csv", newline="") as fh:
        resource_rows = list(csv.reader(fh))
    assert "resource:workload:Peter" in resource_rows[0]


def test_detect_writes_change_point_list(tmp_path):
    log_path, mapping_path = _generate_small(tmp_path, days=40, cases=8, drift=20)
    out = tmp_path / "cps.json"
    rc = main(["detect", "--log", str(log_path), "--mapping", str(mapping_path),
               "--interval", "1d", "--spec", "data:agg(age,avg)",
               "--beta", "1.5", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert isinstance(payload, list)
    for entry in payload:
        assert set(entry) == {"index", "interval_start_iso"}


def test_generate_xes_then_auto_format_analyze(tmp_path):
    xes_path = tmp_path / "log.xes"
    rc = main(["generate", "--days", "20", "--cases-per-day", "4",
               "--drift-day", "10", "--out-xes", str(xes_path)])
    assert rc == 0
    report_path = tmp_path / "report.json"
    rc = main(["analyze", "--log", str(xes_path), "--interval", "1d",
               "--primary", "control_flow:df", "--secondary", "data:agg(age,avg)",
               "--out", str(report_path)])
    assert rc == 0
    assert json.loads(report_path.read_text(encoding="utf-8"))["metadata"]["cases"] == 80


def test_generated_mapping_file_matches_builtin(tmp_path):
    _, mapping_path = _generate_small(tmp_path)
    assert CsvMapping.from_json_file(mapping_path) == GENERATOR_MAPPING


def test_generate_output_is_pinned(tmp_path):
    # guards the generator's order of random draws and both writers' layout
    csv_path, xes_path = tmp_path / "log.csv", tmp_path / "log.xes"
    assert main(["generate", "--seed", "1", "--days", "6", "--cases-per-day", "3",
                 "--drift-day", "3", "--out-csv", str(csv_path), "--out-xes", str(xes_path)]) == 0
    assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == (
        "348fada7ec3fba3ff216d0c6970e34bca8b52e313524b8d5bd2816c6c77c1a1f")
    assert hashlib.sha256(xes_path.read_bytes()).hexdigest() == (
        "529ef97790bc9679d19c5c023e090c5c27b61a8b617cac2992f93c86d3ded88c")


def test_unknown_log_level_warns_but_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("DRIFTSCOPE_LOG_LEVEL", "chatty")
    assert main(["--version"]) == 0
    assert "DRIFTSCOPE_LOG_LEVEL" in capsys.readouterr().err


@pytest.mark.parametrize("level,expected", [
    ("info", "INFO driftscope: wrote {out}\n"),
    ("warn", ""),
    ("LOUD", "driftscope: unknown DRIFTSCOPE_LOG_LEVEL 'loud'; using warn\n"),
])
def test_log_level_sets_what_reaches_stderr(tmp_path, level, expected):
    # in a fresh interpreter: under pytest, logging is set up before main runs
    out = tmp_path / "log.csv"
    env = {**os.environ, "DRIFTSCOPE_LOG_LEVEL": level,
           "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "driftscope.cli", "generate", "--days", "4",
                           "--drift-day", "2", "--out-csv", str(out)],
                          capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stderr) == (0, expected.format(out=out))


def test_console_script_is_installed():
    exe = shutil.which("driftscope")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run([exe, "--version"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "driftscope" in proc.stdout


def test_csv_that_is_not_utf8_exits_3_naming_the_row(tmp_path, capsys):
    log_path = tmp_path / "log.csv"
    log_path.write_bytes(
        b"case,activity,timestamp\n1,a,2021-06-15 12:30\n1,b\xff,2021-06-15 13:30\n"
    )
    mapping = CsvMapping(case_id_col="case", activity_col="activity", timestamp_col="timestamp")
    rc = main(["extract", "--log", str(log_path),
               "--mapping", str(_write_mapping(tmp_path, mapping)),
               "--interval", "1h", "--spec", "data:event_count",
               "--series-out", str(tmp_path / "series")])
    assert rc == 3
    err = capsys.readouterr().err
    assert "cannot ingest" in err and "row 3" in err and "0xff" in err
