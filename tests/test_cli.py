"""Command line behavior: exit codes, outputs, determinism."""

import csv
import json
import shutil
import subprocess

import pytest

from driftscope.cli import GENERATOR_MAPPING, main, parse_duration
from driftscope.errors import ConfigInvalid
from driftscope.ingest import CsvMapping

from conftest import CLAIMS_CSV


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


@pytest.mark.parametrize("bad", ["", "d", "90x", "1.5h", "-3d", "3 d", "h3"])
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


def test_too_few_intervals_is_analysis_error(tmp_path, capsys):
    log_path, mapping_path = _generate_small(tmp_path, days=30)
    rc = main(["analyze", "--log", str(log_path), "--mapping", str(mapping_path),
               "--interval", "5w", "--primary", "control_flow:df",
               "--secondary", "data:agg(age)", "--out", str(tmp_path / "r.json")])
    assert rc == 4
    assert "analysis failed" in capsys.readouterr().err


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


def test_unknown_log_level_warns_but_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("DRIFTSCOPE_LOG_LEVEL", "chatty")
    assert main(["--version"]) == 0
    assert "DRIFTSCOPE_LOG_LEVEL" in capsys.readouterr().err


def test_console_script_is_installed():
    exe = shutil.which("driftscope")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run([exe, "--version"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "driftscope" in proc.stdout
