"""Command-line front end: examples, envelope shape, formats, exit codes,
determinism, and the battery runner.

Oracles: the three documented command examples are checked against frozen
values (words count 3 is a hand enumeration; predict 1/3 and 0.5 are the
closed forms; bowen output must equal the library call bit for bit).  All
other tests compare CLI output against direct library calls or assert
structural contracts from docs/report_schema.md.
"""

import csv
import itertools
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import ifslab
from ifslab.cli import run
from ifslab.dimension import bowen_root
from ifslab.families import build_gap_system, make_gauss, make_linear_power
from ifslab.restrictions import build_ladder, parse_phi

BATTERY_CFG = str(
    pathlib.Path(__file__).resolve().parent.parent / "configs" / "acceptance_battery.cfg"
)

_counter = itertools.count()


def _invoke(tmp_path, *argv, fmt="json"):
    """Run in process, writing the report to a fresh file; return
    (exit code, parsed report or None, output path)."""
    out = tmp_path / f"report{next(_counter)}.{fmt}"
    code = run([*argv, "--out", str(out), "--format", fmt])
    report = None
    if code == 0 and fmt == "json":
        report = json.loads(out.read_text())
    return code, report, out


class TestDocumentedExamples:
    def test_words_lin1_depth2_cap3_strict(self, tmp_path):
        code, report, _ = _invoke(
            tmp_path, "words", "--phi", "lin:1", "--depth", "2", "--cap", "3", "--strict"
        )
        assert code == 0
        assert report["results"]["count"] == 3
        assert report["results"]["words"] == [[1, 2], [1, 3], [2, 3]]

    def test_words_relaxed_counts_equal_digits(self, tmp_path):
        # Relaxed comparison admits a_2 >= a_1: six pairs under cap 3.
        code, report, _ = _invoke(
            tmp_path, "words", "--phi", "lin:1", "--depth", "2", "--cap", "3", "--no-strict"
        )
        assert code == 0
        assert report["results"]["count"] == 6
        assert report["config"]["strict"] is False

    def test_predict_power_restriction_tiled(self, tmp_path):
        code, report, _ = _invoke(
            tmp_path,
            "predict", "--d", "2", "--phi", "pow:2", "--gauss-like", "--s0", "0.5",
        )
        assert code == 0
        assert report["results"]["hausdorff"] == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert report["results"]["packing"] == 0.5

    def test_bowen_matches_library_call(self, tmp_path):
        code, report, _ = _invoke(
            tmp_path,
            "bowen", "--system", "gauss", "--bound", "xi",
            "--k", "10", "--m", "10000", "--tol", "1e-10",
        )
        assert code == 0
        est = bowen_root(make_gauss(), "xi", 10, 10_000, tol=1e-10)
        results = report["results"]
        assert results["s"] == est.value
        assert results["bracket"] == [est.bracket[0], est.bracket[1]]
        assert results["residual"] == est.diagnostics["residual"]
        assert results["iterations"] == est.diagnostics["iterations"]
        assert results["terms"] == est.diagnostics["terms"]

    def test_module_entry_point(self, tmp_path):
        out = tmp_path / "entry.json"
        # The child finds the package the way this process did, installed
        # or not.
        src = str(pathlib.Path(ifslab.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        )}
        proc = subprocess.run(
            [
                sys.executable, "-m", "ifslab",
                "words", "--phi", "lin:1", "--depth", "2", "--cap", "3",
                "--out", str(out),
            ],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0
        assert json.loads(out.read_text())["results"]["count"] == 3
        assert "wall" in proc.stderr  # timing goes to stderr, not the report


class TestEnvelope:
    def test_key_order_and_version(self, tmp_path):
        code, report, _ = _invoke(
            tmp_path, "words", "--phi", "lin:1", "--depth", "2", "--cap", "3"
        )
        assert code == 0
        assert list(report) == ["schema", "command", "version", "config", "results", "warnings"]
        assert report["schema"] == "ifslab-report/1"
        assert report["command"] == "words"
        assert report["version"] == ifslab.__version__

    def test_config_embeds_defaults_and_seed(self, tmp_path):
        code, report, out = _invoke(
            tmp_path,
            "frostman", "--system", "gauss", "--phi", "lin:1",
            "--eps", "0.1", "--depth", "2",
        )
        assert code == 0
        cfg = report["config"]
        assert cfg["seed"] == 0
        assert cfg["sample_cap"] == 100_000
        assert cfg["verify_depth"] == 2
        assert cfg["out"] == str(out)
        assert cfg["format"] == "json"

    def test_no_timing_field_in_report(self, tmp_path):
        _, report, _ = _invoke(
            tmp_path, "words", "--phi", "lin:1", "--depth", "2", "--cap", "3"
        )

        def keys(obj):
            if isinstance(obj, dict):
                for k, v in obj.items():
                    yield k
                    yield from keys(v)
            elif isinstance(obj, list):
                for v in obj:
                    yield from keys(v)

        for key in keys(report):
            assert "wall" not in key and "time" not in key and "elapsed" not in key

    def test_stdout_default(self, capsys):
        code = run(["words", "--phi", "lin:1", "--depth", "2", "--cap", "3"])
        assert code == 0
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert report["results"]["count"] == 3
        assert report["config"]["out"] == "-"
        assert "wall" in captured.err


class TestCsvFormat:
    def test_flattened_rows_round_trip(self, tmp_path):
        code, _, out = _invoke(
            tmp_path,
            "bowen", "--system", "gauss", "--k", "5", "--m", "500",
            fmt="csv",
        )
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["key", "value"]
        table = dict(rows[1:])
        assert table["schema"] == "ifslab-report/1"
        assert table["config.k"] == "5"
        est = bowen_root(make_gauss(), "xi", 5, 500)
        assert float(table["results.s"]) == est.value
        assert float(table["results.bracket.0"]) == est.bracket[0]

    def test_boolean_and_null_cells(self, tmp_path):
        code, _, out = _invoke(
            tmp_path,
            "ladder", "--system", "gauss", "--phi", "lin:1", "--eps", "0.1", "--steps", "1",
            fmt="csv",
        )
        assert code == 0
        with open(out, newline="") as fh:
            table = dict(list(csv.reader(fh))[1:])
        assert table["results.certified.0"] == "true"
        assert table["results.growth_ratio_bound"] == ""  # single step: null


class TestExitCodes:
    def test_malformed_phi(self, tmp_path):
        code, _, _ = _invoke(tmp_path, "words", "--phi", "bogus", "--depth", "2", "--cap", "3")
        assert code == 2

    def test_unknown_flag(self, capsys):
        assert run(["words", "--phi", "lin:1", "--depth", "2", "--cap", "3", "--zap"]) == 2
        capsys.readouterr()

    def test_unknown_subcommand(self, capsys):
        assert run(["transmogrify"]) == 2
        capsys.readouterr()

    def test_missing_required_flag(self, capsys):
        assert run(["words", "--phi", "lin:1", "--cap", "3"]) == 2
        capsys.readouterr()

    def test_numeric_failure_is_3(self, tmp_path):
        # The upper-rate root does not exist for the full Gauss family:
        # the first ratio is not a contraction, so the pressure never
        # drops below one.
        code, _, _ = _invoke(
            tmp_path, "bowen", "--system", "gauss", "--bound", "lambda", "--k", "1", "--m", "50"
        )
        assert code == 3

    def test_unwritable_out(self, capsys):
        code = run(
            ["words", "--phi", "lin:1", "--depth", "2", "--cap", "3",
             "--out", "/nonexistent-dir/x.json"]
        )
        assert code == 2
        capsys.readouterr()

    def test_bad_system_spec(self, tmp_path):
        code, _, _ = _invoke(
            tmp_path, "ladder", "--system", "mystery:3", "--phi", "lin:1", "--eps", "0.1"
        )
        assert code == 2

    def test_bad_scales_spec(self, tmp_path):
        pts = tmp_path / "p.txt"
        pts.write_text("0.1\n0.2\n0.3\n")
        code, _, _ = _invoke(tmp_path, "boxdim", "--points", str(pts), "--dyadic", "7")
        assert code == 2
        code, _, _ = _invoke(
            tmp_path, "boxdim", "--points", str(pts), "--dyadic", "2:5", "--scales", "0.5,0.25"
        )
        assert code == 2

    def test_frostman_zero_sample_cap(self, tmp_path):
        # A cap of 0 would report a pass without checking any word.
        code, _, _ = _invoke(
            tmp_path, "frostman", "--phi", "lin:1", "--eps", "0.1", "--depth", "2",
            "--sample-cap", "0",
        )
        assert code == 2

    def test_missing_points_file(self, tmp_path):
        code, _, _ = _invoke(tmp_path, "boxdim", "--points", str(tmp_path / "nope.txt"))
        assert code == 2


class TestSystemSpecs:
    def test_linpow_matches_library(self, tmp_path):
        code, report, _ = _invoke(
            tmp_path, "ladder", "--system", "linpow:2", "--phi", "lin:1",
            "--eps", "0.1", "--steps", "3",
        )
        assert code == 0
        ladder = build_ladder(make_linear_power(2.0), parse_phi("lin:1"), 0.1, 3)
        assert report["results"]["values"] == list(ladder.values)
        assert report["results"]["threshold"] == ladder.threshold

    def test_gapsys_report_round_trip(self, tmp_path):
        code, gap_report, gap_path = _invoke(
            tmp_path, "gapsys", "--d", "2", "--phi", "pow:2", "--eps", "0.1",
            "--n-max", "500",
        )
        assert code == 0
        results = gap_report["results"]
        assert results["validation"]["all_pass"] is True
        assert results["normalization_defect"] <= 1e-9
        code, report, _ = _invoke(
            tmp_path, "ladder", "--system", f"gapsys:{gap_path}", "--phi", "lin:1",
            "--eps", "0.1", "--steps", "3",
        )
        assert code == 0
        gs = build_gap_system(parse_phi("pow:2"), 2.0, 0.1)
        ladder = build_ladder(gs.system, parse_phi("lin:1"), 0.1, 3)
        assert report["results"]["values"] == list(ladder.values)

    def test_gapsys_bad_path_and_bad_json(self, tmp_path):
        code, _, _ = _invoke(
            tmp_path, "ladder", "--system", f"gapsys:{tmp_path}/nope.json",
            "--phi", "lin:1", "--eps", "0.1",
        )
        assert code == 2
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        code, _, _ = _invoke(
            tmp_path, "ladder", "--system", f"gapsys:{bad}", "--phi", "lin:1", "--eps", "0.1"
        )
        assert code == 2


class TestWarnings:
    def test_cover_tail_warning_captured(self, tmp_path):
        code, report, _ = _invoke(
            tmp_path,
            "cover", "--system", "gauss", "--phi", "lin:1",
            "--depth", "3", "--s", "0.6", "--cap", "100",
        )
        assert code == 0
        assert any(w.startswith("TailWarning:") for w in report["warnings"])

    def test_warning_capture_is_repeatable(self, tmp_path):
        out = tmp_path / "cover.json"
        argv = [
            "cover", "--system", "gauss", "--phi", "lin:1",
            "--depth", "3", "--s", "0.6", "--cap", "100", "--out", str(out),
        ]
        assert run(argv) == 0
        first = out.read_bytes()
        assert run(argv) == 0
        assert out.read_bytes() == first


class TestDeterminism:
    def test_localdim_same_seed_byte_identical(self, tmp_path):
        out = tmp_path / "ld.json"
        stream = tmp_path / "ld.csv"
        argv = [
            "localdim", "--system", "gauss", "--alpha", "2",
            "--samples", "150", "--depth", "8", "--seed", "11",
            "--stream", str(stream), "--out", str(out),
        ]
        assert run(argv) == 0
        report_bytes = out.read_bytes()
        stream_bytes = stream.read_bytes()
        assert run(argv) == 0
        assert out.read_bytes() == report_bytes
        assert stream.read_bytes() == stream_bytes
        assert json.loads(report_bytes)["results"]["kept"] > 0

    def test_localdim_seed_changes_report(self, tmp_path):
        estimates = []
        for seed in ("3", "4"):
            code, report, _ = _invoke(
                tmp_path,
                "localdim", "--system", "gauss", "--alpha", "2",
                "--samples", "120", "--depth", "6", "--seed", seed,
            )
            assert code == 0
            estimates.append(report["results"]["estimate"])
        assert estimates[0] != estimates[1]

    def test_frostman_sampled_verification_deterministic(self, tmp_path):
        out = tmp_path / "fr.json"
        argv = [
            "frostman", "--system", "gauss", "--phi", "lin:1", "--eps", "0.1",
            "--depth", "2", "--sample-cap", "50", "--seed", "5", "--out", str(out),
        ]
        assert run(argv) == 0
        first = out.read_bytes()
        assert run(argv) == 0
        assert out.read_bytes() == first
        report = json.loads(first)
        assert report["results"]["verify"]["sampled"] is True
        assert report["results"]["verify"]["checked"] == 50


class TestBattery:
    def test_shipped_acceptance_battery_passes(self, tmp_path):
        out_dir = tmp_path / "bat"
        code = run(["battery", BATTERY_CFG, "--out-dir", str(out_dir)])
        assert code == 0
        with open(out_dir / "summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        assert all(row["status"] == "pass" for row in rows)
        assert {row["name"] for row in rows} == {
            "bowen-gauss-k10", "ladder-gauss-lin1", "predict-pow2-tiled",
        }
        # Dotted list indexing into the ladder report.
        ladder_row = next(r for r in rows if r["command"] == "ladder")
        assert float(ladder_row["observed"]) == 19.0
        for row in rows:
            report = json.loads((out_dir / f"{row['name']}.json").read_text())
            assert report["schema"] == "ifslab-report/1"

    def test_perturbed_expectation_fails_with_exit_1(self, tmp_path):
        with open(BATTERY_CFG) as fh:
            source = fh.read()
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(source.replace("expect = 19", "expect = 25"))
        out_dir = tmp_path / "bat"
        code = run(["battery", str(cfg), "--out-dir", str(out_dir)])
        assert code == 1
        with open(out_dir / "summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        statuses = {row["name"]: row["status"] for row in rows}
        assert statuses["ladder-gauss-lin1"] == "fail"
        assert statuses["bowen-gauss-k10"] == "pass"

    def test_empty_battery_trivial_pass(self, tmp_path):
        cfg = tmp_path / "empty.cfg"
        cfg.write_text("# no experiments\n")
        out_dir = tmp_path / "bat"
        code = run(["battery", str(cfg), "--out-dir", str(out_dir)])
        assert code == 0
        lines = (out_dir / "summary.csv").read_text().splitlines()
        assert lines == ["name,command,exit,status,observed,expected,tolerance,detail"]

    def test_experiment_error_propagates(self, tmp_path):
        cfg = tmp_path / "err.cfg"
        cfg.write_text("[broken]\ncommand = words\nphi = bogus\ndepth = 2\ncap = 3\n")
        out_dir = tmp_path / "bat"
        code = run(["battery", str(cfg), "--out-dir", str(out_dir)])
        assert code == 2
        with open(out_dir / "summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["status"] == "error"
        assert rows[0]["exit"] == "2"

    def test_run_only_experiment_status_ran(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[probe]\ncommand = words\nphi = lin:1\ndepth = 2\ncap = 3\n")
        out_dir = tmp_path / "bat"
        code = run(["battery", str(cfg), "--out-dir", str(out_dir)])
        assert code == 0
        with open(out_dir / "summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["status"] == "ran"
        assert json.loads((out_dir / "probe.json").read_text())["results"]["count"] == 3

    def test_malformed_sections_rejected(self, tmp_path):
        out_dir = tmp_path / "bat"
        for body in (
            "[x]\nphi = lin:1\n",  # no command
            "[x]\ncommand = transmogrify\n",  # unknown command
            "[x]\ncommand = words\nphi = lin:1\ndepth = 2\ncap = 3\nexpect = 3\n",
            "[bad name]\ncommand = words\nphi = lin:1\ndepth = 2\ncap = 3\n",
            "[x]\ncommand = battery\n",  # no nesting
        ):
            cfg = tmp_path / "m.cfg"
            cfg.write_text(body)
            assert run(["battery", str(cfg), "--out-dir", str(out_dir)]) == 2

    def test_missing_config_file(self, tmp_path):
        assert run(["battery", str(tmp_path / "none.cfg"), "--out-dir", str(tmp_path)]) == 2


class TestBoxdimCli:
    def test_inverse_integers_slope(self, tmp_path):
        pts = tmp_path / "inv.txt"
        np.savetxt(pts, 1.0 / np.arange(1, 20_001))
        code, report, _ = _invoke(
            tmp_path, "boxdim", "--points", str(pts), "--dyadic", "2:10"
        )
        assert code == 0
        assert abs(report["results"]["estimate"] - 0.5) < 0.05
        assert report["results"]["n_points"] == 20_000
        assert len(report["results"]["scales"]) == 9
