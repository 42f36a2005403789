"""Command-line front end: examples, envelope shape, formats, exit codes,
determinism, and the battery runner.

Oracles: the three documented command examples are checked against frozen
values (words count 3 is a hand enumeration; predict 1/3 and 0.5 are the
closed forms; bowen output must equal the library call bit for bit).  All
other tests compare CLI output against direct library calls or assert
structural contracts from docs/report_schema.md.
"""

import ast
import csv
import itertools
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

import ifslab
from ifslab import _blocks, cli, dimension, measures
from ifslab.cli import run
from ifslab.dimension import TailWarning, _truncation_bound, bowen_root, cover_sum
from ifslab.families import build_gap_system, make_gauss, make_linear_power
from ifslab.restrictions import build_ladder, parse_phi
from ifslab.systems import NumericFailure

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
        code, report, _ = _invoke(tmp_path, "words", "--phi", "lin:1", "--depth", "2", "--cap", "3")
        assert code == 0
        assert report["results"]["count"] == 3
        assert report["results"]["words"] == [[1, 2], [1, 3], [2, 3]]
        assert "strict" not in report["config"]

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

    def test_readme_library_snippet(self, capsys):
        readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
        snippet = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
        exec(snippet, {})
        root, ladder, dims = capsys.readouterr().out.splitlines()
        assert root == "0.627651267627107" and round(float(root), 3) == 0.628
        assert ladder == "(9, 19, 34, 57)"
        assert ast.literal_eval(dims) == {"hausdorff": 1 / 3, "packing": 0.5}


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


class TestBowenBounds:
    @staticmethod
    def _count_roots(monkeypatch) -> list:
        calls = []
        solve = dimension._pressure_root

        def counted(*args):
            calls.append(args)
            return solve(*args)

        monkeypatch.setattr(dimension, "_pressure_root", counted)
        return calls

    @pytest.mark.parametrize("bound, key", [("xi", "lower"), ("lambda", "upper")])
    def test_each_band_is_rooted_once(self, tmp_path, monkeypatch, bound, key):
        calls = self._count_roots(monkeypatch)
        code, report, _ = _invoke(
            tmp_path, "bowen", "--system", "gauss", "--bound", bound,
            "--k", "5", "--m", "500", "--bounds",
        )
        assert code == 0
        assert len(calls) == 2
        assert report["results"]["s"] == report["results"]["bounds"][key]

    def test_capped_upper_still_exits_3(self, tmp_path, monkeypatch):
        # The lambda band from k = 1 holds the non-contracting first ratio,
        # so the upper bound is capped and the lambda root does not exist.
        calls = self._count_roots(monkeypatch)
        code, _, _ = _invoke(
            tmp_path, "bowen", "--system", "gauss", "--bound", "lambda",
            "--k", "1", "--m", "50", "--bounds",
        )
        assert code == 3
        assert len(calls) == 2


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

    def test_cover_method_auto_is_unknown(self, capsys):
        # Two routes remain, dp (the default) and exact.
        argv = ["cover", "--phi", "lin:1", "--depth", "2", "--s", "0.6", "--method", "auto"]
        assert run(argv) == 2
        assert "invalid choice: 'auto'" in capsys.readouterr().err

    def test_numeric_failure_is_3(self, tmp_path):
        # The upper-rate root does not exist for the full Gauss family:
        # the first ratio is not a contraction, so the pressure never
        # drops below one.
        code, _, _ = _invoke(
            tmp_path, "bowen", "--system", "gauss", "--bound", "lambda", "--k", "1", "--m", "50"
        )
        assert code == 3

    def test_exact_cover_past_the_word_budget_is_3(self, tmp_path, capsys):
        # About 2.6e13 admissible words: the exact route counts them and
        # refuses before it allocates a level.
        start = time.perf_counter()
        code, _, _ = _invoke(
            tmp_path, "cover", "--system", "gauss", "--phi", "lin:1", "--depth", "4",
            "--s", "0.6", "--cap", "5000", "--method", "exact",
        )
        assert code == 3
        assert time.perf_counter() - start < 0.5
        assert "exceed the exact route's budget" in capsys.readouterr().err

    def test_deep_exact_cover_refuses_at_once(self, tmp_path, capsys):
        # The words of lengths 1 and 2 alone pass the budget; a count of every
        # length took about a minute and had more than 4300 digits.
        start = time.perf_counter()
        code, _, _ = _invoke(
            tmp_path, "cover", "--system", "gauss", "--phi", "lin:1", "--depth", "14400",
            "--s", "0.6", "--cap", "14400", "--method", "exact",
        )
        assert code == 3
        assert time.perf_counter() - start < 1.0
        seen = 14400 + math.comb(14400, 2)
        assert f"at least {seen} admissible words exceed" in capsys.readouterr().err

    def test_localdim_past_the_sample_level_budget_is_3(self, tmp_path, capsys):
        # 100 x 10**12 sample-levels: the uniforms alone asked numpy for
        # 182 TiB before any size was checked.
        start = time.perf_counter()
        code, _, _ = _invoke(
            tmp_path, "localdim", "--alpha", "2", "--samples", "100", "--depth", str(10**12)
        )
        assert code == 3
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert f"100 samples x depth {10**12} exceed the budget" in err

    @pytest.mark.parametrize(
        "argv",
        [["words"], ["cover", "--s", "0.6"], ["cover", "--s", "0.6", "--method", "exact"]],
        ids=["words", "cover-dp", "cover-exact"],
    )
    def test_past_the_longest_word_is_empty_at_once(self, tmp_path, argv):
        start = time.perf_counter()
        code, report, _ = _invoke(
            tmp_path, *argv, "--phi", "lin:1", "--depth", str(10**9), "--cap", "3"
        )
        assert code == 0
        assert time.perf_counter() - start < 1.0
        if argv[0] == "words":
            assert report["results"] == {"count": 0, "words": []}
        else:
            assert report["results"] == {"value": 0.0}

    @pytest.mark.parametrize("argv", [["cover", "--s", "0.6"], ["words"]], ids=["cover", "words"])
    def test_huge_cap_is_3(self, tmp_path, capsys, argv):
        # A successor table of 10**12 digits would need 7.28 TiB; the cap's
        # budget refuses it before anything is allocated.
        code, _, _ = _invoke(
            tmp_path, *argv, "--phi", "lin:1", "--depth", "2", "--cap", str(10**12)
        )
        assert code == 3
        assert "digit cap 1000000000000 exceeds the budget" in capsys.readouterr().err

    def test_one_word_of_five_thousand_digits(self, tmp_path):
        # Its count once took seconds, one pass per length over every digit.
        code, report, _ = _invoke(
            tmp_path, "words", "--phi", "lin:1", "--depth", "5000", "--cap", "5000"
        )
        assert code == 0
        assert report["results"]["count"] == 1
        assert report["results"]["words"] == [list(range(1, 5001))]

    def test_deep_power_ladder_finishes(self, tmp_path):
        # Step 12 of the pow:2 ladder searches from near 2**7200, the square
        # of step 11, and its range's ratio to that start (about 2**-1445)
        # underflows a float; relative-form power sums reach it all the same.
        code, report, _ = _invoke(
            tmp_path, "ladder", "--system", "gauss", "--phi", "pow:2", "--eps", "0.1",
            "--steps", "12",
        )
        assert code == 0
        values = report["results"]["values"]
        assert len(values) == 12
        assert all(a < b for a, b in zip(values, values[1:]))
        assert values[-1].bit_length() > 7000

    def test_ladder_values_past_4300_digits_are_written(self, tmp_path, capsys):
        # Step 14 has about 8700 digits, past the interpreter's default
        # int-to-str limit; the report is written in full.
        out = tmp_path / "ladder14.csv"
        code = run(["ladder", "--system", "gauss", "--phi", "pow:2", "--eps", "0.1",
                    "--steps", "14", "--out", str(out), "--format", "csv"])
        capsys.readouterr()
        assert code == 0
        rows = dict(csv.reader(out.read_text().splitlines()))
        last = rows["results.values.13"]
        assert len(last) > 8000 and last.isdigit()

    def test_ladder_past_the_bit_budget_is_3(self, tmp_path):
        # Step 21 would start near 2**3.7e6, past _INDEX_BITS_CAP; the 20
        # steps before it take well under a second.  A child process with a
        # timeout turns a hang into a failure.
        proc = _run_child(
            ["ladder", "--system", "gauss", "--phi", "pow:2", "--eps", "0.1", "--steps", "22",
             "--out", str(tmp_path / "deep.json")],
            timeout=30,
        )
        assert proc.returncode == 3, proc.stderr
        assert "exceeds the term budget" in proc.stderr

    def test_frostman_sampled_window_past_int64_is_3(self, tmp_path, capsys):
        # The level-5 window of the pow:2 ladder lies near 2**113, past the
        # int64 digits the sampled check draws.
        code, _, _ = _invoke(
            tmp_path, "frostman", "--system", "gauss", "--phi", "pow:2", "--eps", "0.1",
            "--depth", "5",
        )
        assert code == 3
        assert "level 5 window (9412986588122202646573418875638017.." in capsys.readouterr().err

    @pytest.mark.parametrize("alpha", ["1e17", "1e200", "1e308", "inf"])
    def test_localdim_alpha_rounding_the_exponents_away_is_2(self, tmp_path, capsys, alpha):
        # Past about 1e16, tail_exponent - 1 rounds to 0 (and the base
        # exponent leaves the normal range near 1e308).
        code, _, _ = _invoke(
            tmp_path, "localdim", "--system", "gauss", "--alpha", alpha,
            "--samples", "100", "--depth", "10",
        )
        assert code == 2
        assert "not a positive normal float" in capsys.readouterr().err

    def test_localdim_refused_keeps_the_stream_file(self, tmp_path, capsys):
        # The arguments are checked after the stream path is named.
        keep = tmp_path / "keep.csv"
        keep.write_bytes(b"earlier,run\n")
        code, _, _ = _invoke(
            tmp_path, "localdim", "--alpha", "2", "--samples", "20", "--stream", str(keep)
        )
        assert code == 2
        assert "samples must be an integer >= 100, got 20" in capsys.readouterr().err
        assert keep.read_bytes() == b"earlier,run\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["keep.csv"]

    def test_localdim_numeric_failure_keeps_the_stream_file(self, tmp_path, monkeypatch):
        def fails_midway(*args, csv_stream, **kwargs):
            csv_stream.write("sample_id,n,digit\n0,1,2\n")
            raise NumericFailure("every sampled chain truncated before 3 levels")

        monkeypatch.setattr(cli, "local_dim_estimate", fails_midway)
        keep = tmp_path / "keep.csv"
        keep.write_bytes(b"earlier,run\n")
        code, _, _ = _invoke(
            tmp_path, "localdim", "--alpha", "2", "--samples", "100", "--stream", str(keep)
        )
        assert code == 3
        assert keep.read_bytes() == b"earlier,run\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["keep.csv"]

    def test_negative_localdim_seed_is_2_and_keeps_the_stream_file(self, tmp_path, capsys):
        keep = tmp_path / "keep.csv"
        keep.write_bytes(b"earlier,run\n")
        code, _, _ = _invoke(
            tmp_path, "localdim", "--alpha", "2", "--samples", "200", "--depth", "8",
            "--seed", "-1", "--stream", str(keep),
        )
        assert code == 2
        assert "seed must be an integer >= 0, got -1" in capsys.readouterr().err
        assert keep.read_bytes() == b"earlier,run\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["keep.csv"]

    def test_negative_sampled_frostman_seed_is_2(self, tmp_path, capsys):
        code, _, _ = _invoke(
            tmp_path, "frostman", "--system", "gauss", "--phi", "lin:1", "--eps", "0.1",
            "--depth", "3", "--sample-cap", "60", "--seed", "-1",
        )
        assert code == 2
        assert "seed must be an integer >= 0, got -1" in capsys.readouterr().err

    def test_negative_enumerated_frostman_seed_is_2(self, tmp_path, capsys):
        # Depth 2 has 150 words, under the default sample cap: no draw is made.
        code, _, _ = _invoke(
            tmp_path, "frostman", "--system", "gauss", "--phi", "lin:1", "--eps", "0.1",
            "--depth", "2", "--seed", "-1",
        )
        assert code == 2
        assert "seed must be an integer >= 0, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["ladder", "--system", "linpow:120", "--phi", "lin:1", "--eps", "0.001"],
            ["frostman", "--system", "linpow:200", "--phi", "lin:1", "--eps", "0.001",
             "--depth", "2"],
        ],
        ids=["ladder-linpow120", "frostman-linpow200"],
    )
    def test_decay_past_the_float_powers_is_3(self, tmp_path, capsys, argv):
        # k**(d + eps) overflows at k = 1000 for d past about 103; the
        # threshold and the sandwich fit form no such power.  The first
        # slope, 1/zeta(d), is 1 to within 2**-119, so no composition
        # contracts on the sample.
        code, _, _ = _invoke(tmp_path, *argv)
        assert code == 3
        assert "no composition depth" in capsys.readouterr().err

    def test_small_eps_ladder_starts_past_a_thousand(self, tmp_path):
        # The gauss sandwich at eps 1e-4 holds from k = 2550 on, past the
        # 1000 indices a scan used to check before it gave up with exit 3.
        code, report, _ = _invoke(
            tmp_path, "ladder", "--system", "gauss", "--phi", "lin:1", "--eps", "0.0001",
            "--steps", "3",
        )
        assert code == 0
        assert report["results"]["values"] == [2550, 6924, 18790]
        assert report["results"]["certified"] == [True, True, True]

    def test_small_eps_frostman_passes(self, tmp_path):
        code, report, _ = _invoke(
            tmp_path, "frostman", "--system", "gauss", "--phi", "lin:1", "--eps", "0.0001",
            "--depth", "2", "--sample-cap", "1000",
        )
        assert code == 0
        verify = report["results"]["verify"]
        assert (verify["checked"], verify["passed"]) == (1000, 1000)

    def test_deep_cover_truncation_bound_overflows_to_inf(self, tmp_path):
        # G is about 7000 at cap 100, so G**100 leaves the float range; the
        # bound is then inf, not an OverflowError.
        code, report, _ = _invoke(
            tmp_path, "cover", "--system", "gauss", "--phi", "lin:1", "--depth", "100",
            "--s", "0.5001", "--cap", "100",
        )
        assert code == 0
        assert report["results"]["value"] == 4.3919523272327294e-159
        assert any("truncation bound inf" in w for w in report["warnings"])

    def test_frostman_pow2_windows_past_float_range(self, tmp_path, capsys):
        # Levels 8 and 9 span 903- and 1806-bit windows, wider than a float
        # holds; each exponent is the window's pressure root.
        argv = ("frostman", "--system", "gauss", "--phi", "pow:2", "--eps", "0.1",
                "--verify-depth", "3")
        code, report, _ = _invoke(tmp_path, *argv, "--depth", "9")
        assert code == 0
        verify = report["results"]["verify"]
        assert verify["passed"] == verify["checked"] > 0
        # Level 11's 7223-bit window has no pressure bracket within 1e-10 of 1.
        code, _, _ = _invoke(tmp_path, *argv, "--depth", "11")
        assert code == 3
        assert "level 11 window (7223-bit lo .. 7223-bit hi)" in capsys.readouterr().err

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

    def test_dyadic_range_past_the_floats(self, tmp_path):
        # 2**5000 overflows a float, and 2**-20000000 is 0: the range is
        # refused before any of its scales is built.
        pts = tmp_path / "p.txt"
        pts.write_text("0.1\n0.2\n0.3\n")
        code, _, _ = _invoke(tmp_path, "boxdim", "--points", str(pts), "--dyadic=-5000:0")
        assert code == 2
        start = time.perf_counter()
        code, _, _ = _invoke(tmp_path, "boxdim", "--points", str(pts), "--dyadic=2:20000000")
        assert code == 2
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize(
        "scales,expected",
        [
            # 1/delta overflows to inf for these subnormal scales.
            ("1e-320,2e-320", 2),
            ("5e-324,1e-323", 2),
            # Adjacent floats: distinct scales whose log reciprocals coincide.
            (f"1e-10,{math.nextafter(1e-10, 1.0)!r}", 3),
        ],
        ids=["subnormal", "smallest-subnormal", "coinciding-logs"],
    )
    def test_degenerate_scales(self, tmp_path, scales, expected):
        pts = tmp_path / "p.txt"
        pts.write_text("0.1\n0.2\n0.3\n")
        code, _, _ = _invoke(tmp_path, "boxdim", "--points", str(pts), "--scales", scales)
        assert code == expected

    def test_cell_index_overflow(self, tmp_path):
        # x / 0.5 overflows for every point; the cells would all read inf.
        pts = tmp_path / "p.txt"
        pts.write_text("1e308\n1.5e308\n1.7e308\n")
        code, _, _ = _invoke(tmp_path, "boxdim", "--points", str(pts), "--scales", "0.5,0.25")
        assert code == 2

    def test_frostman_zero_sample_cap(self, tmp_path):
        # A cap of 0 would report a pass without checking any word.
        code, _, _ = _invoke(
            tmp_path, "frostman", "--phi", "lin:1", "--eps", "0.1", "--depth", "2",
            "--sample-cap", "0",
        )
        assert code == 2

    def test_frostman_zero_verify_depth(self, tmp_path):
        # Depth 0 has no cylinder to check, so it would be a vacuous pass.
        code, _, _ = _invoke(
            tmp_path, "frostman", "--phi", "lin:1", "--eps", "0.1", "--depth", "2",
            "--verify-depth", "0",
        )
        assert code == 2

    def test_cover_cap_past_two_hundred_thousand(self, tmp_path):
        # The gap kind has branches at every index: a cap of 300000 adds the
        # words past 200000, whose mass the cap-200000 truncation bound covers.
        code, _, gap_path = _invoke(
            tmp_path, "gapsys", "--d", "2", "--phi", "pow:2", "--eps", "0.1", "--n-max", "500"
        )
        assert code == 0
        code, report, _ = _invoke(
            tmp_path, "cover", "--system", f"gapsys:{gap_path}", "--phi", "lin:1",
            "--depth", "1", "--s", "0.6", "--cap", "300000",
        )
        assert code == 0
        system = build_gap_system(parse_phi("pow:2"), 2.0, 0.1).system
        with pytest.warns(TailWarning):
            low = cover_sum(system, parse_phi("lin:1"), 1, 0.6, digit_cap=200_000)
        bound = _truncation_bound(system, 1, 0.6, 200_000, [low])
        assert low < report["results"]["value"] <= low + bound

    def test_predict_with_a_table_is_2(self, tmp_path, capsys):
        # (n + 9)**2 grows quadratically; its table once predicted 1/d.
        table = tmp_path / "table.txt"
        table.write_text("\n".join(str((n + 9) ** 2) for n in range(1, 41)))
        code, _, out = _invoke(
            tmp_path, "predict", "--d", "2", "--phi", f"table:{table}", "--gauss-like",
            "--s0", "0.4",
        )
        assert code == 2 and not out.exists()
        assert "lin:<beta> or pow:<alpha>" in capsys.readouterr().err

    def test_missing_points_file(self, tmp_path):
        code, _, _ = _invoke(tmp_path, "boxdim", "--points", str(tmp_path / "nope.txt"))
        assert code == 2

    @pytest.mark.parametrize(
        "system,phi,file_text",
        [
            ("linpow:inf", "lin:1", None),
            ("gauss", "pow:inf", None),
            ("gauss", "table:{path}", "3\n4.5\n9\n"),
            ("gapsys:{path}", "lin:1", '{"config": {"phi": "pow:2", "d": "two", "eps": 0.1}}'),
            ("gapsys:{path}", "lin:1", '{"config": {"phi": 2, "d": 2, "eps": 0.1}}'),
        ],
        ids=["linpow-inf", "pow-inf", "table-not-int", "gapsys-d-not-float", "gapsys-phi-not-str"],
    )
    def test_malformed_spec_is_2(self, tmp_path, system, phi, file_text):
        path = tmp_path / "spec.txt"
        if file_text is not None:
            path.write_text(file_text)
        code, _, _ = _invoke(
            tmp_path, "ladder", "--system", system.format(path=path),
            "--phi", phi.format(path=path), "--eps", "0.1",
        )
        assert code == 2


def _run_python(args, timeout):
    """Run a fresh interpreter with ``args``, seeing the package this process
    imported; return the completed process."""
    src = str(pathlib.Path(ifslab.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=timeout
    )


def _run_child(argv, timeout):
    """Run ``python -m ifslab`` in a child; return the completed process."""
    return _run_python(["-m", "ifslab", *argv], timeout)


def test_cli_import_loads_no_scipy():
    # scipy is a test-only dependency: the runtime must not import it.
    code = (
        "import sys, ifslab.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    proc = _run_python(["-c", code], timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_import_loads_no_process_pool():
    # Chain blocks fork directly; a pool module would only add set-up time.
    code = (
        "import sys, ifslab.cli; "
        "print(sorted(m for m in sys.modules "
        "if m.split('.')[0] in ('multiprocessing', 'concurrent')))"
    )
    proc = _run_python(["-c", code], timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_linpow_depth_four_frostman_finishes(tmp_path):
    # Level-4 digits reach 9262975; a cylinder length is a product of
    # slopes, so no offset up to that index is formed.
    out = tmp_path / "r.json"
    argv = ["frostman", "--system", "linpow:2", "--phi", "pow:2", "--eps", "0.1",
            "--depth", "4", "--sample-cap", "2000", "--out", str(out)]
    proc = _run_child(argv, timeout=20)
    assert proc.returncode == 0, proc.stderr
    verify = json.loads(out.read_text())["results"]["verify"]
    assert (verify["checked"], verify["fraction"]) == (2000, 1.0)


def test_words_deeper_than_the_recursion_limit(tmp_path):
    # The one word lists without a Python frame per digit, and without
    # entering any of the prefixes that cannot reach 2000 digits.
    out = tmp_path / "words.json"
    argv = ["words", "--phi", "lin:1", "--depth", "2000", "--cap", "2000", "--out", str(out)]
    proc = _run_child(argv, timeout=20)
    assert proc.returncode == 0, proc.stderr
    results = json.loads(out.read_text())["results"]
    assert results["count"] == 1
    assert results["words"] == [list(range(1, 2001))]


def test_gapsys_offset_past_the_bit_budget_is_3(tmp_path):
    # At d = 1e4 the offset at n_max 10**4 needs about 133000 working bits,
    # and each Hurwitz zeta from index 2 on about 10000 or more: the run
    # once hung in them.
    argv = ["gapsys", "--d", "1e4", "--phi", "pow:2", "--eps", "1e-5",
            "--out", str(tmp_path / "gap.json")]
    proc = _run_child(argv, timeout=10)
    assert proc.returncode == 3, proc.stderr
    assert "of the decay-10000.0 tiling needs" in proc.stderr


class TestHugePowerExponents:
    """A power restriction with a huge exponent answers instead of forming
    a power of about alpha * log2(n) bits."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["frostman", "--system", "gauss", "--phi", "pow:1e308", "--eps", "0.1",
             "--depth", "2"],
            ["ladder", "--system", "gauss", "--phi", "pow:1e17", "--eps", "0.1"],
        ],
        ids=["frostman-pow1e308", "ladder-pow1e17"],
    )
    def test_ladder_step_past_the_bit_budget_is_3(self, tmp_path, argv):
        proc = _run_child([*argv, "--out", str(tmp_path / "r.json")], timeout=60)
        assert proc.returncode == 3
        assert "bit budget" in proc.stderr

    def test_words_clip_without_the_power(self, tmp_path):
        out = tmp_path / "words.json"
        argv = ["words", "--phi", "pow:1e300", "--depth", "2", "--cap", "10", "--out", str(out)]
        proc = _run_child(argv, timeout=60)
        assert proc.returncode == 0
        # Phi(1) = 1 admits 2..10 after a 1; nothing follows a larger digit.
        assert json.loads(out.read_text())["results"]["words"] == [[1, a] for a in range(2, 11)]


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
        # Gaps split a gap system's windows, which localdim reads as intervals.
        code, _, _ = _invoke(
            tmp_path, "localdim", "--system", f"gapsys:{gap_path}", "--alpha", "2",
            "--samples", "100", "--depth", "5",
        )
        assert code == 2

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


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
class TestLocalDimBlockWarnings:
    """run() records the warnings of forked chain blocks, and only theirs."""

    @pytest.fixture
    def three_blocks(self, monkeypatch):
        monkeypatch.setattr(_blocks, "_cpu_count", lambda: 3)
        monkeypatch.setattr(measures, "_BLOCK_MIN_SAMPLES", 1)

    ARGV = ("localdim", "--alpha", "2", "--samples", "300", "--depth", "8")

    def test_block_warnings_reach_the_report_in_block_order(
        self, tmp_path, monkeypatch, three_blocks
    ):
        chain_block = measures._chain_block

        def warns(measure, system, root, depth, lo, hi, stream):
            warnings.warn(f"block {lo}..{hi}", RuntimeWarning)
            return chain_block(measure, system, root, depth, lo, hi, stream)

        monkeypatch.setattr(measures, "_chain_block", warns)
        code, report, _ = _invoke(tmp_path, *self.ARGV)
        assert code == 0
        assert report["warnings"] == [
            "RuntimeWarning: block 0..100",
            "RuntimeWarning: block 100..200",
            "RuntimeWarning: block 200..300",
        ]

    def test_the_fork_warning_stays_out_of_the_report(
        self, tmp_path, monkeypatch, three_blocks
    ):
        # Python 3.12+ warns in the parent when a process with threads forks.
        fork = os.fork
        forks = []

        def warning_fork():
            pid = fork()
            if pid:
                forks.append(pid)
                warnings.warn(
                    f"This process (pid={os.getpid()}) is multi-threaded, use of "
                    "fork() may lead to deadlocks in the child.",
                    DeprecationWarning,
                    stacklevel=2,
                )
            return pid

        monkeypatch.setattr(os, "fork", warning_fork)
        code, report, _ = _invoke(tmp_path, *self.ARGV)
        assert code == 0
        assert len(forks) == 2
        assert report["warnings"] == []


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

    def test_false_omits_the_flag(self, tmp_path):
        # gauss_like names --gauss-like whole (underscores map to dashes).
        cfg = tmp_path / "f.cfg"
        cfg.write_text(
            "[untiled]\ncommand = predict\nd = 2\nphi = pow:2\ns0 = 0.5\ngauss_like = false\n"
        )
        out_dir = tmp_path / "bat"
        assert run(["battery", str(cfg), "--out-dir", str(out_dir)]) == 0
        report = json.loads((out_dir / "untiled.json").read_text())
        assert report["config"]["gauss_like"] is False

    def test_malformed_sections_rejected(self, tmp_path):
        out_dir = tmp_path / "bat"
        for body in (
            "[x]\nphi = lin:1\n",  # no command
            "[x]\ncommand = transmogrify\n",  # unknown command
            "[x]\ncommand = words\nphi = lin:1\ndepth = 2\ncap = 3\nexpect = 3\n",
            "[bad name]\ncommand = words\nphi = lin:1\ndepth = 2\ncap = 3\n",
            "[x]\ncommand = battery\n",  # no nesting
            # Keys must name a whole flag of the command, whatever the value.
            "[x]\ncommand = predict\nd = 2\nphi = pow:2\ns0 = 0.5\ngausslike = false\n",
            "[x]\ncommand = predict\nd = 2\nphi = pow:2\ns0 = 0.5\ngauss-lik = true\n",
            "[x]\ncommand = words\nphi = lin:1\ndepth = 2\ncap = 3\nstrict = false\n",
        ):
            cfg = tmp_path / "m.cfg"
            cfg.write_text(body)
            assert run(["battery", str(cfg), "--out-dir", str(out_dir)]) == 2
            # Refused at load: no experiment ran and no summary was written.
            assert list(out_dir.glob("*")) == []

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


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _recip_lines(n: int) -> str:
    return "\n".join(repr(1 / i) for i in range(1, n + 1))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
class TestReadPoints:
    """boxdim's reader against np.loadtxt(path, ndmin=1): the same array
    bytes and shape, or the same exit code and message, at any block count,
    and no child process left behind."""

    @staticmethod
    def _same_read(path):
        def outcome(read):
            try:
                points = read()
            except ValueError as e:
                return "error", str(e)
            return points.shape, points.tobytes()

        want = outcome(lambda: np.loadtxt(path, ndmin=1))
        assert outcome(lambda: cli._read_points(str(path))) == want

    @pytest.mark.parametrize("trailing", ["", "\n"], ids=["no-final-newline", "final-newline"])
    @pytest.mark.parametrize("lines", [10, 11])
    def test_plain_files_split_at_any_block_count(self, tmp_path, forced_blocks, trailing, lines):
        path = tmp_path / "p.txt"
        path.write_text(_recip_lines(lines) + trailing)
        for blocks in (2, 3, 4, 7, lines):
            forced_blocks(blocks)
            self._same_read(path)
            bounds = [lines * b // blocks for b in range(blocks + 1)]
            assert forced_blocks.forked == list(zip(bounds[1:-1], bounds[2:])), blocks
        _assert_no_child_left()

    @pytest.mark.parametrize(
        "text",
        [
            "1 2\n3 4\n5 6\n7 8\n",
            "1,2\n3,4\n5,6\n",
            "# head\n1\n2\n# middle\n3\n4 # tail\n5\n",
            "1\n2\n\n3\n4\n",
            "\n1\n2\n3\n4\n",
            "1\n2\n3\n4\n\n",
            "1\n2\n   \n3\n\t\n4\n",
            "1\r\n2\r\n3\r\n4\r\n",
            "1\r2\r3\r4\r",
            "inf\n-inf\nnan\n1\n2\n",
            " 1\n2 \n3\n4\n",
        ],
        ids=[
            "two-columns", "commas", "comments", "blank-line", "leading-blank",
            "trailing-blank", "whitespace-lines", "crlf", "bare-cr", "inf-nan", "padded",
        ],
    )
    def test_files_that_are_not_plain_read_serially(self, tmp_path, forced_blocks, text):
        path = tmp_path / "p.txt"
        path.write_text(text, newline="")
        forced_blocks(3)
        self._same_read(path)
        assert forced_blocks.forked == []

    @pytest.mark.parametrize("token", ["1.2.3", "e", "+-1"])
    def test_a_bad_line_in_a_forked_block_gives_the_serial_error(
        self, tmp_path, forced_blocks, capsys, token
    ):
        # Line 5 lies in the second of three blocks (lines 3..5 of 0..9).
        lines = _recip_lines(10).split("\n")
        lines[5] = token
        path = tmp_path / "p.txt"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as serial:
            np.loadtxt(path, ndmin=1)
        forced_blocks(3)
        code, _, _ = _invoke(tmp_path, "boxdim", "--points", str(path))
        assert code == 2
        assert str(serial.value) in capsys.readouterr().err
        assert forced_blocks.forked == [(3, 6), (6, 10)]
        _assert_no_child_left()

    def test_a_bad_line_in_the_first_block_gives_the_serial_error(
        self, tmp_path, forced_blocks
    ):
        path = tmp_path / "p.txt"
        path.write_text("1e\n" + _recip_lines(9))
        with pytest.raises(ValueError) as serial:
            np.loadtxt(path, ndmin=1)
        forced_blocks(3)
        with pytest.raises(ValueError) as split:
            cli._read_points(str(path))
        assert str(split.value) == str(serial.value)
        assert len(forced_blocks.forked) == 2
        _assert_no_child_left()

    def test_a_row_total_off_the_line_count_reads_serially(
        self, tmp_path, forced_blocks, monkeypatch
    ):
        # One line too many counted: the last block comes back short, and
        # the in-process reads end with the serial one.
        path = tmp_path / "p.txt"
        path.write_text(_recip_lines(10))
        plain_line_count = cli._plain_line_count
        monkeypatch.setattr(cli, "_plain_line_count", lambda p: plain_line_count(p) + 1)
        loadtxt, reads = np.loadtxt, []

        def spy(*args, **kwargs):
            reads.append(kwargs)
            return loadtxt(*args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", spy)
        forced_blocks(3)
        points = cli._read_points(str(path))
        assert points.tobytes() == loadtxt(path, ndmin=1).tobytes()
        assert reads == [{"skiprows": 0, "max_rows": 3, "ndmin": 1}, {"ndmin": 1}]
        assert forced_blocks.forked == [(3, 7), (7, 11)]
        _assert_no_child_left()

    def test_one_cpu_reads_serially(self, tmp_path, forced_blocks):
        path = tmp_path / "p.txt"
        path.write_text(_recip_lines(10))
        forced_blocks(1)
        self._same_read(path)
        assert forced_blocks.forked == []

    def test_files_of_two_blocks_of_lines_split(self, tmp_path, forced_blocks, monkeypatch):
        # The real block size: 2**17 lines make two blocks, one fewer one.
        for lines, forked in ((2**17 - 1, []), (2**17, [(2**16, 2**17)])):
            forced_blocks(2)
            monkeypatch.setattr(cli, "_READ_BLOCK_LINES", 2**16)
            path = tmp_path / f"p{lines}.txt"
            path.write_text(_recip_lines(lines))
            self._same_read(path)
            assert forced_blocks.forked == forked
        _assert_no_child_left()

    def test_boxdim_reports_match_across_block_counts(self, tmp_path, forced_blocks):
        path = tmp_path / "p.txt"
        path.write_text(_recip_lines(20_000))
        reports = []
        for blocks in (1, 2, 3):
            forced_blocks(blocks)
            code, report, _ = _invoke(tmp_path, "boxdim", "--points", str(path))
            assert code == 0
            del report["config"]["out"]
            reports.append(report)
        assert reports[0] == reports[1] == reports[2]
        assert reports[0]["results"]["n_points"] == 20_000
        _assert_no_child_left()
