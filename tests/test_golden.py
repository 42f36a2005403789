"""Golden reports: pinned report bytes for the documented commands, the
acceptance battery, per-kind variants of the rate-driven subcommands, and
the per-sample CSV of ``localdim --stream``.

Each case runs the CLI in process with ``--out -`` and compares stdout with
the file under tests/golden/ named after the case and its ``--format``.
Commands that read or write files run in a scratch directory with relative
paths, so no report embeds a machine path.
A refactor that claims "same behaviour" must leave every file unchanged.

To re-pin after an intended change of report bytes (say why in the change
log), run ``PYTHONPATH=src python3 tests/test_golden.py [NAME...]`` from the
checkout root.  Each NAME is a case name, ``gapsys_pow2``,
``localdim_gauss_stream`` or ``battery``;
only the named files are rewritten, and every file when no name is given.
"""

import contextlib
import io
import json
import os
import pathlib
import re
import sys

import pytest

from ifslab.cli import run

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
BATTERY_CFG = GOLDEN.parent.parent / "configs" / "acceptance_battery.cfg"

# Written by the gapsys case; the gapsys: system specs read it back.
GAP_REPORT = "gap.json"
GAP_ARGV = ["gapsys", "--d", "2", "--phi", "pow:2", "--eps", "0.1", "--out", GAP_REPORT]
GAP_SYSTEM = f"gapsys:{GAP_REPORT}"

# Read by the boxdim cases: the points 1/n, n = 1..2000 (box dimension 1/2).
POINTS_FILE = "points.txt"
POINTS_TEXT = "".join(f"{1 / n!r}\n" for n in range(1, 2001))

CASES = {
    # README command-line section (localdim cut to 500 samples).
    "bowen_gauss_readme": [
        "bowen", "--system", "gauss", "--bound", "xi", "--k", "10", "--m", "10000",
        "--tol", "1e-10",
    ],
    "predict_pow2_tiled": ["predict", "--d", "2", "--phi", "pow:2", "--gauss-like", "--s0", "0.5"],
    "words_lin1": ["words", "--phi", "lin:1", "--depth", "2", "--cap", "3"],
    "localdim_gauss": [
        "localdim", "--system", "gauss", "--alpha", "2", "--samples", "500", "--depth", "30",
        "--seed", "0",
    ],
    "ladder_gapsys_readme": ["ladder", "--system", GAP_SYSTEM, "--phi", "lin:1", "--eps", "0.1"],
    # Variants over the three system kinds.
    "bowen_gauss_bounds": ["bowen", "--system", "gauss", "--k", "50", "--m", "50000", "--bounds"],
    "bowen_linpow_bounds": [
        "bowen", "--system", "linpow:2", "--k", "10", "--m", "10000", "--bounds",
    ],
    "ladder_linpow_pow15": ["ladder", "--system", "linpow:2", "--phi", "pow:1.5", "--eps", "0.1"],
    "frostman_gauss": [
        "frostman", "--system", "gauss", "--phi", "lin:1", "--eps", "0.1", "--depth", "2",
    ],
    "frostman_linpow": [
        "frostman", "--system", "linpow:2", "--phi", "lin:1", "--eps", "0.1", "--depth", "2",
    ],
    "frostman_gapsys": [
        "frostman", "--system", GAP_SYSTEM, "--phi", "lin:1", "--eps", "0.1", "--depth", "2",
    ],
    "cover_gauss_exact": [
        "cover", "--system", "gauss", "--phi", "lin:1", "--depth", "3", "--s", "0.6",
        "--cap", "50", "--method", "exact",
    ],
    "cover_gauss_dp": [
        "cover", "--system", "gauss", "--phi", "lin:1", "--depth", "3", "--s", "0.6",
        "--cap", "100", "--method", "dp",
    ],
    # The largest digit cap the Gauss transfer program accepts.
    "cover_gauss_dp_c20000": [
        "cover", "--system", "gauss", "--phi", "lin:1", "--depth", "4", "--s", "0.6",
        "--cap", "20000", "--method", "dp",
    ],
    "cover_gauss_dp_pow15_c3001": [
        "cover", "--system", "gauss", "--phi", "pow:1.5", "--depth", "5", "--s", "0.45",
        "--cap", "3001", "--method", "dp",
    ],
    "cover_linpow_exact": [
        "cover", "--system", "linpow:2", "--phi", "lin:1", "--depth", "3", "--s", "0.6",
        "--cap", "50", "--method", "exact",
    ],
    "cover_linpow_dp": [
        "cover", "--system", "linpow:2", "--phi", "lin:1", "--depth", "3", "--s", "0.6",
        "--cap", "100",
    ],
    "cover_gapsys": [
        "cover", "--system", GAP_SYSTEM, "--phi", "lin:1", "--depth", "3", "--s", "0.6",
        "--cap", "100",
    ],
    "ladder_gapsys_pow15": ["ladder", "--system", GAP_SYSTEM, "--phi", "pow:1.5", "--eps", "0.1"],
    "localdim_linpow": [
        "localdim", "--system", "linpow:2", "--alpha", "2", "--samples", "200", "--depth", "12",
        "--seed", "3",
    ],
    # Big-integer ladder steps with their certified flags.
    "ladder_gauss_pow2": [
        "ladder", "--system", "gauss", "--phi", "pow:2", "--eps", "0.1", "--steps", "10",
    ],
    # A non-dyadic exponent: Phi floored on the adaptive-precision route.
    "ladder_gauss_pow13": [
        "ladder", "--system", "gauss", "--phi", "pow:1.3", "--eps", "0.1", "--steps", "20",
    ],
    # Most digit draws leave the inverse-CDF table at alpha 1.5.
    "localdim_gauss_a15": [
        "localdim", "--system", "gauss", "--alpha", "1.5", "--samples", "500", "--depth", "30",
        "--seed", "0",
    ],
    # The scale flags: an explicit list, then a dyadic range.
    "boxdim_scales": [
        "boxdim", "--points", POINTS_FILE, "--scales", "0.25,0.125,0.0625,0.03125,0.015625",
    ],
    "boxdim_dyadic": ["boxdim", "--points", POINTS_FILE, "--dyadic", "2:8"],
    # The sampled Frostman route: int64 continuants, object-dtype
    # continuants (level-5 windows near 2**30), and an affine kind.
    "frostman_gauss_sampled": [
        "frostman", "--system", "gauss", "--phi", "lin:1", "--eps", "0.1", "--depth", "4",
        "--sample-cap", "20000",
    ],
    "frostman_gauss_pow15_sampled": [
        "frostman", "--system", "gauss", "--phi", "pow:1.5", "--eps", "0.1", "--depth", "5",
        "--sample-cap", "5000",
    ],
    "frostman_linpow_sampled": [
        "frostman", "--system", "linpow:2", "--phi", "lin:1", "--eps", "0.1", "--depth", "3",
        "--sample-cap", "300", "--seed", "7",
    ],
    # The flattened CSV form of a report.
    "cover_gauss_exact_csv": [
        "cover", "--system", "gauss", "--phi", "lin:1", "--depth", "3", "--s", "0.6",
        "--cap", "50", "--method", "exact", "--format", "csv",
    ],
}

# The per-(sample, level) rows localdim --stream writes beside its report:
# levels of the exact word and, with an empty digit, levels past it; every
# float by repr.
STREAM_FILE = "stream.csv"
STREAM_ARGV = [
    "localdim", "--system", "gauss", "--alpha", "2", "--samples", "100", "--depth", "5",
    "--seed", "0", "--stream", STREAM_FILE,
]
STREAM_GOLDEN = GOLDEN / "localdim_gauss_stream.csv"

BATTERY_FILES = ("summary.csv", "bowen-gauss-k10.json", "ladder-gauss-lin1.json",
                 "predict-pow2-tiled.json")


@contextlib.contextmanager
def _cwd(path):
    old = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(old)


def _golden_file(name: str) -> pathlib.Path:
    argv = CASES[name]
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "json"
    return GOLDEN / f"{name}.{fmt}"


def _gap_report(workdir: pathlib.Path) -> bytes:
    with _cwd(workdir):
        assert run(GAP_ARGV) == 0
    return (workdir / GAP_REPORT).read_bytes()


def _stream_csv(workdir: pathlib.Path) -> bytes:
    with _cwd(workdir), contextlib.redirect_stdout(io.StringIO()):
        assert run([*STREAM_ARGV, "--out", "-"]) == 0
    return (workdir / STREAM_FILE).read_bytes()


def _battery(workdir: pathlib.Path) -> dict:
    with _cwd(workdir):
        assert run(["battery", str(BATTERY_CFG), "--out-dir", "battery_out"]) == 0
    return {name: (workdir / "battery_out" / name).read_bytes() for name in BATTERY_FILES}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Scratch directory holding the gap-system report the gapsys: cases read
    and the points file the boxdim cases read."""
    path = tmp_path_factory.mktemp("golden")
    (path / POINTS_FILE).write_text(POINTS_TEXT)
    _gap_report(path)
    return path


def test_gapsys_report(workdir):
    assert (workdir / GAP_REPORT).read_bytes() == (GOLDEN / "gapsys_pow2.json").read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes(name, workdir, capsys, monkeypatch):
    monkeypatch.chdir(workdir)
    capsys.readouterr()
    assert run([*CASES[name], "--out", "-"]) == 0
    assert capsys.readouterr().out == _golden_file(name).read_text()


@pytest.mark.parametrize("command", sorted({argv[0] for argv in CASES.values()}))
def test_config_lists_every_flag_in_help_order(command, capsys):
    assert run([command, "--help"]) == 0
    flags = re.findall(r"^  --([a-z0-9-]+)", capsys.readouterr().out, re.M)
    dests = [flag.replace("-", "_") for flag in flags]
    for name, argv in CASES.items():
        if argv[0] == command and "--format" not in argv:
            assert list(json.loads(_golden_file(name).read_text())["config"]) == dests, name


def test_bad_argv_then_good_run_in_one_process(workdir, capsys, monkeypatch):
    # The parser is built once per process; a parse that exits 2 must leave
    # it fit for the next run.
    monkeypatch.chdir(workdir)
    assert run(["words", "--phi", "lin:1", "--depth", "2", "--cap", "3", "--zap"]) == 2
    assert run(["ladder", "--eps", "0.1"]) == 2
    capsys.readouterr()
    assert run([*CASES["words_lin1"], "--out", "-"]) == 0
    assert capsys.readouterr().out == _golden_file("words_lin1").read_text()


def test_stream_csv_bytes(tmp_path):
    assert _stream_csv(tmp_path) == STREAM_GOLDEN.read_bytes()


def test_battery_bytes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    got = _battery(tmp_path)
    for name in BATTERY_FILES:
        assert got[name] == (GOLDEN / "battery" / name).read_bytes(), name


def _repin(names) -> None:
    """Rewrite the named golden files from the current code; every file when
    no name is given."""
    import tempfile

    known = {*CASES, "gapsys_pow2", "localdim_gauss_stream", "battery"}
    unknown = sorted(set(names) - known)
    if unknown:
        raise SystemExit(f"unknown golden case(s): {', '.join(unknown)}")
    chosen = set(names) or known
    with tempfile.TemporaryDirectory() as tmp:
        workdir = pathlib.Path(tmp)
        (workdir / POINTS_FILE).write_text(POINTS_TEXT)
        gap_report = _gap_report(workdir)
        if "gapsys_pow2" in chosen:
            (GOLDEN / "gapsys_pow2.json").write_bytes(gap_report)
        with _cwd(workdir):
            for name, argv in CASES.items():
                if name not in chosen:
                    continue
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    assert run([*argv, "--out", "-"]) == 0, name
                _golden_file(name).write_text(buf.getvalue())
        if "localdim_gauss_stream" in chosen:
            STREAM_GOLDEN.write_bytes(_stream_csv(workdir))
        if "battery" in chosen:
            (GOLDEN / "battery").mkdir(parents=True, exist_ok=True)
            for name, data in _battery(workdir).items():
                (GOLDEN / "battery" / name).write_bytes(data)


if __name__ == "__main__":
    _repin(sys.argv[1:])
