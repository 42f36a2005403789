"""Golden reports: pinned report bytes for the documented commands, the
acceptance battery, and per-kind variants of the rate-driven subcommands.

Each case runs the CLI in process with ``--out -`` and compares stdout with
the file under tests/golden/.  Commands that read or write files run in a
scratch directory with relative paths, so no report embeds a machine path.
A refactor that claims "same behaviour" must leave every file unchanged.

To re-pin after an intended change of report bytes (say why in the change
log), run ``PYTHONPATH=src python3 tests/test_golden.py`` from the checkout
root.
"""

import contextlib
import os
import pathlib
import sys

import pytest

from ifslab.cli import run

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
BATTERY_CFG = GOLDEN.parent.parent / "configs" / "acceptance_battery.cfg"

# Written by the gapsys case; the gapsys: system specs read it back.
GAP_REPORT = "gap.json"
GAP_ARGV = ["gapsys", "--d", "2", "--phi", "pow:2", "--eps", "0.1", "--out", GAP_REPORT]
GAP_SYSTEM = f"gapsys:{GAP_REPORT}"

CASES = {
    # README command-line section (localdim cut to 500 samples).
    "bowen_gauss_readme": [
        "bowen", "--system", "gauss", "--bound", "xi", "--k", "10", "--m", "10000",
        "--tol", "1e-10",
    ],
    "predict_pow2_tiled": ["predict", "--d", "2", "--phi", "pow:2", "--gauss-like", "--s0", "0.5"],
    "words_lin1": ["words", "--phi", "lin:1", "--depth", "2", "--cap", "3", "--strict"],
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
}

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


def _gap_report(workdir: pathlib.Path) -> bytes:
    with _cwd(workdir):
        assert run(GAP_ARGV) == 0
    return (workdir / GAP_REPORT).read_bytes()


def _battery(workdir: pathlib.Path) -> dict:
    with _cwd(workdir):
        assert run(["battery", str(BATTERY_CFG), "--out-dir", "battery_out"]) == 0
    return {name: (workdir / "battery_out" / name).read_bytes() for name in BATTERY_FILES}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Scratch directory holding the gap-system report the gapsys: cases read."""
    path = tmp_path_factory.mktemp("golden")
    _gap_report(path)
    return path


def test_gapsys_report(workdir):
    assert (workdir / GAP_REPORT).read_bytes() == (GOLDEN / "gapsys_pow2.json").read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes(name, workdir, capsys, monkeypatch):
    monkeypatch.chdir(workdir)
    capsys.readouterr()
    assert run([*CASES[name], "--out", "-"]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.json").read_text()


def test_battery_bytes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    got = _battery(tmp_path)
    for name in BATTERY_FILES:
        assert got[name] == (GOLDEN / "battery" / name).read_bytes(), name


def _repin() -> None:
    """Rewrite every golden file from the current code."""
    import io
    import tempfile

    (GOLDEN / "battery").mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        workdir = pathlib.Path(tmp)
        (GOLDEN / "gapsys_pow2.json").write_bytes(_gap_report(workdir))
        with _cwd(workdir):
            for name, argv in CASES.items():
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    assert run([*argv, "--out", "-"]) == 0, name
                (GOLDEN / f"{name}.json").write_text(buf.getvalue())
        for name, data in _battery(workdir).items():
            (GOLDEN / "battery" / name).write_bytes(data)


if __name__ == "__main__":
    _repin()
    sys.exit(0)
