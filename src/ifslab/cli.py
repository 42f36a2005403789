"""Command-line front end wiring the library into reproducible experiments.

Each subcommand maps one library operation and emits a machine-readable
report: a JSON object (or its flattened CSV form) holding the schema tag, the
resolved config, the library version, the results, and any warnings raised
during the computation.  The config is every flag of the subcommand under its
argparse dest name, in --help order, ending with out and format; frostman's
verify_depth is resolved to depth when omitted.  Wall time is logged to
stderr only, so reports are byte-identical across runs of the same config and
seed.  The battery entry point runs a list of named experiments from an INI
file, compares declared expectations, and writes a summary table plus one
report per experiment.

Field names are frozen in docs/report_schema.md.  Exit codes: 0 success,
2 precondition violation (bad flags, malformed specs, unwritable paths),
3 numeric failure, 1 battery expectation failure.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import csv
import functools
import io
import json
import os
import pathlib
import re
import sys
import time
import warnings

import mpmath
import numpy as np

from . import __version__
from ._blocks import _block_bounds, _cpu_count, _in_blocks
from .dimension import (
    bowen_root,
    box_dim_estimate,
    cover_sum,
    predict_dimensions,
    subsystem_dim_bounds,
)
from .families import build_gap_system, make_gauss, make_linear_power, validate_gap_system
from .measures import (
    build_frostman_measure,
    local_dim_estimate,
    verify_frostman,
)
from .restrictions import (
    build_ladder,
    count_restricted_words,
    enumerate_restricted_words,
    growth_ratio_bound,
    parse_phi,
)
from .systems import NumericFailure, PreconditionError

_SCHEMA = "ifslab-report/1"
_WORD_LIST_CAP = 200
_DEFAULT_DYADIC = "2:12"
_NAME_RE = re.compile(r"[A-Za-z0-9._-]+\Z")

# boxdim reads a plain points file of at least two blocks of this many
# lines in forked line blocks, one per usable CPU, after one pass over it
# in chunks of _READ_CHUNK bytes that counts its lines.
_READ_BLOCK_LINES = 2**16
_READ_CHUNK = 2**20
_PLAIN_BYTES = b"0123456789+-.eE\n"


def _resolve_system(spec: str):
    """Build a DecaySystem from 'gauss', 'linpow:<d>' or 'gapsys:<path>'."""
    if spec == "gauss":
        return make_gauss()
    kind, sep, arg = spec.partition(":")
    if not sep:
        raise PreconditionError(f"system spec {spec!r} lacks ':'")
    if kind == "linpow":
        try:
            d = float(arg)
        except ValueError as e:
            raise PreconditionError(f"bad decay exponent {arg!r}") from e
        return make_linear_power(d)
    if kind == "gapsys":
        try:
            with open(arg) as fh:
                report = json.load(fh)
        except OSError as e:
            raise PreconditionError(f"cannot read gap-system report {arg!r}: {e}") from e
        except ValueError as e:
            raise PreconditionError(f"gap-system report {arg!r} is not JSON: {e}") from e
        try:
            cfg = report["config"]
            phi, d, eps = cfg["phi"], float(cfg["d"]), float(cfg["eps"])
        except (KeyError, TypeError, ValueError) as e:
            raise PreconditionError(
                f"gap-system report {arg!r} needs config fields phi and numeric d/eps"
            ) from e
        if not isinstance(phi, str):
            raise PreconditionError(f"gap-system report {arg!r} has a non-string phi {phi!r}")
        return build_gap_system(parse_phi(phi), d, eps).system
    raise PreconditionError(f"unknown system kind {kind!r}")


def _plain(obj):
    """Recursively reduce report values to JSON-ready Python scalars."""
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    if obj is None or isinstance(obj, str):
        return obj
    if isinstance(obj, np.ndarray):
        return [_plain(x) for x in obj.tolist()]
    if isinstance(obj, (list, tuple)):
        return [_plain(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    raise TypeError(f"unreportable value of type {type(obj).__name__}")


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if v is True:
        return "true"
    if v is False:
        return "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _flatten_rows(obj, prefix: str = ""):
    """Yield (dotted-path, cell) rows; list indices become path components."""
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _flatten_rows(v, f"{prefix}.{k}" if prefix else str(k))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _flatten_rows(v, f"{prefix}.{i}" if prefix else str(i))
    else:
        yield prefix, _csv_cell(obj)


@contextlib.contextmanager
def _any_int_digits():
    """Lift the interpreter's int-to-str digit limit (4300 digits, Python
    3.10.7 on): ladder values pass it from the 13th pow:2 step."""
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _render(report: dict, fmt: str) -> str:
    with _any_int_digits():
        if fmt == "json":
            return json.dumps(report, indent=2, allow_nan=True) + "\n"
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["key", "value"])
        for key, cell in _flatten_rows(report):
            writer.writerow([key, cell])
        return buf.getvalue()


def _write_out(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _estimate_results(value_key: str, est) -> dict:
    """Flatten a DimensionEstimate: named value, bracket, method, then
    every diagnostics key in construction order."""
    results = {
        value_key: est.value,
        "bracket": list(est.bracket),
        "method": est.method,
    }
    results.update(est.diagnostics)
    return results


def _cmd_bowen(args):
    system = _resolve_system(args.system)
    bounds = subsystem_dim_bounds(system, args.k, args.m, tol=args.tol) if args.bounds else None
    # With --bounds the xi root is the lower bound and the lambda root the
    # upper one, so each band is rooted once.  A capped upper bound is no
    # root: bowen_root then fails on the non-contracting ratio (exit 3).
    est = None
    if bounds:
        est = bounds[0] if args.bound == "xi" else bounds[1]
    if est is None or est.diagnostics.get("capped", False):
        est = bowen_root(system, args.bound, args.k, args.m, tol=args.tol)
    results = _estimate_results("s", est)
    if bounds:
        lower, upper = bounds
        results["bounds"] = {
            "lower": lower.value,
            "upper": upper.value,
            "upper_capped": bool(upper.diagnostics.get("capped", False)),
        }
    return results


def _cmd_ladder(args):
    system = _resolve_system(args.system)
    ladder = build_ladder(system, parse_phi(args.phi), args.eps, args.steps)
    return {
        "threshold": ladder.threshold,
        "values": list(ladder.values),
        "certified": list(ladder.certified),
        "growth_ratio_bound": growth_ratio_bound(ladder) if ladder.windows else None,
    }


def _cmd_words(args):
    phi = parse_phi(args.phi)
    count = count_restricted_words(phi, args.depth, args.cap)
    results = {"count": count}
    if count <= _WORD_LIST_CAP:
        words = enumerate_restricted_words(phi, args.depth, args.cap)
        results["words"] = [list(word) for word in words]
    else:
        results["words_truncated"] = True
    return results


def _cmd_cover(args):
    system = _resolve_system(args.system)
    phi = parse_phi(args.phi)
    value = cover_sum(system, phi, args.depth, args.s, digit_cap=args.cap, method=args.method)
    return {"value": value}


def _parse_scales(args) -> list:
    if args.scales is not None and args.dyadic is not None:
        raise PreconditionError("give either --scales or --dyadic, not both")
    if args.scales is not None:
        try:
            scales = [float(t) for t in args.scales.split(",") if t.strip()]
        except ValueError as e:
            raise PreconditionError(f"bad scales list {args.scales!r}") from e
        if not scales:
            raise PreconditionError("empty scales list")
        return scales
    spec = args.dyadic if args.dyadic is not None else _DEFAULT_DYADIC
    lo, sep, hi = spec.partition(":")
    try:
        j0, j1 = int(lo), int(hi)
    except ValueError as e:
        raise PreconditionError(f"bad dyadic range {spec!r}; expected lo:hi") from e
    if not sep or j1 < j0:
        raise PreconditionError(f"bad dyadic range {spec!r}; expected lo:hi with hi >= lo")
    # 2**-j is a positive finite float from 2**1023 down to 2**-1074.
    if j0 < -1023 or j1 > 1074:
        raise PreconditionError(
            f"bad dyadic range {spec!r}; 2**-j leaves the positive floats outside -1023:1074"
        )
    return [2.0 ** -j for j in range(j0, j1 + 1)]


def _plain_line_count(path) -> int:
    """The line count of a plain points file: a regular file made of digits,
    "+-.eE" and newlines alone, with no empty line.  0 for any other file
    and for one that cannot be read."""
    if not os.path.isfile(path):
        return 0
    lines, last = 0, b"\n"
    try:
        with open(path, "rb") as fh:
            while chunk := fh.read(_READ_CHUNK):
                ends = np.flatnonzero(np.frombuffer(chunk, np.uint8) == ord("\n"))
                # Adjacent line ends, here or across the chunk edge, are an
                # empty line (the first chunk's edge is the file's start).
                if (
                    chunk.translate(None, _PLAIN_BYTES)
                    or last + chunk[:1] == b"\n\n"
                    or (np.diff(ends) == 1).any()
                ):
                    return 0
                lines += ends.size
                last = chunk[-1:]
    except OSError:
        return 0
    return lines + (last != b"\n")


def _read_points(path) -> np.ndarray:
    """np.loadtxt(path, ndmin=1), byte for byte.

    A plain file (``_plain_line_count``) of at least 2 * _READ_BLOCK_LINES
    lines is read in consecutive line blocks, one per usable CPU, the first
    in process and the rest in forked children (``_in_blocks``), and the
    blocks are concatenated in order.  Each line of a plain file is one
    data row, so a block's skiprows and max_rows both count lines; a
    comment, a blank line or a bare carriage return would shift a block,
    and none is plain.  Any other file, a failed block and a row total
    other than the line count all take the one serial read, so its errors
    are np.loadtxt's own.  np.loadtxt holds the GIL, so threads would not
    help.
    """
    lines = _plain_line_count(path) if _cpu_count() > 1 else 0

    def rows(lo: int, hi: int) -> np.ndarray:
        if (lo, hi) == (0, lines):
            return np.loadtxt(path, ndmin=1)
        return np.loadtxt(path, skiprows=lo, max_rows=hi - lo, ndmin=1)

    parts = _in_blocks(rows, _block_bounds(lines, _READ_BLOCK_LINES))
    if len(parts) == 1:
        return parts[0]
    if sum(len(p) for p in parts) != lines:
        return rows(0, lines)
    return np.concatenate(parts)


def _cmd_boxdim(args):
    scales = _parse_scales(args)
    try:
        points = _read_points(args.points)
    except OSError as e:
        raise PreconditionError(f"cannot read points file {args.points!r}: {e}") from e
    except ValueError as e:
        raise PreconditionError(f"points file {args.points!r} is not numeric: {e}") from e
    est = box_dim_estimate(points, scales)
    results = _estimate_results("estimate", est)
    results["n_points"] = int(points.size)
    return results


def _cmd_predict(args):
    phi = parse_phi(args.phi)
    return dict(predict_dimensions(args.d, phi, args.s0, gauss_like=args.gauss_like))


def _cmd_frostman(args):
    system = _resolve_system(args.system)
    phi = parse_phi(args.phi)
    if args.verify_depth is None:
        args.verify_depth = args.depth
    measure = build_frostman_measure(system, phi, args.eps, args.depth)
    report = verify_frostman(
        measure, args.verify_depth, sample_cap=args.sample_cap, seed=args.seed
    )
    # trimmed drops the window's two extreme-image digits.  Branch images
    # are strictly ordered by index in every family (larger index, further
    # left), so those are lo and hi.
    return {
        "ladder": list(measure.ladder.values),
        "levels": [
            {
                "index": n,
                "window": [lo, hi],
                "trimmed": [lo + 1, hi - 1],
                "exponent": lv.exponent,
                "mass_defect": lv.mass_defect,
            }
            for n, (lv, (lo, hi)) in enumerate(zip(measure.levels, measure.ladder.windows), 1)
        ],
        "verify": {
            "depth": report.depth,
            "checked": report.checked,
            "passed": report.passed,
            "fraction": report.fraction,
            "sampled": report.sampled,
            "worst_ratio": report.worst_ratio,
            "witness": list(report.witness) if report.witness is not None else None,
        },
    }


@contextlib.contextmanager
def _replacing(path: str):
    """A text stream to a temporary file beside path, moved over path once
    the block succeeds; on failure it is deleted and path keeps its bytes."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)


def _cmd_localdim(args):
    system = _resolve_system(args.system)
    with contextlib.nullcontext() if args.stream is None else _replacing(args.stream) as fh:
        est = local_dim_estimate(
            system, args.alpha, args.samples, args.depth,
            seed=args.seed, first_digit=args.first_digit, csv_stream=fh,
        )
    return _estimate_results("estimate", est)


def _cmd_gapsys(args):
    phi = parse_phi(args.phi)
    gs = build_gap_system(phi, args.d, args.eps)
    report = validate_gap_system(gs, args.n_max)
    # Interval mass C*zeta(d) plus block gap mass C*j^-2*count/l_{j+1};
    # recomputed from the public fields so the report carries its own check.
    with mpmath.workprec(160):
        total = mpmath.mpf(gs.C) * mpmath.zeta(gs.decay)
        for j, block in enumerate(gs.blocks, 1):
            count = block.end - block.start + 1
            total += mpmath.mpf(gs.C) * mpmath.mpf(j) ** -2 * count / block.end
        defect = float(abs(1 - total))
    return {
        "C": gs.C,
        "C_bracket": list(gs.C_bracket),
        "ladder": list(gs.ladder),
        "blocks": len(gs.blocks),
        "tail_bound": gs.tail_bound,
        "normalization_defect": defect,
        "validation": {
            "n_max": report.n_max,
            "disjoint": report.disjoint,
            "contained": report.contained,
            "gaps_match": report.gaps_match,
            "decaying": report.decaying,
            "threshold": report.threshold,
            "all_pass": report.all_pass,
            "witness": report.witness,
        },
    }


_HANDLERS = {
    "bowen": _cmd_bowen,
    "ladder": _cmd_ladder,
    "words": _cmd_words,
    "cover": _cmd_cover,
    "boxdim": _cmd_boxdim,
    "predict": _cmd_predict,
    "frostman": _cmd_frostman,
    "localdim": _cmd_localdim,
    "gapsys": _cmd_gapsys,
}


def _add_output_flags(sub) -> None:
    sub.add_argument("--out", default="-", help="report path, '-' for stdout")
    sub.add_argument("--format", choices=("json", "csv"), default="json")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="ifslab",
        description="Dimension experiments for power-decay systems with restricted digits.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("bowen", help="finite-subsystem pressure root")
    p.add_argument("--system", default="gauss")
    p.add_argument("--bound", choices=("xi", "lambda"), default="xi")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--bounds", action="store_true", help="add the two-sided rate-bound roots")
    _add_output_flags(p)

    p = subs.add_parser("ladder", help="index ladder for a restriction")
    p.add_argument("--system", default="gauss")
    p.add_argument("--phi", required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--steps", type=int, default=4)
    _add_output_flags(p)

    p = subs.add_parser("words", help="enumerate admissible words")
    p.add_argument("--phi", required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--cap", type=int, required=True)
    _add_output_flags(p)

    p = subs.add_parser("cover", help="cover sum over admissible cylinders")
    p.add_argument("--system", default="gauss")
    p.add_argument("--phi", required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--cap", type=int, default=10_000)
    p.add_argument("--method", choices=("exact", "dp"), default="dp")
    _add_output_flags(p)

    p = subs.add_parser("boxdim", help="box-counting slope of a point file")
    p.add_argument("--points", required=True, help="file of whitespace-separated floats")
    p.add_argument("--scales", default=None, help="comma-separated scale list")
    p.add_argument(
        "--dyadic",
        default=None,
        help=f"lo:hi for scales 2^-lo..2^-hi (default {_DEFAULT_DYADIC})",
    )
    _add_output_flags(p)

    p = subs.add_parser("predict", help="closed-form dimension table")
    p.add_argument("--d", type=float, required=True)
    p.add_argument("--phi", required=True)
    p.add_argument("--s0", type=float, required=True)
    p.add_argument("--gauss-like", action="store_true", dest="gauss_like")
    _add_output_flags(p)

    p = subs.add_parser("frostman", help="layered window measure and its mass check")
    p.add_argument("--system", default="gauss")
    p.add_argument("--phi", required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--verify-depth", type=int, default=None, dest="verify_depth")
    p.add_argument("--sample-cap", type=int, default=100_000, dest="sample_cap")
    p.add_argument("--seed", type=int, default=0)
    _add_output_flags(p)

    p = subs.add_parser("localdim", help="Monte Carlo local scaling slope")
    p.add_argument("--system", default="gauss")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--first-digit", type=int, default=2, dest="first_digit")
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--depth", type=int, default=30)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--stream", default=None, help="per-sample CSV path")
    _add_output_flags(p)

    p = subs.add_parser("gapsys", help="build and validate a gap construction")
    p.add_argument("--d", type=float, required=True)
    p.add_argument("--phi", required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--n-max", type=int, default=10_000, dest="n_max")
    _add_output_flags(p)

    p = subs.add_parser("battery", help="run an INI file of named experiments")
    p.add_argument("config", help="INI file, one experiment per section")
    p.add_argument("--out-dir", default="battery_out", dest="out_dir")

    return parser


def _run_single(args) -> int:
    handler = _HANDLERS[args.command]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t0 = time.perf_counter()
        results = handler(args)
        elapsed = time.perf_counter() - t0
    report = _plain(
        {
            "schema": _SCHEMA,
            "command": args.command,
            "version": __version__,
            # argparse sets every dest's default in parser order, so the
            # namespace lists the flags in --help order, out and format last.
            "config": {k: v for k, v in vars(args).items() if k != "command"},
            "results": results,
            "warnings": [f"{w.category.__name__}: {w.message}" for w in caught],
        }
    )
    print(f"[ifslab] {args.command}: wall {elapsed:.3f}s", file=sys.stderr)
    _write_out(args.out, _render(report, args.format))
    return 0


def _extract_field(results, dotted: str):
    cur = results
    for part in dotted.split("."):
        if isinstance(cur, list):
            cur = cur[int(part)]
        elif isinstance(cur, dict):
            cur = cur[part]
        else:
            raise KeyError(part)
    return cur


def _long_flags(command: str) -> set:
    """A subcommand's flags but help.  A battery key must name one whole,
    where argparse would expand a prefix."""
    subs = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return set(subs.choices[command]._option_string_actions) - {"-h", "--help"}


def _battery_experiments(cfg: configparser.ConfigParser, out_dir: pathlib.Path) -> list:
    experiments = []
    for name in cfg.sections():
        if not _NAME_RE.match(name):
            raise PreconditionError(
                f"experiment name {name!r} is not filesystem-safe ([A-Za-z0-9._-] only)"
            )
        section = dict(cfg.items(name))
        command = section.pop("command", None)
        if command is None:
            raise PreconditionError(f"experiment {name!r} lacks a command key")
        if command not in _HANDLERS:
            raise PreconditionError(f"experiment {name!r}: unknown command {command!r}")
        expect = section.pop("expect", None)
        field = section.pop("expect_field", None)
        tolerance = section.pop("tolerance", None)
        if (expect is None) != (field is None) or (expect is not None) != (tolerance is not None):
            raise PreconditionError(
                f"experiment {name!r}: expect, expect_field and tolerance go together"
            )
        if expect is not None:
            try:
                expect = float(expect)
                tolerance = float(tolerance)
            except ValueError as e:
                raise PreconditionError(
                    f"experiment {name!r}: expect and tolerance must be numeric"
                ) from e
        flags = []
        for key, val in section.items():
            flag = "--" + key.replace("_", "-")
            if flag not in _long_flags(command):
                raise PreconditionError(f"experiment {name!r}: {command} has no flag {flag}")
            low = val.strip().lower()
            if low == "true":
                flags.append(flag)
            elif low != "false":
                flags.extend([flag, val])
        out_path = out_dir / f"{name}.json"
        argv = [command, *flags, "--out", str(out_path), "--format", "json"]
        experiments.append((name, command, argv, out_path, expect, field, tolerance))
    return experiments


def _run_battery(args) -> int:
    cfg = configparser.ConfigParser(interpolation=None)
    try:
        loaded = cfg.read(args.config)
    except configparser.Error as e:
        raise PreconditionError(f"malformed battery config {args.config!r}: {e}") from e
    if not loaded:
        raise PreconditionError(f"cannot read battery config {args.config!r}")
    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    experiments = _battery_experiments(cfg, out_dir)

    t0 = time.perf_counter()
    rows = []
    any_fail = False
    error_code = 0
    for name, command, argv, out_path, expect, field, tolerance in experiments:
        code = run(argv)
        observed = expected = tol_cell = detail = ""
        if code != 0:
            status = "error"
            detail = f"exit {code}"
            error_code = error_code or code
        elif expect is None:
            status = "ran"
        else:
            report = json.loads(out_path.read_text())
            expected = repr(expect)
            tol_cell = repr(tolerance)
            try:
                value = float(_extract_field(report["results"], field))
            except (KeyError, IndexError, TypeError, ValueError) as e:
                status = "error"
                detail = f"expect_field {field!r}: {type(e).__name__}: {e}"
                error_code = error_code or 2
            else:
                observed = repr(value)
                if abs(value - expect) <= tolerance:
                    status = "pass"
                else:
                    status = "fail"
                    any_fail = True
                    detail = "outside tolerance"
        rows.append([name, command, str(code), status, observed, expected, tol_cell, detail])

    summary_path = out_dir / "summary.csv"
    with open(summary_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["name", "command", "exit", "status", "observed", "expected", "tolerance", "detail"]
        )
        writer.writerows(rows)
    elapsed = time.perf_counter() - t0
    print(
        f"[ifslab] battery: {len(rows)} experiment(s), wall {elapsed:.3f}s, "
        f"summary {summary_path}",
        file=sys.stderr,
    )
    if error_code:
        return error_code
    return 1 if any_fail else 0


def run(argv=None) -> int:
    """Parse argv, execute the subcommand, write its report, return the exit
    code: 0 success, 2 precondition, 3 numeric failure, 1 battery miss."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    try:
        if args.command == "battery":
            return _run_battery(args)
        return _run_single(args)
    except PreconditionError as e:
        print(f"ifslab: {e}", file=sys.stderr)
        return 2
    except NumericFailure as e:
        print(f"ifslab: numeric failure: {e}", file=sys.stderr)
        return 3
    except OSError as e:
        print(f"ifslab: {e}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
