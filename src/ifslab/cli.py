"""Command-line front end wiring the library into reproducible experiments.

Each subcommand maps one library operation, resolves its parameters into a
config block, and emits a machine-readable report: a JSON object (or its
flattened CSV form) holding the schema tag, the resolved config, the library
version, the results, and any warnings raised during the computation.  Wall
time is logged to stderr only, so reports are byte-identical across runs of
the same config and seed.  The battery entry point runs a list of named
experiments from an INI file, compares declared expectations, and writes a
summary table plus one report per experiment.

Field names are frozen in docs/report_schema.md.  Exit codes: 0 success,
2 precondition violation (bad flags, malformed specs, unwritable paths),
3 numeric failure, 1 battery expectation failure.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import io
import json
import pathlib
import re
import sys
import time
import warnings

import mpmath
import numpy as np

from . import __version__
from .dimension import (
    bowen_root,
    box_dim_estimate,
    cover_sum,
    predict_dimensions,
    subsystem_dim_bounds,
)
from .families import build_gap_system, make_gauss, make_linear_power, validate_gap_system
from .measures import (
    PowerLawDigitMeasure,
    build_frostman_measure,
    local_dim_estimate,
    verify_frostman,
)
from .restrictions import build_ladder, enumerate_restricted_words, growth_ratio_bound, parse_phi
from .systems import NumericFailure, PreconditionError

_SCHEMA = "ifslab-report/1"
_WORD_LIST_CAP = 200
_DEFAULT_DYADIC = "2:12"
_NAME_RE = re.compile(r"[A-Za-z0-9._-]+\Z")


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
            phi = parse_phi(cfg["phi"])
            gs = build_gap_system(phi, float(cfg["d"]), float(cfg["eps"]))
        except (KeyError, TypeError) as e:
            raise PreconditionError(
                f"gap-system report {arg!r} lacks the config fields phi/d/eps"
            ) from e
        return gs.system
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


def _render(report: dict, fmt: str) -> str:
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
    config = {
        "system": args.system,
        "bound": args.bound,
        "k": args.k,
        "m": args.m,
        "tol": args.tol,
        "bounds": bool(args.bounds),
    }
    est = bowen_root(system, args.bound, args.k, args.m, tol=args.tol)
    results = _estimate_results("s", est)
    if args.bounds:
        lower, upper = subsystem_dim_bounds(system, args.k, args.m, tol=args.tol)
        results["bounds"] = {
            "lower": lower.value,
            "upper": upper.value,
            "upper_capped": bool(upper.diagnostics.get("capped", False)),
        }
    return config, results


def _cmd_ladder(args):
    system = _resolve_system(args.system)
    phi = parse_phi(args.phi)
    config = {
        "system": args.system,
        "phi": args.phi,
        "eps": args.eps,
        "steps": args.steps,
    }
    ladder = build_ladder(system, phi, args.eps, args.steps)
    results = {
        "threshold": ladder.threshold,
        "values": list(ladder.values),
        "certified": list(ladder.certified),
        "growth_ratio_bound": growth_ratio_bound(ladder, phi) if len(ladder) >= 2 else None,
    }
    return config, results


def _cmd_words(args):
    phi = parse_phi(args.phi)
    config = {
        "phi": args.phi,
        "depth": args.depth,
        "cap": args.cap,
        "strict": bool(args.strict),
    }
    count = 0
    head = []
    for word in enumerate_restricted_words(phi, args.depth, args.cap, strict=args.strict):
        count += 1
        if count <= _WORD_LIST_CAP:
            head.append(list(word))
    results = {"count": count}
    if count <= _WORD_LIST_CAP:
        results["words"] = head
    else:
        results["words_truncated"] = True
    return config, results


def _cmd_cover(args):
    system = _resolve_system(args.system)
    phi = parse_phi(args.phi)
    config = {
        "system": args.system,
        "phi": args.phi,
        "depth": args.depth,
        "s": args.s,
        "cap": args.cap,
        "method": args.method,
    }
    value = cover_sum(system, phi, args.depth, args.s, digit_cap=args.cap, method=args.method)
    return config, {"value": value}


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
    return [2.0 ** -j for j in range(j0, j1 + 1)]


def _cmd_boxdim(args):
    scales = _parse_scales(args)
    config = {
        "points": args.points,
        "scales": args.scales,
        "dyadic": args.dyadic if args.scales is None else None,
    }
    try:
        points = np.loadtxt(args.points, ndmin=1)
    except OSError as e:
        raise PreconditionError(f"cannot read points file {args.points!r}: {e}") from e
    except ValueError as e:
        raise PreconditionError(f"points file {args.points!r} is not numeric: {e}") from e
    est = box_dim_estimate(points, scales)
    results = _estimate_results("estimate", est)
    results["n_points"] = int(points.size)
    return config, results


def _cmd_predict(args):
    phi = parse_phi(args.phi)
    config = {
        "d": args.d,
        "phi": args.phi,
        "s0": args.s0,
        "gauss_like": bool(args.gauss_like),
    }
    table = predict_dimensions(args.d, phi, args.s0, gauss_like=args.gauss_like)
    return config, dict(table)


def _cmd_frostman(args):
    system = _resolve_system(args.system)
    phi = parse_phi(args.phi)
    verify_depth = args.depth if args.verify_depth is None else args.verify_depth
    config = {
        "system": args.system,
        "phi": args.phi,
        "eps": args.eps,
        "depth": args.depth,
        "verify_depth": verify_depth,
        "sample_cap": args.sample_cap,
        "seed": args.seed,
    }
    measure = build_frostman_measure(system, phi, args.eps, args.depth)
    report = verify_frostman(measure, verify_depth, sample_cap=args.sample_cap, seed=args.seed)
    results = {
        "ladder": list(measure.ladder.values),
        "levels": [
            {
                "index": lv.index,
                "window": list(lv.window),
                "trimmed": list(lv.trimmed),
                "exponent": lv.exponent,
                "mass_defect": lv.mass_defect,
            }
            for lv in measure.levels
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
    return config, results


def _cmd_localdim(args):
    system = _resolve_system(args.system)
    config = {
        "system": args.system,
        "alpha": args.alpha,
        "first_digit": args.first_digit,
        "samples": args.samples,
        "depth": args.depth,
        "seed": args.seed,
        "stream": args.stream,
    }
    measure = PowerLawDigitMeasure(system.decay, args.alpha, first_digit=args.first_digit)
    if args.stream is not None:
        with open(args.stream, "w", newline="") as fh:
            est = local_dim_estimate(
                measure, system, args.samples, args.depth, seed=args.seed, csv_stream=fh
            )
    else:
        est = local_dim_estimate(measure, system, args.samples, args.depth, seed=args.seed)
    return config, _estimate_results("estimate", est)


def _cmd_gapsys(args):
    phi = parse_phi(args.phi)
    config = {"d": args.d, "phi": args.phi, "eps": args.eps, "n_max": args.n_max}
    gs = build_gap_system(phi, args.d, args.eps)
    report = validate_gap_system(gs, args.n_max)
    # Interval mass C*zeta(d) plus block gap mass C*j^-2*count/l_{j+1};
    # recomputed from the public fields so the report carries its own check.
    with mpmath.workprec(160):
        total = mpmath.mpf(gs.C) * mpmath.zeta(gs.decay)
        for block in gs.blocks:
            count = block.end - block.start + 1
            total += mpmath.mpf(gs.C) * mpmath.mpf(block.j) ** -2 * count / block.end
        defect = float(abs(1 - total))
    results = {
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
    return config, results


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


def _build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--strict", action=argparse.BooleanOptionalAction, default=True)
    _add_output_flags(p)

    p = subs.add_parser("cover", help="cover sum over admissible cylinders")
    p.add_argument("--system", default="gauss")
    p.add_argument("--phi", required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--cap", type=int, default=10_000)
    p.add_argument("--method", choices=("auto", "exact", "dp"), default="auto")
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
        config, results = handler(args)
        elapsed = time.perf_counter() - t0
    config["out"] = args.out
    config["format"] = args.format
    report = _plain(
        {
            "schema": _SCHEMA,
            "command": args.command,
            "version": __version__,
            "config": config,
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
            low = val.strip().lower()
            if low == "true":
                flags.append(flag)
            elif low == "false":
                # BooleanOptionalAction flags take --no-<flag>; store_true
                # flags are simply omitted when false.
                if key == "strict":
                    flags.append("--no-strict")
            else:
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
    codes = [run(exp[2]) for exp in experiments]

    rows = []
    any_fail = False
    error_code = 0
    for (name, command, _argv, out_path, expect, field, tolerance), code in zip(
        experiments, codes
    ):
        observed = expected = tol_cell = detail = ""
        if code != 0:
            status = "error"
            detail = f"exit {code}"
            if error_code == 0:
                error_code = code
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
                if error_code == 0:
                    error_code = 2
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
