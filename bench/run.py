"""ifslab benchmark runner: one workload, one seed, one result line.

    python3 bench/run.py --workload certify --seed 1 --seconds 34 --trace 0

Run it from the checkout root (it changes there itself).  It times the
set-up (``import ifslab.cli`` in fresh interpreters), then starts a single
workload process (bench/workload.py) with BLAS/OpenMP threads pinned to 1
and IFSLAB_WORKERS unset, waits for it, prints a summary, and prints as
its last line one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer ones
with ``--trace 1``).  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

import speed
from ops import MC_SAMPLES, STAGES  # bench/ is on sys.path as the script's directory

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = pathlib.Path(__file__).resolve().parent
OUT = pathlib.Path(".bench_out")

WORKLOADS = ("montecarlo", "certify", "dimension")

# Fresh interpreters timed per run for setup_s; the median is reported.
SETUP_PROBES = 4
PROBE = "import time; t = time.perf_counter(); import ifslab.cli; print(time.perf_counter() - t)"

# Every run must end within this many seconds.
DEADLINE_S = 170.0

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def _env() -> dict:
    env = dict(os.environ)
    env.pop("IFSLAB_WORKERS", None)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _quartiles(values) -> tuple:
    """(median, q1, q3, n) as statistics.quantiles gives them."""
    vals = sorted(values)
    if len(vals) == 1:
        return vals[0], vals[0], vals[0], 1
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return med, q1, q3, len(vals)


def _time_setup(env, deadline) -> tuple:
    """(scaled, raw) import times of fresh interpreters."""
    scaled, raw = [], []
    before = speed.kernel_s()
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, "-c", PROBE],
            env=env, capture_output=True, text=True, check=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
        after = speed.kernel_s()
        raw.append(float(out.stdout.strip()))
        scaled.append(speed.scaled(raw[-1], before, after))
        before = after
    return scaled, raw


def _end_to_end(result: dict, setup: tuple) -> tuple:
    """(metrics, extras): name -> (unit, samples, raw samples or None).

    ``metrics`` are the end-to-end metrics of BENCHMARK.json; ``extras``
    are only printed: the failed fraction and the samples-per-second rate.
    """
    passes = [p for p in result["passes"] if not p["traced"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    raw_stages = [
        [sum(r["elapsed"] for r in p["ops"] if r["stage"] == k + 1) for p in passes]
        for k in range(3)
    ]
    metrics = {
        "setup_s": ("s", setup[0], setup[1]),
        "wall_s": ("s", [p["wall_s"] for p in passes], [p["raw_wall_s"] for p in passes]),
        "ok_frac": ("1", [1.0 - failed / attempted], None),
        "peak_rss_mb": ("MB", [result["peak_rss_mb"]], None),
    }
    for k in range(3):
        metrics[f"stage{k + 1}_s"] = ("s", [p["stages"][k] for p in passes], raw_stages[k])
    extras = {"fail_frac": ("1", [failed / attempted], None)}
    if result["workload"] == "montecarlo":
        samples = 3 * MC_SAMPLES
        extras["mc_samples_per_s"] = (
            "samples/s",
            [samples / p["wall_s"] for p in passes],
            [samples / p["raw_wall_s"] for p in passes],
        )
    return metrics, extras


def _per_layer(result: dict) -> dict:
    untraced = [p["wall_s"] for p in result["passes"] if not p["traced"]]
    traced = [p["wall_s"] for p in result["passes"] if p["traced"]]
    metrics = {name: (unit, [value], None) for name, (unit, value) in result["layers"].items()}
    overhead = statistics.median(traced) - statistics.median(untraced)
    metrics["trace.overhead_s"] = ("s", [overhead], None)
    return metrics


def _print_metrics(metrics: dict, labels: dict) -> None:
    for name, (unit, vals, raw) in metrics.items():
        med, q1, q3, n = _quartiles(vals)
        line = (
            f"  {name}{labels.get(name, '')}: median {med:.6g} {unit}, "
            f"quartiles {q1:.6g}..{q3:.6g}, n {n}"
        )
        if raw is not None:
            line += f" (raw median {_quartiles(raw)[0]:.6g})"
        print(line)


def _print_passes(result: dict) -> None:
    m = result["machine"]
    print(
        f"machine: {m['cpu']}, nproc {m['nproc']}, python {m['python']}, numpy {m['numpy']}, "
        f"scipy {m['scipy']}, mpmath {m['mpmath']}"
    )
    passes = result["passes"]
    print(f"workload {result['workload']}, seed {result['seed']}, {len(passes)} pass(es)")
    for p in passes:
        tag = "traced" if p["traced"] else "untraced"
        print(
            f"  pass {p['index']} {tag:8s} wall {p['wall_s']:.3f} s "
            f"(raw {p['raw_wall_s']:.3f} s at speed {p['speed']:.2f}), "
            f"{p['failed']}/{p['attempted']} failed, digest {p['digest']}"
        )
        for row in p["ops"]:
            if row["reason"]:
                print(f"    FAIL {row['op']}: {row['reason']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="ifslab benchmark runner")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    os.chdir(ROOT)
    needed = ("src/ifslab/cli.py", "configs/acceptance_battery.cfg")
    missing = [p for p in needed if not pathlib.Path(p).is_file()]
    if missing:
        print(f"bench: not an ifslab checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    env = _env()
    setup, setup_raw = _time_setup(env, deadline)

    work_dir = OUT / args.workload
    work_dir.mkdir(parents=True, exist_ok=True)
    result_path = work_dir / f"result-trace{args.trace}.json"
    result_path.unlink(missing_ok=True)
    cmd = [
        sys.executable, str(BENCH / "workload.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--result", str(result_path),
    ]
    with open(work_dir / f"ops-trace{args.trace}.log", "w") as log:
        try:
            subprocess.run(
                cmd, env=env, stdout=log, stderr=log, check=True,
                timeout=max(1.0, deadline - time.monotonic()),
            )
        except subprocess.TimeoutExpired:
            print(f"bench: workload process passed the {DEADLINE_S:g} s deadline", file=sys.stderr)
            return 1
        except subprocess.CalledProcessError as e:
            print(f"bench: workload process exited {e.returncode}; see {log.name}", file=sys.stderr)
            return 1
    result = json.loads(result_path.read_text())

    _print_passes(result)
    if args.trace:
        metrics = _per_layer(result)
        _print_metrics(metrics, {})
    else:
        metrics, extras = _end_to_end(result, (setup, setup_raw))
        labels = {f"stage{k + 1}_s": f" = {n}" for k, n in enumerate(STAGES[args.workload])}
        _print_metrics(metrics, labels)
        _print_metrics(extras, {})
    passes = result["passes"]
    untraced = [p["digest"] for p in passes if not p["traced"]]
    traced = [p["digest"] for p in passes if p["traced"]]
    digests_match = not traced or traced == untraced
    if not digests_match:
        print("  FAIL traced reports differ from untraced ones", file=sys.stderr)
    line = {
        "correct": digests_match and not any(p["wrong"] for p in passes),
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": {
            name: {"value": _quartiles(vals)[0], "unit": unit}
            for name, (unit, vals, _raw) in metrics.items()
        },
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
