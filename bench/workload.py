"""Run one benchmark workload in this (fresh, single-threaded) interpreter.

A closed loop with one client: the ops of the workload run one at a time
through ``ifslab.cli.run``, each writing its report under ``.bench_out/``,
and every report is checked against its oracle before the next op starts.
Passes over the op list repeat until the time budget is spent.  With
``--trace 1`` untraced and traced passes alternate on the same inputs; the
traced ones supply the per-layer numbers and must give the same report
digests.  The result goes to ``--result`` as JSON for ``run.py``.

Run from the checkout root with ``src`` on PYTHONPATH; ``run.py`` does this.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import pickle
import platform
import resource
import select
import shutil
import signal
import statistics
import sys
import time
import traceback

import ifslab.cli as cli
import mpmath
import numpy as np
import scipy

import ops as workloads  # bench/ is on sys.path as the script's directory
import speed
from spans import Tracer

ALL = ("calls", "self_s", "errors")

# Per-layer functions and the counters reported for each ("words" is the
# generator's yield count, or the checked-word count of verify_frostman).
LAYER_FUNCTIONS = (
    ("powersum.power_sum_brackets", ALL),
    ("powersum.first_index_reaching", ALL),
    ("restrictions.Phi.floor", ALL),
    ("restrictions.Phi.ceil", ALL),
    ("restrictions.enumerate_restricted_words", ("words", "self_s")),
    ("restrictions.build_ladder", ALL),
    ("systems.cylinder_interval", ALL),
    ("systems.verify_power_decay", ALL),
    ("families.build_gap_system", ALL),
    ("families.validate_gap_system", ALL),
    ("families.make_linear_power", ALL),
    ("dimension.bowen_root", ALL),
    ("dimension.subsystem_dim_bounds", ALL),
    ("dimension.cover_sum", ALL),
    ("dimension.box_dim_estimate", ALL),
    ("measures.local_dim_estimate", ALL),
    ("measures.build_frostman_measure", ALL),
    ("measures.verify_frostman", ("self_s", "words")),
    ("cli.run", ("calls", "self_s")),
)


def _machine() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu
            )
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
    }


def _files(paths) -> list:
    out = []
    for p in paths:
        if p.is_dir():
            out += sorted(q for q in p.rglob("*") if q.is_file())
        elif p.is_file():
            out.append(p)
    return out


def _clear(paths) -> None:
    for p in paths:
        if p.is_dir():
            shutil.rmtree(p)
        else:
            p.unlink(missing_ok=True)
        p.parent.mkdir(parents=True, exist_ok=True)


def _call(argv) -> int:
    # The boundary of one op: a crash inside the library must not take the
    # whole workload down, so it is logged and reported as exit -1.
    try:
        return cli.run(argv)
    except Exception:  # noqa: BLE001
        traceback.print_exc()
        return -1


def _run_inline(op, tracer):
    t0 = time.perf_counter()
    code = _call(op.argv)
    return code, time.perf_counter() - t0, False


def _run_forked(op, tracer):
    """Run the op in a forked child the parent kills at the op's budget."""
    mark = tracer.mark() if tracer else 0
    r, w = os.pipe()
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(r)
            t0 = time.perf_counter()
            code = _call(op.argv)
            elapsed = time.perf_counter() - t0
            spans = tracer.export_since(mark) if tracer else None
            with os.fdopen(w, "wb") as fh:
                fh.write(pickle.dumps({"code": code, "elapsed": elapsed, "spans": spans}))
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(0)
    os.close(w)
    t0 = time.perf_counter()
    try:
        ready, _, _ = select.select([r], [], [], op.budget_s)
        if not ready:
            os.kill(pid, signal.SIGKILL)
            return -signal.SIGKILL, op.budget_s, True
        with os.fdopen(r, "rb", closefd=False) as fh:
            data = fh.read()
    finally:
        os.close(r)
        os.waitpid(pid, 0)
    if not data:
        return -1, time.perf_counter() - t0, False
    # Only this process's own forked child wrote these bytes.
    msg = pickle.loads(data)
    if tracer:
        tracer.merge(mark, msg["spans"])
    return msg["code"], msg["elapsed"], False


def run_pass(name: str, seed: int, index: int, tracer) -> dict:
    """One pass over the workload's op list; returns per-op rows and totals."""

    def seeds(k: int) -> int:
        return int(np.random.SeedSequence([seed, index, k]).generate_state(1)[0])

    ops = workloads.WORKLOADS[name](seeds)
    kernel = [speed.kernel_s()]
    ctx: dict = {}
    rows = []
    digest = hashlib.sha256()
    nbytes = 0
    for k, op in enumerate(ops):
        _clear(op.outputs)
        if tracer:
            tracer.op = 1000 * index + k
        runner = _run_forked if op.forked else _run_inline
        code, elapsed, killed = runner(op, tracer)
        kernel.append(speed.kernel_s())
        # A kill is charged the budget itself: the hang costs that much at
        # any machine speed.
        scaled = op.budget_s if killed else speed.scaled(elapsed, kernel[-2], kernel[-1])
        results, kind, reason = None, None, None
        if killed:
            _clear(op.outputs)  # a report the child left half written is no output
            kind, reason = "budget", f"killed at its {op.budget_s:g} s budget"
        elif elapsed > op.budget_s:
            kind, reason = "budget", f"{elapsed:.1f} s overran its {op.budget_s:g} s budget"
        elif code not in op.ok_exits:
            kind, reason = "exit", f"unexpected exit code {code}"
        else:
            report = op.outputs[0]
            if code == 0 and report.suffix == ".json":
                results = json.loads(report.read_text())["results"]
            reason = workloads.run_check(op, code, results, ctx)
            kind = "wrong" if reason else None
        ctx[op.name] = results if reason is None else None
        for f in _files(op.outputs):
            data = f.read_bytes()
            digest.update(str(f).encode() + b"\0" + data)
            nbytes += len(data)
        rows.append(
            {"op": op.name, "stage": op.stage, "elapsed": elapsed, "scaled": scaled,
             "exit": code, "kind": kind, "reason": reason}
        )
    stages = [sum(r["scaled"] for r in rows if r["stage"] == s) for s in (1, 2, 3)]
    rel_err = 0.0
    exact, dp = ctx.get("cover-exact-d3-c200"), ctx.get("cover-dp-d3-c200")
    if exact and dp:
        rel_err = abs(dp["value"] - exact["value"]) / exact["value"]
    return {
        "index": index,
        "traced": tracer is not None,
        "wall_s": sum(r["scaled"] for r in rows),
        "raw_wall_s": sum(r["elapsed"] for r in rows),
        "speed": speed.REFERENCE_S / statistics.median(kernel),
        "stages": stages,
        "attempted": len(rows),
        "failed": sum(r["kind"] is not None for r in rows),
        "wrong": sum(r["kind"] == "wrong" for r in rows),
        "digest": digest.hexdigest(),
        "report_bytes": nbytes,
        "cover_dp_rel_err": rel_err,
        "ops": rows,
    }


def layer_metrics(tracer: Tracer, pass_row: dict) -> tuple:
    """Per-layer metrics of one traced pass, from its spans."""
    summary = tracer.summary()
    fns, arrays = summary["functions"], summary["arrays"]
    zero = {"calls": 0, "self_s": 0.0, "errors": 0, "size": 0}
    out = {}
    for fn, keys in LAYER_FUNCTIONS:
        got = fns.get(fn, zero)
        for key in keys:
            unit = "s" if key == "self_s" else "count"
            out[f"{fn}.{key}"] = (unit, got["size" if key == "words" else key])

    def name_id(fn):
        return tracer.names.index(fn) if fn in tracer.names else -2

    name = arrays["name"]

    def count_inside(fn, ancestor):
        anc = tracer.nearest_ancestor(arrays, ancestor)
        return int(np.count_nonzero((name == name_id(fn)) & (anc >= 0)))

    # A ratio whose base is 0 (the workload never runs the layer) reads 0.
    def ratio(num, den):
        return num / den if den else 0.0

    steps = fns.get("restrictions.build_ladder", zero)["size"]
    samples = fns.get("measures.local_dim_estimate", zero)["size"]
    brackets = count_inside("powersum.power_sum_brackets", "restrictions.build_ladder")
    fallbacks = count_inside("powersum.first_index_reaching", "measures.local_dim_estimate")
    cover_anc = tracer.nearest_ancestor(arrays, "dimension.cover_sum")
    enum = name == name_id("restrictions.enumerate_restricted_words")
    exact_covers = len(np.unique(cover_anc[enum & (cover_anc >= 0)]))
    covers = fns.get("dimension.cover_sum", zero)["calls"]
    out.update(
        {
            "powersum.ladder_steps": ("count", steps),
            "powersum.brackets_per_ladder_step": ("calls/step", ratio(brackets, steps)),
            "measures.samples": ("count", samples),
            "measures.fallbacks_per_sample": ("calls/sample", ratio(fallbacks, samples)),
            "dimension.cover_exact_share": ("1", ratio(exact_covers, covers)),
            "dimension.cover_dp_rel_err": ("1", pass_row["cover_dp_rel_err"]),
            "cli.report_bytes": ("B", pass_row["report_bytes"]),
        }
    )
    return out, arrays


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)

    if args.workload == "dimension":
        workloads.write_point_files(args.seed)
    tracer = Tracer() if args.trace else None
    passes, layers = [], []
    last_arrays = None
    start = time.perf_counter()
    index = 0
    while True:
        t0 = time.perf_counter()
        passes.append(run_pass(args.workload, args.seed, index, None))
        if tracer:
            tracer.clear()
            tracer.install()
            try:
                row = run_pass(args.workload, args.seed, index, tracer)
            finally:
                tracer.uninstall()
            passes.append(row)
            metrics, last_arrays = layer_metrics(tracer, row)
            layers.append(metrics)
            tracer.clear()
        index += 1
        lap = time.perf_counter() - t0
        if time.perf_counter() - start + lap > args.seconds:
            break

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": _machine(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "passes": passes,
        "layers": {
            k: (unit, statistics.median(m[k][1] for m in layers))
            for k, (unit, _) in (layers[0].items() if layers else ())
        },
    }
    if last_arrays is not None:
        sidecar = workloads.OUT / args.workload / "trace.npz"
        np.savez_compressed(sidecar, names=np.array(tracer.names), **last_arrays)
        result["trace_file"] = str(sidecar)
    pathlib.Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
