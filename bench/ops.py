"""The three benchmark workloads: experiment lists and their oracle checks.

Each op is one ``ifslab`` argv, the files it writes, a wall budget, and a
check of its report against a closed form (the oracles of
tests/test_acceptance.py).  A check returns None on a pass and a reason
otherwise; it may read the results of earlier ops of the same pass.

Report paths are fixed and relative to the checkout root, because
``config.out`` (and ``config.system`` for ``gapsys:`` systems) is embedded
in every report and the report digests must not depend on where the
checkout lies.
"""

from __future__ import annotations

import math
import pathlib
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

OUT = pathlib.Path(".bench_out")
BATTERY_CFG = pathlib.Path("configs/acceptance_battery.cfg")

# Analytic band roots of k**(1-2s) = 2s - 1 (tests/test_acceptance.py).
BAND_ROOTS = {10: 0.6995064891, 100: 0.6389937124, 1000: 0.6097565758}

# Samples per localdim call.  Per-sample cost is heavy-tailed (the quantile
# fallbacks), so a run is many short passes, each on fresh derived seeds,
# and the median pass is reported.
MC_SAMPLES = 500

# Wall budget of the deep pow:2 ladder, run in a killable child.  Eleven
# steps take 0.3 s; the twelfth hangs at the parent commit.
DEEP_LADDER_BUDGET_S = 3.0

# Budget for every other op: a loose cap far above its measured time, so an
# overrun means a hang or a gross slowdown, not noise.
DEFAULT_BUDGET_S = 60.0

Check = Callable[[int, dict | None, dict], "str | None"]


@dataclass
class Op:
    name: str
    argv: list
    check: Check
    stage: int = 0  # 1..3 adds to stage<k>_s; 0 counts in wall_s only
    outputs: list = field(default_factory=list)  # files, or directories read whole
    budget_s: float = DEFAULT_BUDGET_S
    forked: bool = False
    ok_exits: tuple = (0,)


def _report_op(name, argv, check, stage, directory, **kw) -> Op:
    out = directory / f"{name}.json"
    extra = kw.pop("extra_outputs", [])
    return Op(name, [*argv, "--out", str(out)], check, stage, [out, *extra], **kw)


def _need(ctx: dict, *names):
    missing = [n for n in names if ctx.get(n) is None]
    if missing:
        raise _Dependency(f"depends on failed op {missing[0]}")
    return [ctx[n] for n in names]


class _Dependency(Exception):
    pass


def run_check(op: Op, code: int, results, ctx: dict) -> str | None:
    try:
        return op.check(code, results, ctx)
    except _Dependency as e:
        return str(e)
    except (KeyError, IndexError, TypeError, ValueError) as e:
        return f"malformed report: {type(e).__name__}: {e}"


def _within(value, lo, hi, what) -> str | None:
    if not lo <= value <= hi:
        return f"{what} {value!r} outside [{lo}, {hi}]"
    return None


def _increasing(values) -> bool:
    return all(a < b for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# montecarlo


def montecarlo(seeds: Callable[[int], int]) -> list:
    d = OUT / "montecarlo"
    runs = [
        ("localdim-gauss-a2", "gauss", "2", (0.28, 0.38), True),
        ("localdim-gauss-a1.5", "gauss", "1.5", (0.35, 0.45), False),
        ("localdim-linpow2-a2", "linpow:2", "2", (0.28, 0.38), False),
    ]
    ops = []
    for k, (name, system, alpha, window, stream) in enumerate(runs):
        argv = [
            "localdim", "--system", system, "--alpha", alpha,
            "--samples", str(MC_SAMPLES), "--depth", "30", "--seed", str(seeds(k)),
        ]
        extra = []
        if stream:
            csv_path = d / f"{name}.csv"
            argv += ["--stream", str(csv_path)]
            extra = [csv_path]

        def check(code, r, ctx, window=window):
            return _within(r["estimate"], *window, "local-dimension estimate")

        ops.append(_report_op(name, argv, check, k + 1, d, extra_outputs=extra))
    return ops


# ---------------------------------------------------------------------------
# certify


def _frostman_check(sampled: bool) -> Check:
    def check(code, r, ctx):
        v = r["verify"]
        if v["checked"] < 1:
            return "no cylinder checked (vacuous pass)"
        if v["passed"] != v["checked"]:
            return f"{v['checked'] - v['passed']} of {v['checked']} cylinders fail"
        if v["sampled"] is not sampled:
            return f"sampled is {v['sampled']}, expected {sampled}"
        return None

    return check


def _gapsys_check(code, r, ctx):
    if not r["validation"]["all_pass"]:
        return f"validation fails, witness {r['validation']['witness']}"
    if not r["normalization_defect"] <= 1e-9:
        return f"normalization defect {r['normalization_defect']:.3g} above 1e-9"
    return None


def _ladder_check(prefix=(9,)) -> Check:
    def check(code, r, ctx):
        vals = r["values"]
        if tuple(vals[: len(prefix)]) != tuple(prefix):
            return f"ladder starts {vals[:len(prefix)]}, expected {list(prefix)}"
        if not _increasing(vals):
            return "ladder values not strictly increasing"
        if not r["growth_ratio_bound"] < 4:
            return f"growth ratio bound {r['growth_ratio_bound']} not below 4"
        return None

    return check


def _increasing_ladder_check(code, r, ctx):
    # Exit 3 (numeric failure, e.g. the bit budget) within the wall budget
    # is an honest answer for the deep ladder; exit 0 must carry a strictly
    # increasing ladder.
    if code == 0 and not _increasing(r["values"]):
        return "ladder values not strictly increasing"
    return None


def certify(seeds: Callable[[int], int]) -> list:
    d = OUT / "certify"
    gap = d / "gapsys.json"
    frost = ["frostman", "--system", "gauss", "--phi", "lin:1", "--eps", "0.1"]
    ladder = ["ladder", "--system", "gauss", "--eps", "0.1"]
    return [
        _report_op(
            "frostman-d4-sampled",
            [*frost, "--depth", "4", "--sample-cap", "100000", "--seed", str(seeds(0))],
            _frostman_check(sampled=True), 1, d,
        ),
        _report_op(
            "frostman-d3-exhaustive",
            [*frost, "--depth", "3", "--seed", str(seeds(1))],
            _frostman_check(sampled=False), 1, d,
        ),
        _report_op(
            "gapsys",
            ["gapsys", "--d", "2", "--phi", "pow:2", "--eps", "0.1", "--n-max", "100000"],
            _gapsys_check, 2, d,
        ),
        _report_op(
            "ladder-gapsys",
            ["ladder", "--system", f"gapsys:{gap}", "--phi", "lin:1", "--eps", "0.1"],
            _increasing_ladder_check, 3, d,
        ),
        _report_op(
            "ladder-lin1", [*ladder, "--phi", "lin:1", "--steps", "10"],
            _ladder_check((9, 19)), 3, d,
        ),
        _report_op(
            "ladder-pow1.5", [*ladder, "--phi", "pow:1.5", "--steps", "10"],
            _ladder_check(), 3, d,
        ),
        _report_op(
            "ladder-pow2", [*ladder, "--phi", "pow:2", "--steps", "10"],
            _ladder_check(), 3, d,
        ),
        _report_op(
            "ladder-pow2-deep", [*ladder, "--phi", "pow:2", "--steps", "12"],
            _increasing_ladder_check, 3, d,
            budget_s=DEEP_LADDER_BUDGET_S, forked=True, ok_exits=(0, 3),
        ),
    ]


# ---------------------------------------------------------------------------
# dimension


def _bowen_check(k: int) -> Check:
    def check(code, r, ctx):
        s = r["s"]
        if not abs(s - BAND_ROOTS[k]) / BAND_ROOTS[k] < 0.05:
            return f"root {s!r} not within 5% of {BAND_ROOTS[k]}"
        if k == 1000:
            roots = [x["s"] for x in _need(ctx, "bowen-k10", "bowen-k100")] + [s]
            if not (roots[0] > roots[1] > roots[2] > 0.5):
                return f"roots {roots} do not decrease with k"
        return None

    return check


def _bowen_bounds_check(code, r, ctx):
    reason = _bowen_check(1000)(code, r, ctx)
    if reason:
        return reason
    b = r["bounds"]
    if b["lower"] != r["s"] or not b["lower"] <= b["upper"] <= 1.0:
        return f"bounds {b} do not enclose the xi root {r['s']!r}"
    return None


def _cover_exact_check(code, r, ctx):
    v = r["value"]
    return None if math.isfinite(v) and v > 0 else f"cover sum {v!r} not positive"


def _cover_dp_check(code, r, ctx):
    (exact,) = _need(ctx, "cover-exact-d3-c200")
    err = abs(r["value"] - exact["value"]) / exact["value"]
    return None if err <= 1e-3 else f"DP differs from exact by {err:.3g} (relative)"


def _cover_auto_check(depth: int, s: str) -> Check:
    def check(code, r, ctx):
        v = r["value"]
        if not (math.isfinite(v) and v > 0):
            return f"cover sum {v!r} not positive"
        if depth == 3 and s == "0.60":
            # Cap 1000 admits every cap-200 word, so the sum can only grow.
            (small,) = _need(ctx, "cover-exact-d3-c200")
            if not v > small["value"]:
                return "cap-1000 sum not above the cap-200 sum"
        if depth > 3:
            (prev,) = _need(ctx, f"cover-auto-d{depth - 1}-s{s}")
            if s == "0.60" and not v < prev["value"]:
                return "s=0.60 cover sum does not decrease with depth"
            if s == "0.45" and not v > prev["value"]:
                return "s=0.45 cover sum does not increase with depth"
        return None

    return check


def _cover_big_dp_check(depth: int) -> Check:
    def check(code, r, ctx):
        (capped,) = _need(ctx, f"cover-auto-d{depth}-s0.60")
        if not (math.isfinite(r["value"]) and r["value"] > capped["value"]):
            return "cap-20000 sum not above the cap-1000 sum"
        return None

    return check


def _linpow_cover_oracle(depth: int, s: float, cap: int) -> float:
    # linpow:2 has ratios i**-2 / zeta(2); under lin:1 the admissible words
    # are the strictly increasing ones, so the sum is an elementary
    # symmetric polynomial of the weights r_i**s.
    i = np.arange(1, cap + 1, dtype=float)
    w = np.exp(s * (math.log(6.0 / math.pi**2) - 2.0 * np.log(i)))
    m = w.copy()
    for _ in range(depth - 1):
        m = w * (np.cumsum(m) - m)
    return float(m.sum())


def _linpow_cover_check(code, r, ctx):
    want = _linpow_cover_oracle(4, 0.6, 20000)
    err = abs(r["value"] - want) / want
    return None if err <= 1e-9 else f"cover sum {r['value']!r} vs closed form {want!r}"


def _boxdim_check(target: float, tol: float) -> Check:
    def check(code, r, ctx):
        return _within(r["estimate"], target - tol, target + tol, "box-dimension slope")

    return check


def _words_check(code, r, ctx):
    want = math.comb(100, 3)
    return None if r["count"] == want else f"count {r['count']} != C(100, 3) = {want}"


def _predict_check(code, r, ctx):
    # Power restriction alpha=2, d=2, tiled: 1/(1 + alpha(d-1)) = 1/3, and
    # packing max(s0, 1/d) = 1/2.
    if abs(r["hausdorff"] - 1.0 / 3.0) > 1e-12 or abs(r["packing"] - 0.5) > 1e-12:
        return f"predict {r} differs from (1/3, 1/2)"
    return None


def _battery_check(code, r, ctx):
    return None  # exit 0 means every expectation held


def write_point_files(seed: int) -> None:
    """1/n for n <= 1e6 and the 2**13 level-13 Cantor endpoints, each in
    an order drawn from the seed (the slope must not depend on order)."""
    d = OUT / "dimension"
    d.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    inv = 1.0 / np.arange(1, 1_000_001)
    cantor = np.zeros(1)
    for _ in range(13):
        cantor = np.concatenate([cantor / 3.0, cantor / 3.0 + 2.0 / 3.0])
    for name, pts in (("inv.txt", inv), ("cantor.txt", cantor)):
        np.savetxt(d / name, rng.permutation(pts), fmt="%.17g")


def dimension(seeds: Callable[[int], int]) -> list:
    d = OUT / "dimension"
    inv, cantor = d / "inv.txt", d / "cantor.txt"
    bowen = ["bowen", "--system", "gauss", "--bound", "xi"]
    cover = ["cover", "--system", "gauss", "--phi", "lin:1"]
    ops = [
        _report_op(
            f"bowen-k{k}", [*bowen, "--k", str(k), "--m", str(1000 * k)], _bowen_check(k), 1, d
        )
        for k in BAND_ROOTS
    ]
    ops.append(
        _report_op(
            "bowen-k1000-bounds", [*bowen, "--k", "1000", "--m", "1000000", "--bounds"],
            _bowen_bounds_check, 1, d,
        )
    )
    c200 = ["--depth", "3", "--s", "0.6", "--cap", "200"]
    ops += [
        _report_op(
            "cover-exact-d3-c200", [*cover, *c200, "--method", "exact"], _cover_exact_check, 2, d
        ),
        _report_op("cover-dp-d3-c200", [*cover, *c200, "--method", "dp"], _cover_dp_check, 2, d),
    ]
    for s in ("0.60", "0.45"):
        ops += [
            _report_op(
                f"cover-auto-d{depth}-s{s}",
                [*cover, "--depth", str(depth), "--s", s, "--cap", "1000"],
                _cover_auto_check(depth, s), 2, d,
            )
            for depth in range(3, 9)
        ]
    ops += [
        _report_op(
            f"cover-dp-d{depth}-c20000",
            [*cover, "--depth", str(depth), "--s", "0.6", "--cap", "20000", "--method", "dp"],
            _cover_big_dp_check(depth), 2, d,
        )
        for depth in (3, 4)
    ]
    ops += [
        _report_op(
            "cover-linpow2-d4-c20000",
            ["cover", "--system", "linpow:2", "--phi", "lin:1", "--depth", "4", "--s", "0.6",
             "--cap", "20000"],
            _linpow_cover_check, 2, d,
        ),
        _report_op(
            "boxdim-inv", ["boxdim", "--points", str(inv), "--dyadic", "2:18"],
            _boxdim_check(0.5, 0.05), 3, d,
        ),
        _report_op(
            "boxdim-cantor", ["boxdim", "--points", str(cantor), "--dyadic", "2:18"],
            _boxdim_check(math.log(2) / math.log(3), 0.03), 3, d,
        ),
        _report_op(
            "words-lin1-d3-c100",
            ["words", "--phi", "lin:1", "--depth", "3", "--cap", "100"], _words_check, 0, d,
        ),
        _report_op(
            "predict-pow2",
            ["predict", "--d", "2", "--phi", "pow:2", "--s0", "0.5", "--gauss-like"],
            _predict_check, 0, d,
        ),
    ]
    battery_dir = d / "battery"
    ops.append(
        Op("battery", ["battery", str(BATTERY_CFG), "--out-dir", str(battery_dir)],
           _battery_check, 0, [battery_dir])
    )
    return ops


WORKLOADS = {"montecarlo": montecarlo, "certify": certify, "dimension": dimension}

# What stage<k>_s sums on each workload (per-subcommand time to a result).
STAGES = {
    "montecarlo": ("localdim_gauss_a2_s", "localdim_gauss_a1.5_s", "localdim_linpow2_a2_s"),
    "certify": ("frostman_s", "gapsys_s", "ladder_s"),
    "dimension": ("bowen_s", "cover_s", "boxdim_s"),
}
