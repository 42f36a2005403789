"""Acceptance suite: nine criteria, one test (and one pass/fail line under
pytest -v) per criterion, each with its stated tolerance and runtime budget.

Frozen oracles used here:
* Analytic band roots of k**(1-2s) = 2s - 1 (independent mpmath solve):
  0.6995064891 (k=10), 0.6389937124 (k=100), 0.6097565758 (k=1000).
* Ladder values 9 and 19 for the reciprocal-shift family, eps = 0.1,
  identity restriction: the decay threshold is the smallest K with
  (k+1)**2 <= k**2.1 for all k >= K, and the block sums of (i+1)**-0.8
  starting at 10 first reach 1 at i = 18; both recomputed inline below.
* Local-dimension windows, box-count targets, cover-sum monotonicity
  directions, and the algebraic exponent identity are closed forms.
"""

import math
import time
import warnings

import numpy as np
import pytest

from ifslab.cli import run
from ifslab.dimension import TailWarning, bowen_root, box_dim_estimate, cover_sum
from ifslab.families import build_gap_system, make_gauss, validate_gap_system
from ifslab.measures import (
    PowerLawDigitMeasure,
    build_frostman_measure,
    digit_transition,
    local_dim_estimate,
    verify_frostman,
)
from ifslab.powersum import power_sum_brackets
from ifslab.restrictions import build_ladder, growth_ratio_bound, parse_phi

import mpmath

BAND_ROOTS = {10: 0.6995064891, 100: 0.6389937124, 1000: 0.6097565758}
DYADIC = [2.0**-j for j in range(2, 19)]


@pytest.fixture(scope="module")
def gauss():
    return make_gauss()


class _Budget:
    """Context timer asserting the block stays under its runtime budget."""

    def __init__(self, seconds):
        self.limit = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        if exc[0] is None:
            assert self.elapsed < self.limit, (
                f"runtime budget exceeded: {self.elapsed:.1f}s >= {self.limit}s"
            )


def test_criterion_1_bowen_root_convergence_direction(gauss):
    with _Budget(10) as budget:
        roots = {k: bowen_root(gauss, "xi", k, 1000 * k, tol=1e-10).value for k in BAND_ROOTS}
    assert roots[10] > roots[100] > roots[1000] > 0.5
    for k, analytic in BAND_ROOTS.items():
        assert abs(roots[k] - analytic) / analytic < 0.05
    print(f"criterion 1: roots {roots} vs analytic {BAND_ROOTS} ({budget.elapsed:.1f}s)")


def test_criterion_2_frostman_inequality_exhaustive(gauss):
    with _Budget(30) as budget:
        measure = build_frostman_measure(gauss, parse_phi("lin:1"), 0.1, 3)
        report = verify_frostman(measure, 3)
    assert report.sampled is False
    assert report.checked > 0
    assert report.passed == report.checked
    assert report.fraction == 1.0
    assert report.witness is None
    print(
        f"criterion 2: {report.passed}/{report.checked} cylinders pass, "
        f"worst ratio {report.worst_ratio:.3f} ({budget.elapsed:.1f}s)"
    )


def test_criterion_3_local_dimension_slope_windows(gauss):
    observed = {}
    with _Budget(120) as budget:
        for alpha, lo, hi in ((2.0, 0.28, 0.38), (1.5, 0.35, 0.45)):
            est = local_dim_estimate(gauss, alpha, 10_000, 30, seed=0, first_digit=2)
            observed[alpha] = est.value
            assert lo <= est.value <= hi
    print(
        f"criterion 3: slopes {observed} vs targets {{2.0: 1/3, 1.5: 0.4}} "
        f"({budget.elapsed:.1f}s)"
    )


def test_criterion_4_box_dimension_ingredient():
    with _Budget(30) as budget:
        inv = 1.0 / np.arange(1, 1_000_001)
        est_inv = box_dim_estimate(inv, DYADIC)
        pts = np.zeros(1)
        for _ in range(13):
            pts = np.concatenate([pts / 3.0, pts / 3.0 + 2.0 / 3.0])
        est_cantor = box_dim_estimate(pts, DYADIC)
    assert est_inv.value == pytest.approx(0.5, abs=0.05)
    assert est_cantor.value == pytest.approx(math.log(2) / math.log(3), abs=0.03)
    print(
        f"criterion 4: slopes {est_inv.value:.4f} (target 0.5) and "
        f"{est_cantor.value:.4f} (target {math.log(2)/math.log(3):.4f}) "
        f"({budget.elapsed:.1f}s)"
    )


def test_criterion_5_cover_sum_dichotomy(gauss):
    # Below s = 1/2 the uncapped series diverges, so the digit-cap
    # truncation warning is expected there; the criterion compares the
    # capped sums.
    phi = parse_phi("lin:1")
    with _Budget(60) as budget, warnings.catch_warnings():
        warnings.simplefilter("ignore", TailWarning)
        high = [cover_sum(gauss, phi, n, 0.60, digit_cap=1000) for n in range(3, 9)]
        low = [cover_sum(gauss, phi, n, 0.45, digit_cap=1000) for n in range(3, 9)]
    assert all(a > b for a, b in zip(high, high[1:])), high
    assert all(a < b for a, b in zip(low, low[1:])), low
    print(
        f"criterion 5: s=0.60 decreasing {high[0]:.3g}..{high[-1]:.3g}, "
        f"s=0.45 increasing {low[0]:.3g}..{low[-1]:.3g} ({budget.elapsed:.1f}s)"
    )


def test_criterion_6_gap_system_certification():
    with _Budget(30) as budget:
        gs = build_gap_system(parse_phi("pow:2"), 2.0, 0.1)
        report = validate_gap_system(gs, 10_000)
        with mpmath.workprec(160):
            total = mpmath.mpf(gs.C) * mpmath.zeta(2)
            for j, block in enumerate(gs.blocks, 1):
                count = block.end - block.start + 1
                total += mpmath.mpf(gs.C) * mpmath.mpf(j) ** -2 * count / block.end
            defect = float(abs(1 - total))
    assert report.disjoint and report.contained and report.gaps_match and report.decaying
    assert defect <= 1e-9
    print(
        f"criterion 6: all four checks pass at n_max 10^4, normalization "
        f"defect {defect:.2e} ({budget.elapsed:.1f}s)"
    )


def test_criterion_7_ladder_soundness(gauss):
    # Direct-summation oracle, recomputed before the build.  Decay
    # threshold: smallest K with (k+1)**2 <= k**2.1 from K on.
    ok = [k for k in range(1, 1001) if (k + 1) ** 2 <= k**2.1]
    l1 = next(k for k in ok if all(j in ok for j in range(k, 1001)))
    assert l1 == 9
    # Block sums of (i+1)**-0.8 from 10: first reach 1 at i = 18.
    s_before = sum((i + 1) ** -0.8 for i in range(10, 18))
    s_at = s_before + 19.0**-0.8
    assert s_before < 1 <= s_at
    l2 = 19
    with _Budget(30) as budget:
        ladder = build_ladder(gauss, parse_phi("lin:1"), 0.1, 2)
        assert ladder.values[0] == l1
        assert ladder.values[1] == l2
        gammas = {}
        for spec in ("lin:1", "pow:1.5", "pow:2"):
            gammas[spec] = growth_ratio_bound(build_ladder(gauss, parse_phi(spec), 0.1, 10))
    assert all(g < 4 for g in gammas.values()), gammas
    print(
        f"criterion 7: l1={l1}, l2={l2} reproduced; growth ratios {gammas} "
        f"all below 4 ({budget.elapsed:.1f}s)"
    )


def test_criterion_8_transition_normalization_and_identity():
    with _Budget(30) as budget:
        # Algebraic identity at machine precision on 100 random pairs.
        rng = np.random.default_rng(20260822)
        for d, alpha in zip(1.0 + 3.0 * rng.random(100), 1.0 + 4.0 * rng.random(100)):
            s = 1.0 / (1.0 + alpha * (d - 1.0))
            left = (d + alpha * (d - 1.0)) * s - 1.0
            right = (d - 1.0) * s
            assert abs(left - right) <= 5e-15
        # Row sums: head of 200k transition terms plus the certified tail
        # of the same normalized series.
        measure = PowerLawDigitMeasure(2.0, 2.0, first_digit=2)
        for i in (1, 2, 5, 20):
            start = measure.support_start(i)
            head_end = start + 200_000
            head = math.fsum(
                digit_transition(measure, i, j) for j in range(start, head_end)
            )
            t_lo, t_hi = power_sum_brackets(head_end, None, measure.tail_exponent)
            tail = 0.5 * (t_lo + t_hi) / measure._tail_norm(start)[2]
            assert abs(head + tail - 1.0) <= 1e-8
        # Scale-factor band: bounded above and below with the bound reported.
        cs = np.array([measure.normalizer(i) for i in range(1, 2001)])
        c3 = max(float(cs.max()), 1.0 / float(cs.min()))
        assert math.isfinite(c3) and c3 > 0
        assert (cs >= 1.0 / c3 - 1e-15).all() and (cs <= c3 + 1e-15).all()
    print(
        f"criterion 8: identity and row sums hold; scale factors within "
        f"[1/C3, C3] for C3 = {c3:.4f} ({budget.elapsed:.1f}s)"
    )


def test_criterion_9_stochastic_reports_byte_deterministic(tmp_path, capsys):
    out = tmp_path / "det.json"
    stream = tmp_path / "det.csv"
    localdim = [
        "localdim", "--system", "gauss", "--alpha", "2",
        "--samples", "200", "--depth", "10", "--seed", "7",
        "--stream", str(stream), "--out", str(out),
    ]
    assert run(localdim) == 0
    report1, stream1 = out.read_bytes(), stream.read_bytes()
    assert run(localdim) == 0
    assert out.read_bytes() == report1
    assert stream.read_bytes() == stream1
    frostman = [
        "frostman", "--system", "gauss", "--phi", "lin:1", "--eps", "0.1",
        "--depth", "2", "--sample-cap", "60", "--seed", "3", "--out", str(out),
    ]
    assert run(frostman) == 0
    report1 = out.read_bytes()
    assert run(frostman) == 0
    assert out.read_bytes() == report1
    capsys.readouterr()
    print("criterion 9: localdim report+stream and sampled frostman report byte-identical")
