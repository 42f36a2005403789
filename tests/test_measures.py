"""Layered window measure and the power-law digit measure.

Frozen values, each derived by an independent high-precision route before
the code under test existed:

* 1/zeta(4/3) = 0.27770543933245483: the d=2, alpha=2 self-transition
  from digit 1 (support starts at 1, so the normalizer is the plain zeta
  tail).
* Two-digit window {3, 4} on the reciprocal-shift family: the exponent
  solving 16^-s + 25^-s = 1 is s = 0.23182465132707360 (mpmath findroot
  at 40 digits).
* Reciprocal-shift family, Phi(n) = n, eps = 0.1, depth 3: windows
  {10..19}, {20..34}, {35..57} with full-window exponents
  0.42520134303627682, 0.40908381409817178, 0.40916515266778759 (mpmath
  findroot on sum (i+1)^(-2s) = 1), all above 1/d - eps = 0.4.
* Conditional law from digit 2 (d=2, alpha=2): P(2 -> 4) =
  0.07982400427033484 and P(2 -> 7) = 0.03785147242460810, from
  j^(-4/3) / (zeta(4/3) - 1 - 2^(-4/3) - 3^(-4/3)).
* Normalizer far out: c(1000) = 0.33333327777777469 via a Hurwitz zeta
  evaluation of the tail.

The fault-injection direction in the verifier test is deliberate: raising
a level exponent shrinks that level's masses and loosens the mass-length
comparison, so the checker's sanity is demonstrated by lowering s1 (which
inflates the level-1 masses until cylinders fail).
"""

import dataclasses
import io
import math
from collections import Counter

import numpy as np
import pytest

from ifslab.families import make_gauss, make_linear_power
from ifslab.measures import (
    FrostmanReport,
    PowerLawDigitMeasure,
    _tail_quantile,
    build_frostman_measure,
    digit_transition,
    frostman_mass,
    local_dim_estimate,
    sample_digits,
    verify_frostman,
    window_exponent,
)
from ifslab.powersum import first_index_reaching, power_sum_brackets
from ifslab.restrictions import parse_phi
from ifslab.systems import DecaySystem, NumericFailure, PreconditionError

INV_ZETA_43 = 0.27770543933245483
S_WINDOW_34 = 0.23182465132707360
LEVEL_EXPONENTS = (0.42520134303627682, 0.40908381409817178, 0.40916515266778759)
P_2_TO_4 = 0.07982400427033484
P_2_TO_7 = 0.03785147242460810
C_AT_1000 = 0.33333327777777469


@pytest.fixture(scope="module")
def gauss():
    return make_gauss()


@pytest.fixture(scope="module")
def layered(gauss):
    return build_frostman_measure(gauss, parse_phi("lin:1"), 0.1, 3)


@pytest.fixture(scope="module")
def quad_measure():
    return PowerLawDigitMeasure(decay=2.0, alpha=2.0, first_digit=2)


class TestFrostmanBuild:
    def test_windows_and_trims(self, layered):
        assert layered.ladder.values == (9, 19, 34, 57)
        assert [lev.window for lev in layered.levels] == [(10, 19), (20, 34), (35, 57)]
        assert [lev.trimmed for lev in layered.levels] == [(11, 18), (21, 33), (36, 56)]

    def test_exponents_match_frozen(self, layered):
        for lev, expect in zip(layered.levels, LEVEL_EXPONENTS):
            assert lev.exponent == pytest.approx(expect, abs=1e-12)

    def test_exponents_sit_above_decay_floor(self, layered):
        floor = 1.0 / 2.0 - 0.1
        for lev in layered.levels:
            assert lev.exponent >= floor

    def test_level_masses_sum_to_one(self, layered):
        for n in range(1, layered.depth + 1):
            masses = layered.level_masses(n)
            assert masses.sum() == pytest.approx(1.0, abs=1e-12)
            assert (masses > 0).all()
            assert layered.level(n).mass_defect <= 1e-11

    def test_full_window_exponent_agrees_with_per_digit_solver(self, gauss, layered):
        direct = window_exponent(gauss, range(10, 20))
        assert direct == pytest.approx(layered.levels[0].exponent, abs=1e-10)

    def test_small_window_rejected_with_level_index(self, gauss):
        with pytest.raises(PreconditionError, match="level 1 window"):
            build_frostman_measure(gauss, parse_phi("lin:1"), 0.4, 3)

    def test_bad_depth_and_eps(self, gauss):
        phi = parse_phi("lin:1")
        with pytest.raises(PreconditionError):
            build_frostman_measure(gauss, phi, 0.1, 0)
        with pytest.raises(PreconditionError):
            build_frostman_measure(gauss, phi, 0.6, 2)
        with pytest.raises(PreconditionError):
            build_frostman_measure(gauss, phi, -0.1, 2)

    def test_level_lookup_bounds(self, layered):
        with pytest.raises(PreconditionError):
            layered.level(0)
        with pytest.raises(PreconditionError):
            layered.level(4)


class TestWindowExponent:
    def test_synthetic_two_digit_window(self, gauss):
        assert window_exponent(gauss, [3, 4]) == pytest.approx(S_WINDOW_34, abs=1e-12)

    def test_order_and_duplicates_ignored(self, gauss):
        assert window_exponent(gauss, [4, 3, 4]) == pytest.approx(
            S_WINDOW_34, abs=1e-12
        )

    def test_needs_two_digits(self, gauss):
        with pytest.raises(PreconditionError, match="at least 2"):
            window_exponent(gauss, [5])

    def test_rejects_non_contracting_branch(self):
        # Rates 1.0 and 0.5.
        toy = DecaySystem(kind="toy", scale=1.0, decay=1.0, index_limit=2)
        with pytest.raises(PreconditionError, match="non-contracting"):
            window_exponent(toy, [1, 2])


class TestFrostmanMass:
    def test_empty_word(self, layered):
        assert frostman_mass(layered, ()) == 1.0
        assert frostman_mass(layered, (), log=True) == 0.0

    def test_single_digit(self, layered):
        s1 = layered.levels[0].exponent
        assert frostman_mass(layered, (11,)) == pytest.approx(
            (1.0 / 144.0) ** s1, rel=1e-12
        )

    def test_multiplicative(self, layered):
        s2 = layered.levels[1].exponent
        parent = frostman_mass(layered, (11,))
        child = frostman_mass(layered, (11, 21))
        assert child == pytest.approx(parent * (1.0 / 484.0) ** s2, rel=1e-12)

    def test_outside_window_is_zero(self, layered):
        assert frostman_mass(layered, (9,)) == 0.0
        assert frostman_mass(layered, (11, 19)) == 0.0
        assert frostman_mass(layered, (11, 21, 99)) == 0.0
        assert frostman_mass(layered, (9,), log=True) == -math.inf

    def test_word_longer_than_depth(self, layered):
        with pytest.raises(PreconditionError, match="depth"):
            frostman_mass(layered, (11, 21, 36, 60))

    def test_children_masses_flow_to_parent(self, layered):
        lo, hi = layered.levels[1].window
        parent = frostman_mass(layered, (12,))
        children = math.fsum(
            frostman_mass(layered, (12, j)) for j in range(lo, hi + 1)
        )
        assert children == pytest.approx(parent, rel=1e-10)


class TestVerifyFrostman:
    def test_exhaustive_depth_three(self, layered):
        report = verify_frostman(layered, 3)
        assert isinstance(report, FrostmanReport)
        assert not report.sampled
        assert report.checked == 10 * 15 * 23
        assert report.fraction == 1.0
        assert report.worst_ratio < 1.0
        assert report.witness is None

    def test_depth_two(self, layered):
        report = verify_frostman(layered, 2)
        assert report.checked == 150
        assert report.fraction == 1.0

    def test_depth_zero_vacuous(self, layered):
        report = verify_frostman(layered, 0)
        assert report.fraction == 1.0
        assert report.checked == 0

    def test_sample_cap_below_one_rejected(self, layered):
        for cap in (0, -1):
            with pytest.raises(PreconditionError, match="sample_cap"):
                verify_frostman(layered, 2, sample_cap=cap)

    def test_sampled_route_is_deterministic(self, layered):
        r1 = verify_frostman(layered, 3, sample_cap=500, seed=11)
        r2 = verify_frostman(layered, 3, sample_cap=500, seed=11)
        assert r1.sampled and r1.checked == 500
        assert r1.fraction == 1.0
        assert r1 == r2

    def test_deflating_s1_breaks_cylinders(self, layered):
        lev = dataclasses.replace(
            layered.levels[0], exponent=layered.levels[0].exponent - 0.2
        )
        tampered = dataclasses.replace(layered, levels=(lev,) + layered.levels[1:])
        report = verify_frostman(tampered, 2)
        assert report.fraction < 1.0
        assert report.witness is not None
        assert report.worst_ratio > 1.0

    def test_inflating_s1_only_loosens(self, layered):
        lev = dataclasses.replace(
            layered.levels[0], exponent=layered.levels[0].exponent + 0.2
        )
        tampered = dataclasses.replace(layered, levels=(lev,) + layered.levels[1:])
        assert verify_frostman(tampered, 2).fraction == 1.0

    def test_depth_beyond_build_rejected(self, layered):
        with pytest.raises(PreconditionError):
            verify_frostman(layered, 4)


class TestPowerLawMeasure:
    def test_exponents_for_quadratic_case(self, quad_measure):
        assert quad_measure.base_exponent == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert quad_measure.tail_exponent == pytest.approx(4.0 / 3.0, abs=1e-15)

    def test_exponent_identity_on_random_pairs(self):
        rng = np.random.default_rng(20260822)
        for _ in range(100):
            d = 1.0 + 3.0 * rng.random() + 1e-6
            alpha = 1.0 + 2.0 * rng.random() + 1e-6
            m = PowerLawDigitMeasure(decay=d, alpha=alpha, first_digit=1)
            lhs = (d + alpha * (d - 1.0)) * m.base_exponent - 1.0
            rhs = (d - 1.0) * m.base_exponent
            assert lhs == pytest.approx(rhs, abs=5e-15)
            assert m.tail_exponent - 1.0 == pytest.approx(rhs, abs=5e-15)

    def test_constructor_preconditions(self):
        with pytest.raises(PreconditionError):
            PowerLawDigitMeasure(decay=1.0, alpha=2.0)
        with pytest.raises(PreconditionError):
            PowerLawDigitMeasure(decay=2.0, alpha=1.0)
        with pytest.raises(PreconditionError):
            PowerLawDigitMeasure(decay=2.0, alpha=2.0, first_digit=0)

    def test_support_start(self, quad_measure):
        assert quad_measure.support_start(1) == 1
        assert quad_measure.support_start(2) == 4
        assert quad_measure.support_start(10) == 100
        m = PowerLawDigitMeasure(decay=2.0, alpha=1.5, first_digit=2)
        assert m.support_start(3) == 6  # ceil(3^1.5) = ceil(5.196)

    def test_self_transition_from_one(self, quad_measure):
        assert digit_transition(quad_measure, 1, 1) == pytest.approx(
            INV_ZETA_43, rel=1e-10
        )

    def test_below_support_is_zero(self, quad_measure):
        assert digit_transition(quad_measure, 2, 3) == 0.0
        assert digit_transition(quad_measure, 10, 99) == 0.0
        with pytest.raises(PreconditionError):
            digit_transition(quad_measure, 2, 0)

    def test_frozen_conditional_values(self, quad_measure):
        assert digit_transition(quad_measure, 2, 4) == pytest.approx(
            P_2_TO_4, rel=1e-10
        )
        assert digit_transition(quad_measure, 2, 7) == pytest.approx(
            P_2_TO_7, rel=1e-10
        )

    @pytest.mark.parametrize("i", [1, 2, 5, 20])
    def test_conditional_rows_sum_to_one(self, quad_measure, i):
        start = quad_measure.support_start(i)
        head_end = start + 200_000
        head = math.fsum(
            digit_transition(quad_measure, i, j) for j in range(start, head_end)
        )
        t_lo, t_hi = power_sum_brackets(head_end, None, quad_measure.tail_exponent)
        tail = 0.5 * (t_lo + t_hi) / quad_measure._tail_norm(start)[2]
        assert head + tail == pytest.approx(1.0, abs=1e-8)

    def test_normalizer_band_and_tail_stability(self, quad_measure):
        c = np.array([quad_measure.normalizer(i) for i in range(1, 2001)])
        c_min, c_max = float(c.min()), float(c.max())
        c3 = max(c_max, 1.0 / c_min)
        assert math.isfinite(c3) and c3 > 1.0
        assert (c >= 1.0 / c3 - 1e-15).all() and (c <= c3 + 1e-15).all()
        past = c[999:]
        assert past.max() - past.min() < 1e-3
        assert quad_measure.normalizer(1000) == pytest.approx(C_AT_1000, rel=1e-10)

    def test_normalizer_from_one_is_the_zeta_tail(self, quad_measure):
        assert quad_measure.normalizer(1) == pytest.approx(INV_ZETA_43, rel=1e-10)


class TestSampling:
    def test_deterministic_in_seed(self, quad_measure):
        w1 = sample_digits(quad_measure, 4, seed=7)
        w2 = sample_digits(quad_measure, 4, seed=7)
        assert w1 == w2
        assert sample_digits(quad_measure, 4, seed=8) != w1

    def test_first_digit_and_support(self, quad_measure):
        # a heavy-tail draw can push the next window start past the exact
        # budget even at depth 3; those seeds raise and are skipped
        completed = 0
        for seed in range(200):
            try:
                word = sample_digits(quad_measure, 3, seed=seed)
            except NumericFailure:
                continue
            completed += 1
            assert word[0] == 2
            for a, b in zip(word, word[1:]):
                assert b >= quad_measure.support_start(a)
        assert completed >= 190

    def test_budget_error_reports_achieved_depth(self, quad_measure):
        with pytest.raises(NumericFailure, match="achieved depth"):
            sample_digits(quad_measure, 40, seed=0)

    def test_bad_depth(self, quad_measure):
        with pytest.raises(PreconditionError):
            sample_digits(quad_measure, 0, seed=0)

    def test_quantile_matches_certified_scan_past_table_range(self, quad_measure):
        for u in (0.3, 0.77, 0.999):
            start = 2_000_000
            got = _tail_quantile(quad_measure, start, u)
            target = u * quad_measure._tail_norm(start)[0]
            ref = first_index_reaching(start, quad_measure.tail_exponent, target).index
            assert got == ref

    def test_quantile_edges_and_monotonicity(self, quad_measure):
        assert _tail_quantile(quad_measure, 4, 0.0) == 4
        qs = [_tail_quantile(quad_measure, 4, u) for u in (0.1, 0.5, 0.9, 0.9999)]
        assert all(a <= b for a, b in zip(qs, qs[1:]))

    def test_empirical_second_digit_frequencies(self, quad_measure):
        n = 20_000
        counts = Counter(
            sample_digits(quad_measure, 2, seed=k)[1] for k in range(n)
        )
        for j in range(4, 11):
            p = digit_transition(quad_measure, 2, j)
            se = math.sqrt(p * (1.0 - p) / n)
            assert abs(counts[j] / n - p) <= 3.0 * se


class TestLocalDim:
    def test_quadratic_growth_slope(self, gauss, quad_measure):
        est = local_dim_estimate(quad_measure, gauss, samples=2000, depth=30, seed=0)
        assert est.method == "local-dim"
        assert 0.28 <= est.value <= 0.38
        assert est.bracket[0] <= est.value <= est.bracket[1]
        assert abs(est.diagnostics["delta_ratio_mean"] - 1.0 / 3.0) <= 0.05

    def test_three_halves_growth_slope(self, gauss):
        m = PowerLawDigitMeasure(decay=2.0, alpha=1.5, first_digit=2)
        est = local_dim_estimate(m, gauss, samples=2000, depth=30, seed=0)
        assert 0.35 <= est.value <= 0.45
        assert abs(est.diagnostics["delta_ratio_mean"] - 0.4) <= 0.05

    def test_first_digit_invariance(self, gauss):
        vals = []
        for k in (2, 5):
            m = PowerLawDigitMeasure(decay=2.0, alpha=2.0, first_digit=k)
            vals.append(local_dim_estimate(m, gauss, samples=2000, depth=30, seed=3).value)
        assert abs(vals[0] - vals[1]) <= 0.02

    def test_linear_power_system_accepted(self, quad_measure):
        lp = make_linear_power(2.0)
        est = local_dim_estimate(quad_measure, lp, samples=500, depth=20, seed=1)
        assert 0.28 <= est.value <= 0.38

    def test_preconditions(self, gauss, quad_measure):
        with pytest.raises(PreconditionError, match="100 samples"):
            local_dim_estimate(quad_measure, gauss, samples=99, depth=30)
        with pytest.raises(PreconditionError, match="depth"):
            local_dim_estimate(quad_measure, gauss, samples=500, depth=4)
        toy = DecaySystem(kind="gap", decay=2.0, scale=1.0)
        with pytest.raises(PreconditionError, match="gauss or linear-power"):
            local_dim_estimate(quad_measure, toy, samples=500, depth=30)

    def test_deterministic_estimate_and_stream(self, gauss, quad_measure):
        b1, b2 = io.StringIO(), io.StringIO()
        e1 = local_dim_estimate(
            quad_measure, gauss, samples=150, depth=8, seed=42, csv_stream=b1
        )
        e2 = local_dim_estimate(
            quad_measure, gauss, samples=150, depth=8, seed=42, csv_stream=b2
        )
        assert e1 == e2
        assert b1.getvalue() == b2.getvalue()

    def test_stream_schema(self, gauss, quad_measure):
        buf = io.StringIO()
        local_dim_estimate(
            quad_measure, gauss, samples=120, depth=8, seed=5, csv_stream=buf
        )
        lines = buf.getvalue().splitlines()
        assert lines[0] == "sample_id,n,digit,log10_digit,log_r_lo,log_r_hi,log_mass"
        assert len(lines) == 1 + 120 * 8
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "1" and first[2] == "2"
        assert float(first[3]) == pytest.approx(math.log10(2.0))
        # every sample starts exact and goes continuous before depth 8;
        # once continuous, the digit column is blank and log-digits grow
        row_digits = [lines[1 + k].split(",") for k in range(8)]
        assert row_digits[-1][2] == ""
        log_digits = [float(r[3]) for r in row_digits]
        assert all(a < b for a, b in zip(log_digits, log_digits[1:]))
        for r in row_digits:
            assert float(r[4]) <= float(r[5])
            assert float(r[6]) <= 0.0

    def test_mass_pairs_against_transition_products(self, gauss, quad_measure):
        # the streamed log-mass at level n must equal the sum of exact
        # conditional log-probabilities along the sampled prefix while the
        # chain is still in the exact regime
        buf = io.StringIO()
        local_dim_estimate(
            quad_measure, gauss, samples=150, depth=6, seed=9, csv_stream=buf
        )
        lines = buf.getvalue().splitlines()[1:]
        rows = [line.split(",") for line in lines[:6]]
        digits = []
        for r in rows:
            if r[2] == "":
                break
            digits.append(int(r[2]))
            n = int(r[1])
            expect = math.fsum(
                math.log(digit_transition(quad_measure, a, b))
                for a, b in zip(digits, digits[1:])
            )
            assert float(r[6]) == pytest.approx(expect, rel=1e-9, abs=1e-12)
        assert len(digits) >= 2
