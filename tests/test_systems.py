"""Core-type tests: exact cylinders, length bounds, decay certification.

Expected values for the reciprocal-shift family are frozen from hand
calculations with exact rationals (the compositions below are two or three
steps of 1/(x+n), checked by hand before implementation).
"""

import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifslab.families import build_gap_system, make_gauss, make_linear_power
from ifslab.restrictions import parse_phi
from ifslab.systems import (
    DEPTH_CAP,
    NumericFailure,
    PreconditionError,
    cylinder_interval,
    cylinder_length_bounds,
    project_point,
    verify_power_decay,
)

F = Fraction


@pytest.fixture(scope="module")
def gauss():
    return make_gauss()


class TestCylinderInterval:
    def test_single_digit_one(self, gauss):
        # 1/(x+1) maps {0,1} to {1, 1/2}
        c = cylinder_interval(gauss, (1,))
        assert (c.lo, c.hi) == (F(1, 2), F(1))

    def test_word_2_1(self, gauss):
        # f_2(f_1([0,1])): hand-computed endpoints 1/3 and 2/5
        c = cylinder_interval(gauss, (2, 1))
        assert (c.lo, c.hi) == (F(1, 3), F(2, 5))

    def test_word_1_1(self, gauss):
        c = cylinder_interval(gauss, (1, 1))
        assert (c.lo, c.hi) == (F(1, 2), F(2, 3))

    def test_empty_word_is_root(self, gauss):
        c = cylinder_interval(gauss, ())
        assert (c.lo, c.hi) == (F(0), F(1))

    def test_endpoints_are_exact_rationals(self, gauss):
        c = cylinder_interval(gauss, (3, 1, 4, 1, 5))
        assert isinstance(c.lo, F) and isinstance(c.hi, F)
        assert 0 < c.lo < c.hi < 1

    def test_depth_cap(self, gauss):
        with pytest.raises(PreconditionError):
            cylinder_interval(gauss, (1,) * (DEPTH_CAP + 1))

    def test_bad_digit(self, gauss):
        with pytest.raises(PreconditionError):
            cylinder_interval(gauss, (1, 0))

    @given(st.lists(st.integers(1, 20), min_size=1, max_size=4))
    @settings(max_examples=120, deadline=None)
    def test_nesting(self, word):
        gauss = make_gauss()
        parent = cylinder_interval(gauss, word[:-1])
        child = cylinder_interval(gauss, word)
        assert parent.contains(child)

    def test_sibling_disjointness(self, gauss):
        # distinct digits appended to one parent give disjoint interiors
        parent = (2, 1)
        cs = [cylinder_interval(gauss, parent + (j,)) for j in range(1, 12)]
        cs.sort(key=lambda c: c.lo)
        for a, b in zip(cs, cs[1:]):
            assert a.hi <= b.lo

    def test_gauss_like_ordering(self, gauss):
        # images move left as the branch index grows
        for x in (F(0), F(1, 2), F(1)):
            vals = [gauss.map_eval(i, x) for i in range(1, 101)]
            assert all(u > v for u, v in zip(vals, vals[1:]))


class TestLinearPowerCylinders:
    def test_tiling_shares_endpoints(self):
        sys2 = make_linear_power(2)
        c1 = cylinder_interval(sys2, (1,))
        c2 = cylinder_interval(sys2, (2,))
        assert c1.hi == F(1)
        assert c2.hi == c1.lo

    def test_ratio_d3(self):
        sys3 = make_linear_power(3)
        r1 = sys3.contract_hi(1)
        r2 = sys3.contract_hi(2)
        assert r1 / r2 == pytest.approx(8.0, rel=1e-13)

    def test_first_ratio_d2(self):
        # normalizer 6/pi^2
        sys2 = make_linear_power(2)
        assert sys2.contract_hi(1) == pytest.approx(6 / math.pi ** 2, rel=1e-12)

    def test_ratio_sum_is_one(self):
        sys2 = make_linear_power(2)
        total = sum(F(*sys2.affine(i)[1].as_integer_ratio()) if not isinstance(sys2.affine(i)[1], F) else sys2.affine(i)[1] for i in range(1, 2000))
        # partial sum approaches 1 like the zeta tail ~ 1/2000
        assert 1 - 6.1e-4 < total < 1

    def test_nesting_exact(self):
        sys2 = make_linear_power(2)
        parent = cylinder_interval(sys2, (2,))
        child = cylinder_interval(sys2, (2, 3))
        assert parent.contains(child)


PROFILE_INDICES = (1, 2, 7, 10**5, 10**400)


@pytest.fixture(scope="module")
def profiled_systems():
    return {
        "gauss": make_gauss(),
        "linpow2": make_linear_power(2.0),
        "linpow1.5": make_linear_power(1.5),
        "gap": build_gap_system(parse_phi("pow:2"), 2.0, 0.1).system,
    }


class TestRateProfile:
    """contract_lo(i) = c*(i+t)**-d <= contract_hi(i) = c*i**-d, one formula
    for every kind."""

    @pytest.mark.parametrize("name", ["gauss", "linpow2", "linpow1.5", "gap"])
    def test_sandwich_and_log_forms(self, profiled_systems, name):
        system = profiled_systems[name]
        for i in PROFILE_INDICES:
            if system.index_limit is not None and i > system.index_limit:
                with pytest.raises(PreconditionError):
                    system.contract_lo(i)
                continue
            lo, hi = system.contract_lo(i), system.contract_hi(i)
            assert 0.0 <= lo <= hi
            log_lo, log_hi = system.log_contract_lo(i), system.log_contract_hi(i)
            assert math.isfinite(log_lo) and math.isfinite(log_hi)
            assert log_lo <= log_hi
            for rate, log_rate in ((lo, log_lo), (hi, log_hi)):
                if rate > 0.0:
                    assert log_rate == pytest.approx(math.log(rate), rel=1e-13, abs=1e-13)

    @pytest.mark.parametrize("d", [2.0, 1.5])
    def test_linear_power_rates_match_exact_ratio(self, profiled_systems, d):
        # Oracle: the ratio i**-d / zeta(d) at 160 bits, independent of the
        # family's own 128-bit normalizer; small indices also against the
        # exact affine slope.
        system = profiled_systems["linpow2" if d == 2.0 else "linpow1.5"]
        for i in PROFILE_INDICES:
            with mpmath.workprec(160):
                exact = float(mpmath.power(i, -d) / mpmath.zeta(d))
            if i < 100:
                assert float(system.affine(i)[1]) == exact
            for rate in (system.contract_lo(i), system.contract_hi(i)):
                assert abs(rate - exact) <= 2 * math.ulp(exact)


class TestLengthBounds:
    def test_gauss_single_digit(self, gauss):
        b = cylinder_length_bounds(gauss, (2,))
        assert b.lo == pytest.approx(1 / 9, rel=1e-15)
        assert b.hi == pytest.approx(1 / 4, rel=1e-15)
        # actual length 1/6 within
        c = cylinder_interval(gauss, (2,))
        assert b.lo <= float(c.length) <= b.hi
        assert float(c.length) == pytest.approx(1 / 6, rel=1e-15)

    @given(st.lists(st.integers(1, 15), min_size=1, max_size=5))
    @settings(max_examples=120, deadline=None)
    def test_sandwich_on_words(self, word):
        gauss = make_gauss()
        b = cylinder_length_bounds(gauss, word)
        length = float(cylinder_interval(gauss, word).length)
        assert b.lo * (1 - 1e-12) <= length <= b.hi * (1 + 1e-12)

    def test_product_structure(self, gauss):
        b1 = cylinder_length_bounds(gauss, (3,))
        b2 = cylinder_length_bounds(gauss, (7,))
        b12 = cylinder_length_bounds(gauss, (3, 7))
        assert b12.lo == pytest.approx(b1.lo * b2.lo, rel=1e-12)
        assert b12.hi == pytest.approx(b1.hi * b2.hi, rel=1e-12)

    def test_linear_power_exact_ratio(self):
        sys2 = make_linear_power(2)
        b = cylinder_length_bounds(sys2, (3,))
        expect = sys2.scale * 3 ** -2.0
        assert b.lo == pytest.approx(expect, rel=1e-12)
        assert b.hi == pytest.approx(expect, rel=1e-12)

    def test_log_fields_survive_underflow(self, gauss):
        word = (10**9,) * 50  # product ~ 1e-900, far below float range
        b = cylinder_length_bounds(gauss, word)
        assert b.lo == 0.0 and b.underflowed
        assert b.log_lo == pytest.approx(-50 * 2 * math.log(10**9 + 1), rel=1e-12)

    def test_empty_word_rejected(self, gauss):
        with pytest.raises(PreconditionError):
            cylinder_length_bounds(gauss, ())


class TestProjectPoint:
    def test_single_digit(self, gauss):
        pt, err = project_point(gauss, (1,))
        assert pt == F(1, 2)
        assert err <= F(1, 2)

    def test_word_2_2(self, gauss):
        # f_2(f_2(1)) = 1/(2 + 1/3) = 3/7
        pt, err = project_point(gauss, (2, 2))
        assert pt == F(3, 7)
        assert err == cylinder_interval(gauss, (2, 2)).length

    def test_golden_ratio_convergents(self, gauss):
        # all-ones words converge to (sqrt(5) - 1) / 2
        golden = (math.sqrt(5) - 1) / 2
        for n in (5, 10, 20):
            pt, err = project_point(gauss, (1,) * n)
            assert abs(float(pt) - golden) <= float(err)
        assert float(err) < 1e-8

    def test_error_bound_covers_extensions(self, gauss):
        word = (2, 3)
        pt, err = project_point(gauss, word)
        for extra in ((1,), (4, 4), (9, 1, 7)):
            ext, _ = project_point(gauss, word + extra)
            assert abs(ext - pt) <= err


class TestVerifyPowerDecay:
    def test_gauss_threshold_9(self, gauss):
        # frozen by direct check of (k+1)^-2 >= k^-2.1: fails at k=8, holds k>=9
        rep = verify_power_decay(gauss, 0.1, 100)
        assert rep.threshold == 9

    def test_gauss_threshold_9_larger_scan(self, gauss):
        rep = verify_power_decay(gauss, 0.1, 1000)
        assert rep.threshold == 9

    def test_sandwich_invariant(self, gauss):
        rep = verify_power_decay(gauss, 0.1, 200)
        for k in range(rep.threshold, 201):
            assert k ** -2.1 <= gauss.contract_lo(k)
            assert gauss.contract_hi(k) <= k ** -1.9

    def test_fitted_coefficients_valid_from_1(self, gauss):
        rep = verify_power_decay(gauss, 0.1, 200)
        for k in range(1, 201):
            assert rep.coeff_lo * k ** -2.1 <= gauss.contract_lo(k) * (1 + 1e-12)
            assert gauss.contract_hi(k) <= rep.coeff_hi * k ** -1.9 * (1 + 1e-12)

    def test_linear_power_threshold_1(self):
        # the scale constant is divided out, so the sandwich is exact from 1
        sys2 = make_linear_power(2)
        rep = verify_power_decay(sys2, 0.1, 100)
        assert rep.threshold == 1

    def test_eps_zero_errors(self, gauss):
        with pytest.raises((PreconditionError, NumericFailure)):
            verify_power_decay(gauss, 0.0, 100)

    def test_gauss_composition_certificate(self, gauss):
        # one-fold compositions include |f_1'(0)| = 1; two-fold suffice,
        # with the extreme at the all-ones word: |(f_1 o f_1)'(0)| = 1/4
        rep = verify_power_decay(gauss, 0.1, 50)
        assert rep.comp_depth == 2
        assert rep.comp_bound == pytest.approx(0.25, abs=1e-12)

    def test_linear_power_composition_certificate(self):
        sys2 = make_linear_power(2)
        rep = verify_power_decay(sys2, 0.1, 50)
        assert rep.comp_depth == 1
        assert rep.comp_bound == pytest.approx(sys2.scale, rel=1e-12)

    def test_monotone_rates_past_threshold(self, gauss):
        rep = verify_power_decay(gauss, 0.1, 100)
        ks = range(rep.threshold, 101)
        lows = [gauss.contract_lo(k) for k in ks]
        highs = [gauss.contract_hi(k) for k in ks]
        assert all(a >= b for a, b in zip(lows, lows[1:]))
        assert all(a >= b for a, b in zip(highs, highs[1:]))
