"""Core-type tests: the derived rate profile, exact cylinders and the
length sandwich on them, decay certification.

Expected values for the reciprocal-shift family are frozen from hand
calculations with exact rationals (the compositions below are two or three
steps of 1/(x+n), checked by hand before implementation).
"""

import dataclasses
import itertools
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifslab.families import _mpf_to_fraction, build_gap_system, make_gauss, make_linear_power
from ifslab.restrictions import parse_phi
from ifslab.systems import (
    DEPTH_CAP,
    DecaySystem,
    NumericFailure,
    PreconditionError,
    _append_digits,
    _digit_table,
    _empty_words,
    _log_rational,
    cylinder_interval,
    verify_power_decay,
)

F = Fraction


@pytest.fixture(scope="module")
def gauss():
    return make_gauss()


def _image_of_one(word):
    """f_w(1) for the Gauss maps: a composition of an even number of
    decreasing maps increases, so 1 goes to the cylinder's upper end."""
    c = cylinder_interval(make_gauss(), word)
    return c.hi if len(word) % 2 == 0 else c.lo


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

    def test_digits_are_integers(self, gauss):
        # A numpy digit acts as its int; a float or a string is refused,
        # not truncated.
        assert cylinder_interval(gauss, np.array([3, 1, 4])) == cylinder_interval(gauss, (3, 1, 4))
        for word in ((1.5,), (2, 2.0), ("2",)):
            with pytest.raises(PreconditionError, match="^digit must be an integer >= 1, got "):
                cylinder_interval(gauss, word)

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
        # f_i(1) and f_i(0) are the ends of image i, which move left as the
        # branch index grows.
        images = [cylinder_interval(gauss, (i,)) for i in range(1, 101)]
        assert [(c.lo, c.hi) for c in images[:3]] == [
            (F(1, 2), 1),
            (F(1, 3), F(1, 2)),
            (F(1, 4), F(1, 3)),
        ]
        for ends in ([c.lo for c in images], [c.hi for c in images]):
            assert all(u > v for u, v in zip(ends, ends[1:]))


class TestLinearPowerCylinders:
    def test_tiling_shares_endpoints(self):
        sys2 = make_linear_power(2)
        c1 = cylinder_interval(sys2, (1,))
        c2 = cylinder_interval(sys2, (2,))
        assert c1.hi == F(1)
        # Consecutive images abut to within one rounding of the offset
        # series, at 128 bits or finer with the image's scale: the gap
        # kind's contract, 2**-120 and 2**-64 of the image's length.
        assert abs(c2.hi - c1.lo) <= F(1, 2**120)
        affine = sys2.affine
        for i in (2, 10**3, 10**7, 10**12, 10**30):
            residue = affine.offset(i - 1) - (affine.offset(i) + affine.slope(i))
            assert abs(residue) <= min(F(1, 2**120), affine.slope(i) / 2**64), i

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
        total = sum(sys2.affine.slope(i) for i in range(1, 2000))
        # partial sum approaches 1 like the zeta tail ~ 1/2000
        assert 1 - 6.1e-4 < total < 1

    def test_nesting_exact(self):
        sys2 = make_linear_power(2)
        parent = cylinder_interval(sys2, (2,))
        child = cylinder_interval(sys2, (2, 3))
        assert parent.contains(child)


def _gap_map_256(gs, i):
    """(a_i, C * i**-d) of the gap closed form at 256 bits, from the
    construction's C and block gaps."""
    with mpmath.workprec(256):
        c = gs._c_mpf
        a = 1 - c - c * (mpmath.zeta(gs.decay, 2) - mpmath.zeta(gs.decay, i + 1))
        for b in gs.blocks:
            a -= b.gap * max(0, min(b.end, i) - b.start + 1)
        return a, c * mpmath.power(i, -gs.decay)


class TestGapCylinders:
    def test_depth_three_matches_the_closed_form_at_256_bits(self):
        # Every word of three digits crossing blocks 1 to 3: the exact
        # cylinder agrees with the closed-form maps composed at 256 bits up
        # to the 128-bit rounding of the map's series.
        gs = build_gap_system(parse_phi("pow:2"), 2.0, 0.1)
        maps = {i: _gap_map_256(gs, i) for i in range(2, 60)}
        tol = F(1, 2**120)
        for word in itertools.product(range(2, 12), range(12, 40), range(40, 60)):
            with mpmath.workprec(256):
                off, slope = mpmath.mpf(0), mpmath.mpf(1)
                for i in word:
                    o_i, s_i = maps[i]
                    off, slope = off + slope * o_i, slope * s_i
                lo, hi = _mpf_to_fraction(off), _mpf_to_fraction(off + slope)
            cyl = cylinder_interval(gs.system, word)
            assert isinstance(cyl.lo, F) and isinstance(cyl.hi, F)
            assert abs(cyl.lo - lo) <= tol and abs(cyl.hi - hi) <= tol, word


PROFILE_INDICES = (1, 2, 7, 10**5, 10**400)


@pytest.fixture(scope="module")
def profiled_systems():
    return {
        "gauss": make_gauss(),
        "linpow2": make_linear_power(2.0),
        "linpow1.5": make_linear_power(1.5),
        "linpow3": make_linear_power(3.0),
        "gap": build_gap_system(parse_phi("pow:2"), 2.0, 0.1).system,
    }


class TestRateProfile:
    """contract_lo(i) = c*(i+t)**-d <= contract_hi(i) = c*i**-d, one formula
    for every kind, with (d, c, t) read off the branch geometry."""

    def test_geometry_is_the_only_field(self):
        assert [f.name for f in dataclasses.fields(DecaySystem)] == ["affine"]
        with pytest.raises(TypeError):
            DecaySystem(decay=3.0, scale=0.5, shift=1)
        with pytest.raises(AttributeError):
            make_gauss().decay = 3.0

    def test_family_less_system_is_gauss(self):
        assert DecaySystem() == make_gauss()

    @pytest.mark.parametrize(
        "name,profile",
        [
            ("gauss", (2.0, 1.0, 1)),
            ("linpow2", (2.0, 0.6079271018540267, 0)),
            ("linpow3", (3.0, 0.8319073725807075, 0)),
            # The gap system's scale is its normalizer C.
            ("gap", (2.0, 0.38003226440612986, 0)),
        ],
    )
    def test_profile_is_read_off_the_geometry(self, profiled_systems, name, profile):
        # The values the families stored as fields before the profile was
        # derived.
        system = profiled_systems[name]
        assert (system.decay, system.scale, system.shift) == profile

    @pytest.mark.parametrize("name", ["gauss", "linpow2", "linpow1.5", "gap"])
    def test_sandwich_and_log_forms(self, profiled_systems, name):
        system = profiled_systems[name]
        for i in PROFILE_INDICES:
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
                assert float(system.affine.slope(i)) == exact
            for rate in (system.contract_lo(i), system.contract_hi(i)):
                assert abs(rate - exact) <= 2 * math.ulp(exact)


class TestLengthBounds:
    """The cylinder length lies between the products of the per-digit
    rates contract_lo and contract_hi."""

    def test_gauss_single_digit(self, gauss):
        c = cylinder_interval(gauss, (2,))
        assert c.length == F(1, 6)
        assert gauss.contract_lo(2) == pytest.approx(1 / 9, rel=1e-15)
        assert gauss.contract_hi(2) == pytest.approx(1 / 4, rel=1e-15)
        assert gauss.contract_lo(2) <= float(c.length) <= gauss.contract_hi(2)

    @given(st.lists(st.integers(1, 15), min_size=1, max_size=5))
    @settings(max_examples=120, deadline=None)
    def test_sandwich_on_words(self, word):
        gauss = make_gauss()
        lo = math.prod(gauss.contract_lo(a) for a in word)
        hi = math.prod(gauss.contract_hi(a) for a in word)
        length = float(cylinder_interval(gauss, word).length)
        assert lo * (1 - 1e-12) <= length <= hi * (1 + 1e-12)

    def test_linear_power_exact_ratio(self):
        sys2 = make_linear_power(2)
        length = float(cylinder_interval(sys2, (3,)).length)
        assert length == pytest.approx(sys2.scale * 3 ** -2.0, rel=1e-12)
        assert length == pytest.approx(sys2.contract_lo(3), rel=1e-12)

    def test_log_fields_survive_underflow(self, gauss):
        word = (10**9,) * 50  # length ~ 1e-900, far below float range
        assert math.prod(gauss.contract_lo(a) for a in word) == 0.0
        log_lo = sum(gauss.log_contract_lo(a) for a in word)
        log_hi = sum(gauss.log_contract_hi(a) for a in word)
        assert log_lo == pytest.approx(-50 * 2 * math.log(10**9 + 1), rel=1e-12)
        assert log_lo <= _log_rational(cylinder_interval(gauss, word).length) <= log_hi


class TestProjectPoint:
    """The image of 1 under a word's composition, an end of its cylinder,
    approximates every infinite extension of the word to within the
    cylinder's length."""

    def test_single_digit(self):
        assert _image_of_one((1,)) == F(1, 2)

    def test_word_2_2(self):
        # f_2(f_2(1)) = 1/(2 + 1/3) = 3/7
        assert _image_of_one((2, 2)) == F(3, 7)

    def test_golden_ratio_convergents(self, gauss):
        # all-ones words converge to (sqrt(5) - 1) / 2
        golden = (math.sqrt(5) - 1) / 2
        for n in (5, 10, 20):
            err = cylinder_interval(gauss, (1,) * n).length
            assert abs(float(_image_of_one((1,) * n)) - golden) <= float(err)
        assert float(err) < 1e-8

    def test_error_bound_covers_extensions(self, gauss):
        word = (2, 3)
        pt, err = _image_of_one(word), cylinder_interval(gauss, word).length
        for extra in ((1,), (4, 4), (9, 1, 7)):
            assert abs(_image_of_one(word + extra) - pt) <= err


def _scan_threshold(system, eps, i_max):
    """The sandwich threshold by the float scan from i_max down to the
    first index where either half fails (the pre-closed-form route)."""
    d, scale = system.decay, system.scale
    threshold = None
    for k in range(i_max, 0, -1):
        lo_ok = system.contract_lo(k) / scale >= k ** (-d - eps)
        hi_ok = system.contract_hi(k) / scale <= k ** (-d + eps)
        if not (lo_ok and hi_ok):
            break
        threshold = k
    return threshold


def _deriv_sup_on_grid(system, word, grid):
    """Max over grid points of |f_w'(x)| by the chain rule on exact orbits."""
    best = Fraction(0)
    for x in grid:
        deriv = Fraction(1)
        for i in reversed(word):
            a, b, c, d = system._branch(i)
            deriv *= Fraction(abs(a * d - b * c)) / (c * x + d) ** 2
            x = Fraction(a * x + b) / (c * x + d)
        best = max(best, deriv)
    return best


class TestVerifyPowerDecay:
    def test_gauss_threshold_9(self, gauss):
        # frozen by direct check of (k+1)^-2 >= k^-2.1: fails at k=8, holds k>=9
        rep = verify_power_decay(gauss, 0.1)
        assert rep.threshold == 9

    def test_gauss_threshold_9_larger_scan(self, gauss):
        # No scan length bounds the certificate: the lower half holds far out.
        rep = verify_power_decay(gauss, 0.1)
        assert rep.threshold == 9
        for k in (10**3, 10**6, 10**12, 2**200):
            assert 2.0 * math.log1p(1 / k) <= 0.1 * math.log(k)

    def test_sandwich_invariant(self, gauss):
        rep = verify_power_decay(gauss, 0.1)
        for k in range(rep.threshold, 201):
            assert k ** -2.1 <= gauss.contract_lo(k)
            assert gauss.contract_hi(k) <= k ** -1.9

    def test_fitted_coefficients_valid_from_1(self, gauss):
        c_lo, c_hi = gauss.contract_lo(1), gauss.contract_hi(1)
        for k in range(1, 201):
            assert c_lo * k ** -2.1 <= gauss.contract_lo(k) * (1 + 1e-12)
            assert gauss.contract_hi(k) <= c_hi * k ** -1.9 * (1 + 1e-12)

    def test_linear_power_threshold_1(self):
        # the scale constant is divided out, so the sandwich is exact from 1
        sys2 = make_linear_power(2)
        rep = verify_power_decay(sys2, 0.1)
        assert rep.threshold == 1

    def test_gauss_threshold_matches_the_scan(self, gauss):
        # 407 tolerances over [0.001, 0.49]; each scan starts at twice the
        # closed-form threshold, far enough for the smallest eps.
        for eps in np.geomspace(0.001, 0.49, 407).tolist():
            threshold = verify_power_decay(gauss, eps).threshold
            assert _scan_threshold(gauss, eps, 2 * threshold + 10) == threshold, eps

    @pytest.mark.parametrize("name", ["linpow1.5", "linpow2", "linpow3", "gap"])
    def test_affine_thresholds_are_1(self, profiled_systems, name):
        for eps in (0.1, 1e-6):
            assert verify_power_decay(profiled_systems[name], eps).threshold == 1

    @pytest.mark.parametrize("eps, threshold", [(1e-4, 2550), (1e-6, 166363)])
    def test_small_eps_threshold_is_sharp(self, gauss, eps, threshold):
        # Past the 1000 indices a scan used to check: the sandwich holds at
        # the threshold and fails one index below it, and a linear search
        # up from 1 finds the same first index.
        assert verify_power_decay(gauss, eps).threshold == threshold

        def holds(k):
            return (k + 1) ** -2.0 >= k ** (-2.0 - eps) and k ** -2.0 <= k ** (-2.0 + eps)

        assert holds(threshold) and not holds(threshold - 1)
        assert next(k for k in itertools.count(1) if holds(k)) == threshold

    @pytest.mark.parametrize("eps", [math.nan, math.inf, -0.1])
    def test_eps_not_finite_and_positive_is_a_precondition_error(self, gauss, eps):
        # Any finite eps > 0 ends the doubling; these would not.
        with pytest.raises(PreconditionError, match="eps must be finite and > 0"):
            verify_power_decay(gauss, eps)

    def test_eps_zero_errors(self, gauss):
        with pytest.raises(PreconditionError, match="eps must be finite and > 0"):
            verify_power_decay(gauss, 0.0)

    def test_gauss_composition_certificate(self, gauss):
        # one-fold compositions include |f_1'(0)| = 1; two-fold suffice,
        # with the extreme at the all-ones word: |(f_1 o f_1)'(0)| = 1/4
        rep = verify_power_decay(gauss, 0.1)
        assert rep.comp_depth == 2
        assert rep.comp_bound == 0.25

    def test_linear_power_composition_certificate(self):
        sys2 = make_linear_power(2)
        rep = verify_power_decay(sys2, 0.1)
        assert rep.comp_depth == 1
        assert rep.comp_bound == pytest.approx(sys2.scale, rel=1e-12)

    @pytest.mark.parametrize("name", ["gauss", "linpow2", "linpow1.5", "gap"])
    def test_composition_certificate_matches_brute_force(self, profiled_systems, name):
        # Exact derivatives by the chain rule at 33 grid points of [0, 1],
        # over every word with digits <= 4: each depth below comp_depth has
        # a word with sup >= 1, and at comp_depth the largest sup is the bound.
        system = profiled_systems[name]
        rep = verify_power_decay(system, 0.1)
        grid = [Fraction(j, 32) for j in range(33)]
        for m in range(1, rep.comp_depth + 1):
            words = itertools.product(range(1, 5), repeat=m)
            worst = max(_deriv_sup_on_grid(system, w, grid) for w in words)
            if m < rep.comp_depth:
                assert worst >= 1
            else:
                assert rep.comp_bound == float(worst)

    def test_monotone_rates_past_threshold(self, gauss):
        rep = verify_power_decay(gauss, 0.1)
        ks = range(rep.threshold, 101)
        lows = [gauss.contract_lo(k) for k in ks]
        highs = [gauss.contract_hi(k) for k in ks]
        assert all(a >= b for a, b in zip(lows, lows[1:]))
        assert all(a >= b for a, b in zip(highs, highs[1:]))


def _assert_log_lengths(system, words, got):
    """Each log length within 4 ulps of the log of the exact cylinder; an
    affine one is the correctly rounded sum of its slopes' logs."""
    for word, log_len in zip(words, got.tolist()):
        want = math.log(cylinder_interval(system, word).length)
        assert abs(log_len - want) <= 4 * math.ulp(want), (word, log_len, want)
        if system.affine is not None:
            assert log_len == math.fsum(math.log(system.affine.slope(a)) for a in word), word


def _mp_log(x: Fraction) -> float:
    with mpmath.workprec(200):
        return float(mpmath.log(mpmath.mpf(x.numerator) / x.denominator))


@pytest.mark.parametrize(
    "digits",
    [
        np.random.default_rng(3).integers(1, 400, size=300),
        np.append(np.random.default_rng(3).integers(1, 400, size=300), 10**5),
        np.array([2**64 + 7, 3, 2**64 + 7, 2**70, 3], dtype=object),
        np.array([], dtype=np.int64),
    ],
    ids=["table", "sort", "object", "empty"],
)
def test_digit_table_calls_once_per_distinct_digit(digits):
    # A dense int64 column reads a presence table; a spread of 4 * size +
    # 4096 or more, and Python ints past int64, take the sort.
    calls = []

    def fn(j):
        calls.append(j)
        return math.log(j) / 3 + j % 7

    got = _digit_table(digits, fn)
    want = [math.log(j) / 3 + j % 7 for j in digits.tolist()]
    assert got.dtype == np.float64 and got.tolist() == want
    assert sorted(calls) == sorted(set(digits.tolist()))
    assert all(type(j) is int for j in calls)


class TestAppendDigits:
    """The level kernel's log lengths against the exact cylinder intervals,
    for both call shapes: levels grown through parent indices, as exact
    cover sums grow them, and a block of words column by column, as the
    Frostman check reads it."""

    @pytest.mark.parametrize("name", ["gauss", "gauss:object", "linpow:2", "linpow:1.5", "gap"])
    def test_matches_exact_cylinders(self, name, profiled_systems):
        key = {"gauss:object": "gauss", "linpow:2": "linpow2", "linpow:1.5": "linpow1.5"}
        system = profiled_systems[key.get(name, name)]
        # Past 2**62 the continuants are Python ints; 400**4 stays below it.
        bound = 2**62 if name == "gauss:object" else 400**4
        rng = np.random.default_rng(17)
        # Level growth: each word extends a random word of the level before.
        level, words = _empty_words(system, 1, bound), [()]
        for _ in range(4):
            parent = rng.integers(0, len(words), size=300)
            digits = rng.integers(1, 400, size=300)
            level, got = _append_digits(system, level, digits, parent)
            words = [words[k] + (j,) for k, j in zip(parent.tolist(), digits.tolist())]
            _assert_log_lengths(system, words, got)
        # Column by column over a block of rows.
        block = rng.integers(1, 400, size=(300, 4))
        level = _empty_words(system, len(block), bound)
        for n, col in enumerate(block.T, 1):
            level, got = _append_digits(system, level, col)
            _assert_log_lengths(system, [tuple(w) for w in block[:, :n].tolist()], got)

    @pytest.mark.parametrize("name", ["linpow2", "gap"])
    def test_affine_digit_routes_agree(self, name, profiled_systems):
        # int64 digits spread over a few values per digit read a presence
        # table; a wider spread and Python ints find the distinct digits by
        # a sort.  Every route gives a digit the same slope log.
        system = profiled_systems[name]
        dense = np.random.default_rng(5).integers(1, 400, size=300)
        for digits in (dense, np.append(dense, 10**5)):
            level = _empty_words(system, len(digits), 2**40)
            (total, err), got = _append_digits(system, level, digits)
            (total_o, err_o), want = _append_digits(system, level, digits.astype(object))
            assert total.tobytes() == total_o.tobytes() and err.tobytes() == err_o.tobytes()
            assert got.tobytes() == want.tobytes()

    def test_slopes_past_the_float_range(self):
        # Under decay 300 the slopes of digits past 10 underflow a float;
        # their logs come from the exact rationals all the same.
        system = make_linear_power(300.0)
        words = [(2, 5), (20, 7), (3000, 3000)]
        level = _empty_words(system, len(words), 3001**2)
        for col in np.array(words).T:
            level, got = _append_digits(system, level, col)
        for word, log_len in zip(words, got.tolist()):
            want = _mp_log(cylinder_interval(system, word).length)
            assert abs(log_len - want) <= 4 * math.ulp(want), word

    def test_continuants_past_the_float_range(self, gauss):
        # Digits near 2**600 give continuants near 2**1200, which no float
        # holds; math.log reads the Python ints directly.
        words = [(2**600, 3), (5, 2**600 + 1), (2**600, 2**600)]
        level = _empty_words(gauss, len(words), (2**600 + 2) ** 2)
        for col in np.array(words, dtype=object).T:
            level, got = _append_digits(gauss, level, col)
        for word, log_len in zip(words, got.tolist()):
            want = _mp_log(cylinder_interval(gauss, word).length)
            assert abs(log_len - want) <= 4 * math.ulp(want), word
