"""Pressure roots, restricted cover sums, box counting, prediction table.

Frozen oracles, each derived independently before the module existed:

* 4**-s + 9**-s = 1 at s = 0.393942455512935 and 9**-s + 16**-s = 1 at
  s = 0.280249432611932 (30-digit root finder on the explicit sums).
* Analytic band roots of k**(1-2s) = 2s - 1: 0.6995064891 for k = 10,
  0.6389937124 for k = 100, 0.6097565758 for k = 1000.
* Depth-2, cap-3 restricted cover sum at s = 1: 1/12 + 1/20 + 1/63
  = 47/315 (continuant lengths by hand).
* Grid-count slopes at dyadic scales 2^-2 .. 2^-18: {1/i : i <= 1e6}
  gives 0.5033; the depth-13 middle-third Cantor sample gives 0.6301
  against log 2 / log 3 = 0.63093.
"""

import gc
import math
import time
import tracemalloc
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ifslab import dimension
from ifslab.dimension import (
    DimensionEstimate,
    ScaleWarning,
    TailWarning,
    _box_counts,
    _exact_depth_sums,
    _linregress,
    _log_rates,
    _transfer_depth_sums,
    _truncation_bound,
    bowen_root,
    box_dim_estimate,
    cover_sum,
    predict_dimensions,
    subsystem_dim_bounds,
)
from ifslab.families import AffineMap, build_gap_system, make_gauss, make_linear_power
from ifslab.restrictions import (
    _WALK_BLOCK,
    Phi,
    _level_counts,
    enumerate_restricted_words,
    parse_phi,
    successor_table,
)
from ifslab.systems import DecaySystem, NumericFailure, PreconditionError, _compose

ROOT_12 = 0.393942455512935
ROOT_23 = 0.280249432611932
BAND_ROOTS = {10: 0.6995064891, 100: 0.6389937124, 1000: 0.6097565758}
DYADIC = [2.0**-j for j in range(2, 19)]


def check_estimate(est: DimensionEstimate):
    assert 0.0 <= est.value <= 1.0
    lo, hi = est.bracket
    assert lo <= est.value <= hi


def two_ratio_system(r1: float, r2: float) -> DecaySystem:
    """Two branches with rates r1 and r2: the affine map of C = r1 and
    d = log2(r1/r2), whose rate profile is (d, r1, 0)."""
    return DecaySystem(AffineMap(mpmath.mpf(r1), math.log2(r1 / r2)))


@pytest.fixture(scope="module")
def gauss():
    return make_gauss()


@pytest.fixture(scope="module")
def lin_phi():
    return parse_phi("lin:1")


class TestBowenRoot:
    def test_two_term_oracle(self, gauss):
        est = bowen_root(gauss, "xi", 1, 2)
        check_estimate(est)
        assert est.value == pytest.approx(ROOT_12, abs=1e-9)
        assert est.method == "bowen-root"
        s = est.value
        assert abs(4.0**-s + 9.0**-s - 1.0) <= 1e-10

    def test_three_term_oracle(self, gauss):
        est = bowen_root(gauss, "xi", 2, 3)
        check_estimate(est)
        assert est.value == pytest.approx(ROOT_23, abs=1e-9)

    def test_equal_halves(self):
        est = bowen_root(two_ratio_system(0.5, 0.5), "xi", 1, 2)
        check_estimate(est)
        assert est.value == pytest.approx(1.0, abs=1e-9)

    def test_unit_ratio_has_no_root(self, gauss):
        with pytest.raises(NumericFailure):
            bowen_root(gauss, "lambda", 1, 10)

    def test_band_roots_track_analytic_form(self, gauss):
        previous = 1.0
        for k, target in BAND_ROOTS.items():
            est = bowen_root(gauss, "xi", k, 1000 * k, 1e-10)
            check_estimate(est)
            assert abs(est.value - target) / target < 0.05
            assert 0.5 < est.value < previous
            previous = est.value

    def test_monotone_in_band_position(self, gauss):
        span = 20
        roots = [bowen_root(gauss, "xi", k, k + span).value for k in (1, 2, 5, 10, 20)]
        assert all(a > b for a, b in zip(roots, roots[1:]))

    def test_monotone_in_band_length(self, gauss):
        roots = [bowen_root(gauss, "xi", 1, m).value for m in (2, 4, 8, 16)]
        assert all(a < b for a, b in zip(roots, roots[1:]))

    def test_argument_validation(self, gauss):
        with pytest.raises(PreconditionError):
            bowen_root(gauss, "xi", 3, 2)
        with pytest.raises(PreconditionError):
            bowen_root(gauss, "xi", 0, 2)
        with pytest.raises(PreconditionError):
            bowen_root(gauss, "xi", 1, 5, tol=0.0)
        with pytest.raises(PreconditionError):
            bowen_root(gauss, "mid", 1, 5)

    def test_needs_two_contracting_ratios(self):
        sys = two_ratio_system(0.5, 1.0)
        with pytest.raises(PreconditionError):
            bowen_root(sys, "xi", 1, 1)


class TestSubsystemBounds:
    def test_shifted_band_reuses_roots(self, gauss):
        lower, upper = subsystem_dim_bounds(gauss, 2, 3)
        check_estimate(lower)
        check_estimate(upper)
        assert lower.value == pytest.approx(ROOT_23, abs=1e-9)
        # lambda_2 = 1/4 and lambda_3 = 1/9 repeat the xi band one step up.
        assert upper.value == pytest.approx(ROOT_12, abs=1e-9)

    def test_first_map_caps_upper(self, gauss):
        lower, upper = subsystem_dim_bounds(gauss, 1, 50)
        assert upper.value == 1.0
        assert upper.diagnostics["capped"] is True
        assert upper.bracket == (lower.value, 1.0)

    def test_lower_never_exceeds_upper(self, gauss):
        for k, m in ((2, 3), (2, 30), (3, 10), (5, 200), (10, 1000)):
            lower, upper = subsystem_dim_bounds(gauss, k, m)
            assert lower.value <= upper.value

    @pytest.mark.parametrize("name", ["gauss", "linpow"])
    def test_bounds_are_the_two_band_roots(self, gauss, name):
        # Both bands are slices of one log band; each must be the band
        # bowen_root forms on its own.
        system = gauss if name == "gauss" else make_linear_power(2.0)
        lower, upper = subsystem_dim_bounds(system, 5, 500)
        assert lower == bowen_root(system, "xi", 5, 500)
        assert upper == bowen_root(system, "lambda", 5, 500)

    @pytest.mark.parametrize(
        "k, m, tol, message",
        [
            (3, 2, 1e-10, "need 1 <= k <= m"),
            (0, 2, 1e-10, "need 1 <= k <= m"),
            (1, 2, 0.0, "tol must be positive"),
            (1, 2, math.inf, "tol must be positive and below 1"),
            (1, 2, 2.0, "tol must be positive and below 1"),
            (1, 2, 1.0, "tol must be positive and below 1"),
            (1, 2, math.nan, "tol must be positive and below 1"),
        ],
    )
    def test_band_checks_match_bowen_root(self, k, m, tol, message):
        system = two_ratio_system(0.5, 0.25)
        with pytest.raises(PreconditionError, match=message):
            bowen_root(system, "xi", k, m, tol=tol)
        with pytest.raises(PreconditionError, match=message):
            subsystem_dim_bounds(system, k, m, tol=tol)


    def test_band_ends_read_numpy_integers_as_ints(self, gauss):
        assert bowen_root(gauss, "xi", np.int64(10), np.int64(1000)) == (
            bowen_root(gauss, "xi", 10, 1000)
        )
        assert subsystem_dim_bounds(gauss, np.int64(1), np.int64(1000)) == (
            subsystem_dim_bounds(gauss, 1, 1000)
        )
        for k, m, name in ((10.0, 1000, "k"), (10, 1000.0, "m"), ("3", 10, "k")):
            with pytest.raises(PreconditionError, match=f"^{name} must be an integer >= 0"):
                bowen_root(gauss, "xi", k, m)


def _bisection_root(rates: np.ndarray, tol: float) -> float:
    """The bisection the pressure root used before its Newton search, as a
    reference: halve [0, hi] until |sum(rates**s) - 1| <= tol, with hi the
    first power of 2 where the sum drops below 1."""
    lr = np.log(rates[rates > 0])

    def pressure(s):
        return float(np.exp(s * lr).sum())

    hi = 1.0
    while pressure(hi) >= 1.0:
        hi *= 2.0
    lo = 0.0
    while True:
        mid = 0.5 * (lo + hi)
        val = pressure(mid)
        if abs(val - 1.0) <= tol:
            return mid
        lo, hi = (mid, hi) if val > 1.0 else (lo, mid)


def _pressure(log_rates: np.ndarray, s: float) -> float:
    return float(np.exp(s * log_rates).sum())


class TestPressureSolver:
    @settings(max_examples=60, deadline=None)
    @given(
        name=st.sampled_from(["gauss", "linpow", "gapsys", "toy"]),
        bound=st.sampled_from(["xi", "lambda"]),
        k=st.integers(1, 500),
        span=st.integers(1, 3000),
        rates=st.tuples(st.floats(0.05, 0.7), st.floats(0.05, 0.7)),
        tol=st.sampled_from([1e-10, 1e-12]),
    )
    # Rates (0.5, 0.5): the root is exactly 1, inside the sign-checked branch.
    @example(name="toy", bound="xi", k=1, span=1, rates=(0.5, 0.5), tol=1e-10)
    def test_root_agrees_with_retired_bisection(
        self, gauss, gap_system, name, bound, k, span, rates, tol
    ):
        if name == "toy":
            # Two ratios; their sum may pass 1, putting the root above 1.
            system, bound, k, m = two_ratio_system(*sorted(rates, reverse=True)), "xi", 1, 2
        else:
            system = {"gauss": gauss, "linpow": make_linear_power(2.0), "gapsys": gap_system}[name]
            m = k + span
            assume(not (name == "gauss" and bound == "lambda" and k == 1))
        est = bowen_root(system, bound, k, m, tol=tol)
        # The float log-rate band the root summed before it rooted on
        # power-sum brackets.
        t = system.shift if bound == "xi" else 0
        log_rates = math.log(system.scale) - system.decay * np.log(
            np.arange(k + t, m + t + 1, dtype=float)
        )
        raw = est.diagnostics["raw_root"]
        assert abs(_pressure(log_rates, raw) - 1.0) <= tol
        old_rates = system.scale * np.arange(k + t, m + t + 1, dtype=float) ** -system.decay
        assert abs(raw - _bisection_root(old_rates, tol)) <= 1e-9
        lo, hi = est.bracket
        assert lo <= est.value <= hi
        if raw <= 1.0:
            assert est.value == raw
            assert _pressure(log_rates, lo) >= 1.0 >= _pressure(log_rates, hi)
        else:
            assert est.bracket == (1.0, 1.0)

    @pytest.mark.parametrize(
        "k, m",
        [
            pytest.param(10, 10_000, id="10"),
            pytest.param(100, 100_000, id="100"),
            pytest.param(1000, 1_000_000, id="1000"),
            # Bands no float array could hold: a root costs the same at any m.
            pytest.param(10, 10**12, id="10-m1e12"),
            pytest.param(10, 10**18, id="10-m1e18"),
        ],
    )
    def test_hurwitz_zeta_oracle(self, gauss, k, m):
        # The xi band k..m of the Gauss map sums (i + 1)**(-2s) over i, that
        # is zeta(2s, k + 1) - zeta(2s, m + 2).
        with mpmath.workdps(30):
            root = mpmath.findroot(
                lambda s: mpmath.zeta(2 * s, k + 1) - mpmath.zeta(2 * s, m + 2) - 1, 0.6
            )
        assert abs(bowen_root(gauss, "xi", k, m).value - float(root)) <= 1e-9

    @pytest.mark.parametrize(
        "name, k, m",
        [
            ("gauss", 10, 10_000),
            ("gauss", 1000, 10**12),
            ("linpow", 10, 10_000),
            ("linpow", 3, 300),
            ("gapsys", 1, 300_000),
            ("gapsys", 40, 90),
        ],
    )
    def test_bracket_ends_straddle_the_root(self, gauss, gap_system, name, k, m):
        # mpmath at 30 digits: P >= 1 at the lower end and P <= 1 at the
        # upper end, with P(s) = scale**s * (zeta(d s, k + t) - zeta(d s, m + t + 1)).
        system = {"gauss": gauss, "linpow": make_linear_power(2.0), "gapsys": gap_system}[name]
        lower, upper = subsystem_dim_bounds(system, k, m)
        for est, t in ((lower, system.shift), (upper, 0)):
            lo, hi = est.bracket
            assert lo <= est.value <= hi < 1.0
            with mpmath.workdps(30):
                scale, d = mpmath.mpf(system.scale), mpmath.mpf(system.decay)

                def pressure(s):
                    s = mpmath.mpf(s)
                    return scale**s * (mpmath.zeta(d * s, k + t) - mpmath.zeta(d * s, m + t + 1))

                assert pressure(lo) >= 1 >= pressure(hi)

    def test_million_term_band_takes_few_evaluations(self, gauss):
        lower, upper = subsystem_dim_bounds(gauss, 1000, 1_000_000)
        assert lower.diagnostics["iterations"] <= 8
        assert upper.diagnostics["iterations"] <= 8

    def test_tol_below_rounding_is_a_numeric_failure(self):
        # |P - 1| <= 1e-300 holds only where P rounds to 1 exactly, which
        # no s on this band reaches: the bracket collapses first.
        with pytest.raises(NumericFailure, match="never reached tol"):
            bowen_root(make_linear_power(2.0), "xi", 3, 50_000, tol=1e-300)

    def test_root_above_one_is_clipped(self):
        # 0.7**s + 0.6**s = 1 past s = 1: P(1) > 1, so the search rises
        # from s = 1 before it has an upper end.
        est = bowen_root(two_ratio_system(0.7, 0.6), "xi", 1, 2)
        raw = est.diagnostics["raw_root"]
        assert raw > 1.0 and abs(0.7**raw + 0.6**raw - 1.0) <= 1e-10
        assert est.value == 1.0 and est.bracket == (1.0, 1.0)


class TestCoverSum:
    def test_depth_one_telescopes(self, gauss, lin_phi):
        cap = 10**6
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            total = cover_sum(gauss, lin_phi, 1, 1.0, digit_cap=cap)
        assert total == pytest.approx(1.0 - 1.0 / (cap + 1), rel=1e-9)

    def test_past_the_longest_word_the_cover_is_zero_at_once(self, gauss, lin_phi):
        # No lin:1 word under cap 3 is longer than 3 digits.  At depth 1000
        # G**1000 already overflows, so the warning reads a bound of inf at
        # every deeper depth; the dp route took 4.6 s at depth 10**5 and the
        # exact route 1.2 s at 10**6 when both ran every depth.
        def cover(depth, method):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                start = time.perf_counter()
                value = cover_sum(gauss, lin_phi, depth, 0.6, digit_cap=3, method=method)
                elapsed = time.perf_counter() - start
            return value, [str(w.message) for w in caught], elapsed

        for method, timed in (("exact", 10**6), ("dp", 10**5)):
            value, warned, _ = cover(1000, method)
            assert value == 0.0
            assert warned == [
                "digit cap 3: truncation bound inf exceeds 1% of the cover sum 0"
            ]
            assert cover(10**9, method)[:2] == (value, warned)
            assert cover(timed, method)[2] < 0.2
        # The bound over totals that stop at the longest word is the bound
        # over every depth's totals, the empty ones 0.0.
        totals = _exact_depth_sums(gauss, successor_table(lin_phi, 3), 3, 0.6)
        for depth in (4, 5, 8):
            padded = totals + [0.0] * (depth - 3)
            got = _truncation_bound(gauss, depth, 0.6, 3, totals)
            assert got == _truncation_bound(gauss, depth, 0.6, 3, padded) < math.inf

    def test_depth_two_cap_three_exact(self, gauss, lin_phi):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            total = cover_sum(gauss, lin_phi, 2, 1.0, digit_cap=3, method="exact")
        assert total == 47.0 / 315.0

    def test_transfer_program_matches_enumeration(self, gauss, lin_phi):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            exact = cover_sum(gauss, lin_phi, 3, 0.7, digit_cap=60, method="exact")
            program = cover_sum(gauss, lin_phi, 3, 0.7, digit_cap=60, method="dp")
        assert program == pytest.approx(exact, rel=1e-13)

    def test_affine_transfer_is_exact(self, lin_phi):
        flat = make_linear_power(2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            exact = cover_sum(flat, lin_phi, 2, 0.8, digit_cap=200, method="exact")
            program = cover_sum(flat, lin_phi, 2, 0.8, digit_cap=200, method="dp")
        assert program == pytest.approx(exact, rel=1e-13)

    def test_power_restriction_paths_agree(self, gauss):
        phi = parse_phi("pow:2")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            exact = cover_sum(gauss, phi, 3, 0.5, digit_cap=100, method="exact")
            program = cover_sum(gauss, phi, 3, 0.5, digit_cap=100, method="dp")
        assert exact > 0
        assert program == pytest.approx(exact, rel=1e-13)

    def test_exact_total_at_s_one_stays_fast(self, gauss, lin_phi):
        # 178365 words of depth 4, whose exact total at s = 1 once took 23 s
        # as a running Fraction sum; the float total is the rational's float.
        assert list(_level_counts(successor_table(lin_phi, 47), [47] * 4))[-1] == 178365
        start = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            total = cover_sum(gauss, lin_phi, 4, 1.0, digit_cap=47, method="exact")
        assert time.perf_counter() - start < 10.0
        assert total == 0.008798022958825393

    def test_exact_route_word_budget(self, monkeypatch, gauss, lin_phi):
        # Cap 3, depth 2: three words of each depth.  The budget counts words
        # over all depths, and binds the exact route alone.
        monkeypatch.setattr(dimension, "_EXACT_WORD_BUDGET", 6)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert cover_sum(gauss, lin_phi, 2, 1.0, digit_cap=3, method="exact") == 47 / 315
            monkeypatch.setattr(dimension, "_EXACT_WORD_BUDGET", 5)
            with pytest.raises(NumericFailure, match="6 admissible words exceed"):
                cover_sum(gauss, lin_phi, 2, 1.0, digit_cap=3, method="exact")
            assert cover_sum(gauss, lin_phi, 2, 1.0, digit_cap=3) == pytest.approx(
                47 / 315, rel=1e-13
            )
            cover_sum(gauss, lin_phi, 2, 1.0, digit_cap=3, method="dp")

    def test_depth_trend_splits_at_the_dimension(self, gauss, lin_phi):
        # dim is 1/2: supercritical exponents shrink with depth, subcritical
        # ones grow.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            high = [cover_sum(gauss, lin_phi, n, 0.6, digit_cap=300) for n in range(3, 7)]
            low = [cover_sum(gauss, lin_phi, n, 0.45, digit_cap=300) for n in range(3, 7)]
        assert all(a > b for a, b in zip(high, high[1:]))
        assert all(a < b for a, b in zip(low, low[1:]))

    def test_tail_warning_on_divergent_tail(self, gauss, lin_phi):
        with pytest.warns(TailWarning):
            cover_sum(gauss, lin_phi, 2, 0.45, digit_cap=100)

    def test_no_warning_when_cap_covers(self, gauss, lin_phi):
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            cover_sum(gauss, lin_phi, 2, 1.0, digit_cap=10**4)
        assert not [w for w in rec if issubclass(w.category, TailWarning)]

    @pytest.mark.parametrize("cap, n_words, method", [(631, 199396, "exact"), (632, 200028, "dp")])
    def test_auto_switches_routes_past_the_word_cap(
        self, monkeypatch, gauss, lin_phi, cap, n_words, method
    ):
        # Named for the retired auto method, which enumerated up to 200000
        # words and took the DP past them.  Under lin:1 the words of depth 1
        # and 2 number cap + cap*(cap-1)/2; on both sides of that old switch
        # the default now runs the transfer program, and a forced method runs
        # its own route.
        assert sum(_level_counts(successor_table(lin_phi, cap), [cap] * 2)) == n_words
        routes = []

        def spy(route, inner):
            def run(*args):
                routes.append(route)
                return inner(*args)

            return run

        for name, route in (("_exact_depth_sums", "exact"), ("_transfer_depth_sums", "dp")):
            monkeypatch.setattr(dimension, name, spy(route, getattr(dimension, name)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            default = cover_sum(gauss, lin_phi, 2, 0.6, digit_cap=cap)
            forced = cover_sum(gauss, lin_phi, 2, 0.6, digit_cap=cap, method=method)
        assert routes == ["dp", method]
        if method == "dp":
            assert forced == default
        else:
            assert forced == pytest.approx(default, rel=1e-13)

    @given(
        st.sampled_from(["gauss", "linpow", "gapsys"]),
        st.sampled_from(["lin:1", "lin:3/2", "pow:1.5", "pow:2"]),
        st.integers(1, 60),
        st.integers(1, 4),
        st.floats(0.2, 1.0),
    )
    @example("gauss", "pow:2", 3, 4, 0.6)
    @example("gauss", "lin:1", 50, 2, 0.6)
    @settings(max_examples=40, deadline=None)
    def test_default_route_meets_enumeration(self, gap_system, name, spec, cap, depth, s):
        systems = {"gauss": make_gauss(), "linpow": make_linear_power(2.0)}
        system = systems.get(name, gap_system)
        phi = parse_phi(spec)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            default = cover_sum(system, phi, depth, s, digit_cap=cap)
            exact = cover_sum(system, phi, depth, s, digit_cap=cap, method="exact")
        # Where no word fits, both are 0 exactly.
        assert default == exact if exact == 0 else default == pytest.approx(exact, rel=1e-13)

    def test_binned_program_cap_guard(self, gauss, lin_phi):
        with pytest.raises(NumericFailure):
            cover_sum(gauss, lin_phi, 2, 0.6, digit_cap=30_000, method="dp")

    def test_integer_arguments(self, gauss, lin_phi):
        # numpy integers act as ints; a float or a string names its argument.
        for method, cap in (("dp", 10**4), ("exact", 30)):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                want = cover_sum(gauss, lin_phi, 2, 1.0, digit_cap=cap, method=method)
                got = cover_sum(
                    gauss, lin_phi, np.int64(2), 1.0, digit_cap=np.int64(cap), method=method
                )
            assert got == want
        for depth, cap, name in (
            (2.0, 100, "depth"),
            ("2", 100, "depth"),
            (2, 100.0, "digit_cap"),
            (2, 10.5, "digit_cap"),
        ):
            with pytest.raises(PreconditionError, match=f"^{name} must be an integer >= 1, got "):
                cover_sum(gauss, lin_phi, depth, 1.0, digit_cap=cap)

    def test_argument_validation(self, gauss, lin_phi):
        with pytest.raises(PreconditionError):
            cover_sum(gauss, lin_phi, 2, 0.0)
        with pytest.raises(PreconditionError):
            cover_sum(gauss, lin_phi, 2, 1.2)
        with pytest.raises(PreconditionError):
            cover_sum(gauss, lin_phi, 0, 0.5)
        with pytest.raises(PreconditionError):
            cover_sum(gauss, lin_phi, 2, 0.5, digit_cap=0)
        with pytest.raises(PreconditionError):
            cover_sum(gauss, lin_phi, 2, 0.5, method="guess")
        with pytest.raises(PreconditionError):
            cover_sum(gauss, lin_phi, 2, 0.5, method="auto")


def _check_against_exact(system, phi, depth, s, cap):
    """_transfer_depth_sums against exact enumeration at every depth: within
    1e-13 relative, and 0 exactly where no word fits."""
    nxt = successor_table(phi, cap)
    got = _transfer_depth_sums(system, nxt, depth, s)
    want = _exact_depth_sums(system, nxt, depth, s)
    assert len(got) == depth
    for a, b in zip(got, want):
        assert a == b if b == 0 else a == pytest.approx(b, rel=1e-13)
    return got


def _finer_grid_reference(nxt, depth, s, cap, m=20):
    """The Gauss transfer recursion of _transfer_depth_sums written plainly
    in long double on m Chebyshev-Lobatto nodes: every depth's total, for
    caps past the reach of exact enumeration."""
    ld = np.longdouble
    pi = np.arccos(ld(-1))
    theta = pi * np.arange(m, dtype=ld) / (m - 1)
    fit = np.cos(np.outer(np.arange(m, dtype=ld), pi - theta)) * (2 / ld(m - 1))
    fit[:, [0, -1]] /= 2
    fit[[0, -1]] /= 2
    x = np.arange(1, cap + 1, dtype=ld) + (np.sin(theta / 2) ** 2)[:, None]
    t = 2 / x - 1
    w = x ** ld(-2 * s)
    vals = np.zeros((m, cap + 1), dtype=ld)
    totals = []
    for k in range(depth):
        if k == 0:
            f = (x / (x + 1)) ** ld(s)
        else:
            c = (fit @ vals)[:, nxt[1:] - 1]
            b1, b2 = np.zeros_like(t), np.zeros_like(t)
            for row in c[:0:-1]:
                b1, b2 = 2 * t * b1 - b2 + row, b1
            f = t * b1 - b2 + c[0]
        vals[:, :cap] = np.cumsum((w * f)[:, ::-1], axis=1)[:, ::-1]
        totals.append(float(vals[0, 0]))
    return totals


class TestTransferProgram:
    def test_totals_past_the_rescale_match_the_symmetric_polynomials(self):
        # Under lin:1 at s = 1 an affine system's depth-n total is the n-th
        # elementary symmetric polynomial of its exact slopes.  At cap 100
        # it falls to about 1e-287 by depth 90, so the state is rescaled.
        system, cap, depth = make_linear_power(2.0), 100, 90
        got = _transfer_depth_sums(system, successor_table(parse_phi("lin:1"), cap), depth, 1.0)
        e = [Fraction(1)] + [Fraction(0)] * depth
        for j in range(1, cap + 1):
            slope = system.affine.slope(j)
            for n in range(depth, 0, -1):
                e[n] += slope * e[n - 1]
        assert min(got) < 1e-250
        assert got == pytest.approx([float(v) for v in e[1:]], rel=1e-13)

    # Dense restrictions at caps up to 3001 at depth 5, and up to the
    # program's bound at depth 4, where exact enumeration is out of reach.
    @pytest.mark.parametrize("spec", ["lin:1", "lin:3/2", "pow:1.5"])
    @pytest.mark.parametrize("cap", [50, 500, 1023, 1024, 1025, 2000, 3001, 5000, 20000])
    @pytest.mark.parametrize("s", [0.45, 0.6, 1.0])
    def test_large_caps_match_a_finer_grid(self, gauss, spec, cap, s):
        depth = 5 if cap <= 3001 else 4
        nxt = successor_table(parse_phi(spec), cap)
        got = _transfer_depth_sums(gauss, nxt, depth, s)
        want = _finer_grid_reference(nxt, depth, s, cap)
        assert got == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("spec", ["lin:1", "lin:3/2"])
    @pytest.mark.parametrize("s", [0.45, 0.6, 1.0])
    def test_tail_horner_meets_clenshaw(self, spec, s):
        # The depth-1 to depth-3 states of a cap-20000 program, each built by
        # Clenshaw at every digit.  At every tail digit and node, the Horner
        # value of its Taylor coefficients meets Clenshaw's recurrence run in
        # long double on the same state.  The float recurrence itself sits up
        # to 6 ulps from that value there, so it serves as no reference.
        cap, m, head = 20000, dimension._RATIO_NODES, dimension._TAIL_DIGIT
        nxt = successor_table(parse_phi(spec), cap)
        r, fit = dimension._chebyshev_grid(m)
        x = np.arange(1, cap + 1, dtype=float) + r[:, None]
        ratio = 1.0 / x
        t = 2.0 * ratio - 1.0
        col = nxt[1:] - 1
        tail = col[head:]
        assert (tail < cap).any()
        t_tail = 2 * ratio[:, head:].astype(np.longdouble) - 1
        vals = np.zeros((m, cap + 1))
        terms = x ** (-2 * s) * (1 + ratio) ** -s
        for _ in range(3):
            vals[:, :cap] = np.cumsum(terms[:, ::-1], axis=1)[:, ::-1]
            got = dimension._horner(
                (dimension._tail_fit(m) @ vals)[:, tail], ratio[:, head:], np.empty((m, cap - head))
            )
            g = (fit.astype(np.longdouble) @ vals)[:, tail]
            b1, b2 = np.zeros_like(t_tail), np.zeros_like(t_tail)
            for row in g[:0:-1]:
                b1, b2 = 2 * t_tail * b1 - b2 + row, b1
            want = (t_tail * b1 - b2 + g[0]).astype(float)
            assert (np.abs(got - want) <= 4 * np.spacing(np.maximum(abs(got), abs(want)))).all()
            bufs = [np.empty_like(t) for _ in range(3)]
            terms = dimension._clenshaw((fit @ vals)[:, col], t, 2 * t, bufs) * x ** (-2 * s)

    @pytest.mark.parametrize(
        "spec, cap, depth",
        [
            ("lin:1", 10, 5),
            ("lin:1", 40, 4),
            ("lin:3/2", 80, 4),
            ("pow:1.5", 50, 5),
            ("pow:1.5", 300, 5),
            ("pow:2", 100, 7),
            ("pow:2", 1100, 7),
        ],
    )
    @pytest.mark.parametrize("s", [0.2, 0.45, 0.6, 0.999999, 1.0])
    def test_gauss_matches_exact_enumeration(self, gauss, spec, cap, depth, s):
        _check_against_exact(gauss, parse_phi(spec), depth, s, cap)

    @pytest.mark.parametrize("name", ["linpow", "gapsys"])
    @pytest.mark.parametrize("spec", ["lin:1", "pow:2"])
    def test_affine_kinds_match_exact_enumeration(self, gap_system, name, spec):
        system = make_linear_power(2.0) if name == "linpow" else gap_system
        _check_against_exact(system, parse_phi(spec), 4, 0.6, 60)


class TestBinnedProgram:
    """State edge cases first written for the binned Gauss DP, kept under
    their names; each now runs _transfer_depth_sums, which replaced it."""

    @pytest.mark.parametrize("cap", [1, 2, 3])
    def test_no_admissible_words_leaves_an_empty_state(self, gauss, cap):
        # Under pow:2 no word of depth 3 fits below cap 4, so the state
        # runs empty and every later total is 0.
        got = _check_against_exact(gauss, parse_phi("pow:2"), 4, 0.6, cap)
        assert got[2:] == [0.0, 0.0]

    def test_state_with_a_tail_runs_empty(self, gauss):
        # The tail is the digits past 1024, once held apart by the binned DP.
        # Under pow:2 at cap 1100 the depth-5 words 1, 2, 5, 26, j reach
        # j >= 677, and no word of depth 6 fits.
        got = _check_against_exact(gauss, parse_phi("pow:2"), 7, 0.6, 1100)
        assert got[4] > 0
        assert got[5:] == [0.0, 0.0]

    def test_total_frees_the_state_without_the_cyclic_collector(self, gauss):
        # A DP state can be tens of MB; one held in a cycle until the
        # collector runs overlaps the next cover's state and raises the peak
        # memory.
        # Cap 20000 also runs the Taylor tail.
        gc.collect()
        gc.disable()
        try:
            for spec, depth, cap in [("pow:2", 7, 1100), ("lin:1", 4, 20000)]:
                _transfer_depth_sums(gauss, successor_table(parse_phi(spec), cap), depth, 0.6)
                assert gc.collect() == 0
        finally:
            gc.enable()


def _per_word_reference(system, phi, depth, s, cap):
    """Per-depth totals by walking every admissible word, each log length
    formed on the word alone from its _compose continuants or its exact
    slopes."""
    totals = []
    for n in range(1, depth + 1):
        logs = []
        for word in enumerate_restricted_words(phi, n, cap):
            if system.affine is None:
                _, _, q_prev, q = _compose(system, word)
                logs.append(s * -(math.log(q) + math.log(q + q_prev)))
            else:
                logs.append(s * math.fsum(math.log(system.affine.slope(a)) for a in word))
        if not logs:
            totals.append(0.0)
            continue
        arr = np.array(logs)
        peak = arr.max()
        totals.append(float(math.exp(peak) * np.exp(arr - peak).sum()))
    return totals


def _rational_totals(nxt, depth, cap):
    """Exact per-depth Gauss totals at s = 1, as Fractions: each word adds
    |cylinder| = 1/(q(q + q_prev)), its continuants grown digit by digit."""
    totals = [Fraction(0)] * depth

    def walk(n, last, q_prev, q):
        for j in range(int(nxt[last]), cap + 1):
            a, b = q, j * q + q_prev
            totals[n] += Fraction(1, b * (b + a))
            if n + 1 < depth:
                walk(n + 1, j, a, b)

    walk(0, 0, 0, 1)
    return totals


def _within_ulps(a, b, n):
    return abs(a - b) <= n * math.ulp(max(abs(a), abs(b)))


@st.composite
def restrictions(draw):
    kind = draw(st.sampled_from(["lin", "pow", "table"]))
    if kind == "lin":
        return parse_phi(draw(st.sampled_from(["lin:1", "lin:3/2", "lin:2", "lin:5/2"])))
    if kind == "pow":
        return parse_phi(draw(st.sampled_from(["pow:1.3", "pow:1.5", "pow:2"])))
    steps = draw(st.lists(st.integers(0, 4), min_size=60, max_size=60))
    return Phi("table", table=tuple(n + 1 + sum(steps[: n + 1]) for n in range(60)))


class TestExactLevels:
    @given(
        restrictions(),
        st.sampled_from(["gauss", "linpow"]),
        st.integers(1, 4),
        st.integers(1, 60),
        st.sampled_from([0.45, 0.6, 0.83, 1.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_per_word_reference(self, phi, kind, depth, cap, s):
        system = make_gauss() if kind == "gauss" else make_linear_power(2.0)
        nxt = successor_table(phi, cap)
        counts = list(_level_counts(nxt, [cap] * depth))
        assume(sum(counts) <= 30_000)
        got = _exact_depth_sums(system, nxt, depth, s)
        want = _per_word_reference(system, phi, depth, s, cap)
        assert all(_within_ulps(a, b, 4) for a, b in zip(got, want))
        # At s = 0 every word weighs 1, so the totals count each level.
        assert _exact_depth_sums(system, nxt, depth, 0.0) == counts

    @pytest.mark.parametrize("s", [0.6, 1.0])
    def test_past_the_int64_continuant_guard(self, gauss, s):
        # 17**16 >= 2**63, so the continuants are held as Python ints.
        cap = depth = 16
        assert (cap + 1) ** depth >= 2**63
        phi = parse_phi("lin:1")
        got = _exact_depth_sums(gauss, successor_table(phi, cap), depth, s)
        want = _per_word_reference(gauss, phi, depth, s, cap)
        assert all(_within_ulps(a, b, 4) for a, b in zip(got[:-1], want[:-1]))
        assert got[-1] == want[-1]
        if s == 1.0:
            # One word, 1..16, of length about e**-63: its float log carries
            # up to about an ulp of 63, which exp turns into a relative error.
            _, _, q_prev, q = _compose(gauss, range(1, depth + 1))
            frac = Fraction(1, q * (q + q_prev))
            assert abs(got[-1] - float(frac)) <= 2 * math.ulp(-math.log(frac)) * float(frac)

    @pytest.mark.parametrize(
        "spec, cap, depth",
        [
            ("lin:1", 1, 7),
            ("lin:1", 3, 7),
            ("lin:1", 10, 7),
            ("lin:1", 47, 3),
            ("lin:1", 150, 2),
            ("lin:3/2", 10, 7),
            ("lin:3/2", 30, 7),
            ("pow:1.5", 50, 7),
            ("pow:1.5", 100, 7),
            ("pow:1.5", 1100, 1),
            ("pow:2", 1, 7),
            ("pow:2", 3, 7),
            ("pow:2", 100, 7),
            ("pow:2", 300, 7),
            ("pow:2", 1100, 2),
        ],
    )
    def test_gauss_float_total_at_s_one_meets_the_rational(self, gauss, spec, cap, depth):
        # The exact route sums floats at every s; at s = 1 each Gauss total
        # has a rational value to meet.
        nxt = successor_table(parse_phi(spec), cap)
        got = _exact_depth_sums(gauss, nxt, depth, 1.0)
        for a, b in zip(got, _rational_totals(nxt, depth, cap)):
            assert a == b if b == 0 else a == pytest.approx(float(b), rel=1e-15)


def _blocked_totals(monkeypatch, block, system, phi, depth, s, cap):
    """_exact_depth_sums with blocks of at most `block` words."""
    monkeypatch.setattr("ifslab.restrictions._WALK_BLOCK", block)
    return _exact_depth_sums(system, successor_table(phi, cap), depth, s)


def _peak_bytes(fn):
    """Peak traced allocation while fn() runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestExactBlocks:
    """The exact route walks its words in blocks; a total over many blocks
    meets the same total taken as one block (a block past every level)."""

    @pytest.mark.parametrize("block", [3, 50])
    @pytest.mark.parametrize("spec, cap", [("lin:1", 20), ("pow:2", 300)])
    @pytest.mark.parametrize("name", ["gauss", "linpow", "gapsys"])
    def test_blocks_meet_one_block(self, monkeypatch, gap_system, name, spec, cap, block):
        systems = {"gauss": make_gauss(), "linpow": make_linear_power(2.0), "gapsys": gap_system}
        system, phi = systems[name], parse_phi(spec)
        depth = 4
        counts = list(_level_counts(successor_table(phi, cap), [cap] * depth))
        assert max(counts) > 10 * block
        for s in (0.6, 1.0):
            want = _blocked_totals(monkeypatch, 2**62, system, phi, depth, s, cap)
            got = _blocked_totals(monkeypatch, block, system, phi, depth, s, cap)
            for a, b, n in zip(got, want, counts):
                assert a == b if n == 0 else a == pytest.approx(b, rel=1e-15)

    def test_depth_one_wider_than_a_block(self, monkeypatch, gauss, lin_phi):
        # The empty word's cap children split over many blocks.
        cap = 2 * _WALK_BLOCK + 5
        one = _blocked_totals(monkeypatch, 2**62, gauss, lin_phi, 1, 1.0, cap)
        monkeypatch.undo()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = cover_sum(gauss, lin_phi, 1, 1.0, digit_cap=cap, method="exact")
        assert got == pytest.approx(one[0], rel=1e-15)
        # sum_{j <= cap} 1/(j(j + 1)) telescopes.
        assert got == pytest.approx(1.0 - 1.0 / (cap + 1), rel=1e-14)
        # A parent split across blocks one level down, too.
        want = _blocked_totals(monkeypatch, 2**62, gauss, lin_phi, 2, 0.6, 50)
        got = _blocked_totals(monkeypatch, 7, gauss, lin_phi, 2, 0.6, 50)
        assert got == pytest.approx(want, rel=1e-15)

    def test_deeper_empty_levels_sum_to_zero(self, monkeypatch, gauss):
        phi = parse_phi("pow:2")
        counts = list(_level_counts(successor_table(phi, 10), [10] * 6))
        assert counts[2] > 0 and counts[3:] == [0, 0, 0]
        want = _blocked_totals(monkeypatch, 2**62, gauss, phi, 6, 0.6, 10)
        got = _blocked_totals(monkeypatch, 2, gauss, phi, 6, 0.6, 10)
        assert got[3:] == want[3:] == [0.0, 0.0, 0.0]
        assert got[:3] == pytest.approx(want[:3], rel=1e-15)

    def test_exact_cover_memory_is_bounded(self, gauss, lin_phi):
        # 1.31M words of depth 3: held at once they took about 71 MiB.
        assert list(_level_counts(successor_table(lin_phi, 200), [200] * 3))[-1] == 1_313_400
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cover_sum(gauss, lin_phi, 2, 0.6, digit_cap=200, method="exact")
            peak = _peak_bytes(
                lambda: cover_sum(gauss, lin_phi, 3, 0.6, digit_cap=200, method="exact")
            )
        assert peak < 16 * 2**20


@pytest.fixture(scope="module")
def gap_system():
    return build_gap_system(parse_phi("pow:2"), 2.0, 0.1).system


class TestRateBand:
    @pytest.mark.parametrize("name", ["gauss", "linpow", "gapsys"])
    def test_matches_per_index_rates(self, name, gauss, gap_system):
        system = {"gauss": gauss, "linpow": make_linear_power(2.0), "gapsys": gap_system}[name]
        k, m = 3, 5000
        for bound, log_rate, rate in (
            ("xi", system.log_contract_lo, system.contract_lo),
            ("lambda", system.log_contract_hi, system.contract_hi),
        ):
            t = system.shift if bound == "xi" else 0
            band = _log_rates(system, k + t, m + t)
            want = np.array([log_rate(i) for i in range(k, m + 1)])
            assert band.shape == want.shape
            assert (np.abs(band - want) <= 2 * np.spacing(np.abs(want))).all()
            # exp of a log-rate is the rate up to the rounding of the log:
            # a relative error of about |log rate| + 1 machine epsilons.
            rates = np.array([rate(i) for i in range(k, m + 1)])
            slack = 2 * (np.abs(want) + 1) * np.finfo(float).eps * rates
            assert (np.abs(np.exp(band) - rates) <= slack).all()

    def test_roots_past_two_hundred_thousand(self, gap_system):
        # The gap kind has branches at every index, so a band reaching
        # m = 300000 has a root like any other.
        assert 0 < bowen_root(gap_system, "xi", 1, 300_000).value < 1
        lower, upper = subsystem_dim_bounds(gap_system, 1, 300_000)
        assert 0 < lower.value <= upper.value < 1

    def test_underflowing_rates_still_count(self):
        # 60**-200 underflows a float, yet at s near 0.008 the rates past
        # the float range add about 3% to the pressure sum.
        steep = DecaySystem(AffineMap(mpmath.mpf(1), 200.0))
        band = _log_rates(steep, 2, 60)
        assert np.isfinite(band).all() and np.exp(band[-1]) == 0.0
        est = bowen_root(steep, "lambda", 2, 60)
        # The root of sum_{i=2}^{60} i**(-200 s) = 1 by mpmath at 40 digits.
        assert abs(est.value - 0.0084146310770216) <= 1e-9


class TestBoxDim:
    def test_reciprocal_endpoints(self):
        pts = 1.0 / np.arange(1, 10**6 + 1)
        est = box_dim_estimate(pts, DYADIC)
        check_estimate(est)
        assert est.value == pytest.approx(0.5, abs=0.05)
        assert est.diagnostics["r_squared"] > 0.99

    def test_cantor_sample(self):
        pts = np.zeros(1)
        for _ in range(13):
            pts = np.concatenate([pts / 3.0, pts / 3.0 + 2.0 / 3.0])
        est = box_dim_estimate(pts, DYADIC)
        check_estimate(est)
        assert est.value == pytest.approx(math.log(2) / math.log(3), abs=0.03)

    def test_uniform_grid(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ScaleWarning)
            est = box_dim_estimate(
                np.arange(4096) / 4096.0, [2.0**-j for j in range(2, 11)]
            )
        check_estimate(est)
        assert est.value == pytest.approx(1.0, abs=0.02)

    def test_finite_set_saturates_to_zero(self):
        rng = np.random.default_rng(7)
        pts = np.sort(rng.random(100))
        gap = np.diff(pts).min()
        with pytest.warns(ScaleWarning):
            est = box_dim_estimate(pts, [gap / 2**j for j in range(1, 10)])
        check_estimate(est)
        assert est.value == 0.0
        assert est.bracket == (0.0, 0.0)
        diag = est.diagnostics
        assert diag["constant_counts"] is True
        assert (diag["raw_slope"], diag["stderr"], diag["r_squared"]) == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("k", range(2, 40))
    def test_equal_selected_counts_give_a_flat_line(self, k):
        # numpy's mean of k equal logs can miss them by an ulp; the flat
        # line must still read exactly 0.  n scales put k in the middle.
        n = next(n for n in range(2, 100) if max(2, round(0.6 * n)) == k)
        rng = np.random.default_rng(k)
        scales = np.sort(rng.uniform(1e-6, 0.9, n))[::-1]
        for m in (2, 3, 7, 10, 1000, 2999):
            # m points one apart fill m cells at every scale below 1.
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ScaleWarning)
                est = box_dim_estimate(np.arange(m, dtype=float), scales)
            diag = est.diagnostics
            assert diag["counts"] == [m] * n
            assert (diag["raw_slope"], diag["stderr"], diag["r_squared"]) == (0.0, 0.0, 0.0)
            assert est.value == 0.0 and est.bracket == (0.0, 0.0)

    @pytest.mark.parametrize("seed", range(6))
    def test_counts_match_a_unique_per_scale(self, seed):
        # Rounded draws repeat; both signs of zero fall in one cell.
        rng = np.random.default_rng(seed)
        pts = np.round(rng.normal(size=1500) * 10.0 ** rng.integers(-2, 3), 2)
        pts[rng.random(pts.size) < 0.1] = 0.0
        pts[rng.random(pts.size) < 0.1] = -0.0
        scales = np.sort(10.0 ** rng.uniform(-4, 1, 10))[::-1]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ScaleWarning)
            est = box_dim_estimate(pts, scales)
        want = [np.unique(np.floor(pts / d)).size for d in scales]
        assert est.diagnostics["counts"] == want

    @pytest.mark.parametrize("mult, extra", [(1, -1), (1, 0), (1, 1), (2, 1)])
    def test_counts_across_block_edges(self, mult, extra):
        # n = B - 1, B, B + 1 and 2B + 1 points, both signs, with a run of
        # equal points straddling the first block edge.
        B = dimension._BOX_BLOCK
        n = mult * B + extra
        rng = np.random.default_rng(n)
        srt = np.sort(np.round(rng.normal(size=n) * 4.0, 3))
        srt[B - 3 : B + 2] = srt[B - 3]
        pts = rng.permutation(srt)
        before = pts.copy()
        scales = np.array([8.0, 1.0, 0.1, 0.01, 1e-3, 1e-4])
        got = _box_counts(pts, scales)
        want = [np.unique(np.floor(pts / d)).size for d in scales]
        assert got.tolist() == want
        assert np.array_equal(pts, before)

    def test_box_count_memory_is_the_sorted_copy(self):
        # The cells of all points at once took about 31.6 MiB for 1e6 points.
        pts = np.random.default_rng(1).random(10**6)
        peak = _peak_bytes(lambda: box_dim_estimate(pts, DYADIC))
        assert peak < pts.nbytes + 4 * 2**20

    @pytest.mark.parametrize("pts", [[1e308, 1.5e308, 1.7e308], [-1.7e308, 0.0, 1.0]])
    def test_cell_index_overflow(self, pts):
        # At scale 0.5 some x / d overflows; the cells would merge into +-inf.
        with pytest.raises(PreconditionError, match="at scale 0.5$"):
            box_dim_estimate(pts, [1.0, 0.5, 0.25])

    def test_short_ladder_warns(self):
        pts = np.linspace(0, 1, 2000)
        with pytest.warns(ScaleWarning):
            box_dim_estimate(pts, [0.25, 0.125, 0.0625])

    def test_argument_validation(self):
        with pytest.raises(PreconditionError):
            box_dim_estimate([0.5], DYADIC)
        with pytest.raises(PreconditionError):
            box_dim_estimate(np.linspace(0, 1, 2000), [0.5])
        with pytest.raises(PreconditionError):
            box_dim_estimate(np.linspace(0, 1, 2000), [0.5, -0.25])
        with pytest.raises(PreconditionError):
            box_dim_estimate([0.1, float("nan")] * 600, DYADIC)


def _same(a, b):
    """Equal as floats, NaN equal to NaN."""
    return a == b or (math.isnan(a) and math.isnan(b))


class TestLinregress:
    """_linregress against scipy.stats.linregress, the reference routine."""

    @staticmethod
    def _check(x, y):
        from scipy import stats

        fit = stats.linregress(x, y)
        got = _linregress(x, y)
        want = (float(fit.slope), float(fit.stderr), float(fit.rvalue))
        assert all(map(_same, got, want)), (got, want)

    def test_seeded_random_inputs(self):
        rng = np.random.default_rng(20)
        for _ in range(2000):
            n = int(rng.integers(2, 20))
            x = rng.normal(size=n) * 10.0 ** rng.integers(-3, 4)
            y = rng.normal(size=n) + rng.normal() * x
            self._check(x, y)

    def test_constant_y(self):
        x = np.log(1.0 / np.array([2.0**-j for j in range(2, 12)]))
        for n in (2, 3, 5, 10):
            for c in (1.0, 6.0, 17.0, 1000.0):
                self._check(x[:n], np.full(n, math.log(c)))

    def test_two_points(self):
        self._check(np.array([0.5, 2.0]), np.array([1.0, 3.0]))
        self._check(np.array([0.5, 2.0]), np.array([3.0, 3.0]))
        assert _linregress(np.array([0.5, 2.0]), np.array([1.0, 3.0]))[1] == 0.0

    def test_near_exact_fit_clips_r(self):
        clipped = 0
        for n, a in ((3, 1 / 3), (4, 0.5), (11, 2.5), (4, -0.5), (8, -1 / 3)):
            x = np.arange(n, dtype=float) * 0.7 + 0.3
            y = a * x + 1.25
            ssxm, ssxym, _, ssym = np.cov(x, y, bias=1).flat
            clipped += abs(ssxym / np.sqrt(ssxm * ssym)) > 1.0
            assert abs(_linregress(x, y)[2]) <= 1.0
            self._check(x, y)
        assert clipped


class TestPredict:
    def test_linear_restriction(self):
        out = predict_dimensions(2.0, parse_phi("lin:3"), 0.5)
        assert out["hausdorff"] == pytest.approx(0.5)
        assert out["packing"] == pytest.approx(0.5)

    def test_quadratic_with_tiling(self):
        out = predict_dimensions(2.0, parse_phi("pow:2"), 0.5, gauss_like=True)
        assert out["hausdorff"] == pytest.approx(1.0 / 3.0)
        assert out["packing"] == pytest.approx(0.5)

    def test_quadratic_without_tiling_gives_bracket(self):
        out = predict_dimensions(2.0, parse_phi("pow:2"), 0.5)
        lo, hi = out["hausdorff"]
        assert lo == pytest.approx(1.0 / 3.0)
        assert hi == pytest.approx(0.5)
        assert "note" in out

    def test_exponent_one_limit(self):
        out = predict_dimensions(2.0, parse_phi("pow:1.000000001"), 0.0, gauss_like=True)
        assert out["hausdorff"] == pytest.approx(0.5, abs=1e-8)

    def test_packing_honors_endpoint_dimension(self):
        assert predict_dimensions(2.0, parse_phi("lin:1"), 0.9)["packing"] == 0.9
        assert predict_dimensions(2.0, parse_phi("lin:1"), 0.2)["packing"] == 0.5

    def test_packing_never_below_forced_floor(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            d = 1.0 + 3.0 * rng.random()
            alpha = 1.0 + 4.0 * rng.random()
            s0 = float(rng.random())
            out = predict_dimensions(d, parse_phi(f"pow:{alpha}"), s0, gauss_like=True)
            assert out["packing"] >= out["hausdorff"] - 1e-15
            assert out["packing"] >= 1.0 / d - 1e-15

    def test_table_restrictions_are_refused(self, tmp_path):
        # A table Phi is undefined past its last entry, whatever its growth:
        # linear, and the (n + 9)**2 table once predicted at 1/d.
        linear = tmp_path / "linear.txt"
        linear.write_text("\n".join(str(2 * n) for n in range(1, 30)))
        square = tmp_path / "square.txt"
        square.write_text("\n".join(str((n + 9) ** 2) for n in range(1, 41)))
        for table in (linear, square):
            for gauss_like in (False, True):
                with pytest.raises(PreconditionError, match="lin:<beta> or pow:<alpha>"):
                    predict_dimensions(2.0, parse_phi(f"table:{table}"), 0.4, gauss_like)

    def test_argument_validation(self):
        with pytest.raises(PreconditionError):
            predict_dimensions(1.0, parse_phi("lin:1"), 0.5)
        with pytest.raises(PreconditionError):
            predict_dimensions(2.0, parse_phi("lin:1"), 1.5)
        with pytest.raises(PreconditionError, match="finite decay"):
            predict_dimensions(math.inf, parse_phi("pow:2"), 0.5)
