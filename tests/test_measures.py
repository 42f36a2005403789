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
import itertools
import math
import os
import time
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifslab import dimension, measures, powersum
from ifslab.cli import run
from ifslab.dimension import bowen_root
from ifslab.families import AffineMap, build_gap_system, make_gauss, make_linear_power
from ifslab.measures import (
    FrostmanReport,
    PowerLawDigitMeasure,
    _tail_quantiles,
    build_frostman_measure,
    digit_transition,
    frostman_mass,
    local_dim_estimate,
    verify_frostman,
)
from ifslab.powersum import _EM_HEAD, first_index_reaching, power_sum_brackets
from ifslab.restrictions import parse_phi
from ifslab.systems import DecaySystem, NumericFailure, PreconditionError, _compose

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
        assert layered.ladder.windows == ((10, 19), (20, 34), (35, 57))
        assert len(layered.levels) == 3
        # Each window keeps at least two digits once its extremes are trimmed.
        assert all(hi - lo + 1 - 2 >= 2 for lo, hi in layered.ladder.windows)

    def test_levels_read_the_ladder_windows(self, gauss, phi_floors):
        measure = build_frostman_measure(gauss, parse_phi("pow:2"), 0.1, 4)
        # The ladder's own floors, one per value but the last, and no more.
        assert phi_floors == list(measure.ladder.values[:-1])
        assert len(measure.levels) == len(measure.ladder.windows) == 4

    def test_exponents_match_frozen(self, layered):
        for lev, expect in zip(layered.levels, LEVEL_EXPONENTS):
            assert lev.exponent == pytest.approx(expect, abs=1e-12)

    def test_exponents_sit_above_decay_floor(self, layered):
        floor = 1.0 / 2.0 - 0.1
        for lev in layered.levels:
            assert lev.exponent >= floor

    def test_level_masses_sum_to_one(self, layered):
        for lev, (lo, hi) in zip(layered.levels, layered.ladder.windows):
            log_rates = np.array([layered.system.log_contract_lo(i) for i in range(lo, hi + 1)])
            masses = np.exp(lev.exponent * log_rates)
            assert masses.sum() == pytest.approx(1.0, abs=1e-12)
            assert (masses > 0).all()
            assert lev.mass_defect <= 1e-11

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


# (system, phi, depth) for the level roots checked against mpmath; eps 0.1.
ROOT_CASES = {
    "gauss-lin1": ("gauss", "lin:1", 6),
    "gauss-pow1.5": ("gauss", "pow:1.5", 7),
    "gauss-pow2": ("gauss", "pow:2", 9),
    "linpow2-lin1": ("linpow:2", "lin:1", 4),
    "gapsys-lin1": ("gapsys", "lin:1", 3),
}


def _root_system(name):
    if name == "gauss":
        return make_gauss()
    if name == "linpow:2":
        return make_linear_power(2.0)
    return build_gap_system(parse_phi("pow:2"), 2.0, 0.1).system


class TestWindowExponent:
    """Each level exponent is the xi Bowen root of its window."""

    @pytest.mark.parametrize("case", ROOT_CASES.values(), ids=ROOT_CASES.keys())
    def test_level_exponents_match_mpmath_roots(self, case):
        name, phi, depth = case
        system = _root_system(name)
        measure = build_frostman_measure(system, parse_phi(phi), 0.1, depth)
        t = system.shift
        for n, (lev, (lo, hi)) in enumerate(zip(measure.levels, measure.ladder.windows), 1):
            # The two zeta values are about hi**(1 - d*s) / (d*s - 1) and
            # cancel down to 1, losing (1 - d*s) * bits(hi) bits: at most a
            # fifth of bits(hi) here (s >= 1/d - 0.1, d = 2), 360 at the
            # 1806-bit level-9 window of pow:2.
            with mpmath.workprec(hi.bit_length() // 2 + 64):
                d, c = mpmath.mpf(system.decay), mpmath.mpf(system.scale)

                def pressure(s):
                    return c**s * (mpmath.zeta(d * s, lo + t) - mpmath.zeta(d * s, hi + t + 1)) - 1

                root = float(mpmath.findroot(pressure, (lev.exponent - 1e-9, lev.exponent + 1e-9)))
            assert abs(lev.exponent - root) <= 1e-11, (n, lev.exponent, root)
            assert lev.mass_defect <= 1e-10

    def test_few_pressure_evaluations_per_level(self, gauss, monkeypatch):
        calls = Counter()
        inner = dimension._power_pressure

        def spy(system, start, stop, s):
            calls[start, stop] += 1
            return inner(system, start, stop, s)

        monkeypatch.setattr(dimension, "_power_pressure", spy)
        measure = build_frostman_measure(gauss, parse_phi("pow:2"), 0.1, 9)
        t = gauss.shift
        windows = [(lo + t, hi + t) for lo, hi in measure.ladder.windows]
        assert sorted(calls) == sorted(windows)
        assert max(calls.values()) <= 10, calls

    def test_synthetic_two_digit_window(self, gauss):
        assert bowen_root(gauss, "xi", 3, 4).value == pytest.approx(S_WINDOW_34, abs=1e-12)

    def test_needs_two_digits(self, gauss):
        with pytest.raises(PreconditionError, match="at least two"):
            bowen_root(gauss, "xi", 5, 5)

    def test_rejects_non_contracting_branch(self):
        # Rates 1, 1/2 and 1/3: the first never contracts.
        toy = DecaySystem(AffineMap(mpmath.mpf(1), 1.0))
        with pytest.raises(NumericFailure, match="ratio >= 1"):
            bowen_root(toy, "xi", 1, 3)


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
        lo, hi = layered.ladder.windows[1]
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

    def test_depth_zero_rejected(self, layered):
        # No depth-0 cylinder is checked, so a report would be a vacuous pass.
        with pytest.raises(PreconditionError, match="verify depth 0"):
            verify_frostman(layered, 0)

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

    def test_linear_power_exhaustive_depth_three_within_budget(self):
        # 61,180 words; each log length sums the logs of three exact
        # slopes, so no word's endpoints are composed.
        start = time.perf_counter()
        measure = build_frostman_measure(make_linear_power(2.0), parse_phi("pow:2"), 0.1, 3)
        report = verify_frostman(measure, 3)
        elapsed = time.perf_counter() - start
        assert (report.checked, report.sampled, report.fraction) == (61_180, False, 1.0)
        assert elapsed < 5.0, f"runtime budget exceeded: {elapsed:.1f}s >= 5s"

    def test_lengths_read_no_offset(self, layered_linpow):
        # A cylinder length is the product of its slopes; forming an offset
        # would cost a Hurwitz zeta per digit.
        affine = layered_linpow.system.affine

        def offset(i):
            raise AssertionError(f"offset({i}) was read")

        system = dataclasses.replace(
            layered_linpow.system, affine=SimpleNamespace(**{**vars(affine), "offset": offset})
        )
        blind = dataclasses.replace(layered_linpow, system=system)
        assert verify_frostman(blind, 3) == verify_frostman(layered_linpow, 3)


def _log_length(system, word, bound):
    """A word's log cylinder length by the level kernel's formula, formed on
    the word alone: -(log q + log(q + q_prev)) from its _compose continuants
    (numpy's log of the rounded ints while 2 * bound < 2**63, math.log of
    the exact ints past it), or the logs of its exact slopes added with the
    rounding error carried alongside."""
    if system.affine is None:
        _, _, q_prev, q = _compose(system, word)
        if 2 * bound < 2**63:
            return -(np.log(float(q)) + np.log(float(q + q_prev)))
        return -(math.log(q) + math.log(q + q_prev))
    total = err = 0.0
    for a in word:
        term = math.log(system.affine.slope(a))
        new = total + term
        back = new - total
        err += (total - (new - back)) + (term - back)
        total = new
    return total + err


def _per_word_reference(measure, depth, sample_cap=100_000, seed=0):
    """verify_frostman as a per-word loop: scalar draws or itertools.product,
    frostman_mass and the kernel's log-length formula on each word."""
    q = 1.0 / measure.system.decay - measure.eps
    windows = measure.ladder.windows[:depth]
    total = 1
    bound = 1
    for lo, hi in windows:
        total *= hi - lo + 1
        bound *= hi + 1
    sampled = total > sample_cap
    if sampled:
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed))))
        words = (
            tuple(int(rng.integers(lo, hi + 1)) for lo, hi in windows)
            for _ in range(sample_cap)
        )
    else:
        words = itertools.product(*(range(lo, hi + 1) for lo, hi in windows))
    checked = passed = 0
    worst = -math.inf
    witness = None
    for word in words:
        log_mass = frostman_mass(measure, word, log=True)
        margin = log_mass - q * _log_length(measure.system, word, bound)
        checked += 1
        if margin <= 0.0:
            passed += 1
        elif witness is None:
            witness = tuple(word)
        if margin > worst:
            worst = margin
    return FrostmanReport(
        depth=depth,
        checked=checked,
        passed=passed,
        sampled=sampled,
        worst_ratio=math.exp(worst),
        witness=witness,
    )


def _with_windows(measure, windows):
    """The measure with its first levels moved onto the given windows."""
    forged = tuple(windows) + measure.ladder.windows[len(windows):]
    return dataclasses.replace(measure, ladder=dataclasses.replace(measure.ladder, windows=forged))


def _deflated(measure, n, by):
    levels = list(measure.levels)
    levels[n] = dataclasses.replace(levels[n], exponent=levels[n].exponent - by)
    return dataclasses.replace(measure, levels=tuple(levels))


@pytest.fixture(scope="module")
def layered_pow15(gauss):
    # Level-5 windows near 2**30: the continuants leave int64.
    return build_frostman_measure(gauss, parse_phi("pow:1.5"), 0.1, 5)


@pytest.fixture(scope="module")
def layered_linpow():
    return build_frostman_measure(make_linear_power(2.0), parse_phi("lin:1"), 0.1, 3)


@pytest.fixture(scope="module")
def layered_gap():
    gs = build_gap_system(parse_phi("pow:2"), 2.0, 0.1)
    return build_frostman_measure(gs.system, parse_phi("lin:1"), 0.1, 2)


class TestVerifyFrostmanMatchesPerWordLoop:
    """The block verifier gives the same report as the per-word loop, ``==``."""

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_exhaustive_gauss(self, layered, depth):
        assert verify_frostman(layered, depth) == _per_word_reference(layered, depth)

    @pytest.mark.parametrize("seed", [0, 3, 5, 99])
    def test_sampled_gauss(self, layered, seed):
        got = verify_frostman(layered, 3, sample_cap=3000, seed=seed)
        assert got.sampled
        assert got == _per_word_reference(layered, 3, sample_cap=3000, seed=seed)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_sampled_object_continuants(self, layered_pow15, seed):
        got = verify_frostman(layered_pow15, 5, sample_cap=2000, seed=seed)
        assert got == _per_word_reference(layered_pow15, 5, sample_cap=2000, seed=seed)

    @pytest.mark.parametrize("cap", [100_000, 300])
    def test_linear_power_both_routes(self, layered_linpow, cap):
        got = verify_frostman(layered_linpow, 3, sample_cap=cap, seed=4)
        assert got.sampled == (cap == 300)
        assert got == _per_word_reference(layered_linpow, 3, sample_cap=cap, seed=4)

    @pytest.mark.parametrize("cap", [100_000, 50])
    def test_gap_kind_both_routes(self, layered_gap, cap):
        got = verify_frostman(layered_gap, 2, sample_cap=cap, seed=2)
        assert got == _per_word_reference(layered_gap, 2, sample_cap=cap, seed=2)

    @pytest.mark.parametrize("cap", [100_000, 1000])
    def test_tampered_exponent_witness(self, layered, cap):
        # Deflating s2 by 0.05 fails 46 of the 3450 words; the first failing
        # word is word 1012 in lexicographic order.
        tampered = _deflated(layered, 1, 0.05)
        got = verify_frostman(tampered, 3, sample_cap=cap, seed=8)
        assert got.witness is not None and got.passed < got.checked
        assert got == _per_word_reference(tampered, 3, sample_cap=cap, seed=8)

    @pytest.mark.parametrize("rows", [1, 7, 1012, 1013])
    @pytest.mark.parametrize("cap", [100_000, 2000])
    def test_block_boundaries(self, layered, monkeypatch, rows, cap):
        tampered = _deflated(layered, 1, 0.05)
        want = _per_word_reference(tampered, 3, sample_cap=cap, seed=6)
        monkeypatch.setattr(measures, "_VERIFY_ROWS", rows)
        assert verify_frostman(tampered, 3, sample_cap=cap, seed=6) == want

    @pytest.mark.parametrize("word", [(15, 24, 35, 86), (17, 20, 49, 67), (18, 20, 53, 85)])
    def test_lengths_take_the_scalar_log(self, gauss, word):
        # Words on which numpy 2.4's vectorized log (x86-64) of the rounded
        # cylinder length differs from math.log by an ulp (32 of 1M random
        # depth-4 words).  The block log lengths no longer call either log on
        # the rounded length; they must equal the kernel's per-word formula on
        # the word's own continuants, bit for bit.
        deep = build_frostman_measure(gauss, parse_phi("lin:1"), 0.1, 4)
        one = _with_windows(deep, [(a, a) for a in word])
        assert verify_frostman(one, 4) == _per_word_reference(one, 4)

    def test_last_int64_window_is_drawn(self, layered):
        top = 2**63 - 1
        edge = _with_windows(layered, [(10, 19), (top - 9, top)])
        got = verify_frostman(edge, 2, sample_cap=50, seed=1)
        assert got.sampled
        assert got == _per_word_reference(edge, 2, sample_cap=50, seed=1)

    def test_windows_past_int64_enumerate_as_python_ints(self, layered):
        big = _with_windows(layered, [(2**64, 2**64 + 3), (2**70, 2**70 + 4)])
        got = verify_frostman(big, 2)
        assert got.checked == 20 and not got.sampled
        assert got == _per_word_reference(big, 2)

    def test_sampled_window_past_int64_is_a_numeric_failure(self, layered):
        big = _with_windows(layered, [(10, 19), (2**63 - 9, 2**63)])
        with pytest.raises(NumericFailure, match=r"level 2 window \(9223372036854775799\.\."):
            verify_frostman(big, 2, sample_cap=5)


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

    @pytest.mark.parametrize("alpha", [1e8, 3e15])
    def test_tail_excess_keeps_its_digits(self, alpha):
        # p - 1.0 keeps only about 1/alpha of p's bits (at 3e15 it reads
        # 2.2e-16 against 3.3e-16); (d - 1) * s meets the exact value.
        m = PowerLawDigitMeasure(decay=2.0, alpha=alpha)
        want = 1 / (1 + Fraction(alpha))
        assert abs(Fraction(m._tail_excess) - want) <= Fraction(math.ulp(float(want)))
        assert abs(Fraction(m.tail_exponent - 1.0) - want) > 1e6 * Fraction(math.ulp(float(want)))

    def test_constructor_preconditions(self):
        with pytest.raises(PreconditionError):
            PowerLawDigitMeasure(decay=1.0, alpha=2.0)
        with pytest.raises(PreconditionError):
            PowerLawDigitMeasure(decay=2.0, alpha=1.0)
        with pytest.raises(PreconditionError):
            PowerLawDigitMeasure(decay=2.0, alpha=2.0, first_digit=0)

    @pytest.mark.parametrize("alpha", [1e17, 1e200, 1e308, math.inf])
    def test_huge_alpha_rounding_the_exponents_away_rejected(self, alpha):
        with pytest.raises(PreconditionError, match="not a positive normal float"):
            PowerLawDigitMeasure(decay=2.0, alpha=alpha)

    def test_largest_valid_alphas_keep_positive_exponents(self):
        for alpha in (1e10, 1e15, 1e16):
            m = PowerLawDigitMeasure(decay=2.0, alpha=alpha)
            assert m.base_exponent > 0.0 and m.tail_exponent > 1.0

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


# The batched crossing's cumulative table spans this many terms past a start.
TABLE_SPAN = 4 * _EM_HEAD


class TestSampling:
    def test_quantile_matches_certified_scan_past_table_range(self, quad_measure):
        # These u put the crossing past the batch's table, from the chain's
        # starts and from 2e6, past the chain's cap.
        cases = [(2_000_000, u) for u in (0.3, 0.77, 0.999)]
        cases += [(start, u) for start in (5, 1000, 999_999) for u in (0.999, 0.99999, 1 - 1e-9)]
        for start, u in cases:
            got = _tail_quantiles(quad_measure, start, [u] * 16)[0]
            target = u * quad_measure._tail_norm(start)[0]
            ref = first_index_reaching(start, quad_measure.tail_exponent, target).index
            assert got == ref, (start, u)
            assert got - start >= TABLE_SPAN, (start, u)

    def test_quantile_edges_and_monotonicity(self, quad_measure):
        assert _tail_quantiles(quad_measure, 4, [0.0]) == [4]
        qs = _tail_quantiles(quad_measure, 4, [0.1, 0.5, 0.9, 0.9999])
        assert all(a <= b for a, b in zip(qs, qs[1:]))

    @pytest.mark.parametrize(
        "system, alpha", [("gauss", 1.5), ("gauss", 2.0), ("gauss", 3.0), ("linpow", 2.0)]
    )
    def test_localdim_draws_only_at_exact_starts(
        self, gauss, forced_blocks, monkeypatch, system, alpha
    ):
        # The chain draws exact digits only up to the cap where it switches
        # to the continuous tail, the cap the table's start test reads.
        sys_ = gauss if system == "gauss" else make_linear_power(2.0)
        forced_blocks(1)
        starts = []
        quantiles = measures._tail_quantiles

        def spy(measure, level_starts, us):
            starts.extend(np.atleast_1d(level_starts).tolist())
            return quantiles(measure, level_starts, us)

        monkeypatch.setattr(measures, "_tail_quantiles", spy)
        local_dim_estimate(sys_, alpha, 500, 30, seed=0)
        assert starts and max(starts) <= measures._CHAIN_EXACT_CAP

    def test_empirical_second_digit_frequencies(self, quad_measure):
        # Second digits after the first digit 2: draws from the window start 4.
        n = 20_000
        us = np.random.default_rng(7).random(n)
        counts = Counter(_tail_quantiles(quad_measure, quad_measure.support_start(2), us))
        for j in range(4, 11):
            p = digit_transition(quad_measure, 2, j)
            se = math.sqrt(p * (1.0 - p) / n)
            assert abs(counts[j] / n - p) <= 3.0 * se


def _table(measure, start):
    """The cumulative table of the batched crossing at start."""
    j = np.arange(start, start + TABLE_SPAN, dtype=float)
    return np.cumsum(j ** -measure.tail_exponent)


def _counting_search(monkeypatch):
    """Route the crossing searches the batch leaves over through a counter."""
    calls = []
    search = powersum.first_index_reaching

    def counted(start, p, target):
        calls.append(target)
        return search(start, p, target)

    monkeypatch.setattr(powersum, "first_index_reaching", counted)
    return calls


class TestTailQuantiles:
    """Table answers are certified: the route never changes a digit."""

    @pytest.mark.parametrize("start", [4, 1000, 999_999])
    def test_targets_on_table_entries_get_the_certified_digit(self, start, monkeypatch):
        m = PowerLawDigitMeasure(decay=2.0, alpha=2.0)
        # A lower tail norm of 4 makes u * 4 reproduce each target exactly.
        m._norms[start] = (4.0, 4.0, 4.0)
        tab = _table(m, start)
        targets = []
        for k in (0, 1, 2, 100, TABLE_SPAN - 2, TABLE_SPAN - 1):
            t = float(tab[k])
            targets += [math.nextafter(t, 0.0), t, math.nextafter(t, math.inf)]
        us = [t / 4.0 for t in targets]
        assert [u * 4.0 for u in us] == targets
        calls = _counting_search(monkeypatch)
        got = _tail_quantiles(m, start, us)
        # Every target lies within the rounding bound of an entry.
        assert calls == targets
        ref = [first_index_reaching(start, m.tail_exponent, t).index for t in targets]
        assert got == ref
        assert [_tail_quantiles(m, start, [u])[0] for u in us] == ref

    def test_targets_clear_of_entries_are_answered_by_the_table(self, quad_measure, monkeypatch):
        start = 4
        tab = _table(quad_measure, start)
        lo = quad_measure._tail_norm(start)[0]
        ks = [1, 2, 3, 50, 128, 200, TABLE_SPAN - 1] * 3
        us = [0.5 * (tab[k - 1] + tab[k]) / lo for k in ks]
        calls = _counting_search(monkeypatch)
        assert _tail_quantiles(quad_measure, start, us) == [start + k for k in ks]
        assert calls == []

    @settings(max_examples=60, deadline=None)
    @given(
        start=st.integers(2, 10**6),
        us=st.lists(st.floats(0.0, 1.0 - 1e-9), min_size=2, max_size=24),
    )
    def test_batch_size_does_not_change_a_digit(self, quad_measure, start, us):
        batched = _tail_quantiles(quad_measure, start, us)
        assert batched == [_tail_quantiles(quad_measure, start, [u])[0] for u in us]


class TestLocalDim:
    def test_quadratic_growth_slope(self, gauss):
        est = local_dim_estimate(gauss, 2.0, samples=2000, depth=30, seed=0)
        assert est.method == "local-dim"
        assert 0.28 <= est.value <= 0.38
        assert est.bracket[0] <= est.value <= est.bracket[1]
        assert abs(est.diagnostics["delta_ratio_mean"] - 1.0 / 3.0) <= 0.05

    def test_three_halves_growth_slope(self, gauss):
        est = local_dim_estimate(gauss, 1.5, samples=2000, depth=30, seed=0)
        assert 0.35 <= est.value <= 0.45
        assert abs(est.diagnostics["delta_ratio_mean"] - 0.4) <= 0.05

    def test_first_digit_invariance(self, gauss):
        vals = []
        for k in (2, 5):
            est = local_dim_estimate(gauss, 2.0, samples=2000, depth=30, seed=3, first_digit=k)
            vals.append(est.value)
        assert abs(vals[0] - vals[1]) <= 0.02

    def test_linear_power_system_accepted(self):
        lp = make_linear_power(2.0)
        est = local_dim_estimate(lp, 2.0, samples=500, depth=20, seed=1)
        assert 0.28 <= est.value <= 0.38

    def test_preconditions(self, gauss):
        with pytest.raises(PreconditionError, match="samples must be an integer >= 100"):
            local_dim_estimate(gauss, 2.0, samples=99, depth=30)
        with pytest.raises(PreconditionError, match="depth"):
            local_dim_estimate(gauss, 2.0, samples=500, depth=4)
        gap = build_gap_system(parse_phi("pow:2"), 2.0, 0.1).system
        with pytest.raises(PreconditionError, match="gauss or linear-power"):
            local_dim_estimate(gap, 2.0, samples=500, depth=30)

    def test_sample_levels_past_the_budget_are_refused_before_allocation(
        self, gauss, monkeypatch
    ):
        monkeypatch.setattr(measures, "_CHAIN_CELLS_MAX", 1000)
        assert local_dim_estimate(gauss, 2.0, 100, 10).diagnostics["samples"] == 100
        monkeypatch.setattr(measures, "_spawn_uniforms", None)
        with pytest.raises(NumericFailure, match="^100 samples x depth 11 exceed the budget of 1000"):
            local_dim_estimate(gauss, 2.0, 100, 11)

    def test_deterministic_estimate_and_stream(self, gauss):
        b1, b2 = io.StringIO(), io.StringIO()
        e1 = local_dim_estimate(
            gauss, 2.0, samples=150, depth=8, seed=42, csv_stream=b1
        )
        e2 = local_dim_estimate(
            gauss, 2.0, samples=150, depth=8, seed=42, csv_stream=b2
        )
        assert e1 == e2
        assert b1.getvalue() == b2.getvalue()

    def test_a_sample_chain_does_not_depend_on_the_sample_count(self, gauss):
        # Sample k draws from the seed's k-th spawned child whatever the count.
        streams = []
        for samples in (100, 160):
            buf = io.StringIO()
            local_dim_estimate(gauss, 2.0, samples, 10, seed=6, csv_stream=buf)
            streams.append(buf.getvalue().splitlines())
        assert streams[1][: len(streams[0])] == streams[0]

    def test_stream_schema(self, gauss):
        buf = io.StringIO()
        local_dim_estimate(
            gauss, 2.0, samples=120, depth=8, seed=5, csv_stream=buf
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
            gauss, 2.0, samples=150, depth=6, seed=9, csv_stream=buf
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


def _ref_rate_logs(system, exact, i, li):
    if exact:
        return system.log_contract_lo(i), system.log_contract_hi(i)
    corr = math.log1p(system.shift * math.exp(-li)) if li < 40.0 else 0.0
    log_scale = math.log(system.scale)
    return log_scale - system.decay * (li + corr), log_scale - system.decay * li


def _ref_window_logs(system, exact, start, lstart):
    if system.affine is None:
        return -lstart, -lstart
    d = system.decay
    log_scale = math.log(system.scale)
    if exact and start <= measures._CHAIN_EXACT_CAP:
        b_lo, b_hi = power_sum_brackets(start, None, d)
        return log_scale + math.log(b_lo), log_scale + math.log(b_hi)
    corr = (d - 1.0) * 0.5 * math.exp(-lstart) if lstart < 40.0 else 0.0
    val = log_scale + (1.0 - d) * lstart - math.log(d - 1.0) + math.log1p(corr)
    return val, val


def _ref_excess(measure):
    """p - 1 as (d - 1) * s, which keeps its digits at any alpha."""
    return (measure.decay - 1.0) * measure.base_exponent


def _ref_log_tail_norm(measure, lstart):
    p = measure.tail_exponent
    corr = _ref_excess(measure) * 0.5 * math.exp(-lstart) if lstart < 40.0 else 0.0
    return (1.0 - p) * lstart - math.log(_ref_excess(measure)) + math.log1p(corr)


def _per_sample_reference(measure, system, samples, depth, seed=0, csv_stream=None):
    """local_dim_estimate as one scalar loop per sample and level: scalar
    draws from each sample's Philox child and scalar chain geometry."""
    p = measure.tail_exponent
    alpha = measure.alpha
    log_chain_cap = math.log(measures._CHAIN_EXACT_CAP)
    children = np.random.SeedSequence(int(seed)).spawn(samples)
    if csv_stream is not None:
        csv_stream.write("sample_id,n,digit,log10_digit,log_r_lo,log_r_hi,log_mass\n")
    slopes_mid = []
    slopes_lo = []
    slopes_hi = []
    delta_ratios = []
    truncated = 0
    switch_levels = []
    for k in range(samples):
        rng = np.random.Generator(np.random.Philox(children[k]))
        exact = True
        i = measure.first_digit
        li = math.log(i)
        cum_lo = cum_hi = 0.0
        log_mass = 0.0
        xs_lo = np.empty(depth)
        xs_hi = np.empty(depth)
        ys = np.empty(depth)
        n_kept = 0
        switched_at = None
        for n in range(1, depth + 1):
            if not math.isfinite(li) or li > measures._LOG_DIGIT_TRUNC:
                truncated += 1
                break
            small = exact and alpha * li <= log_chain_cap
            if small:
                start = measure.support_start(i)
                lstart = math.log(start)
            else:
                start = None
                lstart = alpha * li
            r_lo, r_hi = _ref_rate_logs(system, exact, i, li)
            cum_lo += r_lo
            cum_hi += r_hi
            w_lo, w_hi = _ref_window_logs(system, small, start, lstart)
            xs_lo[n - 1] = w_lo + cum_lo
            xs_hi[n - 1] = w_hi + cum_hi
            ys[n - 1] = log_mass
            n_kept = n
            if csv_stream is not None:
                digit_text = str(i) if exact else ""
                csv_stream.write(
                    f"{k},{n},{digit_text},{li / math.log(10.0)!r},"
                    f"{float(xs_lo[n - 1])!r},{float(xs_hi[n - 1])!r},{log_mass!r}\n"
                )
            if n == depth:
                break
            u = rng.random()
            if small and start <= measures._CHAIN_EXACT_CAP:
                j = _tail_quantiles(measure, start, [u])[0]
                s_mid = measure._tail_norm(start)[2]
                log_mass += -p * math.log(j) - math.log(s_mid)
                i = j
                li = math.log(j)
            else:
                if exact:
                    switched_at = n
                    exact = False
                lj = lstart - math.log1p(-u) / _ref_excess(measure)
                log_mass += -p * lj - _ref_log_tail_norm(measure, lstart)
                li = lj
        if n_kept < 3:
            continue
        x_lo = xs_lo[:n_kept]
        x_hi = xs_hi[:n_kept]
        y = ys[:n_kept]
        x_mid = 0.5 * (x_lo + x_hi)
        for xs, dest in ((x_mid, slopes_mid), (x_lo, slopes_lo), (x_hi, slopes_hi)):
            dx = xs - xs.mean()
            dest.append(float(np.dot(dx, y - y.mean()) / np.dot(dx, dx)))
        if x_mid[-1] != 0.0:
            delta_ratios.append(float(y[-1] / x_mid[-1]))
        if switched_at is not None:
            switch_levels.append(switched_at)
    if not slopes_mid:
        raise NumericFailure("every sampled chain truncated before 3 levels")
    mid = np.asarray(slopes_mid)
    return {
        "estimate": float(mid.mean()),
        "kept": len(mid),
        "truncated": truncated,
        "mean_switch_level": float(np.mean(switch_levels)) if switch_levels else None,
        "delta_ratio_mean": float(np.mean(delta_ratios)) if delta_ratios else None,
    }


def _assert_streams_match(got: str, ref: str) -> None:
    """Same rows and digit columns; every float within 4 ulps."""
    got_rows = [line.split(",") for line in got.splitlines()]
    ref_rows = [line.split(",") for line in ref.splitlines()]
    assert got_rows[0] == ref_rows[0]
    assert [r[:3] for r in got_rows] == [r[:3] for r in ref_rows]
    for g, r in zip(got_rows[1:], ref_rows[1:]):
        for a, b in zip(map(float, g[3:]), map(float, r[3:])):
            assert abs(a - b) <= 4 * math.ulp(max(abs(a), abs(b))), (g, r)


class TestLocalDimMatchesPerSampleLoop:
    """The level-major estimator against the per-sample loop it replaced."""

    def _both(self, system, alpha, samples, depth, seed):
        m = PowerLawDigitMeasure(decay=system.decay, alpha=alpha)
        got_csv, ref_csv = io.StringIO(), io.StringIO()
        est = local_dim_estimate(system, alpha, samples, depth, seed=seed, csv_stream=got_csv)
        ref = _per_sample_reference(m, system, samples, depth, seed=seed, csv_stream=ref_csv)
        _assert_streams_match(got_csv.getvalue(), ref_csv.getvalue())
        assert est.value == ref["estimate"]
        for key in ("kept", "truncated", "mean_switch_level"):
            assert est.diagnostics[key] == ref[key], key
        assert est.diagnostics["delta_ratio_mean"] == pytest.approx(
            ref["delta_ratio_mean"], rel=1e-12
        )
        return est

    @pytest.mark.parametrize(
        "system, alpha, depth, seed",
        [
            ("gauss", 2.0, 30, 0),
            ("gauss", 2.0, 30, 17),
            ("gauss", 1.5, 30, 3),
            ("gauss", 1.5, 30, 11),
            ("linpow", 2.0, 20, 1),
            ("linpow", 2.0, 30, 8),
            # d = 3: the estimator's law takes its decay from the system.
            ("linpow:3", 1.5, 30, 5),
        ],
    )
    def test_same_digits_and_estimate(self, gauss, system, alpha, depth, seed):
        decay = {"gauss": None, "linpow": 2.0, "linpow:3": 3.0}[system]
        sys_ = gauss if decay is None else make_linear_power(decay)
        self._both(sys_, alpha, 120, depth, seed)

    def test_huge_alpha_truncates_alike(self, gauss):
        est = self._both(gauss, 1e12, 100, 30, 2)
        assert est.diagnostics["truncated"] == 100

    def test_chains_cut_before_three_levels_are_dropped_alike(self, gauss, monkeypatch):
        # A low truncation bar cuts most chains at level 1 or 2.
        monkeypatch.setattr(measures, "_LOG_DIGIT_TRUNC", 4.0)
        est = self._both(gauss, 2.0, 200, 8, 4)
        assert 0 < est.diagnostics["kept"] < 200

    def test_every_chain_cut_before_three_levels_fails_alike(self, gauss, monkeypatch):
        monkeypatch.setattr(measures, "_LOG_DIGIT_TRUNC", 2.0)
        with pytest.raises(NumericFailure, match="truncated before 3 levels"):
            local_dim_estimate(gauss, 2.0, 100, 8, seed=0)
        with pytest.raises(NumericFailure, match="truncated before 3 levels"):
            _per_sample_reference(PowerLawDigitMeasure(2.0, 2.0), gauss, 100, 8, seed=0)


def _run_with_stream(system, alpha, samples, depth, seed):
    buf = io.StringIO()
    est = local_dim_estimate(system, alpha, samples, depth, seed=seed, csv_stream=buf)
    return est, buf.getvalue()


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


@needs_fork
class TestLocalDimBlocks:
    """Split runs against the one-block run: the same report and stream
    bytes, and no child process left behind."""

    @pytest.mark.parametrize(
        "system, alpha, samples, depth, seed",
        [
            # 503 is prime, so no block count above 1 divides it.
            ("gauss", 2.0, 503, 30, 0),
            ("gauss", 1.5, 250, 30, 3),
            ("linpow", 2.0, 211, 20, 1),
        ],
    )
    def test_block_counts_give_the_same_report_and_stream(
        self, gauss, forced_blocks, system, alpha, samples, depth, seed
    ):
        sys_ = gauss if system == "gauss" else make_linear_power(2.0)
        forced_blocks(1)
        want = _run_with_stream(sys_, alpha, samples, depth, seed)
        assert forced_blocks.forked == []
        for blocks in (2, 3, 7):
            forced_blocks(blocks)
            assert _run_with_stream(sys_, alpha, samples, depth, seed) == want, blocks
            bounds = [samples * b // blocks for b in range(blocks + 1)]
            assert forced_blocks.forked == list(zip(bounds[1:-1], bounds[2:]))
        _assert_no_child_left()

    def test_chains_cut_in_some_blocks_only(self, gauss, forced_blocks, monkeypatch):
        # At this bar seed 4 cuts five chains before depth 8: samples 58, 64
        # and 73 in the third of seven blocks and 152 and 173 in the sixth.
        monkeypatch.setattr(measures, "_LOG_DIGIT_TRUNC", 1000.0)
        forced_blocks(1)
        want = _run_with_stream(gauss, 2.0, 203, 8, 4)
        rows = Counter(line.split(",")[0] for line in want[1].splitlines()[1:])
        assert sorted(int(k) for k, n in rows.items() if n < 8) == [58, 64, 73, 152, 173]
        for blocks in (2, 3, 7):
            forced_blocks(blocks)
            assert _run_with_stream(gauss, 2.0, 203, 8, 4) == want, blocks
        assert want[0].diagnostics["truncated"] == 5

    def test_every_chain_cut_fails_alike_when_split(self, gauss, forced_blocks, monkeypatch):
        monkeypatch.setattr(measures, "_LOG_DIGIT_TRUNC", 2.0)
        forced_blocks(3)
        with pytest.raises(NumericFailure, match="truncated before 3 levels"):
            _run_with_stream(gauss, 2.0, 300, 8, 0)
        assert len(forced_blocks.forked) == 2
        _assert_no_child_left()

    def test_split_route_matches_the_per_sample_loop(self, gauss, forced_blocks):
        forced_blocks(3)
        TestLocalDimMatchesPerSampleLoop()._both(gauss, 2.0, 301, 30, 5)
        assert len(forced_blocks.forked) == 2

    def test_a_failing_worker_block_raises_the_serial_error(
        self, gauss, forced_blocks, monkeypatch
    ):
        # Sample 250 breaks, so the last of three blocks fails in its child
        # and the serial rerun raises the same error in process.
        calls = []
        chain_block = measures._chain_block

        def breaks_at_250(measure, system, root, depth, lo, hi, stream):
            calls.append((lo, hi))
            if lo <= 250 < hi:
                raise NumericFailure(f"sample 250 of {lo}..{hi}")
            return chain_block(measure, system, root, depth, lo, hi, stream)

        monkeypatch.setattr(measures, "_chain_block", breaks_at_250)
        forced_blocks(1)
        with pytest.raises(NumericFailure) as serial:
            _run_with_stream(gauss, 2.0, 300, 8, 0)
        forced_blocks(3)
        calls.clear()
        with pytest.raises(NumericFailure) as split:
            _run_with_stream(gauss, 2.0, 300, 8, 0)
        assert str(split.value) == str(serial.value) == "sample 250 of 0..300"
        # The children's calls run in their own processes.
        assert calls == [(0, 100), (0, 300)]
        assert forced_blocks.forked == [(100, 200), (200, 300)]
        _assert_no_child_left()

    def test_a_dead_child_reruns_serially(self, gauss, forced_blocks, monkeypatch):
        chain_block = measures._chain_block

        def dies_in_children(measure, system, root, depth, lo, hi, stream):
            if lo > 0:
                os._exit(7)
            return chain_block(measure, system, root, depth, lo, hi, stream)

        forced_blocks(1)
        want = _run_with_stream(gauss, 2.0, 300, 8, 2)
        monkeypatch.setattr(measures, "_chain_block", dies_in_children)
        forced_blocks(3)
        assert _run_with_stream(gauss, 2.0, 300, 8, 2) == want
        assert len(forced_blocks.forked) == 2
        _assert_no_child_left()

    def test_an_interrupt_reaps_running_children(self, gauss, forced_blocks, monkeypatch):
        chain_block = measures._chain_block

        def interrupted_in_process(measure, system, root, depth, lo, hi, stream):
            if lo == 0:
                raise KeyboardInterrupt
            time.sleep(60)
            return chain_block(measure, system, root, depth, lo, hi, stream)

        monkeypatch.setattr(measures, "_chain_block", interrupted_in_process)
        forced_blocks(3)
        t0 = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            _run_with_stream(gauss, 2.0, 300, 8, 0)
        assert time.perf_counter() - t0 < 30
        assert len(forced_blocks.forked) == 2
        _assert_no_child_left()


class TestSeeds:
    @pytest.mark.parametrize("seed", [-1, 1.5, "3", None])
    def test_bad_seeds_are_precondition_errors(self, gauss, layered, seed):
        with pytest.raises(PreconditionError, match="seed must be an integer >= 0"):
            verify_frostman(layered, 3, sample_cap=50, seed=seed)
        # Depth 1 has 10 words, under the cap, so they are enumerated.
        with pytest.raises(PreconditionError, match="seed must be an integer >= 0"):
            verify_frostman(layered, 1, sample_cap=50, seed=seed)
        with pytest.raises(PreconditionError, match="seed must be an integer >= 0"):
            local_dim_estimate(gauss, 2.0, 200, 8, seed=seed)

    def test_a_bad_seed_is_refused_before_any_chain_runs(self, gauss, forced_blocks, monkeypatch):
        forced_blocks(2)
        monkeypatch.setattr(measures, "_chain_block", None)
        with pytest.raises(PreconditionError, match="seed"):
            local_dim_estimate(gauss, 2.0, 200, 8, seed=-1)
        assert forced_blocks.forked == []

    def test_numpy_integer_seeds_act_as_ints(self, gauss, layered):
        assert verify_frostman(layered, 3, sample_cap=50, seed=np.uint32(5)) == (
            verify_frostman(layered, 3, sample_cap=50, seed=5)
        )
        assert local_dim_estimate(gauss, 2.0, 100, 8, seed=np.int64(3)) == (
            local_dim_estimate(gauss, 2.0, 100, 8, seed=3)
        )


class TestIntegerArguments:
    """Every integer argument of ``measures`` reads a numpy integer as its
    int and refuses a float with a message naming the argument (seeds in
    TestSeeds)."""

    @pytest.fixture
    def calls(self, gauss, quad_measure, layered):
        lin1 = parse_phi("lin:1")
        return {
            "depth": lambda v: build_frostman_measure(gauss, lin1, 0.1, v),
            "verify depth": lambda v: verify_frostman(layered, v),
            "sample_cap": lambda v: verify_frostman(layered, 3, sample_cap=v),
            "first_digit": lambda v: local_dim_estimate(gauss, 2.0, 100, 8, first_digit=v),
            "digit i (support_start)": quad_measure.support_start,
            "digit i (normalizer)": quad_measure.normalizer,
            "digit i (digit_transition)": lambda v: digit_transition(quad_measure, v, 150),
            "digit j": lambda v: digit_transition(quad_measure, 2, v),
            "samples": lambda v: local_dim_estimate(gauss, 2.0, v, 8),
            "localdim depth": lambda v: local_dim_estimate(gauss, 2.0, 100, v),
        }

    @pytest.mark.parametrize(
        "arg, value",
        [
            ("depth", 2),
            ("verify depth", 2),
            ("sample_cap", 50),
            ("first_digit", 3),
            ("digit i (support_start)", 10),
            ("digit i (normalizer)", 10),
            ("digit i (digit_transition)", 10),
            ("digit j", 7),
            ("samples", 100),
            ("localdim depth", 8),
        ],
    )
    def test_numpy_integers_act_as_ints_and_floats_are_refused(self, calls, arg, value):
        call = calls[arg]
        assert call(np.int64(value)) == call(value)
        name = arg.removeprefix("localdim ").split(" (")[0]
        for bad in (2.0, "2"):
            with pytest.raises(PreconditionError, match=f"^{name} must be an integer >= "):
                call(bad)

    def test_first_digit_is_stored_as_an_int(self):
        assert type(PowerLawDigitMeasure(2.0, 2.0, np.int64(3)).first_digit) is int


class TestSpawnUniforms:
    """One numpy pass over a block's Philox streams against numpy's own objects."""

    @pytest.mark.parametrize("seed", [0, 2**32 + 5, 2**130 + 17])
    @pytest.mark.parametrize("lo", [0, 250, 2**31])
    @pytest.mark.parametrize("n", [1, 4, 5, 29, 59])
    def test_bit_for_bit_numpy(self, seed, lo, n):
        root = np.random.SeedSequence(seed)
        want = np.array([
            np.random.Generator(np.random.Philox(np.random.SeedSequence(
                seed, spawn_key=(lo + k,), pool_size=root.pool_size
            ))).random(n)
            for k in range(7)
        ])
        got = measures._spawn_uniforms(root, lo, lo + 7, n)
        assert got.shape == (7, n)
        assert got.tobytes() == want.tobytes()

    def test_the_children_are_the_spawned_ones(self):
        root = np.random.SeedSequence(12345)
        want = [np.random.Generator(np.random.Philox(c)).random(9) for c in root.spawn(3)]
        assert measures._spawn_uniforms(root, 0, 3, 9).tobytes() == np.array(want).tobytes()

    def test_a_run_past_one_spawn_word_exits_2_before_allocating(self, monkeypatch, tmp_path):
        monkeypatch.setattr(measures, "_in_blocks", None)
        out = tmp_path / "big.json"
        argv = ["localdim", "--system", "gauss", "--alpha", "2", "--samples", str(2**32)]
        assert run([*argv, "--out", str(out)]) == 2
        assert not out.exists()
