"""Oracle and property tests for the certified power-sum core.

Frozen expected values were computed independently and hard-coded here:
infinite tails with mpmath zeta at high precision, long finite ranges as
Hurwitz zeta differences zeta(p, a) - zeta(p, b + 1) cross-checked by
pairwise summation in 80-bit extended precision, and the p = 1 row from
the harmonic-number closed form ln(n) + gamma + 1/2n - 1/12n^2.
"""

import contextlib
import math
import os
import pathlib
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ifslab import powersum, restrictions
from ifslab.families import make_gauss, make_linear_power
from ifslab.powersum import first_index_reaching, first_indices_reaching, power_sum_brackets
from ifslab.restrictions import build_ladder, parse_phi
from ifslab.systems import NumericFailure

# (start, stop, p, expected) with expected from high-precision evaluation.
FROZEN = [
    (1, None, 2.0, 1.6449340668482264365),
    (1, None, 1.5, 2.6123753486854883433),
    (5, None, 1.5, 0.94137186836233932631),
    (7, None, 2.75, 0.021494253061657961469),
    (3, 10**7, 0.45, 12868.727430985313445),
    (10, 10**12, 0.8, 1248.0990501639716881),
    (2, 10**9, 1.0, 20.300481502347942),
]


@pytest.mark.parametrize("start, stop, p, expected", FROZEN)
def test_frozen_values_inside_brackets(start, stop, p, expected):
    lo, hi = power_sum_brackets(start, stop, p)
    assert lo <= expected <= hi
    assert hi - lo <= 1e-10 * abs(expected)


def test_brackets_contain_exact_sum_random_ranges():
    rng = random.Random(20240817)
    for _ in range(120):
        a = rng.randrange(1, 5000)
        span = rng.choice([0, 1, 7, 300, 4000, 30000])
        b = a + span
        p = rng.uniform(0.05, 4.0)
        exact = math.fsum(i ** -p for i in range(a, b + 1))
        lo, hi = power_sum_brackets(a, b, p)
        assert lo <= exact <= hi, (a, b, p)


def test_em_route_matches_direct_on_long_range():
    # Long enough that power_sum_brackets takes the Euler-Maclaurin path.
    a, b, p = 2, 600_000, 0.7
    exact = math.fsum(i ** -p for i in range(a, b + 1))
    lo, hi = power_sum_brackets(a, b, p)
    assert lo <= exact <= hi
    assert (hi - lo) / exact < 1e-12


def test_empty_and_singleton_ranges():
    assert power_sum_brackets(5, 4, 1.3) == (0.0, 0.0)
    lo, hi = power_sum_brackets(9, 9, 2.0)
    assert lo <= 9.0 ** -2 <= hi


def test_invalid_arguments():
    with pytest.raises(ValueError):
        power_sum_brackets(0, 10, 1.0)
    with pytest.raises(ValueError):
        power_sum_brackets(1, 10, 0.0)
    with pytest.raises(ValueError):
        power_sum_brackets(3, None, 0.9)


def test_first_index_matches_naive_scan():
    # Divergent exponents, where every target is reachable, then convergent
    # ones with targets at most half the tail.  Crossings stay close to the
    # start; p > 1.1 keeps half the tail inside the naive scan.
    rng = random.Random(7)
    for k in range(120):
        start = rng.randrange(1, 50)
        if k < 60:
            p = rng.uniform(0.2, 1.0)
            target = rng.uniform(0.01, 3.0)
        else:
            p = rng.uniform(1.1, 2.0)
            target = rng.uniform(0.01, 0.5) * power_sum_brackets(start, None, p)[0]
        res = first_index_reaching(start, p, target)
        s = 0.0
        idx = None
        for i in range(start, start + 2_000_000):
            s += i ** -p
            if s >= target:
                idx = i
                break
        assert idx is not None
        assert res.index == idx
        assert res.certified


@pytest.mark.parametrize("offset", [None, -5000, -1, 0, 1, 7, 5000])
def test_first_index_independent_of_guess(monkeypatch, offset):
    # The seed only steers the gallops: a seed far below or above the
    # crossing (or none at all, which starts from the last key) must give
    # the same certified index.
    for case in [(3, 0.7, 25.0), (40, 1.0, 6.0), (7, 1.5, 0.3), (10**6, 0.45, 30.0)]:
        want = first_index_reaching(*case)
        assert want.certified
        start = case[0]
        guess = None if offset is None else max(start, want.index + offset)
        # log y of the guess, with guess = start - 1 + y * (start - 1/2).
        log_y = None if guess is None else math.log((guess - start + 1) / (start - 0.5))
        monkeypatch.setattr(powersum, "_seed", lambda *args: log_y)
        assert first_index_reaching(*case) == want, case
        monkeypatch.undo()


def test_first_index_convergent_exponent():
    # p > 1 with a target safely below the finite total.
    start, p = 3, 1.6
    total = sum(i ** -p for i in range(3, 200_000))
    target = 0.5 * total
    res = first_index_reaching(start, p, target)
    s = 0.0
    for i in range(start, 200_000):
        s += i ** -p
        if s >= target:
            assert res.index == i
            break
    assert res.certified


def test_first_index_beyond_direct_walk():
    # Crossing far past 200_000 terms, on the Euler-Maclaurin brackets.
    start, p, target = 1000, 0.999, 40.0
    res = first_index_reaching(start, p, target)
    assert res.index - start > 200_000
    lo_at, _ = power_sum_brackets(start, res.index, p)
    assert lo_at >= target
    if res.certified:
        _, hi_before = power_sum_brackets(start, res.index - 1, p)
        assert hi_before < target


def test_first_index_at_huge_start():
    # Start around 10**50.  Individual terms (~1e-23) are far below the
    # bracket width (~1e-16 of the sum), so exact minimality cannot be
    # certified in floats; the result must still surely reach the target
    # and report its slack honestly.
    start = 10**50
    p = 0.45
    res = first_index_reaching(start, p, 1.0)
    assert res.index > start
    lo_at, _ = power_sum_brackets(start, res.index, p)
    assert lo_at >= 1.0
    if res.certified:
        assert res.slack == 0
    else:
        assert 0 < res.slack < res.index * 1e-12


@pytest.mark.parametrize(
    "start, p, target",
    [
        (10**50, 0.45, 1.0),  # bracket-noise band: both edge bisections
        (1000, 0.999, 40.0),  # crossing past 200_000 terms
        (5, 1.2, 2.0),  # p > 1: the infinite-total check
        (97020547247076024, 0.8, 1.0),  # a pow:2 ladder step
    ],
)
def test_one_search_sums_the_head_once(monkeypatch, start, p, target):
    want = first_index_reaching(start, p, target)
    heads = []
    direct = powersum._direct

    def counting(a, b, q):
        if b - a + 1 == powersum._EM_HEAD:
            heads.append(a)
        return direct(a, b, q)

    monkeypatch.setattr(powersum, "_direct", counting)
    # Head sums are shared across searches at one start; start afresh.
    powersum._head_sum.cache_clear()
    assert first_index_reaching(start, p, target) == want
    assert heads.count(start) == 1


def test_search_rejects_non_positive_exponent():
    for p in (0.0, -1.0):
        with pytest.raises(ValueError, match="positive"):
            first_index_reaching(3, p, 1.0)


@pytest.mark.parametrize("bits", [10, 100, 1000, 3000, 5200, 6000])
@pytest.mark.parametrize("p", [0.45, 0.8, 1.0, 1.6])
def test_brackets_at_big_indices_never_nan(bits, p):
    # Past the float range (p < 1, from 2k-bit indices at p = 0.45) the
    # bracket is the finite lower end _BIG and the upper end inf; it never
    # raises and is never NaN.
    start = 2**bits
    lo, hi = power_sum_brackets(start, 2 * start, p)
    assert math.isfinite(lo) and lo <= hi
    if hi == math.inf:
        assert p < 1.0 and lo == powersum._BIG
        assert (1.0 - p) * bits * math.log(2.0) > 700.0
    else:
        assert math.isfinite(hi)


def test_infinite_tail_just_above_p_one_stays_finite():
    # The log-integral form for p within 1e-15 of 1 serves finite ranges
    # only; the infinite tail keeps a**(1-p) / (p - 1), about 2**51 here.
    lo, hi = power_sum_brackets(10, None, 1 + 2.0**-51)
    assert lo <= hi
    assert math.isclose(lo, 2.0**51, rel_tol=1e-12)
    assert math.isclose(hi, 2.0**51, rel_tol=1e-12)


def test_unreachable_target_raises(monkeypatch):
    # The infinite sum's upper end decides it once, ahead of the seed's probe.
    def no_probe(self, key):
        raise AssertionError(f"probed key {key}")

    monkeypatch.setattr(powersum._Keys, "bracket", no_probe)
    for start, p, target in [(2, 3.0, 10.0), (5, 4 / 3, 4.0), (2**80, 1.5, 1e-10)]:
        with pytest.raises(ValueError, match="exceeds the infinite sum"):
            first_index_reaching(start, p, target)


@pytest.mark.parametrize("gap", [1e-14, 1e-13])
def test_goal_in_noise_of_infinite_sum_gives_up(gap):
    # The goal sits within bracket noise of the infinite total, so no finite
    # bracket ever certifies reaching it.  The search must give up with a
    # NumericFailure instead of galloping forever; a child process with a
    # timeout turns a hang into a failure.
    code = (
        "from ifslab.powersum import first_index_reaching, power_sum_brackets\n"
        "from ifslab.systems import NumericFailure\n"
        f"goal = (1 - {gap!r}) * power_sum_brackets(5, None, 4 / 3)[0]\n"
        "try:\n"
        "    first_index_reaching(5, 4 / 3, goal)\n"
        "except NumericFailure:\n"
        "    print('NumericFailure')\n"
    )
    src = str(pathlib.Path(powersum.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=5
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "NumericFailure"


def test_goal_near_infinite_sum_still_reached():
    # 1e-12 below the total the lower bracket end still gets there; the
    # give-up rule must not cut this search short.
    goal = (1 - 1e-12) * power_sum_brackets(5, None, 4 / 3)[0]
    res = first_index_reaching(5, 4 / 3, goal)
    assert power_sum_brackets(5, res.index, 4 / 3)[0] >= goal


@pytest.mark.parametrize("p, goal", [(1.0, 1e7), (1.0 + 1e-9, 5e8)])
def test_crossing_past_the_bit_budget_raises(p, goal):
    # The harmonic sum from 5 reaches 1e7 near 2**(1.4e7); the search must
    # refuse before scaling ratios by that much, not allocate it.
    with pytest.raises(NumericFailure, match="budget"):
        first_index_reaching(5, p, goal)


def test_zero_target_is_start():
    res = first_index_reaching(17, 0.5, 0.0)
    assert res.index == 17 and res.certified


# ---------------------------------------------------------------------------
# Relative-form brackets against mpmath, and the search against full bisection


def _hurwitz_sum(p, a, b):
    """sum_{i=a}^{b} i**-p in mpmath, as zeta(p, a) - zeta(p, b + 1).

    The working precision is the cancellation of that difference, about
    log2(a / (b - a)) + log2(1 / |p - 1|) bits, plus 260 guard bits; at
    most 4096 terms are summed one by one instead, exactly to 200 bits.
    """
    n = b - a + 1
    if n <= 4096:
        with mpmath.workprec(200):
            return mpmath.fsum(mpmath.mpf(i) ** -p for i in range(a, b + 1))
    cancel = max(a.bit_length() - n.bit_length(), 0) + math.ceil(-math.log2(abs(p - 1.0)))
    with mpmath.workprec(cancel + 260):
        return mpmath.zeta(p, a) - mpmath.zeta(p, b + 1)


def _range(bits, kind, low):
    """A start of the given bit length and a stop: kind 0 a short range,
    1 a range far shorter than its start, 2 one far longer."""
    a = (1 << (bits - 1)) | low % (1 << (bits - 1))
    if kind == 0:
        return a, a + low % 4000
    if kind == 1:
        return a, a + (a >> (1 + low % min(bits - 1, 1300)))
    return a, a << (1 + low % 60)


@settings(max_examples=40, deadline=None)
@given(
    bits=st.integers(40, 6000),
    kind=st.integers(0, 2),
    low=st.integers(0, 2**64),
    p=st.one_of(st.floats(0.2, 0.98), st.floats(1.02, 3.0)),
)
def test_brackets_hold_the_hurwitz_sum(bits, kind, low, p):
    # Starts 2**40..2**6000; ranges short, far shorter than the start (the
    # regime where log b - log a used to lose the sum) and far longer.
    a, b = _range(bits, kind, low)
    lo, hi = power_sum_brackets(a, b, p)
    assert not math.isnan(lo) and not math.isnan(hi)
    assert lo <= hi
    true = _hurwitz_sum(p, a, b)
    assert lo <= true
    assert hi == math.inf or true <= hi


def test_short_relative_range_at_ladder_step_five():
    # (b - a) / a is about 4e-4 here: two rounded logs lost the sum, whose
    # true value 0.99999999998879747... (Hurwitz zeta at 80 digits) fell
    # below the old bracket (1.0000000000065543, 1.0000000000084168).
    a, b = 311418841**2 + 2, 97020547247076024
    lo, hi = power_sum_brackets(a, b, 0.8)
    true = _hurwitz_sum(0.8, a, b)
    assert lo <= true <= hi
    assert hi < 1.0


@pytest.mark.parametrize("bits, p", [(3000, 0.8), (6000, 0.8), (6000, 0.95), (7224, 0.8)])
def test_unit_sums_past_the_float_range_of_the_ratio(bits, p):
    # b - a about a**p, so the sum is near 1 while (b - a) / a is 2**-600 to
    # 2**-1445: past 1022 bits the ratio is scaled by 2**k.
    a = (1 << (bits - 1)) + 12345
    b = a + (1 << round(p * (bits - 1))) + 6789
    lo, hi = power_sum_brackets(a, b, p)
    true = _hurwitz_sum(p, a, b)
    assert lo <= true <= hi
    assert 0.1 < true < 10.0
    assert hi - lo < 1e-9


@pytest.mark.parametrize("p", [0.8, 1.5])
@pytest.mark.parametrize("log2_ratio", [-1500, -1100, -990, -961, 961, 990, 1100, 1500])
def test_brackets_take_the_stops_own_ratio_scaling(log2_ratio, p):
    # A tiny stop - start against a huge start, and a stop far past its
    # start.  Past the normal floats the unscaled ratio falls back to the
    # stop's own k; out to 2**+-999 both ratios give the same log1p.  (From
    # 2**+-1000 to the end of the normal range the unscaled ratio's logs
    # round apart by an ulp or so; both brackets hold the sum.)
    if log2_ratio < 0:
        start = (1 << (40 - log2_ratio)) + 12345
        stop = start + (start >> -log2_ratio) + 6789
    else:
        start = (1 << 40) + 12345
        stop = start << log2_ratio
    a = start + powersum._EM_HEAD
    k = powersum._ratio_shift((stop - a).bit_length() - a.bit_length(), a)
    assert k != 0
    assert power_sum_brackets(start, stop, p) == powersum._Brackets(start, p, k)(stop)


def _smallest_stop(b, r, delta=0):
    """The smallest stop of b whose scaled ratio is at least r, by scanning
    up from delta, one stop at a time."""
    while powersum._scaled_ratio(delta, b.a, b.k) < r:
        delta += 1
    return b.a + delta


def test_first_stop_is_the_smallest_stop_reaching_its_ratio():
    # Small starts, every scaling k in -2..2, and ratios on a grid with
    # their float neighbours, against a scan from the first stop.
    ratios = [j / 8 for j in range(1, 25)]
    ratios += [math.nextafter(r, side) for r in ratios for side in (0.0, math.inf)]
    for start in range(1, 13):
        for k in range(-2, 3):
            b = powersum._Brackets(start, 1.5, k)
            for r in ratios:
                assert b.first_stop(r) == _smallest_stop(b, r), (start, k, r)


@pytest.mark.parametrize("j", [7, 12, 40, 53, 60])
def test_first_stop_steps_up_once_off_a_tie(j):
    # At a = 2**j and k = 0 the midpoint of r and its predecessor is
    # delta / a for an integer delta.  For r with an odd significand that
    # tie rounds to even, below r, so the answer is one stop past it.
    b = powersum._Brackets(2**j - powersum._EM_HEAD, 1.5, 0)
    assert b.a == 2**j and b.k == 0
    ties = 0
    for r in (1.0 + 2.0**-52, 3.0 + 2.0**-51, 2.0**52 + 1.0, 2.0**60 + 2**8, 12345.0 + 2.0**-39):
        assert int(r / math.ulp(r)) % 2 == 1
        mid = (Fraction(r) + Fraction(math.nextafter(r, 0.0))) / 2
        if (mid * b.a).denominator != 1:
            continue
        ties += 1
        tie = int(mid * b.a)
        assert powersum._scaled_ratio(tie, b.a, 0) < r
        assert b.first_stop(r) == b.a + tie + 1 == _smallest_stop(b, r, tie - 1)
    assert ties


def _bisection_reach(start, p, goal):
    """The search's answer by full bisection over the same bracket function:
    the first stop whose lower end reaches the goal, and the first whose
    upper end does, each by doubling the term count and bisecting."""
    brackets = powersum._search_brackets(start, p, goal)[0]

    def first(end):
        lo, hi = start - 1, start
        while brackets(hi)[end] < goal:
            lo, hi = hi, 2 * hi - start + 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if brackets(mid)[end] >= goal:
                hi = mid
            else:
                lo = mid
        return hi

    band_hi, band_lo = first(0), first(1)
    return powersum.ReachResult(band_hi, band_hi - band_lo)


@contextlib.contextmanager
def _counted_brackets():
    """Record every bracket crossing searches evaluate: their probes, and the
    total and noise checks of p > 1."""
    calls = []
    probe, call, single = powersum._Keys.bracket, powersum._Brackets.__call__, power_sum_brackets

    def counted_probe(self, key):
        calls.append(key)
        return probe(self, key)

    def counted_call(self, stop):
        if stop is None:
            calls.append(None)
        return call(self, stop)

    def counted_single(*args):
        calls.append(args)
        return single(*args)

    powersum._Keys.bracket = counted_probe
    powersum._Brackets.__call__ = counted_call
    powersum.power_sum_brackets = counted_single
    try:
        yield calls
    finally:
        powersum._Keys.bracket = probe
        powersum._Brackets.__call__ = call
        powersum.power_sum_brackets = single


@settings(max_examples=30, deadline=None)
@given(
    bits=st.integers(1, 6000),
    low=st.integers(0, 2**64),
    p=st.one_of(st.floats(0.2, 1.0), st.floats(1.05, 2.5)),
    u=st.floats(0.01, 0.9),
)
def test_search_matches_full_bisection_in_bounded_calls(bits, low, p, u):
    # p <= 1: goals like a ladder step's; p > 1: a share of the infinite sum.
    start = (1 << (bits - 1)) | low % (1 << max(bits - 1, 1))
    goal = 20.0 * u if p <= 1.0 else u * power_sum_brackets(start, None, p)[0]
    assume(goal > 0.0)
    with _counted_brackets() as calls:
        got = first_index_reaching(start, p, goal)
    # Below about 1e-280 the brackets' absolute slack of a few 1e-300 is
    # most of the goal, and an edge can lie anywhere down to the first
    # long range; the call bound holds where the bracket resolves the goal.
    if goal >= 1e-280:
        assert len(calls) <= 128
    assert got == _bisection_reach(start, p, goal)


def test_goal_within_the_absolute_slack_finishes():
    # The goal, 1e-2 of a 1e-298 infinite sum, is below the brackets' slack
    # of 2e-300, so the upper end reaches it at the first long range, 2**77
    # keys below the crossing.  Upward-capped gallop steps once walked
    # down there 2**52 keys at a time.
    start = (1 << 1099) | 1970
    goal = 0.01 * power_sum_brackets(start, None, 1.9)[0]
    with _counted_brackets() as calls:
        got = first_index_reaching(start, 1.9, goal)
    assert len(calls) <= 256
    assert got == _bisection_reach(start, 1.9, goal)


# The seed, then per edge the Newton steps, at most 64 gallop doublings
# plus one upward step per binade of the ratio (fewer than 2**11), and a
# bisection over at most 2**64 keys.
_CALL_BOUND = 1 + 2 * (powersum._NEWTON_STEPS + 64 + 2**11 + 64)


@pytest.mark.parametrize(
    "start, p, goal, fails",
    [
        (41300, 1.001, 989.4276773838441, False),
        (9406208602868621597, 1.001, 957.2526668916267, False),
        (1448549, 2.0772806770049734, 2.14100170346552e-07, True),
    ],
)
def test_goals_just_under_the_infinite_sum_keep_the_call_bound(start, p, goal, fails):
    # Each goal lies just under the infinite sum, so an upward gallop among
    # ratio floats climbs one binade per call: past 128 calls, inside the
    # stated bound.  The last climbs to the largest float and fails there.
    with _counted_brackets() as calls:
        if fails:
            with pytest.raises(NumericFailure, match="no float ratio"):
                first_index_reaching(start, p, goal)
        else:
            assert not first_index_reaching(start, p, goal).certified
    probes = [c for c in calls if type(c) is int]
    assert _CALL_BOUND == 4369
    assert 128 < len(probes) <= _CALL_BOUND


@pytest.mark.parametrize("system", [make_gauss(), make_linear_power(2.0)], ids=["gauss", "linpow2"])
def test_pow2_ladder_searches_take_bounded_calls(monkeypatch, system):
    # Twenty steps, up to indices near 2**1.8e6; the per-bit bisection made
    # one call per index bit (3612 at the 3612-bit step).
    per_search = []
    search = restrictions.first_index_reaching

    def counted(*args):
        with _counted_brackets() as calls:
            res = search(*args)
        per_search.append(len(calls))
        return res

    monkeypatch.setattr(restrictions, "first_index_reaching", counted)
    ladder = build_ladder(system, parse_phi("pow:2"), 0.1, 20)
    assert len(per_search) == 19
    assert max(per_search) <= 128
    assert ladder.values[-1].bit_length() > 750_000


# ---------------------------------------------------------------------------
# The batched crossing


@settings(max_examples=40, deadline=None)
@given(
    p=st.floats(1.0, 3.0, exclude_min=True),
    rows=st.lists(
        st.tuples(st.integers(1, 10**6), st.floats(0.0, 52.0), st.floats(0.0, 1.0)),
        min_size=1,
        max_size=4,
    ),
)
def test_array_pass_certifies_only_true_minimal_indices(p, rows):
    # Each goal lies a fraction of a term below S(start, stop), stops up to
    # 2**52 terms past the start.
    starts, goals = [], []
    for start, log2_span, frac in rows:
        stop = start + int(2.0**log2_span) - 1
        starts.append(start)
        goals.append(float(_hurwitz_sum(p, start, stop) - frac * mpmath.mpf(stop) ** -p))
    index, certified = powersum._array_crossings(np.array(starts), p, np.array(goals))
    rows = zip(np.array(starts)[certified].tolist(), np.array(goals)[certified].tolist())
    for (start, goal), stop in zip(rows, index[certified].tolist()):
        # The minimal stop >= start whose sum reaches the goal.
        assert stop == start or _hurwitz_sum(p, start, stop - 1) < goal
        assert goal <= _hurwitz_sum(p, start, stop)


@pytest.mark.parametrize("p", [1.25, 1.4, 2.0])
def test_batch_rows_do_not_depend_on_their_neighbours(p):
    # Crossings from localdim-like starts, in the table and far past it:
    # each row gets the same answer and the same route alone, in a permuted
    # batch and in the whole 1000-row batch.
    rng = np.random.default_rng(11)
    starts = np.concatenate([rng.integers(1, 300, 200), rng.integers(300, 10**6, 800)])
    tails = np.array([power_sum_brackets(s, None, p)[0] for s in starts.tolist()])
    targets = rng.random(1000) * tails
    whole = first_indices_reaching(starts, p, targets)
    routes = powersum._array_crossings(starts, p, targets)[1]
    assert routes.mean() > 0.9
    perm = rng.permutation(1000)
    permuted = first_indices_reaching(starts[perm], p, targets[perm])
    assert [whole[k] for k in perm.tolist()] == permuted
    assert (powersum._array_crossings(starts[perm], p, targets[perm])[1] == routes[perm]).all()
    for k in range(1000):
        row = starts[k : k + 1], p, targets[k : k + 1]
        assert first_indices_reaching(*row) == [whole[k]]
        assert powersum._array_crossings(*row)[1][0] == routes[k]


def test_batch_takes_what_the_array_pass_cannot():
    # Zero and negative targets give the start; a start past 2**52, p = 1
    # and p past _ARRAY_P_MAX go to the search; an unreachable target
    # raises as the search does.
    assert first_indices_reaching([5, 5], 1.5, [0.0, -1.0]) == [(5, 0), (5, 0)]
    for start, p, target in [(2**60, 1.5, 1e-10), (7, 1.0, 3.0), (3, 13.0, 1e-7)]:
        got = first_index_reaching(start, p, target)
        assert first_indices_reaching([start], p, [target]) == [(got.index, got.slack)]
    with pytest.raises(ValueError, match="exceeds the infinite sum"):
        first_indices_reaching([3, 4], 2.0, [0.1, 1.0])


def test_table_crossings_hold_a_bounded_block_of_rows():
    # 69905 draws from one start (every chain's first draw of a gauss alpha
    # 2 block at the sample-level budget): one 256-term table row gathered
    # per draw peaked at 155 MB; chunks of _TABLE_ROWS keep it near 11 MB.
    p = 4.0 / 3.0
    goals = np.random.default_rng(0).random(69905) * power_sum_brackets(4, None, p)[0]
    starts = np.full(len(goals), 4, dtype=np.int64)
    tracemalloc.start()
    try:
        index, certified = powersum._table_crossings(starts, goals, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20
    # The chunks give each row the full table's answer.
    span = 4 * powersum._EM_HEAD
    tab = np.cumsum((4 + np.arange(span)).astype(float) ** -p)
    k = np.searchsorted(tab, goals, side="left")
    assert (index == 4 + k).all() and certified.any()


def test_numpy_functions_stay_far_inside_the_charge():
    # The array pass charges each numpy exp, log, log1p, expm1 and power
    # result _NP_ULPS ulps.  On the arguments it takes they measure within
    # an ulp here; a platform past a sixteenth of the charge fails.
    rng = np.random.default_rng(5)
    x = np.exp(rng.uniform(0.0, 36.8, 300))
    y = -rng.uniform(0.0, 700.0, 300)
    r = np.exp(rng.uniform(-14.0, 36.0, 300))
    z = -rng.uniform(0.0, 80.0, 300) * 10.0 ** rng.uniform(-6.0, 0.0, 300)
    b = rng.integers(1, 2**53, 300).astype(float)
    cases = [
        (np.log, mpmath.log, x),
        (np.exp, mpmath.exp, y),
        (np.log1p, mpmath.log1p, r),
        (np.expm1, mpmath.expm1, z),
        (lambda v: v**-1.37, lambda v: v**-mpmath.mpf(1.37), b),
    ]
    with mpmath.workprec(120):
        for fn, ref, args in cases:
            for got, v in zip(fn(args).tolist(), args.tolist()):
                want = ref(mpmath.mpf(v))
                assert abs(got - want) <= powersum._NP_ULPS / 16 * math.ulp(float(want)), (fn, v)
