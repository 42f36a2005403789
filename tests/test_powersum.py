"""Oracle and property tests for the certified power-sum core.

Frozen expected values were computed independently and hard-coded here:
infinite tails with mpmath zeta at high precision, long finite ranges as
Hurwitz zeta differences zeta(p, a) - zeta(p, b + 1) cross-checked by
pairwise summation in 80-bit extended precision, and the p = 1 row from
the harmonic-number closed form ln(n) + gamma + 1/2n - 1/12n^2.
"""

import math
import os
import pathlib
import random
import subprocess
import sys

import pytest

from ifslab import powersum
from ifslab.powersum import (
    DIRECT_LIMIT,
    first_index_reaching,
    power_sum,
    power_sum_brackets,
)
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
    assert math.isclose(power_sum(start, stop, p), expected, rel_tol=1e-12)


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
    assert power_sum(9, 9, 2.0) == pytest.approx(1.0 / 81.0, rel=1e-15)


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
    # The guess only steers the gallop: a guess far below or above the
    # crossing (or none at all) must give the same certified index.
    for case in [(3, 0.7, 25.0), (40, 1.0, 6.0), (7, 1.5, 0.3), (10**6, 0.45, 30.0)]:
        want = first_index_reaching(*case)
        assert want.certified
        guess = None if offset is None else max(case[0], want.index + offset)
        monkeypatch.setattr(powersum, "_crossing_guess", lambda *args: guess)
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


def test_first_index_with_coefficient():
    # coeff * S(start, L, p) >= target  <=>  S >= target / coeff
    r1 = first_index_reaching(4, 0.6, 2.0, coeff=0.5)
    r2 = first_index_reaching(4, 0.6, 4.0, coeff=1.0)
    assert r1.index == r2.index


def test_first_index_beyond_direct_walk():
    # Crossing far past DIRECT_LIMIT terms, on the Euler-Maclaurin brackets.
    start, p, target = 1000, 0.999, 40.0
    res = first_index_reaching(start, p, target)
    assert res.index - start > DIRECT_LIMIT
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
        (1000, 0.999, 40.0),  # crossing past DIRECT_LIMIT terms
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
    assert first_index_reaching(start, p, target) == want
    assert heads.count(start) == 1


def test_search_rejects_non_positive_exponent():
    for p in (0.0, -1.0):
        with pytest.raises(ValueError, match="positive"):
            first_index_reaching(3, p, 1.0)


@pytest.mark.parametrize("bits", [10, 100, 1000, 3000, 5200, 6000])
@pytest.mark.parametrize("p", [0.45, 0.8, 1.0, 1.6])
def test_brackets_at_big_indices_never_nan(bits, p):
    # Past the float range of the integral (p < 1 near 5k-bit indices) the
    # core must raise, never hand back a NaN bracket.
    start = 2**bits
    try:
        lo, hi = power_sum_brackets(start, 2 * start, p)
    except NumericFailure:
        assert p < 1.0
        return
    assert math.isfinite(lo) and math.isfinite(hi)
    assert lo <= hi


def test_infinite_tail_just_above_p_one_stays_finite():
    # The log-integral form for p within 1e-15 of 1 serves finite ranges
    # only; the infinite tail keeps a**(1-p) / (p - 1), about 2**51 here.
    lo, hi = power_sum_brackets(10, None, 1 + 2.0**-51)
    assert lo <= hi
    assert math.isclose(lo, 2.0**51, rel_tol=1e-12)
    assert math.isclose(hi, 2.0**51, rel_tol=1e-12)


def test_unreachable_target_raises():
    with pytest.raises(ValueError):
        first_index_reaching(2, 3.0, 10.0)


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


def test_zero_target_is_start():
    res = first_index_reaching(17, 0.5, 0.0)
    assert res.index == 17 and res.certified
