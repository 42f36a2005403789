"""Certified partial sums of power laws over integer ranges.

Everything downstream (ladder construction, window exponents, conditional
digit laws) reduces to sums of the form

    S(a, b, p) = sum_{i=a}^{b} i**(-p),        p > 0,

evaluated either directly (exactly rounded summation) or, when the range is
too long to sum term by term, through an Euler-Maclaurin expansion with a
certified error bound.  Ranges here routinely start at integers with
hundreds of digits: ladder sequences for power-type digit restrictions grow
doubly exponentially, so ``a`` and ``b`` are ordinary Python ints of
arbitrary size and all float work happens in log domain.

The Euler-Maclaurin route uses the integral plus the trapezoidal and the
first two Bernoulli corrections.  For a completely monotone integrand such
as x**(-p) the truncation error of the expansion is bounded in magnitude by
the first omitted Bernoulli term, which gives a two-sided bracket; a few
ulps are added on top to cover the rounding of the evaluation itself.
The bracket is what makes minimal-index inversion sound: we can certify
"the running sum first reaches the target at exactly this index" even when
the index has 300 digits, provided the bracket separates the two
neighbouring candidates (it essentially always does; the ambiguous case is
reported rather than guessed).

``first_index_reaching`` inverts the sum by one route: the midpoint-integral
guess, a gallop to certified brackets on both sides, then bisection.  Every
probe of one search sums from the same start, so the search sums the
64-term head there once, at its first long probe, and reuses it; nothing is
cached across searches.  For p < 1 the integral overflows a float once
(1 - p) * ln(index) passes 709 (5k-bit indices at p = 0.8); that raises
NumericFailure.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .systems import NumericFailure

# Ranges at most this long are summed directly (exactly rounded via fsum).
DIRECT_LIMIT = 200_000

# Head length summed exactly before handing the tail to Euler-Maclaurin;
# the error term shrinks like head**-(p+5), so a modest head is plenty.
_EM_HEAD = 64

_ULP = 2.0 ** -52

# Crossings are guessed only below e**27 (about 2**39), where a float pins them.
_GUESS_LOG_CAP = 27.0


def _pow_neg(log_x: float, q: float) -> float:
    """x**(-q) for x given by its natural log (x may exceed float range)."""
    y = -q * log_x
    if y > 709.0:
        return math.inf
    return math.exp(y)


def _round_cushion(est: float, ymax: float) -> float:
    """Absolute slack covering the float rounding of the expansion itself.

    exp(y) carries a relative error of about |y| ulps (the argument y is
    itself rounded), so the cushion scales with the largest exponent
    magnitude that went into the estimate, not with a fixed ulp count.
    """
    return (32.0 + 16.0 * ymax) * _ULP * abs(est) + 1e-300


def _em_tail(a: int, b: int | None, p: float) -> tuple[float, float]:
    """Euler-Maclaurin estimate and error bound for S(a, b, p), a >= 2.

    ``b=None`` means the infinite tail (p > 1), where every b-term is 0.
    Returns (estimate, err) with the true sum in [estimate - err,
    estimate + err].  Assumes b - a is large enough that the expansion is
    meaningful (callers sum small ranges directly).
    """
    la = math.log(a)
    lb = math.inf if b is None else math.log(b)
    if b is not None and abs(p - 1.0) < 1e-15:
        # The p -> 1 limit of a finite range; an infinite tail (p > 1) keeps
        # the power form below, which stays finite however close p is to 1.
        integral = lb - la
    else:
        # (a**(1-p) - b**(1-p)) / (p - 1), computed in a form that stays
        # finite-or-inf without producing nan when terms overflow.
        xa = (1.0 - p) * la
        xb = (1.0 - p) * lb
        if p > 1.0:
            integral = math.exp(xa) * -math.expm1(xb - xa) / (p - 1.0)
        else:
            if xb > 709.0:
                raise NumericFailure(
                    f"power sum to a {b.bit_length()}-bit index overflows the float core (p = {p})"
                )
            integral = math.exp(xb) * -math.expm1(xa - xb) / (1.0 - p)
    est = integral + (_pow_neg(la, p) + _pow_neg(lb, p)) / 2.0
    est += (p / 12.0) * (_pow_neg(la, p + 1.0) - _pow_neg(lb, p + 1.0))
    c3 = p * (p + 1.0) * (p + 2.0) / 720.0
    est -= c3 * (_pow_neg(la, p + 3.0) - _pow_neg(lb, p + 3.0))
    c5 = p * (p + 1.0) * (p + 2.0) * (p + 3.0) * (p + 4.0) / 30240.0
    err = c5 * (_pow_neg(la, p + 5.0) + _pow_neg(lb, p + 5.0))
    err += _round_cushion(est, (p + 5.0) * (la if b is None else lb))
    return est, err


def _direct(a: int, b: int, p: float) -> float:
    # _pow_neg(math.log(i), p) inlined: with i >= 1 and p > 0 its overflow
    # guard never fires, and the float steps are the same.
    q = -p
    return math.fsum(math.exp(q * math.log(i)) for i in range(a, b + 1))


def _brackets_from(start: int, p: float):
    """stop -> certified bracket of S(start, stop, p); arguments unchecked.

    Ranges of at most 4 * _EM_HEAD terms are summed directly and widened by
    a few ulps.  Longer or infinite ranges sum a head of _EM_HEAD terms
    exactly and hand the rest to Euler-Maclaurin.  The returned function
    sums that head once, at its first long range, so a crossing search that
    probes many stops from one start sums it once.
    """
    head_end = start + _EM_HEAD - 1
    head = None

    def brackets(stop: int | None) -> tuple[float, float]:
        nonlocal head
        if stop is not None:
            if stop < start:
                return 0.0, 0.0
            if stop - start + 1 <= 4 * _EM_HEAD:
                s = _direct(start, stop, p)
                w = _round_cushion(s, p * math.log(stop))
                return s - w, s + w
        if head is None:
            head = _direct(start, head_end, p)
        est, err = _em_tail(head_end + 1, stop, p)
        tot = head + est
        err += _round_cushion(tot, p * math.log(head_end))
        return tot - err, tot + err

    return brackets


def power_sum_brackets(start: int, stop: int | None, p: float) -> tuple[float, float]:
    """Certified bracket [lo, hi] containing S(start, stop, p).

    ``stop=None`` means the infinite tail, which requires p > 1.  For short
    ranges the bracket degenerates to the exactly rounded direct sum widened
    by a few ulps.
    """
    if start < 1:
        raise ValueError("power sums start at index 1")
    if p <= 0:
        raise ValueError("exponent p must be positive")
    if stop is None and p <= 1.0:
        raise ValueError("infinite power sum needs p > 1")
    return _brackets_from(start, p)(stop)


def power_sum(start: int, stop: int | None, p: float) -> float:
    """Best estimate of S(start, stop, p); exact (to rounding) on small ranges."""
    if stop is not None and stop - start + 1 <= DIRECT_LIMIT:
        if stop < start:
            return 0.0
        if p <= 0:
            raise ValueError("exponent p must be positive")
        if start < 1:
            raise ValueError("power sums start at index 1")
        return _direct(start, stop, p)
    lo, hi = power_sum_brackets(start, stop, p)
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class ReachResult:
    """Smallest index where a running power sum reaches a target.

    index: minimal L with coeff * S(start, L, p) >= target, by the certified
        route described below.
    certified: True when the bracket arithmetic separates L from L-1, so the
        minimality is proven; False when the crossing fell inside bracket
        noise and ``index`` is the smallest index guaranteed to reach the
        target (possibly overshooting minimality by the reported slack).
    slack: upper bound on how far ``index`` may exceed the true minimum
        (0 when certified).
    """

    index: int
    certified: bool
    slack: int


def _crossing_guess(start: int, p: float, goal: float) -> int | None:
    """Midpoint-integral inverse: L with int_{start-1/2}^{L+1/2} x**-p dx = goal.

    None when the continuous crossing does not exist (p > 1 and the goal at
    or past the integral's total) or lies past about 2**39, where a float no
    longer pins it to within one index.
    """
    # log(start - 1/2) without forming start - 0.5, which overflows on big ints.
    la = math.log(2 * start - 1) - math.log(2.0)
    if la > _GUESS_LOG_CAP:
        return None
    if abs(p - 1.0) < 1e-15:
        log_x = la + goal
    else:
        rem = math.exp((1.0 - p) * la) - (p - 1.0) * goal
        if rem <= 0.0:
            return None
        log_x = math.log(rem) / (1.0 - p)
    if log_x > _GUESS_LOG_CAP:
        return None
    return max(start, int(round(math.exp(log_x) - 0.5)))


def first_index_reaching(start: int, p: float, target: float, coeff: float = 1.0) -> ReachResult:
    """Minimal L >= start with coeff * sum_{i=start}^{L} i**(-p) >= target.

    Probes the midpoint-integral guess (or doubles from start - 1 without
    one), gallops up until a bracket surely reaches the goal and down from
    the guess until one surely falls short, then bisects.  Raises ValueError
    if the target is unreachable (only possible for p > 1).  Raises
    NumericFailure when the float core overflows, and for p > 1 when the
    goal lies so close to the infinite sum that no bracket can certify it:
    the up gallop stops once a probe's lower end plus the whole tail past
    the probe falls short of the goal.  A later lower end rises by at most
    that tail while the bracket widens with the index, so it never gets
    there.
    """
    if target <= 0:
        return ReachResult(start, True, 0)
    if coeff <= 0:
        raise ValueError("coeff must be positive")
    if start < 1:
        raise ValueError("power sums start at index 1")
    if p <= 0:
        raise ValueError("exponent p must be positive")
    goal = target / coeff
    brackets = _brackets_from(start, p)
    # Certified sides: the sum surely falls short of the goal at lo and
    # surely reaches it at hi.
    lo = start - 1
    guess = _crossing_guess(start, p, goal)
    if guess is None:
        probes = (max(2 * lo, start) << k for k in itertools.count())
    else:
        probes = itertools.chain((guess,), (guess + (1 << k) for k in itertools.count()))
    total_checked = p <= 1.0
    for hi in probes:
        blo, bhi = brackets(hi)
        if blo >= goal:
            break
        if bhi < goal:
            lo = hi
        elif p > 1.0 and blo + power_sum_brackets(hi + 1, None, p)[1] < goal:
            raise NumericFailure(
                f"goal {goal!r} lies within bracket noise of the infinite power sum "
                f"(p = {p}); no index can be certified to reach it"
            )
        if not total_checked:
            total_checked = True
            if brackets(None)[1] < goal:
                raise ValueError("target exceeds the infinite sum; no index reaches it")
    if guess is not None:
        step = 1
        while guess - step > lo:
            blo, bhi = brackets(guess - step)
            if bhi < goal:
                lo = guess - step
                break
            if blo >= goal:
                hi = guess - step
            step *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        blo, bhi = brackets(mid)
        if blo >= goal:
            hi = mid
        elif bhi < goal:
            lo = mid
        else:
            # The bracket at mid straddles the goal, so float arithmetic
            # cannot decide mid itself.  Pin down the ambiguity band
            # [band_lo, band_hi]: below it the sum is surely short of the
            # goal, at band_hi it surely reaches it.  Each edge is found by
            # its own bisection (the band can be wide when individual terms
            # are far below the bracket width).
            band_lo = _bisect_edge(brackets, goal, lo, mid, sure_side="hi")
            band_hi = _bisect_edge(brackets, goal, mid, hi, sure_side="lo")
            if band_hi == band_lo:
                return ReachResult(band_hi, True, 0)
            return ReachResult(band_hi, False, abs(band_hi - band_lo))
    return ReachResult(hi, True, 0)


def _bisect_edge(brackets, goal: float, lo: int, hi: int, sure_side: str) -> int:
    """Edge of the bracket-ambiguity band between decided endpoints.

    sure_side="hi": smallest L in (lo, hi] whose bracket upper end reaches
    the goal (entering the band from below).  sure_side="lo": smallest L
    whose bracket lower end reaches the goal (leaving the band above).
    """
    while hi - lo > 1:
        mid = (lo + hi) // 2
        blo, bhi = brackets(mid)
        val = bhi if sure_side == "hi" else blo
        if val >= goal:
            hi = mid
        else:
            lo = mid
    return hi
