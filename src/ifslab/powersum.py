"""Certified partial sums of power laws over integer ranges, and their inverse.

Everything downstream (ladder construction, window exponents, conditional
digit laws) reduces to sums of the form

    S(a, b, p) = sum_{i=a}^{b} i**(-p),        p > 0,

and to the smallest b at which such a sum reaches a goal.  Ranges routinely
start at integers with thousands of digits (ladders for power restrictions
grow doubly exponentially), so a and b are Python ints of any size.

Brackets.  Ranges of at most 4 * _EM_HEAD terms are summed directly.
Longer ones sum a head of _EM_HEAD terms exactly and hand the rest, a..b, to
an Euler-Maclaurin expansion in relative form: the integral is

    a**(1-p) * expm1((1-p) * log1p(r)) / (1-p),      r = (b - a) / a,

with r one correctly rounded division of exact ints, and the b-terms come
from log a + log1p(r).  When a**(1-p) would leave the float range, every
factor is combined in logs, so the bracket has the size of the sum itself.
When (b - a) / a underflows (or overflows) a float, r is scaled by 2**k.
For the completely monotone x**(-p) the truncation error is bounded by the
first omitted Bernoulli term, which gives a two-sided bracket; a cushion
covers the float rounding.  A sum past e**709 is reported as
(_BIG, inf): a finite lower end above any goal, and no overflow.

Inversion.  ``first_index_reaching`` seeds from the relative-form inverse
of the goal.  Past 2**52 terms a long-range bracket depends on b only
through the float r, a monotone step function of b, so the search there runs
over the bit patterns of r rather than over b: one key per float, each
mapped back to the smallest b that rounds to it by integer arithmetic.
Below that the keys are the indices themselves.  The seed's bracket
guesses each edge of the ambiguity band (where the bracket straddles the
goal), and each edge is found by Newton steps on the local slope from its
own guess, a gallop and a bisection, on the same memo of probes, so a
search makes a bounded number of bracket calls whatever the size of the
index: at most 1 + 2 * (_NEWTON_STEPS + 64 + 2**11 + 64) = 4369, the 1
being the seed.
Per edge that is the Newton steps, a gallop of at most 64 doubling steps
plus, upward among ratio floats, one step per binade of the ratio (fewer
than 2**11), and a bisection over at most 2**64 keys.  The binade steps
are what a goal just under the infinite sum (p > 1) costs: such a search
can climb to the largest float, about 1000 calls, before it fails.  Head
sums are cached per start and exponent, so the searches at one start (a
conditional digit law's draws) share theirs.  localdim's draws take the
batched route below first, which leaves 1.3% of them to this search.

Batches.  ``first_indices_reaching`` answers rows of (start, goal) at one
exponent, starts up to 2**52 and 0 < p <= _ARRAY_P_MAX with p != 1, in one
numpy pass.  Each row's seed L comes from the midpoint integral past its
head sum, with the midpoint rule's first two corrections, and the pass
brackets S(start, L - 1) and S(start, L).  A crossing within 4 * _EM_HEAD
terms of the start reads both from a cumulative table of those terms, one
per distinct start.  A longer one, L at most 2**52 keys past start - 1,
adds the cached head sum to the Euler-Maclaurin tail above at k = 0, on
arrays; there the ratio is below 2**52 and the a**(1-p) branch is the only
one reached.  When the two brackets separate the goal, L is certified by
the argument above, and every other row runs ``first_index_reaching``.

Rounding of the batch.  numpy's exp, log, log1p, expm1 and power may run
numpy's own SIMD code rather than libm, and nothing here proves a bound on
their error.  So the pass charges each such result a relative error E of
_NP_ULPS = 64 ulps, on top of every cushion of the scalar bracket (which
covers the float rounding of the same formula).  An error of E in a log
moves an exp argument y built from logs by at most E |y|, so a term exp(y)
carries at most E (1 + |y|); the integral, an exp times an expm1 of such
arguments, carries at most E (3 + ymax).  ymax = (p + 5) log b bounds every
|y|, and ``_np_charge`` is twice the first-order bound: (4 + 2 ymax) E
times the sum of the terms' absolute values.  A table entry sums at most
4 * _EM_HEAD terms, each with one power, and rounds once per addition, so
it lies within (_NP_ULPS + 4 * _EM_HEAD) ulps of the table's last entry
of its true sum: the table's margin.  Then a row the pass certifies has
the true minimal index however numpy rounds, and no batch, neighbour or
SIMD lane changes it.  Rounding can only decide whether a row is
certified.  Where the scalar search certifies the row as well, both give
the same index; on localdim's draws (72k over 60 bench runs) and 12k
random rows, every row the pass certified was certified by the search
too, at the same index.  numpy's functions measure within 1 ulp on this
module's arguments (tests/test_powersum.py keeps them within
_NP_ULPS / 16).
"""

from __future__ import annotations

import functools
import math
import struct
import sys
from dataclasses import dataclass

import numpy as np

from .systems import NumericFailure

# Head length summed exactly before handing the tail to Euler-Maclaurin;
# the error term shrinks like head**-(p+5), so a modest head is plenty.
_EM_HEAD = 64

_ULP = 2.0 ** -52
_LN2 = math.log(2.0)

# A sum whose integral passes e**_LOG_BIG is bracketed by (_BIG, inf).
_LOG_BIG = 709.0
_BIG = math.exp(_LOG_BIG - 1e-6)

# Ratios whose binary exponent stays within this bound are not scaled.
_RATIO_EXP_CAP = 960

# A crossing search builds indices of at most about this many bits (1 MB
# ints); a seed past it would have the scaling alone allocate that much.
_CROSSING_BITS_CAP = 1 << 23

# Keys count indices until consecutive indices can share a ratio float.
# An upward gallop step among ratio floats is at most this many keys.
_INT_KEYS = 1 << 52

_LOG_INT_KEYS = 52 * _LN2
# Keys span less than 2**63; an edge guess moves at most this far (in logs).
_LOG_KEYS = 63 * _LN2

# Newton steps of a crossing search toward each edge of its ambiguity band.
_NEWTON_STEPS = 8

# The array pass of ``first_indices_reaching`` charges every numpy exp, log,
# log1p, expm1 and power result this many ulps of error.  It runs only for
# starts of at most _INT_KEYS and exponents in (0, _ARRAY_P_MAX], p != 1,
# where every exp argument it forms stays above -700 (no subnormal result).
_NP_ULPS = 64
_ARRAY_P_MAX = 12.0

# ``_table_crossings`` compares at most this many draws' table rows at once.
_TABLE_ROWS = 2**12

_MIN_NORMAL = sys.float_info.min
_MAX_BITS = struct.unpack("<q", struct.pack("<d", sys.float_info.max))[0]


def _float_bits(x: float) -> int:
    return struct.unpack("<q", struct.pack("<d", x))[0]


def _bits_float(n: int) -> float:
    return struct.unpack("<d", struct.pack("<q", n))[0]


def _round_cushion(est: float, ymax: float) -> float:
    """Absolute slack covering the float rounding of the expansion itself.

    exp(y) carries a relative error of about |y| ulps (the argument y is
    itself rounded), so the cushion scales with the largest exponent
    magnitude that went into the estimate, not with a fixed ulp count.
    """
    return (32.0 + 16.0 * ymax) * _ULP * abs(est) + 1e-300


def _scaled_ratio(delta: int, a: int, k: int) -> float:
    """delta * 2**k / a, correctly rounded; inf past the float range."""
    try:
        return (delta << k) / a if k >= 0 else delta / (a << -k)
    except OverflowError:
        return math.inf


def _ratio_shift(log2_ratio: float, a: int) -> int:
    """The k that brings a ratio of about 2**log2_ratio near 1, or 0 when the
    ratio is well inside the float range.  A positive k stays below the bit
    length of a, so that scaled ratios of 2**52-term ranges never overflow.
    """
    if -_RATIO_EXP_CAP < log2_ratio < _RATIO_EXP_CAP:
        return 0
    return min(-round(log2_ratio), max(0, a.bit_length() - 60))


def _log1p_ratio(r: float, k: int) -> tuple[float, float | None]:
    """log1p(x) for x = r * 2**-k (r a positive normal float), and log(x) when
    x underflows, where log1p(x) = x no longer fits a normal float."""
    if k == 0:
        return math.log1p(r), None
    e = math.frexp(r)[1] - k
    if -1000 < e < 1000:
        return math.log1p(math.ldexp(r, -k)), None
    log_x = math.log(r) - k * _LN2
    if e <= -1000:
        # log1p(x) = x to within x / 2 < 2**-1001, relative.
        return math.ldexp(r, -k), log_x
    # log1p(x) = log(x) + log1p(1 / x), the last term below 2**-999.
    return log_x, None


def _em_powers(lx, p: float, exp) -> tuple:
    """x**-(p+j) for j = 0, 1, 3, 5 as exp(-(p+j) * log x), from lx = log x,
    with exp math.exp or np.exp: log x > 0, so none of them overflows."""
    return exp(-p * lx), exp(-(p + 1.0) * lx), exp(-(p + 3.0) * lx), exp(-(p + 5.0) * lx)


def _em_terms(p: float):
    """(integral, fa, fb) -> (estimate, truncation bound, magnitude) of
    Euler-Maclaurin from a to b, with fa and fb the ``_em_powers`` of a and
    b and magnitude the sum of the terms' absolute values, on floats or
    arrays alike."""
    c1 = p / 12.0
    c3 = p * (p + 1.0) * (p + 2.0) / 720.0
    c5 = p * (p + 1.0) * (p + 2.0) * (p + 3.0) * (p + 4.0) / 30240.0

    def terms(integral, fa: tuple, fb: tuple) -> tuple:
        (fa0, fa1, fa3, fa5), (fb0, fb1, fb3, fb5) = fa, fb
        ends = integral + (fa0 + fb0) / 2.0
        est = ends + c1 * (fa1 - fb1) - c3 * (fa3 - fb3)
        bound = c5 * (fa5 + fb5)
        return est, bound, ends + c1 * (fa1 + fb1) + c3 * (fa3 + fb3) + bound

    return terms


def _add_head(head, est, err, head_log) -> tuple:
    """(lo, hi) of a head sum plus a tail estimate with error err, widened by
    the total's rounding cushion, whose largest exponent is head_log."""
    tot = head + est
    err = err + _round_cushion(tot, head_log)
    return tot - err, tot + err


def _em_from(a: int, p: float, k: int):
    """r -> Euler-Maclaurin (estimate, err) of S(a, a + delta, p), a >= 2.

    r is the scaled ratio delta * 2**k / a, a positive normal float, or inf
    for the infinite tail (p > 1), where every b-term is 0.  The true sum
    lies in [estimate - err, estimate + err]; None stands for a sum past
    e**_LOG_BIG.  Assumes a range long enough for the expansion to be
    meaningful (callers sum small ranges directly).
    """
    la = math.log(a)
    xa = (1.0 - p) * la
    # a**(1-p) when it fits a float with room to spare; the log route otherwise.
    a_pow = math.exp(xa) if abs(xa) <= 600.0 else None
    unit = abs(p - 1.0) < 1e-15
    fa, terms = _em_powers(la, p, math.exp), _em_terms(p)

    def em(r: float):
        if r == math.inf:
            # a**(1-p) / (p - 1), finite however close p is to 1.
            integral = math.exp(xa) / (p - 1.0)
            fb = (0.0, 0.0, 0.0, 0.0)
            lb = la
        else:
            l1, log_l1 = _log1p_ratio(r, k)
            z = (1.0 - p) * l1
            if a_pow is not None and l1 >= 1e-290 and xa + z <= 700.0:
                integral = l1 if unit else a_pow * math.expm1(z) / (1.0 - p)
            else:
                # log(expm1(z) / (1-p)) as one chain monotone in l1, so the
                # bracket stays monotone in the ratio.
                if l1 < 1e-290 or unit:
                    # expm1(z) / (1-p) = l1 to within |z| <= 1e-290, relative.
                    lint = log_l1 if log_l1 is not None else math.log(l1)
                    lint = lint if unit else xa + lint
                elif z > 700.0:
                    lint = xa + z - math.log(1.0 - p)
                else:
                    lint = xa + math.log(math.expm1(z) / (1.0 - p))
                if lint > _LOG_BIG:
                    return None
                integral = math.exp(lint)
            lb = la + l1
            fb = _em_powers(lb, p, math.exp)
        est, bound, _ = terms(integral, fa, fb)
        return est, bound + _round_cushion(est, (p + 5.0) * lb)

    return em


def _direct(a: int, b: int, p: float) -> float:
    """Exactly rounded sum of exp(-p * log(i)) over a..b, as chained maps."""
    q = -p
    return math.fsum(map(math.exp, map(q.__mul__, map(math.log, range(a, b + 1)))))


@functools.lru_cache(maxsize=1 << 12)
def _head_sum(start: int, p: float) -> float:
    """S(start, start + _EM_HEAD - 1, p), summed once per start and exponent:
    crossing searches at one start (a conditional digit law's draws) share it."""
    return _direct(start, start + _EM_HEAD - 1, p)


class _Brackets:
    """Certified brackets of S(start, stop, p) for one start; arguments unchecked.

    Ranges of at most 4 * _EM_HEAD terms are summed directly and widened by
    a few ulps.  Longer or infinite ranges add the exact head sum over
    start..start + 63 to Euler-Maclaurin from ``a = start + _EM_HEAD`` at the
    ratio (stop - a) * 2**k / a.  ``at_ratio`` is the bracket as a function
    of that ratio alone.
    """

    def __init__(self, start: int, p: float, k: int = 0):
        self.start, self.p, self.k = start, p, k
        self.a = start + _EM_HEAD
        self._em = _em_from(self.a, p, k)
        self._head = _head_sum(start, p)
        self._head_log = p * math.log(self.a - 1)

    def at_ratio(self, r: float) -> tuple[float, float]:
        """Bracket of the stops whose scaled ratio rounds to r (normal, or inf
        for the infinite tail)."""
        return self._with_head(self._em(r))

    def _with_head(self, tail) -> tuple[float, float]:
        if tail is None:
            return _BIG, math.inf
        return _add_head(self._head, *tail, self._head_log)

    def __call__(self, stop: int | None) -> tuple[float, float]:
        if stop is None:
            return self.at_ratio(math.inf)
        if stop - self.start < 4 * _EM_HEAD:
            if stop < self.start:
                return 0.0, 0.0
            s = _direct(self.start, stop, self.p)
            w = _round_cushion(s, self.p * math.log(stop))
            return s - w, s + w
        r = _scaled_ratio(stop - self.a, self.a, self.k)
        if _MIN_NORMAL <= r < math.inf:
            return self.at_ratio(r)
        # A ratio outside this k's normal range: the stop's own scaling.
        a = self.a
        k = _ratio_shift((stop - a).bit_length() - a.bit_length(), a)
        return self._with_head(_em_from(a, self.p, k)(_scaled_ratio(stop - a, a, k)))

    def first_stop(self, r: float) -> int:
        """Smallest stop whose scaled ratio is at least r (r positive normal)."""
        a, k = self.a, self.k
        n1, d1 = r.as_integer_ratio()
        n0, d0 = math.nextafter(r, 0.0).as_integer_ratio()
        # Ratios round up to r from the midpoint of r and its predecessor on.
        # The midpoint is num / 2**e0; delta >= num * a / 2**(e0 + k), by shifts.
        num, e0 = n1 * d0 + n0 * d1, (2 * d1 * d0).bit_length() - 1
        shift, prod = e0 + k, num * a
        delta = -(-prod >> shift) if shift >= 0 else prod << -shift
        # Int division rounds correctly, so delta - 1 rounds below r, and delta
        # does only on a tie at the midpoint (rounded to even).
        if _scaled_ratio(delta, a, k) < r:
            delta += 1
        return a + delta


def _check_range(start: int, p: float) -> None:
    """The preconditions every power sum shares: start >= 1 and p > 0."""
    if start < 1:
        raise ValueError("power sums start at index 1")
    if p <= 0:
        raise ValueError("exponent p must be positive")


def power_sum_brackets(start: int, stop: int | None, p: float) -> tuple[float, float]:
    """Certified bracket [lo, hi] containing S(start, stop, p).

    ``stop=None`` means the infinite tail, which requires p > 1.  For short
    ranges the bracket degenerates to the exactly rounded direct sum widened
    by a few ulps.  A sum past e**709 gives (_BIG, inf).
    """
    _check_range(start, p)
    if stop is None and p <= 1.0:
        raise ValueError("infinite power sum needs p > 1")
    return _Brackets(start, p)(stop)


@dataclass(frozen=True)
class ReachResult:
    """Smallest index where a running power sum reaches a target.

    index: minimal L with S(start, L, p) >= target, by the certified
        route described below.
    slack: upper bound on how far ``index`` may exceed the true minimum.
    """

    index: int
    slack: int

    @property
    def certified(self) -> bool:
        """True when the bracket arithmetic separates L from L-1, so the
        minimality is proven; False when the crossing fell inside bracket
        noise and ``index`` is the smallest index guaranteed to reach the
        target (possibly overshooting minimality by the slack)."""
        return self.slack == 0


def _seed(start: int, p: float, goal: float) -> float | None:
    """log y for the midpoint-integral crossing L = start - 1 + y * (start - 1/2).

    Solves int_{start-1/2}^{L+1/2} x**-p dx = goal in relative form,
    (1 + y)**(1-p) = 1 + goal * (1-p) * (start - 1/2)**(p-1), in logs, so no
    start size overflows it.  None when p > 1 and the goal is at or past
    the integral's total.
    """
    # log(start - 1/2) without forming start - 0.5, which overflows on big ints.
    la0 = math.log(2 * start - 1) - _LN2
    if abs(p - 1.0) < 1e-15:
        log_l1 = math.log(goal)
    else:
        # log |g| for g = goal * (1-p) * (start - 1/2)**(p-1); l1 = log1p(y).
        lg = math.log(goal) + math.log(abs(1.0 - p)) + (p - 1.0) * la0
        if p > 1.0 and lg >= 0.0:
            return None
        if lg < -36.0:
            log_l1 = lg - math.log(abs(1.0 - p))
        elif lg <= 700.0:
            log_l1 = math.log(math.log1p(math.copysign(math.exp(lg), 1.0 - p)) / (1.0 - p))
        else:
            log_l1 = math.log(lg / (1.0 - p))
    if log_l1 < -36.0:
        return log_l1
    l1 = math.exp(log_l1)
    return math.log(math.expm1(l1)) if l1 < 700.0 else l1


def _search_brackets(start: int, p: float, goal: float) -> tuple[_Brackets, float | None]:
    """The bracket function of one crossing search, and its seed.

    The ratio scaling k is taken from the seed, so the crossing's ratio is
    a normal float; every probe of the search uses this one function.
    """
    log_y = _seed(start, p, goal)
    a = start + _EM_HEAD
    if log_y is not None and log_y / _LN2 + a.bit_length() > _CROSSING_BITS_CAP:
        raise NumericFailure(
            f"the crossing of goal {goal!r} from a {start.bit_length()}-bit start lies near "
            f"2**{log_y / _LN2 + a.bit_length():.4g}, past the {_CROSSING_BITS_CAP}-bit budget"
        )
    k = 0 if log_y is None else _ratio_shift(log_y / _LN2, a)
    return _Brackets(start, p, k), log_y


class _Keys:
    """The domain of one crossing search as consecutive int keys.

    Key j <= n0 stands for the stop start - 1 + j (key 0 is the empty sum).
    Past n0 = max(2**52, first index whose ratio is a normal float), where
    consecutive stops can share a ratio float, key n0 + i stands for the
    i-th float above the ratio of that stop: the stops rounding to it share
    its bracket, and the key maps back to the smallest of them.  Keys end at
    the largest finite float.
    """

    def __init__(self, brackets: _Brackets):
        self.brackets = b = brackets
        # One past the largest delta whose scaled ratio is below 2**-1022.
        shift = 1022 + b.k
        tiny = (b.a >> shift if shift >= 0 else b.a << -shift) + 1
        self.n0 = max(_INT_KEYS, tiny + _EM_HEAD + 1)
        # The bits of the ratio float at n0, and the key of the largest finite one.
        self._base = _float_bits(_scaled_ratio(self.n0 - _EM_HEAD - 1, b.a, b.k))
        self.top = self.n0 + _MAX_BITS - self._base

    def ratio(self, key: int) -> float:
        return _bits_float(self._base + key - self.n0)

    def bracket(self, key: int) -> tuple[float, float]:
        if key <= self.n0:
            return self.brackets(self.brackets.start - 1 + key)
        return self.brackets.at_ratio(self.ratio(key))

    def stop(self, key: int) -> int:
        """Smallest stop the key stands for."""
        if key <= self.n0:
            return self.brackets.start - 1 + key
        return self.brackets.first_stop(self.ratio(key))

    def key_near(self, log_terms: float) -> int:
        """The key of a stop about exp(log_terms) terms past start - 1."""
        if log_terms < math.log(self.n0):
            return max(1, round(math.exp(log_terms)))
        b = self.brackets
        # Ratio (terms - _EM_HEAD - 1) * 2**k / a, the offset dropped: a guess.
        log_r = log_terms + b.k * _LN2 - math.log(b.a)
        r = math.exp(min(log_r, 709.0))
        key = self.n0 + _float_bits(r) - self._base if r > 0.0 else self.n0 + 1
        return min(max(key, self.n0 + 1), self.top)

    def log_slope(self, key: int) -> float:
        """Log of the sum's rise per key near key: the term at its stop,
        times the stops per key past n0."""
        b = self.brackets
        if key <= self.n0:
            return -b.p * math.log(b.start - 1 + key)
        r = self.ratio(key)
        l1, _ = _log1p_ratio(r, b.k)
        la = math.log(b.a)
        return -b.p * (la + l1) + math.log(math.ulp(r)) + la - b.k * _LN2


def first_index_reaching(start: int, p: float, target: float) -> ReachResult:
    """Minimal L >= start with sum_{i=start}^{L} i**(-p) >= target.

    The search runs over the keys of ``_Keys``, all probes on one bracket
    function.  It probes the relative-form seed, guesses each edge of the
    ambiguity band from that bracket's two ends and the local slope, and
    finds each edge by Newton steps, a gallop and a bisection: band_hi, the
    first key whose lower end reaches the goal, and band_lo, the first
    whose upper end does.  Where the bracket ends are monotone in the
    index, that is the answer of a full bisection over the same function.
    The result is the smallest stop of band_hi, certified when band_lo
    stands for the same stop.  A search makes at most 4369 bracket calls
    (the module docstring counts them); upward gallops among ratio floats
    move one binade per call, so a goal just under the infinite sum (p > 1)
    can take hundreds.

    Raises ValueError if the target is unreachable (only possible for
    p > 1).  Raises NumericFailure for p > 1 when the goal lies so close to
    the infinite sum that no bracket can certify it: at the first probe
    that straddles the goal, the probe's lower end plus the whole tail past
    it falls short of the goal.  A later lower end rises by at most that
    tail while the bracket widens with the index, so it never gets there.
    It also raises NumericFailure if no float ratio reaches the goal.
    """
    if target <= 0:
        return ReachResult(start, 0)
    _check_range(start, p)
    goal = target
    brackets, log_y = _search_brackets(start, p, goal)
    # For p > 1 the goal may lie past the infinite sum, or within its bracket
    # noise.  The first is checked here (any probe's lower end is below the
    # sum's upper end), the second at the first probe that straddles the
    # goal, unless an earlier one surely reached it.
    if p > 1.0 and brackets(None)[1] < goal:
        raise ValueError("target exceeds the infinite sum; no index reaches it")
    keys = _Keys(brackets)
    n0 = keys.n0
    memo: dict[int, tuple[float, float]] = {0: (0.0, 0.0)}
    noise_checked = p <= 1.0

    def probe(key: int) -> tuple[float, float]:
        nonlocal noise_checked
        got = memo.get(key)
        if got is not None:
            return got
        got = memo[key] = keys.bracket(key)
        blo, bhi = got
        if blo >= goal:
            noise_checked = True
        elif goal <= bhi and not noise_checked:
            noise_checked = True
            if blo + power_sum_brackets(keys.stop(key) + 1, None, p)[1] < goal:
                raise NumericFailure(
                    f"goal {goal!r} lies within bracket noise of the infinite power sum "
                    f"(p = {p}); no index can be certified to reach it"
                )
        return got

    def keys_to(key: int, off: float) -> int:
        """Keys from key over which the sum moves by off, on the local slope."""
        x = math.exp(min(math.log(abs(off)) - keys.log_slope(key), _LOG_KEYS))
        return math.ceil(math.copysign(x, off))

    def first_key(end: int, guess: int, step: int) -> int:
        """Smallest key whose bracket end (0 lower, 1 upper) reaches the goal:
        Newton steps on the local slope from guess while they move further
        than ``step`` keys, then a gallop from ``step`` keys, then bisection."""
        hi = None
        for key, br in memo.items():
            if br[end] >= goal and (hi is None or key < hi):
                hi = key
        lo = 0
        for key, br in memo.items():
            if br[end] < goal and lo < key and (hi is None or key < hi):
                lo = key
        last_move = None
        for steps_left in range(_NEWTON_STEPS - 1, -1, -1):
            guess = max(guess, lo + 1)
            if hi is not None:
                guess = min(guess, hi)
            elif guess > n0:
                guess = min(guess, keys.top)
            val = probe(guess)[end]
            if val >= goal:
                hi = guess
            else:
                lo = guess
            if not steps_left or hi is not None and hi - lo <= 1 or val in (goal, math.inf):
                break
            move = keys_to(guess, goal - val)
            # Stop once a step is short, or fails to halve: on a stair of
            # the rounded sum the slope no longer says where the edge is.
            if abs(move) <= step or last_move is not None and 2 * abs(move) > abs(last_move):
                break
            guess, last_move = guess + move, move
        down = hi == guess
        while hi is None or hi - lo > 1:
            key = hi - step if down else lo + step
            if hi is not None and not lo < key < hi:
                break
            if hi is None and key > n0:
                if lo >= keys.top:
                    raise NumericFailure(
                        f"no float ratio of the range from {start} reaches the goal "
                        f"{goal!r} (p = {p})"
                    )
                key = min(key, keys.top)
            if probe(key)[end] >= goal:
                hi = key
                if not down:
                    break
            else:
                lo = key
                if down:
                    break
            # Upward among ratio floats a step at most doubles the ratio, so
            # it cannot jump a window where the lower end reaches the goal
            # (past it, for p > 1, the widening bracket falls back below).
            step = 2 * step if down or key <= n0 else min(2 * step, _INT_KEYS)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if probe(mid)[end] >= goal:
                hi = mid
            else:
                lo = mid
        return hi

    # No seed: p > 1 and the goal at or past the integral's total, which
    # exceeds the sum's; the search starts from the last key and fails there.
    if log_y is None:
        key = keys.top
    else:
        key = keys.key_near(log_y + math.log(2 * start - 1) - _LN2)
    blo, bhi = probe(key)
    guesses, step = [key, key], 1
    if bhi < math.inf:
        # Each edge sits where the estimate passes goal -+ the half-width,
        # give or take the keys over which the sum moves by an ulp or two;
        # in logs, as sums near the float range have slopes below it.
        est, half = (blo + bhi) / 2.0, (bhi - blo) / 2.0
        for end, off in ((0, goal + half - est), (1, goal - half - est)):
            if off != 0.0:
                guesses[end] = key + keys_to(key, off)
        step = max(1, int(math.exp(min(
            math.log(2.0 * math.ulp(goal)) - keys.log_slope(key), _LOG_INT_KEYS
        ))))
    band_hi = first_key(0, guesses[0], step)
    below = memo.get(band_hi - 1)
    if below is not None and below[1] < goal:
        band_lo = band_hi
    else:
        band_lo = first_key(1, min(guesses[1], band_hi), step)
    index = keys.stop(band_hi)
    return ReachResult(index, index - keys.stop(band_lo))


def _np_charge(mag, ymax):
    """Slack for numpy's own function errors in an array bracket whose
    terms have absolute values summing to mag and exp arguments at most
    ymax in magnitude: _NP_ULPS ulps on each result, carried through the
    exp of a log (module docstring)."""
    return (4.0 + 2.0 * ymax) * (_NP_ULPS * _ULP) * mag


def _em_arrays(starts: np.ndarray, stops: np.ndarray, p: float, heads: np.ndarray) -> tuple:
    """Certified (lo, hi) of S(start, stop, p) per row, for int64 rows with
    4 * _EM_HEAD <= stop - start and stop < 2**53, heads[k] = _head_sum(start, p).

    The scalar bracket's head plus Euler-Maclaurin tail at k = 0, on its
    a**(1-p) branch, evaluated on arrays; both cushions of the scalar, and
    numpy's charge on top.
    """
    a = (starts + _EM_HEAD).astype(float)
    la = np.log(a)
    l1 = np.log1p((stops - starts - _EM_HEAD).astype(float) / a)
    lb = la + l1
    integral = np.exp((1.0 - p) * la) * np.expm1((1.0 - p) * l1) / (1.0 - p)
    fa, fb = _em_powers(la, p, np.exp), _em_powers(lb, p, np.exp)
    est, bound, mag = _em_terms(p)(integral, fa, fb)
    ymax = (p + 5.0) * lb
    err = bound + _round_cushion(est, ymax) + _np_charge(mag, ymax)
    return _add_head(heads, est, err, p * np.log(a - 1.0))


def _table_crossings(starts: np.ndarray, goals: np.ndarray, p: float) -> tuple:
    """(index, certified) per row from a cumulative table of the first
    4 * _EM_HEAD terms past each distinct start (starts < 2**52)."""
    span = 4 * _EM_HEAD
    uniq, inv = np.unique(starts, return_inverse=True)
    tab = np.cumsum((uniq[:, None] + np.arange(span)).astype(float) ** -p, axis=1)
    # Each term carries numpy's power error and the sum at most one rounding
    # per term: (_NP_ULPS + span) ulps of the last entry bound both.
    margin = ((_NP_ULPS + span) * _ULP * tab[:, -1])[inv]
    k = np.empty(len(starts), dtype=np.int64)
    for lo in range(0, len(starts), _TABLE_ROWS):
        at = slice(lo, lo + _TABLE_ROWS)
        k[at] = np.count_nonzero(tab[inv[at]] < goals[at, None], axis=1)
    reach = tab[inv, np.minimum(k, span - 1)] - margin >= goals
    below = (k == 0) | (tab[inv, np.maximum(k - 1, 0)] + margin < goals)
    return starts + k, (k < span) & reach & below


def _array_crossings(starts: np.ndarray, p: float, goals: np.ndarray) -> tuple:
    """(index, certified) per row: the array pass of ``first_indices_reaching``.

    Where certified[k], index[k] is the minimal L with S(starts[k], L, p) >=
    goals[k]: L - 1 surely falls short of the goal and L surely reaches it.
    Other rows' index is meaningless.
    """
    index = starts.copy()
    certified = goals <= 0.0
    if not (0.0 < p <= _ARRAY_P_MAX and p != 1.0):
        return index, certified
    usable = (goals > 0.0) & (goals < math.inf) & (starts >= 1) & (starts <= _INT_KEYS)
    rows = np.flatnonzero(usable)
    if rows.size == 0:
        return index, certified
    st, goal = starts[rows], goals[rows]
    uniq, inv = np.unique(st, return_inverse=True)
    heads = np.array([_head_sum(s, p) for s in uniq.tolist()])[inv]
    # The seed: the midpoint integral from x0 = a - 1/2 to L + 1/2 meets the
    # goal less the head, plus the midpoint rule's first two corrections at
    # x0, in relative form (as ``_seed``); NaN where p > 1 and it never does.
    x0 = (st + _EM_HEAD).astype(float) - 0.5
    corr = p / 24.0 - 7.0 * p * (p + 1.0) * (p + 2.0) / 5760.0 / (x0 * x0)
    rest = goal - heads + corr * x0 ** (-p - 1.0)
    with np.errstate(all="ignore"):
        seed = x0 * np.exp(np.log1p(rest * (1.0 - p) * x0 ** (p - 1.0)) / (1.0 - p)) - 0.5
    # Crossings within the table's span, and long ones whose stop L and
    # L - 1 are both long ranges, with L at most _INT_KEYS keys past start - 1.
    span = 4 * _EM_HEAD
    short = (rest <= 0.0) | (seed < st + (span + 1))
    far = ~short & (seed <= st + (_INT_KEYS - 1))
    if short.any():
        index[rows[short]], certified[rows[short]] = _table_crossings(st[short], goal[short], p)
    if far.any():
        st, goal, heads = st[far], goal[far], heads[far]
        stop = np.ceil(seed[far]).astype(np.int64)
        lo, hi = _em_arrays(
            np.concatenate([st, st]), np.concatenate([stop - 1, stop]), p,
            np.concatenate([heads, heads]),
        )
        n = len(st)
        index[rows[far]] = stop
        certified[rows[far]] = (hi[:n] < goal) & (goal <= lo[n:])
    return index, certified


def first_indices_reaching(starts, p: float, targets) -> list:
    """(index, slack) of ``first_index_reaching(start, p, target)`` per row.

    starts are int64, one per target.  One numpy pass brackets
    S(start, L - 1) and S(start, L) at each row's seed L: from a per-start
    cumulative table when L lies within 4 * _EM_HEAD terms of the start, and
    as the head sum plus Euler-Maclaurin on arrays otherwise (module
    docstring).  A row whose two brackets separate its goal gets L,
    certified: the true minimal index, whatever else the batch holds.  Every
    other row, and every row at a start past 2**52 or an exponent outside
    (0, _ARRAY_P_MAX] or at 1, runs ``first_index_reaching`` itself, which
    raises as it does alone.
    """
    starts = np.asarray(starts, dtype=np.int64)
    goals = np.asarray(targets, dtype=float)
    index, certified = _array_crossings(starts, p, goals)
    out = [(i, 0) for i in index.tolist()]
    st, tg = starts.tolist(), goals.tolist()
    for k in np.flatnonzero(~certified).tolist():
        got = first_index_reaching(st[k], p, tg[k])
        out[k] = (got.index, got.slack)
    return out
