"""Core types for infinite contraction systems on [0, 1].

A system is a countable family of C1 maps f_i: [0,1] -> [0,1] with disjoint
open images, whose derivative magnitudes are sandwiched per branch,

    contract_lo(i) <= |f_i'(x)| <= contract_hi(i),

and decay like a power of the branch index.  Every system has the same
rate profile: a leading constant c, an exponent d and an index shift
t >= 0 with

    c * (i + t)**-d = contract_lo(i) <= contract_hi(i) = c * i**-d.

A system holds one field, its branch geometry ``DecaySystem.affine``, and
the profile is read off it, so a system cannot disagree with itself:

    affine                 branches                     (d, c, t)
    None                   f_i(x) = 1/(x + i)           (2.0, 1.0, 1)
    families.AffineMap     offset(i) + slope(i) * x     (d, float(C), 0)

None is the reciprocal-shift family of the continued fractions
(make_gauss).  An AffineMap of (C, d) has slope(i) = C * i**-d rounded
once: a right-to-left tiling (make_linear_power) or one with explicit
gaps between consecutive images (build_gap_system).  The geometry also
fixes the bounded-distortion constant D: appending branch i to a
composition scales the cylinder length by at most D * contract_hi(i).
D = 1 for affine branches.  D = 2 for Moebius ones: a cylinder with
continuants q' <= q has length 1/(q(q + q')), and appending digit i
multiplies it by (1 + x) / ((i + x)(i + 1 + x)) <= 2 * i**-2, with
x = q'/q.

Every branch is an exact rational matrix (a, b, c, d) with
f_i(x) = (a*x + b) / (c*x + d): (0, 1, 1, i) for the reciprocal family,
(slope, offset, 0, 1) for affine ones, whose slopes and offsets are
exact binary rationals.  A composition is the matrix product, so cylinder
intervals (images of [0,1] under finite compositions) have exact rational
endpoints for every system; for the reciprocal family the product entries
are the continuants of the word.  Keeping this arithmetic exact removes
rounding as a confounder in every downstream test.

Exact cover sums and the Frostman check take the log cylinder lengths of
blocks of words from one kernel, ``_append_digits``, which reads
each word's continuants (reciprocal shifts) or exact slopes (affine).

All types are immutable after construction and all operations are pure.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

Word = tuple[int, ...]

DEPTH_CAP = 64

# Largest digit in the words of verify_power_decay's composition certificate.
_COMP_DIGIT_CAP = 4

_LN2 = math.log(2.0)


class PreconditionError(ValueError):
    """An argument violates a documented precondition."""


class NumericFailure(RuntimeError):
    """A numeric procedure could not produce a certified result."""


def _integer(name: str, value, least: int) -> int:
    """value as an int (any integer type, by operator.index), which must be
    at least ``least``; a PreconditionError naming the argument otherwise."""
    try:
        n = operator.index(value)
    except TypeError:
        n = None
    if n is None or n < least:
        raise PreconditionError(f"{name} must be an integer >= {least}, got {value!r}")
    return n


def _recip_power(i: int, d: float) -> float:
    """i**(-d) as a float; 0.0 on underflow, huge ints handled."""
    try:
        fi = float(i)
    except OverflowError:
        return 0.0
    r = fi ** -d
    return r if math.isfinite(r) else 0.0


@dataclass(frozen=True)
class DecaySystem:
    """A power-decaying contraction family on [0, 1].

    affine: the branch geometry, the only field.  None for the reciprocal
        shifts f_i(x) = 1/(x + i); otherwise the branch map
        (families.AffineMap) with exact rationals slope(i) and offset(i)
        at every index, f_i(x) = offset(i) + slope(i) * x.

    decay, scale, shift: the rate profile d, c, t, read off the geometry:
    (2.0, 1.0, 1) for reciprocal shifts, (d, float(C), 0) for the
    AffineMap of (C, d).  The branch rates are contract_lo(i) =
    c * (i + t)**-d and contract_hi(i) = c * i**-d, the inf and sup of
    |f_i'| over [0, 1].  verify_power_decay reads its sandwich threshold
    off (d, t) alone: the scale divides out.
    """

    affine: object = None

    @property
    def decay(self) -> float:
        return 2.0 if self.affine is None else self.affine.decay

    @property
    def scale(self) -> float:
        return 1.0 if self.affine is None else self.affine.scale

    @property
    def shift(self) -> int:
        return 1 if self.affine is None else 0

    def _check_index(self, i: int) -> None:
        if i < 1:
            raise PreconditionError(f"branch index must be >= 1, got {i}")

    def contract_lo(self, i: int) -> float:
        self._check_index(i)
        return self.scale * _recip_power(i + self.shift, self.decay)

    def contract_hi(self, i: int) -> float:
        self._check_index(i)
        return self.scale * _recip_power(i, self.decay)

    def log_contract_lo(self, i: int) -> float:
        """log contract_lo(i); stays finite at indices whose rate underflows."""
        self._check_index(i)
        return math.log(self.scale) - self.decay * math.log(i + self.shift)

    def log_contract_hi(self, i: int) -> float:
        self._check_index(i)
        return math.log(self.scale) - self.decay * math.log(i)

    def _branch(self, i: int) -> tuple:
        """Exact matrix (a, b, c, d) of branch i: f_i(x) = (a*x + b) / (c*x + d)."""
        self._check_index(i)
        if self.affine is None:
            return 0, 1, 1, i
        return self.affine.slope(i), self.affine.offset(i), 0, 1


@dataclass(frozen=True)
class CylinderInterval:
    """Image of [0,1] under the composition along a digit word.

    Endpoints are exact rationals (Fractions) for every system.  The empty
    word gives the root [0, 1].
    """

    lo: object
    hi: object
    word: Word

    @property
    def length(self):
        return self.hi - self.lo

    def contains(self, other: "CylinderInterval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def __str__(self) -> str:
        return f"C{list(self.word)} = [{self.lo}, {self.hi}]"


@dataclass(frozen=True)
class DecayReport:
    """Certificate that a system's contraction rates decay like a power.

    threshold: smallest index K such that for every k >= K
        k**(-d-eps) <= contract_lo(k)/scale and
        contract_hi(k)/scale <= k**(-d+eps), read off the rate profile.
        From index 1 on, the sandwich holds on the raw rates with the
        constants contract_lo(1) and contract_hi(1):
        contract_lo(1) * k**(-d-eps) <= contract_lo(k),
        contract_hi(k) <= contract_hi(1) * k**(-d+eps).
    comp_depth/comp_bound: uniform-contraction certificate; every
        comp_depth-fold composition with digits <= _COMP_DIGIT_CAP has
        sup over [0, 1] of |derivative| <= comp_bound < 1, the sup read
        exactly from the composition's matrix.
    """

    threshold: int
    comp_depth: int
    comp_bound: float


def _compose(system: DecaySystem, word: Word) -> tuple:
    """Matrix (a, b, c, d) of the composition along the word, which maps x
    to (a*x + b) / (c*x + d); the identity for the empty word.

    For reciprocal-shift branches the entries are the word's continuants
    (p_prev, p, q_prev, q): integers with determinant +-1.
    """
    a, b, c, d = 1, 0, 0, 1
    for i in word:
        e, f, g, h = system._branch(i)
        a, b, c, d = a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h
    return a, b, c, d


def _empty_words(system: DecaySystem, size: int, bound: int) -> tuple:
    """Level of ``size`` empty words for _append_digits.  ``bound`` is at
    least the product of (digit + 1) over each word the level grows into, so
    the continuants are int64 while 2 * bound < 2**63, Python ints past it."""
    if system.affine is not None:
        return np.zeros(size), np.zeros(size)
    ints = np.int64 if 2 * bound < 2**63 else object
    return np.zeros(size, dtype=ints), np.ones(size, dtype=ints)


def _log_rational(r: Fraction) -> float:
    """log of a positive rational, also where it underflows a float."""
    shift = max(0, r.denominator.bit_length() - r.numerator.bit_length() - 1000)
    return math.log((r.numerator << shift) / r.denominator) - shift * _LN2


def _digit_table(digits: np.ndarray, fn) -> np.ndarray:
    """[fn(j) for j in digits] as a float array, with one call of fn (on a
    Python int) per distinct digit: a presence table over min..max finds
    them in a dense int64 column, a sort in a sparse one (a sampled window)
    or in a column of Python ints."""
    if digits.dtype == np.int64 and digits.size and np.ptp(digits) < 4 * digits.size + 4096:
        lo = int(digits.min())
        shifted = digits - lo
        present = np.flatnonzero(np.bincount(shifted))
        table = np.empty(present[-1] + 1)
        table[present] = [fn(j) for j in (present + lo).tolist()]
        return table[shifted]
    uniq, inv = np.unique(digits, return_inverse=True)
    return np.array([fn(j) for j in uniq.tolist()])[inv]


def _append_digits(
    system: DecaySystem, level: tuple, digits: np.ndarray, parent=None, log_slopes=None
) -> tuple:
    """Append digits[k] to word parent[k] of a level (to word k when parent
    is None); return the children's level and their log cylinder lengths.

    A reciprocal-shift level holds the continuants (q_prev, q), and
    log|C| = -(log q + log(q + q_prev)): numpy's log of the rounded int64
    values, math.log of Python ints.  An affine level holds the sum of the
    logs of each word's exact slopes, one log per distinct digit, with its
    rounding error carried alongside (two-sum).  A caller that appends many
    blocks may pass log_slopes, the same logs at index j for every digit j
    it appends (_log_slopes), so that each is taken once.
    """
    if system.affine is None:
        q_prev, q = level
        if parent is not None:
            q = q[parent]
        # Gather q once; the child's q_prev is the parent's q.
        child = digits * q
        child += q_prev if parent is None else q_prev[parent]
        if child.dtype == object:
            pairs = zip(q.tolist(), child.tolist())
            logs = np.array([-(math.log(b) + math.log(a + b)) for a, b in pairs])
        else:
            logs = -(np.log(child) + np.log(child + q))
        return (q, child), logs
    head, err = level if parent is None else (level[0][parent], level[1][parent])
    if log_slopes is None:
        term = _digit_table(digits, lambda j: _log_rational(system.affine.slope(j)))
    else:
        term = log_slopes[digits]
    total = head + term
    back = total - head
    err = err + ((head - (total - back)) + (term - back))
    return (total, err), total + err


def _log_slopes(system: DecaySystem, cap: int):
    """log slope(j) at index j = 1..cap (index 0 unused) for an affine
    system, as _append_digits takes them; None for reciprocal shifts."""
    if system.affine is None:
        return None
    return np.array([0.0] + [_log_rational(system.affine.slope(j)) for j in range(1, cap + 1)])


def cylinder_interval(system: DecaySystem, word: Sequence[int]) -> CylinderInterval:
    """Exact image of [0,1] under the composition along ``word``.

    Endpoints are Fractions for every system.  Raises PreconditionError for
    a digit that is not an integer >= 1 or a word longer than DEPTH_CAP.
    """
    word = tuple(_integer("digit", a, 1) for a in word)
    if len(word) > DEPTH_CAP:
        raise PreconditionError(f"word depth {len(word)} exceeds the cap {DEPTH_CAP}")
    a, b, c, d = _compose(system, word)
    return CylinderInterval(*sorted((Fraction(b) / d, Fraction(a + b) / (c + d))), word)


def verify_power_decay(system: DecaySystem, eps: float) -> DecayReport:
    """Certify the power sandwich on the contraction rates and uniform
    contraction of some bounded-fold composition.

    Divided by the scale, the rates are (k + t)**-d and k**-d.  The upper
    half of the sandwich, k**-d <= k**(-d+eps), holds at every k >= 1; the
    lower half reads d * log1p(t / k) <= eps * log(k), whose left side
    falls and right side rises with k.  So threshold, the smallest k where
    it holds (by doubling, then bisection), starts a sandwich that holds at
    every k >= threshold.  From index 1 the constants are the rates at
    index 1: contract_lo(k) * k**(d + eps) rises with k and contract_hi(k) *
    k**(d - eps) falls.  The composition certificate takes the first depth
    m <= 8 at which every word with digits <= _COMP_DIGIT_CAP has
    sup |f_w'| < 1 over [0, 1].
    """
    if not 0 < eps < math.inf:
        raise PreconditionError(f"eps must be finite and > 0 (the sandwich is strict); got {eps}")

    def lower_holds(k: int) -> bool:
        return system.decay * math.log1p(system.shift / k) <= eps * math.log(k)

    # eps * log(k) grows without bound while the left side tends to 0.
    hi = 1
    while not lower_holds(hi):
        hi *= 2
    lo = hi // 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if lower_holds(mid):
            hi = mid
        else:
            lo = mid
    # A word's matrix has non-negative entries, so c*x + d is positive and
    # linear on [0, 1], and |f_w'| = |a*d - b*c| / (c*x + d)**2 is largest
    # at the endpoint where c*x + d is smallest.
    for m in range(1, 9):
        worst = 0.0
        for word in itertools.product(range(1, _COMP_DIGIT_CAP + 1), repeat=m):
            a, b, c, d = _compose(system, word)
            worst = max(worst, float(Fraction(abs(a * d - b * c)) / min(abs(d), abs(c + d)) ** 2))
            if worst >= 1.0:
                break
        if worst < 1.0:
            break
    else:
        raise NumericFailure("no composition depth m <= 8 contracts uniformly on the sample")
    return DecayReport(threshold=hi, comp_depth=m, comp_bound=worst)
