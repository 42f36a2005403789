"""Core types for infinite contraction systems on [0, 1].

A system is a countable family of C1 maps f_i: [0,1] -> [0,1] with disjoint
open images, whose derivative magnitudes are sandwiched per branch,

    contract_lo(i) <= |f_i'(x)| <= contract_hi(i),

and decay like a power of the branch index.  Every supported kind has the
same rate profile, held as data on the system: a leading constant c, an
exponent d > 1 and an index shift t >= 0 with

    c * (i + t)**-d = contract_lo(i) <= contract_hi(i) = c * i**-d,

plus a bounded-distortion constant D: appending a branch to a composition
scales the cylinder length by at most D * contract_hi(i).  Three kinds are
supported: the reciprocal-shift family f_i(x) = 1/(x + i)
("gauss"; c = 1, d = 2, t = 1, D = 2), a right-to-left tiling by affine
maps with ratio c * i**(-d) ("linear-power"), and affine families with
explicit gaps between consecutive images ("gap"); both affine kinds have
t = 0 and D = 1.

Cylinder intervals (images of [0,1] under finite compositions) are computed
exactly: continuant recursion over big integers for the reciprocal family,
exact rational affine composition for the linear kinds.  The gap kind
stores offsets in extended precision and rounds endpoints outward to
floats.  Keeping this arithmetic exact removes rounding as a confounder in
every downstream test.

All types are immutable after construction and all operations are pure.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

Word = tuple[int, ...]

DEPTH_CAP = 64

# Linear products below this switch the caller to the log-domain fields.
FLOAT_FLOOR = 1e-300


class PreconditionError(ValueError):
    """An argument violates a documented precondition."""


class NumericFailure(RuntimeError):
    """A numeric procedure could not produce a certified result."""


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

    kind: "gauss", "linear-power" or "gap".
    decay, scale, shift: the rate profile d, c, t; the branch rates are
        contract_lo(i) = c * (i + t)**-d and contract_hi(i) = c * i**-d,
        the inf and sup of |f_i'| over [0, 1].  verify_power_decay divides
        the scale out before applying the unit-constant sandwich.
    distortion: bounded-distortion constant D; appending branch i to a
        composition scales the cylinder length by at most
        D * contract_hi(i) (2 for gauss, 1 for the affine kinds).
    index_limit: largest branch index realized (None = unbounded on demand;
        the gap kind carries a finite table).
    affine: for the affine kinds, i -> (offset, slope) with
        f_i(x) = offset + slope * x; None for gauss.
    """

    kind: str
    decay: float
    scale: float = 1.0
    shift: int = 0
    distortion: float = 1.0
    index_limit: int | None = None
    affine: Callable[[int], tuple] | None = field(default=None, repr=False)

    def _check_index(self, i: int) -> None:
        if i < 1:
            raise PreconditionError(f"branch index must be >= 1, got {i}")
        if self.index_limit is not None and i > self.index_limit:
            raise PreconditionError(
                f"branch index {i} exceeds the available map table (limit {self.index_limit})"
            )

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

    def map_eval(self, i: int, x):
        """f_i(x).  Exact when x is a Fraction and the kind is exact."""
        self._check_index(i)
        if self.affine is None:
            if isinstance(x, Fraction) or isinstance(x, int):
                return Fraction(1, 1) / (x + i)
            return 1.0 / (x + i)
        off, slope = self.affine(i)
        if not isinstance(x, (Fraction, int)):
            off, slope = float(off), float(slope)
        return off + slope * x

    def map_deriv(self, i: int, x) -> float:
        """f_i'(x) as a float (sign included)."""
        self._check_index(i)
        if self.affine is None:
            return -1.0 / float(x + i) ** 2
        _, slope = self.affine(i)
        return float(slope)


@dataclass(frozen=True)
class CylinderInterval:
    """Image of [0,1] under the composition along a digit word.

    Endpoints are exact rationals for the exact kinds, outward-rounded
    floats for the gap kind.  The empty word gives the root [0, 1].
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
class LengthBounds:
    """Product bounds on a cylinder length with an underflow guard.

    lo/hi are the linear-domain products of the per-digit contraction
    bounds (0.0 once they drop below the float floor); log_lo/log_hi carry
    the same bounds in log domain and never underflow.
    """

    lo: float
    hi: float
    log_lo: float
    log_hi: float

    @property
    def underflowed(self) -> bool:
        return self.lo < FLOAT_FLOOR


@dataclass(frozen=True)
class DecayReport:
    """Certificate that a system's contraction rates decay like a power.

    threshold: smallest index K such that for every checked k >= K
        k**(-d-eps) <= contract_lo(k)/scale and
        contract_hi(k)/scale <= k**(-d+eps).
    coeff_lo/coeff_hi: constants making the sandwich valid from index 1 on
        the raw (unscaled) bounds:
        coeff_lo * k**(-d-eps) <= contract_lo(k),
        contract_hi(k) <= coeff_hi * k**(-d+eps).
    comp_depth/comp_bound: uniform-contraction certificate; every sampled
        comp_depth-fold composition had |derivative| <= comp_bound < 1.
    """

    eps: float
    threshold: int
    coeff_lo: float
    coeff_hi: float
    comp_depth: int
    comp_bound: float
    checked_to: int


def _gauss_continuants(word: Word) -> tuple[int, int, int, int]:
    """Numerator/denominator recursion for reciprocal-shift compositions.

    Returns (p_prev, p, q_prev, q) such that the composition along the word
    maps x to (p_prev*x + p) / (q_prev*x + q); all integers, gcd-free.
    """
    p_prev, p = 1, 0
    q_prev, q = 0, 1
    for a in word:
        p_prev, p = p, a * p + p_prev
        q_prev, q = q, a * q + q_prev
    return p_prev, p, q_prev, q


def _round_out(lo, hi) -> tuple[float, float]:
    """Outward-round extended-precision endpoints to floats."""
    lo_f, hi_f = float(lo), float(hi)
    if lo_f > lo:
        lo_f = math.nextafter(lo_f, -math.inf)
    if hi_f < hi:
        hi_f = math.nextafter(hi_f, math.inf)
    return lo_f, hi_f


def _compose_ends(system: DecaySystem, word: Word) -> tuple:
    """Images of 0 and 1 under the composition along a non-empty word.

    Exact Fractions for the exact kinds, extended precision for the gap
    kind.
    """
    if system.affine is None:
        p_prev, p, q_prev, q = _gauss_continuants(word)
        return Fraction(p, q), Fraction(p_prev + p, q_prev + q)
    # Affine composition: offset/slope accumulate left to right.
    off, slope = None, None
    for a in word:
        system._check_index(a)
        o_a, s_a = system.affine(a)
        if off is None:
            off, slope = o_a, s_a
        else:
            off, slope = off + slope * o_a, slope * s_a
    return off, off + slope


def cylinder_interval(system: DecaySystem, word: Sequence[int], depth_cap: int = DEPTH_CAP) -> CylinderInterval:
    """Exact image of [0,1] under the composition along ``word``.

    Endpoints are Fractions for the exact kinds and outward-rounded floats
    for the gap kind.  Raises PreconditionError for bad digits or words
    longer than ``depth_cap``.
    """
    word = tuple(int(a) for a in word)
    if len(word) > depth_cap:
        raise PreconditionError(f"word depth {len(word)} exceeds the cap {depth_cap}")
    for a in word:
        if a < 1:
            raise PreconditionError(f"digits must be >= 1, got {a}")
    if not word:
        return CylinderInterval(Fraction(0), Fraction(1), word)
    lo, hi = _compose_ends(system, word)
    if lo > hi:
        lo, hi = hi, lo
    if isinstance(lo, Fraction):
        return CylinderInterval(lo, hi, word)
    lo_f, hi_f = _round_out(lo, hi)
    return CylinderInterval(lo_f, hi_f, word)


def cylinder_length_bounds(system: DecaySystem, word: Sequence[int]) -> LengthBounds:
    """Bracket the cylinder length by products of per-digit contraction bounds.

    The true length lies in [prod contract_lo, prod contract_hi].  The
    log-domain fields remain informative when the linear products underflow.
    """
    word = tuple(int(a) for a in word)
    if not word:
        raise PreconditionError("length bounds need a non-empty word")
    lo = 1.0
    hi = 1.0
    log_lo = 0.0
    log_hi = 0.0
    for a in word:
        lo *= system.contract_lo(a)
        hi *= system.contract_hi(a)
        log_lo += system.log_contract_lo(a)
        log_hi += system.log_contract_hi(a)
    return LengthBounds(lo, hi, log_lo, log_hi)


def project_point(system: DecaySystem, word: Sequence[int]):
    """Image of 1 under the composition along ``word``, with an error bound.

    The point approximates the projection of every infinite digit sequence
    extending the word; the cylinder length bounds the truncation error.
    """
    word = tuple(int(a) for a in word)
    if not word:
        raise PreconditionError("projection needs a non-empty word")
    cyl = cylinder_interval(system, word)
    point = _compose_ends(system, word)[1]
    if not isinstance(point, Fraction):
        point = float(point)
    return point, cyl.length


def _composite_deriv_sup(system: DecaySystem, word: Word, grid: Sequence[float]) -> float:
    """Max over grid points of |(f_w1 o ... o f_wm)'(x)| by the chain rule."""
    best = 0.0
    for x0 in grid:
        # orbit from the innermost map outward
        pts = [x0]
        for a in reversed(word[1:]):
            pts.append(float(system.map_eval(a, pts[-1])))
        pts.reverse()
        # pts[k] is the argument fed to map word[k]
        d = 1.0
        for a, x in zip(word, pts):
            d *= abs(system.map_deriv(a, x))
        best = max(best, d)
    return best


def verify_power_decay(system: DecaySystem, eps: float, i_max: int, comp_digit_cap: int = 4) -> DecayReport:
    """Certify the power sandwich on the contraction rates and uniform
    contraction of some bounded-fold composition.

    threshold is the smallest K <= i_max with, for all K <= k <= i_max,
    k**(-d-eps) <= contract_lo(k)/scale and contract_hi(k)/scale <=
    k**(-d+eps).  The fitted coeff_lo/coeff_hi make the raw sandwich valid
    from index 1.  The composition certificate searches depths m = 1..8
    over all words with digits <= comp_digit_cap, evaluating composite
    derivatives at grid points {0, 1/2, 1}; for the supported kinds the
    supremum is attained inside this sample.
    """
    if eps <= 0:
        raise PreconditionError("eps must be > 0 (the sandwich is strict)")
    if i_max < 2:
        raise PreconditionError("i_max must be >= 2")
    d = system.decay
    top = i_max if system.index_limit is None else min(i_max, system.index_limit)
    scale = system.scale
    threshold = None
    for k in range(top, 0, -1):
        lo_ok = system.contract_lo(k) / scale >= k ** (-d - eps)
        hi_ok = system.contract_hi(k) / scale <= k ** (-d + eps)
        if lo_ok and hi_ok:
            threshold = k
        else:
            break
    if threshold is None:
        raise NumericFailure(
            f"power sandwich with eps={eps} holds nowhere up to {top}; "
            "the system does not decay at this exponent/tolerance"
        )
    coeff_lo = min(system.contract_lo(k) * k ** (d + eps) for k in range(1, top + 1))
    coeff_hi = max(system.contract_hi(k) * k ** (d - eps) for k in range(1, top + 1))
    # Uniform contraction of m-fold compositions for some m <= 8.
    grid = (0.0, 0.5, 1.0)
    digit_cap = comp_digit_cap if system.index_limit is None else min(comp_digit_cap, system.index_limit)
    comp_depth = None
    comp_bound = None
    for m in range(1, 9):
        worst = 0.0
        for word in itertools.product(range(1, digit_cap + 1), repeat=m):
            worst = max(worst, _composite_deriv_sup(system, word, grid))
            if worst >= 1.0:
                break
        if worst < 1.0:
            comp_depth, comp_bound = m, worst
            break
    if comp_depth is None:
        raise NumericFailure("no composition depth m <= 8 contracts uniformly on the sample")
    return DecayReport(
        eps=eps,
        threshold=threshold,
        coeff_lo=coeff_lo,
        coeff_hi=coeff_hi,
        comp_depth=comp_depth,
        comp_bound=comp_bound,
        checked_to=top,
    )
