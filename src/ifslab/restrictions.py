"""Digit growth restrictions and the index ladder they induce.

A restriction is a function Phi with Phi(n) >= n; an infinite digit word is
admissible when every digit strictly exceeds Phi of its predecessor.  Three
shapes are supported: linear (slope beta >= 1), power (exponent alpha > 1)
and an explicit integer table.  Phi is evaluated in exact arithmetic and
floored once: linear restrictions use rational slopes, power restrictions
with a small-denominator binary exponent use exact integer roots, and the
rest fall back to adaptive-precision evaluation with guard bits.

The ladder of a system under a restriction is the index sequence
l_1 < l_2 < ... where l_1 is the system's decay threshold and l_{n+1} is
the smallest index such that the digits strictly between Phi(l_n) and
l_{n+1} already carry unit mass:

    sum_{i=floor(Phi(l_n))+1}^{l_{n+1}-1} contract_lo(i)**(1/d-eps) >= 1,

with l_{n+1}-1 minimal for that property.  Blocks (Phi(l_n), l_{n+1}]
windowed this way drive both the mass distributions and the gap
construction downstream.  Ladder indices grow doubly exponentially for
power restrictions, so the summation runs on the certified power-sum core
rather than term by term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import mpmath

from .powersum import first_index_reaching
from .systems import DecaySystem, NumericFailure, PreconditionError, Word, verify_power_decay

# Exact integer-root evaluation applies when the exponent is a binary
# rational with denominator at most this; beyond it the adaptive route runs.
_EXACT_ROOT_DEN = 64

_GUARD_BITS = 96


def _iroot(x: int, k: int) -> int:
    """Floor of the integer k-th root of x >= 0."""
    if x < 0 or k < 1:
        raise ValueError("iroot needs x >= 0, k >= 1")
    if x < 2 or k == 1:
        return x
    if k == 2:
        return math.isqrt(x)
    r = 1 << (-(-x.bit_length() // k))
    while True:
        nr = ((k - 1) * r + x // r ** (k - 1)) // k
        if nr >= r:
            break
        r = nr
    while r ** k > x:
        r -= 1
    return r


@dataclass(frozen=True)
class Phi:
    """A digit growth restriction n -> Phi(n) with Phi(n) >= n.

    kind "lin": Phi(n) = beta * n, beta a rational >= 1.
    kind "pow": Phi(n) = n ** alpha, alpha > 1.
    kind "table": Phi(n) = table[n-1], strictly increasing integers.
    """

    kind: str
    beta: Fraction | None = None
    alpha: float | None = None
    table: tuple | None = None

    def __post_init__(self):
        if self.kind == "lin":
            if self.beta is None or self.beta < 1:
                raise PreconditionError("linear restriction needs slope beta >= 1")
        elif self.kind == "pow":
            if self.alpha is None or not self.alpha > 1:
                raise PreconditionError("power restriction needs exponent alpha > 1")
        elif self.kind == "table":
            t = self.table
            if not t:
                raise PreconditionError("table restriction needs at least one entry")
            if any(t[i] >= t[i + 1] for i in range(len(t) - 1)):
                raise PreconditionError("table restriction must be strictly increasing")
            if any(t[i] < i + 1 for i in range(len(t))):
                raise PreconditionError("table restriction must satisfy Phi(n) >= n")
        else:
            raise PreconditionError(f"unknown restriction kind {self.kind!r}")

    def _pow_floor_ceil(self, n: int) -> tuple[int, int]:
        """(floor, ceil) of n**alpha, exact or precision-certified."""
        frac = Fraction(self.alpha)
        if frac.denominator <= _EXACT_ROOT_DEN:
            x = n ** frac.numerator
            r = _iroot(x, frac.denominator)
            exact = r ** frac.denominator == x
            return r, r if exact else r + 1
        # Adaptive precision: enough bits for the integer part plus guards,
        # then a confirmation pass at higher precision.
        need = int(self.alpha * max(1, n.bit_length())) + _GUARD_BITS
        with mpmath.workprec(need):
            f1 = int(mpmath.floor(mpmath.power(n, self.alpha)))
        with mpmath.workprec(need + 64):
            v = mpmath.power(n, self.alpha)
            f2 = int(mpmath.floor(v))
            exact = v == f2
        if f1 != f2:
            raise NumericFailure(
                f"floor of {n}**{self.alpha} unresolved at {need + 64} bits"
            )
        return f2, f2 if exact else f2 + 1

    def floor(self, n: int) -> int:
        """Integer part of Phi(n)."""
        if n < 1:
            raise PreconditionError("restrictions are evaluated at n >= 1")
        if self.kind == "lin":
            return (self.beta.numerator * n) // self.beta.denominator
        if self.kind == "pow":
            return self._pow_floor_ceil(n)[0]
        if n > len(self.table):
            raise PreconditionError(
                f"table restriction has {len(self.table)} entries, asked for n={n}"
            )
        return int(self.table[n - 1])

    def ceil(self, n: int) -> int:
        """Smallest integer >= Phi(n) (the non-strict successor floor)."""
        if n < 1:
            raise PreconditionError("restrictions are evaluated at n >= 1")
        if self.kind == "lin":
            return -((-self.beta.numerator * n) // self.beta.denominator)
        if self.kind == "pow":
            return self._pow_floor_ceil(n)[1]
        return int(self.table[n - 1]) if n <= len(self.table) else self.floor(n)


def parse_phi(text: str) -> Phi:
    """Parse the compact forms "lin:<beta>", "pow:<alpha>", "table:<path>"."""
    kind, sep, arg = text.partition(":")
    if not sep:
        raise PreconditionError(f"restriction spec {text!r} lacks ':'")
    if kind == "lin":
        try:
            beta = Fraction(arg)
        except (ValueError, ZeroDivisionError) as e:
            raise PreconditionError(f"bad linear slope {arg!r}") from e
        return Phi("lin", beta=beta)
    if kind == "pow":
        try:
            alpha = float(arg)
        except ValueError as e:
            raise PreconditionError(f"bad power exponent {arg!r}") from e
        return Phi("pow", alpha=alpha)
    if kind == "table":
        with open(arg) as fh:
            entries = tuple(int(line) for line in fh.read().split())
        return Phi("table", table=entries)
    raise PreconditionError(f"unknown restriction kind {kind!r}")


@dataclass(frozen=True)
class Ladder:
    """Index ladder l_1 < l_2 < ... adapted to a system and restriction.

    values[0] is the system's decay threshold; each later value l_{n+1} is
    the minimal index whose predecessor block (Phi(l_n), l_{n+1}) carries
    unit contract_lo**(1/d - eps) mass.  certified[n] records whether the
    minimality of step n was proven by the bracket arithmetic (always true
    in the directly summed regime; can be False once indices are so large
    that adjacent partial sums differ below bracket resolution).
    """

    eps: float
    values: tuple
    certified: tuple

    @property
    def threshold(self) -> int:
        return self.values[0]

    def __len__(self) -> int:
        return len(self.values)


def build_ladder(
    system: DecaySystem,
    phi: Phi,
    eps: float,
    steps: int,
    threshold_scan: int = 1000,
    max_index_bits: int = 2_000_000,
) -> Ladder:
    """Construct the first ``steps`` ladder values for a system under Phi.

    l_1 is the decay threshold for this eps; each following value solves the
    minimal-index condition via certified power sums, so restriction shapes
    whose ladders grow doubly exponentially stay constructible.  Raises
    NumericFailure when an index would exceed ``max_index_bits`` bits (the
    term budget).
    """
    if not 0 < eps < 1.0 / system.decay:
        raise PreconditionError(f"eps must lie in (0, 1/d); got {eps}")
    if steps < 1:
        raise PreconditionError("steps must be >= 1")
    report = verify_power_decay(system, eps, threshold_scan)
    # contract_lo(i)**q = coeff * (i + shift)**-p by the system's rate profile.
    q = 1.0 / system.decay - eps
    coeff, p, shift = system.scale**q, system.decay * q, system.shift
    values = [report.threshold]
    certified = [True]
    while len(values) < steps:
        prev = values[-1]
        start = phi.floor(prev) + 1
        if start.bit_length() > max_index_bits:
            raise NumericFailure(
                f"ladder step {len(values)}: index near 2**{start.bit_length()} "
                "exceeds the term budget"
            )
        res = first_index_reaching(start + shift, p, 1.0, coeff)
        crossing = res.index - shift
        values.append(crossing + 1)
        certified.append(res.certified)
    return Ladder(eps=eps, values=tuple(values), certified=tuple(certified))


def growth_ratio_bound(ladder: Ladder, phi: Phi) -> float:
    """Max over computed steps of l_{n+1} / Phi(l_n).

    Bounded as steps grow (the ladder step overshoots the restriction by at
    most a constant factor); the return value is the observed max.
    """
    if len(ladder) < 2:
        raise PreconditionError("growth ratio needs at least 2 ladder values")
    worst = 1.0
    for prev, nxt in zip(ladder.values, ladder.values[1:]):
        base = phi.floor(prev)
        if base < 1:
            base = 1
        if nxt.bit_length() - base.bit_length() > 512:
            ratio = math.inf
        else:
            ratio = nxt / base
        worst = max(worst, ratio)
    return worst


def enumerate_restricted_words(
    phi: Phi, depth: int, digit_cap: int, strict: bool = True
) -> Iterator[Word]:
    """Yield all words (a_1..a_depth) with digits <= digit_cap admissible
    under Phi, in lexicographic order.

    strict=True demands a_{k+1} > Phi(a_k) (the defining restriction);
    strict=False relaxes to a_{k+1} >= Phi(a_k).
    """
    if depth < 1:
        raise PreconditionError("depth must be >= 1")
    if digit_cap < 1:
        raise PreconditionError("digit_cap must be >= 1")

    def successor_floor(a: int) -> int:
        return phi.floor(a) + 1 if strict else phi.ceil(a)

    def rec(prefix: list, lo: int) -> Iterator[Word]:
        if len(prefix) == depth:
            yield tuple(prefix)
            return
        for a in range(lo, digit_cap + 1):
            prefix.append(a)
            yield from rec(prefix, successor_floor(a))
            prefix.pop()

    yield from rec([], 1)
