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

with l_{n+1}-1 minimal for that property.  The ladder keeps these blocks
(Phi(l_n), l_{n+1}] as its integer windows, each floor taken once, and
they drive both the mass distributions and the gap construction
downstream.  Ladder indices grow doubly exponentially for
power restrictions, so the summation runs on the certified power-sum core
rather than term by term.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import mpmath
import numpy as np

from .powersum import first_index_reaching
from .systems import DecaySystem, NumericFailure, PreconditionError, Word, verify_power_decay

# Exact integer-root evaluation applies when the exponent is a binary
# rational with denominator at most this; beyond it the adaptive route runs.
_EXACT_ROOT_DEN = 64

_GUARD_BITS = 96

# Every ladder step's index-bit budget.
_INDEX_BITS_CAP = 2_000_000

# n**alpha is formed only while the exact power n**numerator needs at most
# this many bits (twice _INDEX_BITS_CAP).  A huge exponent would otherwise
# build a power of about alpha * log2(n) bits and never finish.
_POW_BITS_CAP = 1 << 22
# The adaptive route's working precision, whose two mpmath.power calls grow
# about fourfold per doubling: one took 0.36 s at 2**16 bits and 1.5 s at
# 2**17 on a 2-core Xeon with mpmath's pure-Python backend.
_ADAPTIVE_POW_BITS_CAP = 1 << 16


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
            if self.alpha is None or not 1 < self.alpha < math.inf:
                raise PreconditionError("power restriction needs a finite exponent alpha > 1")
            # Not a field: eq, hash and repr see alpha alone.
            object.__setattr__(self, "_alpha_frac", Fraction(self.alpha))
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
        """(floor, ceil) of n**alpha, exact or precision-certified.

        Raises NumericFailure when the power needs more than _POW_BITS_CAP
        bits (_ADAPTIVE_POW_BITS_CAP on the adaptive route).
        """
        if n == 1:
            return 1, 1
        frac = self._alpha_frac
        exact_route = frac.denominator <= _EXACT_ROOT_DEN
        if exact_route:
            bits, cap = frac.numerator * n.bit_length(), _POW_BITS_CAP
        else:
            bits, cap = self.alpha * n.bit_length() + _GUARD_BITS + 64, _ADAPTIVE_POW_BITS_CAP
        if bits > cap:
            raise NumericFailure(
                f"a {n.bit_length()}-bit index to the power {self.alpha} needs "
                f"more than the {cap}-bit budget"
            )
        if exact_route:
            x = n ** frac.numerator
            r = _iroot(x, frac.denominator)
            exact = r ** frac.denominator == x
            return r, r if exact else r + 1
        # Adaptive precision: enough bits for the integer part plus guards,
        # then a confirmation pass at higher precision.
        need = int(self.alpha * n.bit_length()) + _GUARD_BITS
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
        """Smallest integer >= Phi(n)."""
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
            try:
                entries = tuple(int(line) for line in fh.read().split())
            except ValueError as e:
                raise PreconditionError(f"table {arg!r} has a non-integer entry: {e}") from e
        return Phi("table", table=entries)
    raise PreconditionError(f"unknown restriction kind {kind!r}")


@dataclass(frozen=True)
class Ladder:
    """Index ladder l_1 < l_2 < ... adapted to a system and restriction.

    values[0] is the system's decay threshold; each later value l_{n+1} is
    the minimal index whose predecessor block (Phi(l_n), l_{n+1}) carries
    unit contract_lo**(1/d - eps) mass.  windows[n - 1] is the block
    (floor(Phi(l_n)) + 1, l_{n+1}) as inclusive integer ends, one fewer
    than the values: Phi is floored once per value that has a successor
    and never at the last.  certified[n] records whether the
    minimality of step n was proven by the bracket arithmetic (always true
    in the directly summed regime; can be False once indices are so large
    that adjacent partial sums differ below bracket resolution).
    """

    eps: float
    values: tuple
    certified: tuple
    windows: tuple

    @property
    def threshold(self) -> int:
        return self.values[0]

    def __len__(self) -> int:
        return len(self.values)


def _ladder_step(n: int, start: int, coeff: float, p: float, shift: int = 0) -> tuple[int, bool]:
    """(l_{n+1}, certified) for the block starting at start = floor(Phi(l_n)) + 1:
    one crossing search for unit mass of coeff * (i + shift)**-p.  Raises
    NumericFailure at a start past _INDEX_BITS_CAP bits (the term budget)."""
    if start.bit_length() > _INDEX_BITS_CAP:
        raise NumericFailure(
            f"ladder step {n}: index near 2**{start.bit_length()} exceeds the term budget"
        )
    res = first_index_reaching(start + shift, p, 1.0 / coeff)
    return res.index - shift + 1, res.certified


def build_ladder(system: DecaySystem, phi: Phi, eps: float, steps: int) -> Ladder:
    """Construct the first ``steps`` ladder values for a system under Phi.

    l_1 is the decay threshold for this eps; each following value solves the
    minimal-index condition via certified power sums in relative form, so
    restriction shapes whose ladders grow doubly exponentially stay
    constructible: each step is one crossing search of a bounded number of
    bracket calls, whatever the size of the index (20 pow:2 steps, to
    indices near 2**1.8e6, take well under a second).  A step whose
    crossing falls inside bracket noise is marked uncertified.  Raises
    NumericFailure when an index would exceed _INDEX_BITS_CAP bits (the
    term budget).
    """
    if not 0 < eps < 1.0 / system.decay:
        raise PreconditionError(f"eps must lie in (0, 1/d); got {eps}")
    if steps < 1:
        raise PreconditionError("steps must be >= 1")
    report = verify_power_decay(system, eps)
    # contract_lo(i)**q = coeff * (i + shift)**-p by the system's rate profile.
    q = 1.0 / system.decay - eps
    coeff, p = system.scale**q, system.decay * q
    values, certified, windows = [report.threshold], [True], []
    for n in range(1, steps):
        start = phi.floor(values[-1]) + 1
        value, cert = _ladder_step(n, start, coeff, p, system.shift)
        values.append(value)
        certified.append(cert)
        windows.append((start, value))
    return Ladder(eps=eps, values=tuple(values), certified=tuple(certified), windows=tuple(windows))


def growth_ratio_bound(ladder: Ladder) -> float:
    """Max over the ladder's windows of l_{n+1} / floor(Phi(l_n)).

    Bounded as steps grow (the ladder step overshoots the restriction by at
    most a constant factor); the return value is the observed max.
    """
    if not ladder.windows:
        raise PreconditionError("growth ratio needs at least 2 ladder values")
    worst = 1.0
    for start, end in ladder.windows:
        base = start - 1
        ratio = math.inf if end.bit_length() - base.bit_length() > 512 else end / base
        worst = max(worst, ratio)
    return worst


def successor_table(phi: Phi, cap: int) -> np.ndarray:
    """Smallest digit allowed after each digit a = 0..cap, clipped to cap + 1.

    Entry 0 is 1: the empty word admits every first digit.  Entry a >= 1 is
    floor(Phi(a)) + 1, the smallest digit strictly above Phi(a).  The table
    is non-decreasing, as every Phi is.  A linear restriction whose products
    beta.numerator * a stay below 2**63 takes the closed form on int64
    arrays.  Otherwise the table costs one Phi evaluation per digit, except
    where a power restriction's a**alpha surely exceeds cap + 1: the
    logarithms decide that with a wide margin, and the entry is cap + 1
    without forming a power that a huge exponent could not afford.
    """
    if phi.kind == "lin" and phi.beta.numerator * cap < 2**63:
        num, den = phi.beta.numerator, phi.beta.denominator
        a = np.arange(1, cap + 1, dtype=np.int64)
        return np.concatenate(([1], np.minimum((num * a) // den, cap) + 1))
    log_bar = math.log(cap + 1) * (1.0 + 1e-9) + 1e-9

    def step(a: int) -> int:
        if phi.kind == "pow" and phi.alpha * math.log(a) > log_bar:
            return cap + 1
        return phi.floor(a) + 1

    return np.array([1] + [min(step(a), cap + 1) for a in range(1, cap + 1)], dtype=np.int64)


def _word_tops(nxt: np.ndarray, depth: int) -> list:
    """top[r] for r = 0..depth: the largest digit that starts a word of r
    digits under a successor table (top[0] = 0 is unused).

    top[1] is the cap, and since the table is non-decreasing, top[r] counts
    the digits a with nxt[a] <= top[r - 1].
    """
    top = [0, len(nxt) - 1]
    for _ in range(depth - 1):
        top.append(int(np.searchsorted(nxt[1:], top[-1], side="right")))
    return top


def _words_per_depth(nxt: np.ndarray, depth: int) -> list:
    """Number of admissible words of each length 1..depth under a successor
    table (``successor_table``), in Python ints (counts pass 2**53).

    One pass per length over the table: the words of length n + 1 starting
    at digit a number as many as the words of length n whose first digit is
    at least the smallest successor of a.  The pass covers only the digits
    1..top[n + 1] (``_word_tops``); a digit above it starts no such word.
    """
    top = _word_tops(nxt, depth)
    nxt = nxt.tolist()
    cap = top[1]
    # from_digit[j]: words of the current length n whose first digit is >= j,
    # for j = 0..top[n] + 1 (entry 0 is unused).  A digit a <= top[n + 1]
    # has nxt[a] <= top[n], so the pass reads only entries that exist.
    from_digit = [cap + 1 - j for j in range(cap + 2)]
    counts = [cap]
    for n in range(2, depth + 1):
        after = [from_digit[nxt[a]] for a in range(top[n], 0, -1)]
        from_digit = [0, *reversed(list(itertools.accumulate(after))), 0]
        counts.append(from_digit[1])
    return counts


def count_restricted_words(phi: Phi, depth: int, digit_cap: int) -> int:
    """Number of words ``enumerate_restricted_words`` yields, without listing them."""
    if depth < 1:
        raise PreconditionError("depth must be >= 1")
    if digit_cap < 1:
        raise PreconditionError("digit_cap must be >= 1")
    return _words_per_depth(successor_table(phi, digit_cap), depth)[-1]


def enumerate_restricted_words(phi: Phi, depth: int, digit_cap: int) -> Iterator[Word]:
    """Yield all words (a_1..a_depth) with digits <= digit_cap and
    a_{k+1} > Phi(a_k), in lexicographic order.

    The walk enters a digit only when a word of the remaining length can
    follow it: a digit at most top[r] (``_word_tops``) when r digits remain.
    So every prefix visited completes, and the walk costs at most words x
    depth steps.
    """
    if depth < 1:
        raise PreconditionError("depth must be >= 1")
    if digit_cap < 1:
        raise PreconditionError("digit_cap must be >= 1")
    table = successor_table(phi, digit_cap)
    top = _word_tops(table, depth)
    nxt = table.tolist()
    # stack[k] iterates the candidates for digit k + 1; prefix holds the
    # digits chosen above the deepest level.
    prefix: list = []
    stack = [iter(range(1, top[depth] + 1))]
    while stack:
        a = next(stack[-1], None)
        if a is None:
            stack.pop()
        elif len(stack) == depth:
            yield (*prefix, a)
        else:
            prefix[len(stack) - 1:] = [a]
            stack.append(iter(range(nxt[a], top[depth - len(stack)] + 1)))
