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

The admissible words under a digit cap form a tree, read from a successor
table and a ceiling per position: after digit a (0 before the first),
position k takes the digits nxt[a] .. ceilings[k - 1].  Cap ceilings give
every word up to a depth (covers), completion ceilings only the prefixes of
full-length words (listings).  One block walk visits the tree and one
forward count sizes each of its levels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np

from .powersum import first_index_reaching
from .systems import DecaySystem, NumericFailure, PreconditionError, Word, _integer
from .systems import verify_power_decay

# Exact integer-root evaluation applies when the exponent is a binary
# rational with denominator at most this; beyond it the adaptive route runs.
_EXACT_ROOT_DEN = 64

_GUARD_BITS = 96

# The word walk holds at most this many words of one length at a time,
# and at most _WALK_PATH // depth (but one at least) at any depth.
_WALK_BLOCK = 2**16
_WALK_PATH = 2**18

# The largest digit cap of a successor table (counts, listings and covers):
# at this cap a cover or a listing peaks at a few hundred MB.
_DIGIT_CAP_MAX = 2**22

# Every ladder step's index-bit budget.
_INDEX_BITS_CAP = 2_000_000

# The most steps of one ladder; a Frostman build of depth n takes n + 1.  At
# the budget a gauss lin:1 ladder (eps 0.1, values near 69 bits) took 6.3 s,
# and a lin:1 Frostman build of depth 2**16 - 1 took 21 s (2-vCPU Xeon).
_LADDER_STEPS_MAX = 2**16

# n**alpha is formed only while the exact power n**numerator needs at most
# this many bits.  A huge exponent would otherwise build a power of about
# alpha * log2(n) bits and never finish.
_POW_BITS_CAP = 2 * _INDEX_BITS_CAP
# The adaptive route's working precision, whose two mpmath.power calls grow
# about fourfold per doubling: one took 0.36 s at 2**16 bits and 1.5 s at
# 2**17 on a 2-core Xeon with mpmath's pure-Python backend.
_ADAPTIVE_POW_BITS_CAP = 1 << 16


def _iroot(x: int, k: int) -> int:
    """Floor of the integer k-th root of x >= 0, by Newton from above: by
    AM-GM no step lands below the floor, and above it each step falls."""
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
            if self._alpha_frac.denominator > _EXACT_ROOT_DEN:
                # The adaptive route's mpmath is loaded here, before any
                # forked sample block could import it once each.
                import mpmath  # noqa: F401
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
        import mpmath

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
        n = _integer("n", n, 1)
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
        n = _integer("n", n, 1)
        if self.kind == "lin":
            return -((-self.beta.numerator * n) // self.beta.denominator)
        if self.kind == "pow":
            return self._pow_floor_ceil(n)[1]
        return self.floor(n)


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
    NumericFailure past _LADDER_STEPS_MAX steps, before any step, and when
    an index would exceed _INDEX_BITS_CAP bits (the term budget).
    """
    if not 0 < eps < 1.0 / system.decay:
        raise PreconditionError(f"eps must lie in (0, 1/d); got {eps}")
    steps = _integer("steps", steps, 1)
    if steps > _LADDER_STEPS_MAX:
        raise NumericFailure(
            f"{steps} ladder steps exceed the budget of {_LADDER_STEPS_MAX} steps; lower the steps"
        )
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
    arrays.  Otherwise the table costs one Phi evaluation per digit, up to
    the first digit whose power a**alpha surely exceeds cap + 1 under a
    power restriction: the logarithms decide that with a wide margin, and
    that entry and every later one is cap + 1, without forming a power that
    a huge exponent could not afford.  A cap past _DIGIT_CAP_MAX raises
    NumericFailure before anything is allocated.
    """
    cap = _integer("digit_cap", cap, 1)
    if cap > _DIGIT_CAP_MAX:
        raise NumericFailure(
            f"digit cap {cap} exceeds the budget of {_DIGIT_CAP_MAX} digits; lower the cap"
        )
    if phi.kind == "lin" and phi.beta.numerator * cap < 2**63:
        num, den = phi.beta.numerator, phi.beta.denominator
        a = np.arange(1, cap + 1, dtype=np.int64)
        return np.concatenate(([1], np.minimum((num * a) // den, cap) + 1))
    log_bar = math.log(cap + 1) * (1.0 + 1e-9) + 1e-9
    table = np.full(cap + 1, cap + 1, dtype=np.int64)
    table[0] = 1
    for a in range(1, cap + 1):
        if phi.kind == "pow" and phi.alpha * math.log(a) > log_bar:
            break
        table[a] = min(phi.floor(a) + 1, cap + 1)
    return table


def _longest_word(nxt: np.ndarray, depth: int) -> int:
    """Length of the longest admissible word under the cap, or depth if that
    is less: the chain 1, nxt[1], nxt[nxt[1]], ... while it stays at most
    the cap, followed at most depth steps.  The table is non-decreasing, so
    the chain's k-th digit is at most the k-th digit of any admissible word,
    and no word outlasts it."""
    cap, digit, length = len(nxt) - 1, 0, 0
    while length < depth and nxt[digit] <= cap:
        digit, length = int(nxt[digit]), length + 1
    return length


def _completion_ceilings(nxt: np.ndarray, depth: int) -> list:
    """The largest digit at positions 1..depth of a word of depth digits: the
    cap at the last, and since the table is non-decreasing, at position k
    the largest a whose successor is at most the ceiling of position k + 1."""
    succ, ceilings = nxt[1:], [len(nxt) - 1]
    for _ in range(depth - 1):
        ceilings.append(int(succ.searchsorted(ceilings[-1], side="right")))
    return ceilings[::-1]


def _level_counts(nxt: np.ndarray, ceilings: list) -> Iterator[int]:
    """Number of words of each length that ``_walk`` visits, lazily and in
    exact ints.  A pass holds the count of words ending in each digit
    lo..ceiling, from lo = 0 (the empty word) to nxt[lo] at the next length.
    A word ending in a extends by b when nxt[a] <= b, that is when a is at
    most reach(b), the number of digits whose successor is at most b; so the
    next pass is this one's prefix sums gathered at reach(b).  Each
    entry counts a word, so a pass costs at most the count it yields.
    Entries are int64 while the count times the next width is below 2**63.
    """
    succ, lo, ends, total = nxt[1:], 0, np.ones(1, dtype=np.int64), 1
    for top, ceiling in zip([0, *ceilings], ceilings):
        if total:
            first = int(nxt[lo])
            reach = succ.searchsorted(np.arange(first, ceiling + 1), side="right")
            if ends.dtype != object and total * reach.size >= 2**63:
                ends = ends.astype(object)
            ends = ends.cumsum()[np.minimum(reach, top) - lo]
            lo, total = first, int(ends.sum())
        yield total


def _children(nxt: np.ndarray, ceiling: int, last: np.ndarray, block: int) -> Iterator[tuple]:
    """Blocks of at most ``block`` children of the words ending in
    ``last``, as (parent, digits) arrays in lexicographic order.  Parent p
    holds the child indices start[p] .. end[p] - 1, one per digit
    nxt[last[p]] .. ceiling, and a block is a range of child indices, so it
    splits a parent with more children than a block too."""
    first = nxt[last]
    counts = ceiling + 1 - first
    end = counts.cumsum()
    start = end - counts
    # The digit of child c is c - base[p].
    base = start - first
    total = int(end[-1])
    for lo in range(0, total, block):
        hi = min(lo + block, total)
        p0, p1 = end.searchsorted((lo, hi - 1), side="right")
        # The children of parents p0..p1 inside the block.
        span = np.minimum(end[p0 : p1 + 1], hi) - np.maximum(start[p0 : p1 + 1], lo)
        parent = np.repeat(np.arange(p0, p1 + 1), span)
        yield parent, np.arange(lo, hi) - base[parent]


def _walk(nxt: np.ndarray, ceilings: list) -> Iterator[list]:
    """Depth-first walk over the word tree, in lexicographic order; yields the
    path, one list changed in place, each time it gains a block.  path[k]
    is a (parent, digits) block of words of length k + 1, parent indexing
    the words of path[k - 1].  A digit up to a ceiling must have its
    successor at most one past the next ceiling, as under cap and
    completion ceilings."""
    size = max(1, min(_WALK_BLOCK, _WALK_PATH // len(ceilings)))
    stack, path = [_children(nxt, ceilings[0], np.zeros(1, dtype=np.int64), size)], []
    while stack:
        block = next(stack[-1], None)
        if block is None:
            stack.pop()
            continue
        path[len(stack) - 1 :] = [block]
        yield path
        if len(stack) < len(ceilings):
            stack.append(_children(nxt, ceilings[len(stack)], block[1], size))


def count_restricted_words(phi: Phi, depth: int, digit_cap: int) -> int:
    """Number of words ``enumerate_restricted_words`` yields: its walk's last
    level count, and 0 past the longest word under the cap."""
    nxt = successor_table(phi, digit_cap)
    depth = _integer("depth", depth, 1)
    if _longest_word(nxt, depth) < depth:
        return 0
    *_, count = _level_counts(nxt, _completion_ceilings(nxt, depth))
    return count


def enumerate_restricted_words(phi: Phi, depth: int, digit_cap: int) -> Iterator[Word]:
    """Yield all words (a_1..a_depth) with digits <= digit_cap and
    a_{k+1} > Phi(a_k), in lexicographic order: the full-length blocks of
    ``_walk`` under completion ceilings, so every prefix it enters
    completes, each word read back along its block's parent chain.  Its
    memory is the walk's path, at most _WALK_PATH words at any depth.  Past
    the longest word under the cap it yields nothing, at once."""
    nxt = successor_table(phi, digit_cap)
    depth = _integer("depth", depth, 1)
    if _longest_word(nxt, depth) < depth:
        return
    for path in _walk(nxt, _completion_ceilings(nxt, depth)):
        if len(path) == depth:
            columns, rows = [], slice(None)
            for parent, digits in reversed(path):
                columns.append(digits[rows].tolist())
                rows = parent[rows]
            yield from zip(*reversed(columns))
