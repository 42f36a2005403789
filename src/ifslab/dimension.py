"""Dimension machinery: roots of truncated pressure equations, restricted
cover sums, box-counting regression, and the closed-form prediction table.

The pressure root s solves sum_{i=k}^{m} r_i**s = 1 for a finite band of
contraction ratios r_i = scale * (i + t)**-decay.  Each evaluation of that
sum is scale**s times one certified power-sum bracket, so it costs the same
at any band width.  Safeguarded Newton steps on its log, kept inside a
bracket whose ends are both certified, find the root in a few evaluations.
Cover sums aggregate |cylinder|**s over restriction-admissible words by
one backward transfer recursion that holds each partial sum as a Chebyshev
interpolant in the continuant ratio, with exact enumeration on the word
walk of restrictions, budgeted by its level counts, as its oracle; both
carry an explicit truncation bound for the discarded digits above the cap.
Box counting follows the usual occupied-grid regression with the scale
window trimmed to its middle part.
"""

import functools
import itertools
import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .restrictions import Phi, _level_counts, _longest_word, _walk, successor_table
from .powersum import _EM_HEAD, _LN2, _ULP, power_sum_brackets
from .systems import (
    DecaySystem,
    NumericFailure,
    PreconditionError,
    _append_digits,
    _empty_words,
    _integer,
    _log_slopes,
)

# Most pressure evaluations one root may take.
_BOWEN_MAX_ITER = 256

# Exact enumeration refuses more words than this (over all depths), which
# bounds its time; the word walk's blocks bound its memory.
_EXACT_WORD_BUDGET = 2**21

# Box counting forms the grid cells of this many sorted points at a time.
_BOX_BLOCK = 2**16

# Chebyshev nodes that hold the continuant ratio in the Gauss transfer
# program, and the largest digit cap it accepts.
_RATIO_NODES = 16
_GAUSS_DP_CAP = 20_000

# Digits past this one read the Gauss state as Taylor polynomials of this
# many terms at r = 0, not by Clenshaw's recurrence.
_TAIL_DIGIT = 1024
_TAIL_TERMS = 6


class TailWarning(UserWarning):
    """A digit-cap truncation bound exceeded 1% of a cover sum."""


class ScaleWarning(UserWarning):
    """A box-count input falls short of the advisory sampling bar."""


@dataclass(frozen=True)
class DimensionEstimate:
    """A dimension value with its method tag and a bracket around it.

    value lies in [0, 1] (the ambient space is an interval); bracket
    always contains value.  Raw regression or bisection output that fell
    outside [0, 1] is preserved in diagnostics before clipping.
    """

    value: float
    method: str
    bracket: tuple
    diagnostics: dict = field(default_factory=dict)


def _clip_unit(x: float) -> float:
    return min(max(x, 0.0), 1.0)


def _estimate(value, method, lo, hi, diagnostics) -> DimensionEstimate:
    v = _clip_unit(value)
    lo = min(_clip_unit(lo), v)
    hi = max(_clip_unit(hi), v)
    return DimensionEstimate(value=v, method=method, bracket=(lo, hi), diagnostics=diagnostics)


def _power_pressure(system: DecaySystem, start: int, stop: int, s: float) -> tuple:
    """(scale**s, bracket of sum_{i=start}^{stop} i**(-decay * s)).

    Their product is the pressure sum of (scale * i**-decay)**s over the
    band, so one evaluation costs one certified power-sum bracket at any
    band width.  At decay * s = 0 the sum is the number of terms, which
    power_sum_brackets refuses.
    """
    factor = math.exp(s * math.log(system.scale))
    p = system.decay * s
    if p == 0:
        n = float(stop - start + 1)
        return factor, (math.nextafter(n, 0.0), math.nextafter(n, math.inf))
    return factor, power_sum_brackets(start, stop, p)


def _tilted_mean(c: float) -> float:
    """Mean of x in [0, 1] under the density proportional to exp(c * x)."""
    if abs(c) < 1e-3:
        return 0.5 + c / 12.0
    if c < 0:
        return 1.0 - _tilted_mean(-c)
    return -1.0 / math.expm1(-c) - 1.0 / c


def _mean_log(start: int, stop: int, p: float, total: float) -> float:
    """Mean of log i over start..stop under the weights i**-p, whose sum is
    about total: minus the p-derivative of log sum_i i**-p.

    Bands of at most 4 * _EM_HEAD terms sum it directly, with the weights
    taken relative to the first so that none underflows.  Longer ones sum
    the first _EM_HEAD terms directly and give the rest the mean of the
    midpoint integral of x**-p over [start + _EM_HEAD - 1/2, stop + 1/2]:
    with x = exp(y), a density proportional to exp((1 - p) * y) on an
    interval of y, whose mean is closed-form.
    """
    if stop - start < 4 * _EM_HEAD:
        logs = [math.log(i) for i in range(start, stop + 1)]
        weights = [math.exp(-p * (x - logs[0])) for x in logs]
        return math.fsum(map(float.__mul__, logs, weights)) / math.fsum(weights)
    logs = [math.log(i) for i in range(start, start + _EM_HEAD)]
    terms = [math.exp(-p * x) for x in logs]
    a, b = 2 * (start + _EM_HEAD) - 1, 2 * stop + 1
    # log(b / a) without the cancellation of two close logs.
    width = math.log1p((b - a) / a) if b < 4 * a else math.log(b) - math.log(a)
    tail = math.log(a) - _LN2 + width * _tilted_mean((1.0 - p) * width)
    # The tail holds the mass total - sum(terms), with mean `tail`.
    return tail + (math.fsum(map(float.__mul__, logs, terms)) - math.fsum(terms) * tail) / total


def _pressure_root(system: DecaySystem, start: int, stop: int, tol: float) -> DimensionEstimate:
    """Root of P(s) = sum_{i=start}^{stop} (scale * i**-decay)**s = 1, down to
    a certified bracket of P inside [1 - tol, 1 + tol].

    Each evaluation is one _power_pressure bracket, widened by a few ulps
    for the rounding of scale**s and of decay * s.  With every ratio below
    1, log P is convex and decreasing.  So a Newton step on log P, taken
    at the bracket's midpoint with the slope mean(log r_i) from _mean_log,
    lands near the root, and one that would leave the kept bracket (P >= 1
    certified at its lower end, P <= 1 at its upper end) falls back to the
    midpoint.  A P bracket that straddles 1 moves neither end: when it is
    wider than 2 * tol no s can reach tol, and when it is narrower the
    Newton step centres it on 1.  Once it is within tol, the bracket of s
    closes on each side that s does not certify, by one evaluation at the
    distance where the tangent puts P past 1 by tol; the distance doubles
    until that end is certified.  iterations counts the evaluations.
    """
    log_scale = math.log(system.scale)
    decay = system.decay
    if decay < 0:
        raise PreconditionError("pressure root needs rates that fall with the index (decay >= 0)")
    # The rates fall with the index: the last two are the smallest, the first the largest.
    if start == stop or log_scale - decay * math.log(stop - 1) >= 0:
        raise PreconditionError("pressure root needs at least two contracting ratios")
    log_top = log_scale - decay * math.log(start)
    if log_top >= 0:
        raise NumericFailure("pressure sum stays above 1 at every s; a ratio >= 1 is present")
    evals = 0

    def pressure(s: float) -> tuple:
        nonlocal evals
        evals += 1
        if evals > _BOWEN_MAX_ITER:
            raise NumericFailure(f"pressure root not found in {_BOWEN_MAX_ITER} evaluations")
        factor, (b_lo, b_hi) = _power_pressure(system, start, stop, s)
        p = decay * s
        spread = (4.0 + 2.0 * abs(s * log_scale) + p * math.log(stop)) * _ULP
        return factor * b_lo * (1.0 - spread), factor * b_hi * (1.0 + spread), 0.5 * (b_lo + b_hi)

    def log_slope(s: float, total: float) -> float:
        # The mean of log r_i is at most the largest of them, which is below 0.
        return min(log_scale - decay * _mean_log(start, stop, decay * s, total), log_top)

    # P(0) is the number of terms, at least 2; P(inf) is 0.
    lo, hi = 0.0, math.inf
    s = 1.0
    while True:
        p_lo, p_hi, total = pressure(s)
        val = 0.5 * (p_lo + p_hi)
        if 1.0 - tol <= p_lo and p_hi <= 1.0 + tol:
            break
        if p_lo >= 1.0:
            lo = s
        elif p_hi <= 1.0:
            hi = s
        elif p_hi - p_lo > 2.0 * tol:
            raise NumericFailure(f"pressure residual never reached tol {tol}")
        newton = 0.0 < p_lo and p_hi < math.inf
        step = s - math.log(val) / log_slope(s, total) if newton else math.nan
        if lo < step < hi:
            s = step
        else:
            s = 0.5 * (lo + hi) if hi < math.inf else 2.0 * lo
        if not lo < s < hi:
            raise NumericFailure(f"pressure residual never reached tol {tol}")
    dist = (abs(val - 1.0) + tol) / -log_slope(s, total)

    def close(side: float) -> float:
        """The nearest s + side * dist * 2**j certified on its side of the root."""
        step = dist
        while True:
            # P(0) is at least 2, so the far end never needs to pass 0.
            far = max(s + side * step, 0.0)
            f_lo, f_hi, _ = pressure(far)
            if (f_lo >= 1.0) if side < 0 else (f_hi <= 1.0):
                return far
            step *= 2.0

    lo = s if p_lo >= 1.0 else close(-1.0)
    hi = s if p_hi <= 1.0 else close(1.0)
    diag = {
        "residual": val - 1.0,
        "iterations": evals,
        "terms": stop - start + 1,
        "raw_root": s,
    }
    return _estimate(s, "bowen-root", lo, hi, diag)


def _check_band(k: int, m: int, tol: float) -> tuple:
    """Preconditions of a pressure root over the band k..m; (k, m) as ints."""
    k, m = _integer("k", k, 0), _integer("m", m, 0)
    if k < 1 or k > m:
        raise PreconditionError(f"need 1 <= k <= m, got k={k}, m={m}")
    if not 0 < tol < 1:
        raise PreconditionError(f"tol must be positive and below 1, got {tol}")
    return k, m


def _log_rates(system: DecaySystem, lo: int, hi: int) -> np.ndarray:
    """log(scale) - decay * log(i) at i = lo..hi: log contract_hi(i), formed
    without the rate itself, so it stays finite where the rate underflows."""
    return math.log(system.scale) - system.decay * np.log(np.arange(lo, hi + 1, dtype=float))


def bowen_root(
    system: DecaySystem, bound_kind: str, k: int, m: int, tol: float = 1e-10
) -> DimensionEstimate:
    """Root of sum_{i=k}^{m} r_i**s = 1 for the chosen rate bound:
    contract_lo (xi) or contract_hi (lambda)."""
    k, m = _check_band(k, m, tol)
    if bound_kind == "xi":
        t = system.shift
    elif bound_kind == "lambda":
        t = 0
    else:
        raise PreconditionError(f"bound_kind must be 'xi' or 'lambda', got {bound_kind!r}")
    return _pressure_root(system, k + t, m + t, tol)


def subsystem_dim_bounds(
    system: DecaySystem, k: int, m: int, tol: float = 1e-10
) -> tuple:
    """(lower, upper) pressure-root estimates from the two rate bounds: the
    xi and lambda Bowen roots of the band k..m.  The upper bound is capped
    at 1 (and flagged) when the upper rates include a non-contracting
    ratio, as they do for the first Gauss map.
    """
    lower = bowen_root(system, "xi", k, m, tol)
    if math.log(system.scale) - system.decay * math.log(k) >= 0:
        upper = DimensionEstimate(
            value=1.0,
            method="bowen-root",
            bracket=(lower.value, 1.0),
            diagnostics={"capped": True, "terms": lower.diagnostics["terms"]},
        )
    else:
        upper = bowen_root(system, "lambda", k, m, tol)
    return lower, upper


def _exact_depth_sums(system, nxt, depth, s):
    """Exact enumeration: per-depth totals of |cylinder|**s.

    Each block of the word walk (restrictions._walk) extends the kernel
    level of its parent block by systems._append_digits, which forms each
    word's log cylinder length.  It holds one level per block of the
    walk's path, _WALK_PATH words at most.  A block keeps its peak log term
    and the sum of its terms scaled by it; a depth's total is
    exp(top) * fsum(sum_b * exp(peak_b - top)), top the largest peak, and
    0.0 at an empty depth.  Continuants are bounded by (cap + 1)**depth.
    """
    cap = len(nxt) - 1
    acc = [[] for _ in range(depth)]
    # Depth 1 takes every digit, so each affine log slope is taken once.
    append = functools.partial(_append_digits, system, log_slopes=_log_slopes(system, cap))
    # levels[k]: the kernel level of the current block of words of length k,
    # from the empty word.
    levels = [_empty_words(system, 1, (cap + 1) ** depth)]
    for path in _walk(nxt, [cap] * depth):
        n = len(path)
        parent, digits = path[-1]
        level, arr = append(levels[n - 1], digits, parent)
        levels[n:] = [level]
        # In place, as a block holds up to _WALK_BLOCK words.
        arr *= s
        peak = arr.max()
        arr -= peak
        acc[n - 1].append((peak, np.exp(arr, out=arr).sum()))
    totals = []
    for blocks in acc:
        top = max((peak for peak, _ in blocks), default=-math.inf)
        totals.append(math.exp(top) * math.fsum(t * math.exp(p - top) for p, t in blocks))
    return totals


def _chebyshev_grid(m):
    """m Chebyshev-Lobatto nodes on [0, 1], rising from 0, and the matrix
    that takes values there to coefficients in T_c(2r - 1) (Trefethen,
    Approximation Theory and Approximation Practice, chapter 3).  Node i
    sits at 2r - 1 = -cos(theta_i); one node holds a constant."""
    if m == 1:
        return np.zeros(1), np.ones((1, 1))
    theta = np.pi * np.arange(m) / (m - 1)
    fit = np.cos(np.outer(np.arange(m), np.pi - theta)) * (2.0 / (m - 1))
    fit[:, [0, -1]] *= 0.5
    fit[[0, -1]] *= 0.5
    return np.sin(0.5 * theta) ** 2, fit


@functools.cache
def _tail_fit(m):
    """_TAIL_TERMS x m matrix that takes values at the m nodes of
    _chebyshev_grid to the Taylor coefficients at r = 0 of their
    interpolant.  It is the fit times the derivatives there of the basis,
    2**i T_c^(i)(-1) / i! with T_c^(i)(-1) = (-1)**(c + i) times the product
    of (c**2 - k**2) / (2k + 1) over k < i, summed exactly and rounded once
    (a float product would add a few ulps to every tail value).  Built on
    first use and read-only."""
    fit = [[Fraction(v) for v in row] for row in _chebyshev_grid(m)[1].tolist()]
    rows = np.empty((_TAIL_TERMS, m))
    for i in range(_TAIL_TERMS):
        deriv = []
        for c in range(m):
            v = Fraction((-2) ** i * (-1) ** c, math.factorial(i))
            for k in range(i):
                v *= Fraction(c * c - k * k, 2 * k + 1)
            deriv.append(v)
        for n in range(m):
            rows[i, n] = sum(d * fit[c][n] for c, d in enumerate(deriv))
    rows.setflags(write=False)
    return rows


def _clenshaw(g, t, t2, bufs):
    """Chebyshev series with coefficient rows g at the points t (t2 = 2t), by
    Clenshaw's recurrence in three buffers shaped like t; returns the buffer
    that holds the values."""
    # b_c = 2t b_{c+1} - b_{c+2} + g_c down to c = 1, then t b_1 - b_2 + g_0.
    val, b1, b2 = bufs
    b1[:], b2[:] = g[-1], 0.0
    for c in range(len(g) - 2, -1, -1):
        np.multiply(t2 if c else t, b1, out=val)
        val -= b2
        val += g[c]
        val, b1, b2 = b2, val, b1
    return b1


def _horner(a, x, out):
    """Polynomial with coefficient rows a, constant term first, at the points
    x, by Horner's rule into out (shaped like x); returns out."""
    np.multiply(a[-1], x, out=out)
    for c in range(len(a) - 2, 0, -1):
        out += a[c]
        out *= x
    out += a[0]
    return out


def _transfer_depth_sums(system, nxt, depth, s):
    """Per-depth totals of |cylinder|**s by one backward transfer recursion.

    A continued-fraction word with continuants (q_prev, q) has |cylinder|
    = q**-2 / (1 + r), r = q_prev/q; digit j multiplies q by j + r and
    renews r to 1/(j + r), from r = 0.  An affine branch scales by
    contract_hi(j) and keeps r = 0.  With w(j, r) = (j + r)**-2 or
    contract_hi(j), F_0(r) = (1 + r)**-s and

        F_k(a, r) = sum_{j=a..cap} w(j, r)**s * F_{k-1}(nxt[j], 1/(j + r)),

    the depth-k total is F_k(1, 0), so one sweep gives every depth.
    F_k(a, .) is the Gauss transfer operator (Bandtlow and Jenkinson, Adv.
    Math. 2008) on digits from a on; for a >= 2 it is analytic off
    (-inf, -2], and _RATIO_NODES Chebyshev-Lobatto values r_n hold it on
    [0, 1] (Trefethen, chapter 8).  A depth gathers the coefficients of
    F_{k-1}(nxt[j], .), evaluates them at 1/(j + r_n) by Clenshaw's
    recurrence, scales, and sums over the digits from cap down; depth 1
    reads F_0, the last depth r = 0 alone.  A total below 1e-250 rescales
    the state to 1 and keeps its log aside.

    Only the head digits 1.._TAIL_DIGIT run Clenshaw, so a cap up to
    _TAIL_DIGIT gives the same floats as that recurrence alone.  A tail
    digit j reads the interpolant of F_{k-1}(nxt[j], .) as its
    _TAIL_TERMS-term Taylor polynomial at r = 0, by Horner at
    x = 1/(j + r_n) <= 1/(_TAIL_DIGIT + 1); the coefficients come from the
    state by one fixed matrix, the exact Chebyshev derivatives at -1 folded
    into the fit.  Six terms suffice: F_{k-1}(a, .) is analytic out to
    r = -a with a = nxt[j] > j, so its Chebyshev coefficients fall like
    (4a)**-c and reach rounding level by c = 5.  The dropped terms from
    x**6 on then carry only that rounding noise, times x**6 <= 1e-18 and
    the x**6 row's weights, which sum to 1.4e9: about 1e-24 relative.
    """
    cap = len(nxt) - 1
    gauss = system.affine is None
    if gauss and depth > 1 and cap > _GAUSS_DP_CAP:
        raise NumericFailure(
            f"digit cap {cap} beyond the transfer program's bound "
            f"{_GAUSS_DP_CAP}; lower the cap or force exact enumeration"
        )
    r, fit = _chebyshev_grid(_RATIO_NODES if gauss and depth > 1 else 1)
    m = r.size
    head = min(cap, _TAIL_DIGIT) if m > 1 else cap
    if gauss:
        x = np.arange(1, cap + 1, dtype=float) + r[:, None]
        weight = np.exp(-2.0 * s * np.log(x))
        ratio = 1.0 / x
    else:
        weight = np.exp(s * _log_rates(system, 1, cap))[None, :]
        ratio = np.zeros((1, cap))
    first = weight * np.exp(-s * np.log1p(ratio))
    t = 2.0 * ratio[:, :head] - 1.0
    t2 = 2.0 * t
    bufs = [np.empty((m, head)) for _ in range(3)]
    # Coefficients of F_{k-1}(a, .) and values of F_k(a, r_n) in column a - 1;
    # for the tail, Taylor coefficients of F_{k-1}(a, .).
    coef = np.empty((m, cap + 1))
    vals = np.zeros((m, cap + 1))
    terms = np.empty((m, cap))
    if head < cap:
        taylor = _tail_fit(m)
        tail_coef = np.empty((_TAIL_TERMS, cap + 1))
    col = nxt[1:] - 1
    offset = 0.0
    totals = []
    for k in range(1, depth + 1):
        n = m if k < depth else 1
        if k == 1:
            val = first[:n]
        else:
            g = np.take(coef, col[:head], axis=1)
            val = terms[:n]
            b = _clenshaw(g, t[:n], t2[:n], [buf[:n] for buf in bufs])
            np.multiply(b, weight[:n, :head], out=val[:, :head])
            if head < cap:
                a = np.take(tail_coef, col[head:], axis=1)
                tail = _horner(a, ratio[:n, head:], val[:, head:])
                tail *= weight[:n, head:]
        np.cumsum(val[:, ::-1], axis=1, out=vals[:n, cap - 1 :: -1])
        tot = vals[0, 0]
        totals.append(float(tot * math.exp(offset)) if tot > 0 else 0.0)
        if 0 < tot < 1e-250:
            offset += math.log(tot)
            vals /= tot
        if k < depth:
            np.matmul(fit, vals, out=coef)
            if head < cap:
                np.matmul(taylor, vals, out=tail_coef)
    return totals


def _truncation_bound(system, depth, s, cap, totals) -> float:
    """Upper bound on the mass of words discarded by the digit cap.

    A discarded word splits into an admissible prefix, a first digit above
    the cap, and a continuation whose digits all stay above the cap (the
    restriction only pushes digits upward).  Each appended digit j scales
    the cylinder by at most D * lambda_j, with the distortion D = 2 of
    Moebius branches and 1 of affine ones, so the block of out-of-cap
    factors is bounded by powers of G = D**s * sum_{i > cap} lambda_i**s.  The
    tail sum diverges when decay * s <= 1 and the bound is then infinite:
    the truncated mass genuinely dominates at such exponents.  It is also
    infinite once a power of G overflows a float (deep covers).

    totals[n - 1] is the depth-n total for n up to len(totals); every depth
    past them holds no word, so its prefix term adds 0.0 and is skipped.
    An overflow, if any, comes at n = 1, which is always taken.
    """
    p = system.decay * s
    if p <= 1.0:
        return math.inf
    tail_hi = power_sum_brackets(cap + 1, None, p)[1] * system.scale**s
    G = (2.0 if system.affine is None else 1.0) ** s * tail_hi
    bound = 0.0
    for n in range(1, min(depth, len(totals) + 1) + 1):
        prefix = 1.0 if n == 1 else totals[n - 2]
        try:
            bound += prefix * G ** (depth - n + 1)
        except OverflowError:
            return math.inf
    return bound


def cover_sum(
    system: DecaySystem,
    phi: Phi,
    depth: int,
    s: float,
    digit_cap: int = 10_000,
    method: str = "dp",
) -> float:
    """Sum of |cylinder|**s over admissible words of the given depth.

    Words use digits up to digit_cap with each digit exceeding Phi of its
    predecessor.  method 'dp', the default for every system, runs the
    backward transfer recursion, which holds the Gauss state at Chebyshev
    nodes in the continuant ratio and meets enumeration to about 1e-14
    relative.  'exact' enumerates every word as an oracle on the word walk
    of restrictions, so its memory is bounded by the walk's path at any
    cap and depth.  It first counts the words one length at a time and
    raises NumericFailure at the first running count past
    _EXACT_WORD_BUDGET, a bound on its time alone.  Both routes stop at the
    longest word under the cap: past it the sum is 0.0 however deep the
    depth.  A TailWarning reports when the digit-cap truncation bound
    exceeds 1% of the result.
    """
    if not 0 < s <= 1:
        raise PreconditionError("cover sums need s in (0, 1]")
    depth = _integer("depth", depth, 1)
    if method not in ("exact", "dp"):
        raise PreconditionError(f"unknown method {method!r}")
    nxt = successor_table(phi, digit_cap)
    digit_cap = len(nxt) - 1  # as successor_table read it
    # Totals of the depths 1..longest; every deeper depth holds no word.
    longest = _longest_word(nxt, depth)
    if method == "exact":
        for seen in itertools.accumulate(_level_counts(nxt, [digit_cap] * longest)):
            if seen > _EXACT_WORD_BUDGET:
                raise NumericFailure(
                    f"at least {seen} admissible words exceed the exact route's budget of "
                    f"{_EXACT_WORD_BUDGET}; lower the cap or the depth, or use the dp method"
                )
        totals = _exact_depth_sums(system, nxt, longest, s)
    else:
        totals = _transfer_depth_sums(system, nxt, longest, s)
    result = totals[-1] if longest == depth else 0.0
    bound = _truncation_bound(system, depth, s, digit_cap, totals)
    if bound > 0.01 * result:
        warnings.warn(
            f"digit cap {digit_cap}: truncation bound {bound:.3g} exceeds 1% of the "
            f"cover sum {result:.3g}",
            TailWarning,
            stacklevel=2,
        )
    return result


def _linregress(x: np.ndarray, y: np.ndarray) -> tuple:
    """(slope, slope stderr, r) of the least-squares line through (x, y),
    in the float steps of the reference routine the tests hold it to.  r is
    clipped to [-1, 1], and NaN when x or y is constant with covariance 0;
    a constant x leaves all three NaN."""
    n = x.size
    with np.errstate(divide="ignore", invalid="ignore"):
        ssxm, ssxym, _, ssym = np.cov(x, y, bias=1).flat
        if ssxm == 0.0 or ssym == 0.0:
            r = math.nan if ssxym == 0 else 0.0
        else:
            r = min(max(ssxym / np.sqrt(ssxm * ssym), -1.0), 1.0)
        slope = ssxym / ssxm
        stderr = 0.0 if n == 2 else np.sqrt((1 - r**2) * ssym / ssxm / (n - 2))
    return float(slope), float(stderr), float(r)


def _box_counts(pts: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    """Number of occupied grid cells floor(x / d) at each scale d > 0, from
    one sort: the cells of the sorted points are non-decreasing, so each
    count is 1 plus the number of changes between neighbours.

    The sorted copy is the only array the size of the input.  The cells are
    formed in blocks of _BOX_BLOCK + 1 sorted points in one reused buffer,
    each block overlapping the next by one point, so that every pair of
    neighbours is compared once.
    """
    srt = np.sort(pts)
    buf = np.empty(min(srt.size, _BOX_BLOCK + 1))
    counts = []
    for d in deltas:
        changes = 0
        for lo in range(0, srt.size - 1, _BOX_BLOCK):
            chunk = srt[lo : lo + _BOX_BLOCK + 1]
            cells = buf[: chunk.size]
            np.divide(chunk, d, out=cells)
            np.floor(cells, out=cells)
            changes += np.count_nonzero(cells[1:] != cells[:-1])
        counts.append(1 + changes)
    return np.array(counts, dtype=float)


def box_dim_estimate(points, scales) -> DimensionEstimate:
    """Box-counting slope of a point set over a decreasing scale ladder.

    Boxes are grid cells anchored at 0.  The regression runs on the middle
    60% of the scales so saturation at either end of the ladder does not
    bend the slope.  Advisory sampling bars (1000 points, 8 scales over 4
    decades) are reported as ScaleWarning rather than enforced: sparser
    input yields an estimate that is still well defined, merely coarse.

    diagnostics hold the least-squares slope's stderr (0.0 for two selected
    scales) and r**2.  When the selected counts are constant, the slope,
    stderr and r**2 are all exactly 0.0.  A scale whose reciprocal
    overflows is a PreconditionError, and so is one at which the cell index
    x / d of some point overflows.
    """
    pts = np.asarray(points, dtype=float).ravel()
    if pts.size < 2:
        raise PreconditionError("box counting needs at least two points")
    # max and min are NaN when any point is, and infinite when one is.
    if not (math.isfinite(pts.max()) and math.isfinite(pts.min())):
        raise PreconditionError("points must be finite")
    deltas = np.unique(np.asarray(scales, dtype=float))[::-1]
    if deltas.size < 2:
        raise PreconditionError("box counting needs at least two distinct scales")
    if not (deltas > 0).all():
        raise PreconditionError("scales must be positive")
    with np.errstate(over="ignore"):
        if not np.isfinite(1.0 / deltas).all():
            raise PreconditionError("scales must have finite reciprocals")
        # x / d is monotone in |x| and 1 / d, so the largest |x| decides
        # at which scales some cell index overflows.
        reach = float(max(pts.max(), -pts.min()))
        over = deltas[~np.isfinite(reach / deltas)]
        if over.size:
            raise PreconditionError(
                f"points up to |x| = {reach!r} overflow the cell index x / d "
                f"at scale {float(over[0])!r}"
            )
    if pts.size < 1000:
        warnings.warn(
            f"only {pts.size} points; the estimate will be coarse below 1000",
            ScaleWarning,
            stacklevel=2,
        )
    decades = math.log10(deltas[0] / deltas[-1])
    if deltas.size < 8 or decades < 4:
        warnings.warn(
            f"{deltas.size} scales spanning {decades:.2f} decades; the advisory "
            "bar is 8 scales over 4 decades",
            ScaleWarning,
            stacklevel=2,
        )
    counts = _box_counts(pts, deltas)
    n = deltas.size
    k = max(2, round(0.6 * n))
    start = (n - k) // 2
    sel = slice(start, start + k)
    x = np.log(1.0 / deltas[sel])
    y = np.log(counts[sel])
    slope, stderr, r = _linregress(x, y)
    if not math.isfinite(slope):
        raise NumericFailure("degenerate box-count regression")
    if y.min() == y.max():
        # A flat line; numpy's mean of equal logs can miss them by an ulp,
        # which would leave residues in all three.
        slope, stderr, r = 0.0, 0.0, 0.0
    diag = {
        "raw_slope": slope,
        "stderr": stderr,
        "r_squared": r**2,
        "counts": [int(c) for c in counts],
        "scales": [float(d) for d in deltas],
        "selected": (start, start + k),
        "constant_counts": bool(counts.max() == counts.min()),
    }
    return _estimate(slope, "box-count", slope - 2 * stderr, slope + 2 * stderr, diag)


def predict_dimensions(d: float, phi: Phi, s0: float, gauss_like: bool = False) -> dict:
    """Closed-form dimension table for a d-decaying system under Phi.

    Linear restrictions pin the first value at 1/d regardless of the rate.
    Power restrictions with exponent alpha give 1/(1 + alpha*(d-1)) when
    the first-level images tile the interval in reverse digit order; with
    that hypothesis dropped only the bracket up to 1/d survives, and the
    upper endpoint is attained by an explicit gap construction.  The
    second value is always max(s0, 1/d), where s0 is the upper box
    dimension of the first-level image endpoints.  A table restriction has
    no closed form and is a PreconditionError.
    """
    if not 1 < d < math.inf:
        raise PreconditionError("prediction needs a finite decay d > 1")
    if not 0 <= s0 <= 1:
        raise PreconditionError("s0 must lie in [0, 1]")
    packing = max(s0, 1.0 / d)
    if phi.kind == "lin":
        return {"hausdorff": 1.0 / d, "packing": packing}
    if phi.kind == "pow":
        h_low = 1.0 / (1.0 + phi.alpha * (d - 1.0))
        if gauss_like:
            return {"hausdorff": h_low, "packing": packing}
        return {
            "hausdorff": (h_low, 1.0 / d),
            "packing": packing,
            "note": "without the tiling hypothesis only this bracket is forced; "
            "the upper endpoint is attained by a gap construction",
        }
    raise PreconditionError(
        "prediction needs a lin:<beta> or pow:<alpha> restriction: a table Phi is "
        "undefined past its last entry, so it admits no infinite word"
    )
