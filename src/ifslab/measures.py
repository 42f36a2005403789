"""Cylinder measures for restricted digit systems and a local-dimension probe.

Two measures live here.  The first is a layered product measure adapted to
the index ladder: level n draws its digit from the ladder window past the
restriction of the previous ladder value, with a level exponent chosen so
the window masses sum to one: the xi Bowen root of the window.  Because
each exponent sits at or above 1/d - eps, every cylinder mass is dominated
by the cylinder length raised to 1/d - eps, and ``verify_frostman`` checks
that comparison with log cylinder lengths formed from exact continuants or
exact slopes.

The second is a Markov measure on unbounded digit words whose conditional
law from digit i is a power tail supported on j >= ceil(i**alpha).  It
comes with exact inverse-CDF sampling on the tail and a Monte Carlo
estimator that regresses cylinder masses against bracketed neighborhood
lengths to read off the local dimension.  Every sampled digit is the
certified crossing index of the power-sum core: draws sharing a window
start are answered together, from one cumulative table when at least
_INV_TABLE_MIN_DRAWS share it and the target clears the table's rounding
bound, otherwise by the crossing search, and the route never changes a
digit.  The estimator runs level by level over a block of samples;
sample k draws its uniforms from its own spawned Philox child, the n-th
feeding level n, and every chain step is elementwise, so no sample reads
another.  That is what lets the blocks run apart, one per usable CPU, the
first in process and the rest in forked children: the merge reads their
rows in sample order, so neither the report nor the stream depends on how
many CPUs there are.
"""

from __future__ import annotations

import math
import os
import pickle
import sys
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence, TextIO

import numpy as np

from .dimension import DimensionEstimate, _estimate, bowen_root
from .powersum import first_index_reaching, power_sum_brackets
from .restrictions import Ladder, Phi, build_ladder
from .systems import DecaySystem, NumericFailure, PreconditionError
from .systems import _append_digits, _digit_table, _empty_words

# Materialized per-digit mass tables stop here (lookups stay available).
_LEVEL_TABLE_CAP = 5_000_000

_VERIFY_SAMPLE_CAP = 100_000

# verify_frostman checks words in blocks of this many rows.
_VERIFY_ROWS = 2**16
_INT64_MAX = 2**63 - 1

# Exact tail inversion works on integer window starts up to this; the
# local-dimension chain switches to the continuous log-domain tail earlier
# (its digits never need to be materialized).
_EXACT_START_CAP = 2**52
_CHAIN_EXACT_CAP = 10**6

# Inverse-CDF tables: one cumulative block over the first terms past a
# window start, built per batch of draws sharing a small start.  A build
# costs about as much as 16 crossing searches (0.45 ms against 23 us), so
# smaller batches search.
_INV_TABLE_SPAN = 65_536
_INV_TABLE_START_CAP = 10**6
_INV_TABLE_MIN_DRAWS = 16

# A log-digit beyond this truncates the sample (flagged, not fatal).  A
# level's log-lengths reach alpha times it (alpha stays below about 1e16 for
# a valid measure), and the regression sums their squares over the levels,
# so the bar keeps those sums well inside the float range.
_LOG_DIGIT_TRUNC = 1e130

_LN10 = math.log(10.0)

# Fewest samples per chain block.  A block costs a fork and a pickled
# result; on a 2-vCPU Xeon (gauss, alpha 2, depth 30, no stream) two blocks
# of 100 samples ran 14% faster than one of 200, and two of 50 broke even.
_BLOCK_MIN_SAMPLES = 100


# ---------------------------------------------------------------------------
# Layered window measure


@dataclass(frozen=True)
class FrostmanLevel:
    """One level of the layered measure.

    window: inclusive digit range (lo, hi) feeding this level; lo is the
        first index past the restriction of the previous ladder value and
        hi is the next ladder value.
    trimmed: the window minus its two extreme-image digits.  Branch images
        are strictly ordered by index in every family (larger index,
        further left), so the trimmed range is (lo + 1, hi - 1).
    exponent: s_n solving sum over the window of contract_lo(i)**s_n = 1,
        the xi Bowen root of the window (dimension.bowen_root, tol 1e-10).
    mass_defect: |P - 1|, P the midpoint of the certified bracket of that
        sum at s_n; the whole bracket lies within 1e-10 of 1.  A window too
        wide for such a bracket is a NumericFailure (exit 3).
    """

    index: int
    window: tuple
    trimmed: tuple
    exponent: float
    mass_defect: float

    @property
    def size(self) -> int:
        return self.window[1] - self.window[0] + 1

    def digits(self) -> range:
        return range(self.window[0], self.window[1] + 1)


@dataclass(frozen=True)
class FrostmanMeasure:
    """Product measure over ladder windows with per-level exponents.

    The mass of the cylinder with digits (w_1, ..., w_n) is the product of
    contract_lo(w_k)**s_k over the levels; a digit outside its level window
    gives mass zero.  Every exponent satisfies s_n >= 1/d - eps (the window
    reaches past the ladder crossing, where the 1/d - eps power sum already
    exceeds one), which is what makes the mass-length comparison in
    ``verify_frostman`` provable rather than empirical.
    """

    system: DecaySystem
    eps: float
    ladder: Ladder
    levels: tuple

    @property
    def depth(self) -> int:
        return len(self.levels)

    def level(self, n: int) -> FrostmanLevel:
        if not 1 <= n <= self.depth:
            raise PreconditionError(
                f"level {n} out of range for a depth-{self.depth} measure"
            )
        return self.levels[n - 1]

    def level_masses(self, n: int) -> np.ndarray:
        """Per-digit masses over the level-n window, aligned with digits()."""
        lev = self.level(n)
        if lev.size > _LEVEL_TABLE_CAP:
            raise NumericFailure(
                f"level {n} window has {lev.size} digits, beyond the "
                f"per-digit table budget {_LEVEL_TABLE_CAP}"
            )
        out = np.empty(lev.size)
        for pos, i in enumerate(lev.digits()):
            out[pos] = math.exp(lev.exponent * self.system.log_contract_lo(i))
        return out


def build_frostman_measure(
    system: DecaySystem, phi: Phi, eps: float, depth: int
) -> FrostmanMeasure:
    """Build the layered window measure down to the given depth.

    Needs 0 < eps < 1/d (enforced by the ladder) and depth >= 1; every
    window must hold at least 3 digits so that trimming leaves at least 2.
    Ladder construction failures propagate unchanged.
    """
    if not isinstance(depth, int) or depth < 1:
        raise PreconditionError(f"depth must be an integer >= 1, got {depth}")
    ladder = build_ladder(system, phi, eps, depth + 1)
    floor_s = 1.0 / system.decay - eps
    levels = []
    for n, (lo, hi) in enumerate(ladder.windows, start=1):
        size = hi - lo + 1
        if size < 4:
            raise PreconditionError(
                f"level {n} window ({lo}..{hi}) has {size} digit(s); "
                f"trimming would leave {max(size - 2, 0)}, fewer than 2"
            )
        try:
            root = bowen_root(system, "xi", lo, hi)
            if root.value < floor_s - 1e-9:
                raise NumericFailure(
                    f"exponent {root.value:.6f} fell below the decay floor "
                    f"{floor_s:.6f}; the ladder does not cover this window"
                )
        except NumericFailure as exc:
            raise NumericFailure(
                f"level {n} window ({lo.bit_length()}-bit lo .. {hi.bit_length()}-bit hi): {exc}"
            ) from exc
        levels.append(
            FrostmanLevel(
                index=n,
                window=(lo, hi),
                trimmed=(lo + 1, hi - 1),
                exponent=root.value,
                mass_defect=abs(root.diagnostics["residual"]),
            )
        )
    return FrostmanMeasure(system=system, eps=eps, ladder=ladder, levels=tuple(levels))


def frostman_mass(
    measure: FrostmanMeasure, word: Sequence[int], log: bool = False
) -> float:
    """Mass of the cylinder along ``word``; the empty word has mass 1.

    A digit outside its level window gives mass 0 (log form: -inf), not an
    error.  Words longer than the built depth are rejected.
    """
    if len(word) > measure.depth:
        raise PreconditionError(
            f"word has {len(word)} digits; the measure was built to depth "
            f"{measure.depth}"
        )
    acc = 0.0
    for n, digit in enumerate(word, 1):
        lev = measure.levels[n - 1]
        lo, hi = lev.window
        if not lo <= digit <= hi:
            return -math.inf if log else 0.0
        acc += lev.exponent * measure.system.log_contract_lo(digit)
    return acc if log else math.exp(acc)


@dataclass(frozen=True)
class FrostmanReport:
    """Outcome of the mass-versus-length comparison over cylinders.

    worst_ratio is the largest observed mass / length**(1/d - eps); the
    comparison passes while it stays at or below 1.  witness is the first
    failing word, or None.
    """

    depth: int
    checked: int
    passed: int
    sampled: bool
    worst_ratio: float
    witness: tuple | None

    @property
    def fraction(self) -> float:
        return self.passed / self.checked


def _seed_root(seed) -> np.random.SeedSequence:
    """The SeedSequence of a seed, which must be an integer >= 0."""
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise PreconditionError(f"seed must be an integer >= 0, got {seed!r}")
    return np.random.SeedSequence(int(seed))


def _sampled_words(windows: list, count: int, seed: int):
    """``count`` words drawn uniformly from the window product, in blocks.

    Rows come from the seed's Philox stream one word at a time, digit by
    digit, so every block holds the same words as scalar draws in that
    order.  Digits are int64, so a window past 2**63 - 1 cannot be drawn.
    """
    for n, (lo, hi) in enumerate(windows, 1):
        if hi > _INT64_MAX:
            raise NumericFailure(
                f"level {n} window ({lo}..{hi}) lies past int64; sampled "
                "digits stop at 2**63 - 1"
            )
    rng = np.random.Generator(np.random.Philox(_seed_root(seed)))
    lows = [lo for lo, _ in windows]
    highs = [hi + 1 for _, hi in windows]
    for first in range(0, count, _VERIFY_ROWS):
        rows = min(_VERIFY_ROWS, count - first)
        yield rng.integers(lows, highs, size=(rows, len(windows)))


def _enumerated_words(windows: list, total: int):
    """Every word of the window product in lexicographic order, in blocks.

    A window past int64 gives a column of Python ints (object dtype).
    """
    sizes = [hi - lo + 1 for lo, hi in windows]
    strides = [math.prod(sizes[n + 1:]) for n in range(len(sizes))]
    for first in range(0, total, _VERIFY_ROWS):
        idx = np.arange(first, min(first + _VERIFY_ROWS, total))
        cols = []
        for (lo, hi), size, stride in zip(windows, sizes, strides):
            off = idx // stride % size
            cols.append(off + lo if hi <= _INT64_MAX else off.astype(object) + lo)
        yield np.stack(cols, axis=1)


def verify_frostman(
    measure: FrostmanMeasure,
    depth: int,
    sample_cap: int = _VERIFY_SAMPLE_CAP,
    seed: int = 0,
) -> FrostmanReport:
    """Check mass(C) <= length(C)**(1/d - eps) over depth-n cylinders.

    Enumerates every supported word, in lexicographic order, when the count
    fits under sample_cap; otherwise probes sample_cap words drawn uniformly
    from the window product (independently of the measure, so low-mass
    corners are not under-represented), row by row from the seed's Philox
    stream.  Words are checked in blocks of rows; masses take the same
    float steps as ``frostman_mass``, and log lengths come column by column
    from systems._append_digits, from exact continuants or exact slopes.
    The witness is the first failing word in draw or enumeration order.
    A depth below 1 or a sample_cap below 1 is rejected, since either would
    pass without checking any word.  A sampled window past int64 raises
    NumericFailure.
    """
    if sample_cap < 1:
        raise PreconditionError(f"sample_cap must be >= 1, got {sample_cap}")
    if not 1 <= depth <= measure.depth:
        raise PreconditionError(
            f"verify depth {depth} outside the built range 1..{measure.depth}"
        )
    q = 1.0 / measure.system.decay - measure.eps
    windows = [measure.levels[n].window for n in range(depth)]
    total = math.prod(hi - lo + 1 for lo, hi in windows)
    sampled = total > sample_cap
    if sampled:
        blocks = _sampled_words(windows, sample_cap, seed)
    else:
        blocks = _enumerated_words(windows, total)
    checked = passed = 0
    worst = -math.inf
    witness = None
    bound = math.prod(hi + 1 for _, hi in windows)
    system = measure.system
    for words in blocks:
        level = _empty_words(system, len(words), bound)
        # Level terms are added in order from 0.0, as frostman_mass adds them.
        log_mass = np.zeros(len(words))
        for lev, col in zip(measure.levels, words.T):
            level, log_len = _append_digits(system, level, col)
            term = _digit_table(col, lambda i: lev.exponent * system.log_contract_lo(i))
            log_mass = log_mass + term
        margin = log_mass - q * log_len
        ok = margin <= 0.0
        checked += len(words)
        passed += int(np.count_nonzero(ok))
        if witness is None and not ok.all():
            witness = tuple(words[int(np.argmin(ok))].tolist())
        worst = max(worst, float(margin.max()))
    return FrostmanReport(
        depth=depth,
        checked=checked,
        passed=passed,
        sampled=sampled,
        worst_ratio=math.exp(worst),
        witness=witness,
    )


# ---------------------------------------------------------------------------
# Power-law digit measure


@dataclass(frozen=True, eq=False)
class PowerLawDigitMeasure:
    """Markov digit measure with a power-law conditional tail.

    From digit i the next digit lives on j >= ceil(i**alpha) and decays
    like j**(-tail_exponent); the first digit is deterministic.  decay is
    the contraction exponent d of the paired system family; together with
    alpha it fixes

        base_exponent  s = 1 / (1 + alpha * (d - 1)),
        tail_exponent  p = (d + alpha * (d - 1)) * s = 1 + (d - 1) * s.

    p - 1 is formed as (d - 1) * s, free of the cancellation in p - 1.0
    that grows with alpha.  Both s and p - 1 must be positive normal
    floats, and p must stay above 1 as a float; a huge alpha rounds them
    to zero, below the normal range or to 1, and is rejected.

    Each conditional law is normalized by a certified tail sum; writing
    c(i) = i**(-alpha*(d-1)*s) / S(i) for that tail S(i), the transition
    weight is c(i) * i**(alpha*(d-1)*s) * j**(-p).  The c(i) stay inside a
    fixed band; nothing is assumed about their limit.
    """

    decay: float
    alpha: float
    first_digit: int = 2
    _support: Phi = field(init=False, repr=False)
    _norms: dict = field(init=False, repr=False)

    def __post_init__(self):
        if not self.decay > 1.0:
            raise PreconditionError(
                f"power-law digit measure needs decay d > 1, got {self.decay}"
            )
        if not self.alpha > 1.0:
            raise PreconditionError(
                f"power-law digit measure needs alpha > 1, got {self.alpha}"
            )
        for name, value in (
            ("base exponent", self.base_exponent),
            ("tail exponent - 1", self._tail_excess),
            # p itself must stay above 1 as a float, or its tail sums diverge.
            ("rounded tail exponent - 1", self.tail_exponent - 1.0),
        ):
            if not sys.float_info.min <= value < math.inf:
                raise PreconditionError(
                    f"alpha {self.alpha} with decay {self.decay} gives {name} "
                    f"{value!r}, not a positive normal float"
                )
        if not isinstance(self.first_digit, int) or self.first_digit < 1:
            raise PreconditionError(
                f"first digit must be an integer >= 1, got {self.first_digit}"
            )
        object.__setattr__(self, "_support", Phi("pow", alpha=float(self.alpha)))
        object.__setattr__(self, "_norms", {})

    @property
    def base_exponent(self) -> float:
        return 1.0 / (1.0 + self.alpha * (self.decay - 1.0))

    @property
    def tail_exponent(self) -> float:
        return (self.decay + self.alpha * (self.decay - 1.0)) * self.base_exponent

    @property
    def _tail_excess(self) -> float:
        """p - 1, as (d - 1) * s."""
        return (self.decay - 1.0) * self.base_exponent

    def support_start(self, i: int) -> int:
        """Smallest admissible successor of digit i: ceil(i**alpha), exact."""
        if not isinstance(i, int) or i < 1:
            raise PreconditionError(f"digit must be an integer >= 1, got {i}")
        return self._support.ceil(i)

    def _tail_norm(self, start: int) -> tuple:
        """(lo, hi, mid) certified brackets of sum_{j >= start} j**-p."""
        got = self._norms.get(start)
        if got is None:
            b_lo, b_hi = power_sum_brackets(start, None, self.tail_exponent)
            got = (b_lo, b_hi, 0.5 * (b_lo + b_hi))
            self._norms[start] = got
        return got

    def normalizer(self, i: int) -> float:
        """c(i), to within the certified tail-sum bracket (rel ~1e-15)."""
        start = self.support_start(i)
        s_mid = self._tail_norm(start)[2]
        a = self.alpha * (self.decay - 1.0) * self.base_exponent
        return math.exp(-a * math.log(i) - math.log(s_mid))


def digit_transition(measure: PowerLawDigitMeasure, i: int, j: int) -> float:
    """Conditional probability of digit j following digit i.

    Zero below the support start ceil(i**alpha); on the tail the weight
    c(i) * i**(alpha*(d-1)*s) * j**(-p) is evaluated as j**(-p) / S(i),
    which is the same number without the cancelling i powers.
    """
    if not isinstance(j, int) or j < 1:
        raise PreconditionError(f"digit must be an integer >= 1, got {j}")
    start = measure.support_start(i)
    if j < start:
        return 0.0
    s_mid = measure._tail_norm(start)[2]
    return math.exp(-measure.tail_exponent * math.log(j) - math.log(s_mid))


def _tail_quantiles(measure: PowerLawDigitMeasure, start: int, us: Sequence[float]) -> list:
    """Smallest j >= start whose cumulative conditional mass reaches u, per u.

    Every digit is the certified ``first_index_reaching(start, p, u * lo)``
    index, lo the lower tail-norm bracket.  With at least
    _INV_TABLE_MIN_DRAWS draws and start <= _INV_TABLE_START_CAP, one
    cumulative table over the first _INV_TABLE_SPAN terms answers the draws
    whose target lies more than the table's rounding bound from both
    neighbouring entries; every other draw runs the crossing search.  So
    neither the route nor the batch changes a digit.
    """
    p = measure.tail_exponent
    targets = np.asarray(us, dtype=float) * measure._tail_norm(start)[0]
    digits = [None] * len(targets)
    if len(targets) >= _INV_TABLE_MIN_DRAWS and start <= _INV_TABLE_START_CAP:
        tab = np.cumsum(np.arange(start, start + _INV_TABLE_SPAN, dtype=float) ** -p)
        # Each term is rounded once and the sequential sum adds at most one
        # rounding per term, all below ulp(tab[-1]).
        margin = (_INV_TABLE_SPAN + 8) * 2.0**-52 * tab[-1]
        k = np.searchsorted(tab, targets, side="left")
        inside = k < _INV_TABLE_SPAN
        kc = np.where(inside, k, 0)
        above = tab[kc] - targets > margin
        below = (k == 0) | (targets - tab[np.maximum(kc - 1, 0)] > margin)
        for pos in np.flatnonzero(inside & above & below).tolist():
            digits[pos] = start + int(k[pos])
    for pos, target in enumerate(targets.tolist()):
        if digits[pos] is None:
            digits[pos] = first_index_reaching(start, p, target).index
    return digits


def sample_digits(
    measure: PowerLawDigitMeasure, depth: int, seed: int = 0
) -> tuple:
    """Draw one digit word of the given depth, deterministically in seed.

    The first digit is the measure's fixed start; every later digit is the
    certified inverse-CDF draw of ``_tail_quantiles`` on one uniform (a
    single draw never builds a table).  Window starts grow like a power
    tower, so past a few levels they leave the exact-arithmetic budget;
    that raises with the achieved depth in the message.
    """
    if not isinstance(depth, int) or depth < 1:
        raise PreconditionError(f"depth must be an integer >= 1, got {depth}")
    rng = np.random.Generator(np.random.Philox(_seed_root(seed)))
    word = [measure.first_digit]
    log_cap = math.log(_EXACT_START_CAP)
    for n in range(2, depth + 1):
        i = word[-1]
        if measure.alpha * math.log(i) > log_cap:
            raise NumericFailure(
                f"window start past digit {n - 1} exceeds the exact sampling "
                f"budget; achieved depth {n - 1} of {depth}"
            )
        start = measure.support_start(i)
        if start > _EXACT_START_CAP:
            raise NumericFailure(
                f"window start {start} at position {n} exceeds the exact "
                f"sampling budget; achieved depth {n - 1} of {depth}"
            )
        u = rng.random()
        try:
            j = _tail_quantiles(measure, start, [u])[0]
        except NumericFailure as e:
            raise NumericFailure(
                f"{e}; achieved depth {n - 1} of {depth}"
            ) from e
        word.append(j)
    return tuple(word)


# ---------------------------------------------------------------------------
# Local dimension by Monte Carlo


def _libm_below_40(values: np.ndarray, fn) -> np.ndarray:
    """fn(v) at each v < 40 and 0.0 elsewhere, where the correction terms
    below fall under an ulp.  fn runs on Python floats, so it rounds as the
    ``math`` functions do (numpy's exp and log1p may differ by an ulp)."""
    out = np.zeros(len(values))
    near = values < 40.0
    if near.any():
        out[near] = [fn(v) for v in values[near].tolist()]
    return out


def _chain_rate_logs(system: DecaySystem, li: np.ndarray) -> tuple:
    """(log xi, log lambda) of the branches with the given log indices."""
    # log(i + t) = li + log1p(t / i); past li = 40 the correction is below
    # an ulp of li.
    shift = system.shift
    corr = _libm_below_40(li, lambda v: math.log1p(shift * math.exp(-v)))
    log_scale = math.log(system.scale)
    return log_scale - system.decay * (li + corr), log_scale - system.decay * li


def _log_tail(lstart: np.ndarray, p: float, excess: float, log_c: float) -> np.ndarray:
    """log of c * sum_{j >= start} j**-p from log(start), in its asymptotic
    form log c + (1 - p) log(start) - log(p - 1) + log1p((p - 1) / (2 start)),
    with excess = p - 1, evaluated left to right, so log_c = 0.0 leaves the
    other terms' sum as it is."""
    corr = _libm_below_40(lstart, lambda v: math.log1p(excess * 0.5 * math.exp(-v)))
    return log_c + (1.0 - p) * lstart - math.log(excess) + corr


def _chain_window_logs(system: DecaySystem, lstart: np.ndarray) -> np.ndarray:
    """log length of the admissible level-1 window, from log(start).

    The window is the union of the branch images with index >= start: for
    reciprocal-shift branches that is exactly (0, 1/start]; for affine ones
    its length is the tail sum of the slopes, here its asymptotic form
    (exact starts use ``_exact_window_logs``).
    """
    if system.affine is None:
        return -lstart
    return _log_tail(lstart, system.decay, system.decay - 1.0, math.log(system.scale))


def _exact_window_logs(system: DecaySystem, start: int) -> tuple:
    """(log lo, log hi) of the window length for an exact start <= _CHAIN_EXACT_CAP."""
    if system.affine is None:
        return -math.log(start), -math.log(start)
    b_lo, b_hi = power_sum_brackets(start, None, system.decay)
    log_scale = math.log(system.scale)
    return log_scale + math.log(b_lo), log_scale + math.log(b_hi)


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.dot of each row pair, as the one-dimensional dot rounds it."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _slopes(xs: tuple, y: np.ndarray, n_kept: np.ndarray, kept: np.ndarray) -> np.ndarray:
    """Least-squares slope of y on each x over each kept row's first n_kept
    columns, one row of the result per x.

    Rows of one length are reduced together; each row's means and dots
    round as they do on the row alone.
    """
    out = np.empty((len(xs), len(n_kept)))
    for m in np.unique(n_kept[kept]).tolist():
        rows = kept[n_kept[kept] == m]
        yr = y[rows, :m]
        dy = yr - yr.mean(axis=1, keepdims=True)
        for t, x in enumerate(xs):
            xr = x[rows, :m]
            dx = xr - xr.mean(axis=1, keepdims=True)
            out[t, rows] = _row_dots(dx, dy) / _row_dots(dx, dx)
    return out[:, kept]


def local_dim_estimate(
    measure: PowerLawDigitMeasure,
    system: DecaySystem,
    samples: int,
    depth: int,
    seed: int = 0,
    csv_stream: TextIO | None = None,
) -> DimensionEstimate:
    """Monte Carlo local dimension of the digit measure on the system.

    For each sampled word the estimator pairs, level by level, the mass of
    the current cylinder with the length of the union of its admissible
    next-level subcylinders.  That union's length is bracketed by the
    window length times the product of the per-digit contraction bounds;
    the regression runs on the bracket midpoint and the bracket width is
    folded into the confidence interval.  Masses of excluded subcylinders
    are never needed: the union carries the full cylinder mass.

    The chains advance level by level over a block of samples at once.
    Each sample owns one spawned Philox child of the seed and draws its
    depth - 1 uniforms in one call; level n uses the n-th, so runs are
    reproducible and a sample's chain does not depend on the others.  Rows
    whose window start is at most _CHAIN_EXACT_CAP draw exact digits,
    grouped by start: one tail norm and one ``_tail_quantiles`` call per
    distinct start, so every digit is the certified crossing index.  Past
    that the chain runs on the continuous log-domain tail as whole-array
    numpy, so depth 30 with doubly exponential digits costs nothing.

    The samples run in contiguous blocks, one per CPU the process may use
    and at least _BLOCK_MIN_SAMPLES each, the first in process and the
    rest in forked children (``_in_blocks`` says why forking is safe here).
    Every step of a chain is elementwise, so a block's rows are bit for
    bit those of the whole run, and the merge below (the three slopes, as
    row reductions over each sample's kept levels, and the diagnostics)
    reads the blocks concatenated in sample order: neither the report nor
    the stream depends on the CPU count.

    csv_stream, when given, receives one row per (sample, level), sample by
    sample: sample_id, n, digit, log10_digit, log_r_lo, log_r_hi, log_mass,
    where digit is blank once the chain leaves the exact regime.
    """
    if not isinstance(samples, int) or samples < 100:
        raise PreconditionError(f"needs at least 100 samples, got {samples}")
    if not isinstance(depth, int) or depth < 5:
        raise PreconditionError(f"needs depth >= 5, got {depth}")
    if system.affine is not None and system.affine.blocks:
        raise PreconditionError(
            "local dimension runs on the gauss or linear-power families, not on "
            "a gap system: gaps split its windows, so no window is an interval"
        )
    root = _seed_root(seed)
    stream = csv_stream is not None
    blocks = _in_blocks(
        lambda lo, hi: _chain_block(measure, system, root, depth, lo, hi, stream),
        _block_bounds(samples),
    )
    xs_lo, xs_hi, ys, n_kept, switch_level = (
        np.concatenate(parts) for parts in zip(*(b[:5] for b in blocks))
    )
    kept = np.flatnonzero(n_kept >= 3)
    if kept.size == 0:
        raise NumericFailure("every sampled chain truncated before 3 levels")
    x_mid = 0.5 * (xs_lo + xs_hi)
    mid, lo, hi = _slopes((x_mid, xs_lo, xs_hi), ys, n_kept, kept)
    # Deepest-level mass-to-length exponent (both sides of the pairing the
    # regression runs on); tends to the base exponent.
    last_x = x_mid[kept, n_kept[kept] - 1]
    last_y = ys[kept, n_kept[kept] - 1]
    delta_ratios = last_y[last_x != 0.0] / last_x[last_x != 0.0]
    switch_levels = switch_level[kept][switch_level[kept] > 0]
    if stream:
        csv_stream.write("sample_id,n,digit,log10_digit,log_r_lo,log_r_hi,log_mass\n")
        csv_stream.writelines(b.csv for b in blocks)
    value = float(mid.mean())
    sd = float(mid.std(ddof=1)) if len(mid) > 1 else 0.0
    ci = 1.96 * sd / math.sqrt(len(mid))
    spread = float(np.mean(np.abs(hi - lo))) / 2.0
    half = ci + spread
    diag = {
        "samples": samples,
        "kept": len(mid),
        "depth": depth,
        "seed": int(seed),
        "slope_sd": sd,
        "ci95": ci,
        "bracket_spread": spread,
        "truncated": sum(b.truncated for b in blocks),
        "mean_switch_level": float(np.mean(switch_levels)) if switch_levels.size else None,
        "delta_ratio_mean": float(np.mean(delta_ratios)) if delta_ratios.size else None,
    }
    return _estimate(value, "local-dim", value - half, value + half, diag)


class _ChainBlock(NamedTuple):
    """Samples lo..hi - 1 of a local-dimension run, each row one sample:
    its paired log-lengths and log-masses per level, its kept level count
    and switch level (0 if it never went continuous), the block's truncated
    chain count, and its stream rows (None when no stream was asked for)."""

    xs_lo: np.ndarray
    xs_hi: np.ndarray
    ys: np.ndarray
    n_kept: np.ndarray
    switch_level: np.ndarray
    truncated: int
    csv: str | None


def _chain_block(
    measure: PowerLawDigitMeasure,
    system: DecaySystem,
    root: np.random.SeedSequence,
    depth: int,
    lo: int,
    hi: int,
    stream: bool,
) -> _ChainBlock:
    """Run the chains of samples lo..hi - 1, level by level over the block.

    Sample k draws from the k-th spawned child of root, built here alone,
    so a block's rows are those rows of the whole run.
    """
    samples = hi - lo
    p = measure.tail_exponent
    excess = measure._tail_excess
    alpha = measure.alpha
    log_chain_cap = math.log(_CHAIN_EXACT_CAP)
    uniforms = np.empty((samples, depth - 1))
    for k in range(samples):
        child = np.random.SeedSequence(
            root.entropy, spawn_key=root.spawn_key + (lo + k,), pool_size=root.pool_size
        )
        uniforms[k] = np.random.Generator(np.random.Philox(child)).random(depth - 1)
    # words[k] holds sample k's exact digits and stops growing when its
    # chain goes continuous; while exact[k], its current digit is words[k][-1].
    words = [[measure.first_digit] for _ in range(samples)]
    exact = np.ones(samples, dtype=bool)
    live = np.ones(samples, dtype=bool)
    li = np.full(samples, math.log(measure.first_digit))
    cum_lo = np.zeros(samples)
    cum_hi = np.zeros(samples)
    log_mass = np.zeros(samples)
    lis = np.zeros((samples, depth))
    xs_lo = np.zeros((samples, depth))
    xs_hi = np.zeros((samples, depth))
    ys = np.zeros((samples, depth))
    n_kept = np.zeros(samples, dtype=np.int64)
    switch_level = np.zeros(samples, dtype=np.int64)
    truncated = 0
    window_cache = {}
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, depth + 1):
            cut = live & ~(np.isfinite(li) & (li <= _LOG_DIGIT_TRUNC))
            truncated += int(np.count_nonzero(cut))
            live &= ~cut
            rows = np.flatnonzero(live)
            if rows.size == 0:
                break
            lstart = alpha * li
            rate_lo = np.empty(samples)
            rate_hi = np.empty(samples)
            win_lo = np.empty(samples)
            win_hi = np.empty(samples)
            cont = rows[~exact[rows]]
            rate_lo[cont], rate_hi[cont] = _chain_rate_logs(system, li[cont])
            # Exact rows: exact rate logs, and an exact window for starts
            # up to the cap; grouped by start for the digit draws below.
            groups = {}
            windowless = []
            for k in rows[exact[rows]].tolist():
                i = words[k][-1]
                rate_lo[k] = system.log_contract_lo(i)
                rate_hi[k] = system.log_contract_hi(i)
                if lstart[k] > log_chain_cap:
                    windowless.append(k)
                    continue
                start = measure.support_start(i)
                lstart[k] = math.log(start)
                if start > _CHAIN_EXACT_CAP:
                    windowless.append(k)
                    continue
                groups.setdefault(start, []).append(k)
                got = window_cache.get(start)
                if got is None:
                    got = window_cache[start] = _exact_window_logs(system, start)
                win_lo[k], win_hi[k] = got
            rest = np.concatenate([cont, np.array(windowless, dtype=np.int64)])
            win_lo[rest] = win_hi[rest] = _chain_window_logs(system, lstart[rest])
            cum_lo[rows] += rate_lo[rows]
            cum_hi[rows] += rate_hi[rows]
            lis[rows, n - 1] = li[rows]
            xs_lo[rows, n - 1] = win_lo[rows] + cum_lo[rows]
            xs_hi[rows, n - 1] = win_hi[rows] + cum_hi[rows]
            ys[rows, n - 1] = log_mass[rows]
            n_kept[rows] = n
            if n == depth:
                break
            u = uniforms[:, n - 1]
            for start, ks in groups.items():
                log_norm = math.log(measure._tail_norm(start)[2])
                for k, j in zip(ks, _tail_quantiles(measure, start, u[ks])):
                    lj = math.log(j)
                    log_mass[k] += -p * lj - log_norm
                    li[k] = lj
                    words[k].append(j)
            # Every other live row draws on the continuous tail; exact rows
            # among them switch here.
            switch_level[rest[exact[rest]]] = n
            exact[rest] = False
            ls = lstart[rest]
            log1p_u = np.array([math.log1p(-v) for v in u[rest].tolist()])
            lj = ls - log1p_u / excess
            log_mass[rest] += -p * lj - _log_tail(ls, p, excess, 0.0)
            li[rest] = lj
    csv = _chain_csv(lo, words, n_kept, lis, xs_lo, xs_hi, ys) if stream else None
    return _ChainBlock(xs_lo, xs_hi, ys, n_kept, switch_level, truncated, csv)


def _chain_csv(first: int, words, n_kept, lis, xs_lo, xs_hi, ys) -> str:
    """The per-(sample, level) stream rows of a block whose first sample is
    ``first``, sample by sample."""
    l10 = (lis / _LN10).tolist()
    r_lo, r_hi, mass = xs_lo.tolist(), xs_hi.tolist(), ys.tolist()
    rows = []
    for k, word in enumerate(words):
        digits = [str(i) for i in word] + [""] * (int(n_kept[k]) - len(word))
        rows.extend(
            f"{first + k},{n + 1},{digits[n]},{l10[k][n]!r},"
            f"{r_lo[k][n]!r},{r_hi[k][n]!r},{mass[k][n]!r}\n"
            for n in range(int(n_kept[k]))
        )
    return "".join(rows)


def _block_bounds(samples: int) -> list:
    """Sample bounds of the chain blocks: one block per usable CPU, each of
    at least _BLOCK_MIN_SAMPLES samples (a single block below that)."""
    blocks = max(1, min(_cpu_count(), samples // _BLOCK_MIN_SAMPLES))
    return [samples * b // blocks for b in range(blocks + 1)]


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# ---------------------------------------------------------------------------
# Sample blocks in forked children


def _in_blocks(run_block, bounds: list) -> list:
    """[run_block(lo, hi) for each block lo..hi of bounds], in block order.

    The first block runs in process and every further one in an ``os.fork``
    child that pickles its result back through a pipe.  Warnings a block
    records are reissued here in block order once every block is in.  If
    any block raises (or a child dies), the whole range reruns serially in
    process, so an error is raised as the serial run raises it.  With one
    block, or without ``os.fork``, that serial run is the only one.

    Forking is safe here because run_block is pure computation: it reads
    the arguments the child inherits, touches no file, lock or thread,
    makes no BLAS call, and depends on nothing of the process it runs in.
    A child leaves only by ``os._exit``, so it never runs the caller's
    cleanup or flushes an inherited buffer, and no child outlives the call:
    each one is killed if still running and reaped on success, on error and
    on KeyboardInterrupt alike.
    """
    spans = list(zip(bounds, bounds[1:]))
    if len(spans) > 1 and hasattr(os, "fork"):
        outcomes = _forked_blocks(run_block, spans)
        if outcomes is not None:
            for _, caught in outcomes:
                for args in caught:
                    warnings.warn_explicit(*args)
            return [result for result, _ in outcomes]
    return [run_block(bounds[0], bounds[-1])]


def _forked_blocks(run_block, spans: list) -> list | None:
    """(result, warning arguments) per span, or None if any block failed."""
    # Imported here, where a child may need stopping, so that importing
    # the package loads nothing new.
    import signal

    children = []
    try:
        for lo, hi in spans[1:]:
            _fork_block(run_block, lo, hi, children)
        outcomes = [_recorded(run_block, *spans[0])]
        for _, fd in children:
            with open(fd, "rb", closefd=False) as fh:
                # Only this call's own child wrote these bytes; one whose
                # block failed wrote none, and unpickling them raises.
                outcomes.append(pickle.loads(fh.read()))
        return outcomes
    except Exception:
        return None
    finally:
        for pid, fd in children:
            os.close(fd)
            os.kill(pid, signal.SIGKILL)
        for pid, _ in children:
            os.waitpid(pid, 0)


def _fork_block(run_block, lo: int, hi: int, children: list) -> None:
    """Start run_block(lo, hi) in a forked child; append (pid, read end)."""
    r, w = os.pipe()
    try:
        with warnings.catch_warnings():
            # Python 3.12+ warns when a process with threads forks (numpy's
            # idle BLAS pool counts); the child starts no thread and runs
            # no BLAS call, so the warning would only litter the report.
            warnings.filterwarnings("ignore", r".*fork\(\)", DeprecationWarning)
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    os.close(r)
                    result = _recorded(run_block, lo, hi)
                    with open(w, "wb") as fh:
                        fh.write(pickle.dumps(result, pickle.HIGHEST_PROTOCOL))
                    status = 0
                finally:
                    os._exit(status)
    except OSError:
        os.close(r)
        os.close(w)
        raise
    children.append((pid, r))
    os.close(w)


def _recorded(run_block, lo: int, hi: int) -> tuple:
    """(run_block(lo, hi), the warn_explicit arguments of its warnings)."""
    with warnings.catch_warnings(record=True) as caught:
        result = run_block(lo, hi)
    return result, [(str(w.message), w.category, w.filename, w.lineno) for w in caught]
