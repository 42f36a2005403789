"""Cylinder measures for restricted digit systems and a local-dimension probe.

Two measures live here.  The first is a layered product measure adapted to
the index ladder: level n draws its digit from the ladder window past the
restriction of the previous ladder value, with a level exponent chosen so
the window masses sum to one.  Because each exponent sits at or above
1/d - eps, every cylinder mass is dominated by the cylinder length raised
to 1/d - eps, and ``verify_frostman`` checks exactly that comparison with
exact cylinder lengths.

The second is a Markov measure on unbounded digit words whose conditional
law from digit i is a power tail supported on j >= ceil(i**alpha).  It
comes with exact inverse-CDF sampling on the tail and a Monte Carlo
estimator that regresses cylinder masses against bracketed neighborhood
lengths to read off the local dimension.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence, TextIO

import numpy as np

from .dimension import DimensionEstimate, _estimate
from .powersum import first_index_reaching, power_sum_brackets
from .restrictions import Ladder, Phi, build_ladder
from .systems import (
    DecaySystem,
    NumericFailure,
    PreconditionError,
    cylinder_interval,
)

# Exponent solver: certified residual target and bisection width floor.
_SOLVE_RESIDUAL = 5e-13
_SOLVE_WIDTH = 1e-15

# Materialized per-digit mass tables stop here (lookups stay available).
_LEVEL_TABLE_CAP = 5_000_000

_VERIFY_SAMPLE_CAP = 100_000

# Exact tail inversion works on integer window starts up to this; the
# local-dimension chain switches to the continuous log-domain tail earlier
# (its digits never need to be materialized).
_EXACT_START_CAP = 2**52
_CHAIN_EXACT_CAP = 10**6

# Inverse-CDF tables: one cumulative block per distinct window start, only
# for small starts and only while the cache stays small.
_INV_TABLE_SPAN = 65_536
_INV_TABLE_START_CAP = 10**6
_INV_TABLE_CACHE_CAP = 64

# Steps of local linear search around the integral-bracket candidate before
# falling back to the certified crossing scan.
_SEARCH_STEPS = 8

# A log-digit beyond this truncates the sample (flagged, not fatal).
_LOG_DIGIT_TRUNC = 1e250

_LN10 = math.log(10.0)


# ---------------------------------------------------------------------------
# Layered window measure


@dataclass(frozen=True)
class FrostmanLevel:
    """One level of the layered measure.

    window: inclusive digit range (lo, hi) feeding this level; lo is the
        first index past the restriction of the previous ladder value and
        hi is the next ladder value.
    trimmed: the window minus its two extreme-image digits.  Branch images
        are strictly ordered by index for the supported kinds (larger index,
        further left), so the trimmed range is (lo + 1, hi - 1).
    exponent: s_n solving sum over the window of contract_lo(i)**s_n = 1.
    mass_defect: certified distance of that sum from 1 at the stored
        exponent; at most the solver tolerance.
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
    phi: Phi
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

    def digit_log_mass(self, n: int, digit: int) -> float:
        """log of the level-n mass of one digit; -inf outside the window."""
        lev = self.level(n)
        lo, hi = lev.window
        if not lo <= digit <= hi:
            return -math.inf
        return lev.exponent * self.system.log_contract_lo(digit)

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


def _bisect_decreasing(total, count: float):
    """Root of total(s) = 1 for a strictly decreasing total, total(0) = count > 1.

    Returns (s, defect) with defect = |total(s) - 1| at the returned point.
    """
    hi = 1.0
    while total(hi) >= 1.0:
        hi *= 2.0
        if hi > 128.0:
            raise NumericFailure("window exponent did not bracket below s = 128")
    lo = 0.0
    for _ in range(300):
        mid = 0.5 * (lo + hi)
        if total(mid) >= 1.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= _SOLVE_WIDTH:
            break
    s = 0.5 * (lo + hi)
    defect = abs(total(s) - 1.0)
    if defect > _SOLVE_RESIDUAL * 20:
        raise NumericFailure(
            f"window exponent solver stalled at residual {defect:.3e}"
        )
    return s, defect


def window_exponent(system: DecaySystem, digits: Iterable[int]) -> float:
    """Exponent s making sum over the given digits of contract_lo(i)**s = 1.

    Works for any system whose listed branches all contract; the digit set
    needs at least two members (a single branch only reaches one at s = 0).
    """
    digs = sorted({int(i) for i in digits})
    if len(digs) < 2:
        raise PreconditionError("window exponent needs at least 2 digits")
    logs = [system.log_contract_lo(i) for i in digs]
    if any(l >= 0.0 for l in logs):
        raise PreconditionError("window contains a non-contracting branch")

    def total(s: float) -> float:
        return math.fsum(math.exp(s * l) for l in logs)

    s, _ = _bisect_decreasing(total, float(len(digs)))
    return s


def _window_total_fn(system: DecaySystem, lo: int, hi: int):
    """Closed-form window mass sum s -> sum_{i=lo}^{hi} contract_lo(i)**s.

    With contract_lo(i) = c * (i + t)**-d the sum is c**s times a shifted
    power sum, so it runs on the certified power-sum core and huge windows
    cost nothing.
    """
    d = system.decay
    log_scale = math.log(system.scale)
    shift = system.shift

    def total(s: float) -> float:
        b_lo, b_hi = power_sum_brackets(lo + shift, hi + shift, d * s)
        return math.exp(s * log_scale) * 0.5 * (b_lo + b_hi)

    return total


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
    for n in range(1, depth + 1):
        lo = phi.floor(ladder.values[n - 1]) + 1
        hi = ladder.values[n]
        size = hi - lo + 1
        if size < 4:
            raise PreconditionError(
                f"level {n} window ({lo}..{hi}) has {size} digit(s); "
                f"trimming would leave {max(size - 2, 0)}, fewer than 2"
            )
        # Touch the deepest index so finite branch tables fail loudly here.
        system.log_contract_lo(hi)
        total = _window_total_fn(system, lo, hi)
        s, defect = _bisect_decreasing(total, float(size))
        if s < floor_s - 1e-9:
            raise NumericFailure(
                f"level {n} exponent {s:.6f} fell below the decay floor "
                f"{floor_s:.6f}; the ladder does not cover this window"
            )
        levels.append(
            FrostmanLevel(
                index=n,
                window=(lo, hi),
                trimmed=(lo + 1, hi - 1),
                exponent=s,
                mass_defect=defect,
            )
        )
    return FrostmanMeasure(
        system=system, phi=phi, eps=eps, ladder=ladder, levels=tuple(levels)
    )


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
        if self.checked == 0:
            return 1.0
        return self.passed / self.checked


def verify_frostman(
    measure: FrostmanMeasure,
    depth: int,
    sample_cap: int = _VERIFY_SAMPLE_CAP,
    seed: int = 0,
) -> FrostmanReport:
    """Check mass(C) <= length(C)**(1/d - eps) over depth-n cylinders.

    Enumerates every supported word when the count fits under sample_cap,
    otherwise probes sample_cap words drawn uniformly from the window
    product (independently of the measure, so low-mass corners are not
    under-represented).  Lengths come from the exact cylinder intervals.
    Depth 0 passes vacuously; a sample_cap below 1 is rejected, since it
    would pass without checking any word.
    """
    if sample_cap < 1:
        raise PreconditionError(f"sample_cap must be >= 1, got {sample_cap}")
    if not 0 <= depth <= measure.depth:
        raise PreconditionError(
            f"verify depth {depth} outside the built range 0..{measure.depth}"
        )
    if depth == 0:
        return FrostmanReport(
            depth=0, checked=0, passed=0, sampled=False, worst_ratio=0.0, witness=None
        )
    q = 1.0 / measure.system.decay - measure.eps
    windows = [measure.levels[n].window for n in range(depth)]
    total = 1
    for lo, hi in windows:
        total *= hi - lo + 1
    sampled = total > sample_cap
    if sampled:
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed))))
        words = (
            tuple(int(rng.integers(lo, hi + 1)) for lo, hi in windows)
            for _ in range(sample_cap)
        )
    else:
        words = itertools.product(*(range(lo, hi + 1) for lo, hi in windows))
    checked = passed = 0
    worst = -math.inf
    witness = None
    for word in words:
        log_mass = frostman_mass(measure, word, log=True)
        length = float(cylinder_interval(measure.system, word).length)
        margin = log_mass - q * math.log(length)
        checked += 1
        if margin <= 0.0:
            passed += 1
        elif witness is None:
            witness = tuple(word)
        if margin > worst:
            worst = margin
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

    Each conditional law is normalized by a certified tail sum; writing
    c(i) = i**(-alpha*(d-1)*s) / S(i) for that tail S(i), the transition
    weight is c(i) * i**(alpha*(d-1)*s) * j**(-p).  The c(i) stay inside a
    fixed band; nothing is assumed about their limit.
    """

    decay: float
    alpha: float
    first_digit: int = 2
    _support: Phi = field(init=False, repr=False)
    _cache: dict = field(init=False, repr=False)

    def __post_init__(self):
        if not self.decay > 1.0:
            raise PreconditionError(
                f"power-law digit measure needs decay d > 1, got {self.decay}"
            )
        if not self.alpha > 1.0:
            raise PreconditionError(
                f"power-law digit measure needs alpha > 1, got {self.alpha}"
            )
        if not isinstance(self.first_digit, int) or self.first_digit < 1:
            raise PreconditionError(
                f"first digit must be an integer >= 1, got {self.first_digit}"
            )
        object.__setattr__(self, "_support", Phi("pow", alpha=float(self.alpha)))
        object.__setattr__(self, "_cache", {})

    @property
    def base_exponent(self) -> float:
        return 1.0 / (1.0 + self.alpha * (self.decay - 1.0))

    @property
    def tail_exponent(self) -> float:
        return (self.decay + self.alpha * (self.decay - 1.0)) * self.base_exponent

    def support_start(self, i: int) -> int:
        """Smallest admissible successor of digit i: ceil(i**alpha), exact."""
        if not isinstance(i, int) or i < 1:
            raise PreconditionError(f"digit must be an integer >= 1, got {i}")
        return self._support.ceil(i)

    def _tail_norm(self, start: int) -> tuple:
        """(lo, hi, mid) certified brackets of sum_{j >= start} j**-p."""
        key = ("norm", start)
        got = self._cache.get(key)
        if got is None:
            b_lo, b_hi = power_sum_brackets(start, None, self.tail_exponent)
            got = (b_lo, b_hi, 0.5 * (b_lo + b_hi))
            self._cache[key] = got
        return got

    def normalizer(self, i: int) -> float:
        """c(i), to within the certified tail-sum bracket (rel ~1e-15)."""
        start = self.support_start(i)
        s_mid = self._tail_norm(start)[2]
        a = self.alpha * (self.decay - 1.0) * self.base_exponent
        return math.exp(-a * math.log(i) - math.log(s_mid))

    def _inv_table(self, start: int) -> np.ndarray | None:
        """Cumulative conditional masses over a block past ``start``.

        Serves the common repeated-start draws by binary search; None when
        the start is large or the cache is full (the scalar candidate
        route handles those).
        """
        if start > _INV_TABLE_START_CAP:
            return None
        key = ("table", start)
        tab = self._cache.get(key)
        if tab is None:
            if sum(1 for k in self._cache if k[0] == "table") >= _INV_TABLE_CACHE_CAP:
                return None
            j = np.arange(start, start + _INV_TABLE_SPAN, dtype=float)
            tab = np.cumsum(j ** -self.tail_exponent)
            self._cache[key] = tab
        return tab


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


def _tail_quantile(measure: PowerLawDigitMeasure, start: int, u: float) -> int:
    """Smallest j >= start whose cumulative conditional mass reaches u.

    Exact inverse CDF: a cumulative table lookup for common small starts,
    otherwise a candidate from the integral bracket refined by at most
    _SEARCH_STEPS certified partial-sum comparisons, with the certified
    crossing scan as the fallback.  Deterministic in (start, u).
    """
    p = measure.tail_exponent
    s_lo = measure._tail_norm(start)[0]
    target = u * s_lo
    if target <= 0.0:
        return start
    tab = measure._inv_table(start)
    if tab is not None and target <= tab[-1]:
        return start + int(np.searchsorted(tab, target, side="left"))
    # Midpoint-integral candidate: solve the continuous crossing, then walk.
    a_val = math.exp((1.0 - p) * math.log(start - 0.5))
    b_val = a_val - (p - 1.0) * target
    if b_val <= 0.0:
        return first_index_reaching(start, p, target).index
    log_x = -math.log(b_val) / (p - 1.0)
    if log_x > 700.0:
        raise NumericFailure(
            "sampled digit beyond the representable-integer budget "
            f"(log candidate {log_x:.1f})"
        )
    cand = max(start, int(round(math.exp(log_x) - 0.5)))

    def cum(j: int) -> float:
        b_lo, b_hi = power_sum_brackets(start, j, p)
        return 0.5 * (b_lo + b_hi)

    j = cand
    if cum(j) >= target:
        for _ in range(_SEARCH_STEPS):
            if j == start or cum(j - 1) < target:
                return j
            j -= 1
        return first_index_reaching(start, p, target).index
    for _ in range(_SEARCH_STEPS):
        j += 1
        if cum(j) >= target:
            return j
    return first_index_reaching(start, p, target).index


def sample_digits(
    measure: PowerLawDigitMeasure, depth: int, seed: int = 0
) -> tuple:
    """Draw one digit word of the given depth, deterministically in seed.

    The first digit is the measure's fixed start; every later digit comes
    from the exact tail inversion.  Window starts grow like a power tower,
    so past a few levels they leave the exact-arithmetic budget; that
    raises with the achieved depth in the message.
    """
    if not isinstance(depth, int) or depth < 1:
        raise PreconditionError(f"depth must be an integer >= 1, got {depth}")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed))))
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
            j = _tail_quantile(measure, start, u)
        except NumericFailure as e:
            raise NumericFailure(
                f"{e}; achieved depth {n - 1} of {depth}"
            ) from e
        word.append(j)
    return tuple(word)


# ---------------------------------------------------------------------------
# Local dimension by Monte Carlo


def _chain_rate_logs(system: DecaySystem, exact: bool, i, li: float):
    """(log xi, log lambda) of branch i, from the exact index or its log."""
    if exact:
        return system.log_contract_lo(i), system.log_contract_hi(i)
    # log(i + t) = li + log1p(t / i); past li = 40 the correction is below
    # an ulp of li.
    corr = math.log1p(system.shift * math.exp(-li)) if li < 40.0 else 0.0
    log_scale = math.log(system.scale)
    return log_scale - system.decay * (li + corr), log_scale - system.decay * li


def _chain_window_logs(system: DecaySystem, exact: bool, start, lstart: float):
    """(log lo, log hi) of the length of the admissible level-1 window.

    The window is the union of the branch images with index >= start: for
    the reciprocal-shift kind that is exactly (0, 1/start]; for the affine
    kind its length is the certified tail sum of the slopes.
    """
    if system.kind == "gauss":
        return -lstart, -lstart
    d = system.decay
    log_scale = math.log(system.scale)
    if exact and start <= _CHAIN_EXACT_CAP:
        b_lo, b_hi = power_sum_brackets(start, None, d)
        return log_scale + math.log(b_lo), log_scale + math.log(b_hi)
    corr = (d - 1.0) * 0.5 * math.exp(-lstart) if lstart < 40.0 else 0.0
    val = log_scale + (1.0 - d) * lstart - math.log(d - 1.0) + math.log1p(corr)
    return val, val


def _log_tail_norm(measure: PowerLawDigitMeasure, lstart: float) -> float:
    """log of sum_{j >= start} j**-p from log(start), continuous regime."""
    p = measure.tail_exponent
    corr = (p - 1.0) * 0.5 * math.exp(-lstart) if lstart < 40.0 else 0.0
    return (1.0 - p) * lstart - math.log(p - 1.0) + math.log1p(corr)


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

    Digit chains run exactly while window starts stay small, then switch
    to the continuous log-domain tail, so depth 30 with doubly exponential
    digits costs nothing.  Each sample owns one spawned child of the seed
    (counter-based streams), so runs are reproducible and order-stable.

    csv_stream, when given, receives one row per (sample, level):
    sample_id, n, digit, log10_digit, log_r_lo, log_r_hi, log_mass, where
    digit is blank once the chain leaves the exact regime.
    """
    if not isinstance(samples, int) or samples < 100:
        raise PreconditionError(f"needs at least 100 samples, got {samples}")
    if not isinstance(depth, int) or depth < 5:
        raise PreconditionError(f"needs depth >= 5, got {depth}")
    if system.kind not in ("gauss", "linear-power"):
        raise PreconditionError(
            "local dimension runs on the gauss or linear-power kinds, "
            f"not {system.kind!r}"
        )
    p = measure.tail_exponent
    alpha = measure.alpha
    log_chain_cap = math.log(_CHAIN_EXACT_CAP)
    children = np.random.SeedSequence(int(seed)).spawn(samples)
    if csv_stream is not None:
        csv_stream.write(
            "sample_id,n,digit,log10_digit,log_r_lo,log_r_hi,log_mass\n"
        )
    slopes_mid = []
    slopes_lo = []
    slopes_hi = []
    delta_ratios = []
    truncated = 0
    switch_levels = []
    for k in range(samples):
        rng = np.random.Generator(np.random.Philox(children[k]))
        exact = True
        i = measure.first_digit
        li = math.log(i)
        cum_lo = cum_hi = 0.0
        log_mass = 0.0
        xs_lo = np.empty(depth)
        xs_hi = np.empty(depth)
        ys = np.empty(depth)
        n_kept = 0
        switched_at = None
        for n in range(1, depth + 1):
            if not math.isfinite(li) or li > _LOG_DIGIT_TRUNC:
                truncated += 1
                break
            small = exact and alpha * li <= log_chain_cap
            if small:
                start = measure.support_start(i)
                lstart = math.log(start)
            else:
                start = None
                lstart = alpha * li
            r_lo, r_hi = _chain_rate_logs(system, exact, i, li)
            cum_lo += r_lo
            cum_hi += r_hi
            w_lo, w_hi = _chain_window_logs(system, small, start, lstart)
            xs_lo[n - 1] = w_lo + cum_lo
            xs_hi[n - 1] = w_hi + cum_hi
            ys[n - 1] = log_mass
            n_kept = n
            if csv_stream is not None:
                digit_text = str(i) if exact else ""
                csv_stream.write(
                    f"{k},{n},{digit_text},{li / _LN10!r},"
                    f"{float(xs_lo[n - 1])!r},{float(xs_hi[n - 1])!r},{log_mass!r}\n"
                )
            if n == depth:
                break
            u = rng.random()
            if small and start <= _CHAIN_EXACT_CAP:
                j = _tail_quantile(measure, start, u)
                s_mid = measure._tail_norm(start)[2]
                log_mass += -p * math.log(j) - math.log(s_mid)
                i = j
                li = math.log(j)
            else:
                if exact:
                    switched_at = n
                    exact = False
                lj = lstart - math.log1p(-u) / (p - 1.0)
                log_mass += -p * lj - _log_tail_norm(measure, lstart)
                li = lj
        if n_kept < 3:
            continue
        x_lo = xs_lo[:n_kept]
        x_hi = xs_hi[:n_kept]
        y = ys[:n_kept]
        x_mid = 0.5 * (x_lo + x_hi)
        for xs, dest in ((x_mid, slopes_mid), (x_lo, slopes_lo), (x_hi, slopes_hi)):
            dx = xs - xs.mean()
            dest.append(float(np.dot(dx, y - y.mean()) / np.dot(dx, dx)))
        # Deepest-level mass-to-length exponent (both sides of the pairing
        # the regression runs on); tends to the base exponent.
        if x_mid[-1] != 0.0:
            delta_ratios.append(float(y[-1] / x_mid[-1]))
        if switched_at is not None:
            switch_levels.append(switched_at)
    if not slopes_mid:
        raise NumericFailure("every sampled chain truncated before 3 levels")
    mid = np.asarray(slopes_mid)
    value = float(mid.mean())
    sd = float(mid.std(ddof=1)) if len(mid) > 1 else 0.0
    ci = 1.96 * sd / math.sqrt(len(mid))
    spread = float(np.mean(np.abs(np.asarray(slopes_hi) - np.asarray(slopes_lo)))) / 2.0
    half = ci + spread
    diag = {
        "samples": samples,
        "kept": len(mid),
        "depth": depth,
        "seed": int(seed),
        "slope_sd": sd,
        "ci95": ci,
        "bracket_spread": spread,
        "truncated": truncated,
        "mean_switch_level": float(np.mean(switch_levels)) if switch_levels else None,
        "delta_ratio_mean": float(np.mean(delta_ratios)) if delta_ratios else None,
    }
    return _estimate(value, "local-dim", value - half, value + half, diag)
