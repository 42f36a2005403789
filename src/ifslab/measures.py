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
law from digit i is a power tail supported on j >= ceil(i**alpha), with
the decay d of the system it runs on; the estimator builds it from that
system, so the measure and the system never disagree about d.  A
Monte Carlo estimator samples its chains, by exact inverse CDF on the tail
while window starts stay within _CHAIN_EXACT_CAP, and regresses cylinder
masses against bracketed neighborhood lengths to read off the local
dimension.  That chain is the one place digits are drawn, and that cap the
one bound on an exact start.  Every exact digit is the certified crossing
index of the power-sum core: a level's exact draws go to the batched
crossing in one call, whose numpy pass answers the draws it certifies and
whose crossing search answers the rest; the route never changes a digit.
The estimator runs level by level over a block of samples; sample k draws
its uniforms from its own spawned Philox child, the n-th feeding level n,
and every chain step is elementwise, so no sample reads another.  That is
what lets the blocks run apart, one per usable CPU, the first in process
and the rest in forked children: the merge reads their rows in sample
order, so neither the report nor the stream depends on how many CPUs there
are.  A run holds a few samples x depth arrays, so samples x depth has a
budget, _CHAIN_CELLS_MAX, checked before anything is allocated.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence, TextIO

import numpy as np

from ._blocks import _block_bounds, _in_blocks
from .dimension import DimensionEstimate, _estimate, bowen_root
from .powersum import first_indices_reaching, power_sum_brackets
from .restrictions import Ladder, Phi, build_ladder
from .systems import DecaySystem, NumericFailure, PreconditionError
from .systems import _append_digits, _digit_table, _empty_words, _integer

_VERIFY_SAMPLE_CAP = 100_000

# The most digits verify_frostman checks: words (sampled or enumerated)
# times the verify depth, which bounds its time and its blocks at any depth
# the ladder budget allows.  At the budget, gauss lin:1 at eps 0.1 took 0.5 s
# at depth 5, 6.6 s at depth 16 and 26 s (340 MB, continuants past int64)
# at depth 256 (2-vCPU Xeon).
_VERIFY_DIGITS_MAX = 2**24

# verify_frostman checks words in blocks of this many rows.
_VERIFY_ROWS = 2**16
_INT64_MAX = 2**63 - 1

# The local-dimension chain draws exact digits from window starts up to
# this and switches to the continuous log-domain tail past it (its digits
# never need to be materialized).
_CHAIN_EXACT_CAP = 10**6

# A log-digit beyond this truncates the sample (flagged, not fatal).  A
# level's log-lengths reach alpha times it (alpha stays below about 1e16 for
# a valid measure), and the regression sums their squares over the levels,
# so the bar keeps those sums well inside the float range.
_LOG_DIGIT_TRUNC = 1e130

_LN10 = math.log(10.0)

# numpy's SeedSequence hash constants, and the Philox4x64 multipliers and
# key increments (Salmon et al., "Parallel random numbers: as easy as 1, 2,
# 3", SC 2011), for ``_spawn_uniforms``.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PHILOX_M = (np.uint64(0xD2E7470EE14C6C93), np.uint64(0xCA5A826395121157))
_PHILOX_W = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B))
_LO32, _U32 = np.uint64(_MASK32), np.uint64(32)

# Fewest samples per chain block.  A block costs a fork and a pickled
# result, so the forked chain serves long runs: at the CLI default of 10000
# samples (gauss alpha 2, depth 30, no stream, in process, 2-vCPU Xeon) two
# blocks took 135-143 ms against 204-208 ms for one in two rounds of five
# alternating runs (the third read 258 against 227 ms).  At 500 samples one
# block was faster: 16 against 20 ms without a stream, and 59 against 80 ms
# with one, whose float formatting took 43 ms of the single block's run.
_BLOCK_MIN_SAMPLES = 100

# The most sample-levels (samples x depth) of one local-dimension run.  A
# chain block's numpy peak is about 100 bytes per sample-level (tracemalloc,
# gauss alpha 2: 100 B at 69905 x 30, 97 B at 6990 x 300).  At this budget
# (279620 x 30, 2-vCPU Xeon) one block peaked at 941 MB RSS, and two at
# 871 MB in process and 292 MB in the child.
_CHAIN_CELLS_MAX = 2**23


# ---------------------------------------------------------------------------
# Layered window measure


@dataclass(frozen=True)
class FrostmanLevel:
    """One level of the layered measure; level n feeds on the ladder's
    window n, the inclusive digit range (lo, hi) from the first index past
    the restriction of the previous ladder value to the next ladder value.

    exponent: s_n solving sum over the window of contract_lo(i)**s_n = 1,
        the xi Bowen root of the window (dimension.bowen_root, tol 1e-10).
    mass_defect: |P - 1|, P the midpoint of the certified bracket of that
        sum at s_n; the whole bracket lies within 1e-10 of 1.  A window too
        wide for such a bracket is a NumericFailure (exit 3).
    """

    exponent: float
    mass_defect: float


@dataclass(frozen=True)
class FrostmanMeasure:
    """Product measure over ladder windows with per-level exponents.

    The mass of the cylinder with digits (w_1, ..., w_n) is the product of
    contract_lo(w_k)**s_k over the levels; a digit outside its level window
    gives mass zero.  Every exponent satisfies s_n >= 1/d - eps (the window
    reaches past the ladder crossing, where the 1/d - eps power sum already
    exceeds one), which is what makes the mass-length comparison in
    ``verify_frostman`` provable rather than empirical.  ``levels[n - 1]``
    is level n, on ``ladder.windows[n - 1]``; eps is the ladder's and depth
    the number of levels.
    """

    system: DecaySystem
    ladder: Ladder
    levels: tuple

    @property
    def eps(self) -> float:
        return self.ladder.eps

    @property
    def depth(self) -> int:
        return len(self.levels)


def build_frostman_measure(
    system: DecaySystem, phi: Phi, eps: float, depth: int
) -> FrostmanMeasure:
    """Build the layered window measure down to the given depth.

    Needs 0 < eps < 1/d (enforced by the ladder) and depth >= 1; every
    window must hold at least 4 digits so that trimming leaves at least 2.
    Ladder construction failures propagate unchanged.
    """
    depth = _integer("depth", depth, 1)
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
            if root.bracket[1] < floor_s:
                raise NumericFailure(
                    f"exponent bracket ends at {root.bracket[1]!r}, below the decay "
                    f"floor {floor_s!r}; the ladder does not cover this window"
                )
        except NumericFailure as exc:
            raise NumericFailure(
                f"level {n} window ({lo.bit_length()}-bit lo .. {hi.bit_length()}-bit hi): {exc}"
            ) from exc
        levels.append(
            FrostmanLevel(exponent=root.value, mass_defect=abs(root.diagnostics["residual"]))
        )
    return FrostmanMeasure(system=system, ladder=ladder, levels=tuple(levels))


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
    for digit, lev, (lo, hi) in zip(word, measure.levels, measure.ladder.windows):
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


def _hashmix(value, const: int, mult: int):
    """One step of numpy's SeedSequence hash on an array of uint32 words:
    (hashed values, next hash constant)."""
    nxt = const * mult & _MASK32
    value = (value ^ const) * nxt & _MASK32
    return value ^ value >> 16, nxt


def _mix(x, y):
    """numpy's SeedSequence mix of two uint32 words (ints or uint32 arrays)."""
    out = ((_MIX_MULT_L * x & _MASK32) - (_MIX_MULT_R * y & _MASK32)) & _MASK32
    return out ^ out >> 16


def _mulhilo(m: np.uint64, x: np.ndarray) -> tuple:
    """(high, low) 64-bit words of the products of m with a uint64 array."""
    m_lo, m_hi = m & _LO32, m >> _U32
    x_lo, x_hi = x & _LO32, x >> _U32
    ll, hl = x_lo * m_lo, x_hi * m_lo
    cross = (ll >> _U32) + (hl & _LO32) + x_lo * m_hi
    return x_hi * m_hi + (hl >> _U32) + (cross >> _U32), cross << _U32 | ll & _LO32


def _spawn_uniforms(root: np.random.SeedSequence, lo: int, hi: int, n: int) -> np.ndarray:
    """Row k: the first n uniforms of the spawned child lo + k of root.

    Bit for bit ``Generator(Philox(child)).random(n)`` with child the
    SeedSequence of root's entropy and spawn key (lo + k,), for a root with
    no spawn key of its own (``SeedSequence(seed)``) and every spawn index
    below 2**32 (one uint32 word), in one numpy pass over the block.  The
    child's entropy words are the root's, padded to the pool size, then the
    index, so its hash runs through numpy's own root state ``root.pool``
    and the hash constant after the root's calls; only the index is mixed
    in, as a uint32 array.  The two key words of each child's
    Philox4x64-10 are formed as ``generate_state(2, uint64)`` forms them,
    and every stream run over counters 1..ceil(n / 4) at once: Philox is
    counter-based, and numpy's stream bumps the counter before each block
    of four words.  A uniform is (x >> 11) * 2**-53.
    """
    size = root.pool_size
    words = max(1, -(-root.entropy.bit_length() // 32))
    # The root's fill and cross-mix make size**2 hash calls, and each
    # entropy word past the pool adds size more.
    calls = size**2 + size * max(0, words - size)
    const = _INIT_A * pow(_MULT_A, calls, 1 << 32) & _MASK32
    pool = root.pool.tolist()
    index = np.arange(lo, hi, dtype=np.uint32)
    for dst in range(size):
        value, const = _hashmix(index, const, _MULT_A)
        pool[dst] = _mix(pool[dst], value)
    state, const = [], _INIT_B
    for word in pool[:4]:
        value, const = _hashmix(word, const, _MULT_B)
        state.append(value.astype(np.uint64))
    key = [(state[0] | state[1] << _U32)[:, None], (state[2] | state[3] << _U32)[:, None]]
    blocks = -(-n // 4)
    zero = np.zeros((hi - lo, blocks), dtype=np.uint64)
    ctr = [zero + np.arange(1, blocks + 1, dtype=np.uint64), zero, zero, zero]
    for r in range(10):
        if r:
            key = [key[0] + _PHILOX_W[0], key[1] + _PHILOX_W[1]]
        hi0, lo0 = _mulhilo(_PHILOX_M[0], ctr[0])
        hi1, lo1 = _mulhilo(_PHILOX_M[1], ctr[2])
        ctr = [hi1 ^ ctr[1] ^ key[0], lo1, hi0 ^ ctr[3] ^ key[1], lo0]
    x = np.stack(ctr, axis=-1).reshape(hi - lo, 4 * blocks)[:, :n]
    return (x >> np.uint64(11)).astype(float) * 2.0**-53


def _sampled_words(windows: list, count: int, root: np.random.SeedSequence):
    """``count`` words drawn uniformly from the window product, in blocks.

    Rows come from the root's Philox stream one word at a time, digit by
    digit, so every block holds the same words as scalar draws in that
    order.  Digits are int64, so a window past 2**63 - 1 cannot be drawn.
    """
    for n, (lo, hi) in enumerate(windows, 1):
        if hi > _INT64_MAX:
            raise NumericFailure(
                f"level {n} window ({lo}..{hi}) lies past int64; sampled "
                "digits stop at 2**63 - 1"
            )
    rng = np.random.Generator(np.random.Philox(root))
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
    pass without checking any word, and so is a seed that is not an integer
    >= 0, on either route.  A sampled window past int64 raises
    NumericFailure, and so do words x depth past _VERIFY_DIGITS_MAX, before
    any word is drawn or enumerated.
    """
    root = np.random.SeedSequence(_integer("seed", seed, 0))
    sample_cap = _integer("sample_cap", sample_cap, 1)
    depth = _integer("verify depth", depth, 0)
    if not 1 <= depth <= measure.depth:
        raise PreconditionError(
            f"verify depth {depth} outside the built range 1..{measure.depth}"
        )
    q = 1.0 / measure.system.decay - measure.eps
    windows = measure.ladder.windows[:depth]
    total = math.prod(hi - lo + 1 for lo, hi in windows)
    sampled = total > sample_cap
    count = min(total, sample_cap)
    if count * depth > _VERIFY_DIGITS_MAX:
        raise NumericFailure(
            f"{count} words x verify depth {depth} exceed the budget of "
            f"{_VERIFY_DIGITS_MAX} checked digits; lower the sample cap or the verify depth"
        )
    if sampled:
        blocks = _sampled_words(windows, sample_cap, root)
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
        object.__setattr__(self, "first_digit", _integer("first_digit", self.first_digit, 1))
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
        return self._support.ceil(_integer("digit i", i, 1))

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
    j = _integer("digit j", j, 1)
    start = measure.support_start(i)
    if j < start:
        return 0.0
    s_mid = measure._tail_norm(start)[2]
    return math.exp(-measure.tail_exponent * math.log(j) - math.log(s_mid))


def _tail_quantiles(measure: PowerLawDigitMeasure, starts, us: Sequence[float]) -> list:
    """Smallest j >= start whose cumulative conditional mass reaches u, per u.

    starts holds one window start per u, or one start for all of them.
    Every digit is the certified ``first_index_reaching(start, p, u * lo)``
    index, lo the lower tail-norm bracket at the start, taken for the whole
    batch by ``first_indices_reaching``: one numpy pass answers the draws it
    certifies, and the crossing search the rest, so neither the batch nor
    the route changes a digit.
    """
    us = np.asarray(us, dtype=float)
    starts = np.broadcast_to(np.asarray(starts, dtype=np.int64), us.shape)
    lows = np.array([measure._tail_norm(s)[0] for s in starts.tolist()])
    return [j for j, _ in first_indices_reaching(starts, measure.tail_exponent, us * lows)]


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


def _digit_facts(measure: PowerLawDigitMeasure, system: DecaySystem, i: int) -> tuple:
    """What the chain reads of an exact digit i: (log rate lo, log rate hi,
    support start, log start, window log lo, window log hi, log tail norm).

    The start is formed only while alpha * log(i) stays within
    log(_CHAIN_EXACT_CAP).  Past the cap it reads 0, with no window or tail
    norm (NaN), and the log start is its log if formed, else that estimate.
    """
    out = (system.log_contract_lo(i), system.log_contract_hi(i))
    lstart = measure.alpha * math.log(i)
    if lstart > math.log(_CHAIN_EXACT_CAP):
        return out + (0, lstart, math.nan, math.nan, math.nan)
    start = measure._support.ceil(i)
    if start > _CHAIN_EXACT_CAP:
        return out + (0, math.log(start), math.nan, math.nan, math.nan)
    log_norm = math.log(measure._tail_norm(start)[2])
    return out + (start, math.log(start)) + _exact_window_logs(system, start) + (log_norm,)


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
    system: DecaySystem,
    alpha: float,
    samples: int,
    depth: int,
    seed: int = 0,
    first_digit: int = 2,
    csv_stream: TextIO | None = None,
) -> DimensionEstimate:
    """Monte Carlo local dimension of ``PowerLawDigitMeasure(system.decay,
    alpha, first_digit)`` on the system, the measure taking the system's d.

    For each sampled word the estimator pairs, level by level, the mass of
    the current cylinder with the length of the union of its admissible
    next-level subcylinders.  That union's length is bracketed by the
    window length times the product of the per-digit contraction bounds;
    the regression runs on the bracket midpoint and the bracket width is
    folded into the confidence interval.  Masses of excluded subcylinders
    are never needed: the union carries the full cylinder mass.

    The chains advance level by level over a block of samples at once.
    Each sample owns one spawned Philox child of the seed, spawn index k
    for sample k, and draws depth - 1 uniforms from it; level n uses the
    n-th, so runs are reproducible and a sample's chain does not depend on
    the others.  A block's streams are generated in one numpy pass, bit for
    bit what numpy's own SeedSequence, Philox and Generator give; the
    spawn index must fit one uint32 word, so a run takes fewer than 2**32
    samples (PreconditionError otherwise, before anything is allocated).  A
    run also holds a few arrays of samples x depth floats, so samples x depth
    past _CHAIN_CELLS_MAX is a NumericFailure, raised before they are
    allocated.  Rows
    whose window start is at most _CHAIN_EXACT_CAP draw exact digits, all of
    a level's in one ``_tail_quantiles`` call, so every digit is the
    certified crossing index; what the chain reads of an exact digit (its
    rate logs, window start, window and tail norm) is computed once per
    digit and block.  Past
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
    measure = PowerLawDigitMeasure(system.decay, alpha, first_digit=first_digit)
    samples = _integer("samples", samples, 100)
    if samples > _MASK32:
        raise PreconditionError(
            f"needs fewer than 2**32 samples (a spawn index is one uint32 word), got {samples}"
        )
    depth = _integer("depth", depth, 5)
    if samples * depth > _CHAIN_CELLS_MAX:
        raise NumericFailure(
            f"{samples} samples x depth {depth} exceed the budget of {_CHAIN_CELLS_MAX} "
            "sample-levels; lower the samples or the depth"
        )
    if system.affine is not None and system.affine.blocks:
        raise PreconditionError(
            "local dimension runs on the gauss or linear-power families, not on "
            "a gap system: gaps split its windows, so no window is an interval"
        )
    root = np.random.SeedSequence(_integer("seed", seed, 0))
    stream = csv_stream is not None
    blocks = _in_blocks(
        lambda lo, hi: _chain_block(measure, system, root, depth, lo, hi, stream),
        _block_bounds(samples, _BLOCK_MIN_SAMPLES),
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
        "seed": root.entropy,
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

    Sample k draws from the k-th spawned child of root, whose stream
    depends on k alone, so a block's rows are those rows of the whole run.
    """
    samples = hi - lo
    p = measure.tail_exponent
    excess = measure._tail_excess
    alpha = measure.alpha
    uniforms = _spawn_uniforms(root, lo, hi, depth - 1)
    # words[k] holds sample k's exact digits and stops growing when its
    # chain goes continuous; while switch_level[k] == 0, its current digit
    # is words[k][-1].  A row is live at level n while n_kept[k] == n - 1.
    words = [[measure.first_digit] for _ in range(samples)]
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
    # Exact digit -> its _digit_facts.
    facts = {}
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, depth + 1):
            live = n_kept == n - 1
            fits = np.isfinite(li) & (li <= _LOG_DIGIT_TRUNC)
            truncated += int(np.count_nonzero(live & ~fits))
            rows = np.flatnonzero(live & fits)
            if rows.size == 0:
                break
            lstart = alpha * li
            rate_lo = np.empty(samples)
            rate_hi = np.empty(samples)
            win_lo = np.empty(samples)
            win_hi = np.empty(samples)
            cont = rows[switch_level[rows] > 0]
            rate_lo[cont], rate_hi[cont] = _chain_rate_logs(system, li[cont])
            # Exact rows: exact rate logs, and an exact window and draw for
            # starts up to the cap.
            ex = rows[switch_level[rows] == 0]
            drawn = windowless = ex
            if ex.size:
                got = []
                for k in ex.tolist():
                    i = words[k][-1]
                    fact = facts.get(i) or facts.setdefault(i, _digit_facts(measure, system, i))
                    got.append(fact)
                r_lo, r_hi, starts, log_starts, w_lo, w_hi, log_norms = map(np.array, zip(*got))
                rate_lo[ex], rate_hi[ex], lstart[ex] = r_lo, r_hi, log_starts
                inside = starts > 0
                drawn, windowless = ex[inside], ex[~inside]
                starts, log_norms = starts[inside], log_norms[inside]
                win_lo[drawn], win_hi[drawn] = w_lo[inside], w_hi[inside]
            rest = np.concatenate([cont, windowless])
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
            if drawn.size:
                js = _tail_quantiles(measure, starts, u[drawn])
                lj = np.array([math.log(j) for j in js])
                log_mass[drawn] += -p * lj - log_norms
                li[drawn] = lj
                for k, j in zip(drawn.tolist(), js):
                    words[k].append(j)
            # Every other live row draws on the continuous tail; exact rows
            # among them switch here.
            switch_level[rest[switch_level[rest] == 0]] = n
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
