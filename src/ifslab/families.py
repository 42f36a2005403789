"""Concrete system families: reciprocal shifts, affine tilings, gap tilings.

make_gauss gives the reciprocal-shift family f_i(x) = 1/(x + i), the
system with no affine map: its rate profile (d, c, t) = (2, 1, 1) is the
derivative sandwich (i+1)**-2 <= |f_i'| <= i**-2, and its images are
ordered decreasingly in i and tile (0, 1].

make_linear_power(d) gives an affine family with ratio i**(-d) / zeta(d)
placed right to left so consecutive images share an endpoint (to one
rounding): an exactly-solvable testbed with the same decay profile and
ordering as the reciprocal family but constant derivatives.

build_gap_system(phi, d, eps) realizes an affine family whose images have
explicit gaps arranged along the block structure of a restriction Phi: all
indices inside the block (Phi(l_j), l_{j+1}] of the construction's own
ladder get an extra gap C * j**-2 / l_{j+1} inserted before their
interval.  The normalizing constant C makes intervals plus gaps exhaust
[0, 1] exactly; C appears both in the ladder summand and in its own
normalizer, so it is resolved by fixed-point iteration, with a certified
tail bound on the truncated block series.  Image n is [a_n, a_n + C n**-d]
with a_n = 1 - C - (C * (zeta(d, 2) - zeta(d, n+1)) + G(n)), where G(n)
sums each block's gap over its indices in [2, n].  The bracketed series is
formed at _prec(d, n) bits and rounded there at the zeta, the difference,
the product and the gap sum, so it is within a few ulps at _prec(d, n)
bits, far inside the validator's tolerance min(2**-100, ratio * 2**-64);
the rest is exact, so offsets and ratios are exact binary rationals at
every index.  The linear-power family is the same closed form with no
blocks (G = 0) and C = 1/zeta(d); AffineMap holds it for both affine
families, and with it the rate profile (d, float(C), 0) that DecaySystem
reads off the map.

mpmath is imported inside the functions that call it, so the commands
that never form an affine family (all of gauss) never load it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .restrictions import Phi, _ladder_step
from .systems import DecaySystem, NumericFailure, PreconditionError, _integer, verify_power_decay

_MP_PREC = 128

# Most ladder blocks the gap construction materializes.  Each rung exceeds
# Phi of the one before, so for a power Phi this bounds the size of the
# ladder's integers.
_GAP_MAX_BLOCKS = 24

_TAIL_REL = 1e-12

# Most working bits of an offset, _prec(d, i).  Its Hurwitz zeta costs
# about fourfold per doubling: one took 0.10-0.16 s at 4096 bits,
# 0.51-0.56 s at 8192 and 1.0-1.9 s at 10240 (d 300, 1000 and 1e4, on a
# 2-vCPU Xeon with mpmath's pure-Python backend).
_OFFSET_BITS_CAP = 1 << 13


def _mpf_to_fraction(x) -> Fraction:
    """Exact rational value of an mpf (sign, mantissa, base-2 exponent),
    read at the precision it was formed at, whatever the ambient one."""
    sign, man, exp, _ = x._mpf_
    v = Fraction(int(man)) * Fraction(2) ** int(exp)
    return -v if sign else v


def _prec(decay: float, i: int) -> int:
    """Working bits at index i: 128, or 96 below the scale i**-d of image i
    once that is finer (past i**d = 2**32), so an offset's absolute rounding
    stays below 2**-126 and about 2**-94 / C of image i's length."""
    return max(_MP_PREC, math.ceil(decay * math.log2(i)) + 96)


def _ratio(c_mpf, decay: float, i: int) -> Fraction:
    """C * i**-d at _prec(d, i) bits, rounded twice (the power, then the
    product), as an exact rational."""
    import mpmath

    with mpmath.workprec(_prec(decay, i)):
        return _mpf_to_fraction(c_mpf * mpmath.power(i, -decay))


def _zeta_2(decay: float):
    """zeta(d, 2) at _MP_PREC bits, the offsets' common series head."""
    import mpmath

    with mpmath.workprec(_MP_PREC):
        return mpmath.zeta(decay, 2)


def _offset(c_mpf, decay: float, zeta_2, blocks: tuple, i: int) -> Fraction:
    """a_i by the closed form; zeta_2() gives zeta(d, 2) at 128 bits.

    Only the series C * (zeta(d, 2) - zeta(d, i+1)) + G(i) is rounded, at
    _prec(d, i) bits: at the zeta, the difference, the product and the gap
    sum, a few ulps in all (zeta(d, 2)'s rounding is common to all
    offsets).  At i = 1 its lengths term is exactly 0 and is not formed, so
    offset(1) calls no zeta, and a_1 = 1 - C - G(1): image 1 ends flush at
    1 unless a hand-built map puts a block at index 1.  The tiling needs
    the lengths to sum, so d <= 1 is a PreconditionError: there
    zeta(d, i+1) is infinite (d = 1) or an analytic continuation.  An
    offset past _OFFSET_BITS_CAP working bits is a NumericFailure.
    """
    if not decay > 1:
        raise PreconditionError(f"an affine tiling needs decay d > 1, got {decay}")
    bits = _prec(decay, i)
    if bits > _OFFSET_BITS_CAP:
        raise NumericFailure(
            f"offset {i} of the decay-{decay} tiling needs {bits} bits, past the "
            f"{_OFFSET_BITS_CAP}-bit budget"
        )
    import mpmath

    with mpmath.workprec(bits):
        series = mpmath.mpf(sum(b.gap * max(0, min(b.end, i) - b.start + 1) for b in blocks))
        if i > 1:
            series += c_mpf * (zeta_2() - mpmath.zeta(decay, i + 1))
    return 1 - _mpf_to_fraction(c_mpf) - _mpf_to_fraction(series)


class AffineMap:
    """Branches f_i(x) = offset(i) + slope(i) * x of a right-to-left affine
    tiling of [0, 1], from (C, d, blocks).  A C that is not an mpf is
    converted to one at _MP_PREC bits, whatever the ambient precision:
    exactly for a float.

    Image n is [a_n, a_n + C * n**-d], and each index inside a block gets
    that block's gap between image n and image n-1; outside blocks
    consecutive images share an endpoint to within 2**-120 and 2**-64 of
    image n's length.  slope(i) = C * i**-d and offset(i) = a_i are each
    formed at _prec(d, i) bits to a few ulps (_ratio, _offset), so both
    are exact rationals at any index.  Each read is cached per map; the
    caches hold no reference to the map, so a system dies by reference
    count.  A slope costs a power, an offset a Hurwitz zeta: lengths,
    ladders and the composition certificate read slopes only.  The
    offsets' common zeta(d, 2) is formed at the first offset past index 1
    that is read, not when the map is built, and offset(1) = 1 - C - G(1)
    calls no zeta.  ``blocks`` is kept: it is empty for a gapless tiling.
    So are ``decay`` and the float ``scale`` of C, the rate profile's d and
    c, set once here so that no rate read converts an mpf.  A map with
    d <= 1 carries rates alone: reading one of its offsets is a
    PreconditionError.
    """

    def __init__(self, c_mpf, decay: float, blocks: tuple = ()):
        import mpmath

        if not isinstance(c_mpf, mpmath.mpf):
            with mpmath.workprec(_MP_PREC):
                c_mpf = mpmath.mpf(c_mpf)
        self.blocks = blocks
        self.decay = decay
        self.scale = float(c_mpf)
        zeta_2 = functools.cache(functools.partial(_zeta_2, decay))
        self.slope = functools.cache(functools.partial(_ratio, c_mpf, decay))
        self.offset = functools.cache(functools.partial(_offset, c_mpf, decay, zeta_2, blocks))

    def __repr__(self) -> str:
        return f"AffineMap(scale={self.scale!r}, decay={self.decay!r}, blocks={len(self.blocks)})"


def make_gauss() -> DecaySystem:
    """The reciprocal-shift family f_i(x) = 1/(x + i): the system with no
    affine map, whose rate profile is (d, c, t) = (2, 1, 1)."""
    return DecaySystem()


def make_linear_power(d: float) -> DecaySystem:
    """Affine right-to-left tiling with ratios proportional to i**(-d).

    The branches are the gap tiling's closed form with no blocks and
    C = 1/zeta(d) at 128 bits: image i is [a_i, a_i + C * i**-d] with
    a_i = 1 - C * zeta(d) + C * zeta(d, i+1) to a few ulps at _prec(d, i)
    bits.  Slopes and offsets are exact binary rationals, so
    cylinder arithmetic on the represented system is exact; image 1 ends
    exactly at 1, and consecutive images share an endpoint to within
    2**-120 and 2**-64 of the smaller image's length.
    """
    if not 1 < d < math.inf:
        raise PreconditionError("linear-power family needs a finite decay d > 1")
    import mpmath

    with mpmath.workprec(_MP_PREC):
        c_mpf = 1 / mpmath.zeta(d)
    return DecaySystem(AffineMap(c_mpf, float(d)))


@dataclass(frozen=True)
class GapBlock:
    """One ladder block of the gap construction; block j is ``blocks[j - 1]``.

    Indices n with start <= n <= end get the extra gap ``gap`` inserted
    between image n and image n-1.
    """

    start: int
    end: int
    gap: object  # extended-precision length


@dataclass(frozen=True)
class GapSystem:
    """An affine family with explicit inter-image gaps tiling [0, 1].

    system: the DecaySystem view; its affine map is the AffineMap of
        (C, d, blocks): exact slope(i) = C * i**-d and offset(i) = a_i at
        any index, cached per map.  The properties C and blocks read it.
    decay: the construction's d, kept apart from the map's for the validator.
    C_bracket: certified interval for C from the truncated normalizer.
    ladder: the construction's own index ladder, starting at 1.
    tail_bound: certified bound on the weight of all truncated blocks.
    """

    system: DecaySystem
    phi: Phi
    decay: float
    eps: float
    C_bracket: tuple
    ladder: tuple
    tail_bound: float
    _c_mpf: object = field(repr=False)

    @property
    def C(self) -> float:
        return self.system.affine.scale

    @property
    def blocks(self) -> tuple:
        return self.system.affine.blocks


def _gap_blocks(windows, c_mpf) -> tuple:
    """Block j covers the window (floor(Phi(l_j)) + 1, l_{j+1}) with the gap
    C * j**-2 / l_{j+1}."""
    import mpmath

    with mpmath.workprec(_MP_PREC):
        return tuple(
            GapBlock(start, end, c_mpf * mpmath.mpf(j) ** -2 / mpmath.mpf(end))
            for j, (start, end) in enumerate(windows, start=1)
        )


def _gap_ladder(phi: Phi, d: float, eps: float, c_val: float):
    """The construction's ladder: l_1 = 1, each step minimal for unit mass
    of C**(1/d-eps) * i**(-1+d*eps) over the open-ended block.

    Returns (windows, bound): the windows (floor(Phi(l_j)) + 1, l_{j+1}) of
    the blocks built, and the weight bound on every block not yet built,
    which is below the tail target, so the truncation is certified.  Each
    ladder value is floored once; the last one only anchors the bound.
    Raises NumericFailure when the bound has not collapsed within
    _GAP_MAX_BLOCKS blocks.
    """
    coeff = c_val ** (1.0 / d - eps)
    # 1 - d*eps rather than d * (1/d - eps): the two round differently.
    p = 1.0 - d * eps
    value, windows = 1, []
    while True:
        start = phi.floor(value) + 1
        if windows:
            bound = _future_weight_bound(d, eps, c_val, start - 1)
            if bound < _TAIL_REL / 10:
                return windows, bound
            if len(windows) == _GAP_MAX_BLOCKS:
                raise NumericFailure(
                    f"gap construction did not collapse within {_GAP_MAX_BLOCKS} blocks"
                )
        value, _ = _ladder_step(len(windows) + 1, start, coeff, p)
        windows.append((start, value))


def _future_weight_bound(d: float, eps: float, c_val: float, anchor: int) -> float:
    """Upper bound on (l_{j+1} - Phi(l_j)) / l_{j+1} for every block anchored
    at or beyond a ladder value l with floor(Phi(l)) = anchor.

    Ladder minimality bounds the block count by
    C**(eps-1/d) * l**(d*eps) + 2, so the weight is at most
    C**(eps-1/d) * Phi(l)**(-d*eps) + 2/Phi(l); both factors only shrink as
    the anchor grows, so the bound at the last value covers all later
    blocks.
    """
    q = 1.0 / d - eps
    log_phi = math.log(anchor)
    t1 = math.exp(-q * math.log(c_val) - d * eps * log_phi)
    t2 = 2.0 * math.exp(-log_phi)
    return min(1.0, t1 + t2)


def build_gap_system(phi: Phi, d: float, eps: float) -> GapSystem:
    """Realize the gap construction for a restriction Phi.

    The normalizer C satisfies
        1/C = sum_{i>=1} i**(-d) + sum_j j**(-2) (l_{j+1}-Phi(l_j))/l_{j+1},
    with the ladder itself depending on C through its summand; the pair is
    resolved by fixed-point iteration to 1e-12.  Both series carry
    certified tails: the zeta term is exact at working precision and the
    block series collapses doubly exponentially, which is what keeps the
    number of materialized blocks small.
    """
    if not d > 1:
        raise PreconditionError("gap construction needs decay d > 1")
    if not 0 < eps < (d - 1) / 2:
        raise PreconditionError("gap construction needs eps in (0, (d-1)/2)")
    if eps >= 1.0 / d:
        # The ladder summand exponent -1 + d*eps must stay negative.
        raise PreconditionError("gap construction needs eps < 1/d")
    import mpmath

    with mpmath.workprec(_MP_PREC):
        zeta_d = mpmath.zeta(d)
        c_cur = float(1 / zeta_d)
        for _ in range(60):
            windows, w_bound = _gap_ladder(phi, d, eps, c_cur)
            head = mpmath.mpf(0)
            for j, (start, end) in enumerate(windows, start=1):
                head += mpmath.mpf(j) ** -2 * mpmath.mpf(end - start + 1) / mpmath.mpf(end)
            tail_hi = mpmath.mpf(w_bound) / len(windows)
            n_lo = zeta_d + head
            n_hi = n_lo + tail_hi
            c_lo = 1 / n_hi
            c_hi = 1 / n_lo
            c_new = float((c_lo + c_hi) / 2)
            if abs(c_new - c_cur) < 1e-12:
                c_cur = c_new
                break
            c_cur = c_new
        else:
            raise NumericFailure("gap normalizer fixed point did not converge in 60 rounds")
        c_mpf = (c_lo + c_hi) / 2
        tail_bound = float(tail_hi * c_mpf)

    return GapSystem(
        system=DecaySystem(AffineMap(c_mpf, float(d), _gap_blocks(windows, c_mpf))),
        phi=phi,
        decay=float(d),
        eps=float(eps),
        C_bracket=(float(c_lo), float(c_hi)),
        ladder=(1, *(end for _, end in windows)),
        tail_bound=tail_bound,
        _c_mpf=c_mpf,
    )


@dataclass(frozen=True)
class GapValidationReport:
    """Outcome of the four gap-system checks, with witnesses on failure.

    disjoint: no checked image overlaps its left neighbour by more than
        2**-100 or 2**-64 of its length (images run right to left).
    contained: image 1 ends at most at 1, image n_max starts at least at 0.
    gaps_match: at every checked index the realized gap before the image
        is C * j**-2 / l_{j+1} to relative accuracy 1e-12 inside block j,
        and within that tolerance of 0 outside every block.  The witness
        names the block holding the index, else the nearest block.
    decaying: verify_power_decay succeeded for the system's (d, eps).
    """

    n_max: int
    disjoint: bool
    contained: bool
    gaps_match: bool
    decaying: bool
    threshold: int | None
    witness: dict

    @property
    def all_pass(self) -> bool:
        return self.disjoint and self.contained and self.gaps_match and self.decaying


_GAP_HEAD = range(2, 17)


def validate_gap_system(gs: GapSystem, n_max: int) -> GapValidationReport:
    """Check the system's affine map against the construction's data.

    The blocks are derived again from phi, the ladder and C, not read from
    ``gs.blocks``.  Gap sizes and disjointness are checked at 2..16 and at
    each block's start-1, start, start+1, end and end+1, those at most
    n_max; containment at 1 and n_max; power decay at every index, from
    the rate profile.  So the map is evaluated O(blocks) times,
    however large n_max is.  n_max has no upper cap of its own: the
    offsets' precision grows with d * log2(n), and an offset past
    _OFFSET_BITS_CAP working bits raises NumericFailure.  The realized
    gaps are formed with the ratio C * n**-d from the construction's C and
    d, never the map's own slope, so a wrong map cannot vouch for itself.
    """
    n_max = _integer("n_max", n_max, 2)
    windows = [(gs.phi.floor(prev) + 1, end) for prev, end in zip(gs.ladder, gs.ladder[1:])]
    blocks = _gap_blocks(windows, gs._c_mpf)
    edges = {n for b in blocks for n in (b.start - 1, b.start, b.start + 1, b.end, b.end + 1)}
    checked = sorted(n for n in edges.union(_GAP_HEAD) if 2 <= n <= n_max)
    witness: dict = {}
    disjoint = gaps_match = True
    offset = gs.system.affine.offset
    top = offset(1) + _mpf_to_fraction(gs._c_mpf)  # right end of the first image
    a_nmax = offset(n_max)
    contained = 0 <= a_nmax and top <= 1
    if not contained:
        witness["contained"] = {"a_nmax": float(a_nmax), "top": float(top)}
    for n in checked:
        ratio = _ratio(gs._c_mpf, gs.decay, n)
        # Outside the gap blocks consecutive images share an endpoint, so
        # both checks tolerate rounding there, absolute and relative.
        tol = min(Fraction(1, 2**100), ratio / 2**64)
        realized = offset(n - 1) - (offset(n) + ratio)
        if disjoint and realized < -tol:
            disjoint = False
            witness["disjoint"] = {"index": n}
        j, block = min(enumerate(blocks, 1), key=lambda b: max(b[1].start - n, n - b[1].end, 0))
        inside = block.start <= n <= block.end
        gap = _mpf_to_fraction(block.gap)
        err = abs(realized - gap) if inside else abs(realized)
        if gaps_match and err > (Fraction(1e-12) * gap if inside else tol):
            gaps_match = False
            witness["gaps"] = {"index": n, "block": j, "rel_err": float(err / gap)}
    threshold = None
    decaying = True
    try:
        rep = verify_power_decay(gs.system, gs.eps)
        threshold = rep.threshold
    except (NumericFailure, PreconditionError) as e:
        decaying = False
        witness["decay"] = str(e)
    return GapValidationReport(
        n_max=n_max,
        disjoint=disjoint,
        contained=contained,
        gaps_match=gaps_match,
        decaying=decaying,
        threshold=threshold,
        witness=witness,
    )
