"""Concrete system families: reciprocal shifts, affine tilings, gap tilings.

make_gauss gives the reciprocal-shift family f_i(x) = 1/(x + i) (decay
exponent 2, derivative sandwich (i+1)**-2 <= |f_i'| <= i**-2, images
ordered decreasingly in i and tiling (0, 1]).

make_linear_power(d) gives an affine family with ratio i**(-d) / Z placed
right to left so consecutive images share an endpoint: an exactly-solvable
testbed with the same decay profile and ordering as the reciprocal family
but constant derivatives.

build_gap_system(phi, d, eps) realizes an affine family whose images have
explicit gaps arranged along the block structure of a restriction Phi: all
indices inside the block (Phi(l_j), l_{j+1}] of the construction's own
ladder get an extra gap C * j**-2 / l_{j+1} inserted before their
interval.  The normalizing constant C makes intervals plus gaps exhaust
[0, 1] exactly; C appears both in the ladder summand and in its own
normalizer, so it is resolved by fixed-point iteration.  Offsets are kept
in extended precision with a certified tail bound on the truncated series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath

from .powersum import first_index_reaching
from .restrictions import Phi
from .systems import DecaySystem, NumericFailure, PreconditionError

_MP_PREC = 128

# Hard caps keeping the gap construction's big integers affordable.
_GAP_MAX_BLOCKS = 24
_GAP_OFFSET_CAP = 200_000

_TAIL_REL = 1e-12


def _mpf_to_fraction(x) -> Fraction:
    """Exact rational value of an mpf (sign, mantissa, base-2 exponent)."""
    sign, man, exp, _ = mpmath.mpf(x)._mpf_
    v = Fraction(int(man)) * Fraction(2) ** int(exp)
    return -v if sign else v


def make_gauss() -> DecaySystem:
    """The reciprocal-shift family f_i(x) = 1/(x + i)."""
    return DecaySystem(kind="gauss", decay=2.0, scale=1.0, shift=1, distortion=2.0)


def make_linear_power(d: float) -> DecaySystem:
    """Affine right-to-left tiling with ratios proportional to i**(-d).

    The normalizer Z = sum i**(-d) is evaluated at 128-bit precision; the
    represented ratios are the resulting binary rationals, so cylinder
    arithmetic on the represented system is exact.  Consecutive images
    share exactly one endpoint by construction.
    """
    if not d > 1:
        raise PreconditionError("linear-power family needs decay d > 1")
    with mpmath.workprec(_MP_PREC):
        z = mpmath.zeta(d)
        c_frac = _mpf_to_fraction(1 / z)
    d_frac = Fraction(d)
    exact_integer_d = d_frac.denominator == 1

    def ratio(i: int) -> Fraction:
        if exact_integer_d:
            return c_frac / i ** d_frac.numerator
        with mpmath.workprec(_MP_PREC):
            r = mpmath.power(i, -d)
        return c_frac * _mpf_to_fraction(r)

    # Offsets are partial-sum based and cached; offset(i) = 1 - sum_{j<=i} r_j,
    # image(i) = [offset(i), offset(i) + r_i], so image(i+1) abuts image(i).
    partial: list[Fraction] = [Fraction(0)]

    def offset(i: int) -> Fraction:
        while len(partial) <= i:
            partial.append(partial[-1] + ratio(len(partial)))
        return 1 - partial[i]

    def affine(i: int) -> tuple[Fraction, Fraction]:
        return offset(i), ratio(i)

    return DecaySystem(kind="linear-power", decay=float(d), scale=float(c_frac), affine=affine)


@dataclass(frozen=True)
class GapBlock:
    """One ladder block of the gap construction.

    Indices n with start <= n <= end get the extra gap ``gap`` inserted
    between image n and image n-1.
    """

    j: int
    start: int
    end: int
    gap: object  # extended-precision length


@dataclass(frozen=True)
class GapSystem:
    """An affine family with explicit inter-image gaps tiling [0, 1].

    system: the DecaySystem view (kind "gap").
    C: normalizing constant (float view of the extended-precision value).
    C_bracket: certified interval for C from the truncated normalizer.
    ladder: the construction's own index ladder, starting at 1.
    blocks: per-ladder-step gap blocks actually materialized.
    tail_bound: certified bound on the weight of all truncated blocks.
    """

    system: DecaySystem
    phi: Phi
    decay: float
    eps: float
    C: float
    C_bracket: tuple
    ladder: tuple
    blocks: tuple
    tail_bound: float
    _offsets: list = field(repr=False)
    _c_mpf: object = field(repr=False)

    def offset(self, i: int) -> object:
        """Left endpoint a_i of image i (extended precision)."""
        self._ensure_offsets(i)
        return self._offsets[i]

    def _gap_before(self, n: int) -> object:
        """Extra gap inserted between images n and n-1 (0 outside blocks)."""
        for b in self.blocks:
            if b.start > n:
                break
            if n <= b.end:
                return b.gap
        return mpmath.mpf(0)

    def _ensure_offsets(self, i: int) -> None:
        if i > _GAP_OFFSET_CAP:
            raise PreconditionError(
                f"gap-system offsets materialize up to {_GAP_OFFSET_CAP}, asked for {i}"
            )
        offs = self._offsets
        with mpmath.workprec(_MP_PREC):
            while len(offs) <= i:
                n = len(offs)
                if n == 0:
                    offs.append(None)  # offsets are 1-indexed
                elif n == 1:
                    offs.append(1 - self._c_mpf)
                else:
                    a = offs[n - 1] - self._c_mpf * mpmath.power(n, -self.decay)
                    a -= self._gap_before(n)
                    offs.append(a)


def _gap_ladder(phi: Phi, d: float, eps: float, c_val: float, max_blocks: int):
    """The construction's ladder: l_1 = 1, each step minimal for unit mass
    of C**(1/d-eps) * i**(-1+d*eps) over the open-ended block.

    Returns (values, collapsed): collapsed is True when the weight bound on
    every not-yet-constructed block fell below the tail target, so the
    truncation is certified.
    """
    q = 1.0 / d - eps
    p = 1.0 - d * eps
    coeff = c_val ** q
    values = [1]
    collapsed = False
    while len(values) <= max_blocks:
        prev = values[-1]
        start = phi.floor(prev) + 1
        res = first_index_reaching(start, p, 1.0, coeff)
        values.append(res.index + 1)
        if _future_weight_bound(phi, d, eps, c_val, values) < _TAIL_REL / 10:
            collapsed = True
            break
    return values, collapsed


def _future_weight_bound(phi: Phi, d: float, eps: float, c_val: float, values) -> float:
    """Upper bound on (l_{j+1} - Phi(l_j)) / l_{j+1} for every block not yet
    constructed (those anchored at or beyond the last ladder value).

    Ladder minimality bounds the block count by
    C**(eps-1/d) * l**(d*eps) + 2, so the weight is at most
    C**(eps-1/d) * Phi(l)**(-d*eps) + 2/Phi(l); both factors only shrink as
    the anchor grows, so the bound at the last value covers all later
    blocks.
    """
    anchor = phi.floor(values[-1])
    q = 1.0 / d - eps
    log_phi = math.log(max(anchor, 1))
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
    with mpmath.workprec(_MP_PREC):
        zeta_d = mpmath.zeta(d)
        c_cur = float(1 / zeta_d)
        for _ in range(60):
            ladder, collapsed = _gap_ladder(phi, d, eps, c_cur, _GAP_MAX_BLOCKS)
            if not collapsed:
                raise NumericFailure(
                    f"gap construction did not collapse within {_GAP_MAX_BLOCKS} blocks"
                )
            head = mpmath.mpf(0)
            for j in range(1, len(ladder)):
                l_next = ladder[j]
                phi_prev = phi.floor(ladder[j - 1])
                count = l_next - phi_prev
                head += mpmath.mpf(j) ** -2 * mpmath.mpf(count) / mpmath.mpf(l_next)
            j_last = len(ladder) - 1
            w_bound = _future_weight_bound(phi, d, eps, c_cur, ladder)
            tail_hi = mpmath.mpf(w_bound) / j_last
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
        blocks = []
        for j in range(1, len(ladder)):
            start = phi.floor(ladder[j - 1]) + 1
            end = ladder[j]
            gap = c_mpf * mpmath.mpf(j) ** -2 / mpmath.mpf(end)
            blocks.append(GapBlock(j=j, start=start, end=end, gap=gap))
        tail_bound = float(tail_hi * c_mpf)

    decay = float(d)
    gs_ref: list = []

    def affine(i: int):
        gs = gs_ref[0]
        with mpmath.workprec(_MP_PREC):
            return gs.offset(i), gs._c_mpf * mpmath.power(i, -decay)

    system = DecaySystem(
        kind="gap",
        decay=decay,
        scale=float(c_mpf),
        index_limit=_GAP_OFFSET_CAP,
        affine=affine,
    )
    gs = GapSystem(
        system=system,
        phi=phi,
        decay=decay,
        eps=float(eps),
        C=float(c_mpf),
        C_bracket=(float(c_lo), float(c_hi)),
        ladder=tuple(ladder),
        blocks=tuple(blocks),
        tail_bound=tail_bound,
        _offsets=[],
        _c_mpf=c_mpf,
    )
    gs_ref.append(gs)
    return gs


@dataclass(frozen=True)
class GapValidationReport:
    """Outcome of the four gap-system checks, with witnesses on failure.

    disjoint: images pairwise disjoint (adjacent check under the proven
        right-to-left ordering).
    contained: all checked images lie inside [0, 1].
    gaps_match: inside every block, the realized inter-image gap equals
        C * j**-2 / l_{j+1} to relative accuracy 1e-12.
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


def validate_gap_system(gs: GapSystem, n_max: int) -> GapValidationReport:
    """Check disjointness, containment, per-block gap sizes and power decay
    on the first n_max images."""
    from .systems import verify_power_decay

    if n_max < 2:
        raise PreconditionError("validation needs n_max >= 2")
    if n_max > _GAP_OFFSET_CAP:
        raise PreconditionError(f"n_max exceeds the offset cap {_GAP_OFFSET_CAP}")
    witness: dict = {}
    disjoint = True
    contained = True
    gaps_match = True
    with mpmath.workprec(_MP_PREC):
        c = gs._c_mpf
        gs._ensure_offsets(n_max)
        offs = gs._offsets
        top = offs[1] + c  # right end of the first image
        if not (0 <= offs[n_max] and top <= 1):
            contained = False
            witness["contained"] = {"a_nmax": float(offs[n_max]), "top": float(top)}
        # Outside the gap blocks consecutive images share an endpoint, so
        # open interiors being disjoint tolerates representation rounding.
        tol = mpmath.mpf(2) ** -100
        for n in range(2, n_max + 1):
            right_n = offs[n] + c * mpmath.power(n, -gs.decay)
            if not right_n <= offs[n - 1] + tol:
                disjoint = False
                witness.setdefault("disjoint", {"index": n})
                break
        for block in gs.blocks:
            for n in range(max(2, block.start), min(block.end, n_max) + 1):
                realized = offs[n - 1] - (offs[n] + c * mpmath.power(n, -gs.decay))
                err = abs(realized - block.gap) / block.gap
                if err > 1e-12:
                    gaps_match = False
                    witness.setdefault(
                        "gaps", {"index": n, "block": block.j, "rel_err": float(err)}
                    )
                    break
            if not gaps_match:
                break
    threshold = None
    decaying = True
    try:
        rep = verify_power_decay(gs.system, gs.eps, min(n_max, 1000))
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
