"""Family constructors: Gauss maps, exact linear-power tilings, and the
piecewise linear gap construction.

Frozen values, derived ahead of the assertions they feed:

* d=2, Phi(n)=n^2, eps=0.1: the normalizer fixed point lands at
  C = 0.38003226440612975 with ladder prefix (1, 6, 72, 6720, 47150889)
  and certified truncation below 1e-20.  The frozen C is a regression
  anchor only; the load-bearing checks are independent identities that
  would expose a wrong C or ladder on their own: the normalization sum,
  ladder minimality by direct partial sums, and the offset tail identity
  against a Hurwitz zeta evaluation.

A note on the mutation checks: the validator compares the system's affine
map with the construction's data, so each mutant is a map built from wrong
data (C scaled, a block dropped, a block edge moved by one) placed on an
otherwise unchanged system.  Each one breaks a realized gap at a block
edge or in the head, which the validator's fixed index set covers.
"""

import dataclasses
import gc
import math
import weakref
from fractions import Fraction
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest

from ifslab import families
from ifslab.families import (
    AffineMap,
    _mpf_to_fraction,
    build_gap_system,
    make_gauss,
    make_linear_power,
    validate_gap_system,
)
from ifslab.restrictions import build_ladder, parse_phi
from ifslab.systems import (
    DecaySystem,
    NumericFailure,
    PreconditionError,
    cylinder_interval,
    verify_power_decay,
)


@pytest.fixture(scope="module")
def quad_gap():
    return build_gap_system(parse_phi("pow:2"), 2.0, 0.1)


def _recurrence_reference(gs, n_top):
    """Offsets a_1..a_{n_top} (1-indexed) by the sequential recurrence
    a_1 = 1 - C, a_n = a_{n-1} - C * n**-d - (gap of the block holding n)."""
    offs = [None]
    with mpmath.workprec(128):
        c = gs._c_mpf
        for n in range(1, n_top + 1):
            if n == 1:
                offs.append(1 - c)
                continue
            a = offs[n - 1] - c * mpmath.power(n, -gs.decay)
            for b in gs.blocks:
                if b.start <= n <= b.end:
                    a -= b.gap
                    break
            offs.append(a)
    return offs


def _with_map(gs, affine):
    """gs with its system's affine map replaced; every other field kept.
    The system's rate profile follows the new map."""
    return dataclasses.replace(gs, system=dataclasses.replace(gs.system, affine=affine))


def _with_offset(affine, offset):
    """A stand-in for an affine map that reads its offsets from ``offset``
    and keeps the map's slopes and rate profile."""
    return SimpleNamespace(**{**vars(affine), "offset": offset})


class TestConstructors:
    def test_gauss_map_values(self):
        # f_1(0) = 1 and f_3(1) = 1/4 are ends of the one-digit cylinders.
        gauss = make_gauss()
        assert cylinder_interval(gauss, (1,)).hi == 1
        assert cylinder_interval(gauss, (3,)).lo == Fraction(1, 4)
        assert gauss.affine is None
        assert gauss.decay == 2.0

    def test_gauss_rates(self):
        gauss = make_gauss()
        assert gauss.contract_hi(7) == pytest.approx(7.0**-2, rel=1e-15)
        assert gauss.contract_lo(7) == pytest.approx(8.0**-2, rel=1e-15)

    def test_linear_power_requires_convergent_series(self):
        with pytest.raises(PreconditionError):
            make_linear_power(1.0)
        with pytest.raises(PreconditionError):
            make_linear_power(0.5)

    @pytest.mark.parametrize("d", [1.0, 0.5, -1.0])
    def test_affine_tiling_needs_decay_past_one(self, d):
        # The map builds, and its rates stand; its geometry is refused, where
        # zeta(d, i+1) is infinite (d = 1) or an analytic continuation.
        system = DecaySystem(AffineMap(mpmath.mpf(0.5), d))
        assert system.decay == d and system.contract_hi(1) == 0.5
        with pytest.raises(PreconditionError, match="decay d > 1"):
            cylinder_interval(system, (2,))
        with pytest.raises(PreconditionError, match="decay d > 1"):
            system.affine.offset(1)

    def test_a_float_scale_builds_the_map_its_mpf_builds(self):
        got, want = AffineMap(0.6, 2.0), AffineMap(mpmath.mpf(0.6), 2.0)
        for i in (1, 2, 3, 10, 1000):
            assert got.offset(i) == want.offset(i) and got.slope(i) == want.slope(i)
        assert got.scale == want.scale == 0.6

    def test_a_float_scale_is_exact_at_any_ambient_precision(self):
        # Converted at the ambient 20 bits, C would read 0.3000001907348633,
        # and every slope and offset would inherit the rounded C.
        with mpmath.workprec(20):
            affine = AffineMap(0.3, 2.0)
        assert affine.scale == 0.3
        assert affine.slope(1) == Fraction(0.3) and affine.offset(1) == 1 - Fraction(0.3)

    def test_linear_power_cubic_ratio(self):
        cubic = make_linear_power(3.0)
        assert cubic.contract_hi(1) / cubic.contract_hi(2) == pytest.approx(
            8.0, rel=1e-13
        )
        assert cubic.scale == pytest.approx(float(1 / mpmath.zeta(3)), rel=1e-13)


class TestGapBuild:
    def test_normalizer_bracket(self, quad_gap):
        lo, hi = quad_gap.C_bracket
        assert lo <= quad_gap.C <= hi
        assert hi - lo < 1e-12
        # Denominator exceeds the plain zeta sum, so C sits below 1/zeta(2).
        assert 0 < quad_gap.C < float(1 / mpmath.zeta(2))
        assert quad_gap.C == pytest.approx(0.38003226440612975, abs=1e-12)

    def test_first_interval_right_flush(self, quad_gap):
        a1 = quad_gap.system.affine.offset(1)
        assert a1 + _mpf_to_fraction(quad_gap._c_mpf) == 1
        assert float(a1) + quad_gap.C == pytest.approx(1.0, abs=4e-16)
        assert cylinder_interval(quad_gap.system, (1,)).hi == 1

    def test_ladder_prefix(self, quad_gap):
        assert quad_gap.ladder[:5] == (1, 6, 72, 6720, 47150889)
        values = quad_gap.ladder
        for j in range(1, len(values)):
            assert values[j] > quad_gap.phi.floor(values[j - 1])
        # Superquadratic growth once the blocks anchor past the first rung.
        for j in range(1, len(values) - 1):
            assert values[j + 1] > values[j] ** 2

    def test_ladder_minimality_by_direct_sums(self, quad_gap):
        # Each rung is one past the first index where the block mass
        # sum(C**(1/d-eps) * i**(-1+d*eps)) reaches 1.
        coeff = quad_gap.C**0.4
        for j in range(1, 4):
            prev, nxt = quad_gap.ladder[j - 1], quad_gap.ladder[j]
            start = prev * prev + 1
            before = math.fsum(coeff * i**-0.8 for i in range(start, nxt - 1))
            assert before < 1 <= before + coeff * (nxt - 1) ** -0.8

    def test_block_structure(self, quad_gap):
        blocks = quad_gap.blocks
        assert (blocks[0].start, blocks[0].end) == (2, 6)
        assert (blocks[1].start, blocks[1].end) == (37, 72)
        assert (blocks[2].start, blocks[2].end) == (5185, 6720)
        for j, b in enumerate(blocks, start=1):
            assert b.start == quad_gap.phi.floor(quad_gap.ladder[j - 1]) + 1
            assert b.end == quad_gap.ladder[j]
            want = quad_gap.C * j**-2 / b.end
            assert float(b.gap) == pytest.approx(want, rel=1e-13)

    def test_each_round_floors_its_ladder_once(self, phi_floors, monkeypatch):
        # Every Phi.floor call falls inside the ladder of a fixed-point round,
        # and each round floors each of its values once, the last one only
        # to anchor the tail bound; the blocks read the last round's windows.
        rounds = []
        gap_ladder = families._gap_ladder

        def recorded(*args):
            before = len(phi_floors)
            windows, bound = gap_ladder(*args)
            rounds.append((phi_floors[before:], windows))
            return windows, bound

        monkeypatch.setattr(families, "_gap_ladder", recorded)
        gs = build_gap_system(parse_phi("pow:2"), 2.0, 0.1)
        assert rounds and sum(len(floored) for floored, _ in rounds) == len(phi_floors)
        for floored, windows in rounds:
            assert floored == [1, *(end for _, end in windows)]
        assert tuple(floored) == gs.ladder
        assert [(b.start, b.end) for b in gs.blocks] == windows

    def test_tail_certified(self, quad_gap):
        assert 0 < quad_gap.tail_bound < 1e-20

    def test_preconditions(self):
        phi = parse_phi("pow:2")
        with pytest.raises(PreconditionError):
            build_gap_system(phi, 1.0, 0.1)
        with pytest.raises(PreconditionError):
            build_gap_system(phi, 2.0, 0.0)
        with pytest.raises(PreconditionError):
            build_gap_system(phi, 2.0, 0.5)
        # d=3 allows eps up to 1 by the halved-decay bound, but the ladder
        # summand exponent forces eps < 1/d.
        with pytest.raises(PreconditionError):
            build_gap_system(phi, 3.0, 0.34)

    def test_slow_phi_cannot_collapse(self):
        with pytest.raises(NumericFailure):
            build_gap_system(parse_phi("lin:1"), 2.0, 0.1)


class TestGapOffsets:
    def test_strictly_decreasing(self, quad_gap):
        prev = quad_gap.system.affine.offset(1)
        for n in range(2, 2001):
            cur = quad_gap.system.affine.offset(n)
            assert cur < prev
            prev = cur

    def test_adjacency_outside_blocks(self, quad_gap):
        # Between blocks consecutive images abut: the step is exactly the
        # interval length C * n**-d.
        with mpmath.workprec(160):
            for n in (8, 20, 36, 100, 1000, 5000):
                step = quad_gap.system.affine.offset(n - 1) - quad_gap.system.affine.offset(n)
                want = _mpf_to_fraction(quad_gap._c_mpf * mpmath.mpf(n) ** -2)
                assert float(abs(step - want) / want) < 1e-25

    def test_adjacency_inside_blocks(self, quad_gap):
        with mpmath.workprec(160):
            for n, j in ((3, 1), (40, 2), (6000, 3)):
                step = quad_gap.system.affine.offset(n - 1) - quad_gap.system.affine.offset(n)
                want = quad_gap._c_mpf * mpmath.mpf(n) ** -2 + quad_gap.blocks[j - 1].gap
                want = _mpf_to_fraction(want)
                assert float(abs(step - want) / want) < 1e-25

    def test_offset_tail_identity(self, quad_gap):
        # a_N is the total mass to its left: the interval lengths beyond N
        # plus every gap attached to an index beyond N, up to the certified
        # truncation of the block series.
        N = 100
        with mpmath.workprec(160):
            expect = quad_gap._c_mpf * mpmath.zeta(2, N + 1)
            for b in quad_gap.blocks:
                expect += b.gap * max(0, b.end - max(b.start - 1, N))
            defect = abs(quad_gap.system.affine.offset(N) - _mpf_to_fraction(expect))
        assert float(defect) <= quad_gap.tail_bound

    def test_adjacency_at_large_indices(self, quad_gap):
        # Offsets have no index cap: between blocks consecutive images
        # still abut to within the validator's tolerance: 2**-100, and
        # 2**-64 of the image's own length, however small that length is.
        affine = quad_gap.system.affine
        for n in (200_001, 10**7, 10**12, 10**30, 10**100):
            assert not any(b.start <= n <= b.end for b in quad_gap.blocks)
            residue = affine.offset(n - 1) - (affine.offset(n) + affine.slope(n))
            assert abs(residue) <= min(Fraction(1, 2**100), affine.slope(n) / 2**64), n

    def test_offset_past_the_bit_budget_is_a_numeric_failure(self):
        # Working bits grow as d * log2(i), and a Hurwitz zeta past the
        # budget would take seconds.
        affine = make_linear_power(1000.0).affine
        want = "offset 300 of the decay-1000.0 tiling needs 8325 bits"
        with pytest.raises(NumericFailure, match=want):
            affine.offset(300)

    def test_affine_map_shares_the_offset_cache(self, quad_gap):
        for i in (5, 7):
            a, slope = quad_gap.system.affine.offset(i), quad_gap.system.affine.slope(i)
            assert isinstance(a, Fraction) and isinstance(slope, Fraction)
            assert quad_gap.system.affine.offset(i) is a

    def test_scale_and_blocks_are_read_off_the_map(self, quad_gap):
        affine = quad_gap.system.affine
        assert (quad_gap.decay, quad_gap.C, quad_gap.blocks) == (
            affine.decay, affine.scale, affine.blocks
        )
        names = {f.name for f in dataclasses.fields(quad_gap)}
        # The construction's d is kept apart from the map's.
        assert "decay" in names and not {"C", "blocks"} & names

    def test_system_has_no_mutable_field(self, quad_gap):
        for f in dataclasses.fields(quad_gap):
            assert not isinstance(getattr(quad_gap, f.name), (list, dict, set)), f.name

    @pytest.mark.parametrize(
        "phi,d,eps", [("pow:2", 2.0, 0.1), ("pow:1.5", 2.0, 0.1), ("pow:2", 3.0, 0.2)]
    )
    def test_closed_form_matches_recurrence(self, quad_gap, phi, d, eps):
        if (phi, d) == ("pow:2", 2.0):
            gs = quad_gap  # shares the fixture's map cache
        else:
            gs = build_gap_system(parse_phi(phi), d, eps)
        edges = {n for b in gs.blocks for n in (b.start, b.end) if n <= 200_000}
        ref = _recurrence_reference(gs, max(2000, *edges))
        offset = gs.system.affine.offset
        worst = max(
            abs(offset(n) - _mpf_to_fraction(ref[n])) for n in edges.union(range(1, 2001))
        )
        assert worst <= Fraction(1, 2**120)

    def test_system_dies_by_refcount(self):
        # The affine map holds its cache, not the system: no reference
        # cycle keeps the cached offsets alive until the cyclic collector runs.
        gs = build_gap_system(parse_phi("pow:2"), 2.0, 0.1)
        gs.system.affine.offset(1000)
        gs.system.affine.slope(1000)
        gc.disable()
        try:
            refs = [weakref.ref(gs), weakref.ref(gs.system), weakref.ref(gs.system.affine)]
            del gs
            assert [r() for r in refs] == [None, None, None]
        finally:
            gc.enable()


@pytest.fixture
def zeta_calls(monkeypatch):
    """The arguments of every mpmath.zeta call made while the test runs."""
    calls, zeta = [], mpmath.zeta

    def counted(*args, **kwargs):
        calls.append(args)
        return zeta(*args, **kwargs)

    monkeypatch.setattr(mpmath, "zeta", counted)
    return calls


def _offset_blind(system):
    """The system with an affine map whose every offset read raises."""

    def offset(i):
        raise AssertionError(f"offset({i}) was read")

    return dataclasses.replace(system, affine=_with_offset(system.affine, offset))


class TestLazyOffsets:
    """An offset costs a Hurwitz zeta, formed only where an offset is read."""

    @pytest.mark.parametrize("kind", ["linpow", "gap"])
    def test_certificates_read_no_offset(self, kind):
        # An affine word's sup |f_w'| is the product of its slopes.
        if kind == "linpow":
            system = make_linear_power(2.0)
        else:
            system = build_gap_system(parse_phi("pow:2"), 2.0, 0.1).system
        blind = _offset_blind(system)
        assert verify_power_decay(blind, 0.1) == verify_power_decay(system, 0.1)
        phi = parse_phi("lin:1")
        assert build_ladder(blind, phi, 0.1, 4) == build_ladder(system, phi, 0.1, 4)

    def test_a_construction_forms_one_zeta(self, zeta_calls):
        # zeta(d) for C; zeta(d, 2) waits for the first offset past index 1.
        make_linear_power(2.0)
        assert zeta_calls == [(2.0,)]
        build_gap_system(parse_phi("pow:2"), 2.0, 0.1)
        assert zeta_calls == [(2.0,), (2.0,)]

    def test_offset_one_forms_no_zeta(self, zeta_calls):
        with mpmath.workprec(128):
            c = _mpf_to_fraction(1 / mpmath.zeta(2))
        linpow = make_linear_power(2.0).affine
        gs = build_gap_system(parse_phi("pow:2"), 2.0, 0.1)
        del zeta_calls[:]
        assert linpow.offset(1) == 1 - c
        assert gs.system.affine.offset(1) == 1 - _mpf_to_fraction(gs._c_mpf)
        assert zeta_calls == []

    def test_validation_forms_one_zeta_per_offset_read(self, zeta_calls):
        gs = build_gap_system(parse_phi("pow:2"), 2.0, 0.1)
        reads = []

        def offset(i):
            reads.append(i)
            return gs.system.affine.offset(i)

        del zeta_calls[:]
        rep = validate_gap_system(_with_map(gs, _with_offset(gs.system.affine, offset)), 10**4)
        assert (rep.all_pass, rep.threshold, rep.witness) == (True, 1, {})
        # One per distinct index past 1, and zeta(d, 2) once for them all.
        assert len(zeta_calls) == len(set(reads) - {1}) + 1
        assert zeta_calls.count((2.0, 2)) == 1


class TestGapValidation:
    def test_acceptance_scale_all_pass(self, quad_gap):
        rep = validate_gap_system(quad_gap, 10**4)
        assert rep.all_pass
        assert rep.disjoint and rep.contained and rep.gaps_match and rep.decaying
        assert rep.witness == {}
        assert rep.threshold == 1
        assert rep.n_max == 10**4

    def test_normalization_sums_to_one(self, quad_gap):
        # Independent recomputation from the public fields: interval mass
        # C * zeta(d) plus block gap mass C * j**-2 * count / l_{j+1}.
        with mpmath.workprec(160):
            total = mpmath.mpf(quad_gap.C) * mpmath.zeta(2)
            for j, b in enumerate(quad_gap.blocks, 1):
                count = b.end - b.start + 1
                total += mpmath.mpf(quad_gap.C) * mpmath.mpf(j) ** -2 * count / b.end
            defect = abs(1 - total)
        assert float(defect) <= 1e-9
        assert float(defect) <= 4 * quad_gap.tail_bound + 1e-15

    @pytest.mark.parametrize(
        "scale,drop,edge,shift,index,block",
        [
            pytest.param("1e-9", None, None, 0, 2, 1, id="C*(1+1e-9)"),
            pytest.param("0", 2, None, 0, 37, 2, id="block-2-dropped"),
            pytest.param("0", None, (2, "start"), 1, 37, 2, id="block-2-start+1"),
            pytest.param("0", None, (2, "start"), -1, 36, 2, id="block-2-start-1"),
            pytest.param("0", None, (2, "end"), -1, 72, 2, id="block-2-end-1"),
            pytest.param("0", None, (2, "end"), 1, 73, 2, id="block-2-end+1"),
            pytest.param("0", None, (3, "end"), 1, 6721, 3, id="block-3-end+1"),
        ],
    )
    def test_mutated_map_fails(self, quad_gap, scale, drop, edge, shift, index, block):
        blocks = list(quad_gap.blocks)
        if edge is not None:
            j, name = edge
            blocks[j - 1] = dataclasses.replace(
                blocks[j - 1], **{name: getattr(blocks[j - 1], name) + shift}
            )
        if drop is not None:
            del blocks[drop - 1]
        with mpmath.workprec(128):
            c = quad_gap._c_mpf * (1 + mpmath.mpf(scale))
        mutant = AffineMap(c, quad_gap.decay, tuple(blocks))
        rep = validate_gap_system(_with_map(quad_gap, mutant), 10**4)
        assert not rep.all_pass
        # The mutant's rates follow its C, and its decay certificate holds:
        # the gaps alone fail.
        assert rep.disjoint and rep.decaying and not rep.gaps_match
        assert rep.witness["gaps"]["index"] == index
        assert rep.witness["gaps"]["block"] == block

    def test_map_with_a_wrong_decay_fails(self, quad_gap):
        # The construction's C and blocks, but d = 3: the map's slopes are
        # C * n**-3, so its gaps are measured against the construction's
        # d = 2 and fail at the first checked index.
        mutant = AffineMap(quad_gap._c_mpf, 3.0, quad_gap.blocks)
        rep = validate_gap_system(_with_map(quad_gap, mutant), 10**4)
        assert rep.contained and rep.decaying and not rep.gaps_match
        assert rep.witness["gaps"]["index"] == 2

    def test_overlapping_map_breaks_disjointness(self, quad_gap):
        # Halving C in the map leaves the block-1 gaps wide enough, but
        # image 7 (past block 1) then overlaps image 6.
        mutant = AffineMap(quad_gap._c_mpf / 2, quad_gap.decay, quad_gap.blocks)
        rep = validate_gap_system(_with_map(quad_gap, mutant), 50)
        assert not rep.disjoint
        assert rep.witness["disjoint"]["index"] == 7
        assert rep.witness["gaps"]["index"] == 2

    def test_tampered_head_offset_is_caught(self, quad_gap):
        # Index 10 lies in the checked head, between blocks 1 and 2.
        affine = quad_gap.system.affine

        def offset(i):
            return affine.offset(i) + (Fraction(1, 10**6) if i == 10 else 0)

        rep = validate_gap_system(_with_map(quad_gap, _with_offset(affine, offset)), 50)
        assert rep.witness["disjoint"] == {"index": 10}
        assert rep.witness["gaps"]["index"] == 10
        assert rep.witness["gaps"]["block"] == 1

    @pytest.mark.parametrize(
        "phi,d,eps,n_low,n_high",
        [("pow:2", 2.0, 0.1, 10**4, 10**7), ("pow:2", 3.0, 0.2, 10**3, 200_000)],
    )
    def test_map_evaluations_do_not_grow_with_nmax(self, phi, d, eps, n_low, n_high):
        # No block edge of these systems lies in (n_low, n_high], so both
        # runs check the same indices.
        gs = build_gap_system(parse_phi(phi), d, eps)
        counts = []
        for n_max in (n_low, n_high):
            calls = []

            def offset(i, calls=calls):
                calls.append(i)
                return gs.system.affine.offset(i)

            counting = _with_offset(gs.system.affine, offset)
            assert validate_gap_system(_with_map(gs, counting), n_max).all_pass
            counts.append(len(calls))
        # The checks read the system's own offsets, a fixed number of times.
        assert 0 < counts[0] == counts[1] <= 2 + 2 * (15 + 5 * len(gs.blocks))

    def test_blocks_come_from_the_construction_not_the_field(self, quad_gap):
        # A map that drops a block still fails, although gs.blocks reads the
        # map: the validator derives the blocks from phi, ladder and C.
        blocks = quad_gap.blocks[:1] + quad_gap.blocks[2:]
        mutant = AffineMap(quad_gap._c_mpf, quad_gap.decay, blocks)
        gs = _with_map(quad_gap, mutant)
        assert gs.blocks == blocks
        rep = validate_gap_system(gs, 10**4)
        assert rep.witness["gaps"]["index"] == 37
        assert rep.witness["gaps"]["block"] == 2

    def test_nmax_bounds(self, quad_gap):
        with pytest.raises(PreconditionError):
            validate_gap_system(quad_gap, 1)
        # Block 6 starts near 5e30, where a 128-bit offset could not resolve
        # its gap (about 2e-33) to 1e-12; the index-scaled precision does,
        # there and past the last materialized block.
        block_6 = quad_gap.blocks[5]
        for n_max in (300_000, block_6.start, block_6.end + 1, 10**100):
            rep = validate_gap_system(quad_gap, n_max)
            assert rep.all_pass, (n_max, rep.witness)

    def test_nmax_reads_numpy_integers_as_ints(self, quad_gap):
        assert validate_gap_system(quad_gap, np.int64(1000)) == validate_gap_system(quad_gap, 1000)
        with pytest.raises(PreconditionError, match="^n_max must be an integer >= 2"):
            validate_gap_system(quad_gap, 1000.0)

    def test_overlap_at_a_late_edge_is_caught(self, quad_gap):
        # Image n (just before block 6) overlaps its neighbour by half its
        # own length, about 8e-63: far below the absolute tolerance, but
        # not below the one relative to the image's length.
        affine = quad_gap.system.affine
        n = quad_gap.blocks[5].start - 1

        def offset(i):
            return affine.offset(i) + (affine.slope(n) / 2 if i == n else 0)

        rep = validate_gap_system(_with_map(quad_gap, _with_offset(affine, offset)), n + 2)
        assert rep.witness["disjoint"] == {"index": n}
        assert rep.witness["gaps"]["index"] == n
        assert rep.witness["gaps"]["block"] == 6


class TestGapVariants:
    def test_superlinear_power_phi(self):
        gs = build_gap_system(parse_phi("pow:1.5"), 2.0, 0.1)
        assert 0 < gs.C < 1
        assert gs.ladder[0] == 1
        assert validate_gap_system(gs, 500).all_pass

    def test_cubic_decay(self):
        gs = build_gap_system(parse_phi("pow:2"), 3.0, 0.2)
        assert validate_gap_system(gs, 500).all_pass
        # Contraction follows d=3; the gap weights stay quadratic in the
        # block index by construction.
        assert gs.system.contract_hi(10) == pytest.approx(gs.C * 1e-3, rel=1e-13)
        assert float(gs.blocks[0].gap) == pytest.approx(
            gs.C / gs.ladder[1], rel=1e-13
        )
