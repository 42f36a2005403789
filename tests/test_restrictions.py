"""Restriction, ladder and enumerator tests.

Ladder oracle values were frozen by independent direct summation before
the builder existed: for the reciprocal-shift family with eps = 0.1 the
summand is (i+1)**-0.8, and starting above floor(Phi(l)) the running sums
cross 1 so that the block strictly between Phi(l_n) and l_{n+1} carries
unit mass:

    l_1 = 9 (decay threshold),
    sum_{i=10}^{17} (i+1)**-0.8 = 0.9595... < 1 <= sum_{i=10}^{18},
        so l_2 = 19,
    sum_{i=20}^{32} < 1 <= sum_{i=20}^{33}, so l_3 = 34,
    sum_{i=35}^{55} < 1 <= sum_{i=35}^{56}, so l_4 = 57.
"""

import itertools
import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ifslab import families, restrictions
from ifslab.families import make_gauss, make_linear_power
from ifslab.restrictions import (
    Ladder,
    Phi,
    PreconditionError,
    _completion_ceilings,
    _level_counts,
    _longest_word,
    _walk,
    build_ladder,
    count_restricted_words,
    enumerate_restricted_words,
    growth_ratio_bound,
    parse_phi,
    successor_table,
)
from ifslab.powersum import power_sum_brackets
from ifslab.systems import NumericFailure


# Linear, power and table restrictions, each table strictly increasing with
# Phi(n) >= n.
_PHIS = st.one_of(
    st.fractions(1, 4, max_denominator=7).map(lambda b: Phi("lin", beta=b)),
    st.floats(1.05, 3.0).map(lambda a: Phi("pow", alpha=a)),
    st.lists(st.integers(0, 6), min_size=60, max_size=60).map(
        lambda steps: Phi("table", table=tuple(n + 1 + sum(steps[:n]) for n in range(60)))
    ),
)


@pytest.fixture(scope="module")
def gauss():
    return make_gauss()


class TestPhi:
    def test_linear_floor(self):
        phi = parse_phi("lin:1.5")
        assert [phi.floor(n) for n in (1, 2, 3, 4)] == [1, 3, 4, 6]

    def test_linear_identity(self):
        phi = parse_phi("lin:1")
        assert phi.floor(7) == 7
        assert phi.ceil(7) == 7

    def test_power_square(self):
        phi = parse_phi("pow:2")
        assert phi.floor(12) == 144
        assert phi.ceil(12) == 144

    def test_power_three_halves(self):
        phi = parse_phi("pow:1.5")
        # floor(n^1.5) = isqrt(n^3)
        for n in (2, 3, 10, 99):
            assert phi.floor(n) == math.isqrt(n ** 3)
        assert phi.ceil(4) == 8  # 4^1.5 = 8 exactly
        assert phi.ceil(2) == 3  # 2^1.5 = 2.828...

    def test_power_floor_huge_argument(self):
        phi = parse_phi("pow:1.5")
        n = 10 ** 40
        assert phi.floor(n) == math.isqrt(n ** 3)

    def test_non_dyadic_exponent_adaptive_route(self):
        phi = parse_phi("pow:2.3")
        # cross-check small arguments against float arithmetic
        for n in (2, 3, 10, 50):
            assert phi.floor(n) == math.floor(n ** 2.3)

    @pytest.mark.parametrize("spec", ["pow:1.25", "pow:2.125", "pow:1.015625", "pow:3.0625"])
    def test_exact_roots_of_higher_order(self, spec):
        # Denominators 4..64 take the integer k-th root with k >= 3; the
        # floor f of n**(p/k) is the integer with f**k <= n**p < (f + 1)**k.
        phi = parse_phi(spec)
        p, k = Fraction(spec[4:]).as_integer_ratio()
        rng = np.random.default_rng(k)
        ns = [int(n) for b in (4, 20, 62) for n in rng.integers(2, 2**b, size=100)]
        # Perfect k-th powers, where Phi(n) is an integer and ceil meets floor.
        ns += [m**k for m in range(2, 12)]
        for n in ns:
            f, c, x = phi.floor(n), phi.ceil(n), n**p
            assert f**k <= x < (f + 1) ** k, n
            assert c == (f if f**k == x else f + 1), n

    def test_integer_roots_of_every_order(self):
        rng = np.random.default_rng(5)
        for k in range(3, 65):
            for b in (1, 40, 300):
                x = int(rng.integers(0, 2**62)) << b
                r = restrictions._iroot(x, k)
                assert r**k <= x < (r + 1) ** k, (x, k)
            assert restrictions._iroot(7**k, k) == 7
        # Every small x, where a Newton step that overshot the floor would show.
        for k in range(2, 9):
            for x in range(2**12):
                r = restrictions._iroot(x, k)
                assert r**k <= x < (r + 1) ** k, (x, k)

    @pytest.mark.parametrize(
        "alpha, bits", [(1e300, 2), (1e17, 4), (1.3, 4_000_000), (1.3, 50_290)]
    )
    def test_power_past_the_bit_budget_is_a_numeric_failure(self, alpha, bits):
        # Both routes: an integer exponent (exact) and 1.3 (adaptive).  The
        # adaptive route's budget is 2**16 working bits, 1.3 * bits + 160:
        # 50290 bits are just past it.
        phi = Phi("pow", alpha=alpha)
        with pytest.raises(NumericFailure, match="bit budget"):
            phi.floor((1 << (bits - 1)) + 1)
        assert phi.floor(1) == phi.ceil(1) == 1

    def test_table(self, tmp_path):
        p = tmp_path / "t.txt"
        p.write_text("2\n5\n9\n14\n")
        phi = parse_phi(f"table:{p}")
        assert phi.floor(3) == 9
        with pytest.raises(PreconditionError):
            phi.floor(5)

    def test_table_must_be_increasing(self):
        with pytest.raises(PreconditionError):
            Phi("table", table=(2, 2, 3))

    def test_table_must_dominate_identity(self):
        with pytest.raises(PreconditionError):
            Phi("table", table=(1, 2, 2))  # Phi(3) = 2 < 3 and not increasing

    def test_beta_below_one_rejected(self):
        with pytest.raises(PreconditionError):
            parse_phi("lin:0.5")

    def test_alpha_at_one_rejected(self):
        with pytest.raises(PreconditionError):
            parse_phi("pow:1")

    def test_malformed_specs(self):
        for bad in ("lin", "geom:2", "pow:x"):
            with pytest.raises(PreconditionError):
                parse_phi(bad)


class TestIntegerArguments:
    """Every integer argument of ``restrictions`` reads a numpy integer as
    its int and refuses a float or a string with a message naming it."""

    @pytest.mark.parametrize(
        "phi",
        [Phi("lin", beta=Fraction(3, 2)), Phi("pow", alpha=2.0), Phi("table", table=(2, 5, 9))],
        ids=["lin", "pow", "table"],
    )
    def test_phi_floor_and_ceil(self, phi):
        for f in (phi.floor, phi.ceil):
            got = f(np.int64(3))
            assert got == f(3) and type(got) is int
            for bad in (3.0, 2.5, "3"):
                with pytest.raises(PreconditionError, match="^n must be an integer >= 1, got "):
                    f(bad)

    @pytest.fixture
    def calls(self, gauss):
        lin1, pow2 = parse_phi("lin:1"), parse_phi("pow:2")
        return {
            "steps": [lambda v: build_ladder(gauss, pow2, 0.1, v)],
            "digit_cap": [
                lambda v: successor_table(pow2, v).tolist(),
                lambda v: count_restricted_words(lin1, 2, v),
                lambda v: list(enumerate_restricted_words(lin1, 2, v)),
            ],
            "depth": [
                lambda v: count_restricted_words(lin1, v, 10),
                lambda v: list(enumerate_restricted_words(lin1, v, 10)),
            ],
        }

    @pytest.mark.parametrize("arg, value", [("steps", 4), ("digit_cap", 10), ("depth", 2)])
    def test_numpy_integers_act_as_ints_and_the_rest_is_refused(self, calls, arg, value):
        for call in calls[arg]:
            assert call(np.int64(value)) == call(value)
            # A cap of 10.5 once read as 11 (C(11, 2) = 55 words).
            for bad in (float(value), value + 0.5, str(value)):
                with pytest.raises(PreconditionError, match=f"^{arg} must be an integer >= 1"):
                    call(bad)


class TestLadder:
    def test_gauss_identity_phi_first_values(self, gauss):
        lad = build_ladder(gauss, parse_phi("lin:1"), 0.1, 4)
        assert lad.values == (9, 19, 34, 57)
        assert lad.threshold == 9
        assert all(lad.certified)

    def test_minimality_by_direct_sums(self, gauss):
        # the defining property, recomputed term by term
        lad = build_ladder(gauss, parse_phi("lin:1"), 0.1, 4)
        phi = parse_phi("lin:1")
        for prev, nxt in zip(lad.values, lad.values[1:]):
            start = phi.floor(prev) + 1
            s_before = sum((i + 1) ** -0.8 for i in range(start, nxt - 1))
            s_at = s_before + nxt ** -0.8  # adds term i = nxt - 1
            assert s_before < 1 <= s_at

    def test_strictly_increasing_and_above_phi(self, gauss):
        for spec in ("lin:1", "lin:2", "pow:1.5"):
            phi = parse_phi(spec)
            lad = build_ladder(gauss, phi, 0.1, 6)
            vals = lad.values
            assert all(a < b for a, b in zip(vals, vals[1:]))
            assert all(b > phi.floor(a) for a, b in zip(vals, vals[1:]))

    def test_power_phi_grows_doubly_exponentially(self, gauss):
        lad = build_ladder(gauss, parse_phi("pow:2"), 0.1, 8)
        logs = [math.log(float(v)) if v.bit_length() < 900 else v.bit_length() * math.log(2) for v in lad.values]
        # log l_{n+1} ~ 2 log l_n eventually
        assert logs[-1] / logs[-2] == pytest.approx(2.0, abs=0.2)

    def test_twenty_pow2_steps_in_seconds(self, gauss):
        # Step 20 searches from near 2**1.8e6; every step's sum surely reaches
        # unit mass by its bracket's lower end, and step 21 passes the bit
        # budget.
        phi = parse_phi("pow:2")
        t0 = time.perf_counter()
        lad = build_ladder(gauss, phi, 0.1, 20)
        assert time.perf_counter() - t0 < 10.0
        assert all(a < b for a, b in zip(lad.values, lad.values[1:]))
        q = 1.0 / gauss.decay - 0.1
        coeff, p, shift = gauss.scale**q, gauss.decay * q, gauss.shift
        for prev, nxt in zip(lad.values, lad.values[1:]):
            lo, _ = power_sum_brackets(phi.floor(prev) + 1 + shift, nxt - 1 + shift, p)
            assert coeff * lo >= 1.0
        with pytest.raises(NumericFailure, match="term budget"):
            build_ladder(gauss, phi, 0.1, 21)
        assert time.perf_counter() - t0 < 20.0

    @pytest.mark.parametrize("spec", ["lin:1", "lin:3/2", "pow:1.5", "pow:1.3", "table"])
    def test_windows_are_the_floored_blocks(self, gauss, tmp_path, spec):
        if spec == "table":
            path = tmp_path / "t.txt"
            path.write_text("".join(f"{3 * n // 2 + 1}\n" for n in range(1, 2001)))
            spec = f"table:{path}"
        phi = parse_phi(spec)
        lad = build_ladder(gauss, phi, 0.1, 6)
        assert len(lad.windows) == len(lad) - 1
        for n in range(1, len(lad)):
            assert lad.windows[n - 1] == (phi.floor(lad.values[n - 1]) + 1, lad.values[n])

    @pytest.mark.parametrize("steps", [1, 2, 7])
    def test_floors_every_value_but_the_last_once(self, gauss, phi_floors, steps):
        lad = build_ladder(gauss, parse_phi("pow:1.3"), 0.1, steps)
        assert len(phi_floors) == steps - 1
        assert phi_floors == list(lad.values[:-1])

    def test_eps_out_of_range(self, gauss):
        with pytest.raises(PreconditionError):
            build_ladder(gauss, parse_phi("lin:1"), 0.5, 3)
        with pytest.raises(PreconditionError):
            build_ladder(gauss, parse_phi("lin:1"), -0.1, 3)

    def test_steps_past_the_budget_are_refused_before_any_step(self, gauss, monkeypatch):
        budget = restrictions._LADDER_STEPS_MAX
        monkeypatch.setattr(restrictions, "_LADDER_STEPS_MAX", 5)
        assert len(build_ladder(gauss, parse_phi("lin:1"), 0.1, 5)) == 5
        monkeypatch.setattr(restrictions, "verify_power_decay", None)
        with pytest.raises(NumericFailure, match="^6 ladder steps exceed the budget of 5 steps"):
            build_ladder(gauss, parse_phi("lin:1"), 0.1, 6)
        monkeypatch.setattr(restrictions, "_LADDER_STEPS_MAX", budget)
        start = time.perf_counter()
        with pytest.raises(NumericFailure, match=f"^{10**9} ladder steps exceed the budget of {budget}"):
            build_ladder(gauss, parse_phi("lin:1"), 0.1, 10**9)
        assert time.perf_counter() - start < 0.1

    def test_linear_power_ladder_threshold_1(self):
        sys2 = make_linear_power(2)
        lad = build_ladder(sys2, parse_phi("lin:1"), 0.1, 3)
        assert lad.values[0] == 1
        assert all(a < b for a, b in zip(lad.values, lad.values[1:]))

    def test_one_crossing_search_per_step(self, gauss, monkeypatch):
        # Both ladders step through one loop that computes a value only when
        # asked: build_ladder searches once per value after the first, and
        # the gap construction's ladder stops at the value that collapses
        # its tail bound, searching no further.
        searches = []
        search = restrictions.first_index_reaching

        def counted(*args):
            searches.append(args)
            return search(*args)

        monkeypatch.setattr(restrictions, "first_index_reaching", counted)
        lad = build_ladder(gauss, parse_phi("lin:1"), 0.1, 4)
        assert lad.values == (9, 19, 34, 57)
        assert len(searches) == 3

        rounds = []
        gap_ladder = families._gap_ladder

        def recorded(*args):
            searches.clear()
            windows, bound = gap_ladder(*args)
            rounds.append((len(windows), len(searches), bound))
            return windows, bound

        monkeypatch.setattr(families, "_gap_ladder", recorded)
        families.build_gap_system(parse_phi("pow:2"), 2, 0.1)
        assert rounds
        for blocks, count, bound in rounds:
            assert bound < families._TAIL_REL / 10 and count == blocks


class TestGrowthRatio:
    def test_gauss_two_steps(self, gauss):
        lad = build_ladder(gauss, parse_phi("lin:1"), 0.1, 2)
        # 19/9 with Phi the identity
        assert growth_ratio_bound(lad) == pytest.approx(19 / 9, rel=1e-12)

    def test_always_above_one(self, gauss):
        for spec in ("lin:1", "lin:3", "pow:1.5", "pow:2"):
            lad = build_ladder(gauss, parse_phi(spec), 0.1, 5)
            assert growth_ratio_bound(lad) > 1

    def test_bounded_over_ten_steps(self, gauss):
        # no growth trend across steps; stays below 4 for these shapes
        for spec in ("lin:1", "pow:1.5", "pow:2"):
            lad = build_ladder(gauss, parse_phi(spec), 0.1, 10)
            assert growth_ratio_bound(lad) < 4

    def test_reads_the_windows_without_flooring(self, gauss, phi_floors):
        lad = build_ladder(gauss, parse_phi("pow:1.3"), 0.1, 10)
        phi_floors.clear()
        assert growth_ratio_bound(lad) == max(end / (start - 1) for start, end in lad.windows)
        assert phi_floors == []

    def test_needs_two_values(self, gauss):
        lad = build_ladder(gauss, parse_phi("lin:1"), 0.1, 1)
        with pytest.raises(PreconditionError):
            growth_ratio_bound(lad)


class TestEnumerator:
    def test_identity_phi_depth2_cap3(self):
        words = list(enumerate_restricted_words(parse_phi("lin:1"), 2, 3))
        assert words == [(1, 2), (1, 3), (2, 3)]

    def test_square_phi_depth2_cap5(self):
        words = list(enumerate_restricted_words(parse_phi("pow:2"), 2, 5))
        assert words == [(1, 2), (1, 3), (1, 4), (1, 5), (2, 5)]

    def test_identity_phi_counts_are_binomial(self):
        phi = parse_phi("lin:1")
        for depth, cap in ((2, 6), (3, 7), (4, 9)):
            n = sum(1 for _ in enumerate_restricted_words(phi, depth, cap))
            assert n == math.comb(cap, depth)

    def test_lexicographic_order(self):
        words = list(enumerate_restricted_words(parse_phi("lin:1.5"), 3, 12))
        assert words == sorted(words)

    def test_the_one_full_length_word_lists_at_once(self):
        # Every other lin:1 prefix of 40 digits under cap 40 dies before
        # depth 40; a walk that entered them would take about 2**40 steps.
        assert list(enumerate_restricted_words(parse_phi("lin:1"), 40, 40)) == [
            tuple(range(1, 41))
        ]

    def test_first_word_of_a_wide_deep_listing_is_cheap(self):
        # Each walk level holds a block of a few dozen words here: a 2**16
        # word block at each of the 60 levels would take over 200 MiB.
        tracemalloc.start()
        try:
            word = next(enumerate_restricted_words(parse_phi("lin:1"), 60, 200))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert word == tuple(range(1, 61))
        assert peak < 32 * 2**20

    def test_dead_prefixes_are_never_entered(self):
        # The 1987 pow:2 words of 6 digits under cap 460000 all start
        # 1, 2, 5, 26, then 677 or 678; the 5-digit prefixes under that cap
        # number about 3.75e9.
        phi = parse_phi("pow:2")
        words = list(enumerate_restricted_words(phi, 6, 460_000))
        assert len(words) == count_restricted_words(phi, 6, 460_000)
        assert words[0] == (1, 2, 5, 26, 677, 458_330)
        assert words == sorted(words)
        # No 7-digit word fits under 10**6 (its sixth digit is past 458329).
        assert list(enumerate_restricted_words(phi, 7, 10**6)) == []

    @given(
        st.sampled_from(["lin:1", "lin:2", "pow:1.5", "pow:2"]),
        st.integers(1, 3),
        st.integers(1, 18),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force_filter(self, spec, depth, cap):
        phi = parse_phi(spec)
        fast = list(enumerate_restricted_words(phi, depth, cap))
        import itertools

        slow = [
            w
            for w in itertools.product(range(1, cap + 1), repeat=depth)
            if all(w[i + 1] > phi.floor(w[i]) for i in range(depth - 1))
        ]
        assert fast == slow

    @given(
        st.sampled_from(["lin:1", "lin:3/2", "lin:2", "pow:1.5", "pow:2", "pow:2.3"]),
        st.integers(1, 4),
        st.integers(1, 25),
    )
    @settings(max_examples=80, deadline=None)
    def test_count_matches_enumeration(self, spec, depth, cap):
        phi = parse_phi(spec)
        n = sum(1 for _ in enumerate_restricted_words(phi, depth, cap))
        assert count_restricted_words(phi, depth, cap) == n

    def test_count_past_float_precision(self):
        # Strict lin:1 words are the depth-subsets of 1..cap; C(1000, 20)
        # passes 2**53 by far, so the count must stay in exact ints.
        phi = parse_phi("lin:1")
        assert count_restricted_words(phi, 20, 1000) == math.comb(1000, 20)

    def test_per_depth_counts_every_length(self):
        # The strict lin:1 words of length n are the n-subsets of 1..cap.
        got = list(_level_counts(successor_table(parse_phi("lin:1"), 1000), [1000] * 20))
        assert got == [math.comb(1000, n) for n in range(1, 21)]

    @given(phi=_PHIS, depth=st.integers(1, 12), cap=st.integers(1, 60))
    @settings(max_examples=150, deadline=None)
    def test_per_depth_counts_match_the_full_pass(self, phi, depth, cap):
        # The recurrence over every digit 1..cap at every length, which the
        # forward passes shorten to the digits that end a counted word.
        nxt = successor_table(phi, cap).tolist()
        from_digit = [cap + 1 - j for j in range(cap + 2)]
        want = [cap]
        for _ in range(depth - 1):
            after = [from_digit[nxt[a]] for a in range(cap, 0, -1)]
            from_digit = [0, *reversed(list(itertools.accumulate(after))), 0]
            want.append(from_digit[1])
        assert list(_level_counts(successor_table(phi, cap), [cap] * depth)) == want
        assert count_restricted_words(phi, depth, cap) == want[-1]

    @given(
        phi=_PHIS,
        depth=st.integers(1, 6),
        cap=st.integers(1, 40),
        completing=st.booleans(),
        block=st.sampled_from([3, 64, 2**16]),
        path_words=st.sampled_from([4, 40, 2**18]),
    )
    @settings(max_examples=150, deadline=None)
    def test_walk_blocks_add_up_to_the_level_counts(
        self, phi, depth, cap, completing, block, path_words
    ):
        nxt = successor_table(phi, cap)
        ceilings = _completion_ceilings(nxt, depth) if completing else [cap] * depth
        counts = list(_level_counts(nxt, ceilings))
        assume(sum(counts) <= 20_000)
        sizes = [0] * depth
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(restrictions, "_WALK_BLOCK", block)
            mp.setattr(restrictions, "_WALK_PATH", path_words)
            for path in _walk(nxt, ceilings):
                parent, digits = path[-1]
                assert parent.size == digits.size <= block
                assert sum(d.size for _, d in path) <= max(path_words, depth)
                assert (digits <= ceilings[len(path) - 1]).all()
                sizes[len(path) - 1] += digits.size
        assert sizes == counts

    @given(phi=_PHIS, depth=st.integers(1, 12), cap=st.integers(1, 60))
    @settings(max_examples=150, deadline=None)
    def test_longest_word_is_the_last_length_with_words(self, phi, depth, cap):
        nxt = successor_table(phi, cap)
        counts = list(_level_counts(nxt, [cap] * depth))
        longest = _longest_word(nxt, depth)
        assert all(counts[:longest]) and not any(counts[longest:])

    def test_past_the_longest_word_nothing_is_counted_or_listed(self):
        # The longest lin:1 word under cap 3 is (1, 2, 3).  Counting or
        # listing took 1.2 s at depth 10**6 when every depth built its ceiling.
        phi = parse_phi("lin:1")
        assert count_restricted_words(phi, 3, 3) == 1
        start = time.perf_counter()
        assert count_restricted_words(phi, 10**6, 3) == 0
        assert list(enumerate_restricted_words(phi, 10**6, 3)) == []
        assert time.perf_counter() - start < 0.2
        assert count_restricted_words(phi, 10**9, 3) == 0
        assert list(enumerate_restricted_words(phi, 10**9, 3)) == []

    def test_count_rejects_what_enumeration_rejects(self):
        with pytest.raises(PreconditionError):
            count_restricted_words(parse_phi("lin:1"), 0, 5)
        with pytest.raises(PreconditionError):
            count_restricted_words(Phi("table", table=(2, 4, 6)), 1, 4)

    def test_restriction_monotonicity(self):
        # pointwise larger Phi admits fewer words
        small = set(enumerate_restricted_words(parse_phi("lin:1"), 3, 15))
        large = set(enumerate_restricted_words(parse_phi("lin:2"), 3, 15))
        assert large <= small

    def test_empty_stream_allowed(self):
        assert list(enumerate_restricted_words(parse_phi("pow:2"), 3, 3)) == []

    def test_short_table_raises(self):
        phi = Phi("table", table=(2, 4, 6))
        with pytest.raises(PreconditionError):
            list(enumerate_restricted_words(phi, 1, 4))


def _strict_successor(phi, a, from_floor):
    """The smallest digit above Phi(a), from either rounding of Phi: floor
    plus one, or ceil, plus one more where Phi(a) is an integer."""
    if from_floor:
        return phi.floor(a) + 1
    up = phi.ceil(a)
    return up + (up == phi.floor(a))


class TestSuccessorTable:
    @pytest.mark.parametrize("spec", ["lin:1", "lin:3/2", "pow:1.5", "pow:2", "pow:2.3", "pow:7"])
    @pytest.mark.parametrize("from_floor", [True, False])
    def test_entries_are_clipped_successors(self, spec, from_floor):
        phi = parse_phi(spec)
        cap = 40
        nxt = successor_table(phi, cap)
        assert nxt.shape == (cap + 1,)
        assert nxt[0] == 1
        for a in range(1, cap + 1):
            assert nxt[a] == min(_strict_successor(phi, a, from_floor), cap + 1)
        assert (nxt[1:] >= nxt[:-1]).all()

    def test_huge_exponent_clips_without_the_power(self):
        # 2**1e300 is past the bit budget, and surely past the cap.
        phi = Phi("pow", alpha=1e300)
        assert successor_table(phi, 10).tolist() == [1, 2] + [11] * 9

    @pytest.mark.parametrize(
        "beta",
        [
            Fraction(1),
            Fraction(3, 2),
            Fraction(7, 3),
            Fraction(2**60 + 1, 3),
            Fraction(2**62 + 1, 2),
        ],
    )
    @pytest.mark.parametrize("cap", [1, 2, 3, 17, 1000])
    @pytest.mark.parametrize("from_floor", [True, False])
    def test_linear_closed_form_matches_per_digit(self, beta, cap, from_floor):
        # The last slope takes the per-digit route from cap 2 on, where
        # numerator * cap passes 2**63.
        phi = Phi("lin", beta=beta)
        want = [1] + [
            min(_strict_successor(phi, a, from_floor), cap + 1) for a in range(1, cap + 1)
        ]
        got = successor_table(phi, cap)
        assert got.dtype == np.int64
        assert got.tolist() == want

    def test_table_restriction(self):
        phi = Phi("table", table=(2, 5, 9, 30))
        assert successor_table(phi, 4).tolist() == [1, 3, 5, 5, 5]
        with pytest.raises(PreconditionError):
            successor_table(phi, 5)
