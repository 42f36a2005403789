"""Pressure roots, restricted cover sums, box counting, prediction table.

Frozen oracles, each derived independently before the module existed:

* 4**-s + 9**-s = 1 at s = 0.393942455512935 and 9**-s + 16**-s = 1 at
  s = 0.280249432611932 (30-digit root finder on the explicit sums).
* Analytic band roots of k**(1-2s) = 2s - 1: 0.6995064891 for k = 10,
  0.6389937124 for k = 100, 0.6097565758 for k = 1000.
* Depth-2, cap-3 restricted cover sum at s = 1: 1/12 + 1/20 + 1/63
  = 47/315 (continuant lengths by hand).
* Grid-count slopes at dyadic scales 2^-2 .. 2^-18: {1/i : i <= 1e6}
  gives 0.5033; the depth-13 middle-third Cantor sample gives 0.6301
  against log 2 / log 3 = 0.63093.
"""

import math
import warnings

import numpy as np
import pytest

from ifslab.dimension import (
    DimensionEstimate,
    ScaleWarning,
    TailWarning,
    bowen_root,
    box_dim_estimate,
    cover_sum,
    predict_dimensions,
    subsystem_dim_bounds,
)
from ifslab.families import make_gauss, make_linear_power
from ifslab.restrictions import parse_phi
from ifslab.systems import DecaySystem, NumericFailure, PreconditionError

ROOT_12 = 0.393942455512935
ROOT_23 = 0.280249432611932
BAND_ROOTS = {10: 0.6995064891, 100: 0.6389937124, 1000: 0.6097565758}
DYADIC = [2.0**-j for j in range(2, 19)]


def check_estimate(est: DimensionEstimate):
    assert 0.0 <= est.value <= 1.0
    lo, hi = est.bracket
    assert lo <= est.value <= hi


def two_ratio_system(r1: float, r2: float) -> DecaySystem:
    """Two branches with rates r1 and r2: scale r1, decay log2(r1/r2)."""
    return DecaySystem(kind="toy", decay=math.log2(r1 / r2), scale=r1, index_limit=2)


@pytest.fixture(scope="module")
def gauss():
    return make_gauss()


@pytest.fixture(scope="module")
def lin_phi():
    return parse_phi("lin:1")


class TestBowenRoot:
    def test_two_term_oracle(self, gauss):
        est = bowen_root(gauss, "xi", 1, 2)
        check_estimate(est)
        assert est.value == pytest.approx(ROOT_12, abs=1e-9)
        assert est.method == "bowen-root"
        s = est.value
        assert abs(4.0**-s + 9.0**-s - 1.0) <= 1e-10

    def test_three_term_oracle(self, gauss):
        est = bowen_root(gauss, "xi", 2, 3)
        check_estimate(est)
        assert est.value == pytest.approx(ROOT_23, abs=1e-9)

    def test_equal_halves(self):
        est = bowen_root(two_ratio_system(0.5, 0.5), "xi", 1, 2)
        check_estimate(est)
        assert est.value == pytest.approx(1.0, abs=1e-9)

    def test_unit_ratio_has_no_root(self, gauss):
        with pytest.raises(NumericFailure):
            bowen_root(gauss, "lambda", 1, 10)

    def test_band_roots_track_analytic_form(self, gauss):
        previous = 1.0
        for k, target in BAND_ROOTS.items():
            est = bowen_root(gauss, "xi", k, 1000 * k, 1e-10)
            check_estimate(est)
            assert abs(est.value - target) / target < 0.05
            assert 0.5 < est.value < previous
            previous = est.value

    def test_monotone_in_band_position(self, gauss):
        span = 20
        roots = [bowen_root(gauss, "xi", k, k + span).value for k in (1, 2, 5, 10, 20)]
        assert all(a > b for a, b in zip(roots, roots[1:]))

    def test_monotone_in_band_length(self, gauss):
        roots = [bowen_root(gauss, "xi", 1, m).value for m in (2, 4, 8, 16)]
        assert all(a < b for a, b in zip(roots, roots[1:]))

    def test_argument_validation(self, gauss):
        with pytest.raises(PreconditionError):
            bowen_root(gauss, "xi", 3, 2)
        with pytest.raises(PreconditionError):
            bowen_root(gauss, "xi", 0, 2)
        with pytest.raises(PreconditionError):
            bowen_root(gauss, "xi", 1, 5, tol=0.0)
        with pytest.raises(PreconditionError):
            bowen_root(gauss, "mid", 1, 5)
        with pytest.raises(PreconditionError):
            bowen_root(two_ratio_system(0.5, 0.5), "xi", 1, 9)

    def test_needs_two_contracting_ratios(self):
        sys = two_ratio_system(0.5, 1.0)
        with pytest.raises(PreconditionError):
            bowen_root(sys, "xi", 1, 1)


class TestSubsystemBounds:
    def test_shifted_band_reuses_roots(self, gauss):
        lower, upper = subsystem_dim_bounds(gauss, 2, 3)
        check_estimate(lower)
        check_estimate(upper)
        assert lower.value == pytest.approx(ROOT_23, abs=1e-9)
        # lambda_2 = 1/4 and lambda_3 = 1/9 repeat the xi band one step up.
        assert upper.value == pytest.approx(ROOT_12, abs=1e-9)

    def test_first_map_caps_upper(self, gauss):
        lower, upper = subsystem_dim_bounds(gauss, 1, 50)
        assert upper.value == 1.0
        assert upper.diagnostics["capped"] is True
        assert upper.bracket == (lower.value, 1.0)

    def test_lower_never_exceeds_upper(self, gauss):
        for k, m in ((2, 3), (2, 30), (3, 10), (5, 200), (10, 1000)):
            lower, upper = subsystem_dim_bounds(gauss, k, m)
            assert lower.value <= upper.value


class TestCoverSum:
    def test_depth_one_telescopes(self, gauss, lin_phi):
        cap = 10**6
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            total = cover_sum(gauss, lin_phi, 1, 1.0, digit_cap=cap)
        assert total == pytest.approx(1.0 - 1.0 / (cap + 1), rel=1e-9)

    def test_depth_two_cap_three_exact(self, gauss, lin_phi):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            total = cover_sum(gauss, lin_phi, 2, 1.0, digit_cap=3)
        assert total == 47.0 / 315.0

    def test_transfer_program_matches_enumeration(self, gauss, lin_phi):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            exact = cover_sum(gauss, lin_phi, 3, 0.7, digit_cap=60, method="exact")
            binned = cover_sum(gauss, lin_phi, 3, 0.7, digit_cap=60, method="dp")
        assert abs(binned - exact) / exact < 2e-4

    def test_affine_transfer_is_exact(self, lin_phi):
        flat = make_linear_power(2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            exact = cover_sum(flat, lin_phi, 2, 0.8, digit_cap=200, method="exact")
            program = cover_sum(flat, lin_phi, 2, 0.8, digit_cap=200, method="dp")
        assert program == pytest.approx(exact, rel=1e-12)

    def test_power_restriction_paths_agree(self, gauss):
        phi = parse_phi("pow:2")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            exact = cover_sum(gauss, phi, 3, 0.5, digit_cap=100, method="exact")
            binned = cover_sum(gauss, phi, 3, 0.5, digit_cap=100, method="dp")
        assert exact > 0
        assert abs(binned - exact) / exact < 2e-4

    def test_depth_trend_splits_at_the_dimension(self, gauss, lin_phi):
        # dim is 1/2: supercritical exponents shrink with depth, subcritical
        # ones grow.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            high = [cover_sum(gauss, lin_phi, n, 0.6, digit_cap=300) for n in range(3, 7)]
            low = [cover_sum(gauss, lin_phi, n, 0.45, digit_cap=300) for n in range(3, 7)]
        assert all(a > b for a, b in zip(high, high[1:]))
        assert all(a < b for a, b in zip(low, low[1:]))

    def test_tail_warning_on_divergent_tail(self, gauss, lin_phi):
        with pytest.warns(TailWarning):
            cover_sum(gauss, lin_phi, 2, 0.45, digit_cap=100)

    def test_no_warning_when_cap_covers(self, gauss, lin_phi):
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            cover_sum(gauss, lin_phi, 2, 1.0, digit_cap=10**4)
        assert not [w for w in rec if issubclass(w.category, TailWarning)]

    def test_binned_program_cap_guard(self, gauss, lin_phi):
        with pytest.raises(NumericFailure):
            cover_sum(gauss, lin_phi, 2, 0.6, digit_cap=30_000, method="dp")

    def test_argument_validation(self, gauss, lin_phi):
        with pytest.raises(PreconditionError):
            cover_sum(gauss, lin_phi, 2, 0.0)
        with pytest.raises(PreconditionError):
            cover_sum(gauss, lin_phi, 2, 1.2)
        with pytest.raises(PreconditionError):
            cover_sum(gauss, lin_phi, 0, 0.5)
        with pytest.raises(PreconditionError):
            cover_sum(gauss, lin_phi, 2, 0.5, digit_cap=0)
        with pytest.raises(PreconditionError):
            cover_sum(gauss, lin_phi, 2, 0.5, method="guess")


class TestBoxDim:
    def test_reciprocal_endpoints(self):
        pts = 1.0 / np.arange(1, 10**6 + 1)
        est = box_dim_estimate(pts, DYADIC)
        check_estimate(est)
        assert est.value == pytest.approx(0.5, abs=0.05)
        assert est.diagnostics["r_squared"] > 0.99

    def test_cantor_sample(self):
        pts = np.zeros(1)
        for _ in range(13):
            pts = np.concatenate([pts / 3.0, pts / 3.0 + 2.0 / 3.0])
        est = box_dim_estimate(pts, DYADIC)
        check_estimate(est)
        assert est.value == pytest.approx(math.log(2) / math.log(3), abs=0.03)

    def test_uniform_grid(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ScaleWarning)
            est = box_dim_estimate(
                np.arange(4096) / 4096.0, [2.0**-j for j in range(2, 11)]
            )
        check_estimate(est)
        assert est.value == pytest.approx(1.0, abs=0.02)

    def test_finite_set_saturates_to_zero(self):
        rng = np.random.default_rng(7)
        pts = np.sort(rng.random(100))
        gap = np.diff(pts).min()
        with pytest.warns(ScaleWarning):
            est = box_dim_estimate(pts, [gap / 2**j for j in range(1, 10)])
        check_estimate(est)
        assert est.value == 0.0
        assert est.diagnostics["constant_counts"] is True

    def test_short_ladder_warns(self):
        pts = np.linspace(0, 1, 2000)
        with pytest.warns(ScaleWarning):
            box_dim_estimate(pts, [0.25, 0.125, 0.0625])

    def test_argument_validation(self):
        with pytest.raises(PreconditionError):
            box_dim_estimate([0.5], DYADIC)
        with pytest.raises(PreconditionError):
            box_dim_estimate(np.linspace(0, 1, 2000), [0.5])
        with pytest.raises(PreconditionError):
            box_dim_estimate(np.linspace(0, 1, 2000), [0.5, -0.25])
        with pytest.raises(PreconditionError):
            box_dim_estimate([0.1, float("nan")] * 600, DYADIC)


class TestPredict:
    def test_linear_restriction(self):
        out = predict_dimensions(2.0, parse_phi("lin:3"), 0.5)
        assert out["hausdorff"] == pytest.approx(0.5)
        assert out["packing"] == pytest.approx(0.5)

    def test_quadratic_with_tiling(self):
        out = predict_dimensions(2.0, parse_phi("pow:2"), 0.5, gauss_like=True)
        assert out["hausdorff"] == pytest.approx(1.0 / 3.0)
        assert out["packing"] == pytest.approx(0.5)

    def test_quadratic_without_tiling_gives_bracket(self):
        out = predict_dimensions(2.0, parse_phi("pow:2"), 0.5)
        lo, hi = out["hausdorff"]
        assert lo == pytest.approx(1.0 / 3.0)
        assert hi == pytest.approx(0.5)
        assert "note" in out

    def test_exponent_one_limit(self):
        out = predict_dimensions(2.0, parse_phi("pow:1.000000001"), 0.0, gauss_like=True)
        assert out["hausdorff"] == pytest.approx(0.5, abs=1e-8)

    def test_packing_honors_endpoint_dimension(self):
        assert predict_dimensions(2.0, parse_phi("lin:1"), 0.9)["packing"] == 0.9
        assert predict_dimensions(2.0, parse_phi("lin:1"), 0.2)["packing"] == 0.5

    def test_packing_never_below_forced_floor(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            d = 1.0 + 3.0 * rng.random()
            alpha = 1.0 + 4.0 * rng.random()
            s0 = float(rng.random())
            out = predict_dimensions(d, parse_phi(f"pow:{alpha}"), s0, gauss_like=True)
            assert out["packing"] >= out["hausdorff"] - 1e-15
            assert out["packing"] >= 1.0 / d - 1e-15

    def test_table_growth_classification(self, tmp_path):
        linear = tmp_path / "linear.txt"
        linear.write_text("\n".join(str(2 * n) for n in range(1, 30)))
        out = predict_dimensions(2.0, parse_phi(f"table:{linear}"), 0.4)
        assert out["hausdorff"] == pytest.approx(0.5)
        square = tmp_path / "square.txt"
        square.write_text("\n".join(str(n * n) for n in range(1, 30)))
        with pytest.raises(PreconditionError):
            predict_dimensions(2.0, parse_phi(f"table:{square}"), 0.4)
        with pytest.raises(PreconditionError):
            predict_dimensions(2.0, parse_phi(f"table:{square}"), 0.4, gauss_like=True)

    def test_argument_validation(self):
        with pytest.raises(PreconditionError):
            predict_dimensions(1.0, parse_phi("lin:1"), 0.5)
        with pytest.raises(PreconditionError):
            predict_dimensions(2.0, parse_phi("lin:1"), 1.5)
