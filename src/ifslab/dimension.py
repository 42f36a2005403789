"""Dimension machinery: roots of truncated pressure equations, restricted
cover sums, box-counting regression, and the closed-form prediction table.

The pressure root s solves sum_{i=k}^{m} r_i**s = 1 for a finite band of
contraction ratios; bisection keeps a certified bracket around it.  Cover
sums aggregate |cylinder|**s over restriction-admissible words, either by
exact enumeration or by a transfer-operator style dynamic program, and
carry an explicit truncation bound for the discarded digits above the cap.
Box counting follows the usual occupied-grid regression with the scale
window trimmed to its middle part.
"""

import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from scipy import stats

from .restrictions import Phi, enumerate_restricted_words
from .powersum import power_sum_brackets
from .systems import (
    DecaySystem,
    NumericFailure,
    PreconditionError,
    _gauss_continuants,
)

# Pressure-root search ceiling: the sum is still >= 1 here only when a
# non-contracting ratio is present, so there is no root to find.
_BOWEN_S_CAP = 64.0
_BOWEN_MAX_ITER = 256

# At most this many admissible words (summed over all depths) are walked
# exactly; beyond it the dynamic program takes over.
_EXACT_WORD_CAP = 200_000

# Resolution of the continuant-ratio binning in the transfer program, and
# the largest digit cap its dense state matrix will hold.
_RATIO_BINS = 1024
_GAUSS_DP_CAP = 20_000


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


def _root_from_rates(rates: np.ndarray, tol: float) -> DimensionEstimate:
    """Bisect s -> sum(rates**s) down to |sum - 1| <= tol."""
    if np.count_nonzero((rates > 0) & (rates < 1)) < 2:
        raise PreconditionError("pressure root needs at least two contracting ratios")
    has_unit = bool((rates >= 1).any())
    # Ratios that underflowed to zero contribute nothing at any s > 0.
    lr = np.log(rates[rates > 0])

    def pressure(s: float) -> float:
        return float(np.exp(s * lr).sum())

    hi = 1.0
    while pressure(hi) >= 1.0:
        hi *= 2.0
        if hi > _BOWEN_S_CAP:
            detail = " (a ratio >= 1 is present)" if has_unit else ""
            raise NumericFailure(
                f"pressure sum stays >= 1 up to s = {_BOWEN_S_CAP}; no root below the cap{detail}"
            )
    lo = 0.0
    mid = hi
    val = pressure(mid)
    for it in range(_BOWEN_MAX_ITER):
        mid = 0.5 * (lo + hi)
        val = pressure(mid)
        if abs(val - 1.0) <= tol:
            break
        if val > 1.0:
            lo = mid
        else:
            hi = mid
    else:
        raise NumericFailure(f"bisection residual never reached tol {tol}")
    diag = {
        "residual": val - 1.0,
        "iterations": it + 1,
        "terms": int(rates.size),
        "raw_root": mid,
    }
    return _estimate(mid, "bowen-root", lo, hi, diag)


def _rate_band(system: DecaySystem, bound_kind: str, k: int, m: int) -> np.ndarray:
    if bound_kind == "xi":
        fn = system.contract_lo
    elif bound_kind == "lambda":
        fn = system.contract_hi
    else:
        raise PreconditionError(f"bound_kind must be 'xi' or 'lambda', got {bound_kind!r}")
    return np.array([fn(i) for i in range(k, m + 1)], dtype=float)


def bowen_root(
    system: DecaySystem, bound_kind: str, k: int, m: int, tol: float = 1e-10
) -> DimensionEstimate:
    """Root of sum_{i=k}^{m} r_i**s = 1 for the chosen rate bound."""
    if k < 1 or k > m:
        raise PreconditionError(f"need 1 <= k <= m, got k={k}, m={m}")
    if not tol > 0:
        raise PreconditionError("tol must be positive")
    if system.index_limit is not None and m > system.index_limit:
        raise PreconditionError(f"index {m} beyond the system's limit {system.index_limit}")
    return _root_from_rates(_rate_band(system, bound_kind, k, m), tol)


def subsystem_dim_bounds(
    system: DecaySystem, k: int, m: int, tol: float = 1e-10
) -> tuple:
    """(lower, upper) pressure-root estimates from the two rate bounds.

    The upper bound is capped at 1 (and flagged) when the upper rates
    include a non-contracting ratio, as they do for the first Gauss map.
    """
    if k < 1 or k > m:
        raise PreconditionError(f"need 1 <= k <= m, got k={k}, m={m}")
    if not tol > 0:
        raise PreconditionError("tol must be positive")
    if system.index_limit is not None and m > system.index_limit:
        raise PreconditionError(f"index {m} beyond the system's limit {system.index_limit}")
    lower = _root_from_rates(_rate_band(system, "xi", k, m), tol)
    hi_rates = _rate_band(system, "lambda", k, m)
    if (hi_rates >= 1).any():
        upper = DimensionEstimate(
            value=1.0,
            method="bowen-root",
            bracket=(lower.value, 1.0),
            diagnostics={"capped": True, "terms": int(hi_rates.size)},
        )
    else:
        upper = _root_from_rates(hi_rates, tol)
    return lower, upper


def _transition_counts(phi: Phi, cap: int) -> np.ndarray:
    """predecessors[j-1] = #{i <= cap : Phi(i) < j} for digits j = 1..cap."""
    phi_vals = np.array([min(phi.floor(i), cap + 1) for i in range(1, cap + 1)], dtype=np.int64)
    digits = np.arange(1, cap + 1, dtype=np.int64)
    return np.searchsorted(phi_vals, digits, side="left")


def _pred_mass(m: np.ndarray, tj: np.ndarray) -> np.ndarray:
    """Per digit j, the total of m over its admissible predecessors: the
    first tj[j-1] entries (none when tj is 0)."""
    cum = np.cumsum(m)
    return np.where(tj > 0, cum[np.maximum(tj - 1, 0)], 0.0)


def _count_words_per_depth(tj: np.ndarray, depth: int) -> list:
    """Number of admissible words at each depth 1..depth (float counts)."""
    counts = []
    c = np.ones(tj.size, dtype=float)
    for _ in range(depth):
        counts.append(float(c.sum()))
        c = _pred_mass(c, tj)
    return counts


def _exact_depth_sums(system, phi, depth, s, cap):
    """Exact enumeration: per-depth totals of |cylinder|**s, plus the exact
    rational total at the final depth for the Gauss family at s = 1."""
    totals = []
    exact_final = None
    for n in range(1, depth + 1):
        log_terms = []
        frac_total = Fraction(0) if (system.kind == "gauss" and s == 1) else None
        for word in enumerate_restricted_words(phi, n, cap):
            if system.kind == "gauss":
                _, _, q_prev, q = _gauss_continuants(word)
                log_len = -(math.log(q) + math.log(q + q_prev))
                if frac_total is not None:
                    frac_total += Fraction(1, q * (q + q_prev))
            else:
                log_len = math.fsum(system.log_contract_hi(a) for a in word)
            log_terms.append(s * log_len)
        if not log_terms:
            totals.append(0.0)
            continue
        arr = np.array(log_terms)
        peak = arr.max()
        totals.append(float(math.exp(peak) * np.exp(arr - peak).sum()))
        if n == depth and frac_total is not None:
            exact_final = float(frac_total)
    if exact_final is not None:
        totals[-1] = exact_final
    return totals


def _affine_depth_sums(system, tj, depth, s, cap):
    """Factorized transfer program: cylinder lengths are exact products of
    per-digit ratios, so the state is the last digit alone."""
    log_w = np.array([s * system.log_contract_hi(i) for i in range(1, cap + 1)])
    w = np.exp(log_w)
    m = w.copy()
    offset = 0.0
    totals = [float(m.sum())]
    for _ in range(depth - 1):
        m = w * _pred_mass(m, tj)
        tot = m.sum()
        totals.append(float(tot * math.exp(offset)) if tot > 0 else 0.0)
        if 0 < tot < 1e-250:
            offset += math.log(tot)
            m /= tot
    return totals


def _gauss_depth_sums(tj, depth, s, cap):
    """Binned transfer program for continued-fraction cylinders.

    With r the ratio of consecutive continuant denominators, appending
    digit j scales the cylinder by (1+r)/((j+r)(j+r+1)) and renews the
    ratio to 1/(j+r); r is tracked on a uniform grid of _RATIO_BINS bins.
    """
    B = _RATIO_BINS
    digits = np.arange(1, cap + 1, dtype=float)
    rows = np.arange(cap)
    mass0 = np.exp(-s * (np.log(digits) + np.log1p(digits)))
    if depth == 1:
        return [float(mass0.sum())]
    if cap > _GAUSS_DP_CAP:
        raise NumericFailure(
            f"digit cap {cap} beyond the binned transfer program's bound "
            f"{_GAUSS_DP_CAP}; lower the cap or force exact enumeration"
        )
    bins0 = np.minimum((B / digits).astype(np.int64), B - 1)
    m = np.zeros((cap, B))
    np.add.at(m, (rows, bins0), mass0)
    reps = (np.arange(B) + 0.5) / B
    offset = 0.0
    totals = [float(mass0.sum())]
    for _ in range(depth - 1):
        m_new = np.zeros_like(m)
        occupied = np.nonzero(m.sum(axis=0) > 0)[0]
        for b in occupied:
            pred = _pred_mass(m[:, b], tj)
            r = reps[b]
            weight = np.exp(
                s * (math.log1p(r) - np.log(digits + r) - np.log(digits + r + 1.0))
            )
            contrib = pred * weight
            new_bins = np.minimum((B / (digits + r)).astype(np.int64), B - 1)
            np.add.at(m_new, (rows, new_bins), contrib)
        m = m_new
        tot = m.sum()
        totals.append(float(tot * math.exp(offset)) if tot > 0 else 0.0)
        if 0 < tot < 1e-250:
            offset += math.log(tot)
            m /= tot
    return totals


def _truncation_bound(system, depth, s, cap, totals) -> float:
    """Upper bound on the mass of words discarded by the digit cap.

    A discarded word splits into an admissible prefix, a first digit above
    the cap, and a continuation whose digits all stay above the cap (the
    restriction only pushes digits upward).  Each appended digit j scales
    the cylinder by at most distortion * lambda_j (2 for continued
    fractions, 1 for linear maps), so the block of out-of-cap factors is
    bounded by powers of G = distortion**s * sum_{i > cap} lambda_i**s.  The
    tail sum diverges when decay * s <= 1 and the bound is then infinite:
    the truncated mass genuinely dominates at such exponents.
    """
    p = system.decay * s
    if p <= 1.0:
        return math.inf
    tail_hi = power_sum_brackets(cap + 1, None, p)[1] * system.scale**s
    G = system.distortion**s * tail_hi
    bound = 0.0
    for n in range(1, depth + 1):
        prefix = 1.0 if n == 1 else totals[n - 2]
        bound += prefix * G ** (depth - n + 1)
    return bound


def cover_sum(
    system: DecaySystem,
    phi: Phi,
    depth: int,
    s: float,
    digit_cap: int = 10_000,
    method: str = "auto",
) -> float:
    """Sum of |cylinder|**s over admissible words of the given depth.

    Words use digits up to digit_cap with each digit exceeding Phi of its
    predecessor.  method 'exact' forces enumeration, 'dp' the transfer
    program; 'auto' enumerates only when the word count stays small.  A
    TailWarning reports when the digit-cap truncation bound exceeds 1% of
    the result.
    """
    if not 0 < s <= 1:
        raise PreconditionError("cover sums need s in (0, 1]")
    if depth < 1:
        raise PreconditionError("depth must be at least 1")
    if digit_cap < 1:
        raise PreconditionError("digit_cap must be at least 1")
    if method not in ("auto", "exact", "dp"):
        raise PreconditionError(f"unknown method {method!r}")
    cap = digit_cap
    if system.index_limit is not None:
        cap = min(cap, system.index_limit)
    tj = _transition_counts(phi, cap)
    if method == "auto":
        n_words = sum(_count_words_per_depth(tj, depth))
        if system.kind == "gauss":
            method = "exact" if n_words <= _EXACT_WORD_CAP else "dp"
        else:
            method = "dp"
    if method == "exact":
        totals = _exact_depth_sums(system, phi, depth, s, cap)
    elif system.kind == "gauss":
        totals = _gauss_depth_sums(tj, depth, s, cap)
    else:
        totals = _affine_depth_sums(system, tj, depth, s, cap)
    result = totals[-1]
    bound = _truncation_bound(system, depth, s, cap, totals)
    if bound > 0.01 * result:
        warnings.warn(
            f"digit cap {cap}: truncation bound {bound:.3g} exceeds 1% of the "
            f"cover sum {result:.3g}",
            TailWarning,
            stacklevel=2,
        )
    return result


def box_dim_estimate(points, scales) -> DimensionEstimate:
    """Box-counting slope of a point set over a decreasing scale ladder.

    Boxes are grid cells anchored at 0.  The regression runs on the middle
    60% of the scales so saturation at either end of the ladder does not
    bend the slope.  Advisory sampling bars (1000 points, 8 scales over 4
    decades) are reported as ScaleWarning rather than enforced: sparser
    input yields an estimate that is still well defined, merely coarse.
    """
    pts = np.asarray(points, dtype=float).ravel()
    if pts.size < 2:
        raise PreconditionError("box counting needs at least two points")
    if not np.isfinite(pts).all():
        raise PreconditionError("points must be finite")
    deltas = np.unique(np.asarray(scales, dtype=float))[::-1]
    if deltas.size < 2:
        raise PreconditionError("box counting needs at least two distinct scales")
    if not (deltas > 0).all():
        raise PreconditionError("scales must be positive")
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
    counts = np.array([np.unique(np.floor(pts / d)).size for d in deltas], dtype=float)
    n = deltas.size
    k = max(2, round(0.6 * n))
    start = (n - k) // 2
    sel = slice(start, start + k)
    x = np.log(1.0 / deltas[sel])
    y = np.log(counts[sel])
    fit = stats.linregress(x, y)
    slope = float(fit.slope)
    if not math.isfinite(slope):
        raise NumericFailure("degenerate box-count regression")
    stderr = float(fit.stderr) if math.isfinite(fit.stderr) else 0.0
    diag = {
        "raw_slope": slope,
        "stderr": stderr,
        "r_squared": float(fit.rvalue) ** 2 if math.isfinite(fit.rvalue) else 0.0,
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
    dimension of the first-level image endpoints.
    """
    if not d > 1:
        raise PreconditionError("prediction needs decay d > 1")
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
    # Table restrictions: classify the tabulated growth trend.
    table = phi.table
    if len(table) < 2:
        raise PreconditionError(
            "prediction declined: a one-entry table cannot be classified"
        )
    n_last = len(table)
    superlinear = table[-1] * 1 > table[0] * n_last
    if superlinear:
        detail = (
            " (the tiling flag does not help: the closed form needs a power profile)"
            if gauss_like
            else ""
        )
        raise PreconditionError(
            f"prediction declined: no closed form for a super-linear table restriction{detail}"
        )
    return {
        "hausdorff": 1.0 / d,
        "packing": packing,
        "note": "tabulated growth is linear; the value assumes the trend persists",
    }
