"""Gradient/growth-rate curves, monotonicity checks, and break tests.

Two complementary diagnostics for the "did growth change regime?" question:

* sampled gradient and growth-rate curves of a ratio model, with a strict
  monotonicity check: a regime change or takeoff would show up as a sign
  change or stationary point, and for a ratio of hyperbolic trajectories
  none can exist;
* a Chow-style structural-break test on observed data, comparing one straight
  line in reciprocal space against independent lines on the segments between
  split years via an F statistic on residual sums with an exact even-q tail.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import HypergrowthError, InsufficientDataError, UnrepresentableError, ValidationError
from .fitting import _line_sse, _reciprocal
from .ratio import RatioModel, Shape, classify_shape, time_at_ratio
from .ratio import ratio_gradient, ratio_growth_rate
from .series import TimeSeries, _first_fault, _frozen_array, _in_normal_range

#: Candidate regime-boundary years commonly claimed in the growth literature.
DEFAULT_BREAK_CANDIDATES = (1750.0, 1870.0)

#: Conventional dating of the Industrial Revolution, annotated on reports.
INDUSTRIAL_REVOLUTION_WINDOW = (1760.0, 1840.0)


class Monotonicity(str, enum.Enum):
    INCREASING = "monotone_increasing"
    DECREASING = "monotone_decreasing"
    NON_MONOTONE = "non_monotone"


class BreakDecision(str, enum.Enum):
    NO_BREAK = "no_break"
    BREAK_DETECTED = "break_detected"


@dataclass(frozen=True)
class DiagnosticsCurve:
    """A sampled curve for plot emission, checked as a series is but with values of any sign."""

    x_name: str  # the abscissa's column header, "year" or "ratio_size"
    quantity: str  # the values' column header
    x: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        x, values = _frozen_array(self.x), _frozen_array(self.values)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "values", values)
        fault = _first_fault(x, values, self.x_name, positive=False)
        if fault is not None:
            raise ValidationError(f"ratio {self.quantity} curve: {fault[1]}")

    def __len__(self) -> int:
        return self.x.size


@dataclass(frozen=True)
class MonotonicityResult:
    verdict: Monotonicity
    first_violation: int | None = None


@dataclass(frozen=True)
class BreakTestResult:
    """Single-line vs two-segment comparison at one candidate break year."""

    break_year: float
    sse_single: float
    sse_segmented: float
    f_statistic: float
    p_value: float
    decision: BreakDecision
    alpha: float


@dataclass(frozen=True)
class TakeoffScanEntry:
    """Outcome of one candidate year in a scan; failures carry a message."""

    candidate_year: float
    result: BreakTestResult | None = None
    error: str | None = None


def _model_curve(m: RatioModel, x_name: str, quantity: str, x, values) -> DiagnosticsCurve:
    """A curve evaluated from ``m``, refused where a value leaves float64's normal range.

    Unless ``classify_shape`` calls the model constant, no value, gradient or growth rate
    is 0 on the domain: a value below the smallest normal float is an underflow hiding C's sign.
    """
    curve = DiagnosticsCurve(x_name, quantity, x, values)
    small = ~_in_normal_range(curve.values)
    if classify_shape(m) is not Shape.CONSTANT and small.any():
        i = int(np.argmax(small))
        raise ValidationError(
            f"ratio {quantity} {curve.values[i]:g} at {x_name} {curve.x[i]:g} "
            f"underflows float64 (smallest normal {np.finfo(float).tiny:g})"
        )
    return curve


def gradient_curve(m: RatioModel, grid) -> DiagnosticsCurve:
    """Sample the ratio's gradient over a strictly increasing time grid."""
    return _model_curve(m, "year", "gradient", grid, ratio_gradient(m, grid))


def growth_rate_curve(m: RatioModel, grid) -> DiagnosticsCurve:
    """Sample the ratio's growth rate over a strictly increasing time grid."""
    return _model_curve(m, "year", "growth_rate", grid, ratio_growth_rate(m, grid))


def curves_vs_size(m: RatioModel, levels) -> tuple[DiagnosticsCurve, DiagnosticsCurve]:
    """Gradient and growth-rate curves parametrized by ratio size.

    Each level maps to its crossing time, where both quantities are sampled and
    checked as time curves are; sorted by level. Unattainable or repeated levels raise.
    """
    levels = np.sort(np.asarray(levels, dtype=float))
    times = np.array([time_at_ratio(m, level) for level in levels])
    return (
        _model_curve(m, "ratio_size", "gradient", levels, ratio_gradient(m, times)),
        _model_curve(m, "ratio_size", "growth_rate", levels, ratio_growth_rate(m, times)),
    )


def monotonicity_check(curve: DiagnosticsCurve) -> MonotonicityResult:
    """Strict monotonicity verdict with the earliest violating index.

    The first step sets the direction, and every computed step must move that
    way, however small the step; there is no tolerance. The index reported is
    the right-hand point of the first step that does not, 1 when the first
    step is a tie (as on the all-zero curves of a C = 0 model).
    """
    if len(curve) < 2:
        raise InsufficientDataError("monotonicity check needs at least 2 samples")
    diffs = np.diff(curve.values)
    direction = np.sign(diffs[0])
    strict = direction * diffs > 0
    if strict.all():
        return MonotonicityResult(
            Monotonicity.INCREASING if direction > 0 else Monotonicity.DECREASING
        )
    return MonotonicityResult(Monotonicity.NON_MONOTONE, first_violation=int(np.argmin(strict)) + 1)


def series_growth_rate(series: TimeSeries) -> DiagnosticsCurve:
    """Growth rate estimated from raw data by centered log-differences.

    ln(y_{i+1}/y_{i-1}) / (t_{i+1} - t_{i-1}), a symmetric estimator that
    tolerates the uneven year spacing of historical tables. Defined on the
    interior points only; a year span or value ratio outside float64's
    normal range raises UnrepresentableError.
    """
    if len(series) < 3:
        raise InsufficientDataError(
            f"series {series.name!r}: need at least 3 points for a centered growth rate"
        )
    t, y = series.years, series.values
    with np.errstate(over="ignore", divide="ignore"):  # refused below or by the curve check
        span, quotient = t[2:] - t[:-2], y[2:] / y[:-2]
        rate = np.log(quotient) / span
    bad = ~(np.isfinite(span) & _in_normal_range(quotient))
    if bad.any():
        i = int(bad.argmax()) + 1
        raise UnrepresentableError(
            f"series {series.name!r}: the growth rate at year {t[i]:g} spans years or a "
            f"value ratio outside float64's normal range"
        )
    return DiagnosticsCurve("year", "growth_rate", t[1:-1], rate)


def f_survival(f_stat: float, q: int, df_den: float) -> float:
    """Upper tail P(F > f_stat) of the F distribution with ``q`` and ``df_den`` dof; q even, >= 2.

    With u = df_den/(df_den + q*f) it is u**(df_den/2) * sum_{j<q/2} C(df_den/2+j-1, j) (1-u)**j
    (Abramowitz & Stegun 26.6.4), exactly 1 at F = 0 and 0 at F = inf or where q*f overflows.
    """
    qf = q * float(f_stat)
    x = qf / (df_den + qf) if qf < math.inf else 1.0  # 1 - u, never inf/inf
    term = total = 1.0
    for j in range(1, q // 2):  # each binomial term from the one before; none at q = 2
        term *= (0.5 * df_den + j - 1) / j * x
        total += term
    return math.exp(-0.5 * df_den * math.log1p(qf / df_den)) * total


def _segments_sse(t: np.ndarray, z: np.ndarray, w: np.ndarray, splits=()) -> float:
    """Summed residual squares of independent weighted lines on the slices between ``splits``."""
    bounds, total = [0, *splits, len(t)], 0.0
    for i, k in zip(bounds, bounds[1:]):  # left to right: sum() compensates from Python 3.12
        total += _line_sse(t[i:k], z[i:k], w[i:k]).sse
    return total


def break_test(series: TimeSeries, break_year: float, alpha: float = 0.05) -> BreakTestResult:
    """Chow-style test for a structural break at ``break_year``.

    On the fit's scaled reciprocals, where the no-break null is a single
    straight line, the F statistic compares that line's residual sum against
    two independently fitted lines, one on the years before the break year and
    one on all the rest (a year equal to it joins the second), with 2 and n-4
    degrees of freedom; scaling the values by a power of two leaves F and p
    unchanged. Noiseless data that a single line explains exactly, to 1e-20 of
    the reciprocals' sum of squares (a constant series among them), carries no
    evidence of a break: F is 0. Two exact segments give F = inf. Residual sums
    that overflow in the values' own units, or, unless the data are noiseless,
    that are nonzero but below float64's normal range, raise UnrepresentableError.
    """
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    t = series.years
    j, after = int(np.count_nonzero(t < break_year)), int(np.count_nonzero(t > break_year))
    if j < 3 or after < 3:
        raise InsufficientDataError(
            f"series {series.name!r}: need at least 3 points strictly on each side "
            f"of {break_year:g}, got {j} before and {after} after"
        )
    z, w, top = _reciprocal(series, "unweighted")
    single, segmented = scaled = np.array([_segments_sse(t, z, w), _segments_sse(t, z, w, [j])])
    noiseless = single <= 1e-20 * (w * z * z).sum()  # z >= 1: the sum is positive
    q, df_den = 2, float(len(series) - 4)  # 2 x (extra segments), n - 2 x (lines)
    with np.errstate(divide="ignore", over="ignore"):  # an inf F stands; inf sums are refused
        f_stat = 0.0 if noiseless else max(0.0, (single - segmented) / q / (segmented / df_den))
        unscaled = np.ldexp(scaled, -2 * top)  # the sums in the values' own units
    # a noiseless series' sums are rounding noise, kept even where they underflow
    ok = np.isfinite(unscaled) & (noiseless | (scaled == 0.0) | _in_normal_range(unscaled))
    if not ok.all():
        raise UnrepresentableError(
            f"series {series.name!r}: residual sums of squares of 1/y fall outside float64's "
            f"normal range for values from {series.values.min():g} to {series.values.max():g}"
        )
    sse_single, sse_segmented = unscaled.tolist()
    p_value = f_survival(f_stat, q, df_den)
    return BreakTestResult(
        break_year=float(break_year),
        sse_single=sse_single,
        sse_segmented=sse_segmented,
        f_statistic=float(f_stat),
        p_value=p_value,
        decision=BreakDecision.BREAK_DETECTED if p_value < alpha else BreakDecision.NO_BREAK,
        alpha=alpha,
    )


def takeoff_scan(
    series: TimeSeries,
    candidate_years=DEFAULT_BREAK_CANDIDATES,
    alpha: float = 0.05,
) -> list[TakeoffScanEntry]:
    """Run the break test at each candidate year, collecting failures.

    A candidate that cannot be tested (e.g. too few points on one side)
    yields an entry with an error message instead of aborting the scan.
    """
    entries: list[TakeoffScanEntry] = []
    for year in map(float, candidate_years):
        try:
            entries.append(TakeoffScanEntry(year, result=break_test(series, year, alpha=alpha)))
        except HypergrowthError as exc:
            entries.append(TakeoffScanEntry(year, error=str(exc)))
    return entries
