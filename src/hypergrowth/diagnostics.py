"""Gradient/growth-rate curves, monotonicity checks, and break tests.

Two complementary diagnostics for the "did growth change regime?" question:

* sampled gradient and growth-rate curves of a ratio model, with a strict
  monotonicity check: a regime change or takeoff would show up as a sign
  change or stationary point, and for a ratio of hyperbolic trajectories
  none can exist;
* a Chow-style structural-break test on observed data, comparing a single
  straight line in reciprocal space against two independent lines split at
  a candidate year via an F statistic on residual sums.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import HypergrowthError, InsufficientDataError, UnrepresentableError, ValidationError
from .fitting import _line_sse, _reciprocal
from .ratio import RatioModel, ratio_gradient, ratio_growth_rate, time_at_ratio
from .series import TimeSeries, _first_fault, _frozen_array, _in_normal_range

#: Each abscissa kind and its name in curve headers and messages.
ABSCISSA_NAMES = {"time": "year", "ratio_size": "ratio_size"}
QUANTITIES = ("gradient", "growth_rate", "value")

#: Candidate regime-boundary years commonly claimed in the growth literature.
DEFAULT_BREAK_CANDIDATES = (1750.0, 1870.0)

#: Conventional dating of the Industrial Revolution, annotated on reports.
INDUSTRIAL_REVOLUTION_WINDOW = (1760.0, 1840.0)

# An adjacent step only counts as strict if it exceeds this fraction of the
# larger of the two values compared. Pairwise scaling keeps the check strict
# up to float noise even on curves spanning many decades (e.g. a gradient
# sampled all the way to the singularity guard).
MONOTONICITY_TOLERANCE = 1e-12


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

    abscissa_kind: str
    quantity: str
    x: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if self.abscissa_kind not in ABSCISSA_NAMES:
            raise ValueError(f"abscissa_kind must be one of {tuple(ABSCISSA_NAMES)}")
        if self.quantity not in QUANTITIES:
            raise ValueError(f"quantity must be one of {QUANTITIES}")
        x, values = _frozen_array(self.x), _frozen_array(self.values)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "values", values)
        fault = _first_fault(x, values, ABSCISSA_NAMES[self.abscissa_kind], positive=False)
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


def _time_curve(m: RatioModel, quantity: str, evaluate, grid) -> DiagnosticsCurve:
    """``evaluate(m, grid)`` as a time curve, refused where it underflows.

    Both quantities are C over a product of two nonzero lines, so with C != 0
    a value below the smallest normal float has lost digits to underflow, and
    a curve of such values can contradict the sign of C.
    """
    curve = DiagnosticsCurve("time", quantity, grid, evaluate(m, grid))
    small = ~_in_normal_range(curve.values)
    if m.modulation_constant != 0.0 and small.any():
        i = int(np.argmax(small))
        raise ValidationError(
            f"ratio {quantity} {curve.values[i]:g} at year {curve.x[i]:g} underflows "
            f"float64 (smallest normal {np.finfo(float).tiny:g})"
        )
    return curve


def gradient_curve(m: RatioModel, grid) -> DiagnosticsCurve:
    """Sample the ratio's gradient over a strictly increasing time grid."""
    return _time_curve(m, "gradient", ratio_gradient, grid)


def growth_rate_curve(m: RatioModel, grid) -> DiagnosticsCurve:
    """Sample the ratio's growth rate over a strictly increasing time grid."""
    return _time_curve(m, "growth_rate", ratio_growth_rate, grid)


def curves_vs_size(m: RatioModel, levels) -> tuple[DiagnosticsCurve, DiagnosticsCurve]:
    """Gradient and growth-rate curves parametrized by ratio size.

    Each level is mapped to its crossing time, where both quantities are
    sampled; output is sorted by level. Unattainable or repeated levels raise.
    """
    levels = np.sort(np.asarray(levels, dtype=float))
    times = np.array([time_at_ratio(m, level) for level in levels])
    return (
        DiagnosticsCurve("ratio_size", "gradient", levels, ratio_gradient(m, times)),
        DiagnosticsCurve("ratio_size", "growth_rate", levels, ratio_growth_rate(m, times)),
    )


def monotonicity_check(curve: DiagnosticsCurve) -> MonotonicityResult:
    """Strict monotonicity verdict with the earliest violating index.

    The first step sets the direction. Every step must move that way by more
    than the float-noise tolerance relative to the values compared; the index
    reported is the right-hand point of the first step that does not, 1 when
    the first step is a tie.
    """
    if len(curve) < 2:
        raise InsufficientDataError("monotonicity check needs at least 2 samples")
    values = curve.values
    diffs = np.diff(values)
    tol = MONOTONICITY_TOLERANCE * np.maximum(np.abs(values[1:]), np.abs(values[:-1]))
    direction = np.sign(diffs[0])
    strict = direction * diffs > tol
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
    return DiagnosticsCurve("time", "growth_rate", t[1:-1], rate)


def f_survival(f_stat: float, df_den: float) -> float:
    """Upper tail P(F > f_stat) of the F distribution with 2 and ``df_den`` dof.

    For 2 numerator dof the tail is elementary, (1 + 2f/df_den) ** (-df_den/2)
    (Abramowitz & Stegun 26.6). F = 0 gives exactly 1 and F = inf gives 0.
    """
    return math.exp(-0.5 * df_den * math.log1p(2.0 * f_stat / df_den))


def break_test(series: TimeSeries, break_year: float, alpha: float = 0.05) -> BreakTestResult:
    """Chow-style test for a structural break at ``break_year``.

    On the fit's scaled reciprocals, where the no-break null is a single
    straight line, the F statistic compares that line's residual sum against
    two independently fitted lines, one on the years before the break year and
    one on all the rest (a year equal to it joins the second), with 2 and n-4
    degrees of freedom; scaling the values by a power of two leaves F and p
    unchanged. Noiseless data that a single line explains exactly, to 1e-20 of
    the reciprocals' sum of squares (a constant series among them), carries no
    evidence of a break: F is 0. Two exact segments give F = inf. The
    closed-form tail gives p = 1 at F = 0 and p = 0 at F = inf. Residual sums
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
    single, segmented = scaled = np.array([
        _line_sse(t, z, w)[3], _line_sse(t[:j], z[:j], w[:j])[3] + _line_sse(t[j:], z[j:], w[j:])[3]
    ])
    noiseless = single <= 1e-20 * (w * z * z).sum()  # z >= 1: the sum is positive
    df_den = float(len(series) - 4)
    with np.errstate(divide="ignore", over="ignore"):  # an inf F stands; inf sums are refused
        f_stat = 0.0 if noiseless else max(0.0, (single - segmented) / 2.0 / (segmented / df_den))
        unscaled = np.ldexp(scaled, -2 * top)  # the sums in the values' own units
    # a noiseless series' sums are rounding noise, kept even where they underflow
    ok = np.isfinite(unscaled) & (noiseless | (scaled == 0.0) | _in_normal_range(unscaled))
    if not ok.all():
        raise UnrepresentableError(
            f"series {series.name!r}: residual sums of squares of 1/y fall outside float64's "
            f"normal range for values from {series.values.min():g} to {series.values.max():g}"
        )
    sse_single, sse_segmented = unscaled.tolist()
    p_value = f_survival(f_stat, df_den)
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
