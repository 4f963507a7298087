"""Parameter estimation by linear least squares on reciprocal values.

A hyperbolic growth trajectory is uniquely identified by its reciprocal
values, which fall on the straight line a - k*t. Fitting therefore reduces
to a line fit of 1/y against t: the intercept estimates a, the negated
slope estimates k, and the singularity time follows as a/k. Data whose
reciprocal regression does not give a valid ``HyperbolicParams`` (a finite
positive intercept, a finite negative slope and a finite a/k) are not
hyperbolic-growth-shaped and are rejected rather than forced.

Two weighting modes are supported. ``unweighted`` is ordinary least squares
in reciprocal space; ``size_squared`` weights each squared reciprocal
residual by y_i**2, which counteracts the reciprocal transform's tendency
to over-weight small early values and approximates least squares in the
original space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import HyperbolicParams, eval_hyperbolic
from .core import reciprocal_value  # noqa: F401  (bench/tracing.py wraps this attribute)
from .errors import FitRejectedError, InsufficientDataError, UnrepresentableError
from .ratio import RatioModel, eval_ratio, make_ratio, past_domain
from .series import TimeSeries, _in_normal_range

WEIGHTINGS = ("unweighted", "size_squared")


@dataclass(frozen=True)
class HyperbolicFit:
    """A fitted trajectory plus reciprocal-space residual statistics.

    ``residuals`` are per-point 1/y_i - (a - k*t_i); with an intercept in
    the model their weighted sum is zero by construction.
    """

    params: HyperbolicParams
    residuals: np.ndarray
    rmse_reciprocal: float
    r_squared_reciprocal: float
    n_points: int
    weighting: str

    @property
    def t_s(self) -> float:
        """Singularity time a/k of the fitted trajectory."""
        return self.params.singularity_time


@dataclass(frozen=True)
class RatioFit:
    """A ratio model assembled from two independently fitted series.

    Residuals compare the observed numerator/denominator quotient against
    the model ratio, on common years inside the model's valid domain.
    """

    model: RatioModel
    numerator_fit: HyperbolicFit
    denominator_fit: HyperbolicFit
    common_years: np.ndarray
    observed_ratio: np.ndarray
    predicted_ratio: np.ndarray
    residuals: np.ndarray


def _reciprocal(series: TimeSeries, weighting: str) -> tuple[np.ndarray, np.ndarray, int]:
    """Reciprocals z = 1/y' and weights of the values scaled exactly to y' = y / 2**top.

    max(y') is in [0.5, 1), so y'**2 and squared residuals neither overflow nor underflow,
    and the sums of n squared reciprocals stay finite while n / min(y')**2 does.
    """
    top = int(np.frexp(series.values.max())[1])
    y = np.ldexp(series.values, -top)
    if y.min() < np.sqrt(len(series) / np.finfo(float).max):
        raise FitRejectedError(
            f"series {series.name!r}: values from {series.values.min():g} to "
            f"{series.values.max():g} span too wide a range for their squared "
            f"reciprocals to fit in float64"
        )
    return 1.0 / y, (y**2 if weighting == "size_squared" else np.ones_like(y)), top


def _line_sse(t: np.ndarray, z: np.ndarray, w: np.ndarray):
    """Weighted least-squares line z ~ intercept + slope*t, with its residuals, SSE and SST.

    The normal equations are centred on the weighted mean of the years scaled by 2**-s
    into (-1, 1), so no year sum, offset or square overflows; the scaling is exact, so
    the mean and slope are bitwise those of the plain years wherever those stay in range.
    """
    sw = w.sum()
    s = int(np.frexp(np.abs(t).max())[1])
    tbar = (w * np.ldexp(t, -s)).sum() / sw
    zbar = (w * z).sum() / sw
    dt = np.ldexp(t, -s) - tbar
    slope = np.ldexp((w * dt * (z - zbar)).sum() / (w * dt * dt).sum(), -s)
    intercept = zbar - slope * np.ldexp(tbar, s)
    r = z - (intercept + slope * t)
    return intercept, slope, r, float((w * r**2).sum()), float((w * (z - zbar) ** 2).sum())


def fit_hyperbolic(series: TimeSeries, weighting: str = "unweighted") -> HyperbolicFit:
    """Estimate (a, k) from a series by reciprocal-space line regression."""
    if weighting not in WEIGHTINGS:
        raise ValueError(f"unknown weighting {weighting!r}; expected one of {WEIGHTINGS}")
    if len(series) < 3:
        raise InsufficientDataError(
            f"series {series.name!r}: need at least 3 points to fit, got {len(series)}"
        )
    z, w, top = _reciprocal(series, weighting)
    intercept, slope, residuals, sse, sst = _line_sse(series.years, z, w)
    with np.errstate(over="ignore"):  # an overflowing estimate is rejected below
        a_hat, k_hat = np.ldexp([intercept, -slope], -top).tolist()
    try:
        params = HyperbolicParams(a=a_hat, k=k_hat)
    except ValueError:
        raise FitRejectedError(
            f"series {series.name!r}: reciprocal regression gave a={a_hat:.6g}, "
            f"k={k_hat:.6g}; data is not hyperbolic-growth-shaped"
        ) from None
    return HyperbolicFit(
        params=params,
        residuals=np.ldexp(residuals, -top),
        rmse_reciprocal=float(np.ldexp(np.sqrt(sse / w.sum()), -top)),
        r_squared_reciprocal=1.0 - sse / sst if sst > 0 else 1.0,
        n_points=len(series),
        weighting=weighting,
    )


def fit_ratio(
    numerator: TimeSeries, denominator: TimeSeries, weighting: str = "unweighted"
) -> RatioFit:
    """Fit both series and assemble their ratio model.

    Also reports observed-vs-model ratio residuals on the common years;
    common years at or past the fitted model's domain end are left out of
    the residual report since the model has no value there. A pair that
    ``RatioModel`` refuses, or whose observed or model ratio on those years
    is not a finite normal float, raises UnrepresentableError.
    """
    num_fit = fit_hyperbolic(numerator, weighting)
    den_fit = fit_hyperbolic(denominator, weighting)
    names = f"{numerator.name!r} and {denominator.name!r}"
    try:
        model = make_ratio(num_fit.params, den_fit.params)
    except ValueError as exc:
        raise UnrepresentableError(f"series {names}: {exc}") from None

    common, num_idx, den_idx = np.intersect1d(
        numerator.years, denominator.years, assume_unique=True, return_indices=True
    )
    if common.size < 3:
        raise InsufficientDataError(
            f"series {names} share only "
            f"{common.size} common years; need at least 3 for residual reporting"
        )
    with np.errstate(over="ignore"):  # refused below, as are quotients that underflow
        observed = numerator.values[num_idx] / denominator.values[den_idx]

    in_domain = ~past_domain(model, common)
    common, observed = common[in_domain], observed[in_domain]
    predicted = eval_ratio(model, common)
    bad = ~(_in_normal_range(observed) & _in_normal_range(predicted))
    if bad.any():
        i = int(bad.argmax())
        raise UnrepresentableError(
            f"series {names}: ratio at year {common[i]:g} is outside float64's normal "
            f"range (observed {observed[i]:g}, model {predicted[i]:g})"
        )
    return RatioFit(
        model=model,
        numerator_fit=num_fit,
        denominator_fit=den_fit,
        common_years=common,
        observed_ratio=observed,
        predicted_ratio=predicted,
        residuals=observed - predicted,
    )


def predict(fit: HyperbolicFit, grid, name: str = "fitted") -> TimeSeries:
    """Evaluate the fitted trajectory on a year grid."""
    return TimeSeries(years=grid, values=eval_hyperbolic(fit.params, grid), name=name)
