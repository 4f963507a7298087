"""Hyperbolic growth analysis for historical time series.

Fit trajectories of the form 1/(a - k*t) by linear regression on reciprocal
values, combine them into ratio models such as GDP per capita, and test
whether the data support any change of growth regime.
"""

from .core import (
    SINGULARITY_GUARD,
    HyperbolicParams,
    eval_hyperbolic,
    reciprocal_value,
)
from .diagnostics import (
    DEFAULT_BREAK_CANDIDATES,
    INDUSTRIAL_REVOLUTION_WINDOW,
    BreakDecision,
    BreakTestResult,
    DiagnosticsCurve,
    Monotonicity,
    MonotonicityResult,
    TakeoffScanEntry,
    break_test,
    curves_vs_size,
    gradient_curve,
    growth_rate_curve,
    monotonicity_check,
    series_growth_rate,
    takeoff_scan,
)
from .errors import (
    DataError,
    DomainError,
    FitRejectedError,
    HypergrowthError,
    InsufficientDataError,
    NoSolutionError,
    ParseError,
    UnrepresentableError,
    ValidationError,
)
from .fitting import HyperbolicFit, RatioFit, fit_hyperbolic, fit_ratio, predict
from .ingest import parse_csv, synthesize, write_csv
from .ratio import (
    PATHWAYS,
    RatioModel,
    Shape,
    classify_shape,
    eval_ratio,
    make_ratio,
    ratio_gradient,
    ratio_growth_rate,
    time_at_ratio,
)
from .series import TimeSeries

__version__ = "0.1.0"
