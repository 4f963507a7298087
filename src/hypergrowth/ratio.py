"""Ratios of two hyperbolic growth trajectories.

The ratio R(t) = f(t)/g(t) of two hyperbolic trajectories equals the ratio
of the denominator's reciprocal line to the numerator's,

    R(t) = (a_g - k_g*t) / (a_f - k_f*t),

equivalently a hyperbolic trajectory multiplied by a decreasing straight
line. Its whole shape is governed by one constant,

    C = k_f*a_g - k_g*a_f,

whose sign says which singularity comes first: C > 0 means the numerator
blows up first and R escalates to infinity with it; C < 0 means the
denominator blows up first and R decreases to zero there; C = 0 makes R
constant. R'(t) = C / (a_f - k_f*t)**2 never changes sign, so the ratio is
monotone throughout its domain: there is no breakpoint, kink, or takeoff
anywhere, however abrupt the curve may look on a linear plot.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .core import eval_hyperbolic  # noqa: F401  (bench/tracing.py wraps this attribute)
from .core import HyperbolicParams, past_guard, reciprocal_value
from .errors import DomainError, NoSolutionError
from .series import _exact, _in_normal_range

# Each pathway's formula of the two reciprocal lines.
_FORMULAS = {
    "direct": lambda lin_f, lin_g: (1.0 / lin_f) / (1.0 / lin_g),
    "hyperbolic_times_linear": lambda lin_f, lin_g: (1.0 / lin_f) * lin_g,
    "linear_over_linear": lambda lin_f, lin_g: lin_g / lin_f,
}
#: Pathways for evaluating the ratio; all agree to rounding error.
PATHWAYS = tuple(_FORMULAS)


class Shape(str, enum.Enum):
    """Qualitative shape of a ratio model, decided by the sign of C."""

    ESCALATING = "escalating"
    DIMINISHING = "diminishing"
    CONSTANT = "constant"


@dataclass(frozen=True)
class RatioModel:
    """Ratio f(t)/g(t) of two hyperbolic trajectories.

    ``f`` is the numerator (e.g. GDP), ``g`` the denominator (e.g.
    population). The modulation constant C is always derived from the
    parameters, never stored separately. Both terms of C must be finite
    normal floats, or ValueError is raised: no overflow or underflow decides
    C's sign.
    """

    f: HyperbolicParams
    g: HyperbolicParams

    def __post_init__(self):  # Python floats: the products overflow or underflow, never warn
        terms = float(self.f.k) * float(self.g.a), float(self.g.k) * float(self.f.a)
        if not _in_normal_range(terms).all():
            raise ValueError("need normal floats k_f*a_g and k_g*a_f, got %g and %g" % terms)

    @property
    def modulation_constant(self) -> float:
        """C = k_f*a_g - k_g*a_f; sign(C) = sign(t_s(g) - t_s(f))."""
        return self.f.k * self.g.a - self.g.k * self.f.a

    @property
    def domain_end(self) -> float:
        """Earliest singularity time; the model is valid strictly before it."""
        return min(self.f.singularity_time, self.g.singularity_time)


def make_ratio(f: HyperbolicParams, g: HyperbolicParams) -> RatioModel:
    """Build the ratio model f/g. Both singularity orderings are accepted."""
    return RatioModel(f=f, g=g)


def past_domain(m: RatioModel, t):
    """Mask of times at or past either trajectory's singularity guard.

    The binding constraint is the earlier of the two singularities.
    """
    return past_guard(m.f, reciprocal_value(m.f, t)) | past_guard(m.g, reciprocal_value(m.g, t))


def _on_domain(m: RatioModel, t, formula):
    """``formula(lin_f, lin_g)`` of the two reciprocal lines at t; DomainError past the domain."""
    lin_f, lin_g = reciprocal_value(m.f, t), reciprocal_value(m.g, t)
    if (past_guard(m.f, lin_f) | past_guard(m.g, lin_g)).any():
        raise DomainError(
            f"time at or beyond the ratio domain "
            f"(earliest singularity at t_s={m.domain_end:.6g})"
        )
    with np.errstate(over="ignore"):  # +-inf beside a tiny line: curve checks refuse it
        return formula(lin_f, lin_g)


def eval_ratio(m: RatioModel, t, pathway: str = "direct"):
    """Value of the ratio at t, by any of three equivalent pathways.

    ``direct`` divides the two trajectory values, ``hyperbolic_times_linear``
    multiplies the numerator trajectory by the denominator's reciprocal line,
    ``linear_over_linear`` divides the two reciprocal lines. The results are
    identical up to rounding.
    """
    if pathway not in PATHWAYS:
        raise ValueError(f"unknown pathway {pathway!r}; expected one of {PATHWAYS}")
    return _on_domain(m, t, _FORMULAS[pathway])


def ratio_gradient(m: RatioModel, t):
    """Time derivative of the ratio: C / (a_f - k_f*t)**2.

    Shares the sign of C for every valid t, which is what rules out any
    change of growth direction. Dividing by the line twice, rather than by
    its square, cannot overflow far from the singularities.
    """
    return _on_domain(m, t, lambda lin_f, _: m.modulation_constant / lin_f / lin_f)


def ratio_growth_rate(m: RatioModel, t):
    """Logarithmic growth rate d(ln R)/dt = C / ((a_f - k_f*t) * (a_g - k_g*t)).

    Equals k_f/(a_f-k_f*t) - k_g/(a_g-k_g*t), whose two terms cancel as |t|
    grows; the closed form keeps the sign of C. Positive for all valid t iff
    C > 0; satisfies R' = R * d(ln R)/dt.
    """
    return _on_domain(m, t, lambda lin_f, lin_g: m.modulation_constant / lin_f / lin_g)


def time_at_ratio(m: RatioModel, level: float) -> float:
    """Unique time at which the ratio attains ``level``.

    Solves (a_g - k_g*t) = level * (a_f - k_f*t) in closed form. The ratio
    tends to k_g/k_f in the distant past, so that level is an asymptote with
    no crossing; levels whose algebraic root falls at or beyond the earliest
    singularity, or is not finite, are likewise rejected rather than reported.
    """
    level = float(level)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite root is refused below
        denom = level * m.f.k - m.g.k
        if denom == 0.0:
            raise NoSolutionError(
                f"level {_exact(level)} equals the asymptotic ratio k_g/k_f and is never attained"
            )
        t = (level * m.f.a - m.g.a) / denom
    if past_domain(m, t):
        raise NoSolutionError(
            f"level {_exact(level)} is only attained at t={t:.6g}, at or beyond the "
            f"ratio domain (earliest singularity at t_s={m.domain_end:.6g})"
        )
    if not np.isfinite(t):  # NaN from inf/inf, or -inf: no float64 crossing time
        raise NoSolutionError(
            f"level {_exact(level)} has no representable crossing time before the ratio "
            f"domain end (earliest singularity at t_s={m.domain_end:.6g})"
        )
    return t


def classify_shape(m: RatioModel) -> Shape:
    """Classify the ratio by the sign of C.

    ESCALATING (C > 0): the ratio increases monotonically and blows up at
    the numerator's singularity. DIMINISHING (C < 0): it decreases
    monotonically toward zero approaching the denominator's singularity.
    CONSTANT: |C| within rounding tolerance of zero, scaled to the magnitude
    of C's terms.
    """
    c = m.modulation_constant
    eps = 1e-12 * m.f.k * m.g.a
    if abs(c) <= eps:
        return Shape.CONSTANT
    return Shape.ESCALATING if c > 0 else Shape.DIMINISHING
