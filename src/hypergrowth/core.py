"""Closed-form hyperbolic growth trajectories.

A hyperbolic growth trajectory is the reciprocal of a decreasing straight
line,

    f(t) = 1 / (a - k*t),    a > 0, k > 0,

so its reciprocal values 1/f(t) = a - k*t fall on a line and the trajectory
blows up at the finite singularity time t_s = a/k. Everything in this module
is a pure function of the parameter pair (a, k); all functions accept scalar
or ndarray time arguments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

# Evaluations require a - k*t >= SINGULARITY_GUARD * a. Keeps values finite
# (at most 1e9/a) while still allowing near-singularity plot ranges.
SINGULARITY_GUARD = 1e-9


@dataclass(frozen=True)
class HyperbolicParams:
    """Parameters of a hyperbolic growth trajectory 1/(a - k*t).

    ``a`` is the reciprocal-line intercept (units 1/value), ``k`` the
    reciprocal-line slope magnitude (units 1/(value*year)). The package's one
    valid-model rule: a, k and the singularity time a/k are finite and
    positive, or ValueError is raised. Fits and CLI flags are checked by it.
    """

    a: float
    k: float

    def __post_init__(self):
        a, k = float(self.a), float(self.k)  # Python floats: a/k overflows to inf, never warns
        if not (0 < a < np.inf and 0 < k < np.inf and a / k < np.inf):
            raise ValueError(f"need finite positive a, k and a/k, got a={self.a}, k={self.k}")

    @property
    def singularity_time(self) -> float:
        """Time a/k at which the trajectory diverges."""
        return self.a / self.k


def reciprocal_value(p: HyperbolicParams, t):
    """Reciprocal of the trajectory: the straight line a - k*t.

    Defined for every t, unlike the trajectory itself.
    """
    with np.errstate(over="ignore"):  # +-inf far out: callers refuse it, never warn
        return p.a - p.k * np.asarray(t, dtype=float)


def past_guard(p: HyperbolicParams, line):
    """Mask of reciprocal-line values ``line = reciprocal_value(p, t)`` past the guard.

    True where a - k*t < SINGULARITY_GUARD*a, i.e. where the trajectory is
    not evaluated. NaN is never flagged, so it propagates as NaN.
    """
    return line < SINGULARITY_GUARD * p.a


def last_guarded_time(p: HyperbolicParams) -> float:
    """First float inside the guard from t_s*(1 - SINGULARITY_GUARD) down; not always the last."""
    end = p.singularity_time * (1.0 - SINGULARITY_GUARD)
    while past_guard(p, reciprocal_value(p, end)):
        end = float(np.nextafter(end, -np.inf))
    return end


def eval_hyperbolic(p: HyperbolicParams, t):
    """Trajectory value 1/(a - k*t); strictly positive and increasing in t.

    Raises DomainError at or past the singularity guard.
    """
    line = reciprocal_value(p, t)
    if past_guard(p, line).any():
        raise DomainError(
            f"time at or beyond the singularity guard "
            f"(singularity at t_s={p.singularity_time:.6g})"
        )
    with np.errstate(over="ignore"):  # inf beside a tiny line: the series check refuses it
        return 1.0 / line


def singularity_time(p: HyperbolicParams) -> float:
    """Finite time a/k at which the trajectory escapes to infinity."""
    return p.singularity_time
