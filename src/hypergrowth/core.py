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
    reciprocal-line slope magnitude (units 1/(value*year)). Both must be
    positive, which makes the singularity time a/k finite and positive.
    """

    a: float
    k: float

    def __post_init__(self):
        if not (np.isfinite(self.a) and np.isfinite(self.k)):
            raise ValueError(f"parameters must be finite, got a={self.a}, k={self.k}")
        if self.a <= 0 or self.k <= 0:
            raise ValueError(f"parameters must be positive, got a={self.a}, k={self.k}")

    @property
    def singularity_time(self) -> float:
        """Time a/k at which the trajectory diverges."""
        return self.a / self.k


def reciprocal_value(p: HyperbolicParams, t):
    """Reciprocal of the trajectory: the straight line a - k*t.

    Defined for every t, unlike the trajectory itself.
    """
    return p.a - p.k * np.asarray(t, dtype=float)


def past_guard(p: HyperbolicParams, t):
    """Mask of times at or past the singularity guard.

    True where a - k*t < SINGULARITY_GUARD*a, i.e. where the trajectory is
    not evaluated. NaN times are never flagged, so they propagate as NaN.
    """
    return reciprocal_value(p, t) < SINGULARITY_GUARD * p.a


def last_guarded_time(p: HyperbolicParams) -> float:
    """Latest representable time still inside the singularity guard."""
    end = p.singularity_time * (1.0 - SINGULARITY_GUARD)
    while past_guard(p, end):
        end = float(np.nextafter(end, -np.inf))
    return end


def eval_hyperbolic(p: HyperbolicParams, t):
    """Trajectory value 1/(a - k*t); strictly positive and increasing in t.

    Raises DomainError at or past the singularity guard.
    """
    if np.any(past_guard(p, t)):
        raise DomainError(
            f"time at or beyond the singularity guard "
            f"(singularity at t_s={p.singularity_time:.6g})"
        )
    return 1.0 / reciprocal_value(p, t)


def singularity_time(p: HyperbolicParams) -> float:
    """Finite time a/k at which the trajectory escapes to infinity."""
    return p.singularity_time
