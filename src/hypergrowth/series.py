"""Ordered (year, value) observation series.

Years are continuous real numbers (AD era, fractional years allowed) and
must be finite and strictly increasing; values must be positive and finite.
Instances are immutable: the backing arrays are copied and marked read-only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


def _frozen_array(values) -> np.ndarray:
    arr = np.array(values, dtype=float).reshape(-1)
    arr.flags.writeable = False
    return arr


def _first_fault(
    years: np.ndarray, values: np.ndarray, x_name: str = "year", positive: bool = True
) -> tuple[int, str] | None:
    """Index and message of the first row that breaks a series or curve invariant.

    Checks run in a fixed order: equal lengths (reported at the first row one
    array lacks), finite abscissas (``x_name``, years by default), strictly
    increasing abscissas, then finite values, positive too if ``positive``;
    within each, the first offending row wins. Neighbours are compared
    rather than subtracted, so no check can overflow.
    """
    if years.size != values.size:
        return min(years.size, values.size), f"{years.size} {x_name}s but {values.size} values"
    bad = ~np.isfinite(years)
    if bad.any():
        i = int(bad.argmax())
        return i, f"non-finite {x_name} {years[i]:g}"
    bad = years[1:] <= years[:-1]
    if bad.any():
        i = int(bad.argmax()) + 1
        word = "duplicate" if years[i] == years[i - 1] else "decreasing"
        return i, f"{word} {x_name} {years[i]:g}"
    bad = ~np.isfinite(values) | ((values <= 0) & positive)
    if bad.any():
        i = int(bad.argmax())
        word = "non-positive" if np.isfinite(values[i]) else "non-finite"
        return i, f"{word} value {values[i]:g} at {x_name} {years[i]:g}"
    return None


def _exact(x: float) -> str:
    """``x`` as ``:g`` prints it when that reads back as ``x``, else with ``repr``'s digits."""
    return format(x, "g") if float(format(x, "g")) == x else repr(float(x))


def _in_normal_range(x):
    """True elementwise where |x| is finite and at least float64's smallest normal: not 0, NaN."""
    mag = np.abs(x)
    return (np.finfo(float).tiny <= mag) & (mag < np.inf)


@dataclass(frozen=True)
class TimeSeries:
    """Observations of one quantity over historical time.

    Empty series are allowed (e.g. predictions over an empty grid); fitting
    imposes its own minimum-size requirement.
    """

    years: np.ndarray
    values: np.ndarray
    name: str = ""

    def __post_init__(self):
        years = _frozen_array(self.years)
        values = _frozen_array(self.values)
        object.__setattr__(self, "years", years)
        object.__setattr__(self, "values", values)
        fault = _first_fault(years, values)
        if fault is not None:
            raise ValidationError(f"series {self.name!r}: {fault[1]}")

    def __len__(self) -> int:
        return self.years.size

    def restrict(self, lo: float, hi: float) -> "TimeSeries":
        """Sub-series with years in the closed window [lo, hi]; it may be empty."""
        mask = (self.years >= lo) & (self.years <= hi)
        return TimeSeries(years=self.years[mask], values=self.values[mask], name=self.name)
