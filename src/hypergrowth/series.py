"""Ordered (year, value) observation series.

Years are continuous real numbers (AD era, fractional years allowed) and
must be strictly increasing; values must be positive and finite. Instances
are immutable: the backing arrays are copied and marked read-only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


def _frozen_array(values) -> np.ndarray:
    arr = np.array(values, dtype=float).reshape(-1)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class TimeSeries:
    """Observations of one quantity over historical time.

    ``unit_label`` is free text, e.g. "billions of 1990 International
    Geary-Khamis dollars". Empty series are allowed (e.g. predictions over
    an empty grid); fitting imposes its own minimum-size requirement.
    """

    years: np.ndarray
    values: np.ndarray
    name: str = ""
    unit_label: str = ""

    def __post_init__(self):
        years = _frozen_array(self.years)
        values = _frozen_array(self.values)
        object.__setattr__(self, "years", years)
        object.__setattr__(self, "values", values)
        if years.shape != values.shape:
            raise ValidationError(
                f"series {self.name!r}: {years.size} years but {values.size} values"
            )
        if not (np.all(np.isfinite(years)) and np.all(np.isfinite(values))):
            raise ValidationError(f"series {self.name!r}: non-finite entries")
        if np.any(values <= 0):
            bad = years[values <= 0][0]
            raise ValidationError(
                f"series {self.name!r}: non-positive value at year {bad:g}"
            )
        if years.size > 1 and np.any(np.diff(years) <= 0):
            bad = years[1:][np.diff(years) <= 0][0]
            raise ValidationError(
                f"series {self.name!r}: years not strictly increasing at year {bad:g}"
            )

    def __len__(self) -> int:
        return self.years.size

    def restrict(self, lo: float | None = None, hi: float | None = None) -> "TimeSeries":
        """Sub-series with years in [lo, hi] (either bound may be open)."""
        mask = np.ones(len(self), dtype=bool)
        if lo is not None:
            mask &= self.years >= lo
        if hi is not None:
            mask &= self.years <= hi
        return TimeSeries(
            years=self.years[mask],
            values=self.values[mask],
            name=self.name,
            unit_label=self.unit_label,
        )
