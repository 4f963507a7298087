"""CSV ingestion and output, and synthetic series generation.

Input schema: UTF-8 CSV with a header row, configurable year/value column
names (defaults ``year`` and ``value``), ``.`` decimal separator. Rows may
arrive in any order; they are sorted on load and duplicate years rejected.
Historical tables with sparse benchmark years (AD 1, 1000, 1500, ...) are
the expected shape of real input.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from .core import HyperbolicParams, eval_hyperbolic
from .errors import ParseError, ValidationError
from .series import TimeSeries

# Numeric output formatting: up to 12 significant digits, enough to
# round-trip far beyond the precision of any historical table.
FLOAT_FORMAT = ".12g"


def parse_csv(
    source,
    year_col: str = "year",
    value_col: str = "value",
    name: str | None = None,
    unit_label: str = "",
) -> TimeSeries:
    """Parse a (year, value) CSV file or text stream into a TimeSeries.

    Raises ParseError (with the offending line number) for malformed input
    and ValidationError for rows that violate series invariants.
    """
    if isinstance(source, (str, Path)):
        path = Path(source)
        if name is None:
            name = path.stem
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            return _parse_stream(fh, year_col, value_col, name, unit_label)
    return _parse_stream(source, year_col, value_col, name or "", unit_label)


def _parse_stream(fh, year_col, value_col, name, unit_label) -> TimeSeries:
    reader = csv.reader(fh)
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("empty input: missing header row") from None
    header = [h.strip() for h in header]
    for col in (year_col, value_col):
        if col not in header:
            raise ParseError(f"line 1: missing column {col!r} in header {header}")
    iy, iv = header.index(year_col), header.index(value_col)

    rows: list[tuple[float, float, int]] = []
    for lineno, row in enumerate(reader, start=2):
        if not row or all(cell.strip() == "" for cell in row):
            continue
        if len(row) <= max(iy, iv):
            raise ParseError(f"line {lineno}: expected {len(header)} fields, got {len(row)}")
        try:
            year = float(row[iy])
            value = float(row[iv])
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
        rows.append((year, value, lineno))

    rows.sort(key=lambda r: r[0])
    for (y0, _, _), (y1, _, ln) in zip(rows, rows[1:]):
        if y1 == y0:
            raise ValidationError(f"line {ln}: duplicate year {y1:g}")
    for year, value, lineno in rows:
        if not np.isfinite(value):
            raise ValidationError(f"line {lineno}: non-finite value {value:g} at year {year:g}")
        if value <= 0:
            raise ValidationError(f"line {lineno}: non-positive value {value:g} at year {year:g}")
    return TimeSeries(
        years=[r[0] for r in rows],
        values=[r[1] for r in rows],
        name=name,
        unit_label=unit_label,
    )


def write_csv(
    series: TimeSeries,
    dest,
    year_col: str = "year",
    value_col: str = "value",
) -> None:
    """Write a TimeSeries as CSV, 12 significant digits per number."""
    write_columns(dest, [year_col, value_col], [series.years, series.values])


def write_columns(dest, header: list[str], columns) -> None:
    """Write parallel numeric columns as CSV to a path or text stream.

    Every number is formatted with FLOAT_FORMAT; rows end in a bare newline.
    Only the header can need quoting, so rows go through one %-template.
    """
    if isinstance(dest, (str, Path)):
        with open(dest, "w", encoding="utf-8", newline="") as fh:
            write_columns(fh, header, columns)
        return
    csv.writer(dest, lineterminator="\n").writerow(header)
    template = ",".join(["%" + FLOAT_FORMAT] * len(columns)) + "\n"
    rows = zip(*(np.asarray(c, dtype=float).tolist() for c in columns))
    dest.writelines(map(template.__mod__, rows))


def synthesize(
    params: HyperbolicParams,
    grid,
    noise_sigma: float = 0.0,
    seed: int | None = None,
    name: str = "synthetic",
    unit_label: str = "",
) -> TimeSeries:
    """Sample a hyperbolic trajectory on ``grid``, optionally with noise.

    Noise is multiplicative log-normal: each value is scaled by exp(eps)
    with eps ~ Normal(0, noise_sigma**2) drawn from a generator seeded with
    ``seed``, so output is deterministic per seed. noise_sigma=0 draws
    nothing and ignores the seed.
    """
    if noise_sigma < 0:
        raise ValidationError(f"noise_sigma must be non-negative, got {noise_sigma}")
    grid = np.asarray(grid, dtype=float)
    values = eval_hyperbolic(params, grid)
    values = np.atleast_1d(np.asarray(values, dtype=float))
    if noise_sigma > 0:
        rng = np.random.default_rng(seed)
        values = values * np.exp(rng.normal(0.0, noise_sigma, size=values.shape))
    return TimeSeries(years=grid, values=values, name=name, unit_label=unit_label)
