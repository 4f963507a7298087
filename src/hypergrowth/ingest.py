"""CSV ingestion and output, and synthetic series generation.

Input schema: UTF-8 CSV with a header row, configurable year/value column
names (defaults ``year`` and ``value``), ``.`` decimal separator. Rows may
arrive in any order; they are sorted on load and checked by the invariant
check ``TimeSeries`` uses, with the offending line named in any error.
Historical tables with sparse benchmark years (AD 1, 1000, 1500, ...) are
the expected shape of real input.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from .core import HyperbolicParams, eval_hyperbolic
from .errors import ParseError, ValidationError
from .series import TimeSeries, _first_fault

# Numeric output formatting: up to 12 significant digits, enough to
# round-trip far beyond the precision of any historical table.
FLOAT_FORMAT = ".12g"


def parse_csv(
    source,
    year_col: str = "year",
    value_col: str = "value",
    name: str | None = None,
) -> TimeSeries:
    """Parse a (year, value) CSV file or text stream into a TimeSeries.

    Raises ParseError for malformed input and ValidationError for rows that
    violate series invariants; both name the offending line.
    """
    if isinstance(source, (str, Path)):
        path = Path(source)
        if name is None:
            name = path.stem
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            return _parse_stream(fh, year_col, value_col, name)
    return _parse_stream(source, year_col, value_col, name or "")


def _parse_stream(fh, year_col, value_col, name) -> TimeSeries:
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
    last = max(iy, iv)

    lines, years, values = [], [], []
    for lineno, row in enumerate(reader, start=2):
        if not "".join(row).strip():
            continue
        if len(row) <= last:
            raise ParseError(f"line {lineno}: expected {len(header)} fields, got {len(row)}")
        try:
            years.append(float(row[iy]))
            values.append(float(row[iv]))
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
        lines.append(lineno)

    order = np.argsort(years, kind="stable")
    years, values = np.take(years, order), np.take(values, order)
    fault = _first_fault(years, values)
    if fault is not None:
        raise ValidationError(f"line {lines[order[fault[0]]]}: {fault[1]}")
    return TimeSeries(years=years, values=values, name=name)


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
    return TimeSeries(years=grid, values=values, name=name)
