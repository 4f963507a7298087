"""CSV ingestion and output, and synthetic series generation.

Input schema: UTF-8 CSV with a header row, configurable year/value column
names (defaults ``year`` and ``value``), ``.`` decimal separator. Rows may
arrive in any order; they are sorted on load and checked by the invariant
check ``TimeSeries`` uses, with the offending line named in any error.
Well-formed rows are converted in one numpy call; a row-by-row loop, the
reference, reads everything else and reports malformed cells.
Historical tables with sparse benchmark years (AD 1, 1000, 1500, ...) are
the expected shape of real input.
"""

from __future__ import annotations

import csv
import io
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
    try:
        header = next(csv.reader(fh))
    except StopIteration:
        raise ParseError("empty input: missing header row") from None
    header = [h.strip() for h in header]
    for col in (year_col, value_col):
        if col not in header:
            raise ParseError(f"line 1: missing column {col!r} in header {header}")
    iy, iv = header.index(year_col), header.index(value_col)

    body = fh.read()
    bulk = _bulk_columns(body, iy, iv)
    if bulk is None:
        # newline="" splits lines at CR, LF and CRLF, as parse_csv opens files.
        lines, years, values = _parse_rows(io.StringIO(body, newline=""), len(header), iy, iv)
    else:
        years, values = bulk
        lines = range(2, len(years) + 2)

    order = np.argsort(years, kind="stable")
    years, values = np.take(years, order), np.take(values, order)
    fault = _first_fault(years, values)
    if fault is not None:
        raise ValidationError(f"line {lines[order[fault[0]]]}: {fault[1]}")
    return TimeSeries(years=years, values=values, name=name)


# Characters on which numpy's reader and the row loop disagree: quotes and CR
# shape rows and cells only for csv.reader, and float() refuses the ASCII
# separators \x1c-\x1f around a number where loadtxt strips them.
_ROW_LOOP_CHARS = '"\r\x1c\x1d\x1e\x1f'


def _bulk_columns(body: str, iy: int, iv: int):
    """(years, values) of every row after the header, read in one C call.

    Returns None unless the result is exactly the row loop's: a non-blank
    body free of _ROW_LOOP_CHARS whose every line converts, one row per line
    (loadtxt drops blank lines silently). On such a body loadtxt accepts a
    subset of float()'s spellings, with bitwise equal results; it rejects
    ``1_000`` and non-ASCII digits, which the row loop then handles. Bytes,
    not a StringIO, keep numpy from copying the text at 4 bytes a character.
    """
    if not body or body.isspace() or any(c in body for c in _ROW_LOOP_CHARS):
        return None
    try:
        years, values = np.loadtxt(
            io.BytesIO(body.encode()),
            encoding="utf-8",
            delimiter=",",
            comments=None,
            usecols=(iy, iv),
            ndmin=2,
            unpack=True,
        )
    except ValueError:
        return None
    if len(years) != body.count("\n") + (not body.endswith("\n")):
        return None
    return years, values


def _parse_rows(rows, width, iy, iv):
    """Line numbers, years and values of the non-blank rows, one at a time.

    The reference reader: the only code that reads quoted cells and CR line
    ends, skips blank rows and names a malformed cell or a short row.
    """
    last = max(iy, iv)
    lines, years, values = [], [], []
    for lineno, row in enumerate(csv.reader(rows), start=2):
        if not "".join(row).strip():
            continue
        if len(row) <= last:
            raise ParseError(f"line {lineno}: expected {width} fields, got {len(row)}")
        try:
            years.append(_plain_float(row[iy]))
            values.append(_plain_float(row[iv]))
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
        lines.append(lineno)
    return lines, years, values


def _plain_float(cell: str) -> float:
    """``float(cell)``, refusing the digit grouping ``1_000`` it accepts."""
    if "_" in cell:
        raise ValueError(f"could not convert string to float: {cell!r}")
    return float(cell)


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
