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
import json
from functools import cache
from pathlib import Path

import numpy as np

from .core import HyperbolicParams, eval_hyperbolic
from .errors import ParseError, ValidationError
from .series import TimeSeries, _first_fault


def parse_csv(path, year_col: str = "year", value_col: str = "value") -> TimeSeries:
    """Parse a (year, value) CSV file into a TimeSeries named after the file's stem.

    Raises ValueError if year_col equals value_col, and ParseError (malformed input)
    or ValidationError (rows that violate series invariants) naming the offending line.
    """
    if year_col == value_col:
        raise ValueError(f"year_col and value_col are both {year_col!r}")
    data = Path(path).read_bytes()
    fh = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig", newline="")
    try:
        header = [h.strip() for h in next(csv.reader(fh))]
        body = fh.read()
    except StopIteration:
        raise ParseError("empty input: missing header row") from None
    except csv.Error as exc:
        raise ParseError(f"line 1: {exc}") from None
    except UnicodeDecodeError as exc:  # exc.object: the undecoded bytes up to the read position
        start = fh.buffer.tell() - len(exc.object) + exc.start
        line = data.count(b"\n", 0, start) + 1
        raise ParseError(f"line {line}: not UTF-8 text: {exc.reason}") from None
    del data, fh  # each byte was read and decoded once; the text alone is parsed
    for col in (year_col, value_col):
        if header.count(col) != 1:
            problem = "missing" if col not in header else "repeated"
            raise ParseError(f"line 1: {problem} column {col!r} in header {header}")
    iy, iv = header.index(year_col), header.index(value_col)

    # CRLF rows without lone CRs or quotes (which may hold CRLF) read in bulk.
    if "\r" in body and '"' not in body and body.count("\r") == body.count("\r\n"):
        body = body.replace("\r\n", "\n")
    bulk = _bulk_columns(body, len(header), iy, iv)
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
    return TimeSeries(years=years, values=values, name=Path(path).stem)


# Characters on which numpy's reader and the row loop disagree: quotes and CR
# shape rows and cells only for csv.reader, and float() refuses the ASCII
# separators \x1c-\x1f around a number where loadtxt strips them.
_ROW_LOOP_CHARS = '"\r\x1c\x1d\x1e\x1f'
# Every byte but "," and "\n": deleting them leaves the commas and line ends in order.
_NOT_MARKS = bytes(b for b in range(256) if b not in b",\n")


def _bulk_columns(body: str, width: int, iy: int, iv: int):
    """(years, values) of every row after the header, read in one C call.

    Returns None unless the result is exactly the row loop's: a body free of
    _ROW_LOOP_CHARS whose every line holds the header's ``width`` fields (so
    no line is blank, which loadtxt would drop silently, or long, whose extra
    fields it would ignore) and converts. On such a body loadtxt accepts a
    subset of float()'s spellings, with bitwise equal results; it rejects
    ``1_000`` and non-ASCII digits, which the row loop then handles. Bytes,
    not a StringIO, keep numpy from copying the text at 4 bytes a character.
    """
    if any(c in body for c in _ROW_LOOP_CHARS):
        return None
    text = body.encode()
    marks = text.translate(None, _NOT_MARKS) + b"\n" * (not text.endswith(b"\n"))
    if marks != (b"," * (width - 1) + b"\n") * marks.count(b"\n"):
        return None
    try:
        return np.loadtxt(
            io.BytesIO(text),
            encoding="utf-8",
            delimiter=",",
            comments=None,
            usecols=(iy, iv),
            ndmin=2,
            unpack=True,
        )
    except ValueError:
        return None


def _parse_rows(rows, width, iy, iv):
    """Line numbers, years and values of the non-blank rows, one at a time.

    The reference reader: the only code that reads quoted cells and CR line
    ends, skips blank rows and names a malformed cell, a short row or a row
    with a non-blank field beyond the header's ``width``.
    """
    last = max(iy, iv)
    lines, years, values = [], [], []
    reader = csv.reader(rows)
    try:
        for lineno, row in enumerate(reader, start=2):
            if not "".join(row).strip():
                continue
            if len(row) <= last or "".join(row[width:]).strip():
                raise ParseError(f"line {lineno}: expected {width} fields, got {len(row)}")
            try:
                years.append(_plain_float(row[iy]))
                values.append(_plain_float(row[iv]))
            except ValueError as exc:
                raise ParseError(f"line {lineno}: {exc}") from None
            lines.append(lineno)
    except csv.Error as exc:  # such as a field over csv's size limit
        raise ParseError(f"line {reader.line_num + 1}: {exc}") from None
    return lines, years, values


def _plain_float(cell: str) -> float:
    """``float(cell)``, refusing the digit grouping ``1_000`` it accepts."""
    if "_" in cell:
        raise ValueError(f"could not convert string to float: {cell!r}")
    return float(cell)


def write_csv(
    series: TimeSeries,
    path,
    year_col: str = "year",
    value_col: str = "value",
) -> None:
    """Write a TimeSeries as a CSV file, 12 significant digits per number."""
    write_columns(path, [year_col, value_col], [series.years, series.values])


def write_columns(path, header: list[str], columns) -> None:
    """Write equal-length numeric columns as a CSV file.

    Every number is written as format(v, ".12g"): 12 significant digits,
    far beyond the precision of any historical table. Rows end in a bare
    newline. Columns of unequal lengths raise ValueError before the file is opened.
    _format_rows lays the rows out as bytes in blocks of _CHUNK_ROWS (8,192), whose
    temporaries stay in cache and are reused rather than faulted in again.
    """
    columns = [np.asarray(c, dtype=float) for c in columns]
    lengths = sorted({len(c) for c in columns})
    if len(lengths) > 1:
        raise ValueError(f"columns of unequal lengths {lengths}")
    head = io.StringIO()  # only the header can need quoting
    csv.writer(head, lineterminator="\n").writerow(header)
    with open(path, "wb") as fh:
        fh.write(head.getvalue().encode())
        fh.writelines(_format_rows(np.column_stack([c[i : i + _CHUNK_ROWS] for c in columns]))
                      for i in range(0, max(lengths, default=0), _CHUNK_ROWS))


# Twelve significant digits of |v| are the integer rint(|v| * 10**(11 - e)),
# e its decimal exponent. For |11 - e| <= 22 the power of ten is exact, so the
# scaled value (below 10**12 < 2**40) carries one rounding error of at most
# 2**-14, and rint gives format()'s correctly rounded digits unless the scaled
# value lies within _TIE_MARGIN of a half. Such cells, zeros, non-finite
# values and exponents outside [-11, 33] (subnormals included) are left to
# format().
_POW10 = np.array([10**k for k in range(23)], dtype=float)
_TIE_MARGIN = 1e-3
_CHUNK_ROWS = 1 << 13
_LEADS = np.array([b"0.000", b"0.00", b"0.0", b"0."]).view(np.uint8).reshape(4, 5)  # e = -4..-1
# _format_json's half-widths 5**s, the powers of ten it tries, and its separator.
_POW5 = np.array([5**k for k in range(23)], dtype=np.int64)
_STEPS = np.split(10 ** np.arange(1, 18, dtype=np.int64), [1, 2])
_JSON_SEP = np.frombuffer(b",\n    ", np.uint8)


def _scaled(a, e):
    """``a * 10**(11 - e)`` with one rounding, for e in [-11, 33]."""
    k = np.clip(11 - e, -22, 22)
    return a * _POW10[np.maximum(k, 0)] / _POW10[np.maximum(-k, 0)]


@cache
def _digit_words():
    """The four-digit ASCII groups "0000".."9999" as uint32 words."""
    digits = np.indices((10,) * 4, np.uint8).reshape(4, -1).T + 48
    return digits.copy().view(np.uint32).ravel()  # the copy is C-ordered


def _format_rows(x) -> bytes:
    """CSV bytes of a (rows, columns) float array, each cell format(v, ".12g")."""
    ok = np.isfinite(x) & (x != 0)
    a = np.where(ok, np.abs(x), 1.0)
    e = np.floor(np.log10(a)).astype(np.intp)
    s = _scaled(a, e)
    off = (s >= 1e12).astype(np.intp) - (s < 1e11)  # log10 may miss by one
    if off.any():
        e += off
        s = _scaled(a, e)
    m = np.rint(s)
    ok &= (np.abs(s - m) < 0.5 - _TIE_MARGIN) & (e >= -11) & (e <= 33)
    carry = m >= 1e12  # rounded up to 10**(e + 1)
    e += carry
    m = np.where(ok & ~carry, m, 1e11).astype(np.int64)
    seps = np.array([[44]] * (x.shape[1] - 1) + [[10]], np.uint8)  # "," or "\n"
    return _lay_out(x, ok, m, e, 12, 12, False, seps, lambda v: format(v, ".12g"))


def _split(v):
    """Veltkamp's split: v == hi + lo exactly, each with at most 26 significant bits."""
    c = v * 134217729.0  # 2**27 + 1
    hi = c - (c - v)
    return hi, v - hi


def _format_json(column) -> bytes:
    """``json.dumps(column.tolist(), separators=(",\\n    ", ": "))[1:-1]``, encoded.

    repr(v)'s digits are the multiple of 10**j nearest to X = |v| * 10**s,
    for the largest j with one in v's rounding interval (scaled alike; its
    ends count for an even mantissa). For s = 16 - floor(log10|v|) in
    [0, 22], Dekker's product gives X in [1e16, 1e17) exactly, as the
    integer N plus r in [-1/2, 1/2]. In units of spacing(|v|) * 2**(s - 1),
    or 1/4 if coarser, distances and the half-width (5**s of the former) are
    integers. No carry into a new decade: 10**(e + 1) is never inside, as
    its float lies at or above it. json.dumps(v) writes zeros, non-finite
    values, powers of two (lopsided intervals), other exponents and exact ties.
    """
    x = np.asarray(column, dtype=float).ravel()
    a = np.abs(x)
    ok = np.isfinite(a) & (a.view(np.uint64) & np.uint64(2**52 - 1) != 0)
    a = np.where(ok, a, 1.5)
    e = np.floor(np.log10(a)).astype(np.intp)
    hi = a * _POW10[np.clip(16 - e, 0, 22)]
    e += (hi >= 1e17).astype(np.intp) - (hi < 1e16)  # log10 may miss by one
    ok &= (e >= -6) & (e <= 16)
    a, s = np.where(ok, a, 1.5), np.where(ok, 16 - e, 16)
    hi = a * _POW10[s]
    (ah, al), (ph, pl) = _split(a), _split(_POW10[s])
    lo = ((ah * ph - hi) + ah * pl + al * ph) + al * pl  # X = hi + lo
    r = lo - np.rint(lo)
    big = hi.astype(np.int64) + (lo - r).astype(np.int64)  # N
    ok &= big >= 10**16  # X may round up to 1e16 from below
    k = 54 - np.frexp(a)[1] - s  # spacing(|v|) * 2**(s - 1) == 2**-k
    units = np.left_shift(1, np.maximum(k, 2))  # per 1
    # Distances under limit are inside: the half-width, plus one for an even mantissa.
    limit = (_POW5[s] << (np.maximum(k, 2) - k)) + ((a.view(np.uint64) & np.uint64(1)) == 0)
    near = (big, (r * units).astype(np.int64), units, limit)
    delta, tie = np.zeros_like(big), np.abs(r) == 0.5  # j = 0: N, or a tie with N +- 1
    live = np.flatnonzero(ok)  # cells with a multiple of 10**(j - 1) inside
    for steps in _STEPS:  # about half the cells need all 17 digits, and few under 16
        b, ru, un, lim = (v[live, None] for v in near)
        rem = b - b // steps * steps  # numpy divides faster than it takes remainders
        d = rem - steps * ((rem > steps // 2) | ((rem == steps // 2) & (ru > 0)))  # N - nearest
        count = (np.abs(np.clip(d, -16, 16) * un + ru) < lim).sum(axis=1)  # a prefix is inside
        hit = (np.flatnonzero(count), count[count > 0] - 1)
        delta[live[hit[0]]], tie[live[hit[0]]] = d[hit], ((rem == steps // 2) & (ru == 0))[hit]
        live = live[count == steps.size]
    ok &= ~tie
    m = np.where(ok, big - delta, 10**16)
    cells = _lay_out(x, ok, m, e, 17, 16, True, _JSON_SEP, json.dumps)
    return cells[: -_JSON_SEP.size]  # no separator after the last cell


def json_table(table: dict):
    """``json.dumps(table, indent=2, sort_keys=True)`` plus a newline, as UTF-8 bytes.

    Yields it in blocks of at most _CHUNK_ROWS cells, one held at a time (see write_columns).
    """
    for i, key in enumerate(sorted(table)):
        yield (("," if i else "{") + f"\n  {json.dumps(key)}: [").encode()
        column = np.asarray(table[key], dtype=float)
        for start in range(0, column.size, _CHUNK_ROWS):
            yield b",\n    " if start else b"\n    "
            yield _format_json(column[start : start + _CHUNK_ROWS])
        yield b"\n  ]" if column.size else b"]"
    yield b"\n}\n"


def _lay_out(x, ok, m, e, width, fixed_end, point_zero, seps, fallback) -> bytes:
    """Text of a float array, row by row, each cell followed by its separator.

    A cell is written from m, its first ``width`` digits, and e, its exponent:
    fixed for -4 <= e < fixed_end (".0" after integers if point_zero), else
    d.ddde±dd, into a slot, NUL where unused: the sign, the "0.000" of e < 0,
    digit j at 6 + 2j and a point at 7 + 2j, "e±dd", the separator.
    fallback(v) writes cells not ok."""
    words = _digit_words()
    groups = -(-width // 4)
    q = [0] + [m // 10 ** (4 * g) for g in range(groups - 1, -1, -1)]  # no slow %
    quads = np.take(words, np.stack([b - a * 10**4 for a, b in zip(q, q[1:])], axis=-1))
    digits = quads.view(np.uint8)[..., 4 * groups - width :]
    last = width - 1 - np.argmax(digits[..., ::-1] != 48, axis=-1)  # last nonzero digit
    expo = (e < -4) | (e >= fixed_end)
    point = np.where(expo, 0, e)  # index of the last integer digit
    end = np.maximum(point + (point_zero & ~expo), last)  # index of the last digit shown
    tail = 6 + 2 * width  # "e±dd"
    slot = tail + 4 + seps.shape[-1]
    out = np.zeros(x.shape + (slot,), np.uint8)
    out[..., 0] = (x < 0) * np.uint8(45)
    keep = np.tril(np.full((4 * groups,) * 2, 255, np.uint8)).view(np.uint32)  # row k: k + 1 bytes
    quads &= np.take(keep, end + 4 * groups - width, axis=0)  # NUL the digits not shown
    out[..., 6:tail:2] = digits
    out[..., tail + 4 :] = seps
    cells = out.reshape(-1, slot)
    dot = np.flatnonzero((point >= 0) & (end > point))
    cells[dot, 7 + 2 * point.ravel()[dot]] = 46
    lead = ~expo & (e < 0)  # "0." and up to three zeros before the digits
    cells[lead.ravel(), 1:6] = np.take(_LEADS, e[lead] + 4, axis=0)
    exps = np.take(words, np.abs(e[expo])).view(np.uint8).reshape(-1, 4)  # "00dd"
    exps[:, 0], exps[:, 1] = 101, np.where(e[expo] < 0, 45, 43)  # "e-dd", "e+dd"
    cells[expo.ravel(), tail : tail + 4] = exps
    cells[~ok.ravel(), : tail + 4] = np.array(
        [fallback(v) for v in x[~ok].tolist()], dtype=f"S{tail + 4}"
    ).view(np.uint8).reshape(-1, tail + 4)
    return out.tobytes().translate(None, b"\0")


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
    values = eval_hyperbolic(params, grid)
    if noise_sigma > 0:
        rng = np.random.default_rng(seed)
        with np.errstate(over="ignore"):  # the series rejects the inf or 0
            values = values * np.exp(rng.normal(0.0, noise_sigma, size=values.shape))
    return TimeSeries(years=grid, values=values, name=name)
