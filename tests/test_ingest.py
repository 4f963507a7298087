import csv
import io
import json
import math
import re
import tempfile
import warnings
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypergrowth import (
    DomainError,
    HyperbolicParams,
    ParseError,
    TimeSeries,
    ValidationError,
    fit_hyperbolic,
    gradient_curve,
    growth_rate_curve,
    ingest,
    make_ratio,
    parse_csv,
    synthesize,
    write_csv,
)
from hypergrowth.core import last_guarded_time
from hypergrowth.ingest import json_table
from hypergrowth.series import _exact, _in_normal_range

from conftest import F_PARAMS


def _parse_text(directory, text, stem="series", **columns):
    """parse_csv of ``directory/<stem>.csv`` holding text's UTF-8 bytes, CR and CRLF as written."""
    path = Path(directory) / f"{stem}.csv"
    path.write_bytes(text.encode())
    return parse_csv(path, **columns)


class TestParseCsv:
    def test_basic(self, tmp_path):
        series = _parse_text(tmp_path, "year,gdp\n1,0.1027\n1000,0.1167\n", value_col="gdp")
        assert len(series) == 2
        np.testing.assert_allclose(series.years, [1.0, 1000.0])
        np.testing.assert_allclose(series.values, [0.1027, 0.1167])

    def test_rows_sorted_on_load(self, tmp_path):
        series = _parse_text(tmp_path, "year,value\n1500,2\n1,1\n1000,1.5\n")
        np.testing.assert_allclose(series.years, [1.0, 1000.0, 1500.0])

    def test_negative_value_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="non-positive"):
            _parse_text(tmp_path, "year,value\n1,0.5\n2,-1\n")

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_value_named(self, tmp_path, cell):
        with pytest.raises(ValidationError, match=f"line 3: non-finite value {cell}"):
            _parse_text(tmp_path, f"year,value\n1,0.5\n2,{cell}\n")

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_year_named(self, tmp_path, cell):
        with pytest.raises(ValidationError, match=f"^line 3: non-finite year {cell}$"):
            _parse_text(tmp_path, f"year,value\n1,0.5\n{cell},2\n")

    def test_byte_order_mark_accepted(self, tmp_path):
        path = tmp_path / "export.csv"
        path.write_bytes(b"\xef\xbb\xbfyear,value\n1,0.5\n2,0.75\n")
        series = parse_csv(path)
        np.testing.assert_allclose(series.values, [0.5, 0.75])

    def test_duplicate_year_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="duplicate year 1000"):
            _parse_text(tmp_path, "year,value\n1,1\n1000,2\n1000,3\n")

    def test_later_duplicate_line_named(self, tmp_path):
        # Equal years keep their file order when sorted (an unstable sort
        # swaps these two), so the later line of the pair is named.
        with pytest.raises(ValidationError, match="^line 5: duplicate year 1$"):
            _parse_text(tmp_path, "year,value\n3,1\n2,1\n1,1\n1,1\n")

    def test_malformed_cell_names_line(self, tmp_path):
        with pytest.raises(ParseError, match="line 3"):
            _parse_text(tmp_path, "year,value\n1,1\n2,oops\n")

    def test_short_row_names_line(self, tmp_path):
        with pytest.raises(ParseError, match="line 2"):
            _parse_text(tmp_path, "year,value\n1\n")

    def test_non_blank_field_beyond_header_refused(self, tmp_path):
        # An unquoted thousands separator, as spreadsheet exports write: not the value 1.
        with pytest.raises(ParseError) as info:
            _parse_text(tmp_path, "year,value\n1700,603\n1820,1,041\n")
        assert str(info.value) == "line 3: expected 2 fields, got 3"

    def test_repeated_column_rejected(self, tmp_path):
        with pytest.raises(ParseError) as info:
            _parse_text(tmp_path, "year,value,value\n1,1,5\n2,2,6\n")
        message = "line 1: repeated column 'value' in header ['year', 'value', 'value']"
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "text, cell", [("year,value\n1_000,2\n", "1_000"), ("year,value\n1,2_5\n", "2_5")]
    )
    def test_digit_grouping_rejected(self, tmp_path, text, cell):
        with pytest.raises(ParseError) as info:
            _parse_text(tmp_path, text)
        assert str(info.value) == f"line 2: could not convert string to float: {cell!r}"

    @pytest.mark.parametrize("cell", ["\x1c7", "7\x1f"])
    def test_ascii_separator_padding_rejected(self, tmp_path, cell):
        # float() refuses \x1c-\x1f around a number, where numpy's reader strips them.
        with pytest.raises(ParseError) as info:
            _parse_text(tmp_path, f"year,value\n1,1\n{cell},2\n")
        assert str(info.value) == f"line 3: could not convert string to float: {cell!r}"

    def test_line_named_after_blank_row(self, tmp_path):
        with pytest.raises(ValidationError, match="^line 4: duplicate year 1$"):
            _parse_text(tmp_path, "year,value\n1,1\n\n1,2\n")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "data, years, values, bulk",
        [
            (b"year,value\r\n1,2\r\n3,4\r\n", [1, 3], [2, 4], True),
            (b"year,value\r1,2\r3,4\r", [1, 3], [2, 4], False),
            (b'"year","value"\n3,4\n1,2\n', [1, 3], [2, 4], True),
            (b"year,value", [], [], False),
            (b"year,value\n\n\n", [], [], False),
            (b"year,value\n1,2\n\n3,4\n", [1, 3], [2, 4], False),
            (b"year,value\n1,2", [1], [2], True),
            (b"value,year\n2,1\n4,3\n", [1, 3], [2, 4], True),
            (b'note,year,value\n"a,5,6,b",1,2\n', [1], [2], False),
            (b"year,value\n1,2,\n3,4, \n", [1, 3], [2, 4], False),
            (b"year,value,note\n1,2\n3,4,a\n", [1, 3], [2, 4], False),
            (b"year,value\r\n1,2\n3,4\r\n", [1, 3], [2, 4], True),
            (b"\xef\xbb\xbfyear,value\r\n1,2\r\n3,4\r\n", [1, 3], [2, 4], True),
            (b'year,value\r\n1,"2"\r\n3,4\r\n', [1, 3], [2, 4], False),
            (b"year,value\r\n1,2\r\n3,4\r", [1, 3], [2, 4], False),
            (b"year,value\r\n1,2\r\r\n3,4\r\n", [1, 3], [2, 4], False),
            (b"year,value,note\r\n1,2,\x1c5\r\n3,4,6\r\n", [1, 3], [2, 4], False),
        ],
        ids=[
            "crlf",
            "lone_cr",
            "quoted_header",
            "header_only",
            "header_then_blank_lines",
            "blank_row_inside",
            "no_trailing_newline",
            "value_before_year",
            "quoted_commas_before_year",
            "trailing_blank_fields",
            "row_shorter_than_header",
            "mixed_lf_crlf",
            "bom_crlf",
            "crlf_quoted_cell",
            "crlf_then_final_lone_cr",
            "cr_cr_lf",
            "crlf_separator_beside_number",
        ],
    )
    def test_file_layouts(self, tmp_path, data, years, values, bulk):
        path = tmp_path / "in.csv"
        path.write_bytes(data)
        with mock.patch.object(ingest, "_parse_rows", wraps=ingest._parse_rows) as row_loop:
            series = parse_csv(path)
        assert series.years.tolist() == years
        assert series.values.tolist() == values
        assert row_loop.called is not bulk

    def test_csv_error_names_line(self, tmp_path):
        path = tmp_path / "long.csv"
        path.write_text('year,value,note\n1,2,a\n3,4,"' + "x" * 200_000 + '"\n')
        with pytest.raises(ParseError, match=r"^line 3: field larger than field limit"):
            parse_csv(path)

    @pytest.mark.parametrize("rows", [0, 2000], ids=["first-chunk", "later-chunk"])
    def test_non_utf8_file_names_line(self, tmp_path, rows):
        # A Latin-1 spreadsheet export; the file is decoded in chunks, and
        # the line counts from the start of the file, not of the chunk.
        path = tmp_path / "latin1.csv"
        body = "".join(f"{t},{t + 1}\n" for t in range(rows))
        path.write_bytes(f"year,value,note\n{body}".encode() + "1,2,caf\xe9\n".encode("latin-1"))
        with pytest.raises(ParseError, match=rf"^line {rows + 2}: not UTF-8 text: invalid"):
            parse_csv(path)

    def test_non_utf8_line_counts_the_byte_order_mark(self, tmp_path):
        # The decoder drops the 3-byte mark before the offset of the bad byte is taken.
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbfyear,value\n1,2\n3,\xff\n")
        with pytest.raises(ParseError) as info:
            parse_csv(path)
        assert str(info.value) == "line 3: not UTF-8 text: invalid start byte"

    def test_quoted_crlf_cell_kept_in_message(self, tmp_path):
        # CRLF inside a quoted cell is cell text: the row loop reports it as is.
        text = 'year,value\r\n1,2\r\n"19\r\n90",3\r\n'
        message = r"^line 3: could not convert string to float: '19\\r\\n90'$"
        with pytest.raises(ParseError, match=message):
            _parse_text(tmp_path, text)

    def test_lone_cr_after_header_ends_the_row(self, tmp_path):
        # A file's rows end at CR, LF or CRLF, so the header may end in a lone CR.
        series = _parse_text(tmp_path, "year,value\r1,2\n")
        assert (series.years.tolist(), series.values.tolist()) == ([1.0], [2.0])

    def test_header_the_csv_reader_refuses_names_line_1(self, tmp_path):
        with pytest.raises(ParseError, match=r"^line 1: field larger than field limit"):
            _parse_text(tmp_path, "year,value," + "x" * 200_000 + "\n1,2\n")

    def test_missing_column(self, tmp_path):
        with pytest.raises(ParseError, match="missing column"):
            _parse_text(tmp_path, "t,y\n1,1\n")

    def test_empty_input(self, tmp_path):
        with pytest.raises(ParseError, match="header"):
            _parse_text(tmp_path, "")

    def test_one_column_for_year_and_value_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="year_col and value_col are both 'year'"):
            _parse_text(tmp_path, "year,value\n1,1\n2,2\n3,3\n", value_col="year")

    def test_custom_columns_and_blank_lines(self, tmp_path):
        text = "when,how_much\n\n1820,1.2\n1870,1.9\n"
        series = _parse_text(tmp_path, text, year_col="when", value_col="how_much")
        assert len(series) == 2

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "series.csv"
        original = TimeSeries(
            years=[1.0, 1000.0, 1820.5], values=[0.1027, 0.1167, 0.6945], name="gdp"
        )
        write_csv(original, path)
        back = parse_csv(path)
        np.testing.assert_allclose(back.years, original.years, rtol=1e-11)
        np.testing.assert_allclose(back.values, original.values, rtol=1e-11)
        assert back.name == "series"  # from the file stem


class TestSerializationRoundTrip:
    def test_lossless_to_output_precision(self, tmp_path):
        rng = np.random.default_rng(2)
        years = np.sort(rng.uniform(0, 2000, 25))
        values = 10.0 ** rng.uniform(-3, 3, 25)
        write_csv(TimeSeries(years=years, values=values), tmp_path / "series.csv")
        back = parse_csv(tmp_path / "series.csv")
        np.testing.assert_allclose(back.years, years, rtol=1e-11)
        np.testing.assert_allclose(back.values, values, rtol=1e-11)

    def test_reserialization_is_stable(self, tmp_path):
        series = TimeSeries(years=[1.0, 2.0, 3.0], values=[1 / 3, 2 / 3, 0.9999999999999])
        write_csv(series, tmp_path / "once.csv")
        write_csv(parse_csv(tmp_path / "once.csv"), tmp_path / "twice.csv")
        assert (tmp_path / "twice.csv").read_bytes() == (tmp_path / "once.csv").read_bytes()

    def test_unequal_columns_rejected_before_writing(self, tmp_path):
        path = tmp_path / "t.csv"
        with pytest.raises(ValueError, match=r"columns of unequal lengths \[2, 3\]"):
            ingest.write_columns(path, ["x", "y"], [[1.0, 2.0, 3.0], [1.0, 2.0]])
        assert not path.exists()


class TestSynthesize:
    def test_noiseless_round_trip(self):
        grid = np.arange(0.0, 2001.0, 100.0)
        series = synthesize(F_PARAMS, grid)
        fit = fit_hyperbolic(series)
        assert fit.params.a == pytest.approx(F_PARAMS.a, rel=1e-10)
        assert fit.params.k == pytest.approx(F_PARAMS.k, rel=1e-10)

    def test_seeded_noise_is_deterministic(self):
        grid = np.linspace(0.0, 2000.0, 30)
        one = synthesize(F_PARAMS, grid, noise_sigma=0.01, seed=42)
        two = synthesize(F_PARAMS, grid, noise_sigma=0.01, seed=42)
        np.testing.assert_array_equal(one.values, two.values)
        other = synthesize(F_PARAMS, grid, noise_sigma=0.01, seed=43)
        assert not np.array_equal(one.values, other.values)

    def test_noiseless_ignores_seed(self):
        grid = np.linspace(0.0, 2000.0, 10)
        one = synthesize(F_PARAMS, grid, noise_sigma=0.0, seed=1)
        two = synthesize(F_PARAMS, grid, noise_sigma=0.0, seed=2)
        np.testing.assert_array_equal(one.values, two.values)

    def test_grid_past_singularity(self):
        with pytest.raises(DomainError):
            synthesize(F_PARAMS, [2050.0])

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValidationError):
            synthesize(F_PARAMS, [0.0, 1.0], noise_sigma=-0.1)


class TestTimeSeriesInvariants:
    def test_years_must_increase(self):
        with pytest.raises(ValidationError):
            TimeSeries(years=[2.0, 1.0], values=[1.0, 1.0])

    def test_values_must_be_positive(self):
        with pytest.raises(ValidationError):
            TimeSeries(years=[1.0, 2.0], values=[1.0, 0.0])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "years, values, message",
        [
            ([1.0, np.nan], [1.0, 1.0], "non-finite year nan"),
            ([-np.inf, 1.0], [1.0, 1.0], "non-finite year -inf"),
            ([1.0, 2.0, 2.0], [1.0, 1.0, 1.0], "duplicate year 2"),
            ([1.0, 3.0, 2.0], [1.0, 1.0, 1.0], "decreasing year 2"),
            ([1.0, 2.0], [1.0, np.inf], "non-finite value inf at year 2"),
            ([1.0, 2.0], [1.0, -0.0], "non-positive value -0 at year 2"),
            ([1.0, 2.0], [1.0], "2 years but 1 values"),
            # Several faults at once: years before values, earliest row first.
            ([5.0, 4.0, 4.0, np.inf], [-1.0, np.nan, 1.0, 1.0], "non-finite year inf"),
            ([5.0, 4.0, 4.0, 3.0], [-1.0, np.nan, 1.0, 1.0], "decreasing year 4"),
            ([3.0, 4.0, 5.0], [1.0, np.nan, -1.0], "non-finite value nan at year 4"),
        ],
    )
    def test_fault_messages(self, years, values, message):
        with pytest.raises(ValidationError) as info:
            TimeSeries(years=years, values=values, name="x")
        assert str(info.value) == f"series 'x': {message}"

    def test_immutable_arrays(self):
        series = TimeSeries(years=[1.0, 2.0], values=[1.0, 2.0])
        with pytest.raises(ValueError):
            series.years[0] = 5.0

    def test_restrict_window(self):
        series = TimeSeries(years=[1.0, 1000.0, 1500.0, 1960.0], values=[1, 2, 3, 4])
        out = series.restrict(500.0, 1500.0)
        np.testing.assert_allclose(out.years, [1000.0, 1500.0])


TINY = np.finfo(float).tiny
NORMAL_RANGE_EDGES = [
    (TINY, True),
    (-TINY, True),
    (np.finfo(float).max, True),
    (float(np.nextafter(TINY, 0.0)), False),
    (0.0, False),
    (-0.0, False),
    (math.inf, False),
    (-math.inf, False),
    (math.nan, False),
]


class TestNormalRange:
    """The one float64 range rule behind every overflow and underflow refusal."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("x, expected", NORMAL_RANGE_EDGES)
    def test_python_float_edges(self, x, expected):
        assert bool(_in_normal_range(float(x))) is expected

    @pytest.mark.filterwarnings("error")
    def test_array_matches_scalars(self):
        xs, expected = zip(*NORMAL_RANGE_EDGES)
        out = _in_normal_range(np.array(xs, dtype=float))
        assert out.dtype == bool
        assert out.tolist() == list(expected)


@pytest.mark.parametrize("x, text", [
    (1.0, "1"), (-0.0, "-0"), (1e300, "1e+300"), (1300.0, "1300"), (1300.0000001, "1300.0000001"),
    (0.5000000000000001, "0.5000000000000001"), (np.float64(0.1) + np.float64(0.2),
    "0.30000000000000004"), (-np.inf, "-inf"), (np.nan, "nan"),
])
def test_exact_number_text(x, text):
    """A refused number reads as ``:g`` prints it unless that drops digits that tell it apart."""
    assert _exact(x) == text
    assert float(text) == x or np.isnan(x)


def _reference_parse(fh, year_col, value_col, name):
    """The row-by-row parser that ``parse_csv`` replaced, kept as the oracle.

    Verbatim apart from dropping the ``unit_label`` pass-through, a field
    ``TimeSeries`` no longer has, and from refusing ``1_000``-style digit
    grouping, which ``float()`` accepts and the parser rejects on purpose,
    and a non-blank field beyond the header, such as the ``041`` of an
    unquoted thousands separator in ``1820,1,041``.
    """

    def _no_grouping(cell):
        if "_" in cell:
            raise ValueError(f"could not convert string to float: {cell!r}")
        return float(cell)

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
        if len(row) <= max(iy, iv) or any(cell.strip() for cell in row[len(header):]):
            raise ParseError(f"line {lineno}: expected {len(header)} fields, got {len(row)}")
        try:
            year = _no_grouping(row[iy])
            value = _no_grouping(row[iv])
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
    )


_YEAR_CELLS = st.one_of(
    st.integers(-3, 12).map(str),
    st.floats(-1e4, 1e4, allow_nan=False).map(repr),
    st.sampled_from(["nan", "inf", "-inf", "-0", "0", "-1", " 7 ", "1e3", "1_0"]),
)
_VALUE_CELLS = st.one_of(
    st.floats(1e-300, 1e300).map(repr),
    st.floats(-1e3, 1e3, allow_nan=False).map(str),
    st.sampled_from(["nan", "inf", "-inf", "-0", "0", "2", " 3 ", "1e-3"]),
)
_HEADERS = st.sampled_from(
    [["year", "value"], ["id", " year ", "value ", "note"], ["value", "year"]]
)


def _cell(text: str, quoted: bool) -> str:
    return '"' + text.replace('"', '""') + '"' if quoted or '"' in text or "," in text else text


@st.composite
def _csv_texts(draw):
    """Shuffled rows with blanks, short rows, extra and malformed cells, LF or CRLF.

    At most one row is malformed, so most texts reach the invariant checks.
    """
    header = draw(_HEADERS)
    rows = []
    # Distinct cells still give duplicate years: "7" and " 7 ", "0" and "-0".
    for year in draw(st.lists(_YEAR_CELLS, max_size=8, unique=True)):
        cells = {"year": year, "value": draw(_VALUE_CELLS)}
        row = [cells.get(h.strip(), "a") for h in header]
        rows.append(row + ["", " "] if draw(st.booleans()) else row)  # blank extras are read
    if rows and draw(st.booleans()):
        i = draw(st.integers(0, len(rows) - 1))
        broken = draw(st.sampled_from(["x", "", "1,5", 'a"b', "short", "long"]))
        bad = {"short": rows[i][:1], "long": rows[i] + ["b", ""]}  # the "b" refuses the row
        rows[i] = bad.get(broken, [broken] * len(header))
    lines = [",".join(_cell(c, draw(st.booleans())) for c in r) for r in rows]
    lines += draw(st.lists(st.sampled_from(["", "  ", "\t", " , ", ",,"]), max_size=3))
    lines = [",".join(header)] + draw(st.permutations(lines))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from(["", end]))


def _outcome(parse, *args, **kwargs):
    try:
        return parse(*args, **kwargs)
    except (ParseError, ValidationError) as exc:
        return exc


def _outcomes(text, name):
    """The reference's and parse_csv's series or error; parse_csv reads ``name.csv``."""
    with tempfile.TemporaryDirectory() as scratch:
        got = _outcome(_parse_text, scratch, text, stem=name)
    return _outcome(_reference_parse, io.StringIO(text), "year", "value", name), got


def _assert_same_outcome(expected, got):
    """The same series bitwise, or the same error type and message."""
    if isinstance(expected, TimeSeries):
        assert isinstance(got, TimeSeries), got
        assert got.years.tobytes() == expected.years.tobytes()
        assert got.values.tobytes() == expected.values.tobytes()
        assert got.name == expected.name
    else:
        assert (type(got), str(got)) == (type(expected), str(expected))


def _row_years(text):
    """Year of every non-blank data row by line, for a text that converts."""
    header, *rows = csv.reader(io.StringIO(text))
    iy = [h.strip() for h in header].index("year")
    return {n: float(row[iy]) for n, row in enumerate(rows, start=2) if "".join(row).strip()}


@pytest.mark.filterwarnings("error")
@settings(max_examples=600)
@given(text=_csv_texts(), name=st.sampled_from(["gdp", "ünïcode"]))
def test_parse_matches_row_by_row_reference(text, name):
    """Same series or same error as the reference, wherever every year is finite."""
    expected, got = _outcomes(text, name)
    years = _row_years(text) if isinstance(expected, ValidationError) else {}
    if all(map(math.isfinite, years.values())):
        _assert_same_outcome(expected, got)
        return
    # A non-finite year: the reference reported whatever it met first.
    assert isinstance(got, ValidationError), got
    line = re.fullmatch(r"line (\d+): non-finite year (nan|inf|-inf)", str(got))
    assert line, got
    assert not math.isfinite(years[int(line.group(1))])


_PLAIN_YEARS = st.one_of(
    st.integers(-3000, 3000).map(str),
    st.floats(-1e4, 1e4, allow_nan=False).map(repr),
    st.sampled_from(["-0", " 7 ", "1e3", "+5", ".5", "5."]),
)
# Mostly valid values, so that most texts parse and compare bitwise.
_PLAIN_VALUES = st.one_of(
    st.tuples(
        st.sampled_from([repr, "{:.12g}".format, "{:.17e}".format, "{:.25g}".format]),
        st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    ).map(lambda p: p[0](p[1])),
    st.sampled_from([" 3 ", "1e-3", "+2", ".5", "5.", "1E300", "nan", "-0"]),
)


@st.composite
def _plain_csv_texts(draw):
    """Texts numpy's reader takes whole: an unquoted LF-only body, each row the header's width.

    The header may be quoted or reordered.
    """
    header = draw(_HEADERS)
    quoted = draw(st.booleans())
    lines = [",".join(_cell(h, quoted) for h in header)]
    for _ in range(draw(st.integers(1, 8))):
        cells = {"year": draw(_PLAIN_YEARS), "value": draw(_PLAIN_VALUES)}
        row = [cells.get(h.strip(), "a") for h in header]
        lines.append(",".join(row))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


@pytest.mark.filterwarnings("error")
@settings(max_examples=300)
@given(text=_plain_csv_texts(), name=st.sampled_from(["gdp", "ünïcode"]))
def test_plain_text_skips_row_loop(text, name):
    """Well-formed text is read in bulk, with the reference's series or error."""
    with mock.patch.object(ingest, "_parse_rows", side_effect=AssertionError("row loop ran")):
        expected, got = _outcomes(text, name)
    _assert_same_outcome(expected, got)


@st.composite
def _plain_bodies(draw):
    """Unquoted LF-only texts with no blank row, where at most one row is short or long.

    A long row's extra fields are not blank, as in ``1820,1,041``, so the
    row is refused; only a bulk reader that counts every line's fields
    leaves it to the row loop.
    """
    header = draw(_HEADERS)
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        cells = {"year": draw(_PLAIN_YEARS), "value": draw(_PLAIN_VALUES)}
        rows.append([cells.get(h.strip(), "a") for h in header])
    i = draw(st.integers(0, len(rows) - 1))
    broken = draw(st.sampled_from(["none", "short", "long"]))
    if broken == "short":
        rows[i] = rows[i][: draw(st.integers(1, len(header) - 1))]
    elif broken == "long":
        rows[i] = rows[i] + draw(st.lists(_PLAIN_VALUES, min_size=1, max_size=2))
    lines = [",".join(header)] + [",".join(row) for row in rows]
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


@pytest.mark.filterwarnings("error")
@settings(max_examples=300)
@given(text=_plain_bodies(), name=st.sampled_from(["gdp", "ünïcode"]))
def test_plain_bodies_match_row_by_row_reference(text, name):
    """Bodies the bulk reader may take: the reference's series bitwise, or its error."""
    _assert_same_outcome(*_outcomes(text, name))


def _oracle_rows(columns) -> str:
    """The per-cell reference: format() of every cell, joined by hand."""
    return "".join(",".join(format(v, ".12g") for v in row) + "\n" for row in zip(*columns))


def _assert_writes_oracle(columns):
    """write_columns' rows equal _oracle_rows'; a failure names the first rows that differ.

    Warnings are errors inside the writer only: the hypothesis plugin itself
    warns while reporting a failed example.
    """
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "columns.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ingest.write_columns(path, [f"c{i}" for i in range(len(columns))], columns)
        header, _, rows = path.read_bytes().decode().partition("\n")
    assert header == ",".join(f"c{i}" for i in range(len(columns)))
    want = _oracle_rows(columns)
    if rows != want:
        got_rows, want_rows = rows.splitlines(), want.splitlines()
        diff = [(i, g, w) for i, (g, w) in enumerate(zip(got_rows, want_rows)) if g != w]
        pytest.fail(f"{len(got_rows)} rows written, {len(want_rows)} expected; "
                    f"first differing (row, written, expected): {diff[:3]}")


def _with_neighbours(values):
    x = np.asarray(values, dtype=float)
    return np.concatenate([x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf)])


_POWERS = _with_neighbours([float(f"1e{k}") for k in range(-320, 309)])
_FORM_BOUNDARIES = _with_neighbours(
    [1e-5, 1e-4, 1e11, 1e12, 9.999999999995e-5, 9.9999999999995e-6,
     99999999999.95, 999999999999.5, 999999999999.4, 99999999999.4999]
)
_EXACT_TIES = [1000000000005.0, 1000000000015.0, 1234567890125.0, 123456789012.5,
               123456789013.5, 12345678901.25, 9999999999995.0, 2.5, 0.125, 1.0000000000005]
_SPECIALS = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324,
             2.2250738585072009e-308, 2.2250738585072014e-308, 1.7976931348623157e308,
             -1.7976931348623157e308, 1e100, -1e-100, 1.23456789012e-300, -1.23456789012e300,
             9.99999999999e99, 9.999999999995e-100]


def _near_ties(rng, n):
    """Decimal strings one digit past twelve, ending in 5, over the certified range."""
    digits = rng.integers(10**11, 10**12, n)
    exponents = rng.integers(-24, 24, n)
    return [float(f"{d}5e{x}") for d, x in zip(digits.tolist(), exponents.tolist())]


@pytest.mark.parametrize(
    "cells",
    [_POWERS, -_POWERS, _FORM_BOUNDARIES, -_FORM_BOUNDARIES, _EXACT_TIES, _SPECIALS],
    ids=["powers_of_ten", "negative_powers", "form_boundaries", "negative_boundaries",
         "exact_ties", "specials"],
)
def test_write_columns_edge_cells(cells):
    cells = [float(v) for v in cells]
    for n_cols in (1, 3):
        columns = [cells[i::n_cols][: len(cells) // n_cols] for i in range(n_cols)]
        _assert_writes_oracle(columns)


def test_write_columns_dense_cells():
    """Many cells on the bulk path: random magnitudes, short decimals, near ties."""
    rng = np.random.default_rng(6)
    n = 30_000
    signs = rng.choice([-1.0, 1.0], n)
    magnitudes = 10.0 ** rng.uniform(-13, 36, n) * signs
    scale = 10.0 ** rng.integers(0, 9, n)
    decimals = np.rint(rng.uniform(-1e5, 1e5, n) * scale) / scale
    ties = np.array(_near_ties(rng, n)) * signs
    columns = [magnitudes.tolist(), decimals.tolist(), ties.tolist()]
    _assert_writes_oracle(columns)


_CHUNK = ingest._CHUNK_ROWS
_BITS = st.integers(0, 2**64 - 1) | st.floats(1e-12, 1e35).map(
    lambda v: int(np.float64(v).view(np.uint64))
)


@settings(max_examples=40)
@given(
    bits=st.lists(_BITS, min_size=1, max_size=40),
    n_cols=st.integers(1, 4),
    n_rows=st.sampled_from([0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1]),
    negative=st.booleans(),
)
def test_write_columns_matches_format_on_bit_patterns(bits, n_cols, n_rows, negative):
    """Raw float64 bit patterns, tiled across chunk-boundary row counts.

    The row index is XORed into the low mantissa bits, so no two rows match.
    """
    pattern = np.array(bits, dtype=np.uint64) | np.uint64(negative << 63)
    rows = np.arange(n_rows, dtype=np.uint64)
    columns = [(np.resize(np.roll(pattern, col), n_rows) ^ rows).view(np.float64) for col in range(n_cols)]
    _assert_writes_oracle([c.tolist() for c in columns])


# The JSON curve writer: repr(v) of every cell, as json.dumps writes a list.
_JSON_SEPARATORS = (",\n    ", ": ")


def _assert_writes_json(cells):
    """_format_json's text equals json.dumps'; a failure names the first cells that differ.

    Warnings are errors inside the writer only.
    """
    column = np.asarray(cells, dtype=float)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = ingest._format_json(column).decode()
    want = json.dumps(column.tolist(), separators=_JSON_SEPARATORS)[1:-1]
    if got != want:
        got_cells, want_cells = got.split(_JSON_SEPARATORS[0]), want.split(_JSON_SEPARATORS[0])
        diff = [(g, w) for g, w in zip(got_cells, want_cells) if g != w]
        pytest.fail(f"{len(got_cells)} cells written, {len(want_cells)} expected; "
                    f"first differing (written, expected): {diff[:3]}")


def _runs_from(starts, n=400):
    """n consecutive floats from each start upward."""
    bits = np.asarray(starts, dtype=float).view(np.int64)
    return (bits[:, None] + np.arange(n)).ravel().view(np.float64)


def _scaled_to_17_digits(v):
    """|v| * 10**s in [1e16, 1e17), exactly, with the same scaling of its half ulp."""
    scale = Fraction(10) ** (16 - math.floor(math.log10(v)))
    return Fraction(v) * scale, Fraction(math.ulp(v)) / 2 * scale


def _equal_candidate_kinds(cells):
    """How many cells lie exactly, and how many nearly, halfway between two
    16-digit decimals, and how many have one on their rounding boundary with
    an even and with an odd mantissa."""
    kinds = {"exact tie": 0, "near tie": 0, "even boundary": 0, "odd boundary": 0}
    for v in cells:
        x, half_ulp = _scaled_to_17_digits(v)
        offset = abs(x % 10 - 5)
        kinds["exact tie"] += offset == 0
        kinds["near tie"] += 0 < offset < 1
        if any((x + h) % 10 == 0 for h in (half_ulp, -half_ulp)):
            odd = np.float64(v).view(np.uint64) & np.uint64(1)
            kinds["odd boundary" if odd else "even boundary"] += 1
    return kinds


_JSON_POWERS = _with_neighbours([float(f"1e{k}") for k in range(-8, 18)])
_JSON_POWERS_OF_TWO = _with_neighbours([2.0**k for k in range(-30, 61)])
_JSON_FORM_BOUNDARIES = _with_neighbours(
    [1e-5, 1e-4, 1e15, 1e16, 9.999999999999999e-06, 9.999999999999999e-05, 0.00010000000000000002,
     99999999999999.98, 999999999999999.9, 9999999999999998.0, 1.0000000000000002e16]
)
# Just above 2**-1, 2**43, 2**46 and 2**49 a value's rounding interval is over
# ten units of its 16th digit wide, so two 16-digit candidates often lie
# inside it, equally near or nearly so. Above 2**53 the interval's ends fall
# on integers, so a 16-digit candidate can lie exactly on one.
_JSON_EQUAL_CANDIDATES = _runs_from([0.5, 2.0**43, 2.0**46, 2.0**49, 2.0**54, 1e16])
_JSON_SPECIALS = [0.0, math.nan, math.inf, 5e-324, 2.2250738585072009e-308,
                  2.2250738585072014e-308, 1.7976931348623157e308, 1e100, 1e-100, 1e-7, 1e22, 1e23]


def test_equal_candidate_cells_cover_ties_and_boundaries():
    kinds = _equal_candidate_kinds(_JSON_EQUAL_CANDIDATES.tolist())
    assert all(kinds.values()), kinds


def _fifteen_digit_kinds(cells):
    """How many cells have a 15-digit decimal inside their rounding interval
    other than the nearest 16-digit one, and how many a 16-digit one but no
    15-digit one."""
    kinds = {"15 digits, not the nearest 16": 0, "16 digits, no 15": 0}
    for v in cells:
        x, half_ulp = _scaled_to_17_digits(v)
        even = not np.float64(v).view(np.uint64) & np.uint64(1)
        inside = lambda c: abs(x - c) < half_ulp or (even and abs(x - c) == half_ulp)
        nearest_16, nearest_15 = 10 * round(x / 10), 100 * round(x / 100)
        kinds["15 digits, not the nearest 16"] += inside(nearest_15) and nearest_15 != nearest_16
        kinds["16 digits, no 15"] += inside(nearest_16) and not inside(nearest_15)
    return kinds


def test_equal_candidate_cells_cover_both_roundings():
    """Cells where _format_json's second rounding, to 15 digits, changes the
    digits of its first, and cells where only the first lands inside.

    A 16-digit exact tie never has a 15-digit decimal inside, so the second
    rounding never clears a tie the first found. At such a tie X is an odd
    integer and a multiple of 5**s: for s >= 2 it ends in 25 or 75, 25 from
    any multiple of 100; for s = 1 the half-width is at most 10 * 2**-2 = 2.5
    (v is a half-integer) against a distance of 5; and for s = 0 X would be
    an odd integer above 2**53.
    """
    kinds = _fifteen_digit_kinds(_JSON_EQUAL_CANDIDATES.tolist())
    assert all(kinds.values()), kinds


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["positive", "negative"])
@pytest.mark.parametrize(
    "cells",
    [_JSON_POWERS, _JSON_POWERS_OF_TWO, _JSON_FORM_BOUNDARIES, _JSON_EQUAL_CANDIDATES,
     _JSON_SPECIALS],
    ids=["powers_of_ten", "powers_of_two", "form_boundaries", "equal_candidates", "specials"],
)
def test_format_json_edge_cells(cells, sign):
    _assert_writes_json(np.asarray(cells) * sign)


def test_format_json_dense_cells():
    """Many cells: random magnitudes, short decimals and %.{p}g round trips."""
    rng = np.random.default_rng(7)
    n = 34_000
    magnitudes = 10.0 ** rng.uniform(-7, 17, n)
    short = [round(v, k) for v, k in zip(magnitudes.tolist(), rng.integers(0, 12, n).tolist())]
    trips = [float(f"{v:.{p}g}") for v, p in zip(magnitudes.tolist(), rng.integers(1, 18, n).tolist())]
    signs = rng.choice([-1.0, 1.0], 3 * n)
    _assert_writes_json(np.concatenate([magnitudes, short, trips]) * signs)


def test_json_table_writes_benchmark_curves():
    """The curves a 200,000-point diagnose of the benchmark's models writes.

    Trajectories 1.8e5/(t_s - t) with t_s = 2020 over 2030, from t = 0 to the
    guard: both curves start near 2.4e-6, so many cells take the exponent form
    just inside the writer's [-6, 16] range.
    """
    f, g = (HyperbolicParams(a=t_s / 1.8e5, k=1 / 1.8e5) for t_s in (2020.0, 2030.0))
    m = make_ratio(f, g)
    grid = np.linspace(0.0, min(last_guarded_time(f), last_guarded_time(g)), 200_000)
    table = {"gradient": gradient_curve(m, grid).values,
             "growth_rate": growth_rate_curve(m, grid).values}
    assert min(v[0] for v in table.values()) < 1e-5
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        text = b"".join(json_table(table))
    want = json.dumps({k: v.tolist() for k, v in table.items()}, indent=2, sort_keys=True)
    assert text == (want + "\n").encode()


_JSON_BITS = st.integers(0, 2**64 - 1) | st.floats(1e-7, 1e17).map(
    lambda v: int(np.float64(v).view(np.uint64))
)


@settings(max_examples=40)
@given(
    bits=st.lists(_JSON_BITS, min_size=1, max_size=40),
    n_cols=st.integers(1, 2),
    n_rows=st.sampled_from([0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1]),
    negative=st.booleans(),
)
def test_json_table_matches_dumps_on_bit_patterns(bits, n_cols, n_rows, negative):
    """Raw float64 bit patterns through the chunked JSON table writer.

    The row index is XORed into the low mantissa bits, so no two rows match.
    """
    pattern = np.array(bits, dtype=np.uint64) | np.uint64(negative << 63)
    rows = np.arange(n_rows, dtype=np.uint64)
    table = {f"c{col}": (np.resize(np.roll(pattern, col), n_rows) ^ rows).view(np.float64)
             for col in range(n_cols)}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        text = b"".join(json_table(table)).decode()
    want = json.dumps({k: v.tolist() for k, v in table.items()}, indent=2, sort_keys=True)
    assert text == want + "\n"
