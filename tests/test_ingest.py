import io

import numpy as np
import pytest

from hypergrowth import (
    DomainError,
    ParseError,
    TimeSeries,
    ValidationError,
    fit_hyperbolic,
    parse_csv,
    synthesize,
    write_csv,
)

from conftest import F_PARAMS


class TestParseCsv:
    def test_basic(self):
        series = parse_csv(io.StringIO("year,gdp\n1,0.1027\n1000,0.1167\n"), value_col="gdp")
        assert len(series) == 2
        np.testing.assert_allclose(series.years, [1.0, 1000.0])
        np.testing.assert_allclose(series.values, [0.1027, 0.1167])

    def test_rows_sorted_on_load(self):
        series = parse_csv(io.StringIO("year,value\n1500,2\n1,1\n1000,1.5\n"))
        np.testing.assert_allclose(series.years, [1.0, 1000.0, 1500.0])

    def test_negative_value_rejected(self):
        with pytest.raises(ValidationError, match="non-positive"):
            parse_csv(io.StringIO("year,value\n1,0.5\n2,-1\n"))

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_value_named(self, cell):
        with pytest.raises(ValidationError, match=f"line 3: non-finite value {cell}"):
            parse_csv(io.StringIO(f"year,value\n1,0.5\n2,{cell}\n"))

    def test_byte_order_mark_accepted(self, tmp_path):
        path = tmp_path / "export.csv"
        path.write_bytes(b"\xef\xbb\xbfyear,value\n1,0.5\n2,0.75\n")
        series = parse_csv(path)
        np.testing.assert_allclose(series.values, [0.5, 0.75])

    def test_duplicate_year_rejected(self):
        with pytest.raises(ValidationError, match="duplicate year 1000"):
            parse_csv(io.StringIO("year,value\n1,1\n1000,2\n1000,3\n"))

    def test_malformed_cell_names_line(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_csv(io.StringIO("year,value\n1,1\n2,oops\n"))

    def test_short_row_names_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_csv(io.StringIO("year,value\n1\n"))

    def test_missing_column(self):
        with pytest.raises(ParseError, match="missing column"):
            parse_csv(io.StringIO("t,y\n1,1\n"))

    def test_empty_input(self):
        with pytest.raises(ParseError, match="header"):
            parse_csv(io.StringIO(""))

    def test_custom_columns_and_blank_lines(self):
        text = "when,how_much\n\n1820,1.2\n1870,1.9\n"
        series = parse_csv(io.StringIO(text), year_col="when", value_col="how_much")
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


def _csv_text(series: TimeSeries) -> str:
    buf = io.StringIO()
    write_csv(series, buf)
    return buf.getvalue()


class TestSerializationRoundTrip:
    def test_lossless_to_output_precision(self):
        rng = np.random.default_rng(2)
        years = np.sort(rng.uniform(0, 2000, 25))
        values = 10.0 ** rng.uniform(-3, 3, 25)
        series = TimeSeries(years=years, values=values)
        back = parse_csv(io.StringIO(_csv_text(series)))
        np.testing.assert_allclose(back.years, years, rtol=1e-11)
        np.testing.assert_allclose(back.values, values, rtol=1e-11)

    def test_reserialization_is_stable(self):
        series = TimeSeries(years=[1.0, 2.0, 3.0], values=[1 / 3, 2 / 3, 0.9999999999999])
        once = _csv_text(parse_csv(io.StringIO(_csv_text(series))))
        assert once == _csv_text(series)


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

    def test_immutable_arrays(self):
        series = TimeSeries(years=[1.0, 2.0], values=[1.0, 2.0])
        with pytest.raises(ValueError):
            series.years[0] = 5.0

    def test_restrict_window(self):
        series = TimeSeries(years=[1.0, 1000.0, 1500.0, 1960.0], values=[1, 2, 3, 4])
        out = series.restrict(500.0, 1500.0)
        np.testing.assert_allclose(out.years, [1000.0, 1500.0])
