import dataclasses
import math
import os
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hypergrowth import (
    DomainError,
    FitRejectedError,
    HypergrowthError,
    InsufficientDataError,
    RatioFit,
    Shape,
    TimeSeries,
    UnrepresentableError,
    classify_shape,
    fit_hyperbolic,
    fit_ratio,
    parse_csv,
    predict,
    synthesize,
)
from hypergrowth.cli import _fit_summary
from hypergrowth.fitting import WEIGHTINGS, _line_sse

from conftest import F_PARAMS, G_PARAMS, SEED, random_params

SAMPLE_YEARS = np.array([0.0, 500.0, 1000.0, 1500.0, 1900.0, 2000.0])
#: Maddison-style benchmark years: sparse before 1950, then every 2.5 years to 2000.
MADDISON_YEARS = np.array([0.0, 1000.0, 1500.0, 1600.0, 1700.0, 1820.0, 1870.0, 1890.0, 1913.0,
                           1929.0, *np.arange(1950.0, 2001.0, 2.5)])


def noiseless(params, years=SAMPLE_YEARS, name="synthetic"):
    return synthesize(params, years, name=name)


def residuals(fit):
    """Per-point reciprocal residuals 1/y_i - (a - k*t_i) of a fit."""
    return np.ldexp(fit.line.residuals, -fit.value_scale)


class TestFitHyperbolic:
    def test_exact_recovery(self):
        fit = fit_hyperbolic(noiseless(F_PARAMS))
        report = _fit_summary(fit)
        assert fit.params.a == pytest.approx(4.5, rel=1e-10)
        assert fit.params.k == pytest.approx(2.2e-3, rel=1e-10)
        assert report["rmse_reciprocal"] < 1e-14
        assert report["r_squared_reciprocal"] == pytest.approx(1.0, abs=1e-12)
        assert fit.t_s == pytest.approx(F_PARAMS.singularity_time, rel=1e-10)
        assert report["n_points"] == 6

    def test_exact_recovery_random_cases(self):
        rng = np.random.default_rng(20260810)
        for _ in range(200):
            p = random_params(rng, t_s_range=(500.0, 3000.0))
            n = int(rng.integers(3, 40))
            years = np.unique(rng.uniform(0.0, 0.9 * p.singularity_time, n))
            if years.size < 3:
                continue
            fit = fit_hyperbolic(noiseless(p, years))
            assert fit.params.a == pytest.approx(p.a, rel=1e-10)
            assert fit.params.k == pytest.approx(p.k, rel=1e-10)

    def test_weighted_matches_unweighted_on_noiseless(self):
        series = noiseless(F_PARAMS)
        plain = fit_hyperbolic(series, weighting="unweighted")
        weighted = fit_hyperbolic(series, weighting="size_squared")
        assert weighted.params.a == pytest.approx(plain.params.a, rel=1e-10)
        assert weighted.params.k == pytest.approx(plain.params.k, rel=1e-10)
        assert weighted.weighting == "size_squared"

    def test_residuals_sum_to_zero(self):
        years = np.linspace(1.0, 1950.0, 40)
        series = synthesize(F_PARAMS, years, noise_sigma=0.02, seed=9)
        fit = fit_hyperbolic(series)
        z = 1.0 / series.values
        assert abs(residuals(fit).sum()) < 1e-9 * np.max(np.abs(z))
        # weighted fit zeroes the weighted residual sum instead
        wfit = fit_hyperbolic(series, weighting="size_squared")
        w = series.values**2
        assert abs((w * residuals(wfit)).sum()) < 1e-9 * np.max(np.abs(w * z))

    @settings(max_examples=200)
    @given(
        a=st.floats(1e-2, 1e2),
        t_s=st.floats(500.0, 5000.0),
        n=st.integers(3, 40),
        seed=st.integers(0, 2**32 - 1),
        j=st.integers(-900, 900),
        weighting=st.sampled_from(WEIGHTINGS),
    )
    def test_power_of_two_scale_equivariance(self, a, t_s, n, seed, j, weighting):
        # Fitting c*y with c = 2**j gives exactly (a/c, k/c), rmse/c and the same r**2, from
        # the same line on the same exactly scaled values.
        years = np.linspace(0.0, 0.9 * t_s, n)
        clean = 1.0 / (a - a / t_s * years)
        values = clean * np.exp(np.random.default_rng(seed).normal(0.0, 0.01, n))
        base = fit_hyperbolic(TimeSeries(years=years, values=values), weighting)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scaled = fit_hyperbolic(TimeSeries(years=years, values=np.ldexp(values, j)), weighting)
        c = 2.0**j
        assert scaled.params.a == base.params.a / c
        assert scaled.params.k == base.params.k / c
        scaled_report, base_report = _fit_summary(scaled), _fit_summary(base)
        assert scaled_report["rmse_reciprocal"] == base_report["rmse_reciprocal"] / c
        assert scaled_report["r_squared_reciprocal"] == base_report["r_squared_reciprocal"]
        for name, got in scaled.line._asdict().items():
            assert np.asarray(got).tobytes() == np.asarray(getattr(base.line, name)).tobytes()
        assert scaled.value_scale == base.value_scale + j

    @settings(max_examples=200)
    @given(
        a=st.floats(1e-2, 1e2),
        t_s=st.floats(500.0, 5000.0),
        n=st.integers(3, 40),
        seed=st.integers(0, 2**32 - 1),
        tau=st.integers(-10**5, 10**5),
        weighting=st.sampled_from(WEIGHTINGS),
    )
    def test_time_shift_equivariance(self, a, t_s, n, seed, tau, weighting):
        # 1/y = a - k*t = (a + k*tau) - k*(t + tau): fitting at shifted integer years
        # gives the same k and r**2 and the intercept a + k*tau, up to rounding.
        rng = np.random.default_rng(seed)
        years = np.sort(rng.choice(int(0.9 * t_s), size=n, replace=False)).astype(float)
        values = np.exp(rng.normal(0.0, 0.01, n)) / (a - a / t_s * years)
        try:
            base = fit_hyperbolic(TimeSeries(years=years, values=values), weighting)
            shifted = fit_hyperbolic(TimeSeries(years=years + tau, values=values), weighting)
        except FitRejectedError:
            assume(False)
        a0, k0 = base.params.a, base.params.k
        assert shifted.params.k == pytest.approx(k0, rel=1e-12, abs=0.0)
        assert abs(shifted.params.a - (a0 + k0 * tau)) <= 1e-12 * (abs(a0) + abs(k0 * tau))
        assert _fit_summary(shifted)["r_squared_reciprocal"] == pytest.approx(
            _fit_summary(base)["r_squared_reciprocal"], abs=1e-12)

    @pytest.mark.parametrize("weighting", WEIGHTINGS)
    @pytest.mark.parametrize("years", [np.linspace(1500.0, 1950.0, 31), MADDISON_YEARS],
                             ids=["linspace", "maddison"])
    def test_report_matches_lstsq_oracle(self, years, weighting):
        # The report's rmse and r**2 against least squares on the sqrt(w)-scaled rows of
        # [1, t - mean(t)] against z = 1/y, with w = 1 or y**2.
        for seed in range(SEED, SEED + 50):
            series = synthesize(F_PARAMS, years, noise_sigma=0.02, seed=seed)
            report = _fit_summary(fit_hyperbolic(series, weighting))
            y = series.values
            z, w = 1.0 / y, y**2 if weighting == "size_squared" else np.ones_like(y)
            design = np.column_stack([np.ones_like(years), years - years.mean()])
            coef = np.linalg.lstsq(np.sqrt(w)[:, None] * design, np.sqrt(w) * z, rcond=None)[0]
            wsse = (w * (z - design @ coef) ** 2).sum()
            wsst = (w * (z - (w * z).sum() / w.sum()) ** 2).sum()
            rmse = np.sqrt(wsse / w.sum())
            assert report["rmse_reciprocal"] == pytest.approx(rmse, rel=1e-10, abs=0.0)
            assert report["r_squared_reciprocal"] == pytest.approx(1.0 - wsse / wsst, abs=1e-12)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("weighting", WEIGHTINGS)
    @pytest.mark.parametrize(
        "values",
        [[1e-200, 1e-100, 1, 1e100, 1e200], [1e-160, 1e-100, 1e-50, 1]],
        ids=["underflow", "square-overflow"],
    )
    def test_rejects_values_spanning_float_range(self, weighting, values):
        # Scaled by the largest value, 1e-200 underflows to 0 and 1/y divides by zero;
        # 1e-160 stays normal, but its squared reciprocal overflows.
        series = TimeSeries(years=np.arange(float(len(values))), values=values, name="wide")
        with pytest.raises(FitRejectedError, match=f"^series 'wide': values from {values[0]:g} to "):
            fit_hyperbolic(series, weighting)

    def test_rejects_non_growth_data(self):
        decreasing = TimeSeries(years=[0.0, 1.0, 2.0, 3.0], values=[10.0, 6.0, 3.0, 1.0])
        with pytest.raises(FitRejectedError):
            fit_hyperbolic(decreasing)
        flat = TimeSeries(years=[0.0, 1.0, 2.0], values=[5.0, 5.0, 5.0])
        with pytest.raises(FitRejectedError):
            fit_hyperbolic(flat)

    @settings(max_examples=200)
    @given(
        value=st.floats(1e-300, 1e300),
        years=st.lists(st.floats(-1e300, 1e300), min_size=3, max_size=40, unique=True),
        weighting=st.sampled_from(WEIGHTINGS),
    )
    # A line fitted to 123.4 at these years has a slope of rounding noise: under size_squared
    # it gives k = 3.8e-37, a positive k that HyperbolicParams would accept.
    @example(value=123.4, years=list(range(1500, 1951, 15)), weighting="size_squared")
    @example(value=123.4, years=list(range(1500, 1951, 15)), weighting="unweighted")
    def test_rejects_every_constant_series(self, value, years, weighting):
        flat = TimeSeries(sorted(years), np.full(len(years), value), name="flat")
        with pytest.raises(FitRejectedError) as info:
            fit_hyperbolic(flat, weighting)
        message = f"series 'flat': every value is {value:g}; data is not hyperbolic-growth-shaped"
        assert str(info.value) == message

    @settings(max_examples=200)
    @given(
        j=st.integers(-1000, 1000),
        pattern=st.lists(st.booleans(), min_size=3, max_size=40).filter(lambda p: len(set(p)) == 2),
        weighting=st.sampled_from(WEIGHTINGS),
    )
    # 1.9999999999999996 and the float above it share the reciprocal 0.5000000000000001, at
    # every power-of-two scale: their line is a constant, and under size_squared this pattern's
    # slope of rounding noise gave k = 3.5e-34, a positive k that HyperbolicParams would accept.
    @example(j=0, pattern=[False, True, True, False], weighting="size_squared")
    def test_rejects_values_with_one_reciprocal(self, j, pattern, weighting):
        values = np.ldexp([1.9999999999999996, 1.9999999999999998], j)[np.array(pattern, int)]
        series = TimeSeries(1500.0 + 15.0 * np.arange(len(pattern)), values, name="pair")
        assert values.min() < values.max()
        with pytest.raises(FitRejectedError) as info:
            fit_hyperbolic(series, weighting)
        assert str(info.value) == (
            f"series 'pair': every value is {values[0]:g}; data is not hyperbolic-growth-shaped")

    @settings(max_examples=200)
    @given(
        exponent=st.floats(-300.0, 300.0),
        points=st.lists(st.tuples(st.integers(-3000, 3000), st.integers(-4, 4)), min_size=3,
                        max_size=12, unique_by=lambda p: p[0]),
        weighting=st.sampled_from(WEIGHTINGS),
    )
    def test_every_accepted_fit_has_positive_sst(self, exponent, points, weighting):
        # Values a few ulps apart: a fit is refused, or its reciprocals are not all equal, so
        # their total sum of squares is positive and r_squared_reciprocal is 1 - sse/sst.
        center = 10.0**exponent
        years, ulps = zip(*sorted(points))
        values = center + np.array(ulps) * np.spacing(center)
        series = TimeSeries(np.array(years, float), values, name="near_constant")
        try:
            fit = fit_hyperbolic(series, weighting)
        except HypergrowthError:
            return
        assert fit.line.sst > 0
        assert np.isfinite(_fit_summary(fit)["r_squared_reciprocal"])

    @pytest.mark.filterwarnings("error")
    def test_rejects_singularity_time_that_overflows(self):
        # a and k are finite and positive, but t_s = a/k overflows float64.
        series = TimeSeries(years=[1e308, 1.5e308, 1.7e308], values=[1.0, 2.0, 3.0], name="far")
        message = (
            "series 'far': reciprocal regression gave a=1.95726, k=9.61538e-309; "
            "data is not hyperbolic-growth-shaped"
        )
        with pytest.raises(FitRejectedError, match=f"^{message}$"):
            fit_hyperbolic(series)

    def test_rejects_insufficient_data(self):
        two = TimeSeries(years=[0.0, 1.0], values=[1.0, 2.0])
        with pytest.raises(InsufficientDataError):
            fit_hyperbolic(two)

    def test_rejects_unknown_weighting(self):
        with pytest.raises(ValueError):
            fit_hyperbolic(noiseless(F_PARAMS), weighting="cubic")

    def test_monte_carlo_singularity_consistency(self):
        # 1% multiplicative noise, 20 points over [0, 2000]: the recovered
        # singularity stays within 2% of truth in at least 95% of trials
        # (measured 100% for this seeded stream, worst deviation 0.52%)
        rng = np.random.default_rng(20260810)
        grid = np.linspace(0.0, 2000.0, 20)
        clean = 1.0 / (F_PARAMS.a - F_PARAMS.k * grid)
        t_s_true = F_PARAMS.singularity_time
        hits = 0
        trials = 1000
        for _ in range(trials):
            values = clean * np.exp(rng.normal(0.0, 0.01, grid.size))
            fit = fit_hyperbolic(TimeSeries(years=grid, values=values))
            hits += abs(fit.t_s - t_s_true) / t_s_true <= 0.02
        assert hits / trials >= 0.95


class TestLineKernel:
    @settings(max_examples=300)
    @given(
        n=st.integers(3, 40),
        decades=st.integers(0, 307),
        shift=st.floats(-10.0, 10.0),
        seed=st.integers(0, 2**32 - 1),
        weighted=st.booleans(),
    )
    # An intercept of -9.1e-6 from values near 8.7: lstsq's intercept is 2.0e-10 off the exact
    # one, the kernel's 2.7e-11, so the line is checked against exact rational sums.
    @example(n=19, decades=0, shift=-6.575030055992318, seed=19, weighted=False)
    # Residuals about 1e-5 of the reciprocals: rounding each residual alone puts the sse
    # 1.35e-10 of itself from the exact one.
    @example(n=3, decades=0, shift=10.0, seed=1953561, weighted=True)
    def test_matches_lstsq_oracle(self, n, decades, shift, seed, weighted):
        # Years spread over +-10**decades around shift * 10**decades, up to 1.1e308 in size.
        rng = np.random.default_rng(seed)
        u = np.sort(rng.uniform(-1.0, 1.0, n))
        u[0], u[-1] = -1.0, 1.0
        t = 10.0**decades * (shift + u)
        assume(np.all(np.diff(t) > 0))
        z = rng.uniform(1.0, 10.0) + rng.choice([-1.0, 1.0]) * rng.uniform(1.0, 10.0) * u
        z += rng.normal(0.0, rng.uniform(1e-3, 1.0), n)
        w = rng.uniform(0.1, 10.0, n) if weighted else np.ones(n)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            line = _line_sse(t, z, w)
        # Oracle: the weighted least-squares line and its sse in exact rational arithmetic.
        tq, zq, wq = ([Fraction(v) for v in a.tolist()] for a in (t, z, w))
        sw = sum(wq)
        tm = sum(wi * ti for wi, ti in zip(wq, tq)) / sw
        zm = sum(wi * zi for wi, zi in zip(wq, zq)) / sw
        slope = sum(wi * (ti - tm) * (zi - zm) for wi, ti, zi in zip(wq, tq, zq)) / sum(
            wi * (ti - tm) ** 2 for wi, ti in zip(wq, tq))
        intercept = zm - slope * tm
        sse = sum(wi * (zi - intercept - slope * ti) ** 2 for wi, ti, zi in zip(wq, tq, zq))
        # Beyond rel 1e-10, a margin for rounding each term at 16 ulps of its size: the
        # intercept's terms are zm and slope*tm; residual i's are z_i, the intercept and
        # slope*t_i, whose sizes add to s_i, and Cauchy-Schwarz bounds their effect on the sse.
        ulps = 16 * 2.0**-53
        sws2 = float(sum(wi * (abs(zi) + abs(intercept) + abs(slope * ti)) ** 2
                         for wi, ti, zi in zip(wq, tq, zq)))
        exact_sse = float(sse)
        assert abs(line.intercept - float(intercept)) <= (
            1e-10 * abs(float(intercept)) + ulps * float(abs(zm) + abs(slope * tm)))
        assert line.slope == pytest.approx(float(slope), rel=1e-10, abs=0.0)
        assert abs(line.sse - exact_sse) <= (
            1e-10 * exact_sse + ulps * 2 * math.sqrt(exact_sse * sws2) + ulps**2 * sws2)
        assert line.sse == float((w * line.residuals**2).sum())
        assert line.sw == w.sum()
        e = int(np.frexp(np.abs(t).max())[1])
        assert line.t_scale == e
        # The (intercept, slope) covariance in the scaled years, from the kernel's sums alone,
        # is the oracle's sigma**2 * inv(D'D), to 1e-10 of its largest entry; D's year column
        # is scaled by the same exact power of two, so D'D stays in range.
        design = np.sqrt(w)[:, None] * np.column_stack([np.ones(n), np.ldexp(t, -e)])
        t_mean, sxx = line.t_mean, line.sxx
        sums = [[1.0 / line.sw + t_mean**2 / sxx, -t_mean / sxx], [-t_mean / sxx, 1.0 / sxx]]
        cov = line.sse / (n - 2) * np.array(sums)
        oracle = line.sse / (n - 2) * np.linalg.inv(design.T @ design)
        assert np.abs(cov - oracle).max() <= 1e-10 * np.abs(oracle).max()


class TestFitRatio:
    def test_noiseless_composition(self):
        rfit = fit_ratio(noiseless(F_PARAMS, name="f"), noiseless(G_PARAMS, name="g"))
        assert rfit.model.modulation_constant == pytest.approx(3.25e-4, rel=1e-8)
        assert classify_shape(rfit.model) is Shape.ESCALATING
        np.testing.assert_allclose(rfit.observed_ratio - rfit.predicted_ratio, 0.0, atol=1e-12)
        assert rfit.common_years.size == SAMPLE_YEARS.size

    def test_fields(self):
        # The residuals are observed_ratio - predicted_ratio; no field restates them.
        assert [f.name for f in dataclasses.fields(RatioFit)] == [
            "model", "numerator_fit", "denominator_fit", "common_years", "observed_ratio",
            "predicted_ratio",
        ]

    def test_identical_series_is_constant(self):
        series = noiseless(F_PARAMS)
        rfit = fit_ratio(series, series)
        assert classify_shape(rfit.model) is Shape.CONSTANT
        np.testing.assert_allclose(rfit.observed_ratio, 1.0, rtol=1e-12)

    def test_too_few_common_years(self):
        a = noiseless(F_PARAMS, np.array([0.0, 100.0, 200.0, 300.0]))
        b = noiseless(G_PARAMS, np.array([200.0, 300.0, 400.0, 500.0]))
        with pytest.raises(InsufficientDataError):
            fit_ratio(a, b)

    # 1/n falls from 1 to a flat 0.01; its fitted line reaches 0, the ratio domain end, at 3.05051.
    N5 = TimeSeries(years=[0.0, 1.0, 2.0, 3.0, 4.0], values=[1.0, 100, 100, 100, 100], name="n5")

    def test_common_years_counted_before_the_domain_end(self):
        # Years 2, 3 and 4 are common, but the model has no value at year 4.
        d5 = TimeSeries(years=[2.0, 3.0, 4.0], values=[1 / 18, 1 / 17, 1 / 16], name="d5")
        with pytest.raises(InsufficientDataError, match=(
                "^series 'n5' and 'd5' share only 2 common years before the ratio domain "
                "end 3.05051; need at least 3 for residual reporting$")):
            fit_ratio(self.N5, d5)

    def test_common_years_past_the_domain_end_dropped(self):
        years = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        den = TimeSeries(years=years, values=1 / (20 - years), name="d")
        rfit = fit_ratio(self.N5, den)
        assert 3.0 < rfit.model.domain_end < 4.0
        np.testing.assert_array_equal(rfit.common_years, [0.0, 1.0, 2.0, 3.0])
        np.testing.assert_array_equal(rfit.observed_ratio, self.N5.values[:4] / den.values[:4])
        assert rfit.predicted_ratio.size == (rfit.observed_ratio - rfit.predicted_ratio).size == 4

    @pytest.mark.parametrize("scale", [1e-200, 1e300])
    def test_modulation_terms_outside_float64_refused(self, scale):
        # 1e-200: k_f*a_g overflows; 1e300: both terms underflow to 0 and C reads as 0.
        years = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        f = TimeSeries(years=years, values=scale / (1 - 0.1 * years), name="f")
        g = TimeSeries(years=years, values=scale / (1 - 0.05 * years), name="g")
        with pytest.raises(UnrepresentableError, match="^series 'f' and 'g': "):
            fit_ratio(f, g)

    @pytest.mark.parametrize("num, den", [(1e300, 1e-300), (1e-300, 1e300)],
                             ids=["overflow", "underflow"])
    def test_ratios_outside_normal_range_refused(self, num, den):
        # Each series fits, and so does C, but their quotient is about 1e600 or 1e-600.
        years = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        f = TimeSeries(years=years, values=num / (1 - 0.1 * years), name="f")
        g = TimeSeries(years=years, values=den / (1 - 0.05 * years), name="g")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UnrepresentableError,
                               match="^series 'f' and 'g': ratio at year 0 is outside"):
                fit_ratio(f, g)

    def test_propagates_fit_errors(self):
        bad = TimeSeries(years=[0.0, 1.0, 2.0, 3.0], values=[10.0, 6.0, 3.0, 1.0])
        with pytest.raises(FitRejectedError):
            fit_ratio(bad, noiseless(G_PARAMS, np.array([0.0, 1.0, 2.0, 3.0])))


class TestPredict:
    def test_known_point(self):
        fit = fit_hyperbolic(noiseless(F_PARAMS))
        out = predict(fit, [2000.0])
        assert out.values[0] == pytest.approx(10.0, rel=1e-9)

    def test_empty_grid(self):
        fit = fit_hyperbolic(noiseless(F_PARAMS))
        out = predict(fit, [])
        assert len(out) == 0

    def test_grid_past_singularity(self):
        fit = fit_hyperbolic(noiseless(F_PARAMS))
        with pytest.raises(DomainError):
            predict(fit, [1000.0, 2046.0])


def _maddison_paths():
    gdp = os.environ.get("HYPERGROWTH_GDP_CSV", "data/world_gdp.csv")
    pop = os.environ.get("HYPERGROWTH_POPULATION_CSV", "data/world_population.csv")
    return Path(gdp), Path(pop)


maddison_available = all(p.exists() for p in _maddison_paths())


@pytest.mark.skipif(not maddison_available, reason="historical dataset not supplied")
class TestHistoricalReproduction:
    def test_world_gdp_parameters(self):
        gdp_path, _ = _maddison_paths()
        fit = fit_hyperbolic(parse_csv(gdp_path))
        assert fit.params.a == pytest.approx(1.716e-2, rel=0.01)
        assert fit.params.k == pytest.approx(8.671e-6, rel=0.01)
        assert fit.t_s == pytest.approx(1979.0, abs=3.0)

    def test_world_population_parameters(self):
        _, pop_path = _maddison_paths()
        fit = fit_hyperbolic(parse_csv(pop_path))
        assert fit.params.a == pytest.approx(8.724, rel=0.01)
        assert fit.params.k == pytest.approx(4.267e-3, rel=0.01)
        assert fit.t_s == pytest.approx(2045.0, abs=3.0)
