import os
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hypergrowth import (
    DomainError,
    FitRejectedError,
    InsufficientDataError,
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
from hypergrowth.fitting import WEIGHTINGS, _line_sse

from conftest import F_PARAMS, G_PARAMS, random_params

SAMPLE_YEARS = np.array([0.0, 500.0, 1000.0, 1500.0, 1900.0, 2000.0])


def noiseless(params, years=SAMPLE_YEARS, name="synthetic"):
    return synthesize(params, years, name=name)


class TestFitHyperbolic:
    def test_exact_recovery(self):
        fit = fit_hyperbolic(noiseless(F_PARAMS))
        assert fit.params.a == pytest.approx(4.5, rel=1e-10)
        assert fit.params.k == pytest.approx(2.2e-3, rel=1e-10)
        assert fit.rmse_reciprocal < 1e-14
        assert fit.r_squared_reciprocal == pytest.approx(1.0, abs=1e-12)
        assert fit.t_s == pytest.approx(F_PARAMS.singularity_time, rel=1e-10)
        assert fit.n_points == 6

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
        assert abs(fit.residuals.sum()) < 1e-9 * np.max(np.abs(z))
        # weighted fit zeroes the weighted residual sum instead
        wfit = fit_hyperbolic(series, weighting="size_squared")
        w = series.values**2
        assert abs((w * wfit.residuals).sum()) < 1e-9 * np.max(np.abs(w * z))

    @settings(max_examples=200, deadline=None)
    @given(
        a=st.floats(1e-2, 1e2),
        t_s=st.floats(500.0, 5000.0),
        n=st.integers(3, 40),
        seed=st.integers(0, 2**32 - 1),
        j=st.integers(-900, 900),
        weighting=st.sampled_from(WEIGHTINGS),
    )
    def test_power_of_two_scale_equivariance(self, a, t_s, n, seed, j, weighting):
        # Fitting c*y with c = 2**j gives exactly (a/c, k/c), rmse/c and the same r**2.
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
        assert scaled.rmse_reciprocal == base.rmse_reciprocal / c
        assert scaled.r_squared_reciprocal == base.r_squared_reciprocal
        assert np.array_equal(scaled.residuals, base.residuals / c)

    @settings(max_examples=200, deadline=None)
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
        assert shifted.r_squared_reciprocal == pytest.approx(base.r_squared_reciprocal, abs=1e-12)

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
    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(3, 40),
        decades=st.integers(0, 307),
        shift=st.floats(-10.0, 10.0),
        seed=st.integers(0, 2**32 - 1),
        weighted=st.booleans(),
    )
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
            intercept, slope, residuals, sse, _ = _line_sse(t, z, w)
        # Oracle: least squares on sqrt(w)-scaled rows. The year column is scaled by an
        # exact power of two, or lstsq's rank cutoff drops the intercept column.
        e = int(np.frexp(np.abs(t).max())[1])
        design = np.sqrt(w)[:, None] * np.column_stack([np.ones(n), np.ldexp(t, -e)])
        rhs = np.sqrt(w) * z
        coef = np.linalg.lstsq(design, rhs, rcond=None)[0]
        assert intercept == pytest.approx(coef[0], rel=1e-10, abs=0.0)
        assert slope == pytest.approx(np.ldexp(coef[1], -e), rel=1e-10, abs=0.0)
        assert sse == pytest.approx(float(((rhs - design @ coef) ** 2).sum()), rel=1e-10, abs=0.0)
        assert sse == float((w * residuals**2).sum())


class TestFitRatio:
    def test_noiseless_composition(self):
        rfit = fit_ratio(noiseless(F_PARAMS, name="f"), noiseless(G_PARAMS, name="g"))
        assert rfit.model.modulation_constant == pytest.approx(3.25e-4, rel=1e-8)
        assert classify_shape(rfit.model) is Shape.ESCALATING
        np.testing.assert_allclose(rfit.residuals, 0.0, atol=1e-12)
        assert rfit.common_years.size == SAMPLE_YEARS.size

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

    @pytest.mark.parametrize("scale", [1e-200, 1e300])
    def test_modulation_terms_outside_float64_refused(self, scale):
        # 1e-200: k_f*a_g overflows; 1e300: both terms underflow to 0 and C reads as 0.
        years = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        f = TimeSeries(years=years, values=scale / (1 - 0.1 * years), name="f")
        g = TimeSeries(years=years, values=scale / (1 - 0.05 * years), name="g")
        with pytest.raises(UnrepresentableError, match="^series 'f' and 'g': "):
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
