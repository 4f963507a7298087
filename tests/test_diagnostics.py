import math
import operator
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import stats as sp_stats

from hypergrowth import (
    BreakDecision,
    DiagnosticsCurve,
    DomainError,
    HyperbolicParams,
    HypergrowthError,
    InsufficientDataError,
    Monotonicity,
    MonotonicityResult,
    NoSolutionError,
    Shape,
    TimeSeries,
    UnrepresentableError,
    ValidationError,
    break_test,
    classify_shape,
    curves_vs_size,
    eval_ratio,
    gradient_curve,
    growth_rate_curve,
    make_ratio,
    monotonicity_check,
    series_growth_rate,
    synthesize,
    takeoff_scan,
    time_at_ratio,
)

from hypergrowth.core import last_guarded_time
from hypergrowth.diagnostics import _segments_sse, f_survival
from hypergrowth.fitting import _line_sse

from conftest import F_PARAMS


def kinked_reciprocal_series(years, seed=7, sigma=0.005, name="control"):
    """Two reciprocal-space slopes, -2e-3 before 1750 and -4e-3 after,
    continuous at the kink; multiplicative noise on the values."""
    z = np.where(years < 1750.0, 5.0 - 2e-3 * years, 8.5 - 4e-3 * years)
    rng = np.random.default_rng(seed)
    values = (1.0 / z) * np.exp(rng.normal(0.0, sigma, years.size))
    return TimeSeries(years=years, values=values, name=name)


class TestCurves:
    def test_gradient_single_point(self, escalating_model):
        curve = gradient_curve(escalating_model, [0.0])
        assert curve.abscissa_kind == "time"
        assert curve.quantity == "gradient"
        assert curve.values[0] == pytest.approx(3.25e-4 / 20.25, rel=1e-10)

    def test_constant_model_curves_are_zero(self, f_params):
        m = make_ratio(f_params, f_params)
        grid = np.linspace(0.0, 2000.0, 50)
        assert np.all(gradient_curve(m, grid).values == 0.0)
        assert np.all(growth_rate_curve(m, grid).values == 0.0)

    def test_gradient_grows_with_time(self, escalating_model):
        curve = gradient_curve(escalating_model, [1000.0, 1900.0])
        assert curve.values[1] > curve.values[0]

    def test_growth_rate_single_point(self, escalating_model):
        curve = growth_rate_curve(escalating_model, [0.0])
        expected = 2.2e-3 / 4.5 - 3.35e-3 / 7.0
        assert curve.values[0] == pytest.approx(expected, rel=1e-10)

    def test_out_of_domain_grid(self, escalating_model):
        with pytest.raises(DomainError):
            gradient_curve(escalating_model, [1000.0, 2050.0])

    def test_unsorted_grid_rejected(self, escalating_model):
        with pytest.raises(ValidationError):
            gradient_curve(escalating_model, [1900.0, 1000.0])


class TestDiagnosticsCurve:
    @pytest.mark.parametrize("kind, quantity", [("space", "gradient"), ("time", "level")])
    def test_unknown_kind_or_quantity(self, kind, quantity):
        with pytest.raises(ValueError, match="must be one of"):
            DiagnosticsCurve(kind, quantity, [0.0, 1.0], [1.0, 2.0])

    def test_lengths_must_match(self):
        with pytest.raises(ValidationError) as info:
            DiagnosticsCurve("time", "value", [0.0, 1.0], [1.0])
        assert str(info.value) == "ratio value curve: 2 years but 1 values"

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_value_names_quantity_and_year(self, value):
        with pytest.raises(ValidationError) as info:
            DiagnosticsCurve("time", "gradient", [0.0, 1.0, 2.0], [1.0, value, value])
        assert str(info.value) == f"ratio gradient curve: non-finite value {value:g} at year 1"

    @pytest.mark.parametrize("x, message", [
        ([1.0, 2.0, 2.0, 1.0], "duplicate ratio_size 2"),
        ([1.0, 3.0, 2.0, 2.0], "decreasing ratio_size 2"),
    ])
    def test_first_repeated_or_decreasing_abscissa_is_named(self, x, message):
        with pytest.raises(ValidationError) as info:
            DiagnosticsCurve("ratio_size", "growth_rate", x, [1.0, 2.0, 3.0, 4.0])
        assert str(info.value) == f"ratio growth_rate curve: {message}"

    def test_abscissa_spanning_float64_compares_without_overflow(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            curve = DiagnosticsCurve("ratio_size", "gradient", [-1e308, 1e308], [1.0, 2.0])
        assert len(curve) == 2


class TestCurvesVsSize:
    def test_level_two_maps_through_crossing_time(self, escalating_model):
        grad_curve, rate_curve = curves_vs_size(escalating_model, [2.0])
        t = time_at_ratio(escalating_model, 2.0)
        assert t == pytest.approx(1904.7619047619048, rel=1e-9)
        from hypergrowth import ratio_gradient, ratio_growth_rate

        assert grad_curve.values[0] == pytest.approx(
            ratio_gradient(escalating_model, t), rel=1e-12
        )
        assert rate_curve.values[0] == pytest.approx(
            ratio_growth_rate(escalating_model, t), rel=1e-12
        )

    def test_unsorted_levels_are_sorted(self, escalating_model):
        grad_curve, _ = curves_vs_size(escalating_model, [2.2, 1.6, 2.0, 1.8])
        np.testing.assert_allclose(grad_curve.x, [1.6, 1.8, 2.0, 2.2])

    def test_both_curves_increase_with_level(self, escalating_model):
        grad_curve, rate_curve = curves_vs_size(escalating_model, [1.6, 1.8, 2.0, 2.2])
        assert np.all(np.diff(grad_curve.values) > 0)
        assert np.all(np.diff(rate_curve.values) > 0)

    def test_levels_round_trip_through_eval(self, escalating_model):
        levels = np.array([1.6, 1.8, 2.0, 2.2, 5.0, 50.0])
        _, rate_curve = curves_vs_size(escalating_model, levels)
        for level in rate_curve.x:
            t = time_at_ratio(escalating_model, level)
            assert eval_ratio(escalating_model, t) == pytest.approx(level, rel=1e-9)

    def test_unattainable_level_propagates(self, escalating_model):
        with pytest.raises(NoSolutionError):
            curves_vs_size(escalating_model, [2.0, 1.0])

    def test_duplicate_levels_rejected(self, escalating_model):
        with pytest.raises(ValidationError, match="duplicate ratio_size 2$"):
            curves_vs_size(escalating_model, [2.0, 2.0])

    def test_underflow_names_the_ratio_size(self):
        # C = 5e-301 over lines near 1: the gradient at this level is subnormal.
        m = make_ratio(HyperbolicParams(1.0, 1e-300), HyperbolicParams(1.0, 5e-301))
        with pytest.raises(ValidationError, match="^ratio gradient 2e-310 at ratio_size 0.50001 "):
            curves_vs_size(m, [0.50001])


def extreme_params():
    """(a, k) pairs with each anywhere from 1e-300 to 1e300."""
    exponent = st.floats(-300.0, 300.0)
    return st.builds(lambda ea, ek: (10.0 ** ea, 10.0 ** ek), exponent, exponent)


@settings(max_examples=300, deadline=None)
@given(f=extreme_params(), g=extreme_params(), far=st.floats(0.0, 308.0),
       multiples=st.lists(st.sampled_from([0.5, 0.9, 1.1, 2.0, 1e3]), max_size=3, unique=True))
def test_model_curves_are_normal_or_refused(f, g, far, multiples):
    # Every curve of a ratio model, on a grid reaching far into the past or at
    # levels next to the asymptote k_g/k_f, either raises or, when C != 0,
    # holds only values in float64's normal range.
    try:
        m = make_ratio(HyperbolicParams(*f), HyperbolicParams(*g))
    except ValueError:  # a/k, or a term of C, outside float64's normal range
        assume(False)
    end = min(last_guarded_time(m.f), last_guarded_time(m.g))
    assume(math.isfinite(end + 10.0 ** far))
    grid = np.linspace(-(10.0 ** far), end, 8)
    asymptote = m.g.k / m.f.k
    levels = [math.nextafter(asymptote, -math.inf), math.nextafter(asymptote, math.inf),
              *(asymptote * c for c in multiples)]
    calls = [(gradient_curve, grid), (growth_rate_curve, grid)]
    calls += [(curves_vs_size, [level]) for level in levels]  # one side's level is unattainable
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for build, x in calls:
            try:
                curves = build(m, x)
            except HypergrowthError:
                continue
            for curve in curves if isinstance(curves, tuple) else [curves]:
                normal = np.abs(curve.values) >= np.finfo(float).tiny
                assert m.modulation_constant == 0.0 or normal.all(), curve


class TestMonotonicityCheck:
    def test_escalating_gradient_is_increasing(self, escalating_model):
        grid = np.linspace(0.0, 2040.0, 512)
        result = monotonicity_check(gradient_curve(escalating_model, grid))
        assert result.verdict is Monotonicity.INCREASING
        assert result.first_violation is None

    def test_tie_is_non_monotone_at_index_one(self):
        curve = DiagnosticsCurve("time", "value", [0.0, 1.0], [1.0, 1.0])
        result = monotonicity_check(curve)
        assert result.verdict is Monotonicity.NON_MONOTONE
        assert result.first_violation == 1

    def test_diminishing_gradient_is_decreasing(self, diminishing_model):
        grid = np.linspace(0.0, 2040.0, 256)
        result = monotonicity_check(gradient_curve(diminishing_model, grid))
        assert result.verdict is Monotonicity.DECREASING

    # Each step is about 2e-13 of its values, and every one counts.
    @pytest.mark.parametrize("model, verdict", [
        ("escalating_model", Monotonicity.INCREASING),
        ("diminishing_model", Monotonicity.DECREASING),
    ])
    @pytest.mark.parametrize("build", [gradient_curve, growth_rate_curve])
    def test_every_tiny_step_counts_on_a_dense_grid(self, request, model, verdict, build):
        grid = np.linspace(-1e6, -999999.99, 100000)
        result = monotonicity_check(build(request.getfixturevalue(model), grid))
        assert result.verdict is verdict
        assert result.first_violation is None

    @pytest.mark.parametrize("build", [gradient_curve, growth_rate_curve])
    def test_constant_model_curves_are_non_monotone_at_one(self, build):
        # C = 0: the ratio is constant and both curves are exact zeros.
        m = make_ratio(HyperbolicParams(1, 0.5), HyperbolicParams(2, 1))
        result = monotonicity_check(build(m, np.linspace(0.0, 1.0, 16)))
        assert result.verdict is Monotonicity.NON_MONOTONE
        assert result.first_violation == 1

    def test_rise_then_fall_reports_first_fall(self):
        curve = DiagnosticsCurve("time", "value", [0.0, 1.0, 2.0, 3.0], [1.0, 2.0, 3.0, 2.5])
        result = monotonicity_check(curve)
        assert result.verdict is Monotonicity.NON_MONOTONE
        assert result.first_violation == 3

    def test_fall_then_rise_reports_first_rise(self):
        curve = DiagnosticsCurve("time", "value", [0.0, 1.0, 2.0, 3.0], [3.0, 2.0, 1.0, 1.5])
        result = monotonicity_check(curve)
        assert result.verdict is Monotonicity.NON_MONOTONE
        assert result.first_violation == 3

    def test_single_sample_rejected(self):
        curve = DiagnosticsCurve("time", "value", [0.0], [1.0])
        with pytest.raises(InsufficientDataError):
            monotonicity_check(curve)


@st.composite
def shape_models(draw):
    """Ratio models, half of them f over a scaled copy of f: C there is 0.0 or a rounding error."""
    a, t_s = draw(st.floats(1e-2, 1e2)), draw(st.floats(100.0, 5000.0))
    f = HyperbolicParams(a, a / t_s)
    if draw(st.booleans()):
        s = draw(st.floats(0.1, 10.0))
        return make_ratio(f, HyperbolicParams(a * s, f.k * s))
    b = draw(st.floats(1e-2, 1e2))
    return make_ratio(f, HyperbolicParams(b, b / draw(st.floats(100.0, 5000.0))))


# g is f scaled by 3 up to rounding, and C is the single rounding error 2**-57.
NEAR_PROPORTIONAL = make_ratio(
    HyperbolicParams(7.873971570789526, 0.0020202761029576868),
    HyperbolicParams(23.62191471236858, 0.00606082830887306),
)


@settings(max_examples=400, deadline=None)
@given(m=shape_models(), start=st.floats(-1e4, -1.0), frac=st.floats(0.0, 1.0),
       points=st.integers(2, 64))
@example(m=NEAR_PROPORTIONAL, start=-1.0, frac=1.0, points=512)
def test_shape_agrees_with_both_curves(m, start, frac, points):
    # CONSTANT exactly when both curves are exact zeros; otherwise every strictly
    # monotone curve moves the way the shape says, however small C is.
    grid = np.linspace(start, frac * min(last_guarded_time(m.f), last_guarded_time(m.g)), points)
    curves = gradient_curve(m, grid), growth_rate_curve(m, grid)
    shape = classify_shape(m)
    assert [not c.values.any() for c in curves] == [shape is Shape.CONSTANT] * 2
    verdicts = [monotonicity_check(c) for c in curves]
    if shape is Shape.CONSTANT:
        assert verdicts == [MonotonicityResult(Monotonicity.NON_MONOTONE, 1)] * 2
    elif all(v.verdict is not Monotonicity.NON_MONOTONE for v in verdicts):
        way = Monotonicity.INCREASING if shape is Shape.ESCALATING else Monotonicity.DECREASING
        assert {v.verdict for v in verdicts} == {way}


class TestSeriesGrowthRate:
    def test_centered_log_differences(self):
        series = TimeSeries(years=[0.0, 1.0, 3.0], values=[1.0, 2.0, 8.0])
        curve = series_growth_rate(series)
        np.testing.assert_allclose(curve.x, [1.0])
        assert curve.values[0] == pytest.approx(np.log(8.0) / 3.0)

    def test_matches_model_rate_on_dense_synthetic_data(self, escalating_model):
        grid = np.linspace(0.0, 1900.0, 2000)
        ratio_values = eval_ratio(escalating_model, grid)
        series = TimeSeries(years=grid, values=ratio_values)
        curve = series_growth_rate(series)
        from hypergrowth import ratio_growth_rate

        expected = ratio_growth_rate(escalating_model, curve.x)
        np.testing.assert_allclose(curve.values, expected, rtol=1e-4)

    def test_needs_three_points(self):
        with pytest.raises(InsufficientDataError):
            series_growth_rate(TimeSeries(years=[0.0, 1.0], values=[1.0, 2.0]))

    @pytest.mark.parametrize(
        "years, values, year",
        [([-1e308, 0.0, 1e308], [1.0, 2.0, 3.0], 0.0),  # the year span overflows
         ([0.0, 1.0, 2.0], [1e-300, 1.0, 1e300], 1.0),  # the value ratio overflows
         ([0.0, 1.0, 2.0], [1e300, 1.0, 1e-300], 1.0)],  # and underflows
        ids=["span", "ratio_overflow", "ratio_underflow"],
    )
    def test_outside_float64_refused_without_warning(self, years, values, year):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UnrepresentableError, match=f"growth rate at year {year:g} "):
                series_growth_rate(TimeSeries(years=years, values=values))


class TestBreakTest:
    def test_sums_below_normal_range_refused_per_candidate(self):
        # Criterion 6's null series times 1e300: F is nonzero, but the residual sums
        # of 1/y fall below float64's range, so no reader could check F from them.
        series = synthesize(F_PARAMS, np.linspace(1500.0, 1950.0, 31), noise_sigma=0.02, seed=1)
        big = TimeSeries(years=series.years, values=series.values * 1e300, name="big")
        entries = takeoff_scan(big, [1750.0, 1870.0])
        assert [entry.result for entry in entries] == [None, None]
        assert all(entry.error.startswith("series 'big': residual sums of squares of 1/y fall "
                                          "outside float64's normal range") for entry in entries)

    def test_subnormal_sums_refused(self):
        # Times 2**510 the sums are nonzero (about 3e-310) but below the smallest normal float.
        series = synthesize(F_PARAMS, np.linspace(1500.0, 1950.0, 31), noise_sigma=0.02, seed=1)
        scaled = TimeSeries(years=series.years, values=np.ldexp(series.values, 510), name="s")
        with pytest.raises(UnrepresentableError, match="outside float64's normal range"):
            break_test(scaled, 1750.0)

    def test_noiseless_hyperbolic_has_no_break(self):
        series = synthesize(F_PARAMS, np.linspace(1500.0, 1950.0, 31))
        result = break_test(series, 1750.0)
        assert result.decision is BreakDecision.NO_BREAK
        assert result.f_statistic == 0.0
        assert result.p_value == 1.0
        assert result.sse_single < 1e-20

    @pytest.mark.parametrize("j", [-300, 0, 600])
    @pytest.mark.parametrize("value", [2.2e-3, 0.1, 1.0, 3.0, 7.3])
    def test_constant_series_has_no_break(self, value, j):
        # Constant reciprocals lie on a flat line; their centred sum of squares is rounding noise.
        years = np.linspace(1500.0, 1950.0, 31)
        series = TimeSeries(years=years, values=np.full(years.size, np.ldexp(value, j)))
        result = break_test(series, 1750.0)
        assert (result.f_statistic, result.p_value) == (0.0, 1.0)
        assert result.decision is BreakDecision.NO_BREAK

    def test_noisy_null_rarely_flags(self):
        # smoke version of the calibration study: 300 trials at alpha=0.05
        years = np.linspace(1500.0, 1950.0, 31)
        clean = 1.0 / (F_PARAMS.a - F_PARAMS.k * years)
        rng = np.random.default_rng(20260810)
        flags = 0
        for _ in range(300):
            values = clean * np.exp(rng.normal(0.0, 0.005, years.size))
            result = break_test(TimeSeries(years=years, values=values), 1750.0)
            flags += result.decision is BreakDecision.BREAK_DETECTED
        assert flags / 300 <= 0.06  # no_break in at least 94% of trials

    def test_positive_control_detected(self):
        series = kinked_reciprocal_series(np.linspace(1500.0, 1950.0, 31))
        result = break_test(series, 1750.0)
        assert result.decision is BreakDecision.BREAK_DETECTED
        assert result.p_value < 0.01

    def test_segmented_never_worse_than_single(self):
        years = np.linspace(1200.0, 1950.0, 40)
        clean = 1.0 / (F_PARAMS.a - F_PARAMS.k * years)
        for seed in range(50):
            noise_rng = np.random.default_rng(seed)
            values = clean * np.exp(noise_rng.normal(0.0, 0.02, years.size))
            result = break_test(TimeSeries(years=years, values=values), 1750.0)
            assert result.sse_segmented <= result.sse_single * (1 + 1e-12)
            assert 0.0 <= result.p_value <= 1.0

    @pytest.mark.parametrize("alpha", [0.0, 1.0, np.nan])
    def test_alpha_outside_unit_interval(self, alpha):
        series = synthesize(F_PARAMS, np.linspace(1500.0, 1950.0, 31))
        with pytest.raises(ValueError, match="alpha must be in"):
            break_test(series, 1750.0, alpha=alpha)

    def test_two_exact_segments_give_infinite_f(self):
        # 1/y is 1, 2, 3, 4 then 6, 8, 10, 12: each side an exact line, the whole not one.
        series = TimeSeries(years=np.arange(8.0), values=1.0 / np.array([1, 2, 3, 4, 6, 8, 10, 12]))
        result = break_test(series, 3.5)
        assert result.sse_segmented == 0.0 < result.sse_single
        assert (result.f_statistic, result.p_value) == (math.inf, 0.0)
        assert result.decision is BreakDecision.BREAK_DETECTED

    def test_insufficient_segments(self):
        series = synthesize(F_PARAMS, np.linspace(1800.0, 1950.0, 12))
        with pytest.raises(InsufficientDataError):
            break_test(series, 1750.0)

    def test_points_at_break_year_join_second_segment(self):
        years = np.array([1600.0, 1650.0, 1700.0, 1750.0, 1800.0, 1850.0, 1900.0])
        series = synthesize(F_PARAMS, years)
        # 3 strictly before, 3 strictly after; the 1750 point itself rides along
        result = break_test(series, 1750.0)
        assert result.decision is BreakDecision.NO_BREAK

    def test_candidate_is_a_split_index(self):
        # Every break year in (t_{k-1}, t_k] puts the first k years in the first segment,
        # so it must give exactly the sums, F, p and decision of the data year t_k.
        series = synthesize(F_PARAMS, np.linspace(1500.0, 1950.0, 31), noise_sigma=0.02, seed=3)
        t = series.years
        fields = operator.attrgetter("sse_single", "sse_segmented", "f_statistic", "p_value",
                                     "decision")
        splits = 0
        for k in range(1, t.size):
            try:
                expected = fields(break_test(series, t[k]))
            except InsufficientDataError:
                continue
            for year in ((t[k - 1] + t[k]) / 2, np.nextafter(t[k], -np.inf)):
                assert fields(break_test(series, year)) == expected
            splits += 1
        assert splits == 25

    def test_noiseless_sums_that_overflow_refused(self):
        # A noiseless series' sums are rounding noise, kept even below float64's normal
        # range, but not when they overflow in the values' own units.
        series = synthesize(F_PARAMS, np.linspace(1500.0, 1950.0, 31))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for unit in (1e-200, 1e-300):
                scaled = TimeSeries(years=series.years, values=series.values * unit, name="s")
                with pytest.raises(UnrepresentableError, match="outside float64's normal range"):
                    break_test(scaled, 1750.0)
            scaled = TimeSeries(years=series.years, values=series.values * 1e-150, name="s")
            result = break_test(scaled, 1750.0)
        assert (result.f_statistic, result.p_value) == (0.0, 1.0)
        assert all(1e260 < s < 1e280 for s in (result.sse_single, result.sse_segmented))  # ~5e270


    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        j=st.integers(-1000, 1000),
        break_year=st.sampled_from([1600.0, 1750.0, 1870.0]),
    )
    def test_power_of_two_units_leave_f_and_p_unchanged(self, seed, j, break_year):
        # Criterion 6's null series in units of 2**-j: F, p and the decision are bitwise
        # those of the plain series, and the residual sums are scaled by exactly 2**(-2j),
        # or, where such a sum overflows or falls below float64's normal range, the test
        # refuses the series.
        years = np.linspace(1500.0, 1950.0, 31)
        clean = 1.0 / (F_PARAMS.a - F_PARAMS.k * years)
        values = clean * np.exp(np.random.default_rng(seed).normal(0.0, 0.005, years.size))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            base = break_test(TimeSeries(years=years, values=values), break_year)
            scaled_series = TimeSeries(years=years, values=np.ldexp(values, j), name="scaled")
            sums = (base.sse_single, base.sse_segmented)
            try:
                expected = [math.ldexp(s, -2 * j) for s in sums]
            except OverflowError:
                expected = None
            if expected is None or any(
                s != 0.0 and e < np.finfo(float).tiny for s, e in zip(sums, expected)
            ):
                with pytest.raises(UnrepresentableError, match="^series 'scaled': "):
                    break_test(scaled_series, break_year)
                return
            scaled = break_test(scaled_series, break_year)
        assert [scaled.sse_single, scaled.sse_segmented] == expected
        assert scaled.f_statistic == base.f_statistic
        assert scaled.p_value == base.p_value
        assert scaled.decision is base.decision


class TestFSurvival:
    """The break test's F(q, nu) upper tail, exact for every even q."""

    @pytest.mark.parametrize("q", [2, 4, 6, 8])
    def test_edges(self, q):
        # q * 1e308 overflows for every q here; a naive 1 - u would be inf/inf = nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for f_val in (0.0, 5e-324, 1e308, float("inf")):
                for df_den in (1.0, 10.0, 29.0):
                    expected = 1.0 if f_val < 1.0 else 0.0
                    assert f_survival(f_val, q, df_den) == expected
                    assert f_survival(np.float64(f_val), q, df_den) == expected

    def test_known_value(self):
        # F(2, 27) upper tail at its 95th percentile is 0.05
        crit = sp_stats.f.ppf(0.95, 2, 27)
        assert f_survival(crit, 2, 27.0) == pytest.approx(0.05, abs=1e-12)

    @pytest.mark.parametrize("q", [2, 4, 6, 8])
    def test_against_scipy(self, q):
        # an absolute bound: scipy's own relative error reaches ~5e-13 here (q = 8, nu = 127)
        rng = np.random.default_rng(13)
        worst = 0.0
        for _ in range(2000):
            df_den = float(rng.integers(1, 500))
            f_val = 10.0 ** rng.uniform(-3, 2)
            worst = max(worst, abs(f_survival(f_val, q, df_den) - sp_stats.f.sf(f_val, q, df_den)))
        assert worst < 1e-14

    @pytest.mark.parametrize("q", [2, 4, 6, 8])
    def test_matches_40_digit_decimal_oracle(self, q):
        # relative error over nu in [1, 1e5], F in [1e-6, 1e3], wherever p >= 1e-300
        worst = Decimal(0)
        with localcontext() as ctx:
            ctx.prec = 40
            for nu in np.geomspace(1.0, 1e5, 40):
                for f_val in np.geomspace(1e-6, 1e3, 40):
                    qf, dnu = q * Decimal(f_val), Decimal(nu)
                    term = total = Decimal(1)
                    for j in range(1, q // 2):
                        term *= (dnu / 2 + j - 1) / j * qf / (dnu + qf)
                        total += term
                    exact = (-dnu / 2 * (1 + qf / dnu).ln()).exp() * total
                    if exact < Decimal("1e-300"):
                        continue
                    got = Decimal(f_survival(float(f_val), q, float(nu)))
                    worst = max(worst, abs(got - exact) / exact)
        assert worst <= Decimal("1e-12")


class TestSegmentsSse:
    @settings(max_examples=200, deadline=None)
    @given(
        lengths=st.lists(st.integers(3, 12), min_size=1, max_size=4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_sums_slice_fits(self, lengths, seed):
        rng = np.random.default_rng(seed)
        n, splits = sum(lengths), np.cumsum(lengths)[:-1].tolist()
        t = np.sort(rng.uniform(1000.0, 2000.0, n))
        z = rng.uniform(1.0, 10.0, n)
        w = rng.uniform(0.1, 10.0, n)
        single = _segments_sse(t, z, w)
        assert single == _line_sse(t, z, w)[3]
        expected = 0.0  # added left to right on every Python, as the segment sums are
        for i, k in zip([0, *splits], [*splits, n]):
            expected += _line_sse(t[i:k], z[i:k], w[i:k])[3]
        assert _segments_sse(t, z, w, splits) == expected
        # nested: one split can only lower the residual sum, up to rounding
        assert _segments_sse(t, z, w, splits[:1]) <= single * (1 + 1e-12)


class TestTakeoffScan:
    def test_noiseless_synthetic_passes_both_defaults(self):
        series = synthesize(F_PARAMS, np.linspace(1500.0, 1950.0, 31))
        entries = takeoff_scan(series)
        assert [e.candidate_year for e in entries] == [1750.0, 1870.0]
        for entry in entries:
            assert entry.result.decision is BreakDecision.NO_BREAK
            assert entry.error is None

    def test_empty_candidates(self):
        series = synthesize(F_PARAMS, np.linspace(1500.0, 1950.0, 31))
        assert takeoff_scan(series, candidate_years=()) == []

    def test_positive_control_flags_1750_but_not_1870(self):
        # short pre-kink arm keeps the 1870 split uninformative; see notes on
        # construction: p(1750) < 1e-3 and p(1870) > 0.05 across noise seeds
        series = kinked_reciprocal_series(np.linspace(1700.0, 1900.0, 15), seed=7)
        entries = takeoff_scan(series, (1750.0, 1870.0))
        by_year = {e.candidate_year: e.result for e in entries}
        assert by_year[1750.0].decision is BreakDecision.BREAK_DETECTED
        assert by_year[1750.0].p_value < 0.01
        assert by_year[1870.0].decision is BreakDecision.NO_BREAK

    def test_errors_collected_not_fatal(self):
        series = synthesize(F_PARAMS, np.linspace(1500.0, 1950.0, 31))
        entries = takeoff_scan(series, (1750.0, 1949.0))
        assert entries[0].result is not None
        assert entries[1].result is None
        assert "strictly on each side" in entries[1].error
