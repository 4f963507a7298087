import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypergrowth import (
    DomainError,
    HyperbolicParams,
    derivative,
    eval_hyperbolic,
    growth_rate,
    inverse_time,
    reciprocal_value,
    singularity_time,
)

from conftest import finite_difference_step


def hyperbolic_params():
    """Strategy for valid parameter pairs with year-scale singularities."""
    return st.builds(
        lambda a, t_s: HyperbolicParams(a=a, k=a / t_s),
        a=st.floats(1e-2, 1e2),
        t_s=st.floats(50.0, 5000.0),
    )


class TestParams:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            HyperbolicParams(a=-1.0, k=1e-3)
        with pytest.raises(ValueError):
            HyperbolicParams(a=1.0, k=0.0)
        with pytest.raises(ValueError):
            HyperbolicParams(a=float("nan"), k=1e-3)

    def test_singularity_finite_positive(self, f_params):
        assert 0 < f_params.singularity_time < np.inf


class TestEval:
    def test_at_origin(self, f_params):
        assert eval_hyperbolic(f_params, 0.0) == pytest.approx(1 / 4.5, rel=1e-12)

    def test_hand_evaluation(self, f_params):
        # 1/(4.5 - 4.4) = 10
        assert eval_hyperbolic(f_params, 2000.0) == pytest.approx(10.0, rel=1e-12)

    def test_domain_error_near_singularity(self, f_params):
        with pytest.raises(DomainError):
            eval_hyperbolic(f_params, 2045.46)

    def test_array_input(self, f_params):
        out = eval_hyperbolic(f_params, [0.0, 2000.0])
        np.testing.assert_allclose(out, [1 / 4.5, 10.0], rtol=1e-12)

    def test_array_with_one_bad_point_raises(self, f_params):
        with pytest.raises(DomainError):
            eval_hyperbolic(f_params, [0.0, 2050.0])


class TestReciprocal:
    def test_intercept(self, f_params):
        assert reciprocal_value(f_params, 0.0) == 4.5

    def test_root_at_singularity(self, f_params):
        assert reciprocal_value(f_params, f_params.singularity_time) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_hand_evaluation(self, g_params):
        assert reciprocal_value(g_params, 1000.0) == pytest.approx(3.65, rel=1e-12)

    def test_defined_past_singularity(self, f_params):
        assert reciprocal_value(f_params, 3000.0) < 0


class TestSingularityTime:
    def test_reference_values(self, f_params, g_params):
        assert singularity_time(f_params) == pytest.approx(2045.4545454545455, rel=1e-12)
        assert singularity_time(g_params) == pytest.approx(2089.5522388059702, rel=1e-12)

    def test_fitted_gdp_scale(self):
        p = HyperbolicParams(a=1.716e-2, k=8.671e-6)
        assert singularity_time(p) == pytest.approx(1979.0, abs=0.5)


class TestInverseTime:
    def test_inverse_of_known_point(self, f_params):
        assert inverse_time(f_params, 10.0) == pytest.approx(2000.0, abs=1e-9)

    def test_inverse_of_origin(self, f_params):
        assert inverse_time(f_params, 1 / 4.5) == pytest.approx(0.0, abs=1e-9)

    def test_limit_is_singularity_time(self, f_params):
        t = inverse_time(f_params, 1e12)
        assert t < f_params.singularity_time
        assert t == pytest.approx(f_params.singularity_time, abs=1e-3)

    def test_rejects_nonpositive_size(self, f_params):
        with pytest.raises(DomainError):
            inverse_time(f_params, 0.0)
        with pytest.raises(DomainError):
            inverse_time(f_params, -3.0)


class TestDerivatives:
    def test_derivative_at_origin(self, f_params):
        assert derivative(f_params, 0.0) == pytest.approx(2.2e-3 / 20.25, rel=1e-12)

    def test_derivative_late(self, f_params):
        assert derivative(f_params, 2000.0) == pytest.approx(0.22, rel=1e-10)

    def test_growth_rate_at_origin(self, f_params, g_params):
        assert growth_rate(f_params, 0.0) == pytest.approx(2.2e-3 / 4.5, rel=1e-12)
        assert growth_rate(g_params, 0.0) == pytest.approx(3.35e-3 / 7.0, rel=1e-12)

    def test_growth_rate_times_value_is_derivative(self, f_params):
        for t in (0.0, 1000.0, 1900.0, 2040.0):
            assert growth_rate(f_params, t) * eval_hyperbolic(f_params, t) == pytest.approx(
                derivative(f_params, t), rel=1e-12
            )

    def test_domain_guard(self, f_params):
        with pytest.raises(DomainError):
            derivative(f_params, 2046.0)
        with pytest.raises(DomainError):
            growth_rate(f_params, 2046.0)


@given(p=hyperbolic_params(), frac=st.floats(0.0, 0.999999))
@settings(max_examples=200, deadline=None)
def test_reciprocal_identity(p, frac):
    # eval * reciprocal == 1 everywhere below the guard
    t = p.singularity_time * frac
    assert eval_hyperbolic(p, t) * reciprocal_value(p, t) == pytest.approx(1.0, rel=1e-12)


@given(p=hyperbolic_params(), offset=st.floats(1.0, 2000.0))
@settings(max_examples=200, deadline=None)
def test_inverse_round_trip(p, offset):
    t = p.singularity_time - offset
    t_back = inverse_time(p, eval_hyperbolic(p, t))
    assert t_back == pytest.approx(t, abs=1e-6)


@given(p=hyperbolic_params(), offset=st.floats(1.0, 2000.0))
@settings(max_examples=200, deadline=None)
def test_derivatives_match_finite_differences(p, offset):
    t = p.singularity_time - offset
    h = finite_difference_step(p, t)
    fd_value = (eval_hyperbolic(p, t + h) - eval_hyperbolic(p, t - h)) / (2 * h)
    assert derivative(p, t) == pytest.approx(fd_value, rel=1e-6)
    fd_log = (
        np.log(eval_hyperbolic(p, t + h)) - np.log(eval_hyperbolic(p, t - h))
    ) / (2 * h)
    assert growth_rate(p, t) == pytest.approx(fd_log, rel=1e-6)


@given(
    p=hyperbolic_params(),
    frac1=st.floats(0.0, 0.9999),
    frac2=st.floats(0.0, 0.9999),
)
@settings(max_examples=200, deadline=None)
def test_strict_monotonicity(p, frac1, frac2):
    lo, hi = sorted((frac1, frac2))
    t1 = p.singularity_time * lo
    t2 = p.singularity_time * hi
    if t2 - t1 < 1e-9 * p.singularity_time:
        return  # below float resolution of the evaluations
    assert eval_hyperbolic(p, t2) > eval_hyperbolic(p, t1)
    assert derivative(p, t2) > derivative(p, t1)
    assert growth_rate(p, t2) > growth_rate(p, t1)
