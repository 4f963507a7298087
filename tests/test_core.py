import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypergrowth import (
    DomainError,
    HyperbolicParams,
    eval_hyperbolic,
    reciprocal_value,
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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kind", [float, np.float64], ids=["float", "numpy"])
    def test_rejects_overflowing_singularity_time(self, kind):
        with pytest.raises(ValueError, match="a/k"):
            HyperbolicParams(a=kind(1e300), k=kind(1e-10))

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
        assert f_params.singularity_time == pytest.approx(2045.4545454545455, rel=1e-12)
        assert g_params.singularity_time == pytest.approx(2089.5522388059702, rel=1e-12)

    def test_fitted_gdp_scale(self):
        p = HyperbolicParams(a=1.716e-2, k=8.671e-6)
        assert p.singularity_time == pytest.approx(1979.0, abs=0.5)


@given(p=hyperbolic_params(), frac=st.floats(0.0, 0.999999))
@settings(max_examples=200)
def test_reciprocal_identity(p, frac):
    # eval * reciprocal == 1 everywhere below the guard
    t = p.singularity_time * frac
    assert eval_hyperbolic(p, t) * reciprocal_value(p, t) == pytest.approx(1.0, rel=1e-12)


@given(p=hyperbolic_params(), offset=st.floats(1.0, 2000.0))
@settings(max_examples=200)
def test_inverse_round_trip(p, offset):
    # the closed-form inverse a/k - 1/(k*f) recovers t from the trajectory value
    t = p.singularity_time - offset
    t_back = p.a / p.k - 1.0 / (p.k * eval_hyperbolic(p, t))
    assert t_back == pytest.approx(t, abs=1e-6)


@given(p=hyperbolic_params(), offset=st.floats(1.0, 2000.0))
@settings(max_examples=200)
def test_derivatives_match_finite_differences(p, offset):
    # the trajectory obeys the hyperbolic growth law f' = k*f**2, so f'/f = k*f
    t = p.singularity_time - offset
    h = finite_difference_step(p, t)
    f = eval_hyperbolic(p, t)
    fd_value = (eval_hyperbolic(p, t + h) - eval_hyperbolic(p, t - h)) / (2 * h)
    assert p.k * f**2 == pytest.approx(fd_value, rel=1e-6)
    fd_log = (
        np.log(eval_hyperbolic(p, t + h)) - np.log(eval_hyperbolic(p, t - h))
    ) / (2 * h)
    assert p.k * f == pytest.approx(fd_log, rel=1e-6)


@given(
    p=hyperbolic_params(),
    frac1=st.floats(0.0, 0.9999),
    frac2=st.floats(0.0, 0.9999),
)
@settings(max_examples=200)
def test_strict_monotonicity(p, frac1, frac2):
    lo, hi = sorted((frac1, frac2))
    t1 = p.singularity_time * lo
    t2 = p.singularity_time * hi
    if t2 - t1 < 1e-9 * p.singularity_time:
        return  # below float resolution of the evaluations
    assert eval_hyperbolic(p, t2) > eval_hyperbolic(p, t1)
