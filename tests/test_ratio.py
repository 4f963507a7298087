import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypergrowth import (
    DomainError,
    HyperbolicParams,
    NoSolutionError,
    Shape,
    classify_shape,
    eval_ratio,
    make_ratio,
    ratio_gradient,
    ratio_growth_rate,
    time_at_ratio,
)
from hypergrowth.ratio import PATHWAYS

from conftest import F_PARAMS, G_PARAMS, finite_difference_step


def ratio_models():
    p = st.builds(
        lambda a, t_s: HyperbolicParams(a=a, k=a / t_s),
        a=st.floats(1e-2, 1e2),
        t_s=st.floats(100.0, 5000.0),
    )
    return st.builds(make_ratio, p, p)


def valid_time(m, frac):
    """A time inside the model domain, parametrized by frac in [0, 1)."""
    return m.domain_end * frac


class TestMakeRatio:
    def test_modulation_constant(self, escalating_model):
        # k_f*a_g - k_g*a_f = 0.0154 - 0.015075
        assert escalating_model.modulation_constant == pytest.approx(3.25e-4, rel=1e-10)

    def test_identical_components_give_zero(self, f_params):
        assert make_ratio(f_params, f_params).modulation_constant == 0.0

    def test_antisymmetry_under_swap(self, escalating_model, diminishing_model):
        assert diminishing_model.modulation_constant == -escalating_model.modulation_constant

    def test_sign_matches_singularity_ordering(self, escalating_model):
        m = escalating_model
        assert np.sign(m.modulation_constant) == np.sign(
            m.g.singularity_time - m.f.singularity_time
        )

    @pytest.mark.parametrize("f, g", [
        ((1e200, 1e200), (1e200, 1.0)),  # k_f*a_g overflows to inf
        ((1e-300, 1e-301), (1e-300, 2e-301)),  # both terms underflow to 0
        ((1.0, 1e-160), (1e-160, 1.0)),  # k_f*a_g is subnormal
    ])
    def test_terms_of_c_outside_the_normal_range_refused(self, f, g):
        with pytest.raises(ValueError, match=r"k_f\*a_g and k_g\*a_f"):
            make_ratio(HyperbolicParams(*f), HyperbolicParams(*g))


class TestEvalRatio:
    def test_value_at_origin(self, escalating_model):
        for pathway in PATHWAYS:
            assert eval_ratio(escalating_model, 0.0, pathway) == pytest.approx(
                7.0 / 4.5, rel=1e-12
            )

    def test_identical_components_give_one(self, f_params):
        m = make_ratio(f_params, f_params)
        for t in (0.0, 1000.0, 2000.0):
            assert eval_ratio(m, t) == pytest.approx(1.0, rel=1e-12)

    def test_level_two_crossing(self, escalating_model):
        assert eval_ratio(escalating_model, 1904.7619047619048) == pytest.approx(
            2.0, rel=1e-9
        )

    def test_unknown_pathway(self, escalating_model):
        with pytest.raises(ValueError):
            eval_ratio(escalating_model, 0.0, "sideways")

    def test_domain_error_past_first_singularity(self, escalating_model):
        with pytest.raises(DomainError):
            eval_ratio(escalating_model, 2046.0)

    def test_diminishing_domain_ends_at_denominator_singularity(self, diminishing_model):
        # valid just below 2045.45 even though the numerator lives to 2089.55
        eval_ratio(diminishing_model, 2044.0)
        with pytest.raises(DomainError):
            eval_ratio(diminishing_model, 2046.0)


class TestGradient:
    def test_value_at_origin(self, escalating_model):
        expected = escalating_model.modulation_constant / 4.5**2
        assert ratio_gradient(escalating_model, 0.0) == pytest.approx(expected, rel=1e-12)

    def test_constant_model_is_flat(self, f_params):
        m = make_ratio(f_params, f_params)
        assert ratio_gradient(m, 0.0) == 0.0
        assert ratio_gradient(m, 1900.0) == 0.0

    def test_increases_with_time(self, escalating_model):
        assert ratio_gradient(escalating_model, 1900.0) > ratio_gradient(
            escalating_model, 1000.0
        )

    def test_sign_follows_constant(self, escalating_model, diminishing_model):
        assert ratio_gradient(escalating_model, 1000.0) > 0
        assert ratio_gradient(diminishing_model, 1000.0) < 0

    def test_no_square_overflow_far_in_the_past(self, escalating_model, diminishing_model):
        # (a_f - k_f*t)**2 overflows at t = -1e157; C / lin / lin is a tiny number of C's sign
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ratio_gradient(escalating_model, -1e157) > 0
            assert ratio_gradient(diminishing_model, -1e157) < 0


class TestGrowthRate:
    def test_value_at_origin(self, escalating_model):
        expected = 2.2e-3 / 4.5 - 3.35e-3 / 7.0
        assert ratio_growth_rate(escalating_model, 0.0) == pytest.approx(expected, rel=1e-10)

    def test_constant_model_is_flat(self, f_params):
        m = make_ratio(f_params, f_params)
        for t in (0.0, 500.0, 2000.0):
            assert ratio_growth_rate(m, t) == 0.0

    @pytest.mark.parametrize("t", [-1e16, -1e20, -1e150])
    def test_exact_far_from_singularities(self, escalating_model, diminishing_model, t):
        # k_f/lin_f - k_g/lin_g cancels to noise as |t| grows; the value must stay
        # C / (lin_f * lin_g), computed here in exact rationals from the float parameters.
        for m in (escalating_model, diminishing_model):
            af, kf, ag, kg, tt = map(Fraction, (m.f.a, m.f.k, m.g.a, m.g.k, t))
            exact = (kf * ag - kg * af) / ((af - kf * tt) * (ag - kg * tt))
            assert ratio_growth_rate(m, t) == pytest.approx(float(exact), rel=1e-12, abs=0.0)

    def test_gradient_identity(self, escalating_model):
        for t in (0.0, 800.0, 1900.0, 2040.0):
            lhs = ratio_growth_rate(escalating_model, t) * eval_ratio(escalating_model, t)
            assert lhs == pytest.approx(ratio_gradient(escalating_model, t), rel=1e-10)


class TestTimeAtRatio:
    def test_level_two(self, escalating_model):
        assert time_at_ratio(escalating_model, 2.0) == pytest.approx(
            1904.7619047619048, rel=1e-9
        )

    def test_initial_level(self, escalating_model):
        assert time_at_ratio(escalating_model, 7.0 / 4.5) == pytest.approx(0.0, abs=1e-9)

    def test_level_beyond_domain(self, escalating_model):
        # root of R(t)=1 sits at ~2173.9, past the numerator singularity
        with pytest.raises(NoSolutionError):
            time_at_ratio(escalating_model, 1.0)

    def test_asymptotic_level(self, escalating_model):
        with pytest.raises(NoSolutionError):
            time_at_ratio(escalating_model, G_PARAMS.k / F_PARAMS.k)

    def test_root_that_overflows_is_refused(self):
        # Next to the asymptote, level*k_f - k_g is subnormal and the root is -inf.
        m = make_ratio(HyperbolicParams(1.0, 1e-300), HyperbolicParams(1.0, 5e-301))
        with pytest.raises(NoSolutionError, match="has no representable crossing time"):
            time_at_ratio(m, np.nextafter(m.g.k / m.f.k, 1))

    def test_constant_model_has_no_crossings(self, f_params):
        m = make_ratio(f_params, f_params)
        with pytest.raises(NoSolutionError):
            time_at_ratio(m, 1.0)
        with pytest.raises(NoSolutionError):
            time_at_ratio(m, 2.0)


class TestClassifyShape:
    def test_reference_models(self, escalating_model, diminishing_model, f_params):
        assert classify_shape(escalating_model) is Shape.ESCALATING
        assert classify_shape(diminishing_model) is Shape.DIMINISHING
        assert classify_shape(make_ratio(f_params, f_params)) is Shape.CONSTANT

    def test_proportional_components_are_constant(self, f_params):
        scaled = HyperbolicParams(a=f_params.a * 3.0, k=f_params.k * 3.0)
        assert classify_shape(make_ratio(f_params, scaled)) is Shape.CONSTANT


@given(m=ratio_models(), frac=st.floats(-1.0, 0.999999))
@settings(max_examples=300)
def test_three_pathway_identity(m, frac):
    t = valid_time(m, frac)
    values = [eval_ratio(m, t, pathway) for pathway in PATHWAYS]
    for v in values[1:]:
        assert v == pytest.approx(values[0], rel=1e-12)


@given(m=ratio_models(), frac=st.floats(0.0, 0.999))
@settings(max_examples=200)
def test_reciprocal_closure(m, frac):
    t = valid_time(m, frac)
    swapped = make_ratio(m.g, m.f)
    assert eval_ratio(m, t) * eval_ratio(swapped, t) == pytest.approx(1.0, rel=1e-12)


@given(m=ratio_models(), frac=st.floats(0.0, 0.99))
@settings(max_examples=200)
def test_gradient_matches_finite_difference(m, frac):
    t = valid_time(m, frac)
    h = min(finite_difference_step(m.f, t), finite_difference_step(m.g, t))
    fd = (eval_ratio(m, t + h) - eval_ratio(m, t - h)) / (2 * h)
    grad = ratio_gradient(m, t)
    if grad == 0.0:
        # FD of an exactly-constant ratio only sees rounding noise ~eps*R/h
        assert fd == pytest.approx(0.0, abs=1e-10 * max(1.0, abs(eval_ratio(m, t))))
    else:
        # near-constant models drown the FD signal in rounding noise
        scale = abs(m.modulation_constant) / (m.f.k * m.g.a)
        if scale > 1e-2:
            assert fd == pytest.approx(grad, rel=1e-6)


@given(m=ratio_models(), frac=st.floats(0.0, 0.999))
@settings(max_examples=200)
def test_time_at_ratio_round_trip(m, frac):
    # nearly coincident singularities make the crossing ill-conditioned in
    # float arithmetic (the ratio is then almost flat); require a year apart
    if abs(m.f.singularity_time - m.g.singularity_time) < 1.0:
        return
    t = valid_time(m, frac)
    t_back = time_at_ratio(m, eval_ratio(m, t))
    assert t_back == pytest.approx(t, abs=1e-6)


def test_monotone_refutation_of_takeoff(escalating_model):
    # no stationary point, no sign change: value, gradient and growth rate
    # all strictly increase over any grid below the singularity
    grid = np.linspace(0.0, 2043.0, 1024)
    values = eval_ratio(escalating_model, grid)
    grad = ratio_gradient(escalating_model, grid)
    rate = ratio_growth_rate(escalating_model, grid)
    assert np.all(np.diff(values) > 0)
    assert np.all(np.diff(grad) > 0)
    assert np.all(np.diff(rate) > 0)
    assert np.all(grad > 0)
    assert np.all(rate > 0)


class TestDiminishingBehavior:
    def test_strictly_decreasing(self, diminishing_model):
        grid = np.linspace(0.0, 2044.4545, 2048)
        values = eval_ratio(diminishing_model, grid)
        assert np.all(np.diff(values) < 0)

    def test_collapse_toward_zero(self, diminishing_model):
        ts_g = diminishing_model.g.singularity_time
        final = eval_ratio(diminishing_model, ts_g - 1.0)
        initial = eval_ratio(diminishing_model, 0.0)
        # one year shy of the denominator singularity the ratio has shed
        # ~97.7% of its starting value and keeps falling to 0 at the edge
        assert final == pytest.approx(0.014562084423986573, rel=1e-12)
        assert initial == pytest.approx(0.6428571428571429, rel=1e-12)
        nearly_there = eval_ratio(diminishing_model, ts_g - 0.01)
        assert nearly_there < 0.01 * initial
