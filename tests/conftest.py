import contextlib
import warnings

import numpy as np
import pytest

# Hypothesis imports this module to print a failing example as a patch. Its
# first import can warn (libcst pulls in a deprecated mypy_extensions name),
# which a test marked filterwarnings("error") turns into an INTERNALERROR that
# hides the failure and ends the session. Import it once here instead; the
# third-party deprecation is ignored for this import only.
with contextlib.suppress(ImportError), warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401

from hypothesis import settings

from hypergrowth import HyperbolicParams, make_ratio

# The tests make no timing assertion, so no example has a deadline. Re-registering the
# active profile reloads it, and every @settings decorator inherits from it. (Under CI,
# Hypothesis loads its "ci" profile, which has no deadline either.)
settings.register_profile("default", settings.get_profile("default"), deadline=None)

# The two synthetic parameter sets used throughout: singularities near
# 2045.45 and 2089.55, ratio escalating toward the earlier one.
F_PARAMS = HyperbolicParams(a=4.5, k=2.2e-3)
G_PARAMS = HyperbolicParams(a=7.0, k=3.35e-3)

#: Seed of the acceptance criteria's noisy draws.
SEED = 20260810


@pytest.fixture
def f_params():
    return F_PARAMS


@pytest.fixture
def g_params():
    return G_PARAMS


@pytest.fixture
def escalating_model():
    return make_ratio(F_PARAMS, G_PARAMS)


@pytest.fixture
def diminishing_model():
    return make_ratio(G_PARAMS, F_PARAMS)


def random_params(rng: np.random.Generator, t_s_range=(50.0, 5000.0)) -> HyperbolicParams:
    """Random valid parameters with singularity time in the given range."""
    a = 10.0 ** rng.uniform(-2, 2)
    t_s = rng.uniform(*t_s_range)
    return HyperbolicParams(a=a, k=a / t_s)


def finite_difference_step(p: HyperbolicParams, t) -> float:
    """Central-difference step for validating analytic derivatives.

    h = max(1e-4, 1e-6 * (t_s - t)) balances truncation against rounding
    as the trajectory steepens toward the singularity.
    """
    return max(1e-4, 1e-6 * (p.singularity_time - float(t)))
