"""Property checks of the uncertainty regions: along every direction the
conditional standard deviation is at most the marginal one, and the
tabulated boundaries are the scalar functions at each angle."""

import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from gausstomo import (Covariance2, GaussianStateSpec, SchemeKind, conditional_std,
                       marginal_std, region_boundaries)
from gausstomo.core import data_variances

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)


@st.composite
def positive_definite(draw):
    """(g1, g2, g3) with g1, g2 > 0 and correlation strictly inside (-1, 1)."""
    g1 = draw(st.floats(1e-3, 1e3))
    g2 = draw(st.floats(1e-3, 1e3))
    rho = draw(st.floats(-0.999, 0.999))
    return Covariance2(g1, g2, rho * math.sqrt(2.0 * g1 * g2))


@PROPERTY
@given(cov=positive_definite(), theta=st.floats(-2 * math.pi, 2 * math.pi))
def test_conditional_std_is_at_most_marginal(cov, theta):
    # rounding allowance relative to the matrix scale, as in acceptance
    # criterion 4
    assert conditional_std(cov, theta) <= marginal_std(cov, theta) + 1e-12 * math.sqrt(cov.trace)


@PROPERTY
@given(mu=st.floats(1.0, 1e3), lam=st.floats(1e-3, 1e3),
       phi=st.floats(0.0, math.pi, exclude_max=True), eta=st.floats(1e-3, 1.0),
       samples=st.integers(4, 300))
def test_region_boundaries_are_the_scalar_functions(mu, lam, phi, eta, samples):
    # every entry of the vectorised pass, bit for bit, in the eigenframe:
    # the data variances along the principal axes, the squeezed one at -phi
    spec = GaussianStateSpec(mu, lam, phi, eta)
    theta, sigma, Sigma = region_boundaries(spec, samples)
    g_hom = Covariance2(*data_variances(mu, lam, eta, SchemeKind.HOMODYNE), 0.0)
    g_het = Covariance2(*data_variances(mu, lam, eta, SchemeKind.HETERODYNE), 0.0)
    assert theta.tolist() == [2.0 * math.pi * k / samples for k in range(samples)]
    assert sigma.tolist() == [marginal_std(g_hom, t + phi) for t in theta.tolist()]
    assert Sigma.tolist() == [conditional_std(g_het, t + phi) for t in theta.tolist()]
