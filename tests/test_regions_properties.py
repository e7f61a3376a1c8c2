"""Property check of the uncertainty regions: along every direction the
conditional standard deviation is at most the marginal one."""

import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from gausstomo import Covariance2, conditional_std, marginal_std

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
