"""Property checks of the Fisher layer and the gamma = 1 crossing."""

import dataclasses
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gausstomo import (GaussianStateSpec, crb_het, crb_hom, crb_report,
                       critical_lambda_for_gamma, fisher_het, fisher_hom_closed,
                       fisher_hom_quadrature, gamma_surface)

# the domain of acceptance criterion 1
MU = st.floats(1.0, 20.0)
LAM = st.floats(1.0, 100.0)
PHI = st.floats(0.0, math.pi, exclude_max=True)
ETA = st.floats(0.05, 1.0)

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@PROPERTY
@given(MU, LAM, ETA, PHI, PHI)
def test_inverse_traces_and_bounds_do_not_depend_on_phi(mu, lam, eta, phi_a, phi_b):
    a = GaussianStateSpec(mu, lam, phi_a, eta)
    b = GaussianStateSpec(mu, lam, phi_b, eta)
    # phi enters a Fisher matrix only through the congruence to the fixed frame
    for fisher in (fisher_hom_closed, fisher_het, fisher_hom_quadrature):
        assert fisher(a).inverse_trace() == fisher(b).inverse_trace()
    # and the bounds not at all: they read the eigenvalues the spec gives
    assert crb_hom(a) == crb_hom(b)
    assert crb_het(a) == crb_het(b)
    assert crb_report(a) == dataclasses.replace(crb_report(b), spec=a)


@PROPERTY
@given(MU, LAM, PHI, ETA)
def test_quadrature_inverse_trace_is_the_homodyne_bound(mu, lam, phi, eta):
    spec = GaussianStateSpec(mu, lam, phi, eta)
    assert fisher_hom_quadrature(spec, 256).inverse_trace() == \
        pytest.approx(crb_hom(spec), rel=1e-8)


@PROPERTY
@given(st.floats(1.0, 3.0), ETA)
def test_gamma_is_one_at_every_crossing(mu, eta):
    root = critical_lambda_for_gamma(mu, eta)
    assume(root is not None)
    assert root >= 1.0
    assert crb_report(GaussianStateSpec(mu, root, eta=eta)).gamma == \
        pytest.approx(1.0, abs=1e-8)


# grid values from the acceptance domain and past the float range
GRID_LAM = st.lists(st.one_of(st.floats(1e-3, 1e3), st.sampled_from([1e-300, 1e200, 1e300])),
                    min_size=1, max_size=4)
GRID_MU = st.lists(st.one_of(st.floats(1.0, 20.0), st.sampled_from([1e100, 1e300])),
                   min_size=1, max_size=3)
ANY_ETA = st.one_of(ETA, st.sampled_from([1e-300, 5e-324, 1.0]))


@PROPERTY
@given(GRID_LAM, GRID_MU, ANY_ETA, ANY_ETA)
def test_hypothetical_surface_does_not_depend_on_eta(lams, mus, eta_a, eta_b):
    # the surface runner computes one hypothetical block and repeats it for
    # every eta, so the columns must agree bit for bit
    a = gamma_surface(lams, mus, eta_a, hypothetical=True)
    b = gamma_surface(lams, mus, eta_b, hypothetical=True)
    assert a.keys() == b.keys()
    for key in a:
        assert a[key].dtype == b[key].dtype == np.float64
        assert a[key].tobytes() == b[key].tobytes()
