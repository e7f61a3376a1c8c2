"""Directional data uncertainties and polar uncertainty regions.

For a zero-mean Gaussian with covariance G and a unit direction
u = (cos theta, sin theta):

    marginal variance     sigma^2 = u^T G u          (shadow of the blob)
    conditional variance  Sigma^2 = 1/(u^T G^-1 u)   (slice through centre)

Conditional never exceeds marginal for the same G, with equality on the
principal axes or for isotropic G.  Scheme pairing used throughout:
homodyne regions are built from the homodyne data covariance
G_W + (1-eta)/(2 eta) I, heterodyne regions from the heterodyne data
covariance G_W + (2-eta)/(2 eta) I (the two coincide with the ideal
Q-function covariance G_W + I/2 at eta = 1).  Confusing the heterodyne
offset with the Q-function one, 1/(2 eta), is the classic mistake here;
each operation states which matrix it uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (Covariance2, DomainError, GaussianStateSpec, NumericalError,
                   SchemeKind, SQRT2, data_variances)


@dataclass(frozen=True)
class RegionAreas:
    """Areas enclosed by the polar boundaries r = sigma_theta and r = Sigma_theta."""

    s_sigma: float
    s_Sigma: float


def _marginal_variance(cov: Covariance2, c, s):
    """u^T G u for u = (c, s); c and s may be floats or float64 arrays,
    which run the same operations."""
    q = cov.g3 / SQRT2
    return cov.g1 * c * c + cov.g2 * s * s + 2.0 * q * s * c


def _conditional_variance(cov: Covariance2, c, s):
    """Sigma^2 for u = (c, s) and v = (-s, c), on floats or float64 arrays
    as _marginal_variance.

    Sigma^2 = 1/(u^T G^-1 u) = det G / v^T G v is taken as
    g1 (g2/vv) - q (q/vv), with q = g3/sqrt2 and vv = v^T G v formed
    directly: no product of two variances leaves the float range before
    the division, and vv does not cancel as Tr G - u^T G u does.
    """
    q = cov.g3 / SQRT2
    vv = cov.g1 * s * s + cov.g2 * c * c - 2.0 * q * s * c
    return cov.g1 * (cov.g2 / vv) - q * (q / vv)


def _check_positive_definite(cov: Covariance2) -> None:
    if not cov.is_positive_definite():
        raise DomainError(f"covariance is not positive definite: {cov}")


def marginal_std(cov: Covariance2, theta: float) -> float:
    """sigma_theta = sqrt(u^T G u) along the direction at angle theta."""
    _check_positive_definite(cov)
    return math.sqrt(_marginal_variance(cov, math.cos(theta), math.sin(theta)))


def conditional_std(cov: Covariance2, theta: float) -> float:
    """Sigma_theta = (u^T G^-1 u)^(-1/2), via det G / v^T G v."""
    _check_positive_definite(cov)
    return math.sqrt(_conditional_variance(cov, math.cos(theta), math.sin(theta)))


def region_boundaries(spec: GaussianStateSpec,
                      samples: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tabulate sigma_theta (homodyne data) and Sigma_theta (heterodyne data).

    Returns float64 arrays (theta, sigma, Sigma), with the angles uniform on
    [0, 2 pi) for direct polar plotting.  Each is evaluated in the spec's
    eigenframe, where the squeezed axis lies at angle -phi: sigma from
    diag(d1, d2), the homodyne data variances, and Sigma from diag(e1, e2),
    the heterodyne ones, at the angle theta + phi.  So every entry equals
    marginal_std(Covariance2(d1, d2, 0.0), theta + phi), or conditional_std
    of Covariance2(e1, e2, 0.0) there, bit for bit, and no determinant or
    rotation cancels.  NumericalError if a variance is not a finite float.
    """
    if samples < 4:
        raise DomainError(f"samples = {samples} must be at least 4")
    g_hom, g_het = (Covariance2(*data_variances(spec.mu, spec.lam, spec.eta, scheme), 0.0)
                    for scheme in (SchemeKind.HOMODYNE, SchemeKind.HETERODYNE))
    theta = 2.0 * math.pi * np.arange(samples) / samples
    # math's cos and sin of theta + phi, as the scalar functions take them
    angles = [t + spec.phi for t in theta.tolist()]
    c = np.fromiter(map(math.cos, angles), float, samples)
    s = np.fromiter(map(math.sin, angles), float, samples)
    # IEEE arithmetic, silent as on Python floats: past the float range an
    # entry reads inf or nan, as the scalar functions give it
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        sigma2 = _marginal_variance(g_hom, c, s)
        big2 = _conditional_variance(g_het, c, s)
    # past the float range (eta near 5e-324) a variance reads inf, and
    # Sigma^2 = e1 (e2 / vv) then nan
    if not (np.isfinite(sigma2) & np.isfinite(big2)).all():
        raise NumericalError(f"a direction variance of the data covariances of {spec} "
                             "leaves the float range in float64")
    return theta, np.sqrt(sigma2), np.sqrt(big2)


def region_areas(spec: GaussianStateSpec) -> RegionAreas:
    """Exact areas of the two uncertainty regions, from the eigenvalues of
    each data covariance, so that they are exactly phi-free.

    The heterodyne boundary r = Sigma_theta is the ellipse of the
    heterodyne data covariance, area pi sqrt(det).  The homodyne boundary
    r = sigma_theta encloses (1/2) Int sigma_theta^2 dtheta, and only the
    isotropic part of G survives the angle average, so the area is
    (pi/2) Tr(G_hom) for arbitrary orientation and size.
    """
    d1, d2 = data_variances(spec.mu, spec.lam, spec.eta, SchemeKind.HOMODYNE)
    e1, e2 = data_variances(spec.mu, spec.lam, spec.eta, SchemeKind.HETERODYNE)
    return RegionAreas(s_sigma=0.5 * math.pi * (d1 + d2), s_Sigma=math.pi * math.sqrt(e1 * e2))


def critical_lambda_equal_areas(eta: float) -> float:
    """Squeezing at which the two region areas coincide (lambda < 1 branch).

    For minimum-uncertainty states (mu = 1) write t = (lambda + 1/lambda)/2.
    The areas are pi (t/2 + (1 - eta)/(2 eta)) and pi sqrt(1/4 + d t + d^2)
    with d = (2 - eta)/(2 eta), so equal areas means
    t^2 - 2t/eta - (3 - 2 eta)/eta^2 - 1 = 0.  The constant term is
    negative, so the quadratic has exactly one positive root,
    t* = (1 + sqrt(eta^2 - 2 eta + 4))/eta, and t* > 1 on (0, 1] because
    sqrt(eta^2 - 2 eta + 4) >= sqrt(3) > eta - 1.  The branch is
    lambda = 1/(t* + sqrt(t*^2 - 1)), written without cancellation; its
    reciprocal is the lambda > 1 solution of the same state rotated by pi/2.
    """
    if not 0.0 < eta <= 1.0:
        raise DomainError(f"eta = {eta} must lie in (0, 1]")
    t = (1.0 + math.sqrt(eta * eta - 2.0 * eta + 4.0)) / eta
    return 1.0 / (t + math.sqrt(t * t - 1.0))
