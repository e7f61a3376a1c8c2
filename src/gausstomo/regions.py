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

from .core import (Covariance2, DomainError, GaussianStateSpec, SchemeKind,
                   SQRT2, data_variances, effective_covariance)


@dataclass(frozen=True)
class DirectionVariancePair:
    """Marginal (sigma) and conditional (Sigma) standard deviations at one angle."""

    theta: float
    sigma: float
    Sigma: float


@dataclass(frozen=True)
class RegionAreas:
    """Areas enclosed by the polar boundaries r = sigma_theta and r = Sigma_theta."""

    s_sigma: float
    s_Sigma: float


def _direction_terms(cov: Covariance2, theta: float) -> tuple[float, float, float]:
    c, s = math.cos(theta), math.sin(theta)
    q = cov.g3 / SQRT2
    uu = cov.g1 * c * c + cov.g2 * s * s + 2.0 * q * s * c
    vv = cov.trace - uu
    uv = (cov.g2 - cov.g1) * s * c + q * (c * c - s * s)
    return uu, vv, uv


def marginal_std(cov: Covariance2, theta: float) -> float:
    """sigma_theta = sqrt(u^T G u) along the direction at angle theta."""
    if not cov.is_positive_definite():
        raise DomainError(f"covariance is not positive definite: {cov}")
    uu, _, _ = _direction_terms(cov, theta)
    return math.sqrt(uu)


def conditional_std(cov: Covariance2, theta: float) -> float:
    """Sigma_theta = (u^T G^-1 u)^(-1/2), via (G_uu G_vv - G_uv^2)/G_vv."""
    if not cov.is_positive_definite():
        raise DomainError(f"covariance is not positive definite: {cov}")
    uu, vv, uv = _direction_terms(cov, theta)
    return math.sqrt((uu * vv - uv * uv) / vv)


def region_boundaries(spec: GaussianStateSpec, samples: int) -> list[DirectionVariancePair]:
    """Tabulate sigma_theta (homodyne data) and Sigma_theta (heterodyne data).

    sigma comes from the homodyne effective covariance, Sigma from the
    heterodyne one; angles are uniform on [0, 2 pi) for direct polar plotting.
    """
    if samples < 4:
        raise DomainError(f"samples = {samples} must be at least 4")
    g_hom = effective_covariance(spec, SchemeKind.HOMODYNE)
    g_het = effective_covariance(spec, SchemeKind.HETERODYNE)
    out = []
    for k in range(samples):
        theta = 2.0 * math.pi * k / samples
        out.append(DirectionVariancePair(theta=theta,
                                         sigma=marginal_std(g_hom, theta),
                                         Sigma=conditional_std(g_het, theta)))
    return out


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
