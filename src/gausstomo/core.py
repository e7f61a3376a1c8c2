"""Covariance-matrix and state types for single-mode Gaussian states.

All covariances live in hbar = 1 units where the vacuum state has
quadrature variances of one half.  A 2x2 symmetric covariance matrix is
stored as the triple (g1, g2, g3),

    G = [[g1, g3/sqrt(2)], [g3/sqrt(2), g2]],

which is the coordinate vector of G in the trace-orthonormal basis
{diag(1,0), diag(0,1), offdiag(1/sqrt 2)}.  Fisher matrices, estimators
and distances all share this coordinate system.  Rotation invariants of
a data covariance are taken from its eigenvalues (`data_variances`).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

SQRT2 = math.sqrt(2.0)

# Slack absorbed when specs round-trip through JSON files.
MU_TOLERANCE = 1e-12


class DomainError(ValueError):
    """Raised when an input lies outside an operation's physical domain."""


class NumericalError(RuntimeError):
    """Raised when a numeric routine cannot certify its result."""


class SchemeKind(enum.Enum):
    """Detection scheme selector.

    HYPOTHETICAL_NO_AK is the thought experiment with both detection
    offsets set to zero (no Arthurs-Kelly penalty for joint measurement);
    only operations that explicitly document it accept this member.
    """

    HOMODYNE = "homodyne"
    HETERODYNE = "heterodyne"
    HYPOTHETICAL_NO_AK = "hypothetical-no-ak"


@dataclass(frozen=True)
class Covariance2:
    """Symmetric 2x2 covariance matrix in (g1, g2, g3) coordinates.

    g1 and g2 are the diagonal quadrature variances; the off-diagonal
    element equals g3/sqrt(2).  Only the three independent entries are
    stored, so symmetry holds by construction.
    """

    g1: float
    g2: float
    g3: float

    @property
    def trace(self) -> float:
        return self.g1 + self.g2

    @property
    def det(self) -> float:
        return self.g1 * self.g2 - 0.5 * self.g3 * self.g3

    def is_positive_definite(self) -> bool:
        return self.g1 > 0.0 and self.g2 > 0.0 and self.det > 0.0

    def as_matrix(self) -> np.ndarray:
        q = self.g3 / SQRT2
        return np.array([[self.g1, q], [q, self.g2]])

    def eigenvalues(self) -> tuple[float, float]:
        """Eigenvalues in ascending order, by the stable 2x2 closed form."""
        half_tr = 0.5 * self.trace
        # discriminant = ((g1-g2)/2)^2 + offdiag^2, offdiag = g3/sqrt(2)
        rad = math.hypot(0.5 * (self.g1 - self.g2), self.g3 / SQRT2)
        return half_tr - rad, half_tr + rad

    def principal_angle(self) -> float:
        """Angle of the eigenvector of the larger eigenvalue, in [0, pi).

        Ill-defined for isotropic matrices; returns 0 there by tie-break.
        """
        if self.g3 == 0.0 and self.g1 == self.g2:
            return 0.0
        ang = 0.5 * math.atan2(SQRT2 * self.g3, self.g1 - self.g2)
        if self.g1 * math.cos(ang) ** 2 + self.g2 * math.sin(ang) ** 2 \
                + SQRT2 * self.g3 * math.sin(ang) * math.cos(ang) < 0.5 * self.trace:
            ang += 0.5 * math.pi
        return ang % math.pi


@dataclass(frozen=True)
class GaussianStateSpec:
    """Physical scenario: state size mu, shape lam, orientation phi, efficiency eta.

    The Wigner covariance is (mu/2) diag(1/lam, lam) rotated by phi, so
    det G_W = mu^2/4 and mu >= 1 is the Heisenberg bound.  lam and 1/lam
    with phi shifted by pi/2 describe the same state, and both are
    accepted.
    """

    mu: float
    lam: float
    phi: float = 0.0
    eta: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.mu) and math.isfinite(self.lam)
                and math.isfinite(self.phi) and math.isfinite(self.eta)):
            raise DomainError("state parameters must be finite")
        if self.mu < 1.0 - MU_TOLERANCE:
            raise DomainError(f"mu = {self.mu} violates the Heisenberg bound mu >= 1")
        if self.lam <= 0.0:
            raise DomainError(f"lam = {self.lam} must be positive")
        if not 0.0 <= self.phi < math.pi:
            raise DomainError(f"phi = {self.phi} must lie in [0, pi)")
        if not 0.0 < self.eta <= 1.0:
            raise DomainError(f"eta = {self.eta} must lie in (0, 1]")


def delta_offset(eta: float, scheme: SchemeKind) -> float:
    """Additive identity offset turning G_W into the scheme's data covariance.

    Homodyne records carry only the detection-loss penalty (1-eta)/(2 eta);
    heterodyne records additionally pay half a vacuum unit before the loss
    rescaling, giving (2-eta)/(2 eta).  The hypothetical no-penalty scheme
    has offset zero.
    """
    if scheme is SchemeKind.HOMODYNE:
        return (1.0 - eta) / (2.0 * eta)
    if scheme is SchemeKind.HETERODYNE:
        return (2.0 - eta) / (2.0 * eta)
    if scheme is SchemeKind.HYPOTHETICAL_NO_AK:
        return 0.0
    raise DomainError(f"unknown scheme {scheme!r}")


def wigner_covariance(spec: GaussianStateSpec) -> Covariance2:
    """Wigner covariance of the state: (mu/2) diag(1/lam, lam) rotated by phi.

    At phi = 0 the squeezed quadrature lies along x.  phi tilts the
    principal axes so that g3 = (mu/2)(lam - 1/lam) sin(2 phi)/sqrt(2);
    det G_W = mu^2/4 for every phi.
    """
    a = spec.mu / (2.0 * spec.lam)
    b = spec.mu * spec.lam / 2.0
    c, s = math.cos(spec.phi), math.sin(spec.phi)
    return Covariance2(a * c * c + b * s * s,
                       a * s * s + b * c * c,
                       (b - a) * SQRT2 * s * c)


def data_variances(mu, lam, eta: float, scheme: SchemeKind):
    """Eigenvalues (mu/(2 lam) + delta, mu lam/2 + delta) of the scheme's
    data covariance, whatever phi: sums of positive terms, so Tr and det
    formed from them do not cancel.  mu and lam may be float64 arrays; nothing
    is validated."""
    delta = delta_offset(eta, scheme)
    return mu / (2.0 * lam) + delta, mu * lam / 2.0 + delta


def effective_covariance(spec: GaussianStateSpec, scheme: SchemeKind) -> Covariance2:
    """Covariance of the data distribution seen by a detection scheme."""
    g = wigner_covariance(spec)
    delta = delta_offset(spec.eta, scheme)
    return Covariance2(g.g1 + delta, g.g2 + delta, g.g3)


def squeezing_db(spec: GaussianStateSpec) -> tuple[float, float]:
    """(squeeze_db, antisqueeze_db): principal Wigner variances vs shot noise.

    The minor/major variances are (mu/2)/lam and (mu/2)*lam, so relative to
    the vacuum level 1/2 the levels are 10 log10(mu/lam) and 10 log10(mu*lam).
    """
    return 10.0 * math.log10(spec.mu / spec.lam), 10.0 * math.log10(spec.mu * spec.lam)
