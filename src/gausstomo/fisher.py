"""Scaled Fisher information and Cramer-Rao bounds for covariance estimation.

For N copies measured by either scheme, the scaled Fisher matrix F over
the parameters (g1, g2, g3) bounds the scaled Hilbert-Schmidt error of any
unbiased covariance estimator from below by Tr F^-1.  Both bounds close
over Tr and det of the scheme's data covariance G = G_W + delta I, which is
diag(d1, d2) rotated by phi, with d1 = mu/(2 lam) + delta and
d2 = mu lam/2 + delta (`core.data_variances`):

    H_hom = 2 T (T + 3 sqrt(D)),   H_het = 2 (T^2 - D),   T = d1 + d2, D = d1 d2.

So every bound, on floats and arrays alike, is exactly phi-free and free of
cancellation.  A bound reads inf where T^2 overflows; gamma = H_het/H_hom
is then taken on the eigenvalues scaled by a power of two.

Every Fisher matrix is built in float64 in that eigenframe, reached from
the fixed frame by the angle -phi.  There F13 = F23 = 0, and the basis
change is orthogonal, so Tr F^-1 is the inverse trace of the 2x2 (g1, g2)
block plus 1/F33.  The fixed-frame matrix is the congruence M F M^T.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (SQRT2, DomainError, GaussianStateSpec, NumericalError, SchemeKind,
                   data_variances, delta_offset)

# Node-bunching strength for the homodyne Fisher quadrature (see
# fisher_hom_quadrature).  Widens the effective analyticity strip of the
# integrand by 1/(1 - 2 kappa) = 10 while keeping the substitution map
# monotone (kappa < 1/2).
BUNCH_KAPPA = 0.45


@dataclass(frozen=True)
class Fisher3:
    """3x3 scaled Fisher matrix over (g1, g2, g3), held in its eigenframe.

    `frame` is the matrix in the eigenframe of the data covariance, where
    F13 = F23 = 0; `angle` is the rotation that carries that frame onto the
    fixed one.
    """

    frame: np.ndarray
    angle: float

    @property
    def matrix(self) -> np.ndarray:
        """The matrix in the fixed (g1, g2, g3) coordinates."""
        m = _basis_congruence(self.angle)
        return m @ self.frame @ m.T

    def inverse_trace(self) -> float:
        f = self.frame
        det = f[0, 0] * f[1, 1] - f[0, 1] * f[0, 1]
        if not (det > 0 and f[2, 2] > 0):
            raise NumericalError("Fisher matrix is numerically singular")
        return float((f[0, 0] + f[1, 1]) / det + 1.0 / f[2, 2])


def _frame(f11: float, f22: float, f12: float, f33: float) -> np.ndarray:
    return np.array([[f11, f12, 0.0], [f12, f22, 0.0], [0.0, 0.0, f33]])


def _basis_congruence(angle: float) -> np.ndarray:
    """Orthogonal 3x3 change of (g1, g2, g3) coordinates under a plane rotation.

    M[k, l] = Tr(Gamma_k R Gamma_l R^T) for R = [[c, -s], [s, c]]; a
    covariance with coordinates g' in the rotated basis has coordinates
    M g' in the fixed basis, and Fisher matrices transport as M F' M^T.
    """
    c, s = math.cos(angle), math.sin(angle)
    sc = SQRT2 * s * c
    return np.array([[c * c, s * s, -sc], [s * s, c * c, sc], [sc, -sc, c * c - s * s]])


def _h_hom(d1, d2):
    """Homodyne closed form over the eigenvalues of its data covariance."""
    t = d1 + d2
    return 2.0 * t * (t + 3.0 * np.sqrt(d1 * d2))


def _h_het(d1, d2):
    """Heterodyne closed form over the eigenvalues of its data covariance."""
    t = d1 + d2
    return 2.0 * (t * t - d1 * d2)


def _bound(closed_form, scheme: SchemeKind, mu, lam, eta: float):
    """A closed form on the scheme's data covariance, for floats or arrays;
    inf where Tr^2 overflows (both forms are at least (3/2) Tr^2).  Only
    there can an operation overflow or turn nan, through inf * 0."""
    with np.errstate(over="ignore", invalid="ignore"):
        d1, d2 = data_variances(mu, lam, eta, scheme)
        t = d1 + d2
        return np.where(t * t < np.inf, closed_form(d1, d2), np.inf)


# Schemes of the data covariances that (H_hom, H_het) close over, by
# hypothetical mode: that comparison puts both closed forms on G_W itself,
# the data covariance of HYPOTHETICAL_NO_AK (offset 0).
_SCHEMES = {False: (SchemeKind.HOMODYNE, SchemeKind.HETERODYNE),
            True: (SchemeKind.HYPOTHETICAL_NO_AK, SchemeKind.HYPOTHETICAL_NO_AK)}


def crb_hom(spec: GaussianStateSpec) -> float:
    """Cramer-Rao bound on the scaled HS error for homodyne tomography;
    independent of phi, and inf past the float range."""
    return float(_bound(_h_hom, SchemeKind.HOMODYNE, spec.mu, spec.lam, spec.eta))


def crb_het(spec: GaussianStateSpec) -> float:
    """Cramer-Rao bound on the scaled HS error for heterodyne tomography."""
    return float(_bound(_h_het, SchemeKind.HETERODYNE, spec.mu, spec.lam, spec.eta))


def fisher_hom_closed(spec: GaussianStateSpec) -> Fisher3:
    """Closed-form scaled Fisher matrix for homodyne tomography.

    With r = sqrt(d1 d2), x = 2 (d1 + r) and y = 2 (d2 + r), the eigenframe
    entries are sums of positive terms, finite also at d1 = d2:

        F11 = 2 (2 d1 + d2 + 3 r)/x^3,   F22 = 2 (d1 + 2 d2 + 3 r)/y^3,
        F12 = F33/2 = 1/(x y).

    Its inverse trace reproduces crb_hom.
    """
    d1, d2 = data_variances(spec.mu, spec.lam, spec.eta, SchemeKind.HOMODYNE)
    r = math.sqrt(d1 * d2)
    x, y = 2.0 * (d1 + r), 2.0 * (d2 + r)
    f12 = 1.0 / (x * y)
    return Fisher3(_frame(2.0 * (2.0 * d1 + d2 + 3.0 * r) / x ** 3,
                          2.0 * (d1 + 2.0 * d2 + 3.0 * r) / y ** 3, f12, 2.0 * f12),
                   -spec.phi)


def fisher_het(spec: GaussianStateSpec) -> Fisher3:
    """Closed-form scaled Fisher matrix for heterodyne tomography.

    Exactly diagonal in the eigenframe: 1/(2 d1^2), 1/(2 d2^2), 1/(2 d1 d2).
    """
    d1, d2 = data_variances(spec.mu, spec.lam, spec.eta, SchemeKind.HETERODYNE)
    return Fisher3(_frame(0.5 / (d1 * d1), 0.5 / (d2 * d2), 0.0, 0.5 / (d1 * d2)),
                   -spec.phi)


def fisher_hom_quadrature(spec: GaussianStateSpec, nodes: int = 256) -> Fisher3:
    """Numerical route to the homodyne Fisher matrix (converges to the closed form).

    Integrates f(theta) = v v^T / (2 C^2), v = (c^2, s^2, sqrt2 s c), over
    theta in [0, pi) with uniform weight, in the eigenframe where
    C(theta) = d1 c^2 + d2 s^2.  There F13 and F23 vanish by symmetry and
    F33 = 2 F12, since v3^2 = 2 c^2 s^2.  The integrand has complex poles a
    distance ~sqrt(d_min/d_max) off the axis near the minor axis, so a
    uniform rule would need >> nodes points once the state is strongly
    squeezed; instead the periodic trapezoid rule is applied in a
    substituted variable theta(t) = theta0 + t - kappa sin(2t) that bunches
    nodes around the minor axis theta0 and keeps spectral convergence
    uniformly over the supported parameter range.
    """
    if nodes < 8:
        raise DomainError(f"nodes = {nodes} must be at least 8")
    d1, d2 = data_variances(spec.mu, spec.lam, spec.eta, SchemeKind.HOMODYNE)
    t = np.arange(nodes) * (math.pi / nodes)
    theta = (0.0 if d1 <= d2 else 0.5 * math.pi) + t - BUNCH_KAPPA * np.sin(2 * t)
    cc, ss = np.cos(theta) ** 2, np.sin(theta) ** 2
    cvar = d1 * cc + d2 * ss
    w = (1.0 - 2.0 * BUNCH_KAPPA * np.cos(2 * t)) / (2.0 * nodes * cvar * cvar)
    f12 = np.sum(w * cc * ss)
    return Fisher3(_frame(np.sum(w * cc * cc), np.sum(w * ss * ss), f12, 2.0 * f12),
                   -spec.phi)


@dataclass(frozen=True)
class CrbReport:
    """Bounds and their ratio for one scenario."""

    h_hom: float
    h_het: float
    gamma: float
    spec: GaussianStateSpec


def _scaled_variances(mu, lam, eta: float, schemes) -> dict:
    """(d1, d2), d1 <= d2, of each scheme's data covariance, all scaled by
    one power of two so that none leaves the float range.  The closed forms
    are homogeneous of degree two in them, so gamma is their ratio on these.

    They are mu q/2 + delta and mu r/2 + delta, with r = max(lam, 1/lam)
    and q = 1/r.  The scale is 2^-k, where k is the exponent of the largest
    of mu r and the offsets, and each entry is formed from mantissas and
    exponents so that none overflows on the way.
    """
    m_lam, e_lam = np.frexp(lam)
    m_mu, e_mu = np.frexp(mu)
    flip = lam < 1.0
    # r = m_r 2^e_r: lam, or 1/lam = (1/m_lam) 2^-e_lam
    m_r, e_r = np.where(flip, 1.0 / m_lam, m_lam), np.where(flip, -e_lam, e_lam)
    with np.errstate(over="ignore"):  # 1/lam, not taken where lam < 1
        q = np.where(flip, lam, 1.0 / lam)
    # below eta = 2^-60, c - eta rounds to c, so the offset (c - eta)/(2 eta)
    # is c/(2 eta) to the last bit and scales exactly with eta: it is taken
    # at eta 2^j, where it cannot overflow, and carries the 2^j in its exponent
    j = max(0, -60 - math.frexp(eta)[1])
    offsets = {scheme: math.frexp(delta_offset(math.ldexp(eta, j), scheme))
               for scheme in schemes}
    k = e_mu + e_r
    for m_d, e_d in offsets.values():
        if m_d:
            k = np.maximum(k, e_d + j)
    scaled = {}
    for scheme, (m_d, e_d) in offsets.items():
        delta = np.ldexp(m_d, e_d + j - k)
        scaled[scheme] = (np.ldexp(0.5 * m_mu * q, e_mu - k) + delta,
                          np.ldexp(0.5 * m_mu * m_r, e_mu + e_r - k) + delta)
    return scaled


def crb_report(spec: GaussianStateSpec, hypothetical: bool = False) -> CrbReport:
    """Evaluate both bounds and gamma = H_het/H_hom for one spec.

    It is the one-point ``gamma_surface``, so its bounds and gamma equal
    the surface's bit for bit.
    """
    table = gamma_surface([spec.lam], [spec.mu], spec.eta, hypothetical)
    return CrbReport(h_hom=float(table["h_hom"][0]), h_het=float(table["h_het"][0]),
                     gamma=float(table["gamma"][0]), spec=spec)


def gamma_surface(lambdas, mus, eta: float,
                  hypothetical: bool = False) -> dict[str, np.ndarray]:
    """Both bounds and gamma over a (lambda, mu) grid at fixed eta.

    Returns float64 columns ``lam``, ``mu``, ``h_hom``, ``h_het`` and
    ``gamma``, one entry per grid point, with lambda in the outer loop and mu
    in the inner loop, in the order given.  The bounds do not depend on phi,
    and in real mode they equal ``crb_hom`` and ``crb_het`` bit for bit: the
    grid runs the same operations on arrays.  A bound beyond the float range
    reads inf, and gamma there is still the finite ratio of the two bounds,
    taken on data covariances scaled by a power of two.  Any invalid point
    raises DomainError.
    """
    # each domain check concerns one parameter, so checking every lambda and
    # every mu once, beside a point of the other axis, covers the whole grid
    if len(lambdas) and len(mus):
        for lam, mu in [(lam, mus[0]) for lam in lambdas] + [(lambdas[0], mu) for mu in mus]:
            GaussianStateSpec(mu=mu, lam=lam, eta=eta)
    lam = np.repeat(np.asarray(lambdas, dtype=float), len(mus))
    mu = np.tile(np.asarray(mus, dtype=float), len(lambdas))
    hom, het = _SCHEMES[bool(hypothetical)]
    h_hom, h_het = _bound(_h_hom, hom, mu, lam, eta), _bound(_h_het, het, mu, lam, eta)
    far = np.isinf(h_hom) | np.isinf(h_het)
    with np.errstate(invalid="ignore"):  # inf/inf, replaced below
        gamma = h_het / h_hom
    if far.any():
        scaled = _scaled_variances(mu[far], lam[far], eta, (hom, het))
        gamma[far] = _h_het(*scaled[het]) / _h_hom(*scaled[hom])
    return {"lam": lam, "mu": mu, "h_hom": h_hom, "h_het": h_het, "gamma": gamma}


def critical_lambda_for_gamma(mu: float, eta: float) -> float | None:
    """Smallest lambda >= 1 where gamma(lambda; mu, eta) crosses one.

    With t = (lambda + 1/lambda)/2, each data covariance has
    T = Tr G = mu t + 2 delta and D = det G = mu^2/4 + delta mu t + delta^2,
    so gamma = 1 reads L(t) = 3 T_hom sqrt(D_hom), where
    L = T_het^2 - D_het - T_hom^2 is linear in t.  Squaring gives the cubic
    L^2 = 9 T_hom^2 D_hom; its real roots with t >= 1 and L >= 0 are the
    crossings, and the smallest maps back to lambda = t + sqrt(t^2 - 1).
    Returns None when there is none (a valid outcome: e.g. at mu = 1 and
    eta = 1 the ratio stays above one for every squeezing).
    """
    GaussianStateSpec(mu=mu, lam=1.0, eta=eta)  # validates mu and eta
    dh = delta_offset(eta, SchemeKind.HOMODYNE)
    # The coefficients are written in dh and m = mu^2 - 1, with
    # delta_het = 2 dh + 1/2, so that none cancels near (mu, eta) = (1, 1),
    # where the crossing runs off to infinity: at eta = 1 the t^2 one is
    # 9 mu^4/4 - (3 mu/2)^2 = 9 mu^2 m / 4.  m = (mu - 1)(mu + 1) is exact
    # to rounding, where mu * mu - 1 would cancel.
    m = (mu - 1.0) * (mu + 1.0)
    b = 0.5 - 0.25 * m + dh * (6.0 + 8.0 * dh)
    ell = np.array([mu * (1.5 + 2.0 * dh), b])
    # 9 T_hom^2 D_hom - L^2, highest power of t first
    cubic = np.array([9.0 * dh * mu ** 3,
                      mu * mu * (2.25 * m + dh * (41.0 * dh - 6.0)),
                      mu * (0.75 * m - 1.5 + dh * (10.0 * m - 11.0 + dh * (40.0 * dh - 48.0))),
                      9.0 * dh * dh * (mu * mu + 4.0 * dh * dh) - b * b])
    ts = [r.real for r in np.roots(cubic)
          if r.imag == 0.0 and r.real >= 1.0 and np.polyval(ell, r.real) >= 0.0]
    if not ts:
        return None
    t = min(ts)
    return float(t + math.sqrt((t - 1.0) * (t + 1.0)))
