"""Scaled Fisher information and Cramer-Rao bounds for covariance estimation.

For N copies measured by either scheme, the scaled Fisher matrix F over
the parameters (g1, g2, g3) bounds the scaled Hilbert-Schmidt error of any
unbiased covariance estimator from below by Tr F^-1.  Both bounds close
over the matrix invariants of the scheme's effective covariance G:

    H_hom = 2 Tr(G) (Tr(G) + 3 sqrt(det G)),     G = G_W + delta_hom * I
    H_het = 2 ((Tr G)^2 - det G),                G = G_W + delta_het * I

Full 3x3 matrices are built in the eigenframe of G and transported back
with the orthogonal basis-change congruence F -> M F M^T.

Internal linear algebra runs in extended precision (np.longdouble): the
Fisher matrix of a strongly squeezed state has a condition number of
order (lam^2 (1 + delta/g_min)^-1)^2, up to 1e8 on the tested domain, and
plain float64 inversion could not certify the inverse-trace identities at
the tolerances the test suite pins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (Covariance2, DomainError, GaussianStateSpec, SchemeKind,
                   delta_offset, effective_covariance, wigner_covariance_of)

LD = np.longdouble
SQRT2_LD = np.sqrt(LD(2))

# Node-bunching strength for the homodyne Fisher quadrature (see
# fisher_hom_quadrature).  Widens the effective analyticity strip of the
# integrand by 1/(1 - 2 kappa) = 10 while keeping the substitution map
# monotone (kappa < 1/2).
BUNCH_KAPPA = 0.45


class NumericalError(RuntimeError):
    """Raised when a numeric routine cannot certify its result."""


@dataclass(frozen=True)
class Fisher3:
    """3x3 symmetric scaled Fisher matrix over (g1, g2, g3).

    `matrix` is kept in extended precision.  When the matrix was built
    from a closed form in the eigenframe, `frame` holds that (block)
    eigenframe matrix and `inverse_trace` uses it through numerically
    stable scalar formulas; otherwise a direct adjugate inverse is used.
    """

    matrix: np.ndarray
    frame: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=LD)
        if m.shape != (3, 3):
            raise DomainError(f"Fisher matrix must be 3x3, got {m.shape}")
        object.__setattr__(self, "matrix", 0.5 * (m + m.T))

    def as_float64(self) -> np.ndarray:
        return self.matrix.astype(float)

    def is_positive_semidefinite(self, rel_tol: float = 1e-10) -> bool:
        evals = np.linalg.eigvalsh(self.as_float64())
        scale = float(np.max(np.abs(self.matrix)))
        return bool(evals.min() >= -rel_tol * scale)

    def inverse_trace(self) -> float:
        src = self.frame if self.frame is not None else self.matrix
        return float(_inverse_trace_3x3(np.asarray(src, dtype=LD)))


def _inverse_trace_3x3(f: np.ndarray) -> LD:
    """Tr(F^-1) of a symmetric PD 3x3 via the adjugate, in extended precision."""
    a, b, c = f[0, 0], f[0, 1], f[0, 2]
    d, e = f[1, 1], f[1, 2]
    g = f[2, 2]
    a11 = d * g - e * e
    a22 = a * g - c * c
    a33 = a * d - b * b
    det = a * a11 - b * (b * g - e * c) + c * (b * e - d * c)
    if not det > 0:
        raise NumericalError("Fisher matrix is numerically singular")
    return (a11 + a22 + a33) / det


def _basis_congruence(angle: float) -> np.ndarray:
    """Orthogonal 3x3 change of (g1, g2, g3) coordinates under a plane rotation.

    M[k, l] = Tr(Gamma_k R Gamma_l R^T) for R = [[c, -s], [s, c]]; a
    covariance with coordinates g' in the rotated basis has coordinates
    M g' in the fixed basis, and Fisher matrices transport as M F' M^T.
    """
    c, s = np.cos(LD(angle)), np.sin(LD(angle))
    sc = s * c
    return np.array([
        [c * c, s * s, -SQRT2_LD * sc],
        [s * s, c * c, SQRT2_LD * sc],
        [SQRT2_LD * sc, -SQRT2_LD * sc, c * c - s * s],
    ], dtype=LD)


def _eigenframe(cov: Covariance2) -> tuple[float, LD, LD]:
    """(angle, d1, d2): rotation angle and eigenframe diagonal of a covariance."""
    g1, g2, g3 = LD(cov.g1), LD(cov.g2), LD(cov.g3)
    q = g3 / SQRT2_LD
    ang = 0.5 * np.arctan2(2 * q, g1 - g2)
    c, s = np.cos(ang), np.sin(ang)
    d1 = g1 * c * c + g2 * s * s + 2 * q * s * c
    d2 = (g1 + g2) - d1
    return float(ang), d1, d2


def _h_hom(g: Covariance2):
    """Homodyne closed form over Tr and det of its data covariance."""
    return 2.0 * g.trace * (g.trace + 3.0 * np.sqrt(g.det))


def _h_het(g: Covariance2):
    """Heterodyne closed form over Tr and det of its data covariance."""
    return 2.0 * (g.trace * g.trace - g.det)


# Schemes of the data covariances that (H_hom, H_het) close over, by
# hypothetical mode: that comparison puts both closed forms on G_W itself,
# the data covariance of HYPOTHETICAL_NO_AK (offset 0).
_SCHEMES = {False: (SchemeKind.HOMODYNE, SchemeKind.HETERODYNE),
            True: (SchemeKind.HYPOTHETICAL_NO_AK, SchemeKind.HYPOTHETICAL_NO_AK)}


def crb_hom(spec: GaussianStateSpec) -> float:
    """Cramer-Rao bound on the scaled HS error for homodyne tomography.

    Closed over Tr and det of the homodyne data covariance, hence
    independent of the orientation phi.
    """
    return float(_h_hom(effective_covariance(spec, SchemeKind.HOMODYNE)))


def crb_het(spec: GaussianStateSpec) -> float:
    """Cramer-Rao bound on the scaled HS error for heterodyne tomography."""
    return float(_h_het(effective_covariance(spec, SchemeKind.HETERODYNE)))


def _fisher_hom_frame(d1: LD, d2: LD) -> np.ndarray:
    """Homodyne Fisher matrix in the eigenframe (g3 = 0), regularised.

    With delta = d1 - d2 and s = d1 + d2 + 2 sqrt(d1 d2), the textbook
    entries written in beta = s/delta are 0/0 at d1 = d2; clearing the
    beta powers leaves forms that stay finite for every delta:

        F11 = (delta + 3 s)/(delta + s)^3
        F22 = (delta - 3 s)/(delta - s)^3
        F12 = 1/(s^2 - delta^2),   F33 = 2/(s^2 - delta^2)
    """
    s = d1 + d2 + 2 * np.sqrt(d1 * d2)
    d = d1 - d2
    f = np.zeros((3, 3), dtype=LD)
    f[0, 0] = (d + 3 * s) / (d + s) ** 3
    f[1, 1] = (d - 3 * s) / (d - s) ** 3
    f[0, 1] = f[1, 0] = 1 / (s * s - d * d)
    f[2, 2] = 2 / (s * s - d * d)
    return f


def _fisher_het_frame(d1: LD, d2: LD) -> np.ndarray:
    """Heterodyne Fisher matrix in the eigenframe: exactly diagonal."""
    return np.diag(np.array([1 / (2 * d1 * d1), 1 / (2 * d2 * d2),
                             1 / (2 * d1 * d2)], dtype=LD))


def _transport(frame: np.ndarray, angle: float) -> Fisher3:
    m = _basis_congruence(angle)
    return Fisher3(matrix=m @ frame @ m.T, frame=frame)


def fisher_hom_closed(spec: GaussianStateSpec) -> Fisher3:
    """Closed-form scaled Fisher matrix for homodyne tomography.

    Built in the eigenframe of the homodyne data covariance and transported
    back by the basis congruence; its inverse trace reproduces crb_hom.
    """
    cov = effective_covariance(spec, SchemeKind.HOMODYNE)
    ang, d1, d2 = _eigenframe(cov)
    return _transport(_fisher_hom_frame(d1, d2), ang)


def fisher_het(spec: GaussianStateSpec) -> Fisher3:
    """Closed-form scaled Fisher matrix for heterodyne tomography."""
    cov = effective_covariance(spec, SchemeKind.HETERODYNE)
    ang, d1, d2 = _eigenframe(cov)
    return _transport(_fisher_het_frame(d1, d2), ang)


def _fisher_hom_quadrature_cov(cov: Covariance2, nodes: int) -> Fisher3:
    """Quadrature of the angle-resolved Fisher integral for a raw covariance.

    Integrates f(theta) = grad C grad C^T / (2 C^2), C(theta) = u^T G u,
    over theta in [0, pi) with uniform weight.  The integrand has complex
    poles a distance ~sqrt(g_min/g_max) off the axis near the minor-axis
    angle, so a uniform rule would need >> nodes points once the state is
    strongly squeezed; instead the periodic trapezoid rule is applied in a
    substituted variable theta(t) = theta0 + t - kappa sin(2t) that bunches
    nodes around the minor axis and keeps spectral convergence uniformly
    over the supported parameter range.
    """
    if nodes < 8:
        raise DomainError(f"nodes = {nodes} must be at least 8")
    g1, g2, g3 = LD(cov.g1), LD(cov.g2), LD(cov.g3)
    q = g3 / SQRT2_LD
    ang = 0.5 * np.arctan2(2 * q, g1 - g2)
    c0, s0 = np.cos(ang), np.sin(ang)
    d1 = g1 * c0 * c0 + g2 * s0 * s0 + 2 * q * s0 * c0
    theta0 = ang if d1 <= (g1 + g2) - d1 else ang + 0.5 * np.pi

    t = np.arange(nodes, dtype=LD) * (np.pi / LD(nodes))
    theta = theta0 + t - BUNCH_KAPPA * np.sin(2 * t)
    wsub = 1 - 2 * BUNCH_KAPPA * np.cos(2 * t)
    c, s = np.cos(theta), np.sin(theta)
    cc, ss, sc = c * c, s * s, s * c
    cvar = g1 * cc + g2 * ss + 2 * q * sc
    if np.any(cvar <= 0):
        raise DomainError("marginal variance C(theta) is not positive; "
                          "covariance is non-physical")
    w = wsub / (2 * cvar * cvar * LD(nodes))
    v3 = SQRT2_LD * sc
    f = np.empty((3, 3), dtype=LD)
    f[0, 0] = np.sum(w * cc * cc)
    f[1, 1] = np.sum(w * ss * ss)
    f[2, 2] = np.sum(w * v3 * v3)
    f[0, 1] = f[1, 0] = np.sum(w * cc * ss)
    f[0, 2] = f[2, 0] = np.sum(w * cc * v3)
    f[1, 2] = f[2, 1] = np.sum(w * ss * v3)
    return Fisher3(matrix=f)


def fisher_hom_quadrature(spec: GaussianStateSpec, nodes: int = 256) -> Fisher3:
    """Numerical route to the homodyne Fisher matrix (converges to the closed form)."""
    return _fisher_hom_quadrature_cov(effective_covariance(spec, SchemeKind.HOMODYNE), nodes)


@dataclass(frozen=True)
class CrbReport:
    """Bounds and their ratio for one scenario.

    beta is the eigenvalue-gap parameter of the homodyne closed form,
    (Tr G_hom + 2 sqrt(det G_hom))/(d1 - d2); it diverges for isotropic
    data covariances and is reported as None there.
    """

    h_hom: float
    h_het: float
    gamma: float
    beta: float | None
    spec: GaussianStateSpec

    def to_json_dict(self) -> dict:
        return {"h_hom": self.h_hom, "h_het": self.h_het, "gamma": self.gamma,
                "beta": self.beta, "spec": self.spec.to_json_dict()}


def _beta_of(cov: Covariance2) -> float | None:
    d1, d2 = cov.eigenvalues()
    if abs(d1 - d2) < 1e-8 * cov.trace:
        return None
    return (cov.trace + 2.0 * math.sqrt(cov.det)) / (d2 - d1)


def crb_report(spec: GaussianStateSpec, hypothetical: bool = False) -> CrbReport:
    """Evaluate both bounds and gamma = H_het/H_hom for one spec.

    gamma is formed as the ratio of the closed forms, never through matrix
    inversion, so surface scans stay free of conditioning noise.
    """
    hom, het = _SCHEMES[bool(hypothetical)]
    g_hom = effective_covariance(spec, hom)
    h_hom = float(_h_hom(g_hom))
    h_het = float(_h_het(effective_covariance(spec, het)))
    return CrbReport(h_hom=h_hom, h_het=h_het, gamma=h_het / h_hom,
                     beta=_beta_of(g_hom), spec=spec)


def gamma_surface(lambdas, mus, eta: float, hypothetical: bool = False,
                  phi: float = 0.0) -> dict[str, np.ndarray]:
    """Both bounds and gamma over a (lambda, mu) grid at fixed eta and phi.

    Returns float64 columns ``lam``, ``mu``, ``h_hom``, ``h_het`` and
    ``gamma``, one entry per grid point, with lambda in the outer loop and mu
    in the inner loop, in the order given.  Every entry equals the matching
    ``crb_report`` value bit for bit: the grid runs the same operations on
    arrays.  Any invalid point raises DomainError.
    """
    # each domain check concerns one parameter, so checking every lambda and
    # every mu once, beside a point of the other axis, covers the whole grid
    if len(lambdas) and len(mus):
        for lam, mu in [(lam, mus[0]) for lam in lambdas] + [(lambdas[0], mu) for mu in mus]:
            GaussianStateSpec(mu=mu, lam=lam, phi=phi, eta=eta)
    lam = np.repeat(np.asarray(lambdas, dtype=float), len(mus))
    mu = np.tile(np.asarray(mus, dtype=float), len(lambdas))
    wigner = wigner_covariance_of(mu, lam, phi)
    hom, het = _SCHEMES[bool(hypothetical)]
    h_hom = _h_hom(wigner.add_offset(delta_offset(eta, hom)))
    h_het = _h_het(wigner.add_offset(delta_offset(eta, het)))
    return {"lam": lam, "mu": mu, "h_hom": h_hom, "h_het": h_het, "gamma": h_het / h_hom}


GAMMA_SEARCH_LAMBDA_MAX = 1e6


def critical_lambda_for_gamma(mu: float, eta: float,
                              tol: float = 1e-9) -> float | None:
    """Smallest lambda >= 1 where gamma(lambda; mu, eta) crosses one.

    Bracket expansion by doubling on [1, 1e6] followed by bisection; returns
    None when gamma - 1 never changes sign there (a valid outcome: e.g. at
    mu = 1 and eta = 1 the ratio stays above one for every squeezing).
    """

    def f(lam: float) -> float:
        return crb_report(GaussianStateSpec(mu=mu, lam=lam, eta=eta)).gamma - 1.0

    lo, flo = 1.0, f(1.0)
    if flo == 0.0:
        return 1.0
    hi = 2.0
    while hi <= GAMMA_SEARCH_LAMBDA_MAX:
        fhi = f(hi)
        if flo * fhi <= 0.0:
            break
        lo, flo = hi, fhi
        hi *= 2.0
    else:
        return None
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if flo * fmid < 0.0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


def small_eta_asymptote(spec_at_eta, eta0: float = 1e-4,
                        levels: int = 3) -> tuple[float, float]:
    """(limit_het, limit_hom): Richardson-extrapolated eta^2 * H as eta -> 0.

    `spec_at_eta` maps a detector efficiency to a GaussianStateSpec with
    fixed (mu, lam).  eta^2 * H is analytic in eta with an O(eta) leading
    correction, so the extrapolation table over eta0 / 2^k converges to the
    limits 6 (heterodyne) and 5 (homodyne) regardless of the state.
    """
    if levels < 1:
        raise DomainError("levels must be >= 1")
    etas = [eta0 / (2 ** k) for k in range(levels)]
    het = [e * e * crb_het(spec_at_eta(e)) for e in etas]
    hom = [e * e * crb_hom(spec_at_eta(e)) for e in etas]

    def richardson(vals: list[float]) -> float:
        # error term halves with eta at each level: R[i] = 2 R[i+1] - R[i]
        table = list(vals)
        for order in range(1, len(table)):
            table = [(2 ** order * table[i + 1] - table[i]) / (2 ** order - 1)
                     for i in range(len(table) - 1)]
        return table[0]

    return richardson(het), richardson(hom)
