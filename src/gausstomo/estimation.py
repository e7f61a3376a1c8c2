"""Covariance estimators and uncertainty-ellipse extraction.

Homodyne tomograms are fit by Newton maximum likelihood over a Cholesky
parametrisation of the effective covariance; heterodyne data admit the
closed-form efficient estimator (sample second moments minus the scheme
offset).  Both report the Wigner-covariance estimate after subtracting
the scheme's identity offset, without projecting onto the physical set:
at small sample sizes the estimate may violate det >= 1/4 and is returned
as-is with a physicality flag (an optional clipping utility exists for
display purposes only).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Covariance2, DomainError, SchemeKind, SQRT2, delta_offset

LOG_2PI = math.log(2.0 * math.pi)

# det G_W >= 1/4 is the single-mode Heisenberg floor; slack for rounding
PHYSICAL_DET_FLOOR = 0.25 - 1e-9


@dataclass(frozen=True)
class UncertaintyEllipse:
    """Principal-axis description of a covariance: semi-axes are sqrt(eigenvalues)."""

    semi_axis_major: float
    semi_axis_minor: float
    orientation: float

    def to_json_dict(self) -> dict:
        return {"semi_axis_major": self.semi_axis_major,
                "semi_axis_minor": self.semi_axis_minor,
                "orientation": self.orientation}


@dataclass(frozen=True)
class EstimationResult:
    """Wigner-covariance estimate plus optimizer diagnostics.

    g_wigner is the offset-subtracted estimate; g_effective the raw fitted
    data covariance (positive definite whenever the fit converged).
    """

    g_wigner: Covariance2
    g_effective: Covariance2
    loglik: float
    iterations: int
    converged: bool
    scheme: SchemeKind

    @property
    def physical(self) -> bool:
        """Whether g_wigner satisfies the Heisenberg constraint det >= 1/4."""
        return (self.g_wigner.is_positive_definite()
                and self.g_wigner.det >= PHYSICAL_DET_FLOOR)

    def to_json_dict(self) -> dict:
        return {"g_wigner": self.g_wigner.to_json_dict(),
                "g_effective": self.g_effective.to_json_dict(),
                "loglik": self.loglik,
                "iterations": self.iterations,
                "converged": self.converged,
                "physical": self.physical,
                "scheme": self.scheme.value}


def hs_distance_sq(a: Covariance2, b: Covariance2) -> float:
    """Squared Hilbert-Schmidt distance; the (g1, g2, g3) basis is
    trace-orthonormal, so this equals Tr[(A - B)^2]."""
    return (a.g1 - b.g1) ** 2 + (a.g2 - b.g2) ** 2 + (a.g3 - b.g3) ** 2


def to_ellipse(cov: Covariance2) -> UncertaintyEllipse:
    """Eigen-decompose a positive-definite covariance into its ellipse.

    Semi-axes follow the standard-deviation convention (square roots of the
    eigenvalues); orientation is the major-axis angle reduced mod pi, with
    0 as the tie-break for isotropic input.
    """
    lo, hi = cov.eigenvalues()
    if lo <= 0.0:
        raise DomainError(f"covariance is not positive definite "
                          f"(smallest eigenvalue {lo}): {cov}")
    return UncertaintyEllipse(semi_axis_major=math.sqrt(hi),
                              semi_axis_minor=math.sqrt(lo),
                              orientation=cov.principal_angle())


def project_physical(cov: Covariance2) -> Covariance2:
    """Clip eigenvalues up to the physical set (display only, never in stats).

    Raises the larger eigenvalue to the vacuum level if needed, then the
    smaller one until det >= 1/4; estimator benchmarks must keep the raw,
    possibly unphysical estimates to stay unbiased.
    """
    lo, hi = cov.eigenvalues()
    angle = cov.principal_angle()
    hi2 = max(hi, 0.5)
    lo2 = max(lo, 0.25 / hi2)
    if lo2 == lo and hi2 == hi:
        return cov
    c, s = math.cos(angle), math.sin(angle)
    g1 = lo2 * s * s + hi2 * c * c
    g2 = lo2 * c * c + hi2 * s * s
    g3 = (hi2 - lo2) * SQRT2 * s * c
    return Covariance2(g1, g2, g3)


def estimate_heterodyne(data: np.ndarray, eta: float) -> EstimationResult:
    """Efficient closed-form estimator from heterodyne phase-space pairs.

    The state mean is known to be zero, so the maximum-likelihood data
    covariance is the plain second-moment matrix (1/N) sum z z^T (divide
    by N, no mean subtraction), which is exactly unbiased for the
    heterodyne data covariance at every N; subtracting the offset
    (2 - eta)/(2 eta) I yields the Wigner-covariance estimate that
    attains the Cramer-Rao bound asymptotically.
    """
    if not 0.0 < eta <= 1.0:
        raise DomainError(f"eta = {eta} must lie in (0, 1]")
    z = np.asarray(data, dtype=float)
    if z.ndim != 2 or z.shape[1] != 2:
        raise DomainError("heterodyne data must be an (n, 2) array of (x, p) pairs")
    n = z.shape[0]
    if n < 2:
        raise DomainError(f"need at least 2 samples, got {n}")
    s11 = float(np.mean(z[:, 0] * z[:, 0]))
    s22 = float(np.mean(z[:, 1] * z[:, 1]))
    s12 = float(np.mean(z[:, 0] * z[:, 1]))
    g_eff = Covariance2(s11, s22, SQRT2 * s12)
    delta = delta_offset(eta, SchemeKind.HETERODYNE)
    det = g_eff.det
    if det > 0.0:
        # at the optimum sum z^T S^-1 z = 2N, so the likelihood closes
        loglik = -n - 0.5 * n * math.log(det) - n * LOG_2PI
    else:
        loglik = float("-inf")
    return EstimationResult(g_wigner=g_eff.add_offset(-delta),
                            g_effective=g_eff,
                            loglik=loglik, iterations=0, converged=True,
                            scheme=SchemeKind.HETERODYNE)


@dataclass(frozen=True)
class MlOptions:
    """Newton settings for the homodyne likelihood fit."""

    max_iterations: int = 200
    gradient_tol: float = 1e-8
    max_halvings: int = 60


def _angles_values(data) -> tuple[np.ndarray, np.ndarray]:
    if not (isinstance(data, tuple) and len(data) == 2):
        raise DomainError("homodyne data must be a (theta, x) pair of arrays")
    theta = np.asarray(data[0], dtype=float)
    x = np.asarray(data[1], dtype=float)
    if theta.shape != x.shape or theta.ndim != 1:
        raise DomainError("homodyne data must be matching 1-d angle/value arrays")
    return theta, x


def _moment_init(v: np.ndarray, x2: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Moment-matched start: solve mean(v)^T g = mean(x^2) on three angle bins."""
    bins = np.minimum((theta // (math.pi / 3)).astype(int), 2)
    vbar = np.zeros((3, 3))
    m = np.zeros(3)
    for k in range(3):
        sel = bins == k
        if not np.any(sel):
            break
        vbar[k] = v[:, sel].mean(axis=1)
        m[k] = x2[sel].mean()
    else:
        try:
            g = np.linalg.solve(vbar, m)
        except np.linalg.LinAlgError:
            g = None
        if g is not None and g[0] > 0 and g[1] > 0 and g[0] * g[1] - 0.5 * g[2] ** 2 > 0:
            return g
    mbar = float(x2.mean())
    return np.array([mbar, mbar, 0.0])


def estimate_homodyne_ml(data: tuple[np.ndarray, np.ndarray], eta: float,
                         options: MlOptions = MlOptions()) -> EstimationResult:
    """Maximum-likelihood covariance fit to homodyne records.

    Maximises l(g) = -(1/2) sum_j [x_j^2 / C_j(g) + ln C_j(g)] with
    C_j = u(theta_j)^T G u(theta_j) over the three covariance parameters.
    Positivity is kept automatic by optimising the Cholesky factor of the
    effective covariance (diagonal in log scale); Newton steps use the
    analytic gradient and Hessian chained through that parametrisation,
    with step halving on likelihood decrease and a steepest-ascent
    fallback while the Hessian is indefinite.  Convergence requires the
    trace-scaled per-sample gradient norm to reach `gradient_tol`.

    `data` is a (theta, x) pair of matching 1-d arrays; the angles must
    take at least three distinct values or the three-parameter model is
    unidentifiable.
    """
    if not 0.0 < eta <= 1.0:
        raise DomainError(f"eta = {eta} must lie in (0, 1]")
    theta, x = _angles_values(data)
    n = x.size
    if n < 3:
        raise DomainError(f"need at least 3 samples, got {n}")
    if np.unique(theta).size < 3:
        raise DomainError("homodyne data must span at least 3 distinct angles; "
                          "fewer leave the 3-parameter model unidentifiable")

    c, s = np.cos(theta), np.sin(theta)
    v = np.stack([c * c, s * s, SQRT2 * s * c])
    x2 = x * x

    def params_from_g(g: np.ndarray) -> np.ndarray:
        a = math.sqrt(g[0])
        b = (g[2] / SQRT2) / a
        cc = math.sqrt(max(g[1] - b * b, 1e-12))
        return np.array([math.log(a), b, math.log(cc)])

    def g_from_params(p: np.ndarray):
        a, b, cc = math.exp(p[0]), p[1], math.exp(p[2])
        return np.array([a * a, b * b + cc * cc, SQRT2 * a * b]), a, b, cc

    def loglik(g: np.ndarray) -> float:
        cvar = g @ v
        if np.any(cvar <= 0.0):
            return -math.inf
        return -0.5 * float(np.sum(x2 / cvar + np.log(cvar))) - 0.5 * n * LOG_2PI

    p = params_from_g(_moment_init(v, x2, theta))
    g, a, b, cc = g_from_params(p)
    f = loglik(g)
    iterations = 0
    converged = False
    for iterations in range(1, options.max_iterations + 1):
        cvar = g @ v
        resid = x2 / (cvar * cvar) - 1.0 / cvar
        grad_g = 0.5 * (v * resid).sum(axis=1)
        scaled = float(np.linalg.norm(grad_g)) * (g[0] + g[1]) / n
        if scaled <= options.gradient_tol:
            converged = True
            break
        curv = 1.0 / (cvar * cvar) - 2.0 * x2 / (cvar ** 3)
        hess_g = 0.5 * np.einsum("iN,N,jN->ij", v, curv, v)
        jac = np.array([[2 * a * a, 0.0, 0.0],
                        [0.0, 2 * b, 2 * cc * cc],
                        [SQRT2 * a * b, SQRT2 * a, 0.0]])
        hess_p = jac.T @ hess_g @ jac
        hess_p += grad_g[0] * np.array([[4 * a * a, 0, 0], [0, 0, 0], [0, 0, 0]])
        hess_p += grad_g[1] * np.array([[0, 0, 0], [0, 2, 0], [0, 0, 4 * cc * cc]])
        hess_p += grad_g[2] * np.array([[SQRT2 * a * b, SQRT2 * a, 0],
                                        [SQRT2 * a, 0, 0], [0, 0, 0]])
        grad_p = jac.T @ grad_g
        try:
            use_newton = np.linalg.eigvalsh(hess_p).max() < 0.0
        except np.linalg.LinAlgError:
            use_newton = False
        if use_newton:
            step = np.linalg.solve(hess_p, -grad_p)
        else:
            step = grad_p / float(np.linalg.norm(grad_p))
        t = 1.0
        improved = False
        for _ in range(options.max_halvings):
            p_new = p + t * step
            g_new, a_new, b_new, cc_new = g_from_params(p_new)
            f_new = loglik(g_new)
            if f_new > f:
                improved = True
                break
            t *= 0.5
        if not improved:
            # likelihood flat to machine precision but gradient target missed
            break
        p, g, a, b, cc, f = p_new, g_new, a_new, b_new, cc_new, f_new

    g_eff = Covariance2(float(g[0]), float(g[1]), float(g[2]))
    delta = delta_offset(eta, SchemeKind.HOMODYNE)
    return EstimationResult(g_wigner=g_eff.add_offset(-delta),
                            g_effective=g_eff,
                            loglik=f, iterations=iterations, converged=converged,
                            scheme=SchemeKind.HOMODYNE)


def single_angle_second_moment(x: np.ndarray) -> float:
    """Closed-form ML of the marginal variance for data at one fixed angle.

    The one-parameter sub-problem of the homodyne likelihood: the optimum
    is the plain second moment.  Used as an optimizer oracle by the tests.
    """
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        raise DomainError("need at least one sample")
    return float(np.mean(x * x))
