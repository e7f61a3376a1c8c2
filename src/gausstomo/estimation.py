"""Covariance estimators and uncertainty-ellipse extraction.

Homodyne tomograms are fit by Newton maximum likelihood over a Cholesky
parametrisation of the effective covariance; heterodyne data admit the
closed-form efficient estimator (sample second moments minus the scheme
offset).  Both report the Wigner-covariance estimate after subtracting
the scheme's identity offset, without projecting onto the physical set:
at small sample sizes the estimate may violate det >= 1/4 and is returned
as-is with a physicality flag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

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


def hs_distance_sq(a: Covariance2, b: Covariance2) -> float:
    """Squared Hilbert-Schmidt distance; the (g1, g2, g3) basis is
    trace-orthonormal, so this equals Tr[(A - B)^2].  It is inf when a
    component difference squares past the float range."""
    d1, d2, d3 = a.g1 - b.g1, a.g2 - b.g2, a.g3 - b.g3
    return d1 * d1 + d2 * d2 + d3 * d3


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


class BlockFit(NamedTuple):
    """The fits of a block of trials, row t for trial t: g_effective is the
    fitted data covariance and g_wigner the estimate off it, each as
    (trials, 3) float64 rows of (g1, g2, g3)."""

    g_effective: np.ndarray
    g_wigner: np.ndarray
    loglik: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray


def _block_fit(delta: float, g_eff: np.ndarray, loglik, iterations, converged) -> BlockFit:
    """The BlockFit of data covariance rows g_eff, off which the scheme's
    offset delta gives the Wigner rows."""
    return BlockFit(g_eff, g_eff - [delta, delta, 0.0], np.asarray(loglik, dtype=float),
                    np.asarray(iterations, dtype=int), np.asarray(converged, dtype=bool))


def _single_result(fit: BlockFit, scheme: SchemeKind) -> EstimationResult:
    """The EstimationResult of row 0 of a block fit."""
    return EstimationResult(g_wigner=Covariance2(*fit.g_wigner[0].tolist()),
                            g_effective=Covariance2(*fit.g_effective[0].tolist()),
                            loglik=fit.loglik[0].item(), iterations=fit.iterations[0].item(),
                            converged=fit.converged[0].item(), scheme=scheme)


def estimate_heterodyne(data: np.ndarray, eta: float) -> EstimationResult:
    """Efficient closed-form estimator from heterodyne phase-space pairs.

    The state mean is known to be zero, so the maximum-likelihood data
    covariance is the plain second-moment matrix (1/N) sum z z^T (divide
    by N, no mean subtraction), which is exactly unbiased for the
    heterodyne data covariance at every N; subtracting the offset
    (2 - eta)/(2 eta) I yields the Wigner-covariance estimate that
    attains the Cramer-Rao bound asymptotically.  `data` is an (n, 2)
    array of (x, p) pairs, n >= 2.
    """
    z = np.asarray(data, dtype=float)
    if z.ndim != 2 or z.shape[1] != 2:
        raise DomainError("heterodyne data must be an (n, 2) array of (x, p) pairs")
    n = z.shape[0]
    if n < 2:
        raise DomainError(f"need at least 2 samples, got {n}")
    x, p = z[None, :, 0], z[None, :, 1]
    with np.errstate(over="ignore", invalid="ignore"):
        moments = [np.mean(a * b, axis=1) for a, b in ((x, x), (p, p), (x, p))]
    return _single_result(estimate_heterodyne_moments(*moments, n, eta),
                          SchemeKind.HETERODYNE)


def estimate_heterodyne_moments(s11: np.ndarray, s22: np.ndarray, s12: np.ndarray,
                                n: int, eta: float) -> BlockFit:
    """The heterodyne estimate of each trial from its second moments
    S11 = mean x^2, S22 = mean p^2 and S12 = mean x p over n samples.

    The moment matrix is the estimated data covariance, and the offset
    (2 - eta)/(2 eta) I off it the Wigner one.  DomainError unless every
    moment is finite.
    """
    if not 0.0 < eta <= 1.0:
        raise DomainError(f"eta = {eta} must lie in (0, 1]")
    moments = (s11, s22, s12)
    if not all(np.isfinite(m).all() for m in moments):
        raise DomainError("heterodyne data must have finite second moments in "
                          "every trial")
    # Covariance2.det, on every row; past the float range it reads inf or nan
    with np.errstate(over="ignore", invalid="ignore"):
        g_eff = np.stack([s11, s22, SQRT2 * s12], axis=1)
        dets = g_eff[:, 0] * g_eff[:, 1] - 0.5 * g_eff[:, 2] * g_eff[:, 2]
    # at the optimum sum z^T S^-1 z = 2N, so the likelihood closes
    loglik = [-n - 0.5 * n * math.log(det) - n * LOG_2PI if det > 0.0 else -math.inf
              for det in dets.tolist()]
    return _block_fit(delta_offset(eta, SchemeKind.HETERODYNE), g_eff, loglik,
                      [0] * len(loglik), [True] * len(loglik))


# samples in one stacked (rows, N) array: trials per block in the Monte
# Carlo runners, and candidate rows per halving chunk of the homodyne fit
_BLOCK_SAMPLES = 2 ** 15

# Newton limits of the homodyne likelihood fit: iterations per row, the
# trace-scaled gradient norm that counts as converged, and step halvings
# per line search
_MAX_ITERATIONS = 200
_GRADIENT_TOL = 1e-8
_MAX_HALVINGS = 60


def _angles_values(data) -> tuple[np.ndarray, np.ndarray]:
    if not (isinstance(data, tuple) and len(data) == 2):
        raise DomainError("homodyne data must be a (theta, x) pair of arrays")
    theta = np.asarray(data[0], dtype=float)
    x = np.asarray(data[1], dtype=float)
    if theta.shape != x.shape or theta.ndim != 1:
        raise DomainError("homodyne data must be matching 1-d angle/value arrays")
    return theta, x


def _too_few_angles(theta: np.ndarray) -> np.ndarray:
    """np.unique(row).size < 3 of each row, without a sort: equal values,
    +0.0 and -0.0, and all NaNs count once, and +-inf count as values.

    A row takes three distinct values exactly when its least and greatest
    non-NaN values differ and some entry is neither of them, being a value
    strictly between or a NaN.
    """
    lo = np.fmin.reduce(theta, axis=1, keepdims=True)
    hi = np.fmax.reduce(theta, axis=1, keepdims=True)
    ends = theta <= lo
    ends |= theta >= hi
    return ~(lo[:, 0] < hi[:, 0]) | ends.all(axis=1)


def _angle_keys(theta: np.ndarray) -> np.ndarray:
    """The moment-start bin of each angle: 1, 2 or 3 for [0, pi/3), [pi/3,
    2 pi/3) or [2 pi/3, inf], and 0 below 0 or for nan."""
    edge = math.pi / 3
    return (theta >= 0).astype(np.int8) + (theta >= edge) + (theta >= 2 * edge)


def _moment_starts(v: np.ndarray, x2: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Each row's moment-matched start, as Cholesky parameters (ln a, b, ln c).

    Solves mean(v)^T g = mean(x^2) on the angle bins [0, pi/3), [pi/3,
    2 pi/3) and [2 pi/3, inf]; angles below 0, and nan, fall in none.  It
    falls back to g = (m, m, 0), with m the mean of x^2, when a bin is
    empty, the bin means are singular or the solution is not positive
    definite.  Every m must be positive and finite.
    """
    trials = x2.shape[0]
    m = x2.mean(axis=1)
    # one slot per (row, bin key)
    slots = (4 * np.arange(trials)[:, None] + _angle_keys(theta)).ravel()

    def bin_sums(weights=None):
        return np.bincount(slots, weights, 4 * trials).reshape(trials, 4)[:, 1:]

    counts = bin_sums()
    full = np.flatnonzero(counts.min(axis=1) > 0)
    vbar = np.stack([bin_sums(v[:, k].ravel()) for k in range(3)], axis=-1)[full] \
        / counts[full, :, None]
    mbar = bin_sums(x2.ravel())[full] / counts[full]
    solvable = np.linalg.det(vbar) != 0.0
    g = np.linalg.solve(vbar[solvable], mbar[solvable, :, None])[:, :, 0]
    starts = np.zeros((trials, 3))
    starts[:, 0] = starts[:, 1] = m
    # a positivity test that overflows to inf or nan still decides
    with np.errstate(over="ignore", invalid="ignore"):
        positive = (g[:, 0] > 0) & (g[:, 1] > 0) & (g[:, 0] * g[:, 1] - 0.5 * g[:, 2] ** 2 > 0)
    starts[full[solvable][positive]] = g[positive]
    a = np.sqrt(starts[:, 0])
    b = (starts[:, 2] / SQRT2) / a
    c = np.sqrt(np.maximum(starts[:, 1] - b * b, 1e-12))
    return np.stack([np.log(a), b, np.log(c)], axis=1)


def _evaluate(p: np.ndarray, v: np.ndarray, x2: np.ndarray):
    """(g, loglik, cvar, scales) of parameter rows p of shape (..., 3),
    each on its data: v (..., 3, N) and x2 (..., N) broadcast against p's
    leading axes.  cvar holds the variances C_j = v_j^T g, and scales the
    exponentiated parameters (a, c).

    The log-likelihood is -inf where some C_j <= 0.  A far-off trial step
    overflows to inf or nan here and the line search rejects it, so those
    floating-point warnings are silenced.
    """
    with np.errstate(all="ignore"):
        scales = np.exp(p[..., ::2])
        b = p[..., 1]
        g = np.empty(p.shape)
        # a^2 and c^2 first, then c^2 is replaced by sqrt2 a b
        np.multiply(scales, scales, out=g[..., ::2])
        np.add(b * b, g[..., 2], out=g[..., 1])
        np.multiply(SQRT2 * scales[..., 0], b, out=g[..., 2])
        cvar = np.matmul(g[..., None, :], v)[..., 0, :]
        f = -0.5 * np.add.reduce(x2 / cvar + np.log(cvar), axis=-1) \
            - 0.5 * x2.shape[-1] * LOG_2PI
        nonpositive = cvar <= 0.0
        if np.count_nonzero(nonpositive):
            f[nonpositive.any(axis=-1)] = -math.inf
    return g, f, cvar, scales


# Each row's chain-rule matrices as slots of its chain entries: the
# Jacobian of g in the parameters, then the second derivatives of g1, g2
# and g3, each 3x3 row-major.  Slots 0-6 hold 2a^2, 2c^2, 4a^2, 4c^2, 2b,
# sqrt2 a and sqrt2 a b, slot 7 holds 0 and slot 8 holds 2.
_CHAIN_SLOTS = np.array([[0, 7, 7, 7, 4, 1, 6, 5, 7],
                         [2, 7, 7, 7, 7, 7, 7, 7, 7],
                         [7, 7, 7, 7, 8, 7, 7, 7, 3],
                         [6, 5, 7, 5, 7, 7, 7, 7, 7]]).ravel()
# k of the products (k a) a, (k c) c in slots 0-3, and slots 7 and 8
_CHAIN_FACTORS = np.array([[2.0], [4.0]])
_CHAIN_CONSTANTS = np.array([0.0, 2.0])


def _ascent_directions(p, scales, v, x2, cvar, grad_g) -> np.ndarray:
    """Each row's step in (ln a, b, ln c): Newton where the chained Hessian
    is negative definite, else unit steepest ascent."""
    rows = len(p)
    b = p[:, 1]
    curv = 1.0 / (cvar * cvar) - 2.0 * x2 / (cvar ** 3)
    hess_g = 0.5 * np.einsum("tiN,tN,tjN->tij", v, curv, v)
    # per row: the Jacobian and the three second-derivative matrices; these
    # are added as whole matrices, so that an inf or nan gradient component
    # reaches every entry
    entries = np.empty((rows, 9))
    ac = scales[:, None, :]
    np.multiply(_CHAIN_FACTORS * ac, ac, out=entries[:, :4].reshape(rows, 2, 2))
    np.multiply(2.0, b, out=entries[:, 4])
    sa = np.multiply(SQRT2, scales[:, 0], out=entries[:, 5])
    np.multiply(sa, b, out=entries[:, 6])
    entries[:, 7:] = _CHAIN_CONSTANTS
    # np.take gives C-contiguous matrices, as fancy indexing would not: the
    # matrix products below round differently on other layouts
    mats = np.take(entries, _CHAIN_SLOTS, axis=1).reshape(rows, 4, 3, 3)
    jac, jac_t = mats[:, 0], mats[:, 0].transpose(0, 2, 1)
    terms = grad_g[:, :, None, None] * mats[:, 1:]
    hess_p = jac_t @ hess_g @ jac + terms[:, 0] + terms[:, 1] + terms[:, 2]
    grad_p = np.matmul(jac_t, grad_g[:, :, None])[:, :, 0]
    # eigvalsh raises on a nan matrix; such a row takes steepest ascent
    newton = np.isfinite(hess_p).all(axis=(1, 2))
    newton[newton] = np.linalg.eigvalsh(hess_p[newton]).max(axis=-1) < 0.0
    if np.count_nonzero(newton) == len(newton):
        return np.linalg.solve(hess_p, -grad_p[:, :, None])[:, :, 0]
    step = np.empty_like(grad_p)
    ascent = grad_p[~newton]
    step[~newton] = ascent / np.linalg.norm(ascent, axis=-1)[:, None]
    if newton.any():
        step[newton] = np.linalg.solve(hess_p[newton],
                                       -grad_p[newton][:, :, None])[:, :, 0]
    return step


def _line_search(p, step, f, v, x2):
    """Each row's first step t = 0.5**k, k = 0 .. _MAX_HALVINGS - 1, whose
    likelihood beats f[row].

    The full steps are one stacked evaluation.  The rows it fails for then
    try their next halvings as a (rows, window) stack of candidates, a
    window of k at a time, until each row has a step that beats f or has
    none left.  A round holds _BLOCK_SAMPLES / 8 samples at first and
    twice as many each round up to _BLOCK_SAMPLES, but always at least one
    halving per row.  A row's search also ends at its first halving that
    leaves all three parameters unchanged: fl(p + d) is monotone in d, so
    every later halving leaves them unchanged too, and a candidate equal
    to p, evaluated bit for bit as p was, cannot beat f.  Returns (found,
    (p, g, f, cvar, scales)), where the tuple holds the accepted steps'
    values in the rows marked found.
    """
    cand = p + step
    accepted = (cand, *_evaluate(cand, v, x2))
    found = accepted[2] > f
    searching = ~found
    n = x2.shape[1]
    k, budget = 1, _BLOCK_SAMPLES // 8
    while k < _MAX_HALVINGS and np.count_nonzero(searching):
        open_ = np.flatnonzero(searching)
        w = max(1, min(_MAX_HALVINGS - k, budget // (open_.size * n)))
        t = np.ldexp(1.0, -np.arange(k, k + w))
        cand = p[open_, None, :] + t[:, None] * step[open_, None, :]
        moved = (cand != p[open_, None, :]).any(axis=2)
        # a row stops after this round once a halving in it is a no-op,
        # and is not evaluated if the first one is
        searching[open_[~moved[:, -1]]] = False
        if np.count_nonzero(moved[:, 0]) < open_.size:
            open_, cand = open_[moved[:, 0]], cand[moved[:, 0]]
        if open_.size:
            # a view, not a copy, when the open rows are consecutive
            rows = slice(open_[0], open_[-1] + 1) \
                if open_[-1] - open_[0] + 1 == open_.size else open_
            values = (cand, *_evaluate(cand, v[rows, None], x2[rows, None]))
            wins = values[2] > f[open_, None]
            hit = np.flatnonzero(wins.any(axis=1))
            if hit.size:
                # the first winning halving of each row that has one
                first = wins[hit].argmax(axis=1)
                won = open_[hit]
                for target, value in zip(accepted, values):
                    target[won] = value[hit, first]
                found[won] = True
                searching[won] = False
        k += w
        budget = min(2 * budget, _BLOCK_SAMPLES)
    return found, accepted


def _fit_block(v: np.ndarray, x2: np.ndarray, p: np.ndarray):
    """Newton ascent from the parameter rows p, one row per trial, in lockstep.

    A row leaves the block when its trace-scaled gradient norm reaches the
    tolerance (converged) or when no step halving raises its likelihood
    (stalled); rows still iterating after _MAX_ITERATIONS stop there.
    Returns (g, loglik, iterations, converged) per row.
    """
    trials, n = x2.shape
    g, f, cvar, scales = _evaluate(p, v, x2)
    g_out, f_out = g.copy(), f.copy()
    iterations = np.zeros(trials, dtype=int)
    converged = np.zeros(trials, dtype=bool)
    live = np.arange(trials)
    for it in range(1, _MAX_ITERATIONS + 1):
        iterations[live] = it
        with np.errstate(over="ignore"):  # a huge variance squares to inf
            resid = x2 / (cvar * cvar) - 1.0 / cvar
        grad_g = 0.5 * np.add.reduce(v * resid[:, None, :], axis=-1)
        done = np.linalg.norm(grad_g, axis=-1) * (g[:, 0] + g[:, 1]) / n \
            <= _GRADIENT_TOL
        # the masks are tested with np.count_nonzero, which costs a third
        # of .any() or .all() on a few rows
        if np.count_nonzero(done):
            converged[live[done]] = True
            g_out[live], f_out[live] = g, f
            live, p, g, f, cvar, scales, v, x2, grad_g = (
                arr[~done] for arr in (live, p, g, f, cvar, scales, v, x2, grad_g))
            if not live.size:
                break
        step = _ascent_directions(p, scales, v, x2, cvar, grad_g)
        found, accepted = _line_search(p, step, f, v, x2)
        if np.count_nonzero(found) == len(found):
            p, g, f, cvar, scales = accepted
            continue
        for old, new in zip((p, g, f, cvar, scales), accepted):
            old[found] = new[found]
        # likelihood flat to machine precision but gradient target missed
        g_out[live], f_out[live] = g, f
        live, p, g, f, cvar, scales, v, x2 = (
            arr[found] for arr in (live, p, g, f, cvar, scales, v, x2))
        if not live.size:
            break
    g_out[live], f_out[live] = g, f
    return g_out, f_out, iterations, converged


def estimate_homodyne_ml_block(thetas: np.ndarray, xs: np.ndarray, eta: float, *,
                               trig: tuple[np.ndarray, np.ndarray] | None = None) -> BlockFit:
    """estimate_homodyne_ml of each row of (trials, N) angle and value
    arrays, fitted in lockstep; each row equals that row's own fit bit for
    bit.

    One Newton iteration runs on all rows still iterating at once, and a
    row leaves the block when it converges or stalls.  Any invalid row
    raises the DomainError that estimate_homodyne_ml raises for it.  trig
    is the (cos, sin) of the angles where the caller has them; else they
    are computed once the block has passed its checks, so that an infinite
    angle warns only in a block that is fitted.
    """
    if not 0.0 < eta <= 1.0:
        raise DomainError(f"eta = {eta} must lie in (0, 1]")
    theta = np.asarray(thetas, dtype=float)
    x = np.asarray(xs, dtype=float)
    if theta.shape != x.shape or theta.ndim != 2:
        raise DomainError("homodyne blocks must be matching 2-d (trials, N) "
                          "angle/value arrays")
    trials, n = x.shape
    if n < 3:
        raise DomainError(f"need at least 3 samples, got {n}")
    if _too_few_angles(theta).any():
        raise DomainError("homodyne data must span at least 3 distinct angles; "
                          "fewer leave the 3-parameter model unidentifiable")
    delta = delta_offset(eta, SchemeKind.HOMODYNE)
    if not trials:
        return _block_fit(delta, np.zeros((0, 3)), [], [], [])

    with np.errstate(over="ignore"):
        x2 = x * x
        m = x2.mean(axis=1)
    if not np.all((m > 0.0) & (m < math.inf)):
        raise DomainError("homodyne data must have a positive, finite mean of x^2 "
                          "in every trial")
    c, s = (np.cos(theta), np.sin(theta)) if trig is None else trig
    # the rows (c^2, s^2, sqrt2 s c) written in place: stacking temporaries
    # would map fresh pages for every block
    v = np.empty((trials, 3, n))
    np.multiply(c, c, out=v[:, 0])
    np.multiply(s, s, out=v[:, 1])
    np.multiply(SQRT2, s, out=v[:, 2])
    v[:, 2] *= c
    return _block_fit(delta, *_fit_block(v, x2, _moment_starts(v, x2, theta)))


def estimate_homodyne_ml(data: tuple[np.ndarray, np.ndarray],
                         eta: float) -> EstimationResult:
    """Maximum-likelihood covariance fit to homodyne records.

    Maximises l(g) = -(1/2) sum_j [x_j^2 / C_j(g) + ln C_j(g)] with
    C_j = u(theta_j)^T G u(theta_j) over the three covariance parameters.
    Positivity is kept automatic by optimising the Cholesky factor of the
    effective covariance (diagonal in log scale); Newton steps use the
    analytic gradient and Hessian chained through that parametrisation,
    with step halving on likelihood decrease and a steepest-ascent
    fallback while the Hessian is indefinite.  Convergence requires the
    trace-scaled per-sample gradient norm to reach _GRADIENT_TOL (1e-8).

    `data` is a (theta, x) pair of matching 1-d arrays; the angles must
    take at least three distinct values or the three-parameter model is
    unidentifiable, and the mean of x^2 must be positive and finite.  This
    is the block fit of one trial.
    """
    theta, x = _angles_values(data)
    return _single_result(estimate_homodyne_ml_block(theta[None], x[None], eta),
                          SchemeKind.HOMODYNE)
