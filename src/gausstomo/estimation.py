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


# samples in one stacked (rows, N) array of the homodyne fit: trials per
# block in the Monte Carlo runners, and candidate rows per halving chunk
_BLOCK_SAMPLES = 2 ** 15


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


def _distinct_counts(theta: np.ndarray) -> np.ndarray:
    """np.unique(row).size of each row: equal values, and all NaNs, count once."""
    s = np.sort(theta, axis=1)
    new = (s[:, 1:] != s[:, :-1]) & ~(np.isnan(s[:, 1:]) & np.isnan(s[:, :-1]))
    return 1 + new.sum(axis=1)


def _moment_starts(v: np.ndarray, x2: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Each row's moment-matched start, as Cholesky parameters.

    Solves mean(v)^T g = mean(x^2) on the angle bins [0, pi/3), [pi/3,
    2 pi/3) and [2 pi/3, inf); angles below 0 fall in none.  It falls back
    to g = (m, m, 0), with m the mean of x^2, when a bin is empty or the
    solution is not positive definite.  With the samples sorted by bin,
    each bin is one slice in sample order, and its sums take the
    summation orders of v[:, bin].mean(axis=1) and x2[bin].mean() on a
    single trial: a running sum from 0.0 for v, and numpy's pairwise sum
    for x^2.
    """
    bins = np.minimum((theta // (math.pi / 3)).astype(int), 2)
    key = np.maximum(bins, -1).astype(np.int8)  # -1: below every bin
    order = np.argsort(key, axis=1, kind="stable")
    v_sorted = np.take_along_axis(v, order[:, None, :], axis=2)
    x2_sorted = np.take_along_axis(x2, order, axis=1)
    counts = np.stack([(key == k).sum(axis=1) for k in range(-1, 3)], axis=1)
    starts = [np.array([m, m, 0.0]) for m in x2.mean(axis=1)]
    full = np.flatnonzero(counts[:, 1:].min(axis=1) > 0)
    if full.size:
        v_sums, x2_sums = [], []
        for t, (skip, e0, e1, e2) in zip(full, np.cumsum(counts[full], axis=1).tolist()):
            slices = ((skip, e0), (e0, e1), (e1, e2))
            # + 0.0: the running sum starts from 0.0, not from the first sample
            v_sums.append([np.add.accumulate(v_sorted[t, :, lo:hi], axis=1)[:, -1] + 0.0
                           for lo, hi in slices])
            x2_sums.append([np.add.reduce(x2_sorted[t, lo:hi]) for lo, hi in slices])
        vbar = np.array(v_sums) / counts[full, 1:, None]
        mbar = np.array(x2_sums) / counts[full, 1:]
        try:
            solved = np.linalg.solve(vbar, mbar[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            solved = [_solve_or_none(*pair) for pair in zip(vbar, mbar)]
        for t, g in zip(full, solved):
            if g is not None and g[0] > 0 and g[1] > 0 and g[0] * g[1] - 0.5 * g[2] ** 2 > 0:
                starts[t] = g
    return np.array([_params_from_g(g) for g in starts], dtype=float).reshape(-1, 3)


def _solve_or_none(a: np.ndarray, b: np.ndarray):
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        return None


def _params_from_g(g: np.ndarray) -> list:
    """Cholesky parameters (ln a, b, ln c) of a covariance vector g."""
    a = math.sqrt(g[0])
    b = (g[2] / SQRT2) / a
    cc = math.sqrt(max(g[1] - b * b, 1e-12))
    return [math.log(a), b, math.log(cc)]


def _exp(values: np.ndarray) -> np.ndarray:
    # math.exp, not np.exp: they differ in the last bit on some inputs, and
    # math.exp raises OverflowError where np.exp would return inf
    return np.fromiter(map(math.exp, values.ravel()), dtype=float,
                       count=values.size).reshape(values.shape)


def _norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, through the same dot product that
    np.linalg.norm takes for a single vector."""
    return np.sqrt(np.matmul(rows[:, None, :], rows[:, :, None])[:, 0, 0])


def _evaluate(p: np.ndarray, v: np.ndarray, x2: np.ndarray):
    """(g, loglik) of parameter rows p of shape (..., 3), each on its data:
    v (..., 3, N) and x2 (..., N) broadcast against p's leading axes.

    The log-likelihood is -inf where some C_j <= 0.  A far-off trial step
    overflows to inf or nan here and the line search rejects it, so those
    floating-point warnings are silenced.
    """
    with np.errstate(all="ignore"):
        scales = _exp(p[..., ::2])
        a, b, cc = scales[..., 0], p[..., 1], scales[..., 1]
        g = np.stack([a * a, b * b + cc * cc, SQRT2 * a * b], axis=-1)
        cvar = np.matmul(g[..., None, :], v)[..., 0, :]
        f = -0.5 * np.add.reduce(x2 / cvar + np.log(cvar), axis=-1) \
            - 0.5 * x2.shape[-1] * LOG_2PI
        invalid = (cvar <= 0.0).any(axis=-1)
        if invalid.any():
            f[invalid] = -math.inf
    return g, f


def _newton_ok(hess: np.ndarray) -> bool:
    try:
        return bool(np.linalg.eigvalsh(hess).max() < 0.0)
    except np.linalg.LinAlgError:
        return False


def _ascent_directions(p, v, x2, cvar, grad_g) -> np.ndarray:
    """Each row's step in (ln a, b, ln c): Newton where the chained Hessian
    is negative definite, else unit steepest ascent."""
    a, cc = _exp(p[:, ::2]).T
    b = p[:, 1]
    curv = 1.0 / (cvar * cvar) - 2.0 * x2 / (cvar ** 3)
    hess_g = 0.5 * np.einsum("tiN,tN,tjN->tij", v, curv, v)
    # per row: the Jacobian of g in the parameters, then the second
    # derivatives of g1, g2 and g3; these are added as whole matrices, so
    # that an inf or nan gradient component reaches every entry
    sa = SQRT2 * a
    sab = sa * b
    mats = np.zeros((len(a), 4, 3, 3))
    mats[:, 0, 0, 0] = 2 * a * a
    mats[:, 0, 1, 1] = 2 * b
    mats[:, 0, 1, 2] = 2 * cc * cc
    mats[:, 0, 2, 0] = sab
    mats[:, 0, 2, 1] = sa
    mats[:, 1, 0, 0] = 4 * a * a
    mats[:, 2, 1, 1] = 2
    mats[:, 2, 2, 2] = 4 * cc * cc
    mats[:, 3, 0, 0] = sab
    mats[:, 3, 0, 1] = mats[:, 3, 1, 0] = sa
    jac, jac_t = mats[:, 0], mats[:, 0].transpose(0, 2, 1)
    terms = grad_g[:, :, None, None] * mats[:, 1:]
    hess_p = jac_t @ hess_g @ jac + terms[:, 0] + terms[:, 1] + terms[:, 2]
    grad_p = np.matmul(jac_t, grad_g[:, :, None])[:, :, 0]
    try:
        newton = np.linalg.eigvalsh(hess_p).max(axis=-1) < 0.0
    except np.linalg.LinAlgError:
        newton = np.array([_newton_ok(h) for h in hess_p], dtype=bool)
    if newton.all():
        return np.linalg.solve(hess_p, -grad_p[:, :, None])[:, :, 0]
    step = np.empty_like(grad_p)
    ascent = grad_p[~newton]
    step[~newton] = ascent / _norms(ascent)[:, None]
    if newton.any():
        step[newton] = np.linalg.solve(hess_p[newton],
                                       -grad_p[newton][:, :, None])[:, :, 0]
    return step


def _line_search(p, step, f, v, x2, max_halvings: int):
    """Each row's first step t = 0.5**k, k = 0 .. max_halvings - 1, whose
    likelihood beats f[row].

    The full steps are one stacked evaluation.  The rows it fails for then
    try their next halvings as a (rows, window) stack of candidates, a
    window of k at a time, until each row has a step that beats f or has
    none left.  A round holds _BLOCK_SAMPLES / 8 samples at first and
    twice as many each round up to _BLOCK_SAMPLES, but always at least one
    halving per row.  Returns (found, (p, g, f)), where the tuple holds the
    accepted steps' values in the rows marked found.
    """
    if max_halvings < 1:
        return np.zeros(len(p), dtype=bool), None
    cand = p + step
    accepted = (cand, *_evaluate(cand, v, x2))
    found = accepted[2] > f
    n = x2.shape[1]
    k, budget = 1, _BLOCK_SAMPLES // 8
    while k < max_halvings and not found.all():
        open_ = np.flatnonzero(~found)
        w = max(1, min(max_halvings - k, budget // (open_.size * n)))
        t = np.ldexp(1.0, -np.arange(k, k + w))
        cand = p[open_, None, :] + t[:, None] * step[open_, None, :]
        # a view, not a copy, when the open rows are consecutive
        rows = slice(open_[0], open_[-1] + 1) \
            if open_[-1] - open_[0] + 1 == open_.size else open_
        values = (cand, *_evaluate(cand, v[rows, None], x2[rows, None]))
        wins = values[2] > f[open_, None]
        hit = np.flatnonzero(wins.any(axis=1))
        if hit.size:
            # the first winning halving of each row that has one
            first = wins[hit].argmax(axis=1)
            for target, value in zip(accepted, values):
                target[open_[hit]] = value[hit, first]
            found[open_[hit]] = True
        k += w
        budget = min(2 * budget, _BLOCK_SAMPLES)
    return found, accepted


def _fit_block(v: np.ndarray, x2: np.ndarray, p: np.ndarray, options: MlOptions):
    """Newton ascent from the parameter rows p, one row per trial, in lockstep.

    A row leaves the block when its trace-scaled gradient norm reaches the
    tolerance (converged) or when no step halving raises its likelihood
    (stalled); rows still iterating after max_iterations stop there.
    Returns (g, loglik, iterations, converged) per row.
    """
    trials, n = x2.shape
    g, f = _evaluate(p, v, x2)
    g_out, f_out = g.copy(), f.copy()
    iterations = np.zeros(trials, dtype=int)
    converged = np.zeros(trials, dtype=bool)
    live = np.arange(trials)
    for it in range(1, options.max_iterations + 1):
        iterations[live] = it
        cvar = np.matmul(g[:, None, :], v)[:, 0]
        resid = x2 / (cvar * cvar) - 1.0 / cvar
        grad_g = 0.5 * np.add.reduce(v * resid[:, None, :], axis=-1)
        done = _norms(grad_g) * (g[:, 0] + g[:, 1]) / n <= options.gradient_tol
        if done.any():
            converged[live[done]] = True
            g_out[live], f_out[live] = g, f
            live, p, g, f, v, x2, cvar, grad_g = (
                arr[~done] for arr in (live, p, g, f, v, x2, cvar, grad_g))
            if not live.size:
                break
        step = _ascent_directions(p, v, x2, cvar, grad_g)
        found, accepted = _line_search(p, step, f, v, x2, options.max_halvings)
        if found.all():
            p, g, f = accepted
            continue
        for old, new in zip((p, g, f), accepted or ()):
            old[found] = new[found]
        # likelihood flat to machine precision but gradient target missed
        g_out[live], f_out[live] = g, f
        live, p, g, f, v, x2 = (arr[found] for arr in (live, p, g, f, v, x2))
        if not live.size:
            break
    g_out[live], f_out[live] = g, f
    return g_out, f_out, iterations, converged


def estimate_homodyne_ml_block(thetas: np.ndarray, xs: np.ndarray, eta: float,
                               options: MlOptions = MlOptions()) -> list[EstimationResult]:
    """estimate_homodyne_ml of each row of (trials, N) angle and value
    arrays, fitted in lockstep; each result equals that row's own fit bit
    for bit.

    One Newton iteration runs on all rows still iterating at once, and a
    row leaves the block when it converges or stalls.  Any invalid row
    raises the DomainError that estimate_homodyne_ml raises for it.
    """
    if not 0.0 < eta <= 1.0:
        raise DomainError(f"eta = {eta} must lie in (0, 1]")
    theta = np.asarray(thetas, dtype=float)
    x = np.asarray(xs, dtype=float)
    if theta.shape != x.shape or theta.ndim != 2:
        raise DomainError("homodyne blocks must be matching 2-d (trials, N) "
                          "angle/value arrays")
    n = x.shape[1]
    if n < 3:
        raise DomainError(f"need at least 3 samples, got {n}")
    if (_distinct_counts(theta) < 3).any():
        raise DomainError("homodyne data must span at least 3 distinct angles; "
                          "fewer leave the 3-parameter model unidentifiable")
    if not len(x):
        return []

    c, s = np.cos(theta), np.sin(theta)
    v = np.stack([c * c, s * s, SQRT2 * s * c], axis=1)
    x2 = x * x
    g, f, iterations, converged = _fit_block(v, x2, _moment_starts(v, x2, theta), options)
    delta = delta_offset(eta, SchemeKind.HOMODYNE)
    results = []
    for k in range(len(x)):
        g_eff = Covariance2(float(g[k, 0]), float(g[k, 1]), float(g[k, 2]))
        results.append(EstimationResult(g_wigner=g_eff.add_offset(-delta),
                                        g_effective=g_eff, loglik=float(f[k]),
                                        iterations=int(iterations[k]),
                                        converged=bool(converged[k]),
                                        scheme=SchemeKind.HOMODYNE))
    return results


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
    unidentifiable.  This is the block fit of one trial.
    """
    if not 0.0 < eta <= 1.0:
        raise DomainError(f"eta = {eta} must lie in (0, 1]")
    theta, x = _angles_values(data)
    return estimate_homodyne_ml_block(theta[None], x[None], eta, options)[0]


def single_angle_second_moment(x: np.ndarray) -> float:
    """Closed-form ML of the marginal variance for data at one fixed angle.

    The one-parameter sub-problem of the homodyne likelihood: the optimum
    is the plain second moment.  Used as an optimizer oracle by the tests.
    """
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        raise DomainError("need at least one sample")
    return float(np.mean(x * x))
