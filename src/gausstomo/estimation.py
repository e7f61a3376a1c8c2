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
from numpy.linalg import _umath_linalg

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
    data covariance (positive definite whenever the fit converged, and
    singular where status is "boundary", as BlockFit's status says).
    """

    g_wigner: Covariance2
    g_effective: Covariance2
    loglik: float
    iterations: int
    status: str
    scheme: SchemeKind

    @property
    def converged(self) -> bool:
        """Whether the fit ended at an interior optimum."""
        return self.status == "converged"

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
    (trials, 3) float64 rows of (g1, g2, g3).

    status says how each fit ended: "converged" at an interior optimum,
    "boundary" on the singular edge det g_effective = 0, where g_effective
    has no ellipse, or "stalled"; converged marks the "converged" rows.
    """

    g_effective: np.ndarray
    g_wigner: np.ndarray
    loglik: np.ndarray
    iterations: np.ndarray
    status: np.ndarray

    @property
    def converged(self) -> np.ndarray:
        return self.status == "converged"


# the dtype of BlockFit.status
_STATUS = "<U9"


def _block_fit(delta: float, g_eff: np.ndarray, loglik, iterations, status) -> BlockFit:
    """The BlockFit of data covariance rows g_eff, off which the scheme's
    offset delta gives the Wigner rows."""
    status = np.asarray(status, dtype=_STATUS)
    return BlockFit(g_eff, g_eff - [delta, delta, 0.0], np.asarray(loglik, dtype=float),
                    np.asarray(iterations, dtype=int), status)


def _single_result(fit: BlockFit, scheme: SchemeKind) -> EstimationResult:
    """The EstimationResult of row 0 of a block fit."""
    return EstimationResult(g_wigner=Covariance2(*fit.g_wigner[0].tolist()),
                            g_effective=Covariance2(*fit.g_effective[0].tolist()),
                            loglik=fit.loglik[0].item(), iterations=fit.iterations[0].item(),
                            status=fit.status[0].item(), scheme=scheme)


def estimate_heterodyne(data: np.ndarray, eta: float) -> EstimationResult:
    """Efficient closed-form estimator from heterodyne phase-space pairs.

    The state mean is known to be zero, so the maximum-likelihood data
    covariance is the plain second-moment matrix (1/N) sum z z^T (divide
    by N, no mean subtraction), which is exactly unbiased for the
    heterodyne data covariance at every N; subtracting the offset
    (2 - eta)/(2 eta) I yields the Wigner-covariance estimate that
    attains the Cramer-Rao bound asymptotically.  `data` is an (n, 2)
    array of (x, p) pairs, n >= 2, whose moment matrix must have a
    positive determinant: on a singular one the likelihood is unbounded.
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
    result = _single_result(estimate_heterodyne_moments(*moments, n, eta),
                            SchemeKind.HETERODYNE)
    # a det that overflows to inf or nan is left to the caller, as a
    # non-finite loglik
    if result.g_effective.det <= 0.0:
        raise DomainError("heterodyne data must have a second-moment matrix with a "
                          f"positive determinant, got {result.g_effective.det}")
    return result


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
                      [0] * len(loglik), ["converged"] * len(loglik))


# samples in one stacked (rows, N) array: trials per block in the Monte
# Carlo runners, and candidate rows per halving round of the homodyne fit
_BLOCK_SAMPLES = 2 ** 15

# Newton limits of the homodyne likelihood fit: iterations per row, the
# share of |loglik| at or below which a Newton step's predicted gain counts
# as converged, the det(g) / (g1 g2) below which a row leaves for the
# boundary profile, the pass from which every row still iterating is tested
# for it, and step halvings per line search
_MAX_ITERATIONS = 200
_ROUNDING_FLOOR = 8 * 2.0 ** -52
_BOUNDARY_DET = 1e-6
_BOUNDARY_PASSES = 18
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


def _moment_starts(v: np.ndarray, x2: np.ndarray, keys: np.ndarray,
                   m: np.ndarray) -> np.ndarray:
    """Each row's moment-matched start, as Cholesky parameters (ln a, b, ln c).

    Solves mean(v)^T g = mean(x^2) on the angle bins [0, pi/3), [pi/3,
    2 pi/3) and [2 pi/3, inf], given as the _angle_keys of the angles;
    angles below 0, and nan, fall in none.  It falls back to g = (m, m, 0),
    with m the row's mean of x^2, when a bin is empty, the bin means are
    singular or the solution is not positive definite.  Every m must be
    positive and finite.
    """
    trials = x2.shape[0]
    # one slot per (row, bin key)
    slots = (4 * np.arange(trials)[:, None] + keys).ravel()

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
    overflows to inf or nan here and the line search rejects it.
    """
    scales = np.exp(p[..., ::2])
    b = p[..., 1]
    g = np.empty(p.shape)
    # a^2 and c^2 first, then c^2 is replaced by sqrt2 a b
    np.multiply(scales, scales, out=g[..., ::2])
    np.add(b * b, g[..., 2], out=g[..., 1])
    np.multiply(SQRT2 * scales[..., 0], b, out=g[..., 2])
    cvar = np.matmul(g[..., None, :], v)[..., 0, :]
    # ln C_j + x_j^2 / C_j, summed in the rows of ln C_j
    terms = np.log(cvar)
    terms += np.divide(x2, cvar)
    f = -0.5 * np.add.reduce(terms, axis=-1) - 0.5 * x2.shape[-1] * LOG_2PI
    nonpositive = cvar <= 0.0
    if np.count_nonzero(nonpositive):
        f[nonpositive.any(axis=-1)] = -math.inf
    return g, f, cvar, scales


def _derivatives(v: np.ndarray, x2: np.ndarray, cvar: np.ndarray):
    """(grad_g, hess_g): the likelihood's gradient and Hessian in g of each
    row, from three contractions over N; cvar's rows are overwritten.

    With r = 1/C, the gradient is 1/2 sum v (x^2 r - 1) r and the Hessian
    -1/2 sum v v^T w, w = 2 x^2 r^3 - r^2.  Since v0 + v1 = 1 and v2^2 =
    2 v0 v1, its six entries follow from five sums of v w and v v0 w:
    v1 v1 = v1 - v0 v1, v1 v2 = v2 - v0 v2 and v2 v2 = 2 v0 v1.  Each
    contraction is einsum's "tiN,tN->ti", which sums each row alone: other
    forms, such as "twN,tbN->twb", make a row's bits depend on the rows
    beside it.
    """
    r = np.divide(1.0, cvar, out=cvar)
    w = np.multiply(x2, r)
    w -= 1.0
    w *= r
    grad_g = np.einsum("tiN,tN->ti", v, w)
    grad_g *= 0.5
    # 2 x^2 r^3 - r^2 = (2 (x^2 r - 1) r + r) r, in the rows of w
    w *= 2.0
    w += r
    w *= r
    s = np.einsum("tiN,tN->ti", v, w)
    t = np.einsum("tiN,tN->ti", v, np.multiply(w, v[:, 0], out=r))
    sums = np.concatenate([t, s[:, 1:] - t[:, 1:], 2.0 * t[:, 1:2]], axis=1)
    sums *= -0.5
    return grad_g, np.take(sums, _HESSIAN_SLOTS, axis=1).reshape(len(sums), 3, 3)


# each row's Hessian in g, 3x3 row-major, as slots of the sums of v0 v0 w,
# v0 v1 w, v0 v2 w, v1 v1 w, v1 v2 w and v2 v2 w
_HESSIAN_SLOTS = np.array([0, 1, 2, 1, 3, 4, 2, 4, 5])


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


def _ascent_directions(p, scales, grad_g, hess_g, f):
    """(step, flat): each row's step in (ln a, b, ln c) from its gradient
    grad_g and Hessian hess_g in g, and the mask of the Newton rows at the
    rounding floor of their likelihood f.

    A row whose chained Hessian H is negative definite takes the Newton
    step -H^-1 grad.  A row whose H is finite but not negative definite
    takes the saddle-free step Q |L|^-1 Q^T grad of H = Q L Q^T (Dauphin et
    al., NeurIPS 2014), each |eigenvalue| floored at _SADDLE_FLOOR of the
    row's largest: it ascends where unit steepest ascent would crawl along
    an indefinite H.  Every other row, whose H is not finite or whose
    LAPACK call failed, takes unit steepest ascent.  A Newton row is flat
    when its step's predicted gain 1/2 grad^T step, half its Newton
    decrement, is at most _ROUNDING_FLOOR |f|: below that no step can
    raise the likelihood by more than the rounding of its sum (Boyd &
    Vandenberghe, Convex Optimization, 2004, sec. 9.5.1).  Being flat is
    the one way a row ends converged.

    The test and the solves call the LAPACK gufuncs that np.linalg.eigvalsh,
    np.linalg.solve and np.linalg.eigh run, without their argument checks:
    on a few rows the checks cost more than the arithmetic.  The
    saddle-free steps are formed entry by entry, so that no row's bits
    depend on the rows beside it.  A LAPACK failure gives that row nan,
    which the fit's own fallbacks meet: nan eigenvalues take unit steepest
    ascent, and a nan Newton step is not flat and never raises the
    likelihood, so the row stalls.
    """
    rows = len(p)
    b = p[:, 1]
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
    # a row whose Hessian is not finite skips LAPACK: its top eigenvalue
    # stays nan
    finite = np.logical_and.reduce(np.isfinite(hess_p), axis=(1, 2))
    # all rows finite, as most are, test the whole stack without a copy
    if np.count_nonzero(finite) == rows:
        top = _umath_linalg.eigvalsh_lo(hess_p, signature="d->d").max(axis=-1)
    else:
        top = np.full(rows, math.nan)
        top[finite] = _umath_linalg.eigvalsh_lo(hess_p[finite], signature="d->d").max(axis=-1)
    newton = top < 0.0
    count = np.count_nonzero(newton)
    if count == rows:
        step = _umath_linalg.solve(hess_p, -grad_p[:, :, None], signature="dd->d")[:, :, 0]
    else:
        step = np.empty_like(grad_p)
        if count:
            step[newton] = _umath_linalg.solve(hess_p[newton], -grad_p[newton][:, :, None],
                                               signature="dd->d")[:, :, 0]
        saddle = top >= 0.0
        if np.count_nonzero(saddle):
            w, q = _umath_linalg.eigh_lo(hess_p[saddle], signature="d->dd")
            steps = _saddle_free_steps(w, q, grad_p[saddle])
            # an eigh failure leaves nan steps, whose rows fall through
            ok = np.logical_and.reduce(np.isfinite(steps), axis=1)
            saddle[saddle] = ok
            step[saddle] = steps[ok]
        steepest = ~(newton | saddle)
        ascent = grad_p[steepest]
        step[steepest] = ascent / np.sqrt(np.add.reduce(ascent * ascent, axis=-1))[:, None]
    gain = 0.5 * np.add.reduce(grad_p * step, axis=1)
    return step, newton & (gain <= _ROUNDING_FLOOR * np.abs(f))


# each |eigenvalue| of a saddle-free step is at least this share of the
# row's largest
_SADDLE_FLOOR = 1e-12


def _saddle_free_steps(w: np.ndarray, q: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Q |L|^-1 Q^T grad of each row, from the eigenvalues w (rows, 3) and
    eigenvector columns q (rows, 3, 3) of its Hessian: three sums of
    products per entry, in a fixed order."""
    mag = np.abs(w)
    mag = np.maximum(mag, _SADDLE_FLOOR * np.maximum.reduce(mag, axis=1)[:, None])
    # y = Q^T grad, then Q (y / |L|)
    y = q[:, 0] * grad[:, 0, None] + q[:, 1] * grad[:, 1, None] + q[:, 2] * grad[:, 2, None]
    y /= mag
    return q[:, :, 0] * y[:, 0, None] + q[:, :, 1] * y[:, 1, None] + q[:, :, 2] * y[:, 2, None]


# the halving factors 0.5**k, k = 0 .. _MAX_HALVINGS - 1, of _line_search
_HALVINGS = np.ldexp(1.0, -np.arange(_MAX_HALVINGS))


def _line_search(p, step, f, v, x2):
    """Each row's first step t = 0.5**k, k = 0 .. _MAX_HALVINGS - 1, whose
    likelihood beats f[row].

    A Newton or saddle-free step is accepted whole in most passes, so a
    pass first evaluates all full steps in one stack, and the rows it
    fails for go on at k = 1.  Rows then try their next halvings as a
    (rows, window) stack of candidates, a window of k at a time, until
    each row has a step that beats f or has none left.  A round holds
    _BLOCK_SAMPLES / 8 samples at first and twice as many each round up
    to _BLOCK_SAMPLES, but always at least one halving per row, and is
    evaluated in one call: on views of v and x^2 when its rows are
    consecutive, and else on copies of their rows.  A copy holds 4 floats
    a sample of its rows; rows are not consecutive only in a block of 3
    or more trials, and a Monte Carlo block of 3 or more holds at most
    _BLOCK_SAMPLES samples, so there a copy takes at most 1 MiB.  A row's
    search also ends after the round in which a halving leaves all three
    parameters unchanged: fl(p + d) is monotone in d, so every later
    halving leaves them unchanged too, and a candidate equal to p,
    evaluated bit for bit as p was, cannot beat f.  Returns (found, (p, g,
    f, cvar, scales)), where the tuple holds the accepted steps' values in
    the rows marked found.
    """
    n = x2.shape[1]
    cand = p + step
    accepted = (cand, *_evaluate(cand, v, x2))
    found = accepted[2] > f
    searching = ~found
    k, budget = 1, _BLOCK_SAMPLES // 8
    while k < _MAX_HALVINGS and np.count_nonzero(searching):
        open_ = searching.nonzero()[0]
        w = max(1, min(_MAX_HALVINGS - k, budget // (open_.size * n)))
        cand = p[open_, None, :] + _HALVINGS[k:k + w, None] * step[open_, None, :]
        # a row stops after this round if its last halving in it is a no-op
        searching[open_[np.logical_and.reduce(cand[:, -1] == p[open_], axis=1)]] = False
        rows = slice(open_[0], open_[-1] + 1) \
            if open_[-1] - open_[0] + 1 == open_.size else open_
        values = (cand, *_evaluate(cand, v[rows, None], x2[rows, None]))
        wins = values[2] > f[open_, None]
        hit = np.logical_or.reduce(wins, axis=1).nonzero()[0]
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


def _drop_rows(leaving: np.ndarray, arrays: list) -> list:
    """The arrays cut to their rows where leaving is not set, compacted in
    place: each row that leaves is overwritten by one of the last rows that
    stay.  The rows change order, which no row's bits depend on."""
    rows = len(leaving) - np.count_nonzero(leaving)
    holes = leaving[:rows].nonzero()[0].tolist()
    movers = (rows + (~leaving[rows:]).nonzero()[0]).tolist()
    for a in arrays:
        for hole, mover in zip(holes, movers):
            a[hole] = a[mover]
    return [a[:rows] for a in arrays]


def _fit_block(v: np.ndarray, x2: np.ndarray, p: np.ndarray):
    """Newton ascent from the parameter rows p, one row per trial, in lockstep.

    A row leaves the block when its Newton step's predicted gain reaches
    the rounding floor of its likelihood (converged, the one convergence
    test; see _ascent_directions), when no step halving raises its
    likelihood (stalled), or when an accepted step takes det(g) below
    _BOUNDARY_DET g1 g2 and the boundary point of _boundary_fits beats the
    step and is a maximum on the closed cone det(g) >= 0, its likelihood
    falling into the interior (boundary): such a row drifts to the
    singular edge det(g) = 0, which the log-Cholesky parameters reach only
    at infinity.  From pass _BOUNDARY_PASSES on, every row is tested so,
    at any det(g): a drifting row then ends when its boundary point first
    wins, not when its ln c has fallen far enough, and stops holding its
    block's lockstep passes.  Any other tested row iterates on, since an
    interior optimum can lie that close to the edge on thin states, and
    keeps its best boundary point: wherever that beats the row's last
    iterate, the row ends there (boundary).  Rows still iterating after
    _MAX_ITERATIONS stop there (stalled).  The arrays of a row that leaves
    are overwritten in place (_drop_rows), and live holds the trial of
    each row still iterating.  Returns (g, loglik, iterations, status) per
    trial.

    The loop runs in one floating-point state that neither warns nor
    raises: a far-off trial step overflows to inf or nan and is rejected,
    and a LAPACK failure is a nan row that takes steepest ascent or stalls.
    """
    with np.errstate(all="ignore"):
        trials = len(x2)
        g, f, cvar, scales = _evaluate(p, v, x2)
        g_out, f_out = np.empty((trials, 3)), np.empty(trials)
        iterations = np.zeros(trials, dtype=int)
        status = np.full(trials, "stalled", dtype=_STATUS)
        # each trial's best boundary point so far
        g_edge, f_edge = np.empty((trials, 3)), np.full(trials, -math.inf)
        live = np.arange(trials)
        it = 0
        for it in range(1, _MAX_ITERATIONS + 1):
            if not live.size:
                break
            grad_g, hess_g = _derivatives(v, x2, cvar)
            # this pass's variances are freed before the line search, which
            # forms the next ones
            del cvar
            step, done = _ascent_directions(p, scales, grad_g, hess_g, f)
            # the masks are tested with np.count_nonzero, which costs a third
            # of .any() or .all() on a few rows
            if np.count_nonzero(done):
                gone = live[done]
                status[gone] = "converged"
                g_out[gone], f_out[gone], iterations[gone] = g[done], f[done], it
                live, p, g, f, scales, v, x2, step = _drop_rows(
                    done, [live, p, g, f, scales, v, x2, step])
                if not live.size:
                    break
            found, accepted = _line_search(p, step, f, v, x2)
            if np.count_nonzero(found) < len(found):
                # no halving of the step raises the likelihood
                stalled = ~found
                gone = live[stalled]
                g_out[gone], f_out[gone], iterations[gone] = g[stalled], f[stalled], it
                live, v, x2, *accepted = _drop_rows(stalled, [live, v, x2, *accepted])
            p, g, f, cvar, scales = accepted
            del accepted
            # det(g) = a^2 c^2 and g1 g2 = a^2 g2, so det(g) < _BOUNDARY_DET g1 g2
            # compares c^2 with g2; from pass _BOUNDARY_PASSES on every row is tested
            edge = scales[:, 1] * scales[:, 1] < _BOUNDARY_DET * g[:, 1]
            edge |= it >= _BOUNDARY_PASSES
            if np.count_nonzero(edge):
                rows = edge.nonzero()[0]
                g_row, f_row, kkt = _boundary_fits(v[rows], x2[rows], g[rows])
                best = f_row > f_edge[live[rows]]
                g_edge[live[rows[best]]], f_edge[live[rows[best]]] = g_row[best], f_row[best]
                edge[rows] = kkt & (f_row > f[rows])
                if np.count_nonzero(edge):
                    gone = live[edge]
                    status[gone], iterations[gone] = "boundary", it
                    g_out[gone], f_out[gone] = g_edge[gone], f_edge[gone]
                    live, p, g, f, cvar, scales, v, x2 = _drop_rows(
                        edge, [live, p, g, f, cvar, scales, v, x2])
        g_out[live], f_out[live], iterations[live] = g, f, it
        # a row that iterated on past a better boundary point ends there
        beaten = f_edge > f_out
        status[beaten] = "boundary"
        g_out[beaten], f_out[beaten] = g_edge[beaten], f_edge[beaten]
        return g_out, f_out, iterations, status


# Newton steps of the boundary profile search per row, each at least a
# bisection of its bracket
_PROFILE_STEPS = 100


def _boundary_fits(v: np.ndarray, x2: np.ndarray, g: np.ndarray):
    """(g, loglik, kkt) of each row's best boundary covariance r u u^T, u =
    (cos a, sin a), near its interior iterate g; kkt marks the rows whose
    likelihood does not rise from there into the interior det(g) > 0.

    On the boundary the best r is r(a) = mean(x_j^2 / w_j(a)), with w_j =
    cos^2(theta_j - a) = v_j^T (cos^2 a, sin^2 a, sqrt2 cos a sin a), which
    leaves the profile l(a) = -(N/2) ln r(a) - 1/2 sum ln w_j(a) + const.
    It falls to -inf at each pole theta_j + pi/2, so the search keeps to
    the bracket between the poles on either side of g's major-axis angle,
    where it starts: a Newton step on l where l'' < 0 and the step stays
    inside the bracket, else a bisection, the bracket shrinking to the
    sign of l' each step.  Self & Liang, JASA 1987, on estimates at the
    edge of the parameter space.
    """
    n = x2.shape[1]
    a = 0.5 * np.arctan2(SQRT2 * g[:, 2], g[:, 0] - g[:, 1])
    # each sample's pole theta_j + pi/2, then its distance ahead of a mod pi
    ahead = 0.5 * np.arctan2(SQRT2 * v[:, 2], v[:, 0] - v[:, 1]) + 0.5 * math.pi
    ahead = np.remainder(ahead - a[:, None], math.pi)
    hi = a + np.minimum.reduce(np.where(ahead > 0.0, ahead, math.pi), axis=1)
    lo = a - np.minimum.reduce(np.where(ahead > 0.0, math.pi - ahead, math.pi), axis=1)
    open_ = np.ones(len(a), dtype=bool)
    for _ in range(_PROFILE_STEPS):
        ca, sa = np.cos(a)[:, None], np.sin(a)[:, None]
        cc, ss, cs = ca * ca, sa * sa, ca * sa
        w = v[:, 0] * cc + v[:, 1] * ss + v[:, 2] * (SQRT2 * cs)
        # w'/w and w''/w
        d1 = (v[:, 1] - v[:, 0]) * (2.0 * cs) + v[:, 2] * (SQRT2 * (cc - ss))
        d2 = (v[:, 1] - v[:, 0]) * (2.0 * (cc - ss)) - v[:, 2] * (4.0 * SQRT2 * cs)
        d1 /= w
        d2 /= w
        q = x2 / w
        r = q.mean(axis=1)
        # r'/r and r''/r
        r1 = -(q * d1).mean(axis=1) / r
        r2 = (q * (2.0 * d1 * d1 - d2)).mean(axis=1) / r
        slope = -0.5 * n * r1 - 0.5 * d1.sum(axis=1)
        curv = -0.5 * n * (r2 - r1 * r1) - 0.5 * (d2 - d1 * d1).sum(axis=1)
        rising = slope > 0.0
        lo = np.where(rising, a, lo)
        hi = np.where(rising, hi, a)
        newton = a - slope / curv
        nxt = np.where((curv < 0.0) & (newton > lo) & (newton < hi), newton, 0.5 * (lo + hi))
        # a row whose Newton step rounds to nothing is at its maximum; the
        # bracket test would reject that step and bisect away from it
        open_ &= (nxt != a) & (slope != 0.0) & ((curv >= 0.0) | (newton != a))
        if not np.count_nonzero(open_):
            break
        a = np.where(open_, nxt, a)
    ca, sa = np.cos(a), np.sin(a)
    u = np.stack([ca * ca, sa * sa, SQRT2 * ca * sa], axis=1)
    w = np.matmul(u[:, None, :], v)[:, 0, :]
    q = x2 / w
    r = q.mean(axis=1)
    root = np.sqrt(r)
    # r u u^T has the Cholesky factor sqrt(r) (|cos|, sin sgn cos, 0) of its
    # angle, whose ln c is -inf
    p = np.stack([np.log(root * np.abs(ca)), root * sa * np.copysign(1.0, ca),
                  np.full(len(a), -math.inf)], axis=1)
    g, f, _, _ = _evaluate(p, v, x2)
    # the likelihood's slope from r u u^T into the interior, along s t t^T
    # with t perpendicular to u, is 1/2 sum (q_j - r) (1 - w_j) / (r w_j)^2,
    # of the sign of sum (q_j - r) / w_j since sum (q_j - r) = 0
    kkt = np.add.reduce((q - r[:, None]) / w, axis=1) <= 0.0
    return g, f, kkt


def _fit_inputs(eta: float, draw: list, out: np.ndarray | None = None):
    """The checks of estimate_homodyne_ml_block on draw = [thetas, xs, cos,
    sin], the float64 angles and the values of a block and the cosines and
    sines of the angles, then what its fit reads: (offset, (v, x^2, moment
    starts)).

    The list is emptied, and each of its arrays is let go once used: the
    angles once their check and bins are taken, the values once x^2
    exists, and the cosines and sines once v does.  So a caller that keeps
    no other reference to its draw holds no more of it than the set-up
    still needs (an argument tuple would hold all of it to the end), and
    holds v, x^2 and the starts alone once the call returns.  v is written
    into out, a float64 array of at least 3 trials N entries, where one is
    given.
    """
    if not 0.0 < eta <= 1.0:
        raise DomainError(f"eta = {eta} must lie in (0, 1]")
    theta, x, c, s = draw
    draw.clear()
    x = np.asarray(x, dtype=float)
    if theta.shape != x.shape or theta.ndim != 2:
        raise DomainError("homodyne blocks must be matching 2-d (trials, N) "
                          "angle/value arrays")
    trials, n = x.shape
    if n < 3:
        raise DomainError(f"need at least 3 samples, got {n}")
    if _too_few_angles(theta).any():
        raise DomainError("homodyne data must span at least 3 distinct angles; "
                          "fewer leave the 3-parameter model unidentifiable")
    keys = _angle_keys(theta)
    theta = None
    # overflow here fails the check on m, or makes a moment start fall back
    # to (m, m, 0), without a warning
    with np.errstate(all="ignore"):
        x2 = x * x
        x = None
        m = x2.mean(axis=1)
        if not np.all((m > 0.0) & (m < math.inf)):
            raise DomainError("homodyne data must have a positive, finite mean of x^2 "
                              "in every trial")
        # the rows (c^2, s^2, sqrt2 s c) written in place: stacking temporaries
        # would map fresh pages for every block
        size = trials * 3 * n
        v = (np.empty(size) if out is None else out[:size]).reshape(trials, 3, n)
        np.multiply(c, c, out=v[:, 0])
        np.multiply(s, s, out=v[:, 1])
        np.multiply(SQRT2, s, out=v[:, 2])
        s = None
        v[:, 2] *= c
        c = None
        return delta_offset(eta, SchemeKind.HOMODYNE), (v, x2, _moment_starts(v, x2, keys, m))


def estimate_homodyne_ml_block(thetas: np.ndarray, xs: np.ndarray, eta: float) -> BlockFit:
    """estimate_homodyne_ml of each row of (trials, N) angle and value
    arrays, fitted in lockstep; each row equals that row's own fit bit for
    bit, and no input array is written to.

    One Newton iteration runs on all rows still iterating at once, and a
    row leaves the block when it converges or stalls.  Any invalid row
    raises the DomainError that estimate_homodyne_ml raises for it.  An
    infinite angle gives a nan cosine and sine, so nan variances, and its
    row stalls at its start.
    """
    thetas = np.asarray(thetas, dtype=float)
    with np.errstate(invalid="ignore"):
        trig = np.cos(thetas), np.sin(thetas)
    delta, inputs = _fit_inputs(eta, [thetas, xs, *trig])
    return _block_fit(delta, *_fit_block(*inputs))


def estimate_homodyne_ml(data: tuple[np.ndarray, np.ndarray],
                         eta: float) -> EstimationResult:
    """Maximum-likelihood covariance fit to homodyne records.

    Maximises l(g) = -(1/2) sum_j [x_j^2 / C_j(g) + ln C_j(g)] with
    C_j = u(theta_j)^T G u(theta_j) over the three covariance parameters.
    Positivity is kept automatic by optimising the Cholesky factor of the
    effective covariance (diagonal in log scale); Newton steps use the
    analytic gradient and Hessian chained through that parametrisation,
    with step halving on likelihood decrease and a saddle-free fallback
    step while the Hessian is not negative definite.  A fit converges when
    a Newton step's predicted gain, half its Newton decrement, is at most
    _ROUNDING_FLOOR (8 2^-52) of |loglik|.  A fit that drifts to the
    singular edge det G = 0 ends on it, at the best point of the boundary
    profile (status "boundary"), once det G < _BOUNDARY_DET g1 g2 (1e-6)
    or, from pass _BOUNDARY_PASSES (18) on, at any det G, where that point
    beats the iterate and the likelihood falls from it into the interior.

    `data` is a (theta, x) pair of matching 1-d arrays; the angles must
    take at least three distinct values or the three-parameter model is
    unidentifiable, and the mean of x^2 must be positive and finite.  This
    is the block fit of one trial.
    """
    theta, x = _angles_values(data)
    return _single_result(estimate_homodyne_ml_block(theta[None], x[None], eta),
                          SchemeKind.HOMODYNE)
