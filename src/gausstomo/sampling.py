"""Seeded, reproducible synthetic measurement records.

Randomness comes from the Philox4x64 counter-based generator addressed by
an explicit (key, counter) pair, with Gaussian variates produced by the
inverse normal CDF applied to 53-bit uniforms.  Every random quantity is a
pure function of (master_seed, stream_id, word index), and each Monte Carlo
trial draws from its own stream, so any number of workers gives the same
draws on any platform.

Word layout: sample i consumes the two 64-bit words (2i, 2i + 1) of its
stream; homodyne uses word 2i for the quadrature angle (discarded under a
deterministic angle grid, keeping the layout policy-independent) and word
2i + 1 for the quadrature value, heterodyne uses both words for the
phase-space pair.  A heterodyne Monte Carlo trial drawn from its sufficient
statistic (heterodyne_moments) reads words 0, 1 and 2 of its stream for
c1^2, c2^2 and n21, and leaves word 3 unused.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .core import DomainError, GaussianStateSpec, NumericalError, SchemeKind, data_variances

_WORDS_PER_SAMPLE = 2
_WORDS_PER_BLOCK = 4  # one Philox4x64 counter increment yields four words
_WORD_MASK = 2 ** 64 - 1
# per thread: the Generator(Philox) that _seek re-keys for every stream, and
# the scratch buffer that the samplers draw their uniforms into
_THREAD = threading.local()


@dataclass(frozen=True)
class SeedSpec:
    """Addressable randomness: equal (master_seed, stream_id) means equal samples."""

    master_seed: int
    stream_id: int = 0

    def __post_init__(self):
        for name in ("master_seed", "stream_id"):
            v = getattr(self, name)
            if not isinstance(v, int) or not 0 <= v < 2 ** 64:
                raise DomainError(f"'{name}' must be an integer in [0, 2^64), got {v!r}")

    def stream(self, offset: int) -> "SeedSpec":
        return SeedSpec(self.master_seed, self.stream_id + offset)



@dataclass(frozen=True)
class ContinuousSweep:
    """Local-oscillator phase drawn uniformly on [0, pi) per shot."""


@dataclass(frozen=True)
class UniformGrid:
    """Phases cycle through theta_j = j pi / d, giving a balanced allocation."""

    d: int

    def __post_init__(self):
        if not isinstance(self.d, int) or self.d < 1:
            raise DomainError(f"grid size d = {self.d} must be a positive integer")


AnglePolicy = ContinuousSweep | UniformGrid


def _seek(key: list[int], start: int):
    """This thread's Generator(Philox), positioned at word `start` of the
    stream keyed [master_seed, stream_id], O(1) in start.

    Each thread re-keys one generator of its own: setting the state costs
    less than building a Philox, which first draws OS entropy for a seed
    that the key then replaces.
    """
    block0, offset = divmod(start, _WORDS_PER_BLOCK)
    if not 0 <= block0 < 2 ** 256:
        raise DomainError(f"start = {start} lies outside the stream's 2^258 words")
    gen = getattr(_THREAD, "generator", None)
    if gen is None:
        # made at the thread's first draw, so that importing the package
        # does not import numpy.random
        from numpy.random import Generator, Philox

        gen = _THREAD.generator = Generator(Philox(0))
    bitgen = gen.bit_generator
    # the state Philox(key=..., counter=block0) starts in: the 256-bit
    # counter as four little-endian words, and an empty output buffer
    bitgen.state = {"bit_generator": "Philox",
                    "state": {"counter": [(block0 >> shift) & _WORD_MASK
                                          for shift in (0, 64, 128, 192)],
                              "key": key},
                    "buffer": [0] * _WORDS_PER_BLOCK, "buffer_pos": _WORDS_PER_BLOCK,
                    "has_uint32": 0, "uinteger": 0}
    if offset:
        bitgen.random_raw(offset, output=False)
    return gen


def raw_words(seed: SeedSpec, start: int, count: int) -> np.ndarray:
    """uint64 words [start, start + count) of the stream, O(1) in start.

    Positions the Philox counter directly at the containing block, so a
    worker can read any window of the stream without generating its prefix.
    """
    if count == 0:
        return np.zeros(0, dtype=np.uint64)
    return _seek([seed.master_seed, seed.stream_id], start).bit_generator.random_raw(count)


def ndtri(p: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """scipy.special.ndtri, the inverse standard normal CDF, into out if given.

    scipy.special is imported at the first call, not with this module:
    it is most of the package's import time, and only sampling needs it.
    """
    from scipy import special

    return special.ndtri(p, out)


def _open_interval(u: np.ndarray) -> np.ndarray:
    # the 53-bit mantissas (w >> 11) 2^-53 moved in place to the midpoints
    # of their cells, strictly inside (0, 1) so ndtri stays finite: the top
    # mantissa (2^53 - 1) 2^-53 + 2^-54 rounds to 1.0, so it is clamped to
    # 1 - 2^-53, which no other word reaches
    u += 2.0 ** -54
    return np.minimum(u, 1.0 - 2.0 ** -53, out=u)


def _normals_in_place(u: np.ndarray) -> np.ndarray:
    return ndtri(_open_interval(u), u)


def _scratch(size: int) -> np.ndarray:
    """The first size floats of this thread's scratch buffer, grown to
    hold them if it is smaller.

    The buffer grows to the largest size the thread has asked for and is
    reused, so a draw writes into pages already mapped.  A view is valid
    until the thread's next draw or request; no public function returns
    or keeps one.
    """
    buffer = getattr(_THREAD, "buffer", None)
    if buffer is None or buffer.size < size:
        buffer = _THREAD.buffer = np.empty(size)
    return buffer[:size]


def _uniforms(seed: SeedSpec, trials: int, count: int) -> np.ndarray:
    """(trials, count) mantissas (w >> 11) 2^-53 of the words [0, count),
    row k from stream seed.stream(k), in this thread's scratch buffer.

    numpy's Generator.random makes each double from one Philox word exactly
    so.  DomainError, before any draw, if the last stream id leaves
    [0, 2^64).
    """
    u = _scratch(trials * count).reshape(trials, count)
    if trials:
        seed.stream(trials - 1)
    for k, row in enumerate(u):
        _seek([seed.master_seed, seed.stream_id + k], 0).random(out=row)
    return u


def _sample_uniforms(seed: SeedSpec, trials: int, n: int) -> np.ndarray:
    """(trials, n, 2) uniforms of the words of samples [0, n)."""
    return _uniforms(seed, trials, _WORDS_PER_SAMPLE * n).reshape(trials, n, _WORDS_PER_SAMPLE)


def homodyne_arrays(spec: GaussianStateSpec, n: int,
                    angle_policy: AnglePolicy = ContinuousSweep(),
                    seed: SeedSpec = SeedSpec(0)) -> tuple[np.ndarray, np.ndarray]:
    """Draw homodyne records [0, n) of the seed's stream as arrays (theta, x).

    x_i is zero-mean Gaussian with variance C(theta_i) = u^T G_hom u; the
    state mean is fixed at zero, only the profile is modelled.  Default
    angle policy is the continuous sweep (the infinite-quadrature limit);
    a UniformGrid(d) realises a finite set of d angle settings with
    balanced counts.  NumericalError if a value is not finite.
    """
    thetas, x, _, _ = _homodyne_block(spec, n, angle_policy, seed, 1)
    return thetas[0], x[0]


def _check_finite(what: str, *arrays: np.ndarray):
    if not all(np.isfinite(a).all() for a in arrays):
        raise NumericalError(f"{what} of this state are not finite floats")


def _homodyne_block(spec: GaussianStateSpec, n: int, policy: AnglePolicy,
                    seed: SeedSpec, trials: int):
    """(thetas, x, cos thetas, sin thetas) of the homodyne_arrays draws of
    streams seed.stream(k), k < trials, as (trials, n) arrays whose row k
    is the draw from seed.stream(k) alone; the fit takes the cosines and
    sines on.  NumericalError, without a warning, if a value is not finite.
    """
    if n < 1:
        raise DomainError(f"n = {n} must be at least 1")
    u = _sample_uniforms(seed, trials, n)
    if isinstance(policy, ContinuousSweep):
        # pi (w >> 11) 2^-53, scaled by the power of two after rounding as
        # before it
        thetas = math.pi * u[..., 0]
    elif isinstance(policy, UniformGrid):
        idx = np.arange(n)
        if policy.d < n:  # else the reduction is the identity
            idx %= policy.d
        # a d beyond the float range is scaled down by a power of two first
        shift = max(0, policy.d.bit_length() - 1000)
        thetas = np.tile(np.ldexp(math.pi * idx.astype(float) / (policy.d >> shift), -shift),
                         (trials, 1))
    else:
        raise DomainError(f"unknown angle policy {policy!r}")
    d1, d2 = data_variances(spec.mu, spec.lam, spec.eta, SchemeKind.HOMODYNE)
    c_phi, s_phi = math.cos(spec.phi), math.sin(spec.phi)
    c, s = np.cos(thetas), np.sin(thetas)
    # the squeezed axis lies at angle -phi: c' = cos(theta + phi) into the
    # spent angle words, s' = sin(theta + phi) into x, then (d1 c') c' + (d2 s') s'
    cp, x, term = u[..., 0], np.empty_like(c), np.empty_like(c)
    with np.errstate(over="ignore", invalid="ignore"):
        np.multiply(c, c_phi, out=cp)
        cp -= np.multiply(s, s_phi, out=term)
        np.multiply(s, c_phi, out=x)
        x += np.multiply(c, s_phi, out=term)
        np.multiply(d2, x, out=term)
        term *= x
        np.multiply(d1, cp, out=x)
        x *= cp
        x += term
        np.sqrt(x, out=x)
        x *= _normals_in_place(u[..., 1])
    _check_finite("homodyne samples", x)
    return thetas, x, c, s


def _square_root(spec: GaussianStateSpec) -> tuple[float, float, float, float]:
    """(l11, l12, l21, l22) of L = [[c r1, s r2], [-s r1, c r2]], the
    eigenvectors of G_het scaled by the roots of its eigenvalues e1, e2
    (c, s = cos phi, sin phi), so that L L^T = G_het."""
    e1, e2 = data_variances(spec.mu, spec.lam, spec.eta, SchemeKind.HETERODYNE)
    r1, r2 = math.sqrt(e1), math.sqrt(e2)
    c, s = math.cos(spec.phi), math.sin(spec.phi)
    return c * r1, s * r2, -s * r1, c * r2


def heterodyne_arrays(spec: GaussianStateSpec, n: int,
                      seed: SeedSpec = SeedSpec(0)) -> tuple[np.ndarray, np.ndarray]:
    """Draw heterodyne phase-space pairs [0, n) of the seed's stream as
    arrays (x, p).

    The pairs are i.i.d. from the heterodyne data Gaussian with covariance
    G_W + (2 - eta)/(2 eta) I, sampled as L z (_square_root).
    NumericalError if a value is not finite.
    """
    if n < 1:
        raise DomainError(f"n = {n} must be at least 1")
    z = _normals_in_place(_sample_uniforms(seed, 1, n)[0])
    l11, l12, l21, l22 = _square_root(spec)
    # one allocation for both outputs: a pair of fresh ones would grow the
    # heap past malloc's trim threshold, and every draw would refault them
    x, p = np.empty((2, n))
    with np.errstate(over="ignore", invalid="ignore"):
        np.multiply(l11, z[:, 0], out=x)
        x += np.multiply(l12, z[:, 1], out=p)
        np.multiply(l21, z[:, 0], out=p)
        p += np.multiply(l22, z[:, 1], out=z[:, 1])
    _check_finite("heterodyne samples", x, p)
    return x, p


# scipy inverts the lower chi-square tail through a series it cuts at 2000
# terms; past this many degrees of freedom that cut shows in the far tail
# (a quantile off by 4e-14 relative at 10^6, by 1.4e-7 at 10^7), so there
# every lower-tail variate is refined on the whole series
_SCIPY_LOWER_TAIL_DOF = 10 ** 5
_REFINE_STEPS = 8
_SERIES_TERMS = 2 ** 22  # at most, per variate and Newton step
# the series is summed for up to _SERIES_ROWS variates at once, in chunks of
# _SERIES_WIDTH terms: a fixed shape, so a variate's bits never depend on
# the variates summed beside it
_SERIES_ROWS = 64
_SERIES_WIDTH = 2 ** 12


def _lower_gamma_log(a: float, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(ln P(a, h), S) for a > _SCIPY_LOWER_TAIL_DOF / 2 and 0 < h < a + 1,
    where P(a, h) = h^a e^-h S / Gamma(a + 1) is the regularised lower
    incomplete gamma and S = sum_k prod_{j <= k} h / (a + j).

    The prefactor is taken as exp(-a phi) / sqrt(2 pi a) exp(-1/(12 a)), with
    phi = s - log1p(s) and s = (h - a)/a: no cancellation of a ln h - h
    against ln Gamma(a + 1), and the Stirling series past 1/(12 a) is below
    1e-16.  S is summed until the geometric bound on its tail is below
    2^-60 S, which leaves S unchanged by any later term; NumericalError if
    that takes more than _SERIES_TERMS terms.
    """
    h = h[:, None]
    series = np.ones(h.shape)
    log_term = np.zeros(h.shape)
    for first in range(1, _SERIES_TERMS, _SERIES_WIDTH):
        j = np.arange(first, first + _SERIES_WIDTH)
        logs = log_term - np.cumsum(np.log1p((a + j - h) / h), axis=1)
        terms = np.exp(logs)
        series += terms.sum(axis=1, keepdims=True)
        log_term = logs[:, -1:]
        ratio = h / (a + j[-1] + 1)  # bounds every later term ratio
        if np.all(terms[:, -1:] * ratio <= 2.0 ** -60 * series * (1.0 - ratio)):
            break
    else:
        raise NumericalError(f"the lower chi-square tail at {2 * a:.17g} degrees of "
                             f"freedom needs more than {_SERIES_TERMS} series terms")
    s = (h - a) / a  # h - a is exact for h in [a/2, 2a]
    log_cdf = (-a * (s - np.log1p(s)) - 0.5 * math.log(2.0 * math.pi * a)
               - 1.0 / (12.0 * a) + np.log(series))
    return log_cdf[:, 0], series[:, 0]


def _lower_gamma_quantile(a: float, h: np.ndarray, p: np.ndarray) -> np.ndarray:
    """h with P(a, h) = p, by Newton steps on ln P from the given h.

    Each h takes steps until one moves it by at most 2^-45 relative, after
    which its error is of the order of that step squared; NumericalError if
    _REFINE_STEPS do not settle it or a step takes it to h <= 0.
    """
    h = h.copy()
    log_p = np.log(p)
    for first in range(0, len(h), _SERIES_ROWS):
        rows = np.arange(first, min(first + _SERIES_ROWS, len(h)))
        for _ in range(_REFINE_STEPS):
            log_cdf, series = _lower_gamma_log(a, h[rows])
            # d ln P / dh = a / (h S)
            step = (log_cdf - log_p[rows]) * h[rows] * series / a
            h[rows] -= step
            if not np.all(h[rows] > 0.0):
                break
            rows = rows[np.abs(step) > 2.0 ** -45 * h[rows]]
            if not rows.size:
                break
        if rows.size:
            raise NumericalError(f"the lower chi-square tail at {2 * a:.17g} degrees "
                                 f"of freedom did not settle in {_REFINE_STEPS} "
                                 "Newton steps")
    return h


def _chi_square(dof: int, q: np.ndarray) -> np.ndarray:
    """chi^2_dof variates whose upper-tail probabilities are q, in (0, 1).

    scipy.special.chdtri inverts each q; past _SCIPY_LOWER_TAIL_DOF the
    variates of the lower tail (q > 1/2, where 1 - q is exact) are refined
    by _lower_gamma_quantile.
    """
    from scipy import special

    x = special.chdtri(dof, q)
    if dof > _SCIPY_LOWER_TAIL_DOF:
        lower = q > 0.5
        x[lower] = 2.0 * _lower_gamma_quantile(0.5 * dof, 0.5 * x[lower], 1.0 - q[lower])
    return x


def heterodyne_moments(spec: GaussianStateSpec, n: int, seed: SeedSpec, trials: int
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Second moments (S11, S22, S12) = mean (x^2, p^2, x p) of n heterodyne
    samples from each stream seed.stream(k), k < trials, drawn from their
    sufficient statistic in O(1) of n, as arrays whose entry k is that of
    stream k.

    n S = sum z z^T is Wishart with scale G_het and n degrees of freedom, so
    by Bartlett's decomposition n S = (L A)(L A)^T for any L L^T = G_het
    (the law of A A^T does not change under rotation; here L is that of
    _square_root), with A = [[c1, 0], [n21, c2]] for independent c1^2 ~
    chi^2_n, c2^2 ~ chi^2_(n-1) and n21 ~ N(0, 1).  c1^2 and c2^2 are the
    upper-tail quantiles of words 0 and 1 of the stream, n21 the normal
    of word 2.  The moments have the distribution of those of
    heterodyne_arrays(spec, n, seed.stream(k)), not their values.
    NumericalError past n = 2^53, where n and n - 1 stop being distinct
    floats, or if a moment is not finite.
    """
    if n < 2:
        raise DomainError(f"n = {n} must be at least 2")
    if n > 2 ** 53:
        raise NumericalError(f"n = {n} exceeds 2^53, past which the chi-square "
                             "draws are not certified")
    u = _open_interval(_uniforms(seed, trials, 3))
    c1 = np.sqrt(_chi_square(n, u[:, 0]))
    c2 = np.sqrt(_chi_square(n - 1, u[:, 1]))
    n21 = ndtri(u[:, 2])
    l11, l12, l21, l22 = _square_root(spec)
    with np.errstate(over="ignore", invalid="ignore"):
        # M = L A = [[m11, m12], [m21, m22]], and n S = M M^T
        m11 = l11 * c1 + l12 * n21
        m12 = l12 * c2
        m21 = l21 * c1 + l22 * n21
        m22 = l22 * c2
        moments = ((m11 * m11 + m12 * m12) / n, (m21 * m21 + m22 * m22) / n,
                   (m11 * m21 + m12 * m22) / n)
    _check_finite("heterodyne second moments", *moments)
    return moments
