"""Seeded, reproducible synthetic measurement records.

Randomness comes from the Philox4x64 counter-based generator addressed by
an explicit (key, counter) pair, with Gaussian variates produced by the
inverse normal CDF applied to 53-bit uniforms.  Every random quantity is a
pure function of (master_seed, stream_id, word index), so a run of n
samples can be split across workers by word blocks and reassembled into
exactly the single-threaded sequence on any platform.

Word layout: sample i consumes the two 64-bit words (2i, 2i + 1) of its
stream; homodyne uses word 2i for the quadrature angle (discarded under a
deterministic angle grid, keeping the layout policy-independent) and word
2i + 1 for the quadrature value, heterodyne uses both words for the
phase-space pair.
"""

from __future__ import annotations

import math
import threading
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .core import (Covariance2, DomainError, GaussianStateSpec, SchemeKind,
                   SQRT2, effective_covariance, json_number)

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
                raise DomainError(f"{name} must be an integer in [0, 2^64)")

    def stream(self, offset: int) -> "SeedSpec":
        return SeedSpec(self.master_seed, self.stream_id + offset)

    def to_json_dict(self) -> dict:
        return {"master_seed": self.master_seed, "stream_id": self.stream_id}

    @classmethod
    def from_json_dict(cls, d: dict) -> "SeedSpec":
        """The seed of a JSON record; an integral float such as 3.0 counts as
        that integer, and any other non-integer value raises DomainError."""
        ids = []
        for key, default in (("master_seed", None), ("stream_id", 0)):
            value = json_number(d, key, "seed", default)
            if isinstance(value, float):
                if not value.is_integer():
                    raise DomainError(f"seed key '{key}' must be an integer, got {value!r}")
                value = int(value)
            ids.append(value)
        return cls(*ids)


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


def _seek(seed: SeedSpec, start: int):
    """This thread's Generator(Philox), positioned at word `start` of the
    seed's stream, O(1) in start.

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
                              "key": [seed.master_seed, seed.stream_id]},
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
    return _seek(seed, start).bit_generator.random_raw(count)


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


def _marginal_variances(cov: Covariance2, thetas: np.ndarray) -> np.ndarray:
    c, s = np.cos(thetas), np.sin(thetas)
    return cov.g1 * c * c + cov.g2 * s * s + SQRT2 * cov.g3 * s * c


def _as_block(seed: SeedSpec | Sequence[SeedSpec]) -> tuple[list[SeedSpec], bool]:
    """(seeds, single): one seed is drawn as the block of one."""
    if isinstance(seed, SeedSpec):
        return [seed], True
    return list(seed), False


def _uniforms(seeds: list[SeedSpec], start: int, n: int) -> np.ndarray:
    """(trials, n, 2) mantissas (w >> 11) 2^-53 of the words of samples
    [start, start + n), one row per stream, in this thread's scratch buffer.

    numpy's Generator.random makes each double from one Philox word exactly
    so.  The buffer grows to the largest block the thread has drawn and is
    reused, so a draw writes into pages already mapped; the view is valid
    until the thread's next draw, and no sampler returns it.
    """
    size = len(seeds) * _WORDS_PER_SAMPLE * n
    buffer = getattr(_THREAD, "buffer", None)
    if buffer is None or buffer.size < size:
        buffer = _THREAD.buffer = np.empty(size)
    u = buffer[:size].reshape(len(seeds), _WORDS_PER_SAMPLE * n)
    for row, seed in zip(u, seeds):
        _seek(seed, _WORDS_PER_SAMPLE * start).random(out=row)
    return u.reshape(len(seeds), n, _WORDS_PER_SAMPLE)


def homodyne_arrays(spec: GaussianStateSpec, n: int,
                    angle_policy: AnglePolicy | None = None,
                    seed: SeedSpec | Sequence[SeedSpec] = SeedSpec(0),
                    start: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Draw homodyne records [start, start + n) as arrays (theta, x).

    x_i is zero-mean Gaussian with variance C(theta_i) = u^T G_hom u; the
    state mean is fixed at zero, only the profile is modelled.  Default
    angle policy is the continuous sweep (the infinite-quadrature limit);
    a UniformGrid(d) realises a finite set of d angle settings with
    balanced counts.  Samples [start, start + n) equal the same slice of
    the full run, so workers covering disjoint windows reproduce the
    single-threaded sequence exactly after reassembly.

    A sequence of seeds draws a block: (trials, n) arrays whose row k
    equals the draw from seeds[k] alone.
    """
    if n < 1:
        raise DomainError(f"n = {n} must be at least 1")
    policy = ContinuousSweep() if angle_policy is None else angle_policy
    seeds, single = _as_block(seed)
    u = _uniforms(seeds, start, n)
    if isinstance(policy, ContinuousSweep):
        # pi (w >> 11) 2^-53, scaled by the power of two after rounding as
        # before it
        thetas = math.pi * u[..., 0]
    elif isinstance(policy, UniformGrid):
        idx = np.arange(start, start + n)
        if policy.d < start + n:  # else the reduction is the identity
            idx %= policy.d
        # a d beyond the float range is scaled down by a power of two first
        shift = max(0, policy.d.bit_length() - 1000)
        thetas = np.tile(np.ldexp(math.pi * idx.astype(float) / (policy.d >> shift), -shift),
                         (len(seeds), 1))
    else:
        raise DomainError(f"unknown angle policy {policy!r}")
    cov = effective_covariance(spec, SchemeKind.HOMODYNE)
    x = np.sqrt(_marginal_variances(cov, thetas))
    x *= _normals_in_place(u[..., 1])
    return (thetas[0], x[0]) if single else (thetas, x)


def _cholesky_lower(cov: Covariance2) -> tuple[float, float, float]:
    q = cov.g3 / SQRT2
    l11 = math.sqrt(cov.g1)
    l21 = q / l11
    l22 = math.sqrt(cov.g2 - l21 * l21)
    return l11, l21, l22


def heterodyne_arrays(spec: GaussianStateSpec, n: int,
                      seed: SeedSpec | Sequence[SeedSpec] = SeedSpec(0),
                      start: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Draw heterodyne phase-space pairs [start, start + n) as arrays (x, p).

    The pairs are i.i.d. from the heterodyne data Gaussian with covariance
    G_W + (2 - eta)/(2 eta) I, sampled through its Cholesky factor.  A
    sequence of seeds draws (trials, n) arrays, one row per seed, as
    homodyne_arrays does.
    """
    if n < 1:
        raise DomainError(f"n = {n} must be at least 1")
    seeds, single = _as_block(seed)
    z = _normals_in_place(_uniforms(seeds, start, n))
    l11, l21, l22 = _cholesky_lower(effective_covariance(spec, SchemeKind.HETERODYNE))
    # one allocation for both outputs: a pair of fresh ones would grow the
    # heap past malloc's trim threshold, and every draw would refault them
    x, p = np.empty((2, len(seeds), n))
    np.multiply(l11, z[..., 0], out=x)
    np.multiply(l21, z[..., 0], out=p)
    p += np.multiply(l22, z[..., 1], out=z[..., 1])
    return (x[0], p[0]) if single else (x, p)
