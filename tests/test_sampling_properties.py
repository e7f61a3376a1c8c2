"""Property checks of the samplers: a row of a block draw equals the
single-seed draw bit for bit; every draw equals the word-level pipeline
raw_words -> uniforms -> ndtri; and the words of each stream equal those of
a Philox built for it alone."""

import math
import sys
import threading

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from gausstomo import (ContinuousSweep, DomainError, GaussianStateSpec, SchemeKind, SeedSpec,
                       UniformGrid, effective_covariance, heterodyne_arrays, homodyne_arrays)
from gausstomo import sampling
from gausstomo.sampling import heterodyne_moments, raw_words

PROPERTY = settings(max_examples=20, deadline=None, derandomize=True, database=None)

SPEC = GaussianStateSpec(mu=2.0, lam=10.0, phi=0.3, eta=0.5)
SEEDS = st.builds(SeedSpec, st.integers(0, 2 ** 64 - 1), st.integers(0, 2 ** 64 - 1))
# both schemes, and homodyne under both angle policies
KINDS = ("sweep", "grid", "heterodyne")


def policy(kind, d):
    return ContinuousSweep() if kind == "sweep" else UniformGrid(d)


def draw(kind, d, seed, n):
    """The public sampler's draw of n samples from one seed."""
    if kind == "heterodyne":
        return heterodyne_arrays(SPEC, n, seed)
    return homodyne_arrays(SPEC, n, policy(kind, d), seed)


@pytest.mark.parametrize("kind", KINDS)
@PROPERTY
@given(seeds=st.lists(SEEDS, min_size=1, max_size=5), d=st.integers(1, 12),
       n=st.integers(1, 200))
def test_block_rows_equal_single_seed_draws(kind, seeds, d, n):
    # the Monte Carlo runner's block draws: homodyne records, and the
    # second moments of at least 2 heterodyne samples
    if kind == "heterodyne":
        n = max(n, 2)
        block = heterodyne_moments(SPEC, n, seeds)
        singles = [[m[0] for m in heterodyne_moments(SPEC, n, [seed])] for seed in seeds]
        shape = (len(seeds),)
    else:
        block = sampling._homodyne_block(SPEC, n, policy(kind, d), seeds)[:2]
        singles = [draw(kind, d, seed, n) for seed in seeds]
        shape = (len(seeds), n)
    for column in block:
        assert column.shape == shape
    for row, single in enumerate(singles):
        for column, value in zip(block, single):
            assert (column[row] == value).all()


def reference_draw(kind, d, seeds, n, start=0):
    """The (trials, n) draw made from raw_words, as the samplers once made
    it: words -> 53-bit uniforms -> ndtri, one fresh array per step."""
    from scipy.special import ndtri

    words = np.empty((len(seeds), 2 * n), dtype=np.uint64)
    for row, seed in zip(words, seeds):
        row[:] = raw_words(seed, 2 * start, 2 * n)
    words = words.reshape(len(seeds), n, 2)

    def normal(w):
        u = (w >> np.uint64(11)).astype(float) * 2.0 ** -53 + 2.0 ** -54
        return ndtri(np.minimum(u, 1.0 - 2.0 ** -53, out=u))

    if kind == "heterodyne":
        cov = effective_covariance(SPEC, SchemeKind.HETERODYNE)
        l11 = math.sqrt(cov.g1)
        l21 = cov.g3 / math.sqrt(2.0) / l11
        l22 = math.sqrt(cov.g2 - l21 * l21)
        z = normal(words)
        return l11 * z[..., 0], l21 * z[..., 0] + l22 * z[..., 1]
    if kind == "sweep":
        thetas = math.pi * (words[..., 0] >> np.uint64(11)).astype(float) * 2.0 ** -53
    else:
        idx = np.arange(start, start + n) % d
        thetas = np.tile(math.pi * idx.astype(float) / d, (len(seeds), 1))
    cov = effective_covariance(SPEC, SchemeKind.HOMODYNE)
    c, s = np.cos(thetas), np.sin(thetas)
    variances = cov.g1 * c * c + cov.g2 * s * s + math.sqrt(2.0) * cov.g3 * s * c
    return thetas, np.sqrt(variances) * normal(words[..., 1])


# sizes small, and around the 2^15-sample blocks of the Monte Carlo runners
SIZES = st.one_of(st.integers(1, 300), st.integers(2 ** 15 - 3, 2 ** 15 + 3))


# every draw takes samples [0, n) of its stream
@pytest.mark.parametrize("start", [0], ids=["even-start"])
@pytest.mark.parametrize("kind", KINDS)
@PROPERTY
@given(seeds=st.lists(SEEDS, min_size=1, max_size=5), d=st.integers(1, 12), n=SIZES)
def test_draws_equal_the_word_level_pipeline(kind, start, seeds, d, n):
    want = reference_draw(kind, d, seeds, n, start)
    for row, seed in enumerate(seeds):
        for got, expected in zip(draw(kind, d, seed, n), want):
            assert got.dtype == np.float64 and got.shape == (n,)
            assert got.tobytes() == expected[row].tobytes()
    if kind != "heterodyne":
        # the Monte Carlo runner's block draw, with the cosines and sines
        # it hands to the fit
        thetas, x, c, s = sampling._homodyne_block(SPEC, n, policy(kind, d), seeds)
        assert [a.tobytes() for a in (thetas, x, c, s)] == \
            [a.tobytes() for a in (*want, np.cos(want[0]), np.sin(want[0]))]


@pytest.mark.parametrize("kind", KINDS)
def test_returned_arrays_do_not_alias_the_draw_buffer(kind):
    first = draw(kind, 5, SeedSpec(1, 2), 1000)
    kept = [column.copy() for column in first]
    # a smaller and a larger draw after it reuse and regrow this thread's buffer
    draw(kind, 5, SeedSpec(5, 6), 300)
    draw(kind, 5, SeedSpec(7, 8), 12000)
    for column, copy in zip(first, kept):
        assert column.tobytes() == copy.tobytes()
        assert not np.shares_memory(column, sampling._THREAD.buffer)


def philox_words(seed, start, count):
    """Words [start, start + count) of a Philox keyed and positioned for this
    stream alone, as raw_words once built one per call."""
    from numpy.random import Philox

    block, offset = divmod(start, 4)
    key = np.array([seed.master_seed, seed.stream_id], dtype=np.uint64)
    words = Philox(key=key, counter=block).random_raw(4 * ((offset + count + 3) // 4))
    return words[offset:offset + count]


# block counters small, around the 64-bit carry, and anywhere in the 256 bits
BLOCKS = st.one_of(st.integers(0, 2 ** 16), st.integers(2 ** 64 - 3, 2 ** 64 + 3),
                   st.integers(0, 2 ** 256 - 1))


@PROPERTY
@given(seed=SEEDS, block=BLOCKS, offset=st.integers(0, 3), count=st.integers(1, 40),
       earlier=st.none() | st.tuples(SEEDS, BLOCKS, st.integers(1, 9)))
def test_raw_words_equal_a_philox_of_their_own(seed, block, offset, count, earlier):
    if earlier is not None:
        # a draw before leaves this thread's generator at another key and counter
        other, other_block, other_count = earlier
        raw_words(other, 4 * other_block + 1, other_count)
    words = raw_words(seed, 4 * block + offset, count)
    assert words.dtype == np.uint64
    assert (words == philox_words(seed, 4 * block + offset, count)).all()


@pytest.mark.parametrize("start", [-1, 4 * 2 ** 256])
def test_start_outside_the_stream_is_a_domain_error(start):
    with pytest.raises(DomainError, match="start"):
        raw_words(SeedSpec(1), start, 1)


def test_threads_interleaving_draws_get_their_own_streams():
    # more threads than cores, switching as often as the interpreter allows:
    # a generator or draw buffer shared between threads would be re-keyed or
    # overwritten between another thread's state change and its read
    threads, rounds = 4, 200
    windows = [[(SeedSpec(9, t), 5 * r + t, 3 + (r + t) % 7) for r in range(rounds)]
               for t in range(threads)]

    def draws(seed, start, count):
        # the window's words, then the arrays of each sampler's first count
        # samples
        return [raw_words(seed, start, count)] + [
            column for kind in KINDS for column in draw(kind, 4, seed, count)]

    def reference(seed, start, count):
        return [philox_words(seed, start, count)] + [
            column[0] for kind in KINDS for column in reference_draw(kind, 4, [seed], count)]

    want = [[reference(*w) for w in ws] for ws in windows]
    got = [[] for _ in range(threads)]
    barrier = threading.Barrier(threads)

    def work(t):
        barrier.wait(timeout=10)
        for w in windows[t]:
            got[t].append(draws(*w))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work, args=(t,)) for t in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    for t in range(threads):
        assert len(got[t]) == rounds
        for g, w in zip(got[t], want[t]):
            assert len(g) == len(w) == 7
            assert all(a.tobytes() == b.tobytes() for a, b in zip(g, w))
