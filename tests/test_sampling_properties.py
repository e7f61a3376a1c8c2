"""Property checks of the samplers: a window of a stream, and a row of a
block draw, equal the single-seed full run bit for bit; and the words of
each stream equal those of a Philox built for it alone."""

import sys
import threading

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from gausstomo import (ContinuousSweep, DomainError, GaussianStateSpec, SeedSpec,
                       UniformGrid, heterodyne_arrays, homodyne_arrays)
from gausstomo.sampling import raw_words

PROPERTY = settings(max_examples=20, deadline=None, derandomize=True, database=None)

SPEC = GaussianStateSpec(mu=2.0, lam=10.0, phi=0.3, eta=0.5)
SEEDS = st.builds(SeedSpec, st.integers(0, 2 ** 64 - 1), st.integers(0, 2 ** 64 - 1))
# both schemes, and homodyne under both angle policies
KINDS = ("sweep", "grid", "heterodyne")


def draw(kind, d, seed, n, start=0):
    if kind == "heterodyne":
        return heterodyne_arrays(SPEC, n, seed, start)
    policy = ContinuousSweep() if kind == "sweep" else UniformGrid(d)
    return homodyne_arrays(SPEC, n, policy, seed, start)


@pytest.mark.parametrize("kind", KINDS)
@PROPERTY
@given(seed=SEEDS, d=st.integers(1, 12), start=st.integers(0, 300),
       n=st.integers(1, 300))
def test_window_equals_the_slice_of_the_full_run(kind, seed, d, start, n):
    full = draw(kind, d, seed, start + n)
    window = draw(kind, d, seed, n, start)
    for whole, part in zip(full, window):
        assert whole.shape == (start + n,) and part.shape == (n,)
        assert (whole[start:] == part).all()


@pytest.mark.parametrize("kind", KINDS)
@PROPERTY
@given(seeds=st.lists(SEEDS, min_size=1, max_size=5), d=st.integers(1, 12),
       start=st.integers(0, 50), n=st.integers(1, 200))
def test_block_rows_equal_single_seed_draws(kind, seeds, d, start, n):
    block = draw(kind, d, seeds, n, start)
    for column in block:
        assert column.shape == (len(seeds), n)
    for row, seed in enumerate(seeds):
        for column, single in zip(block, draw(kind, d, seed, n, start)):
            assert (column[row] == single).all()


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
    # a generator shared between threads would be re-keyed between another
    # thread's state change and its draw
    threads, rounds = 4, 200
    windows = [[(SeedSpec(9, t), 5 * r + t, 3 + (r + t) % 7) for r in range(rounds)]
               for t in range(threads)]
    want = [[philox_words(*w) for w in ws] for ws in windows]
    got = [[] for _ in range(threads)]
    barrier = threading.Barrier(threads)

    def work(t):
        barrier.wait(timeout=10)
        for w in windows[t]:
            got[t].append(raw_words(*w))

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
        assert all((g == w).all() for g, w in zip(got[t], want[t]))
