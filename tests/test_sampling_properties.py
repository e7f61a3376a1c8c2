"""Property checks of the samplers: a window of a stream, and a row of a
block draw, equal the single-seed full run bit for bit."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from gausstomo import (ContinuousSweep, GaussianStateSpec, SeedSpec, UniformGrid,
                       heterodyne_arrays, homodyne_arrays)

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
