"""Property checks of the homodyne fit: the distinct-angle test agrees
with np.unique on rows that mix duplicates, NaN, +-0.0 and +-inf, and the
fit rejects exactly the blocks it flags; and the line search returns the
same bits as its earlier form, which skipped a row whose first halving in
a window left its parameters unchanged."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from gausstomo import (ContinuousSweep, DomainError, GaussianStateSpec, SeedSpec,
                       estimate_homodyne_ml_block, estimation)
from gausstomo.estimation import _fit_inputs, _too_few_angles
from gausstomo.sampling import _homodyne_block

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)

# a few values, so that rows repeat them, and any float
ANGLES = st.sampled_from([0.0, -0.0, 1.0, 2.0, math.nan, math.inf, -math.inf]) | st.floats()


@PROPERTY
@given(width=st.integers(3, 9), data=st.data())
def test_too_few_angles_matches_np_unique(width, data):
    rows = data.draw(st.lists(st.lists(ANGLES, min_size=width, max_size=width),
                              min_size=1, max_size=4))
    theta = np.array(rows)
    want = [np.unique(row).size < 3 for row in theta]
    assert _too_few_angles(theta).tolist() == want
    if any(want):
        with pytest.raises(DomainError, match="3 distinct angles"):
            estimate_homodyne_ml_block(theta, np.ones(theta.shape), 1.0)


def parent_line_search(p, step, f, v, x2):
    """_line_search as it was before each row whose first halving in a
    window is a no-op was evaluated with the others: every pass evaluates
    all its full steps first, the rows they fail for go on at k = 1, and a
    row whose first halving in a window leaves p unchanged is skipped.
    A round's rows were one stack on views when consecutive, one stack on
    copies of their rows of v and x^2 when those held at most
    _BLOCK_SAMPLES floats, and else one stack per run of consecutive rows,
    each on views."""

    def stacks(open_, n):
        first, last = open_[0], open_[-1]
        if last - first + 1 == open_.size:
            return [(slice(first, last + 1), slice(None))]
        if 4 * open_.size * n <= estimation._BLOCK_SAMPLES:
            return [(open_, slice(None))]
        ends = [0, *(np.flatnonzero(np.diff(open_) != 1) + 1).tolist(), open_.size]
        return [(slice(open_[a], open_[b - 1] + 1), slice(a, b))
                for a, b in zip(ends, ends[1:])]

    cand = p + step
    accepted = (cand, *estimation._evaluate(cand, v, x2))
    found = accepted[2] > f
    searching = ~found
    n = x2.shape[1]
    k, budget = 1, estimation._BLOCK_SAMPLES // 8
    while k < estimation._MAX_HALVINGS and np.count_nonzero(searching):
        open_ = np.flatnonzero(searching)
        w = max(1, min(estimation._MAX_HALVINGS - k, budget // (open_.size * n)))
        t = np.ldexp(1.0, -np.arange(k, k + w))
        cand = p[open_, None, :] + t[:, None] * step[open_, None, :]
        moved = (cand != p[open_, None, :]).any(axis=2)
        searching[open_[~moved[:, -1]]] = False
        if np.count_nonzero(moved[:, 0]) < open_.size:
            open_, cand = open_[moved[:, 0]], cand[moved[:, 0]]
        for rows, part in stacks(open_, n) if open_.size else ():
            trial = cand[part]
            values = (trial, *estimation._evaluate(trial, v[rows, None], x2[rows, None]))
            stacked = open_[part]
            wins = values[2] > f[stacked, None]
            hit = np.flatnonzero(wins.any(axis=1))
            if hit.size:
                first = wins[hit].argmax(axis=1)
                won = stacked[hit]
                for target, value in zip(accepted, values):
                    target[won] = value[hit, first]
                found[won] = True
                searching[won] = False
        k += w
        budget = min(2 * budget, estimation._BLOCK_SAMPLES)
    return found, accepted


STATE = GaussianStateSpec(mu=2.0, lam=10.0, eta=0.5)
# each row's step: its own ascent direction, one whose full step leaves p
# unchanged, one that overflows exp, or a random one
STEPS = st.sampled_from(["fit", "no-op", "overflow", "random"])


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n=st.sampled_from([3, 50, 150, 10_000]), master=st.integers(0, 2 ** 32),
       data=st.data())
def test_line_search_from_the_full_step_changes_no_bit(n, master, data):
    # with or without the skip of no-op windows, each row finds the same
    # first winning halving, or none; the pieces of a pass run in the
    # floating-point state _fit_block runs them in
    with np.errstate(all="ignore"):
        rows = data.draw(st.integers(1, 20), label="rows")
        draw = list(_homodyne_block(STATE, n, ContinuousSweep(), SeedSpec(master), rows))
        _, (v, x2, p) = _fit_inputs(STATE.eta, draw)
        g, f, cvar, scales = estimation._evaluate(p, v, x2)
        grad_g, hess_g = estimation._derivatives(v, x2, cvar)
        step, _ = estimation._ascent_directions(p, scales, grad_g, hess_g, f)
        rng = np.random.default_rng(master)
        for row, kind in enumerate(data.draw(st.lists(STEPS, min_size=rows, max_size=rows),
                                             label="steps")):
            if kind == "no-op":
                step[row] = p[row] * 2.0 ** -60
            elif kind == "overflow":
                step[row] = [800.0, 0.0, 0.0]
            elif kind == "random":
                step[row] = rng.normal(0.0, data.draw(st.sampled_from([1e-3, 1.0, 30.0])), 3)
        want_found, want = parent_line_search(p, step, f, v, x2)
        found, got = estimation._line_search(p, step, f, v, x2)
    assert found.tolist() == want_found.tolist()
    assert [a[found].tobytes() for a in got] == [a[found].tobytes() for a in want]
