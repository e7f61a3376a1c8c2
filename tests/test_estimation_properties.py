"""Property checks of the homodyne fit's input checks: the distinct-angle
test agrees with np.unique on rows that mix duplicates, NaN, +-0.0 and
+-inf, and the fit rejects exactly the blocks it flags."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from gausstomo import DomainError, estimate_homodyne_ml_block
from gausstomo.estimation import _too_few_angles

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
