"""Property check of the homodyne fit's exponential: math.exp element for
element, with inf where math.exp overflows."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from gausstomo.estimation import _exp

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

# every float, and the edges of exp's range more often than chance
FLOATS = st.one_of(st.floats(), st.floats(-746.0, 711.0),
                   st.sampled_from([math.nan, math.inf, -math.inf, -0.0,
                                    709.782712893384, 709.7827128933841]))


def math_exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


@PROPERTY
@given(values=arrays(np.float64, array_shapes(min_dims=0, max_dims=4, max_side=5),
                     elements=FLOATS),
       strided=st.booleans())
@example(values=np.array([math.nan, math.inf, -math.inf, 710.0, -1e308]), strided=False)
def test_exp_is_math_exp_elementwise(values, strided):
    if strided and values.ndim:
        values = values[..., ::2]  # as the fit passes its parameters
    out = _exp(values)
    assert out.shape == values.shape and out.dtype == np.float64
    for x, y in zip(values.ravel().tolist(), out.ravel().tolist()):
        want = math_exp(x)
        assert y == want or (math.isnan(want) and math.isnan(y))
