"""Property check of config resolution: resolving a resolved config
changes nothing, which is what makes embedded-config replay byte-exact."""

import json
import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from gausstomo.experiments import resolve_config

PROPERTY = settings(max_examples=50, deadline=None, derandomize=True, database=None)


def numbers(lo, hi):
    """Ints and floats alike: resolution turns list numbers into floats."""
    return st.one_of(st.integers(math.ceil(lo), math.floor(hi)), st.floats(lo, hi))


SPECS = st.fixed_dictionaries({"mu": numbers(1.0, 20.0), "lambda": numbers(1.0, 100.0),
                               "phi": st.floats(0.0, math.pi, exclude_max=True),
                               "eta": st.floats(0.05, 1.0)})
SEEDS = st.fixed_dictionaries({"master_seed": st.integers(0, 2 ** 64 - 1)},
                              optional={"stream_id": st.integers(0, 2 ** 64 - 1)})
N_VALUES = st.lists(st.integers(2, 10 ** 5), min_size=1, max_size=4)
COMMON = {"format": st.sampled_from(["csv", "json"]), "output_path": st.text(max_size=8)}
# the optional keys of the experiments that draw
DRAWING = {**COMMON, "seed": SEEDS}

FIG5 = st.fixed_dictionaries(
    {"experiment": st.just("fig5"), "trials": st.integers(1, 1000)},
    optional={"spec": SPECS, "n_values": N_VALUES, **DRAWING})
CRB = st.fixed_dictionaries(
    {"experiment": st.just("crb-attainment"), "spec": SPECS,
     "scheme": st.sampled_from(["homodyne", "heterodyne"]), "n_values": N_VALUES,
     "trials": st.integers(1, 1000)},
    optional=DRAWING)
SURFACE = st.fixed_dictionaries(
    {"experiment": st.just("surface"),
     "grid": st.fixed_dictionaries(
         {"lambda": st.lists(numbers(1.0, 100.0), min_size=1, max_size=4),
          "mu": st.lists(numbers(1.0, 20.0), min_size=1, max_size=4)},
         optional={"eta": st.one_of(numbers(0.05, 1.0),
                                    st.lists(numbers(0.05, 1.0), min_size=1, max_size=3)),
                   "mode": st.sampled_from(["real", "hypothetical"])})},
    optional=COMMON)
REGIONS = st.fixed_dictionaries(
    {"experiment": st.just("regions"), "spec": SPECS},
    optional={"samples": st.integers(4, 10 ** 4), **COMMON})
LAMBDA_CRIT = st.fixed_dictionaries(
    {"experiment": st.just("lambda-crit"),
     "eta_values": st.lists(numbers(0.05, 1.0), min_size=1, max_size=4)},
    optional=COMMON)
POLICIES = st.one_of(st.just({"type": "sweep"}),
                     st.builds(lambda d: {"type": "grid", "d": d}, st.integers(1, 2 ** 70)))
SIMULATE = st.one_of(*(st.fixed_dictionaries(
    {"experiment": st.just("simulate"), "spec": SPECS, "scheme": st.just(scheme),
     "n": st.integers(1, 10 ** 6)},
    optional={"angle_policy": policies, **DRAWING})
    for scheme, policies in (("homodyne", POLICIES), ("heterodyne", st.just({"type": "sweep"})))))
ESTIMATE = st.fixed_dictionaries(
    {"experiment": st.just("estimate"), "data_path": st.text(max_size=8),
     "scheme": st.sampled_from(["homodyne", "heterodyne"]), "eta": numbers(0.05, 1.0)},
    optional={"output_path": COMMON["output_path"]})


@PROPERTY
@given(st.one_of(SURFACE, REGIONS, LAMBDA_CRIT, SIMULATE, ESTIMATE, CRB, FIG5))
def test_resolution_is_idempotent(config):
    resolved = resolve_config(config)
    again = resolve_config(resolved)
    assert again == resolved
    assert json.dumps(again) == json.dumps(resolved)  # key order is output bytes
