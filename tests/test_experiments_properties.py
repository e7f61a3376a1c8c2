"""Property checks of configs: resolving a resolved config changes
nothing, which is what makes embedded-config replay byte-exact; and every
run of a config, or of estimate on a data table, built from edge floats
keeps the exit-code contract."""

import contextlib
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gausstomo.cli import main
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


# floats at the edges of the domains and of the float range
EDGE = st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1e-16, 0.5, 1.0, 1.0000000000000002, 2.0,
                        3.14159, math.pi, 1e16, 1e300, 1.7976931348623157e308])
EDGE_SPECS = st.fixed_dictionaries({"mu": EDGE, "lambda": EDGE},
                                   optional={"phi": EDGE, "eta": EDGE})
# sizes capped so that an example runs in well under a second
SIZES = st.lists(st.integers(1, 150), min_size=1, max_size=2)
EDGE_SEEDS = st.fixed_dictionaries({"master_seed": st.integers(0, 3)})
EDGE_CONFIGS = st.one_of(
    st.fixed_dictionaries(
        {"experiment": st.just("surface"),
         "grid": st.fixed_dictionaries(
             {"lambda": st.lists(EDGE, min_size=1, max_size=3),
              "mu": st.lists(EDGE, min_size=1, max_size=3)},
             optional={"eta": st.lists(EDGE, min_size=1, max_size=2),
                       "mode": st.sampled_from(["real", "hypothetical"])})}),
    st.fixed_dictionaries({"experiment": st.just("regions"), "spec": EDGE_SPECS},
                          optional={"samples": st.integers(0, 100)}),
    st.fixed_dictionaries({"experiment": st.just("lambda-crit"),
                           "eta_values": st.lists(EDGE, min_size=1, max_size=3)}),
    st.fixed_dictionaries({"experiment": st.just("simulate"), "spec": EDGE_SPECS,
                           "scheme": st.sampled_from(["homodyne", "heterodyne"]),
                           "n": st.integers(0, 150)},
                          optional={"angle_policy": POLICIES, "seed": EDGE_SEEDS}),
    st.fixed_dictionaries({"experiment": st.just("crb-attainment"), "spec": EDGE_SPECS,
                           "scheme": st.sampled_from(["homodyne", "heterodyne"]),
                           "n_values": SIZES, "trials": st.integers(1, 3)},
                          optional={"seed": EDGE_SEEDS}),
    st.fixed_dictionaries({"experiment": st.just("fig5"), "trials": st.integers(1, 3)},
                          optional={"spec": EDGE_SPECS, "n_values": SIZES,
                                    "seed": EDGE_SEEDS}))


def run_cli(config: dict, threads: int, data: str | None = None) -> tuple:
    """(exit code, stdout, stderr) of `gausstomo <experiment> --config
    <file> --threads <threads>`, run in-process with warnings as errors;
    data, if given, is written to a file that the config's data_path names."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        if data is not None:
            config = {**config, "data_path": str(Path(tmp) / "data")}
            Path(config["data_path"]).write_text(data)
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config))
        try:
            main([config["experiment"], "--config", str(path), "--threads", str(threads)],
                 prog_name="gausstomo")
            code = 0
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(config=EDGE_CONFIGS, threads=st.sampled_from([1, 2]))
@example(config={"experiment": "simulate", "scheme": "heterodyne", "n": 2,
                 "spec": {"mu": 1.7976931348623157e308, "lambda": 0.5, "phi": 3.14159}},
         threads=1)
@example(config={"experiment": "simulate", "scheme": "heterodyne", "n": 3,
                 "spec": {"mu": 10.0, "lambda": 1e-300, "phi": 0.3}}, threads=1)
@example(config={"experiment": "crb-attainment", "scheme": "heterodyne", "n_values": [50],
                 "trials": 1, "spec": {"mu": 513.8182260259639,
                                       "lambda": 3.3080437123359715e293, "phi": 3.14159}},
         threads=1)
@example(config={"experiment": "fig5", "n_values": [4], "trials": 2,
                 "spec": {"mu": 3.14159, "lambda": 5.7176291597183525e47, "phi": 3.14159}},
         threads=2)
@example(config={"experiment": "crb-attainment", "scheme": "homodyne", "n_values": [150],
                 "trials": 1, "spec": {"mu": 2.0, "lambda": 3.897799141471276e159}},
         threads=1)
@example(config={"experiment": "regions", "samples": 4,
                 "spec": {"mu": 1.0000000000000002, "lambda": 1.0, "phi": 5e-324,
                          "eta": 5e-324}}, threads=1)
def test_edge_configs_keep_the_exit_code_contract(config, threads):
    # 0 success, 2 config or domain error, 3 numerical failure: never a
    # traceback, exit 1 or a warning, and simulate and regions never write
    # nan or inf
    code, out, err = run_cli(config, threads)
    assert code in (0, 2, 3), err
    if code:
        record = json.loads(err.strip().splitlines()[-1])
        assert isinstance(record, dict) and {"error", "message"} <= record.keys()
    else:
        assert err == ""
        if config["experiment"] in ("simulate", "regions"):
            cells = [cell for line in out.splitlines()[2:] for cell in line.split(",")]
            assert not any(cell.lstrip("-") in ("nan", "inf") for cell in cells)


# the sample values of estimate's data tables: the float range's edges, and
# values whose squares or products underflow or overflow
EDGE_SAMPLES = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-160, -1e-160, 1e154, -1e154,
                                1e200, -1e200, 0.3, -1.0, 2.5])
ROWS = st.lists(st.tuples(EDGE_SAMPLES, EDGE_SAMPLES), min_size=1, max_size=10)
TABLES = st.one_of(
    ROWS,
    # one row
    ROWS.map(lambda rows: rows[:1]),
    # one angle, or one x, for every row
    st.builds(lambda a, xs: [(a, x) for x in xs], EDGE_SAMPLES,
              st.lists(EDGE_SAMPLES, min_size=1, max_size=10)),
    # ordinary rows with one edge row, so that some fits succeed
    st.builds(lambda rows, edge, at: rows[:at] + [edge] + rows[at:],
              st.lists(st.tuples(st.floats(0.0, 3.1), st.floats(-3.0, 3.0)), min_size=3,
                       max_size=10),
              st.tuples(EDGE_SAMPLES, EDGE_SAMPLES), st.integers(0, 10)))
ESTIMATE_ETA = st.sampled_from([5e-324, 1e-300, 0.05, 0.5, 1.0])


def data_table(rows: list, form: str) -> str:
    """rows as a data table in CSV, with a header, or in JSON."""
    if form == "json":
        return json.dumps({"columns": ["a", "b"], "rows": [list(row) for row in rows]})
    return "a,b\n" + "".join(f"{a!r},{b!r}\n" for a, b in rows)


def no_constant(token: str):
    raise ValueError(f"{token} is not strict JSON")


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(rows=TABLES, form=st.sampled_from(["csv", "json"]),
       scheme=st.sampled_from(["homodyne", "heterodyne"]), eta=ESTIMATE_ETA)
@example(rows=[(0.0, 0.0), (0.0, 0.0)], form="csv", scheme="heterodyne", eta=0.5)
@example(rows=[(5e-324, 0.0), (0.0, 5e-324)], form="csv", scheme="heterodyne", eta=0.5)
@example(rows=[(0.0, 1.0), (1.0, 0.5), (2.0, -0.3), (0.5, 2.0)], form="json",
         scheme="homodyne", eta=5e-324)
@example(rows=[(1.0, 2.0), (0.5, 0.25), (-1.0, 0.5)], form="json", scheme="heterodyne",
         eta=5e-324)
@example(rows=[(1e154, 1e154), (1e154, 1e154)], form="csv", scheme="heterodyne", eta=1.0)
def test_estimate_inputs_keep_the_exit_code_contract(rows, form, scheme, eta):
    # estimate of a generated data table exits 0, 2 or 3 without a warning,
    # and what it writes on exit 0 is strict JSON: no NaN or Infinity
    config = {"experiment": "estimate", "scheme": scheme, "eta": eta}
    code, out, err = run_cli(config, 1, data=data_table(rows, form))
    assert code in (0, 2, 3), err
    if code:
        record = json.loads(err.strip().splitlines()[-1])
        assert isinstance(record, dict) and {"error", "message"} <= record.keys()
    else:
        assert err == ""
        doc = json.loads(out, parse_constant=no_constant)
        assert doc["result"]["scheme"] == scheme
