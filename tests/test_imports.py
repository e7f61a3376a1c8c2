"""Start-up cost: the closed-form paths never import the sampling-only modules.

scipy.special (for ndtri), numpy.random (for Philox) and concurrent.futures
(for the thread pool) are imported at first use.  Each import check runs in
a fresh interpreter whose PYTHONPATH is the src/ directory of the package
under test, so it tests this tree and not an installed copy.  The public
names that `from gausstomo import *` exports are pinned here too.
"""

import inspect
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import gausstomo
from gausstomo import GaussianStateSpec, SeedSpec, heterodyne_arrays, homodyne_arrays
from gausstomo.sampling import _open_interval, heterodyne_moments, raw_words

SRC = str(Path(gausstomo.__file__).resolve().parents[1])
DEFERRED = ("scipy", "numpy.random", "concurrent.futures")


def loaded_after(code: str) -> list[str]:
    """The DEFERRED modules in sys.modules after a fresh interpreter runs code."""
    script = textwrap.dedent(code) + textwrap.dedent(f"""
        import json, sys
        print(json.dumps([m for m in {DEFERRED!r} if m in sys.modules]))
    """)
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def run_experiment_code(cfg: dict, threads: int = 1) -> str:
    return f"""
        from gausstomo.experiments import run_experiment
        assert run_experiment({cfg!r}, threads={threads})[""]
    """


# the public API: a name deleted from the package must not come back
EXPORTS = {
    "__version__",
    "AnglePolicy", "BlockFit", "ContinuousSweep", "Covariance2", "CrbReport",
    "DomainError", "EstimationResult", "Fisher3", "GaussianStateSpec",
    "NumericalError", "RegionAreas", "SchemeKind", "SeedSpec", "UncertaintyEllipse",
    "UniformGrid", "conditional_std", "crb_het", "crb_hom", "crb_report",
    "critical_lambda_equal_areas", "critical_lambda_for_gamma", "delta_offset",
    "effective_covariance", "estimate_heterodyne", "estimate_homodyne_ml",
    "estimate_homodyne_ml_block", "fisher_het", "fisher_hom_closed",
    "fisher_hom_quadrature", "gamma_surface", "heterodyne_arrays", "homodyne_arrays",
    "hs_distance_sq", "marginal_std", "raw_words", "region_areas", "region_boundaries",
    "squeezing_db", "to_ellipse", "wigner_covariance",
}


def test_star_import_exports_exactly_the_public_api():
    namespace: dict = {}
    exec("from gausstomo import *", namespace)
    assert len(gausstomo.__all__) == len(EXPORTS) and set(gausstomo.__all__) == EXPORTS
    assert all(namespace[name] is getattr(gausstomo, name) for name in EXPORTS)
    # and the package has no public name outside __all__, submodules aside
    public = {name for name, value in vars(gausstomo).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert public == EXPORTS - {"__version__"}


def test_json_formats_live_only_in_the_harness():
    # experiments reads config records and writes result records; the domain
    # types carry no JSON codec of their own
    classes = [value for value in vars(gausstomo).values() if inspect.isclass(value)]
    assert classes
    for cls in classes:
        assert not hasattr(cls, "to_json_dict") and not hasattr(cls, "from_json_dict"), cls
    assert not hasattr(gausstomo.core, "json_number")


# the parameters of the estimators and samplers: a deleted setting must not
# come back
SIGNATURES = {
    gausstomo.estimate_homodyne_ml: ["data", "eta"],
    gausstomo.estimate_homodyne_ml_block: ["thetas", "xs", "eta", "trig"],
    gausstomo.homodyne_arrays: ["spec", "n", "angle_policy", "seed"],
    gausstomo.heterodyne_arrays: ["spec", "n", "seed"],
    heterodyne_moments: ["spec", "n", "seeds"],
}


@pytest.mark.parametrize("fn", SIGNATURES, ids=lambda fn: fn.__name__)
def test_estimators_and_samplers_take_exactly_their_parameters(fn):
    assert list(inspect.signature(fn).parameters) == SIGNATURES[fn]


def test_cli_import_loads_no_sampling_module():
    assert loaded_after("import gausstomo.cli") == []


@pytest.fixture(scope="module")
def sample_files(tmp_path_factory):
    """Plain two-column CSV records for estimate, one file per scheme."""
    root = tmp_path_factory.mktemp("samples")
    spec = GaussianStateSpec(mu=2.0, lam=10.0, eta=0.5)
    arrays = {"homodyne": homodyne_arrays(spec, 200, seed=SeedSpec(3)),
              "heterodyne": heterodyne_arrays(spec, 200, seed=SeedSpec(3))}
    paths = {}
    for scheme, columns in arrays.items():
        paths[scheme] = root / f"{scheme}.csv"
        np.savetxt(paths[scheme], np.column_stack(columns), delimiter=",")
    return paths


CLOSED_FORM = {
    "surface-real": {"experiment": "surface",
                     "grid": {"lambda": [1.0, 10.0], "mu": [1.0, 3.0],
                              "eta": [0.5, 1.0], "mode": "real"}},
    "surface-hypothetical": {"experiment": "surface",
                             "grid": {"lambda": [1.0, 10.0], "mu": [1.0, 3.0],
                                      "eta": [0.5, 1.0], "mode": "hypothetical"}},
    "lambda-crit": {"experiment": "lambda-crit", "eta_values": [0.3, 0.5]},
    "regions": {"experiment": "regions", "spec": {"mu": 2.0, "lambda": 10.0}},
}


@pytest.mark.parametrize("name", sorted(CLOSED_FORM))
def test_closed_form_experiments_never_load_scipy(name):
    assert loaded_after(run_experiment_code(CLOSED_FORM[name])) == []


@pytest.mark.parametrize("scheme", ["homodyne", "heterodyne"])
def test_estimate_never_loads_scipy(scheme, sample_files):
    cfg = {"experiment": "estimate", "data_path": str(sample_files[scheme]),
           "scheme": scheme, "eta": 0.5, "format": "json"}
    assert loaded_after(run_experiment_code(cfg)) == []


def test_sampling_loads_its_modules_on_first_use():
    # the check above is not vacuous: a draw on two threads loads all three
    cfg = {"experiment": "crb-attainment", "spec": {"mu": 2.0, "lambda": 10.0},
           "scheme": "heterodyne", "n_values": [10], "trials": 4}
    assert loaded_after(run_experiment_code(cfg, threads=2)) == list(DEFERRED)


def test_ndtri_is_scipy_ndtri_bit_for_bit():
    from scipy.special import ndtri

    from gausstomo import sampling

    def uniforms(words):
        return _open_interval((words >> np.uint64(11)).astype(float) * 2.0 ** -53)

    extremes = uniforms(np.array([0, 2 ** 64 - 1], dtype=np.uint64))
    u = np.concatenate([uniforms(raw_words(SeedSpec(5, 2), 0, 4096)), extremes,
                        [2.0 ** -54, 1.0 - 2.0 ** -54, 0.5]])
    got = sampling.ndtri(u)
    assert got.dtype == np.float64
    assert got.tobytes() == ndtri(u).tobytes()


def test_samplers_look_up_ndtri_at_call_time(monkeypatch):
    # a per-layer tracer wraps this module attribute in place
    from gausstomo import sampling

    calls = []

    def counting(fn, name):
        def wrapped(*args):
            calls.append(name)
            return fn(*args)
        return wrapped

    monkeypatch.setattr(sampling, "ndtri", counting(sampling.ndtri, "ndtri"))
    spec = GaussianStateSpec(mu=1.0, lam=1.0)
    sampling.homodyne_arrays(spec, 8)
    sampling.heterodyne_arrays(spec, 8)
    assert calls == ["ndtri"] * 2
