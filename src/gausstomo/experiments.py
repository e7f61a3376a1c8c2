"""Experiment harness: validated configs, deterministic runners, plot-ready files.

Every runner resolves an ExperimentConfig (filling defaults, rejecting
unknown keys), computes its table, and writes CSV or JSON with the fully
resolved config and toolkit version embedded, so any output file can be
re-run into a byte-identical copy.  Monte Carlo trials draw their
randomness from per-trial derived seed streams, which makes the output
independent of the worker-thread count.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from ._version import __version__
from .core import DomainError, GaussianStateSpec, SchemeKind, wigner_covariance
from .estimation import (_BLOCK_SAMPLES, EstimationResult, estimate_heterodyne,
                         estimate_homodyne_ml, estimate_homodyne_ml_block,
                         hs_distance_sq, to_ellipse)
from .fisher import crb_het, crb_hom, gamma_surface
from .regions import critical_lambda_equal_areas, region_boundaries
from .sampling import (ContinuousSweep, SeedSpec, UniformGrid,
                       heterodyne_arrays, homodyne_arrays)


class ConfigError(ValueError):
    """Invalid or incomplete experiment configuration."""


EXPERIMENTS = ("surface", "regions", "lambda-crit", "simulate", "estimate",
               "crb-attainment", "fig5")

_SCHEMES = {"homodyne": SchemeKind.HOMODYNE, "heterodyne": SchemeKind.HETERODYNE}

# config keys accepted per experiment, beyond the common ones; output_path
# names the write target and is not part of the experiment identity, so it
# is validated here but never embedded in outputs
_COMMON_KEYS = {"experiment", "format", "seed", "output_path"}
_KEYS = {
    "surface": {"grid"},
    "regions": {"spec", "samples"},
    "lambda-crit": {"eta_values"},
    "simulate": {"spec", "scheme", "n", "angle_policy"},
    "estimate": {"data_path", "scheme", "eta"},
    "crb-attainment": {"spec", "scheme", "n_values", "trials"},
    "fig5": {"spec", "n_values", "trials"},
}


def _require(cfg: dict, key: str, kind, what: str):
    if key not in cfg:
        raise ConfigError(f"experiment '{cfg.get('experiment')}' requires '{key}' ({what})")
    value = cfg[key]
    if kind is float and isinstance(value, int):
        value = float(value)
    if not isinstance(value, kind):
        raise ConfigError(f"'{key}' must be {what}, got {type(value).__name__}")
    return value


def _positive_int(cfg: dict, key: str) -> int:
    v = _require(cfg, key, int, "a positive integer")
    if isinstance(v, bool) or v < 1:
        raise ConfigError(f"'{key}' must be a positive integer, got {v!r}")
    return v


def _number_list(obj, key: str) -> list[float]:
    if not isinstance(obj, list) or not obj or \
            not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in obj):
        raise ConfigError(f"'{key}' must be a nonempty list of numbers")
    return [float(x) for x in obj]


def _parse_spec(obj) -> GaussianStateSpec:
    if not isinstance(obj, dict):
        raise ConfigError("'spec' must be an object with mu/lambda/phi/eta")
    unknown = set(obj) - {"mu", "lambda", "phi", "eta"}
    if unknown:
        raise ConfigError(f"unknown spec keys: {sorted(unknown)}")
    try:
        return GaussianStateSpec.from_json_dict(obj)
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc


def _parse_seed(obj) -> SeedSpec:
    if not isinstance(obj, dict):
        raise ConfigError("'seed' must be an object with master_seed/stream_id")
    unknown = set(obj) - {"master_seed", "stream_id"}
    if unknown:
        raise ConfigError(f"unknown seed keys: {sorted(unknown)}")
    try:
        return SeedSpec.from_json_dict(obj)
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc


def _parse_policy(obj):
    if not isinstance(obj, dict) or "type" not in obj:
        raise ConfigError("'angle_policy' must be {'type': 'sweep'} or "
                          "{'type': 'grid', 'd': <int>}")
    if obj["type"] == "sweep":
        if set(obj) != {"type"}:
            raise ConfigError("sweep policy takes no extra keys")
        return ContinuousSweep()
    if obj["type"] == "grid":
        if set(obj) != {"type", "d"}:
            raise ConfigError("grid policy takes exactly the key 'd'")
        d = obj["d"]
        if not isinstance(d, int) or isinstance(d, bool) or d < 1:
            raise ConfigError(f"grid size 'd' must be a positive integer, got {d!r}")
        return UniformGrid(d)
    raise ConfigError(f"unknown angle policy type {obj['type']!r}")


def resolve_config(raw: dict) -> dict:
    """Validate a config mapping and fill defaults; returns the resolved dict.

    Unknown keys are rejected.  Resolution is idempotent: resolving an
    already-resolved config returns an equal mapping, which is what makes
    embedded-config replay byte-exact.
    """
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    cfg = dict(raw)
    exp = cfg.get("experiment")
    if exp not in EXPERIMENTS:
        raise ConfigError(f"'experiment' must be one of {EXPERIMENTS}, got {exp!r}")
    allowed = _COMMON_KEYS | _KEYS[exp]
    unknown = set(cfg) - allowed
    if unknown:
        raise ConfigError(f"unknown config keys for '{exp}': {sorted(unknown)}")

    out: dict = {"experiment": exp}
    fmt = cfg.get("format", "csv")
    if fmt not in ("csv", "json"):
        raise ConfigError(f"'format' must be 'csv' or 'json', got {fmt!r}")
    out["format"] = fmt
    if "output_path" in cfg and not isinstance(cfg["output_path"], str):
        raise ConfigError(f"'output_path' must be a string, got {cfg['output_path']!r}")
    seed = _parse_seed(cfg.get("seed", {"master_seed": 0, "stream_id": 0}))

    if exp == "surface":
        grid = _require(cfg, "grid", dict, "an object")
        unknown = set(grid) - {"lambda", "mu", "eta", "mode"}
        if unknown:
            raise ConfigError(f"unknown grid keys: {sorted(unknown)}")
        lambdas = _number_list(grid.get("lambda"), "grid.lambda")
        mus = _number_list(grid.get("mu"), "grid.mu")
        etas = grid.get("eta", [1.0])
        if isinstance(etas, (int, float)) and not isinstance(etas, bool):
            etas = [float(etas)]
        etas = _number_list(etas, "grid.eta")
        mode = grid.get("mode", "real")
        if mode not in ("real", "hypothetical"):
            raise ConfigError(f"grid.mode must be 'real' or 'hypothetical', got {mode!r}")
        out["grid"] = {"lambda": lambdas, "mu": mus, "eta": etas, "mode": mode}
    elif exp == "regions":
        out["spec"] = _parse_spec(_require(cfg, "spec", dict, "a state object")).to_json_dict()
        samples = cfg.get("samples", 256)
        if not isinstance(samples, int) or isinstance(samples, bool) or samples < 4:
            raise ConfigError(f"'samples' must be an integer >= 4, got {samples!r}")
        out["samples"] = samples
    elif exp == "lambda-crit":
        out["eta_values"] = _number_list(cfg.get("eta_values"), "eta_values")
    elif exp == "simulate":
        out["spec"] = _parse_spec(_require(cfg, "spec", dict, "a state object")).to_json_dict()
        scheme = _require(cfg, "scheme", str, "'homodyne' or 'heterodyne'")
        if scheme not in _SCHEMES:
            raise ConfigError(f"'scheme' must be 'homodyne' or 'heterodyne', got {scheme!r}")
        out["scheme"] = scheme
        out["n"] = _positive_int(cfg, "n")
        policy = cfg.get("angle_policy", {"type": "sweep"})
        _parse_policy(policy)
        if scheme == "heterodyne" and policy != {"type": "sweep"}:
            raise ConfigError("'angle_policy' applies only to homodyne simulation")
        out["angle_policy"] = policy
        out["seed"] = seed.to_json_dict()
        return out
    elif exp == "estimate":
        out["data_path"] = _require(cfg, "data_path", str, "a path")
        scheme = _require(cfg, "scheme", str, "'homodyne' or 'heterodyne'")
        if scheme not in _SCHEMES:
            raise ConfigError(f"'scheme' must be 'homodyne' or 'heterodyne', got {scheme!r}")
        out["scheme"] = scheme
        eta = _require(cfg, "eta", float, "a number in (0, 1]")
        if not 0.0 < eta <= 1.0:
            raise ConfigError(f"'eta' must lie in (0, 1], got {eta}")
        out["eta"] = eta
        if fmt != "json":
            raise ConfigError("estimate emits a JSON document; set format to 'json'")
        return out
    elif exp in ("crb-attainment", "fig5"):
        if exp == "crb-attainment":
            out["spec"] = _parse_spec(_require(cfg, "spec", dict, "a state object")).to_json_dict()
            scheme = _require(cfg, "scheme", str, "'homodyne' or 'heterodyne'")
            if scheme not in _SCHEMES:
                raise ConfigError(f"'scheme' must be 'homodyne' or 'heterodyne', got {scheme!r}")
            out["scheme"] = scheme
            n_values = cfg.get("n_values")
        else:
            spec_obj = cfg.get("spec", {"mu": 2.0, "lambda": 10.0, "phi": 0.0, "eta": 0.5})
            out["spec"] = _parse_spec(spec_obj).to_json_dict()
            n_values = cfg.get("n_values", [50, 100, 150])
        if not isinstance(n_values, list) or not n_values or \
                not all(isinstance(x, int) and not isinstance(x, bool) and x > 1 for x in n_values):
            raise ConfigError("'n_values' must be a nonempty list of integers > 1")
        out["n_values"] = list(n_values)
        out["trials"] = _positive_int(cfg, "trials")
        out["seed"] = seed.to_json_dict()
        return out

    out["seed"] = seed.to_json_dict()
    return out


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _column_format(values: tuple) -> tuple[str, tuple]:
    """A column's %-format and cells, chosen once for the whole column:
    floats take 17 significant digits, strings stay as they are, and any
    other column goes through _fmt cell by cell."""
    kinds = set(map(type, values))
    if all(issubclass(kind, float) for kind in kinds):
        return "%.17g", values
    return "%s", values if kinds == {str} else tuple(map(_fmt, values))


def _embedded_header(config: dict) -> str:
    return f"# gausstomo {__version__} config " + json.dumps(
        config, sort_keys=True, separators=(",", ":"))


def render_table(columns: list[str], rows: list[tuple], config: dict, fmt: str) -> str:
    """Render a result table with the resolved config embedded."""
    if fmt == "csv":
        lines = [_embedded_header(config), ",".join(columns)]
        if rows:
            formats, cells = zip(*map(_column_format, zip(*rows)))
            lines += map(",".join(formats).__mod__, zip(*cells))
        return "\n".join(lines) + "\n"
    doc = {"version": __version__, "config": config,
           "columns": columns, "rows": [list(r) for r in rows]}
    return json.dumps(doc, indent=2) + "\n"


def extract_embedded_config(text: str) -> dict:
    """Recover the resolved config from a rendered output document."""
    if text.startswith("# gausstomo "):
        first = text.splitlines()[0]
        marker = " config "
        return json.loads(first[first.index(marker) + len(marker):])
    doc = json.loads(text)
    return doc["config"]


def _spec_of(config: dict) -> GaussianStateSpec:
    return GaussianStateSpec.from_json_dict(config["spec"])


def _seed_of(config: dict) -> SeedSpec:
    return SeedSpec.from_json_dict(config["seed"])


def run_surface(config: dict) -> str:
    """Performance-ratio table over a (lambda, mu, eta) grid.

    Columns: lambda,mu,eta,h_hom,h_het,gamma,mode.  Hypothetical mode
    evaluates both bound formulas on the bare Wigner covariance (the
    no-measurement-penalty comparison); real mode uses the scheme offsets.
    """
    grid = config["grid"]
    hypothetical = grid["mode"] == "hypothetical"
    rows = []
    for eta in grid["eta"]:
        table = {key: column.tolist() for key, column in
                 gamma_surface(grid["lambda"], grid["mu"], eta,
                               hypothetical=hypothetical).items()}
        size = len(table["lam"])
        rows += zip(table["lam"], table["mu"], [eta] * size, table["h_hom"],
                    table["h_het"], table["gamma"], [grid["mode"]] * size)
    return render_table(["lambda", "mu", "eta", "h_hom", "h_het", "gamma", "mode"],
                        rows, config, config["format"])


def run_regions(config: dict) -> str:
    """Polar uncertainty boundaries sigma_theta / Sigma_theta for one state."""
    pairs = region_boundaries(_spec_of(config), config["samples"])
    rows = [(p.theta, p.sigma, p.Sigma) for p in pairs]
    return render_table(["theta", "sigma", "Sigma"], rows, config, config["format"])


def run_lambda_crit(config: dict) -> str:
    """Equal-area squeezing threshold against detector efficiency."""
    rows = [(eta, critical_lambda_equal_areas(eta)) for eta in config["eta_values"]]
    return render_table(["eta", "lambda_crit"], rows, config, config["format"])


def run_simulate(config: dict) -> tuple[str, str]:
    """Synthetic records plus a JSON sidecar describing how to replay them.

    Returns (table, sidecar).  Homodyne tables have columns theta,x;
    heterodyne tables x,p.
    """
    spec = _spec_of(config)
    seed = _seed_of(config)
    n = config["n"]
    if config["scheme"] == "homodyne":
        policy = _parse_policy(config["angle_policy"])
        thetas, xs = homodyne_arrays(spec, n, policy, seed)
        table = render_table(["theta", "x"], list(zip(thetas, xs)),
                             config, config["format"])
    else:
        xs, ps = heterodyne_arrays(spec, n, seed)
        table = render_table(["x", "p"], list(zip(xs, ps)),
                             config, config["format"])
    sidecar = json.dumps({"version": __version__, "spec": config["spec"],
                          "scheme": config["scheme"],
                          "angle_policy": config.get("angle_policy"),
                          "n": n, "seed": config["seed"]}, indent=2) + "\n"
    return table, sidecar


def _read_data_table(path: Path) -> np.ndarray:
    """The samples of a table `simulate` wrote, in CSV or JSON: two finite
    numbers per row, else ConfigError naming the row.  In a CSV, '#' lines
    are comments and the first other line may be a header."""
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read data file {path}: {exc}") from exc
    if text.lstrip().startswith("{"):
        try:
            rows = [(f"row {k}", list(map(repr, row)))
                    for k, row in enumerate(json.loads(text)["rows"], 1)]
        except (ValueError, TypeError, KeyError) as exc:
            raise ConfigError(f"{path} is not a JSON table with 'rows': {exc}") from exc
    else:
        rows = [(f"line {k}", line.strip().split(","))
                for k, line in enumerate(text.splitlines(), 1)
                if line.strip() and not line.lstrip().startswith("#")]
        if rows and _floats(rows[0][1]) is None:
            rows.pop(0)  # the header
    data = []
    for place, tokens in rows:
        values = _floats(tokens)
        if values is None or len(values) != 2 or not all(map(math.isfinite, values)):
            raise ConfigError(f"{path}, {place}: expected two finite numbers, "
                              f"got {','.join(tokens)!r}")
        data.append(values)
    if not data:
        raise ConfigError(f"no data rows found in {path}")
    return np.asarray(data)


def _floats(tokens: list[str]) -> list[float] | None:
    try:
        return [float(token) for token in tokens]
    except ValueError:
        return None


def run_estimate(config: dict) -> str:
    """Fit a covariance to a previously simulated (or imported) sample file."""
    path = Path(config["data_path"])
    data = _read_data_table(path)
    if config["scheme"] == "homodyne":
        result = estimate_homodyne_ml((data[:, 0], data[:, 1]), config["eta"])
    else:
        result = estimate_heterodyne(data, config["eta"])
    fingerprint: dict = {"n": int(data.shape[0])}
    sidecar = path.with_suffix(path.suffix + ".meta.json")
    if sidecar.exists():
        meta = json.loads(sidecar.read_text())
        fingerprint["seed"] = meta.get("seed")
    doc = {"version": __version__, "config": config,
           "result": result.to_json_dict(),
           "ellipse": (to_ellipse(result.g_effective).to_json_dict()
                       if result.g_effective.is_positive_definite() else None),
           "fingerprint": fingerprint}
    return json.dumps(doc, indent=2) + "\n"


def _trial_stream(seed: SeedSpec, lane: int, trials: int, trial: int) -> SeedSpec:
    # disjoint stream ids per (scheme/size lane, trial); threads never reorder
    return seed.stream(1 + lane * trials + trial)


def _run_trials(spec: GaussianStateSpec, scheme: SchemeKind, n: int,
                seed: SeedSpec, lane: int, trials: int,
                threads: int) -> list[EstimationResult]:
    """Each trial's estimate from its own seed stream, in trial order.

    A job fits one trial, or for homodyne one block of trials of up to
    _BLOCK_SAMPLES samples in all.
    """
    size = max(1, _BLOCK_SAMPLES // n) if scheme is SchemeKind.HOMODYNE else 1

    def job(first: int) -> list[EstimationResult]:
        streams = [_trial_stream(seed, lane, trials, t)
                   for t in range(first, min(first + size, trials))]
        if scheme is SchemeKind.HETERODYNE:
            return [estimate_heterodyne(np.column_stack(heterodyne_arrays(spec, n, stream)),
                                        spec.eta) for stream in streams]
        records = [homodyne_arrays(spec, n, ContinuousSweep(), stream) for stream in streams]
        thetas, xs = (np.stack(column) for column in zip(*records))
        return estimate_homodyne_ml_block(thetas, xs, spec.eta)

    starts = range(0, trials, size)
    if threads == 1:
        blocks = [job(first) for first in starts]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            blocks = list(pool.map(job, starts))
    return [result for block in blocks for result in block]


def run_crb_attainment(config: dict, threads: int = 1) -> str:
    """Scaled Monte Carlo MSE against the Cramer-Rao bound, per sample size.

    Columns: N,scheme,mean_N_times_mse,crb,ratio.  The ratio approaches one
    from above as N grows (bound violations beyond statistical noise would
    signal an implementation bug).
    """
    spec = _spec_of(config)
    seed = _seed_of(config)
    scheme = _SCHEMES[config["scheme"]]
    crb = crb_hom(spec) if scheme is SchemeKind.HOMODYNE else crb_het(spec)
    truth = wigner_covariance(spec)
    rows = []
    for lane, n in enumerate(config["n_values"]):
        results = _run_trials(spec, scheme, n, seed, lane, config["trials"], threads)
        mean_scaled = n * float(np.mean([hs_distance_sq(r.g_wigner, truth)
                                         for r in results]))
        rows.append((n, config["scheme"], mean_scaled, crb, mean_scaled / crb))
    return render_table(["N", "scheme", "mean_N_times_mse", "crb", "ratio"],
                        rows, config, config["format"])


def run_fig5(config: dict, threads: int = 1) -> str:
    """Uncertainty-ellipse reconstruction benchmark at moderate sample sizes.

    For each N and scheme: the true Wigner ellipse, one representative
    reconstructed ellipse per trial (trial 0 flagged for plotting), and an
    aggregate row with the mean squared HS distance, which is the
    scheme-ordering statistic.
    """
    spec = _spec_of(config)
    seed = _seed_of(config)
    truth = wigner_covariance(spec)
    true_ellipse = to_ellipse(truth)
    columns = ["n", "scheme", "kind", "trial_index", "axis_major", "axis_minor",
               "orientation", "hs_distance_sq", "converged", "representative"]
    rows = []
    lanes = [(scheme, n) for scheme in (SchemeKind.HOMODYNE, SchemeKind.HETERODYNE)
             for n in config["n_values"]]
    for lane, (scheme, n) in enumerate(lanes):
        rows.append((n, scheme.value, "true", -1,
                     true_ellipse.semi_axis_major, true_ellipse.semi_axis_minor,
                     true_ellipse.orientation, 0.0, True, False))
        hs_values = []
        for trial, result in enumerate(_run_trials(spec, scheme, n, seed, lane,
                                                   config["trials"], threads)):
            eff = result.g_effective
            if eff.is_positive_definite():
                ell = to_ellipse(eff)
                axes = (ell.semi_axis_major, ell.semi_axis_minor, ell.orientation)
            else:
                axes = (math.nan, math.nan, math.nan)
            hs_values.append(hs_distance_sq(result.g_wigner, truth))
            rows.append((n, scheme.value, "estimate", trial, *axes, hs_values[-1],
                         result.converged, trial == 0))
        mean_hs = float(np.mean(hs_values))
        rows.append((n, scheme.value, "aggregate", -1,
                     math.nan, math.nan, math.nan, mean_hs, True, False))
    return render_table(columns, rows, config, config["format"])


_RUNNERS = {
    "surface": run_surface,
    "regions": run_regions,
    "lambda-crit": run_lambda_crit,
    "estimate": run_estimate,
    "crb-attainment": run_crb_attainment,
    "fig5": run_fig5,
}


def run_experiment(config: dict, threads: int = 1) -> dict[str, str]:
    """Resolve and run a config; returns {relative output name: content}.

    The primary table is keyed by the empty string; the simulate experiment
    additionally yields a '.meta.json' sidecar.  `threads` is an execution
    option, not part of the experiment identity: any worker count produces
    the same bytes.
    """
    if not isinstance(threads, int) or isinstance(threads, bool) or threads < 1:
        raise ConfigError(f"threads must be a positive integer, got {threads!r}")
    resolved = resolve_config(config)
    experiment = resolved["experiment"]
    if experiment == "simulate":
        table, sidecar = run_simulate(resolved)
        return {"": table, ".meta.json": sidecar}
    if experiment in ("crb-attainment", "fig5"):
        return {"": _RUNNERS[experiment](resolved, threads)}
    return {"": _RUNNERS[experiment](resolved)}
