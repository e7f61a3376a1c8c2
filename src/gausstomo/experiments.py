"""Experiment harness: validated configs, deterministic runners, plot-ready files.

Every experiment is one entry of the EXPERIMENTS table: its runner and its
config fields.  A config is resolved against that table (filling defaults,
rejecting unknown keys), and the runner computes its table and writes CSV
or JSON with the fully resolved config and toolkit version embedded, so
any output file can be re-run into a byte-identical copy.  This module
alone knows the JSON formats of config and result records; the domain
types it builds from them have no JSON codecs.  Monte Carlo trials draw
their randomness from per-trial derived seed streams, which makes the
output independent of the worker-thread count.
"""

from __future__ import annotations

import json
import math
from collections.abc import Sequence
from dataclasses import asdict
from pathlib import Path
from typing import NamedTuple

import numpy as np

from ._version import __version__
from .core import Covariance2, DomainError, GaussianStateSpec, SchemeKind, wigner_covariance
from .estimation import (_BLOCK_SAMPLES, BlockFit, estimate_heterodyne,
                         estimate_heterodyne_moments, estimate_homodyne_ml,
                         estimate_homodyne_ml_block, hs_distance_sq, to_ellipse)
from .fisher import crb_het, crb_hom, gamma_surface
from .regions import critical_lambda_equal_areas, region_boundaries
from .sampling import (ContinuousSweep, SeedSpec, UniformGrid, _homodyne_block,
                       heterodyne_arrays, heterodyne_moments, homodyne_arrays)


class ConfigError(ValueError):
    """Invalid or incomplete experiment configuration."""


# Value checks of the experiment tables below: each takes a raw config
# value and its key, and returns the value to embed or raises ConfigError
# naming the key.

def _choice(*options: str):
    def check(value, key):
        if value not in options:
            raise ConfigError(f"'{key}' must be one of {options}, got {value!r}")
        return value
    return check


def _integer(least: int):
    def check(value, key):
        if isinstance(value, bool) or not isinstance(value, int) or value < least:
            raise ConfigError(f"'{key}' must be an integer >= {least}, got {value!r}")
        return value
    return check


def _number(value, key) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"'{key}' must be a number, got {value!r}")
    return float(value)


def _efficiency(value, key) -> float:
    eta = _number(value, key)
    if not 0.0 < eta <= 1.0:
        raise ConfigError(f"'{key}' must lie in (0, 1], got {eta}")
    return eta


def _seed_id(value, key) -> int:
    """An int, or an integral float such as 3.0 as its int; SeedSpec checks the range."""
    if isinstance(value, bool) or not (isinstance(value, int) or
                                       isinstance(value, float) and value.is_integer()):
        raise ConfigError(f"'{key}' must be an integer, got {value!r}")
    return int(value)


def _text(value, key) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"'{key}' must be a string, got {value!r}")
    return value


def _list_of(item, lone: bool = False):
    """A nonempty list of items; with lone, one item stands for its list."""
    def check(value, key):
        if lone and not isinstance(value, list):
            value = [value]
        if not isinstance(value, list) or not value:
            raise ConfigError(f"'{key}' must be a nonempty list")
        return [item(x, key) for x in value]
    return check


def _known(value, keys, key) -> dict:
    """value, if it is an object whose keys are all among keys."""
    if not isinstance(value, dict):
        raise ConfigError(f"'{key}' must be an object with keys {'/'.join(keys)}")
    unknown = set(value) - set(keys)
    if unknown:
        raise ConfigError(f"unknown keys in '{key}': {sorted(unknown)}")
    return value


def _object(fields: dict, build=None):
    """An object resolved against its own field table; an error in one of its
    fields names the object first, as in "'seed': 'master_seed' must be ...".
    With build, build(*resolved values) must succeed too, so that a domain
    type's own checks run on the object."""
    def check(value, key):
        value = _known(value, fields, key)
        try:
            out = _resolve(value, fields)
        except ConfigError as exc:
            raise ConfigError(f"'{key}': {exc}") from exc
        if build is not None:
            build(*out.values())
        return out
    return check


def _angle_policy(value, key) -> dict:
    """{'type': 'sweep'} or {'type': 'grid', 'd': <integer >= 1>}, embedded as given."""
    kind = value.get("type") if isinstance(value, dict) else None
    if kind not in ("sweep", "grid") or \
            set(value) != ({"type"} if kind == "sweep" else {"type", "d"}):
        raise ConfigError(f"'{key}' must be {{'type': 'sweep'}} or {{'type': 'grid', 'd': <int>}}")
    if kind == "grid":
        _integer(1)(value["d"], key + ".d")
    return dict(value)


_REQUIRED = object()


def _resolve(obj: dict, fields: dict) -> dict:
    """The fields of obj, each checked or defaulted, in table order: fields
    maps each key to (check, default or _REQUIRED)."""
    out = {}
    for key, (check, default) in fields.items():
        value = obj.get(key, default)
        if value is _REQUIRED:
            raise ConfigError(f"missing required key '{key}'")
        try:
            out[key] = check(value, key)
        except (DomainError, OverflowError) as exc:
            raise ConfigError(f"'{key}': {exc}") from exc
    return out


def resolve_config(raw: dict) -> dict:
    """Validate a config mapping against its experiment's table in
    EXPERIMENTS and fill defaults; returns the resolved dict.

    Unknown keys are rejected.  Resolution is idempotent: resolving an
    already-resolved config returns an equal mapping, which is what makes
    embedded-config replay byte-exact.
    """
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    exp = raw.get("experiment")
    if not isinstance(exp, str) or exp not in EXPERIMENTS:
        raise ConfigError(f"'experiment' must be one of {tuple(EXPERIMENTS)}, got {exp!r}")
    # output_path names the write target, not the experiment, so it is
    # checked here but never embedded in outputs
    _text(raw.get("output_path", ""), "output_path")
    _, fields = EXPERIMENTS[exp]
    body = {key: value for key, value in raw.items() if key not in ("experiment", "output_path")}
    out = {"experiment": exp, **_resolve(_known(body, fields, exp), fields)}
    if exp == "simulate" and out["scheme"] == "heterodyne" \
            and out["angle_policy"] != {"type": "sweep"}:
        raise ConfigError("'angle_policy' applies only to homodyne simulation")
    if exp == "estimate":
        if out["format"] != "json":
            raise ConfigError("estimate emits a JSON document; set 'format' to 'json'")
        del out["seed"]
    return out


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


class _Repeats(NamedTuple):
    """A table column whose cell i is values[codes[i]]: a runner that knows
    which cells repeat declares it, and each value is formatted once."""

    values: Sequence
    codes: Sequence[int]


def _column_format(column: Sequence) -> tuple[str, Sequence]:
    """A column's %-format and cells, chosen once for the whole column:
    floats take 17 significant digits, strings stay as they are, and any
    other column goes through _fmt cell by cell.  A _Repeats column formats
    each of its values by these rules and looks its cells up."""
    if isinstance(column, _Repeats):
        fmt, values = _column_format(column.values)
        text = [fmt % value for value in values]
        return "%s", list(map(text.__getitem__, column.codes))
    kinds = set(map(type, column))
    if all(issubclass(kind, float) for kind in kinds):
        return "%.17g", column
    return "%s", column if kinds == {str} else list(map(_fmt, column))


def _embedded_header(config: dict) -> str:
    return f"# gausstomo {__version__} config " + json.dumps(
        config, sort_keys=True, separators=(",", ":"))


def render_table(names: list[str], columns: list[Sequence], config: dict, fmt: str) -> str:
    """Render a result table, given one sequence (or _Repeats) per column,
    with the resolved config embedded."""
    if fmt == "csv":
        formats, cells = zip(*map(_column_format, columns))
        # "%s" cells are strings already, and a join is about twice as fast
        row = ",".join if set(formats) == {"%s"} else ",".join(formats).__mod__
        lines = [_embedded_header(config), ",".join(names), *map(row, zip(*cells))]
        return "\n".join(lines) + "\n"
    columns = [list(map(c.values.__getitem__, c.codes)) if isinstance(c, _Repeats) else c
               for c in columns]
    doc = {"version": __version__, "config": config,
           "columns": names, "rows": list(map(list, zip(*columns)))}
    return json.dumps(doc, indent=2) + "\n"


def extract_embedded_config(text: str) -> dict:
    """Recover the resolved config from a rendered output document."""
    if text.startswith("# gausstomo "):
        first = text.splitlines()[0]
        marker = " config "
        return json.loads(first[first.index(marker) + len(marker):])
    doc = json.loads(text)
    return doc["config"]


# a resolved spec or seed lists its values in the order of its type's fields
def _spec_of(config: dict) -> GaussianStateSpec:
    return GaussianStateSpec(*config["spec"].values())


def _seed_of(config: dict) -> SeedSpec:
    return SeedSpec(*config["seed"].values())


def run_surface(config: dict, threads: int = 1) -> dict[str, str]:
    """Performance-ratio table over a (lambda, mu, eta) grid, eta outermost,
    then lambda, then mu.

    Columns: lambda,mu,eta,h_hom,h_het,gamma,mode.  Hypothetical mode
    evaluates both bound formulas on the bare Wigner covariance (the
    no-measurement-penalty comparison), which no eta enters, so its
    (lambda, mu) block is computed once and repeated for every eta; real
    mode uses the scheme offsets.
    """
    grid = config["grid"]
    lambdas, mus, etas = grid["lambda"], grid["mu"], grid["eta"]
    # cell i of each column is grid point (eta, lambda, mu) of these codes
    shape = (len(etas), len(lambdas), len(mus))
    cells = np.arange(math.prod(shape))
    eta_codes, lam_codes, mu_codes = (c.tolist() for c in np.unravel_index(cells, shape))
    keys = ("h_hom", "h_het", "gamma")
    if grid["mode"] == "hypothetical":
        table = gamma_surface(lambdas, mus, etas[0], hypothetical=True)
        for eta in etas[1:]:
            # rejected as the first point of its own block would be
            GaussianStateSpec(mu=mus[0], lam=lambdas[0], eta=eta)
        block_codes = (cells % (shape[1] * shape[2])).tolist()
        bounds = [_Repeats(table[key].tolist(), block_codes) for key in keys]
    else:
        tables = [gamma_surface(lambdas, mus, eta) for eta in etas]
        bounds = [np.concatenate([t[key] for t in tables]).tolist() for key in keys]
    columns = [_Repeats(lambdas, lam_codes), _Repeats(mus, mu_codes),
               _Repeats(etas, eta_codes), *bounds,
               _Repeats([grid["mode"]], [0] * len(cells))]
    return {"": render_table(["lambda", "mu", "eta", "h_hom", "h_het", "gamma", "mode"],
                             columns, config, config["format"])}


def run_regions(config: dict, threads: int = 1) -> dict[str, str]:
    """Polar uncertainty boundaries sigma_theta / Sigma_theta for one state."""
    columns = region_boundaries(_spec_of(config), config["samples"])
    return {"": render_table(["theta", "sigma", "Sigma"], [c.tolist() for c in columns],
                             config, config["format"])}


def run_lambda_crit(config: dict, threads: int = 1) -> dict[str, str]:
    """Equal-area squeezing threshold against detector efficiency."""
    etas = config["eta_values"]
    return {"": render_table(["eta", "lambda_crit"],
                             [etas, [critical_lambda_equal_areas(eta) for eta in etas]],
                             config, config["format"])}


def run_simulate(config: dict, threads: int = 1) -> dict[str, str]:
    """Synthetic records plus a '.meta.json' sidecar describing how to
    replay them.  Homodyne tables have columns theta,x; heterodyne tables x,p.
    """
    spec = _spec_of(config)
    seed = _seed_of(config)
    n = config["n"]
    if config["scheme"] == "homodyne":
        policy = config["angle_policy"]
        policy = UniformGrid(policy["d"]) if policy["type"] == "grid" else ContinuousSweep()
        names, columns = ["theta", "x"], homodyne_arrays(spec, n, policy, seed)
    else:
        names, columns = ["x", "p"], heterodyne_arrays(spec, n, seed)
    table = render_table(names, [c.tolist() for c in columns], config, config["format"])
    sidecar = json.dumps({"version": __version__, "spec": config["spec"],
                          "scheme": config["scheme"],
                          "angle_policy": config.get("angle_policy"),
                          "n": n, "seed": config["seed"]}, indent=2) + "\n"
    return {"": table, ".meta.json": sidecar}


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


def run_estimate(config: dict, threads: int = 1) -> dict[str, str]:
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
        fingerprint["seed"] = _sidecar_seed(sidecar)
    doc = {"version": __version__, "config": config,
           "result": {"g_wigner": asdict(result.g_wigner),
                      "g_effective": asdict(result.g_effective),
                      "loglik": result.loglik, "iterations": result.iterations,
                      "converged": result.converged, "physical": result.physical,
                      "scheme": result.scheme.value},
           "ellipse": (asdict(to_ellipse(result.g_effective))
                       if result.g_effective.is_positive_definite() else None),
           "fingerprint": fingerprint}
    return {"": json.dumps(doc, indent=2) + "\n"}


def _sidecar_seed(sidecar: Path):
    """The seed that a `simulate` sidecar records; ConfigError naming the
    sidecar if it cannot be read or is not a JSON object."""
    try:
        meta = json.loads(sidecar.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read sidecar {sidecar}: {exc}") from exc
    if not isinstance(meta, dict):
        raise ConfigError(f"sidecar {sidecar} is not a JSON object")
    return meta.get("seed")


def _trial_stream(seed: SeedSpec, lane: int, trials: int, trial: int) -> SeedSpec:
    # disjoint stream ids per (scheme/size lane, trial); threads never reorder
    return seed.stream(1 + lane * trials + trial)


def _run_trials(spec: GaussianStateSpec, scheme: SchemeKind, n: int,
                seed: SeedSpec, lane: int, trials: int,
                threads: int) -> BlockFit:
    """The fit of each trial from its own seed stream, in trial order.

    Heterodyne trials draw their second moments in one call.  A homodyne
    job draws and fits one block of trials, of up to _BLOCK_SAMPLES samples
    in all but at least one trial, as stacked (trials, n) arrays; the fit
    takes the cosines and sines of the angles from the draw.  The jobs run
    on a pool of `threads` workers only when there are two or more of
    each; else they run on the calling thread.
    """
    streams = [_trial_stream(seed, lane, trials, t) for t in range(trials)]
    if scheme is SchemeKind.HETERODYNE:
        return estimate_heterodyne_moments(*heterodyne_moments(spec, n, streams), n,
                                           spec.eta)
    size = max(1, _BLOCK_SAMPLES // n)

    def job(first: int) -> BlockFit:
        thetas, xs, c, s = _homodyne_block(spec, n, ContinuousSweep(),
                                           streams[first:first + size])
        return estimate_homodyne_ml_block(thetas, xs, spec.eta, trig=(c, s))

    starts = range(0, trials, size)
    if min(threads, len(starts)) == 1:
        blocks = [job(first) for first in starts]
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            blocks = list(pool.map(job, starts))
    return BlockFit(*map(np.concatenate, zip(*blocks)))


def run_crb_attainment(config: dict, threads: int = 1) -> dict[str, str]:
    """Scaled Monte Carlo MSE against the Cramer-Rao bound, per sample size.

    Columns: N,scheme,mean_N_times_mse,crb,ratio.  The ratio approaches one
    from above as N grows (bound violations beyond statistical noise would
    signal an implementation bug).
    """
    spec = _spec_of(config)
    seed = _seed_of(config)
    scheme = SchemeKind(config["scheme"])
    crb = crb_hom(spec) if scheme is SchemeKind.HOMODYNE else crb_het(spec)
    truth = wigner_covariance(spec)
    rows = []
    for lane, n in enumerate(config["n_values"]):
        fit = _run_trials(spec, scheme, n, seed, lane, config["trials"], threads)
        mean_scaled = n * float(np.mean([hs_distance_sq(Covariance2(*g), truth)
                                         for g in fit.g_wigner.tolist()]))
        rows.append((n, config["scheme"], mean_scaled, crb, mean_scaled / crb))
    return {"": render_table(["N", "scheme", "mean_N_times_mse", "crb", "ratio"],
                             list(zip(*rows)), config, config["format"])}


def run_fig5(config: dict, threads: int = 1) -> dict[str, str]:
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
    names = ["n", "scheme", "kind", "trial_index", "axis_major", "axis_minor",
             "orientation", "hs_distance_sq", "converged", "representative"]
    rows = []
    lanes = [(scheme, n) for scheme in (SchemeKind.HOMODYNE, SchemeKind.HETERODYNE)
             for n in config["n_values"]]
    for lane, (scheme, n) in enumerate(lanes):
        rows.append((n, scheme.value, "true", -1,
                     true_ellipse.semi_axis_major, true_ellipse.semi_axis_minor,
                     true_ellipse.orientation, 0.0, True, False))
        fit = _run_trials(spec, scheme, n, seed, lane, config["trials"], threads)
        hs_values = [hs_distance_sq(Covariance2(*g), truth) for g in fit.g_wigner.tolist()]
        for trial, (g, hs, converged) in enumerate(zip(fit.g_effective.tolist(), hs_values,
                                                       fit.converged.tolist())):
            eff = Covariance2(*g)
            if eff.is_positive_definite():
                ell = to_ellipse(eff)
                axes = (ell.semi_axis_major, ell.semi_axis_minor, ell.orientation)
            else:
                axes = (math.nan, math.nan, math.nan)
            rows.append((n, scheme.value, "estimate", trial, *axes, hs, converged,
                         trial == 0))
        mean_hs = float(np.mean(hs_values))
        rows.append((n, scheme.value, "aggregate", -1,
                     math.nan, math.nan, math.nan, mean_hs, True, False))
    return {"": render_table(names, list(zip(*rows)), config, config["format"])}


_SPEC = _object({"mu": (_number, _REQUIRED), "lambda": (_number, _REQUIRED),
                 "phi": (_number, 0.0), "eta": (_number, 1.0)}, GaussianStateSpec)
_SCHEME = (_choice("homodyne", "heterodyne"), _REQUIRED)
_NUMBERS = _list_of(_number)
_N_VALUES = _list_of(_integer(2))
_TRIALS = (_integer(1), _REQUIRED)
_SEED = _object({"master_seed": (_seed_id, _REQUIRED), "stream_id": (_seed_id, 0)},
                SeedSpec)
_GRID = _object({"lambda": (_NUMBERS, _REQUIRED), "mu": (_NUMBERS, _REQUIRED),
                 "eta": (_list_of(_number, lone=True), [1.0]),
                 "mode": (_choice("real", "hypothetical"), "real")})


def _experiment(run, **fields) -> tuple:
    """(run, fields), the experiment's own fields between format and seed."""
    return run, {"format": (_choice("csv", "json"), "csv"), **fields,
                 "seed": (_SEED, {"master_seed": 0, "stream_id": 0})}


# Every experiment's runner and config fields, in resolved-config order:
# {key: (check, default or _REQUIRED)}.  A runner takes the resolved config
# and the worker-thread count, which only the Monte Carlo runners use, and
# returns {output name suffix: content}.
EXPERIMENTS = {
    "surface": _experiment(run_surface, grid=(_GRID, _REQUIRED)),
    "regions": _experiment(run_regions, spec=(_SPEC, _REQUIRED), samples=(_integer(4), 256)),
    "lambda-crit": _experiment(run_lambda_crit, eta_values=(_NUMBERS, _REQUIRED)),
    "simulate": _experiment(run_simulate, spec=(_SPEC, _REQUIRED), scheme=_SCHEME,
                            n=(_integer(1), _REQUIRED),
                            angle_policy=(_angle_policy, {"type": "sweep"})),
    "estimate": _experiment(run_estimate, data_path=(_text, _REQUIRED), scheme=_SCHEME,
                            eta=(_efficiency, _REQUIRED)),
    "crb-attainment": _experiment(run_crb_attainment, spec=(_SPEC, _REQUIRED),
                                  scheme=_SCHEME, n_values=(_N_VALUES, _REQUIRED),
                                  trials=_TRIALS),
    "fig5": _experiment(run_fig5,
                        spec=(_SPEC, {"mu": 2.0, "lambda": 10.0, "phi": 0.0, "eta": 0.5}),
                        n_values=(_N_VALUES, [50, 100, 150]), trials=_TRIALS),
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
    run, _ = EXPERIMENTS[resolved["experiment"]]
    return run(resolved, threads)
