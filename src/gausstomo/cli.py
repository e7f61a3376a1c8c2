"""Command-line entry point.

Grammar: ``gausstomo <experiment> --config <file>`` with flag overrides for
the common scalar knobs.  Exit codes: 0 success, 2 configuration error,
3 numerical failure; errors are also emitted as a JSON object on stderr
for machine consumption.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click

from ._version import __version__
from .core import DomainError, NumericalError
from .experiments import ConfigError, resolve_config, run_experiment

EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _fail(code: int, kind: str, message: str):
    sys.stderr.write(json.dumps({"error": kind, "message": message}) + "\n")
    sys.exit(code)


def _load_config(config_path: str | None, experiment: str, overrides: dict) -> dict:
    cfg: dict = {}
    if config_path:
        try:
            text = sys.stdin.read() if config_path == "-" \
                else Path(config_path).read_text(encoding="utf-8")
            cfg = json.loads(text)
        except FileNotFoundError:
            _fail(EXIT_CONFIG, "config", f"config file not found: {config_path}")
        except OSError as exc:
            _fail(EXIT_CONFIG, "config",
                  f"config file cannot be read: {config_path}: {exc.strerror}")
        except UnicodeDecodeError:
            _fail(EXIT_CONFIG, "config", f"config file is not UTF-8 text: {config_path}")
        except json.JSONDecodeError as exc:
            _fail(EXIT_CONFIG, "config", f"config file is not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        _fail(EXIT_CONFIG, "config", "config must be a JSON object")
    cfg.setdefault("experiment", experiment)
    if cfg["experiment"] != experiment:
        _fail(EXIT_CONFIG, "config",
              f"config is for experiment {cfg['experiment']!r}, invoked as {experiment!r}")

    # a flag overrides a key of an object (or absent) spec or seed; any
    # other value is left for resolution to reject
    spec_overrides = {k: overrides[k] for k in ("mu", "lambda", "eta") if overrides.get(k) is not None}
    spec, seed = cfg.get("spec", {}), cfg.get("seed", {})
    if spec_overrides and isinstance(spec, dict):
        cfg["spec"] = {**spec, **spec_overrides}
    for key in ("n", "trials"):
        if overrides.get(key) is not None:
            cfg[key] = overrides[key]
    if overrides.get("seed") is not None and isinstance(seed, dict):
        cfg["seed"] = {"master_seed": overrides["seed"], "stream_id": seed.get("stream_id", 0)}
    if overrides.get("format") is not None:
        cfg["format"] = overrides["format"]
    return cfg


def _write_outputs(outputs: dict[str, str], out: str):
    if out == "-":
        if set(outputs) != {""}:
            _fail(EXIT_CONFIG, "config",
                  "this experiment writes a sidecar file; --out must be a path")
        sys.stdout.write(outputs[""])
        return
    base = Path(out)
    try:
        base.parent.mkdir(parents=True, exist_ok=True)
        for suffix, content in outputs.items():
            target = base if suffix == "" else Path(str(base) + suffix)
            with open(target, "w", newline="\n") as fh:
                fh.write(content)
    except OSError as exc:
        _fail(EXIT_CONFIG, "config",
              f"cannot write output {out}: {exc.strerror}: {exc.filename}")


def _run(experiment: str, config: str | None, out: str | None, **overrides):
    cfg = _load_config(config, experiment, overrides)
    threads = 1 if overrides.get("threads") is None else overrides["threads"]
    target = out if out is not None else cfg.get("output_path", "-")
    try:
        resolve_config(cfg)
        outputs = run_experiment(cfg, threads=threads)
    except ConfigError as exc:
        _fail(EXIT_CONFIG, "config", str(exc))
    except DomainError as exc:
        _fail(EXIT_CONFIG, "domain", str(exc))
    except (NumericalError, FloatingPointError) as exc:
        _fail(EXIT_NUMERICAL, "numerical", str(exc))
    _write_outputs(outputs, target)


def _common_options(fn):
    fn = click.option("--config", type=click.Path(), default=None,
                      help="JSON experiment config file.")(fn)
    fn = click.option("--out", default=None,
                      help="Output path ('-' for stdout); overrides the "
                           "config's output_path.")(fn)
    fn = click.option("--format", "format_", type=click.Choice(["csv", "json"]),
                      default=None, help="Output format override.")(fn)
    fn = click.option("--mu", type=float, default=None, help="State size override.")(fn)
    fn = click.option("--lambda", "lambda_", type=float, default=None,
                      help="State shape override.")(fn)
    fn = click.option("--eta", type=float, default=None,
                      help="Detector efficiency override.")(fn)
    fn = click.option("--n", type=int, default=None, help="Sample count override.")(fn)
    fn = click.option("--trials", type=int, default=None, help="Trial count override.")(fn)
    fn = click.option("--seed", type=int, default=None, help="Master seed override.")(fn)
    fn = click.option("--threads", type=int, default=None,
                      help="Worker threads (never changes results).")(fn)
    return fn


@click.group()
@click.version_option(__version__)
def main():
    """Homodyne vs heterodyne Gaussian-state tomography experiments."""


def _make_command(name: str, doc: str):
    @_common_options
    def cmd(config, out, format_, mu, lambda_, eta, n, trials, seed, threads):
        _run(name, config, out, format=format_, mu=mu, eta=eta, n=n,
             trials=trials, seed=seed, threads=threads, **{"lambda": lambda_})

    cmd.__name__ = name.replace("-", "_")
    cmd.__doc__ = doc
    main.command(name=name)(cmd)


_make_command("surface", "Performance-ratio surface over a (lambda, mu, eta) grid.")
_make_command("regions", "Polar uncertainty boundaries for one state.")
_make_command("lambda-crit", "Equal-area squeezing threshold per efficiency.")
_make_command("simulate", "Draw synthetic measurement records (writes a sidecar).")
_make_command("estimate", "Fit a covariance matrix to a sample file.")
_make_command("crb-attainment", "Monte Carlo scaled MSE against the bound.")
_make_command("fig5", "Ellipse-reconstruction benchmark at moderate N.")


if __name__ == "__main__":
    main()
