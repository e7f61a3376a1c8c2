"""Command-line entry point.

Grammar: ``gausstomo <experiment> [--config <file>] [--out <path>]
[--threads <k>] [<flag> <value> ...]``.  Each entry of the EXPERIMENTS table
is one command, whose help is its runner's docstring, and it takes each flag
of _FLAGS whose key its config has: a flag sets that key at the top level,
or inside the config's spec or seed object.  Exit codes: 0 success, 2
configuration error (a usage error and an array too large to allocate
included), 3 numerical failure; errors are also emitted as a JSON object on
stderr for machine consumption.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click

from ._version import __version__
from .core import DomainError, NumericalError
from .experiments import EXPERIMENTS, ConfigError, resolve_config, run_experiment

EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

# flag: (key path, click type, help).  A command takes a flag when its table
# has the path's last key, which the flag then sets at the top level (as
# estimate's eta), or else the path's first key.
_FLAGS = {
    "--format": (("format",), click.Choice(["csv", "json"]), "Output format."),
    "--mu": (("spec", "mu"), float, "State size."),
    "--lambda": (("spec", "lambda"), float, "State shape."),
    "--eta": (("spec", "eta"), float, "Detector efficiency."),
    "--n": (("n",), int, "Sample count."),
    "--trials": (("trials",), int, "Trial count."),
    "--seed": (("seed", "master_seed"), int, "Master seed."),
}


def _fail(code: int, kind: str, message: str):
    sys.stderr.write(json.dumps({"error": kind, "message": message}) + "\n")
    sys.exit(code)


def _load_config(config_path: str | None, experiment: str, flags: dict) -> dict:
    cfg: dict = {}
    if config_path:
        try:
            text = sys.stdin.read() if config_path == "-" \
                else Path(config_path).read_text(encoding="utf-8")
            cfg = json.loads(text)
        except (OSError, ValueError) as exc:  # not UTF-8 or not JSON is a ValueError
            _fail(EXIT_CONFIG, "config", f"cannot read config file {config_path}: {exc}")
    if not isinstance(cfg, dict):
        _fail(EXIT_CONFIG, "config", "config must be a JSON object")
    cfg.setdefault("experiment", experiment)
    if cfg["experiment"] != experiment:
        _fail(EXIT_CONFIG, "config",
              f"config is for experiment {cfg['experiment']!r}, invoked as {experiment!r}")

    # a flag sets its key at the top level, or inside the spec or seed object
    # (a copy of the table's default object if the config has none); a spec
    # or seed that is not an object is left for resolution to reject
    _, fields = EXPERIMENTS[experiment]
    for (*parent, key), value in flags.items():
        target = cfg
        if parent:
            default = fields[parent[0]][1]
            target = cfg.setdefault(parent[0], dict(default) if isinstance(default, dict) else {})
        if isinstance(target, dict):
            target[key] = value
    return cfg


def _write_output(text: str, out: str):
    if out == "-":
        sys.stdout.write(text)
        return
    path = Path(out)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        _fail(EXIT_CONFIG, "config",
              f"cannot write output {out}: {exc.strerror}: {exc.filename}")


def _run(experiment: str, config: str | None, out: str | None, threads: int, flags: dict):
    cfg = _load_config(config, experiment, flags)
    target = out if out is not None else cfg.get("output_path", "-")
    try:
        resolve_config(cfg)
        text = run_experiment(cfg, threads=threads)[""]
    except ConfigError as exc:
        _fail(EXIT_CONFIG, "config", str(exc))
    except DomainError as exc:
        _fail(EXIT_CONFIG, "domain", str(exc))
    except MemoryError as exc:
        # a config whose arrays cannot be allocated, such as a huge n
        _fail(EXIT_CONFIG, "config", str(exc))
    except (NumericalError, FloatingPointError) as exc:
        _fail(EXIT_NUMERICAL, "numerical", str(exc))
    _write_output(text, target)


def _command(experiment: str) -> click.Command:
    """An experiment's command: --config, --out, --threads and its flags."""
    run, fields = EXPERIMENTS[experiment]
    params = [click.Option(["--config"], type=click.Path(),
                           help="JSON experiment config file ('-' for stdin)."),
              click.Option(["--out"], help="Output path ('-' for stdout); overrides "
                                           "the config's output_path."),
              click.Option(["--threads"], type=int, default=1,
                           help="Worker threads (never changes results).")]
    paths = {}
    for flag, (path, kind, text) in _FLAGS.items():
        path = next((p for p in (path[-1:], path) if p[0] in fields), None)
        if path is not None:
            params.append(click.Option([flag], type=kind, help=f"{text} Sets {'.'.join(path)}."))
            paths[params[-1].name] = path

    def callback(config, out, threads, **flags):
        _run(experiment, config, out, threads,
             {paths[name]: value for name, value in flags.items() if value is not None})

    return click.Command(experiment, params=params, callback=callback, help=run.__doc__)


# click >= 8.2 raises this for a bare `gausstomo`, which prints the help
_NO_ARGS = getattr(click.exceptions, "NoArgsIsHelpError", ())


class _Group(click.Group):
    """Reports a usage error, such as an option the command does not take, a
    bad value or an unknown command, as a JSON config error with exit 2;
    --help, --version and a bare `gausstomo` print and exit as click does."""

    def main(self, *args, **kwargs):
        try:
            return super().main(*args, standalone_mode=False, **kwargs)
        except _NO_ARGS as exc:
            exc.show()
            sys.exit(exc.exit_code)
        except click.ClickException as exc:
            _fail(EXIT_CONFIG, "config", exc.format_message())
        except click.Abort:
            sys.exit("Aborted!")


@click.group(cls=_Group, commands=[_command(name) for name in EXPERIMENTS])
@click.version_option(__version__)
def main():
    """Homodyne vs heterodyne Gaussian-state tomography experiments."""


if __name__ == "__main__":
    main()
