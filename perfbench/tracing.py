"""Per-layer tracing from outside the program.

A traced pass wraps the public functions each layer is called through, in
the module namespaces where their callers look them up, and restores the
originals afterwards.  Spans nest on one thread (the traced pass runs at
--threads 1); a span's self time is its duration minus its child spans.
Nothing in the package's source is changed.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


class Tracer:
    """Span stack with per-name totals, self times and counters."""

    def __init__(self):
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.hom_fits = defaultdict(lambda: [0, 0])  # n -> [fits, converged]
        self._stack: list[list] = []  # [name, start, child seconds]

    def enter(self, name: str):
        self._stack.append([name, time.perf_counter(), 0.0])

    def exit(self):
        name, start, child = self._stack.pop()
        duration = time.perf_counter() - start
        self.total[name] += duration
        self.self_time[name] += duration - child
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += duration


def _count_words(tr: Tracer, args, kwargs, result, exc):
    if result is not None:
        tr.counts["sampling.words"] += len(result)


def _count_hom_fit(tr: Tracer, args, kwargs, result, exc):
    if result is not None:
        tr.counts["estimation.newton_iters"] += result.iterations
        fits = tr.hom_fits[len(args[0][1])]
        fits[0] += 1
        fits[1] += bool(result.converged)


def _count_ellipse(tr: Tracer, args, kwargs, result, exc):
    if exc is not None and type(exc).__name__ == "DomainError":
        tr.counts["estimation.ellipse_failed"] += 1


def _count(name: str):
    def hook(tr: Tracer, args, kwargs, result, exc):
        tr.counts[name] += 1
    return hook


# (module, attribute, span name or None for count only, hook)
WRAPS = [
    ("gausstomo.cli", "resolve_config", "experiments.resolve", None),
    ("gausstomo.experiments", "resolve_config", "experiments.resolve", None),
    ("gausstomo.cli", "run_experiment", "experiments.run", None),
    ("gausstomo.experiments", "render_table", "experiments.render", None),
    ("gausstomo.experiments", "homodyne_arrays", "sampling.draw", None),
    ("gausstomo.experiments", "heterodyne_arrays", "sampling.draw", None),
    ("gausstomo.sampling", "raw_words", "sampling.words", _count_words),
    ("gausstomo.sampling", "ndtri", "sampling.ndtri", None),
    ("gausstomo.experiments", "estimate_homodyne_ml", "estimation.hom_fit", _count_hom_fit),
    ("gausstomo.experiments", "estimate_heterodyne", "estimation.het_fit", None),
    ("gausstomo.experiments", "to_ellipse", "estimation.ellipse", _count_ellipse),
    ("gausstomo.experiments", "gamma_surface", "fisher.surface", None),
    ("gausstomo.fisher", "crb_report", None, _count("fisher.crb_report_calls")),
    ("gausstomo.fisher", "fisher_hom_quadrature", "fisher.quadrature", None),
    ("gausstomo.fisher", "fisher_hom_closed", "fisher.closed", None),
    ("gausstomo.fisher", "fisher_het", "fisher.closed", None),
    ("gausstomo.fisher.Fisher3", "inverse_trace", "fisher.inverse_trace", None),
    ("gausstomo.experiments", "critical_lambda_equal_areas", "regions.lambda_crit", None),
    ("gausstomo.regions", "region_areas", None, _count("regions.area_evals")),
    ("gausstomo.experiments", "region_boundaries", "regions.boundaries", None),
]


def _resolve(path: str):
    """Module, or class inside a module, named by a dotted path."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, attr = path.rpartition(".")
        return getattr(importlib.import_module(module), attr)


def _wrapper(tr: Tracer, fn, span: str | None, hook):
    def traced(*args, **kwargs):
        result = exc = None
        if span is not None:
            tr.enter(span)
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException as e:
            exc = e
            raise
        finally:
            if span is not None:
                tr.exit()
            if hook is not None:
                hook(tr, args, kwargs, result, exc)
    return traced


@contextmanager
def installed(tr: Tracer):
    """Install every wrapper for the duration of the block.

    Stops with an error naming the attribute if a wrapped name no longer
    exists, rather than reporting zeros for its layer.
    """
    saved = []
    try:
        for path, attr, span, hook in WRAPS:
            try:
                owner = _resolve(path)
            except (ImportError, AttributeError):
                owner = None
            if owner is None or attr not in vars(owner):
                raise RuntimeError(f"traced name {path}.{attr} no longer exists")
            fn = vars(owner)[attr]
            saved.append((owner, attr, fn))
            setattr(owner, attr, _wrapper(tr, fn, span, hook))
        yield tr
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


def layer_metrics(tr: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass: name -> (value, unit)."""
    hom_calls = tr.calls["estimation.hom_fit"]
    converged = sum(c for _, c in tr.hom_fits.values())
    return {
        "cli.self_s": (tr.self_time["cli"], "s"),
        "experiments.resolve_calls": (tr.calls["experiments.resolve"], "count"),
        "experiments.resolve_s": (tr.total["experiments.resolve"], "s"),
        "experiments.runner_self_s": (tr.self_time["experiments.run"], "s"),
        "experiments.render_s": (tr.total["experiments.render"], "s"),
        "sampling.draw_calls": (tr.calls["sampling.draw"], "count"),
        "sampling.draw_s": (tr.total["sampling.draw"], "s"),
        "sampling.words": (tr.counts["sampling.words"], "count"),
        "sampling.words_s": (tr.total["sampling.words"], "s"),
        "sampling.ndtri_s": (tr.total["sampling.ndtri"], "s"),
        "estimation.hom_fit_calls": (hom_calls, "count"),
        "estimation.hom_fit_s": (tr.total["estimation.hom_fit"], "s"),
        "estimation.newton_iters": (tr.counts["estimation.newton_iters"], "count"),
        "estimation.hom_converged_share": (converged / hom_calls if hom_calls else 0.0,
                                           "ratio"),
        "estimation.het_fit_s": (tr.total["estimation.het_fit"], "s"),
        "estimation.ellipse_s": (tr.total["estimation.ellipse"], "s"),
        "estimation.ellipse_failed": (tr.counts["estimation.ellipse_failed"], "count"),
        "fisher.surface_s": (tr.total["fisher.surface"], "s"),
        "fisher.crb_report_calls": (tr.counts["fisher.crb_report_calls"], "count"),
        "fisher.quadrature_s": (tr.total["fisher.quadrature"], "s"),
        "fisher.closed_s": (tr.total["fisher.closed"], "s"),
        "fisher.inverse_trace_s": (tr.total["fisher.inverse_trace"], "s"),
        "fisher.cross_check_self_s": (tr.self_time["fisher.cross_check"], "s"),
        "regions.lambda_crit_s": (tr.total["regions.lambda_crit"], "s"),
        "regions.area_evals": (tr.counts["regions.area_evals"], "count"),
        "regions.boundaries_s": (tr.total["regions.boundaries"], "s"),
    }


def breakdown(tr: Tracer, wall: float) -> str:
    """Self time per span name, largest first, with its share of the wall time."""
    lines = [f"{'span':28s} {'calls':>8s} {'self_s':>10s} {'share':>7s}"]
    for name, t in sorted(tr.self_time.items(), key=lambda kv: -kv[1]):
        if not tr.calls[name]:
            continue
        lines.append(f"{name:28s} {tr.calls[name]:8d} {t:10.4f} {t / wall:7.1%}")
    lines.append(f"{'sum of self times':28s} {'':8s} {sum(tr.self_time.values()):10.4f} "
                 f"{sum(tr.self_time.values()) / wall:7.1%}")
    fits = ", ".join(f"N={n}: {c}/{f} converged" for n, (f, c) in sorted(tr.hom_fits.items()))
    if fits:
        lines.append(f"homodyne fits: {fits}")
    return "\n".join(lines)
