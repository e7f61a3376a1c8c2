"""Benchmark command for gausstomo: one workload per process.

    python3 perfbench/run.py --workload {fig5,crb,bounds} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from its
src/ directory and nowhere else.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  With
--trace 0 the metrics are the end-to-end ones (setup_s, wall_s,
peak_rss_mb); with --trace 1 they are the per-layer totals of one traced
pass and the tracing overhead.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = Path(__file__).resolve().parent / ".scratch"

COLD_STARTS = 9
# The reference kernel's fastest time on the reference host (see
# `reference_seconds`).  wall_s is given in seconds of a host on which the
# kernel takes this long.
REFERENCE_S = 6e-4
_REFERENCE_X = np.linspace(0.1, 1.0, 100)
WORKLOADS = ("fig5", "crb", "bounds")

# How the ROADMAP 4a fault reports itself: to_ellipse rejects a covariance
# whose determinant is positive, because its minor eigenvalue cancelled.
_EIGEN_FAULT = re.compile(
    r"covariance is not positive definite \(smallest eigenvalue (\S+)\): "
    r"Covariance2\(g1=(\S+), g2=(\S+), g3=(\S+)\)$")


def _fail(message: str):
    sys.stderr.write(f"perfbench: {message}\n")
    sys.exit(2)


def reference_seconds() -> float:
    """Fastest of three runs of a fixed kernel that no program change touches.

    It makes the program's own kind of work: small numpy calls and
    Python-level arithmetic and objects.  The host's CPUs are shared, and
    each vCPU switches between fast and slow phases (up to 2x, from
    fractions of a second to minutes); timed beside an operation, the kernel
    measures the phase the operation ran in.
    """
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(250):
            y = np.exp(-_REFERENCE_X * (1.0 + i * 1e-3))
            acc += float(y @ _REFERENCE_X) + math.log1p(i)
            _ = {"i": i, "acc": [acc, i]}
        best = min(best, time.perf_counter() - t0)
    return best


def cold_start_seconds(scratch: Path) -> float:
    """Median wall time of fresh interpreters returning from `gausstomo --help`.

    It stays in wall seconds: the reference kernel, timed in this process,
    does not follow the phase of the CPU the child runs on, and scaling by
    it widened the spread of the median (0.28-0.37 s against 0.42-0.49 s
    over eight sets of nine cold starts).
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    times = []
    for _ in range(COLD_STARTS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "gausstomo.cli", "--help"], cwd=scratch,
                              env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=60)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            _fail(f"gausstomo --help exited {proc.returncode}: {proc.stderr.decode()[-500:]}")
    return statistics.median(times)


def known_fault(code, stderr: str) -> bool:
    """Whether a failed invocation is the to_ellipse eigenvalue fault (exit 2).

    The covariance quoted in the message must really be positive definite,
    so that the rejection is the cancellation fault and not a true
    non-physical estimate.
    """
    if code != 2:
        return False
    try:
        err = json.loads(stderr.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return False
    match = _EIGEN_FAULT.match(err.get("message", ""))
    if err.get("error") != "domain" or match is None:
        return False
    g1, g2, g3 = (float(v) for v in match.groups()[1:])
    return g1 > 0.0 and g1 * g2 - 0.5 * g3 * g3 > 0.0


class Runner:
    """Runs passes over a workload's operations and keeps their outcomes."""

    def __init__(self, ops, gausstomo):
        self.ops = ops
        self.main = gausstomo.cli.main
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.first: list | None = None  # per op: (ok, digest) of the checked pass
        self.ratios: dict[str, list[float]] = {}  # pooled crb ratios per scheme

    def _invoke(self, op, tracer):
        """(ok, code, stderr, result, seconds) of one operation."""
        err = io.StringIO()
        result = None
        root = "cli" if op.argv is not None else "fisher.cross_check"
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            if tracer is not None:
                tracer.enter(root)
            try:
                if op.argv is not None:
                    self.main(op.argv, prog_name="gausstomo")
                else:
                    result = op.call()
                code = 0
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
            except Exception:  # a traceback is exit 1 for a CLI user
                code = 1
                traceback.print_exc(file=err)
            finally:
                if tracer is not None:
                    tracer.exit()
        return code == 0, code, err.getvalue(), result, time.perf_counter() - t0

    def run_pass(self, tracer=None, reference=None) -> tuple[list[float | None], float]:
        """One pass over every operation: (seconds per op, None if it failed;
        pass seconds).

        With `reference` (a function returning seconds), each op's seconds are
        given in reference seconds instead: divided by the mean of the
        reference times taken just before and just after it, and multiplied
        by REFERENCE_S.  The pass seconds then include the reference runs.
        """
        for op in self.ops:
            if op.out is not None and op.out.exists():
                op.out.unlink()
        outcomes = []
        refs = []
        t_pass = time.perf_counter()
        if reference is not None:
            refs.append(reference())
        for op in self.ops:
            outcomes.append(self._invoke(op, tracer))
            if reference is not None:
                refs.append(reference())
        pass_seconds = time.perf_counter() - t_pass
        if refs:
            outcomes = [o[:4] + (REFERENCE_S * o[4] / (0.5 * (refs[i] + refs[i + 1])),)
                        for i, o in enumerate(outcomes)]
        self._record(outcomes)
        return [o[4] if o[0] else None for o in outcomes], pass_seconds

    def _record(self, outcomes):
        self.attempted += len(outcomes)
        states = []
        for op, (ok, code, stderr, result, _) in zip(self.ops, outcomes):
            if not ok:
                self.failed += 1
                if not known_fault(code, stderr):
                    self.errors.append(f"{op.label}: exit {code}: {stderr.strip()[-400:]}")
                states.append((False, None))
                continue
            payload = op.out.read_text() if op.out is not None else result
            states.append((True, hashlib.sha256(repr(payload).encode()).hexdigest()))
            if self.first is None:
                self._check(op, payload)
        if self.first is None:
            self.first = states
            self._check_pooled()
        elif states != self.first:
            self.errors.append("outputs or failures differ between passes of the same inputs")

    def _check(self, op, payload):
        found = op.check(payload)
        if op.group is not None:
            found, ratio = found
            self.ratios.setdefault(op.group, []).append(ratio)
        self.errors.extend(found)

    def _check_pooled(self):
        for group, ratios in self.ratios.items():
            self.errors.extend(workloads.crb_pooled_check(group, ratios))


def build_ops(workload: str, seed: int, scratch: Path, gausstomo, threads: int | None):
    if workload == "fig5":
        return workloads.fig5_ops(seed, scratch)
    if workload == "crb":
        return workloads.crb_ops(seed, scratch, threads or workloads.CRB_THREADS)
    return workloads.bounds_ops(seed, scratch, gausstomo)


def measure_wall(runner: Runner, seconds: float) -> float:
    """wall_s: the mean over successful operations of each one's median pass,
    in reference seconds (see `reference_seconds`).

    Passes run until `seconds` have elapsed (at least three).  A slow phase
    of the host slows the operation and the reference kernel beside it
    alike, so it drops out of their ratio, while a change to the program
    moves only the operation.
    """
    scaled = [[] for _ in runner.ops]
    passes = 0
    t_end = time.perf_counter() + seconds
    while passes < 3 or time.perf_counter() < t_end:
        for i, op_seconds in enumerate(runner.run_pass(reference=reference_seconds)[0]):
            if op_seconds is not None:
                scaled[i].append(op_seconds)
        passes += 1
    succeeded = [statistics.median(s) for s in scaled if s]
    if not succeeded:
        _fail("no operation succeeded")
    return statistics.fmean(succeeded)


def measure_traced(runner: Runner, seconds: float) -> tuple[dict, str]:
    """Per-layer metrics from the median traced pass, and the tracing overhead.

    Untraced and traced passes alternate, both at --threads 1.
    """
    untraced, traced = [], []
    t_end = time.perf_counter() + seconds
    while not traced or time.perf_counter() < t_end:
        untraced.append(runner.run_pass()[1])
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            wall = runner.run_pass(tracer)[1]
        traced.append((wall, tracer))
    traced.sort(key=lambda wt: wt[0])
    wall, tracer = traced[(len(traced) - 1) // 2]
    base = statistics.median(untraced)
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in tracing.layer_metrics(tracer).items()}
    self_sum = sum(tracer.self_time.values())
    metrics["trace.wall_s"] = {"value": wall, "unit": "s"}
    metrics["trace.untraced_wall_s"] = {"value": base, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": wall - base, "unit": "s"}
    metrics["trace.accounted_share"] = {"value": self_sum / wall, "unit": "ratio"}
    return metrics, tracing.breakdown(tracer, wall)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--threads", type=int, default=None,
                        help="crb worker threads (default 2); for reference figures")
    args = parser.parse_args(argv)

    if not (SRC / "gausstomo" / "__init__.py").is_file():
        _fail(f"no gausstomo source under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import gausstomo
    import gausstomo.cli
    if Path(gausstomo.__file__).resolve().parent != SRC / "gausstomo":
        _fail(f"imported gausstomo from {gausstomo.__file__}, not from {SRC}")

    scratch = SCRATCH / f"{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True)
    try:
        setup = None if args.trace else cold_start_seconds(scratch)
        threads = 1 if args.trace else args.threads
        runner = Runner(build_ops(args.workload, args.seed, scratch, gausstomo, threads),
                        gausstomo)
        runner.run_pass()  # warm-up; its outputs are the ones checked
        if args.trace:
            metrics, table = measure_traced(runner, args.seconds)
            sys.stderr.write(f"traced pass of {args.workload}:\n{table}\n")
        else:
            wall = measure_wall(runner, args.seconds)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {"setup_s": {"value": setup, "unit": "s"},
                       "wall_s": {"value": wall, "unit": "s"},
                       "peak_rss_mb": {"value": rss_mb, "unit": "MB"}}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            SCRATCH.rmdir()
    for error in runner.errors[:20]:
        sys.stderr.write(f"check failed: {error}\n")
    print(json.dumps({"correct": not runner.errors, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
