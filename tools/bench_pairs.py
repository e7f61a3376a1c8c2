"""Alternating benchmark pairs of a parent commit and the working tree.

    python3 tools/bench_pairs.py --parent HEAD --runs crb=10 fig5=6 bounds=6 \
        --first-seed 261 --claim "..." --out BENCH_<n>.json

Run from the root of a source checkout.  The parent commit is exported
with `git archive` into a temporary directory, which is removed at exit;
the change is the working tree as it stands.  Each pair runs
`perfbench/run.py --trace 0` once on each side with the same workload,
seed and run length.  Seeds count up from --first-seed over the whole
sequence of pairs, in the order the workloads are given, and the parent
goes first in the pairs at even positions of that sequence, the change in
the others.  The JSON written holds every result line under `runs`, and
under `summary` each metric's median and quartiles per side, the number of
pairs in which the change reads lower, the relative change of the medians
and, for the end-to-end metrics of BENCHMARK.json, the verdict of the
acceptance rule (see `verdict`); and per workload whether the change
failed a larger share of its attempts.  Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path.cwd()
RUN = Path("perfbench") / "run.py"
QUARTILES = "inclusive"


def export(rev: str, target: Path) -> str:
    """Extract the files of commit rev into target; returns its short hash."""
    short = subprocess.run(["git", "rev-parse", "--short", rev], cwd=ROOT, check=True,
                           capture_output=True, text=True).stdout.strip()
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True,
                         capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        if hasattr(tarfile, "data_filter"):
            archive.extractall(target, filter="data")
        else:
            archive.extractall(target)
    return short


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one benchmark run from the checkout at root."""
    proc = subprocess.run([sys.executable, str(RUN), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} in {root} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method=QUARTILES)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """The acceptance rule on one metric's paired values, with better
    "lower" or "higher" and bound the relative change allowed.

    gain: the change reads better in at least 9 of 10 pairs (ties count
    for neither side) and its median beats the parent's by more than the
    parent's q3 - q1.  Else worse: its median is worse than the parent's
    by more than the bound.  Else unresolved: the parent's q3 - q1 exceeds
    the bound relative to its median, and not every change run beats
    every parent run.  Else no_worse.
    """
    # negated, a higher-is-better metric reads better lower
    sign = 1.0 if better == "lower" else -1.0
    p, c = [sign * x for x in parent], [sign * x for x in change]
    ps, cs = spread(p), spread(c)
    iqr = ps["q3"] - ps["q1"]
    wins = sum(b < a for a, b in zip(p, c))
    if 10 * wins >= 9 * len(p) and ps["median"] - cs["median"] > iqr:
        return "gain"
    if cs["median"] - ps["median"] > bound * abs(ps["median"]):
        return "worse"
    if iqr > bound * abs(ps["median"]) and not max(c) < min(p):
        return "unresolved"
    return "no_worse"


def summarize(runs: list[dict], rules: list[dict] = ()) -> dict:
    """Per workload: each metric's spread per side, the pairs the change
    reads lower in (ties count for neither) and, for a metric named in
    rules (BENCHMARK.json's end_to_end entries), its verdict; then
    failures, whether the change failed a larger share of its attempts,
    and checks."""
    rules = {rule["name"]: rule for rule in rules}
    summary: dict = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        pairs: dict[int, dict] = {}
        for r in runs:
            if r["workload"] == workload:
                pairs.setdefault(r["seed"], {})[r["side"]] = r["result"]
        pairs = {seed: sides for seed, sides in pairs.items() if len(sides) == 2}
        sides = {side: [p[side] for p in pairs.values()] for side in ("parent", "change")}
        out: dict = {}
        for name in sides["parent"][0]["metrics"]:
            values = {side: [r["metrics"][name]["value"] for r in results]
                      for side, results in sides.items()}
            parent, change = spread(values["parent"]), spread(values["change"])
            out[name] = {"parent": parent, "change": change,
                         "change_lower_in_pairs": sum(c < p for p, c in
                                                      zip(values["parent"], values["change"])),
                         "pairs": len(pairs),
                         "median_change_vs_parent": change["median"] / parent["median"] - 1.0}
            if name in rules:
                out[name]["verdict"] = verdict(values["parent"], values["change"],
                                               rules[name]["better"], rules[name]["bound"])
        for key in ("failed", "attempted"):
            out[key] = {side: [r[key] for r in results] for side, results in sides.items()}
        failed = {side: sum(out["failed"][side]) for side in sides}
        attempted = {side: sum(out["attempted"][side]) for side in sides}
        # failed / attempted, compared without a division
        out["more_failed"] = failed["change"] * attempted["parent"] > \
            failed["parent"] * attempted["change"]
        out["correct"] = {side: all(r["correct"] for r in results)
                          for side, results in sides.items()}
        summary[workload] = out
    return summary


def host() -> str:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    versions = subprocess.run(
        [sys.executable, "-c", "import numpy, scipy; print(numpy.__version__, scipy.__version__)"],
        capture_output=True, text=True).stdout.split()
    numpy, scipy = versions if len(versions) == 2 else ("?", "?")
    return (f"{os.cpu_count()} vCPU {cpu}, Python {platform.python_version()}, "
            f"numpy {numpy}, scipy {scipy}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", default="HEAD", help="commit to compare against")
    parser.add_argument("--runs", nargs="+", required=True, metavar="WORKLOAD=PAIRS",
                        help="workloads and their pair counts, run in this order")
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--claim", default="")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if not (ROOT / RUN).is_file():
        parser.error(f"no {RUN} here; run from the root of a source checkout")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    known = [w["name"] for w in bench["workloads"]]
    plan = []
    for item in args.runs:
        workload, _, count = item.partition("=")
        if workload not in known or not count.isdecimal() or int(count) < 1:
            parser.error(f"--runs item {item!r} is not WORKLOAD=PAIRS, with WORKLOAD "
                         f"one of {known} and PAIRS a positive integer")
        plan += [workload] * int(count)

    scratch = Path(tempfile.mkdtemp(prefix="bench-parent-"))
    try:
        parent = export(args.parent, scratch)
        runs = []
        for position, workload in enumerate(plan):
            seed = args.first_seed + position
            order = [("parent", scratch), ("change", ROOT)]
            for side, root in order if position % 2 == 0 else order[::-1]:
                result = run_once(root, workload, seed, seconds)
                runs.append({"side": side, "workload": workload, "seed": seed,
                             "result": result})
                print(side, workload, seed, json.dumps(result["metrics"]), flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    seeds = f"{args.first_seed}-{args.first_seed + len(plan) - 1}"
    doc = {"what": f"perfbench/run.py result lines for the parent commit ({parent}) and "
                   f"this change, run as alternating pairs on one host: "
                   f"{', '.join(args.runs)} pairs in that order, seeds {seeds} over the "
                   "whole sequence, with the parent first at even positions of the "
                   "sequence and the change first at odd ones.  Quartiles are "
                   f"statistics.quantiles(method='{QUARTILES}').",
           "command": f"python3 {RUN} --workload W --seed S --seconds {seconds:g} --trace 0",
           "host": host(),
           "claim": args.claim,
           "summary": summarize(runs, bench["end_to_end"]),
           "runs": runs}
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
