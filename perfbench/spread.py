"""Run-to-run spread of the end-to-end metrics, as the bounds are judged.

    python3 perfbench/spread.py --workloads fig5 crb bounds --seeds 10

Runs the benchmark once per seed and workload, one run at a time, and
prints for each metric the median and the interquartile range as a share
of the median (statistics.quantiles(values, n=4)).  Bounds in
BENCHMARK.json must exceed the spread of every metric but setup_s.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=["fig5", "crb", "bounds"])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=None,
                        help="run length (default: run_seconds of BENCHMARK.json)")
    args = parser.parse_args()
    spec = json.loads((RUN.parent.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        shares = set()
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            proc = subprocess.run([sys.executable, str(RUN), "--workload", workload,
                                   "--seed", str(seed), "--seconds", str(seconds),
                                   "--trace", "0"], capture_output=True, text=True,
                                  timeout=600)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                sys.stderr.write(proc.stderr)
            shares.add((result["failed"] / result["attempted"], result["correct"]))
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(workload, seed, json.dumps({k: round(v[-1], 6) for k, v in values.items()}),
                  flush=True)
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            print(f"{workload:7s} {name:12s} median {med:.6g}  IQR/median {spread:.4f}  "
                  f"bound {bounds.get(name)}  (failed share, correct) {sorted(shares)}",
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
