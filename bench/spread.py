"""Run the benchmark over several seeds and report the spread of each metric.

    python3 bench/spread.py [--runs 10] [--first-seed 1] [WORKLOAD ...]

Runs ``bench/run.py`` once per seed on each workload (all by default),
with the ``run_seconds`` of BENCHMARK.json, and prints every end-to-end
metric with its unit and the failed-check fraction of each run.  With two
runs or more it then prints per metric the median and the interquartile
distance as a share of the median, next to the metric's bound.  The
benchmark is steady when every spread but that of ``setup_s`` is well
below its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from run import ROOT, WORKLOADS


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("workloads", nargs="*", default=list(WORKLOADS))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    status = 0
    for workload in args.workloads:
        values: dict[str, list] = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0",
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            shown = []
            for name, metric in result["metrics"].items():
                values[name].append(metric["value"])
                shown.append(f"{name}={metric['value']:.4f} {metric['unit']}")
            frac = result["failed"] / result["attempted"]
            shown.append(f"checks_failed_frac={frac:g} ({result['failed']}/{result['attempted']})")
            print(f"{workload} seed {seed}: " + ", ".join(shown), flush=True)
            status |= not result["correct"]
        if args.runs < 2:
            continue
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            print(f"{workload:11s} {name:12s} median {med:10.4f}  spread {(q3 - q1) / med:7.4f}"
                  f"  bound {bounds[name]}", flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
