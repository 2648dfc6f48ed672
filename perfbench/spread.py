"""Run a workload once per seed and report each metric's spread.

Usage, from the root of a checkout::

    python3 perfbench/spread.py --workload warm-call --seeds 1 10 --seconds 10

For every metric of the last-line JSON it prints the median over the runs
and the distance between the first and third quartiles (Python's
``statistics.quantiles(values, n=4)``) as a share of that median -- the
figure each ``end_to_end`` bound in ``BENCHMARK.json`` is held against.
Runs are sequential; a run that fails stops the whole script.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs=2, metavar=("FIRST", "LAST"))
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    values: dict = {}
    for seed in range(args.seeds[0], args.seeds[1] + 1):
        cmd = [
            sys.executable, os.path.join(HERE, "run.py"),
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            print(f"seed {seed}: exit {proc.returncode}")
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
        ), flush=True)
    print(f"{'metric':40s} {'median':>14s} {'iqr/median':>10s}")
    for name, vals in values.items():
        median = statistics.median(vals)
        q1, _q2, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        print(f"{name:40s} {median:14.6g} {spread:10.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
