"""Columnar mega-scale backend benchmarks.

Two questions, answered with wall clocks and one deterministic fit:

* **throughput** -- how many logical calls/sec and objects/sec the
  frame-at-once kernels sustain as the population climbs the E9 mega
  ladder (N/100, N/10, N);
* **speedup** -- how much faster the columnar backend runs the *same
  seeded scenario* than the all-rich-objects backend at an overlap scale
  where both exist (the differential harness proves they produce
  byte-identical reports there, so the comparison is apples to apples).

The ``e9_mega_slope`` number the perf gate protects is NOT wall clock:
it is the log-log slope of max per-class load across the ladder --
deterministic, machine-independent, and ~0 when the paper's principle
holds at mega scale.  The snapshot records its *flatness* transform
``1 / (1 + max(0, slope))`` so the gate's higher-is-better ratio logic
applies (flat ladder → 1.0; load growing linearly with population →
0.5).

Usage::

    PYTHONPATH=src python benchmarks/bench_mega.py --mega 1000000
    PYTHONPATH=src python benchmarks/bench_mega.py --quick
"""

from __future__ import annotations

import argparse
import json
import time

from repro.experiments.e9_scaling import e9_mega_sizes, run_e9_mega_unit
from repro.megascale.compat import require_numpy
from repro.megascale.scenario import differential_spec, run_columnar, run_rich


def ladder_throughput(mega: int, seed: int = 0, quick: bool = True) -> dict:
    """Wall-clock calls/sec + objects/sec per ladder rung, and the slope."""
    rungs = []
    for size in e9_mega_sizes(mega, quick):
        started = time.perf_counter()
        unit = run_e9_mega_unit(size, seed=seed, quick=quick)
        wall = time.perf_counter() - started
        rungs.append(
            {
                "population": size,
                "issued": unit["issued"],
                "max_class_load": unit["max_class_load"],
                "settled": unit["settled"] and unit["wire_settled"],
                "wall_s": round(wall, 3),
                "calls_per_sec": round(unit["issued"] / wall, 1),
                "objects_per_sec": round(size / wall, 1),
            }
        )
    return {"rungs": rungs, "slope": ladder_slope(rungs)}


def ladder_slope(rungs) -> float:
    """Log-log OLS slope of max per-class load vs population.

    The same fit E9's ``mega`` checks apply (SeriesRecorder.slope with
    ``log_log=True``) -- repeated here so the bench stands alone.
    """
    import math

    xs = [math.log(r["population"]) for r in rungs]
    ys = [math.log(max(1, r["max_class_load"])) for r in rungs]
    n = len(xs)
    if n < 2:
        return 0.0
    mx, my = sum(xs) / n, sum(ys) / n
    denom = sum((x - mx) ** 2 for x in xs)
    if denom == 0:
        return 0.0
    return round(sum((x - mx) * (y - my) for x, y in zip(xs, ys, strict=True)) / denom, 4)


def flatness(slope: float) -> float:
    """Gate transform: 1.0 when the ladder is flat, shrinking as load grows.

    Ratios of near-zero slopes are unstable (0.002/0.001 is a "2x
    regression" of nothing), so the gate holds the line on this bounded,
    higher-is-better transform instead of the raw slope.
    """
    return round(1.0 / (1.0 + max(0.0, slope)), 4)


def columnar_vs_rich(population: int = 10_000, seed: int = 11) -> dict:
    """Same seeded scenario through both backends; reports must match."""
    spec = differential_spec(population)
    started = time.perf_counter()
    col = run_columnar(spec, seed=seed)
    col_wall = time.perf_counter() - started
    started = time.perf_counter()
    rich = run_rich(spec, seed=seed)
    rich_wall = time.perf_counter() - started
    return {
        "population": population,
        "reports_identical": col.report.render() == rich.report.render(),
        "columnar_wall_s": round(col_wall, 3),
        "rich_wall_s": round(rich_wall, 3),
        "speedup_x": round(rich_wall / col_wall, 2) if col_wall else float("inf"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--mega", type=int, default=1_000_000, help="top of the population ladder"
    )
    parser.add_argument(
        "--quick", action="store_true", help="small ladder + skip the rich arm"
    )
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    require_numpy("bench_mega")
    mega = 100_000 if args.quick else args.mega
    out = {"ladder": ladder_throughput(mega, seed=args.seed, quick=True)}
    out["ladder"]["flatness"] = flatness(out["ladder"]["slope"])
    if not args.quick:
        out["columnar_vs_rich"] = columnar_vs_rich(seed=args.seed)
    print(json.dumps(out, indent=2))
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
