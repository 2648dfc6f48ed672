"""The ``sweep_multicore`` bench: jurisdiction-sharded sweep speedup.

The sharded runner (``repro.experiments.runner --shards N``) farms the
independent units of a sweep -- one simulated jurisdiction/configuration
per unit -- onto worker processes and merges the partials
deterministically.  This bench prices that on the E15 *full* sweep (14
units: flow and baseline arms across six offered-load levels), the
heaviest sharded workload in the suite.

Two measurement modes, recorded honestly in the output:

* ``measured``      -- >= 2 usable CPUs: run the sweep once serially
  (per-unit walls) and once through ``--shards N`` workers; the speedup
  is the real wall-clock ratio.
* ``modelled-1cpu`` -- a single-CPU container cannot exhibit parallel
  speedup, so the bench measures the per-unit serial walls (real work,
  real machine) and models the N-worker makespan with the same
  longest-processing-time placement the runner's longest-first
  submission approximates.  The per-unit walls ship in the snapshot so
  the model is auditable.

Either way ``speedup_x`` is serial wall / parallel wall for the same
unit set, and reports stay byte-identical across shard counts (that
equivalence is pinned by ``tests/experiments/test_shard_matrix.py``,
not here).

Runnable standalone::

    PYTHONPATH=src python benchmarks/bench_shards.py --shards 4
"""

from __future__ import annotations

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))


def usable_cpus() -> int:
    """CPUs this process may actually schedule on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


def measure_serial_units(quick: bool = False, seed: int = 0) -> list:
    """Run every E15 shard unit in-process; [(unit, wall seconds)]."""
    from repro.experiments import e15_overload
    from repro.experiments.common import RunConfig

    walls = []
    cfg = RunConfig(quick=quick, seed=seed)
    for unit in e15_overload.shard_units(cfg):
        started = time.perf_counter()
        e15_overload.shard_measure(unit, cfg)
        walls.append((unit, time.perf_counter() - started))
    return walls


def lpt_makespan(times: list, workers: int) -> float:
    """Makespan of a longest-processing-time schedule on ``workers``."""
    loads = [0.0] * max(1, workers)
    for wall in sorted(times, reverse=True):
        loads[loads.index(min(loads))] += wall
    return max(loads)


def measure_pool_wall(shards: int, quick: bool = False, seed: int = 0) -> float:
    """Real wall time of one sharded E15 run through the runner."""
    from repro.experiments import runner

    started = time.perf_counter()
    runner.run_one("e15", runner.RunConfig(quick=quick, seed=seed), shards=shards)
    return time.perf_counter() - started


def sweep_multicore(shards: int = 4, quick: bool = False, seed: int = 0) -> dict:
    """The ``sweep_multicore`` metric for the BENCH snapshot."""
    cpus = usable_cpus()
    unit_walls = measure_serial_units(quick=quick, seed=seed)
    serial_s = sum(wall for _unit, wall in unit_walls)
    if cpus >= 2:
        parallel_s = measure_pool_wall(shards, quick=quick, seed=seed)
        mode = "measured"
    else:
        parallel_s = lpt_makespan([wall for _unit, wall in unit_walls], shards)
        mode = "modelled-1cpu"
    return {
        "experiment": "e15",
        "quick": quick,
        "shards": shards,
        "cpus": cpus,
        "mode": mode,
        "units": len(unit_walls),
        "serial_s": round(serial_s, 3),
        "parallel_s": round(parallel_s, 3),
        "speedup_x": round(serial_s / parallel_s, 2),
        "unit_walls": [
            {"unit": f"{arm}@x{level:g}", "wall_s": round(wall, 3)}
            for (level, arm), wall in unit_walls
        ],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--shards", type=int, default=4, help="worker count")
    parser.add_argument("--quick", action="store_true", help="quick sweep units")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    out = sweep_multicore(shards=args.shards, quick=args.quick, seed=args.seed)
    print(f"{'unit':<16} {'wall (s)':>9}")
    for row in out["unit_walls"]:
        print(f"{row['unit']:<16} {row['wall_s']:>9.3f}")
    print(
        f"\n{out['units']} units, serial {out['serial_s']:.2f}s, "
        f"--shards {out['shards']} {out['mode']}: {out['parallel_s']:.2f}s "
        f"-> {out['speedup_x']:.2f}x (cpus={out['cpus']})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
