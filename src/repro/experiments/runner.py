"""The experiment runner: registry, one dispatch path, and the CLI.

Every experiment is a registry entry of three hooks -- ``units(cfg)``
(its independent work units, each its own seeded system),
``measure(unit, cfg)`` (run one unit in any process; returns a
picklable partial) and ``finish(partials, cfg)`` (merge in unit order
into the :class:`~repro.experiments.common.ExperimentResult`) -- and
:func:`run_experiment` is the one path through them.  ``cfg`` is one
frozen :class:`~repro.experiments.common.RunConfig` carrying every flag.

The full sweep (E1-E18 plus the A1-A4 ablations) is embarrassingly
parallel: every experiment builds its own :class:`LegionSystem` from a
seed and shares nothing with the others.  ``run_many`` therefore fans the
sweep across a :class:`concurrent.futures.ProcessPoolExecutor` when asked
(``--jobs N``), while keeping the *printed output* byte-identical to the
sequential run: workers return rendered reports, and the parent prints
them in submission order.  ``--shards N`` fans one experiment's units
across worker processes the same way.  Simulated-time results are
deterministic per (experiment, config) regardless of scheduling, so
parallelism is purely a wall-clock optimisation.

``python -m repro.experiments`` dispatches here; see :func:`main`.
"""

from __future__ import annotations

import argparse
import sys
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Any, Callable, List, Optional, Sequence

from repro.experiments import (
    ablation_caching,
    ablation_propagation,
    e1_binding_path,
    e2_agent_load,
    e3_combining_tree,
    e4_class_cloning,
    e5_lifecycle,
    e6_stale_bindings,
    e7_replication,
    e8_inheritance,
    e9_scaling,
    e10_bootstrap,
    e11_autonomy,
    e12_loids,
    e13_availability,
    e14_autoscale,
    e15_overload,
    e16_georeplication,
    e17_governor,
    e18_scenarios,
)
from repro.experiments.ablation_ttl_locality import run_locality, run_ttl
from repro.experiments.common import ExperimentResult, RunConfig


@dataclass(frozen=True)
class Experiment:
    """One registry entry: the units -> measure -> finish hooks."""

    units: Callable[[RunConfig], list]
    measure: Callable[[Any, RunConfig], Any]
    finish: Callable[[list, RunConfig], ExperimentResult]


def _sharded(module) -> Experiment:
    """A module exposing ``shard_units``/``shard_measure``/``shard_finish``."""
    return Experiment(module.shard_units, module.shard_measure, module.shard_finish)


def _whole(run, *flags: str) -> Experiment:
    """A one-unit experiment ``run(quick=, seed=, **flags)``, where
    ``flags`` names the RunConfig fields it takes."""

    def measure(_unit, cfg: RunConfig) -> ExperimentResult:
        return run(
            quick=cfg.quick, seed=cfg.seed, **{f: getattr(cfg, f) for f in flags}
        )

    return Experiment(lambda _cfg: [None], measure, lambda partials, _cfg: partials[0])


RUNNERS = {
    "e1": _whole(e1_binding_path.run, "trace"),
    "e2": _whole(e2_agent_load.run),
    "e3": _whole(e3_combining_tree.run, "trace"),
    "e4": _whole(e4_class_cloning.run),
    "e5": _whole(e5_lifecycle.run),
    "e6": _whole(e6_stale_bindings.run),
    "e7": _whole(e7_replication.run),
    "e8": _whole(e8_inheritance.run),
    "e9": _sharded(e9_scaling),
    "e10": _whole(e10_bootstrap.run),
    "e11": _whole(e11_autonomy.run),
    "e12": _whole(e12_loids.run),
    "e13": _sharded(e13_availability),
    "e14": _whole(e14_autoscale.run, "autoscale", "report", "mega"),
    "e15": _sharded(e15_overload),
    "e16": _sharded(e16_georeplication),
    "e17": _sharded(e17_governor),
    "e18": _sharded(e18_scenarios),
    "a1": _whole(ablation_propagation.run),
    "a2": _whole(ablation_caching.run),
    "a3": _whole(run_ttl),
    "a4": _whole(run_locality),
}


@dataclass
class RunOutcome:
    """One experiment run, reduced to picklable primitives.

    Workers in the process pool return these instead of
    :class:`~repro.experiments.common.ExperimentResult` (whose recorder
    holds arbitrary objects); the parent only needs the rendered report
    and the verdict.
    """

    name: str
    experiment: str
    passed: bool
    report: str
    elapsed: float
    seed: int


def run_experiment(name: str, cfg: RunConfig, shards: int = 1) -> ExperimentResult:
    """Run one experiment: units -> measure -> finish.

    ``shards`` > 1 measures the units on up to that many worker
    processes.  Units are independent by contract (each builds its own
    seeded system) and ``finish`` consumes the partials in unit order,
    so the result is byte-identical at any shard count.
    """
    experiment = RUNNERS[name]
    units = experiment.units(cfg)
    if shards <= 1 or len(units) <= 1:
        partials = [experiment.measure(unit, cfg) for unit in units]
    else:
        with ProcessPoolExecutor(max_workers=min(shards, len(units))) as pool:
            # Submit in reverse unit order: sweeps list units smallest
            # first, so reverse submission approximates longest-first
            # scheduling and keeps the expensive tail unit off the end
            # of the critical path.  Merge order is unaffected -- the
            # partials list is rebuilt in unit order.
            futures = {
                index: pool.submit(experiment.measure, units[index], cfg)
                for index in reversed(range(len(units)))
            }
            partials = [futures[index].result() for index in range(len(units))]
    return experiment.finish(partials, cfg)


def run_one(name: str, cfg: RunConfig, shards: int = 1) -> RunOutcome:
    """Execute one experiment; never raises (a crash is a failed outcome)."""
    started = time.perf_counter()
    try:
        result = run_experiment(name, cfg, shards)
        report = result.render()
        experiment = result.experiment
        passed = result.passed
    except Exception:  # noqa: BLE001 - a crashed experiment is a FAIL, not an abort
        report = f"== {name}: CRASHED ==\n{traceback.format_exc().rstrip()}"
        experiment = name.upper()
        passed = False
    return RunOutcome(
        name=name,
        experiment=experiment,
        passed=passed,
        report=report,
        elapsed=time.perf_counter() - started,
        seed=cfg.seed,
    )


def run_many(
    names: Sequence[str],
    cfg: RunConfig,
    seeds: Optional[Sequence[int]] = None,
    jobs: int = 1,
    shards: int = 1,
) -> List[RunOutcome]:
    """Run ``names`` x ``seeds`` (default: ``cfg.seed``), ``jobs`` at a
    time; outcomes in input order.

    ``jobs=1`` runs inline (no pool, no fork) -- this is the reference
    path whose output the parallel path reproduces byte-for-byte.  Traced
    and fault-injected runs keep that contract: span ids, timestamps, and
    chaos schedules are functions of the per-experiment kernel's
    deterministic seed, so reports and exported artifacts are identical
    at any ``jobs``.

    ``shards`` fans each experiment's units across worker processes
    *inside* its run; combine with ``jobs=1`` (nesting a shard pool
    inside a job pool multiplies processes).
    """
    tasks = [
        (name, replace(cfg, seed=seed), shards)
        for seed in (seeds if seeds is not None else [cfg.seed])
        for name in names
    ]
    if jobs <= 1 or len(tasks) <= 1:
        return [run_one(*task) for task in tasks]
    with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
        futures = [pool.submit(run_one, *task) for task in tasks]
        return [f.result() for f in futures]


def render_summary(outcomes: Sequence[RunOutcome], multi_seed: bool) -> str:
    """The trailing PASS/FAIL table plus the one-line verdict."""
    lines = ["=" * 60]
    for o in outcomes:
        status = "PASS" if o.passed else "FAIL"
        tag = f"({o.name}, seed {o.seed})" if multi_seed else f"({o.name})"
        lines.append(f"  {status}  {o.experiment:<4} {tag}  {o.elapsed:6.1f}s")
    lines.append("=" * 60)
    all_passed = all(o.passed for o in outcomes)
    lines.append("all claims hold" if all_passed else "SOME CLAIMS FAILED")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Reproduce the Legion paper's claims (E1-E18, A1-A4).",
    )
    parser.add_argument("names", nargs="*", help="experiment ids (default: all)")
    parser.add_argument("--full", action="store_true", help="full-size sweeps")
    parser.add_argument(
        "--quick",
        action="store_true",
        help="quick-size sweeps (the default; explicit for scripts)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seeds",
        type=int,
        nargs="+",
        metavar="SEED",
        help="run the sweep once per seed (overrides --seed)",
    )
    parser.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=1,
        metavar="N",
        help="run up to N experiments in parallel processes (default 1)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=1,
        metavar="N",
        help=(
            "run each sharded experiment's independent units (e9/e13/e15/"
            "e16/e17/e18 sweeps) on up to N worker processes; reports "
            "are byte-identical at any N (default 1)"
        ),
    )
    for flag in RunConfig.flags():
        parser.add_argument(f"--{flag.name}", **flag.metadata["flag"])
    parser.add_argument("--list", action="store_true", help="list experiment ids")
    parser.add_argument(
        "--list-scenarios",
        action="store_true",
        help="list the scenario catalog (the workloads e18 sweeps)",
    )
    args = parser.parse_args(argv)

    if args.full and args.quick:
        parser.error("--full and --quick are mutually exclusive")
    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    if args.shards < 1:
        parser.error(f"--shards must be >= 1, got {args.shards}")

    if args.list:
        for name in RUNNERS:
            print(name)
        return 0

    if args.list_scenarios:
        from repro.scenarios import catalog

        specs = catalog()
        width = max(len(name) for name in specs)
        for name, spec in specs.items():
            print(f"{name:<{width}}  {spec.description}")
        return 0

    names = [n.lower() for n in (args.names or list(RUNNERS))]
    unknown = [n for n in names if n not in RUNNERS]
    if unknown:
        parser.error(f"unknown experiment(s): {', '.join(unknown)}")

    seeds = args.seeds if args.seeds else [args.seed]
    try:
        cfg = RunConfig(
            quick=not args.full,
            seed=seeds[0],
            **{flag.name: getattr(args, flag.name) for flag in RunConfig.flags()},
        )
    except ValueError as exc:
        parser.error(str(exc))
    outcomes = run_many(names, cfg, seeds=seeds, jobs=args.jobs, shards=args.shards)

    for outcome in outcomes:
        print(outcome.report)
        print()
    print(render_summary(outcomes, multi_seed=len(seeds) > 1))
    return 0 if all(o.passed for o in outcomes) else 1


if __name__ == "__main__":
    sys.exit(main())
