"""Cross ``--shards`` determinism matrix: sharded sweeps are byte-identical.

The sharded runner's contract mirrors ``--jobs``: ``--shards N`` is
purely a wall-clock optimisation.  Each sharded experiment decomposes
into independent units (one seeded universe per jurisdiction sweep
point), measured in any order on worker processes, and
``shard_finish`` merges the partials in unit order -- so the rendered
report must match the sequential reference byte for byte at any shard
count.  ``run_experiment`` itself is composed from the same three hooks,
which is what makes the sequential run the reference.
"""

from repro.experiments import (
    e9_scaling,
    e13_availability,
    e15_overload,
    e16_georeplication,
    e17_governor,
    e18_scenarios,
)
from repro.experiments.common import RunConfig
from repro.experiments.runner import RUNNERS, run_experiment, run_one

SHARDED = {
    "e9": e9_scaling,
    "e13": e13_availability,
    "e15": e15_overload,
    "e16": e16_georeplication,
    "e17": e17_governor,
    "e18": e18_scenarios,
}
MATRIX = ["e9", "e13", "e15", "e16", "e17", "e18"]


def test_sharded_registry_covers_the_matrix():
    multi_unit = [n for n, exp in RUNNERS.items() if len(exp.units(RunConfig())) > 1]
    assert sorted(multi_unit) == sorted(MATRIX)
    for name, module in SHARDED.items():
        for hook in ("shard_units", "shard_measure", "shard_finish"):
            assert hasattr(module, hook), f"{name} lacks {hook}"
        assert RUNNERS[name].units is module.shard_units, name


def test_every_sharded_sweep_has_parallelism_to_farm_out():
    for name, module in SHARDED.items():
        assert len(module.shard_units(RunConfig(quick=True))) > 1, name


def test_run_is_composed_from_the_shard_hooks():
    """The runner's dispatch and a hand-driven measure/finish agree."""
    module = SHARDED["e9"]
    cfg = RunConfig(quick=True, seed=0)
    partials = [module.shard_measure(unit, cfg) for unit in module.shard_units(cfg)]
    composed = module.shard_finish(partials, cfg)
    direct = run_experiment("e9", cfg)
    assert composed.render() == direct.render()


def test_shards_1_and_shards_4_reports_are_byte_identical():
    cfg = RunConfig(quick=True, seed=0)
    for name in MATRIX:
        seq = run_one(name, cfg, shards=1)
        par = run_one(name, cfg, shards=4)
        assert seq.passed, f"{name} failed sequentially:\n{seq.report}"
        assert seq.report == par.report, f"{name} diverged across --shards"
