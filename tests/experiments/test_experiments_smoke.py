"""Every experiment runs quick and passes all of its claim checks.

These are the same runs the benchmark harness prints; keeping them in the
test suite means `pytest tests/` alone certifies the reproduction.
"""

import pytest

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
)
from repro.experiments.ablation_ttl_locality import run_locality, run_ttl
from repro.experiments.common import RunConfig
from repro.experiments.runner import run_experiment

#: Each module with its runner registry name.
ALL_EXPERIMENTS = {
    e1_binding_path: "e1",
    e2_agent_load: "e2",
    e3_combining_tree: "e3",
    e4_class_cloning: "e4",
    e5_lifecycle: "e5",
    e6_stale_bindings: "e6",
    e7_replication: "e7",
    e8_inheritance: "e8",
    e9_scaling: "e9",
    e10_bootstrap: "e10",
    e11_autonomy: "e11",
    e12_loids: "e12",
    e13_availability: "e13",
    e14_autoscale: "e14",
    e15_overload: "e15",
    ablation_propagation: "a1",
    ablation_caching: "a2",
}


@pytest.mark.parametrize(
    "module", list(ALL_EXPERIMENTS), ids=lambda m: m.__name__.rsplit(".", 1)[-1]
)
def test_experiment_claims_hold(module):
    result = run_experiment(ALL_EXPERIMENTS[module], RunConfig(quick=True, seed=0))
    failed = [c for c in result.checks if not c.passed]
    assert not failed, f"{result.experiment} failed: {[str(c) for c in failed]}"
    # The rendered report must be printable and mention the claim.
    report = result.render()
    assert result.experiment in report
    assert "claim:" in report


@pytest.mark.parametrize("runner", [run_ttl, run_locality], ids=["a3_ttl", "a4_locality"])
def test_split_ablations_hold(runner):
    result = runner(quick=True, seed=0)
    failed = [c for c in result.checks if not c.passed]
    assert not failed, f"{result.experiment} failed: {[str(c) for c in failed]}"


def test_experiments_are_seed_deterministic():
    a = e1_binding_path.run(quick=True, seed=3)
    b = e1_binding_path.run(quick=True, seed=3)
    assert a.recorder.xs == b.recorder.xs
    for name in a.recorder.series_names():
        assert a.recorder.series(name) == b.recorder.series(name)
