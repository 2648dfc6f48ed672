"""E9 bench: the distributed systems principle (5.2).

The artifact here IS the sweep (mitigated vs strawman bottleneck growth),
so the benchmark times one locality-mixed steady-state invocation while
the claim table is produced by the full quick sweep.
"""

from conftest import assert_and_report

from repro.experiments.common import RunConfig
from repro.experiments.runner import run_experiment


def test_e9_scaling_claims_and_steady_state_call(benchmark, small_system):
    system, _cls, instance = small_system
    client = system.new_client("bench-e9")
    system.call(instance.loid, "Ping", client=client)  # warm

    def steady_state_call():
        return system.call(instance.loid, "Increment", 1, client=client)

    value = benchmark(steady_state_call)
    assert value >= 1

    assert_and_report(run_experiment("e9", RunConfig(quick=True)))
