"""E15 bench: the admission-control hot path + the goodput claim table.

Times one overload burst -- a batch of concurrent invokes against a
flow-controlled serial server, where most arrivals take the shed path
(metric + FaultLog-less Overloaded reply) and the rest queue and drain.
This is the per-request cost admission control adds under saturation,
the path E15's goodput plateau depends on.
"""

import pytest
from conftest import assert_and_report

from repro.core.runtime import RetryPolicy
from repro.errors import Overloaded
from repro.experiments.common import RunConfig
from repro.experiments.runner import run_experiment
from repro.flow.config import FlowConfig
from repro.metrics.counters import ComponentKind
from repro.system.legion import LegionSystem, SiteSpec
from repro.workloads.apps import SerialServiceImpl

BURST = 20


@pytest.fixture(scope="module")
def flow_system():
    system = LegionSystem.build(
        [SiteSpec("main", hosts=2)],
        seed=42,
        flow=FlowConfig(
            capacity=1,
            queue_limit=4,
            service_estimate=0.5,
            admit_kinds=frozenset({ComponentKind.APPLICATION}),
        ),
    )
    cls = system.create_class(
        "BenchSerial", factory=lambda: SerialServiceImpl(service_time=0.5)
    )
    binding = system.create_instance(cls.loid)
    client = system.new_client("burst")
    client.runtime.retry_policy = RetryPolicy(max_attempts=1)
    return system, client, binding


def test_e15_overload_claims_and_shed_cost(benchmark, flow_system):
    system, client, binding = flow_system
    kernel = system.kernel

    def overload_burst():
        futs = [
            kernel.spawn(client.runtime.invoke(binding.loid, "Work"))
            for _ in range(BURST)
        ]
        kernel.run()
        served = sum(1 for f in futs if f.exception() is None)
        shed = sum(1 for f in futs if isinstance(f.exception(), Overloaded))
        return served, shed

    served, shed = benchmark(overload_burst)
    # capacity 1 + queue 4 admit five of every burst; the rest shed.
    assert served == 5 and shed == BURST - 5

    assert_and_report(run_experiment("e15", RunConfig(quick=True)))
