"""E17 bench: the governor's observation path + the banded-health claims.

Times one governing ``poll()`` -- evidence snapshot (metrics sum, wire
stats, FaultLog scan, backlog walk), band-machine step, and idempotent
policy re-application -- against a warm governed system.  This is the
whole per-tick cost of running banded health: it executes once per
``tick`` simulated ms, entirely off the wire, so it must stay cheap
enough to be a rounding error next to real traffic.

The governor-disabled cost is separately pinned by the perf gate: the
only hot-path trace of repro.health is the one ``paused`` check on the
flow-only admission intake, covered by the ``system_call`` metric in
``check_regression`` (BENCH baselines pre-date the governor).
"""

import pytest
from conftest import assert_and_report

from repro.core.runtime import RetryPolicy
from repro.experiments.common import RunConfig
from repro.experiments.runner import run_experiment
from repro.faults.log import FaultLog
from repro.flow.config import FlowConfig
from repro.health import Band, Governor, GovernorConfig
from repro.metrics.counters import ComponentKind
from repro.system.legion import LegionSystem, SiteSpec
from repro.workloads.apps import SerialServiceImpl


@pytest.fixture(scope="module")
def governed_system():
    """A warm governed system with live servers, a client, and a FaultLog."""
    system = LegionSystem.build(
        [SiteSpec("main", hosts=3)],
        seed=42,
        flow=FlowConfig(
            capacity=1,
            queue_limit=14,
            service_estimate=2.0,
            admit_kinds=frozenset({ComponentKind.APPLICATION}),
        ),
    )
    system.services.fault_log = FaultLog()
    cls = system.create_class(
        "BenchSerial", factory=lambda: SerialServiceImpl(service_time=2.0)
    )
    instances = [system.create_instance(cls.loid) for _ in range(4)]
    client = system.new_client("bench-gov")
    client.runtime.retry_policy = RetryPolicy(
        max_attempts=2, retry_tokens=60.0, retry_token_refill=0.5
    )
    governor = Governor(system, GovernorConfig())
    governor.track(client)
    return system, governor, instances


def test_governor_poll_cost(benchmark, governed_system):
    """One full observe/step/apply cycle on a warm system."""
    _system, governor, _instances = governed_system

    record = benchmark(governor.poll)
    assert record is None  # calm system: no transition to ledger
    assert governor.band is Band.STABLE
    assert governor.last_evidence is not None
    assert governor.last_evidence.consistent


def test_policy_apply_cost_at_worst_band(benchmark, governed_system):
    """Re-applying the Failed-band policy (the heaviest, with the pause
    sweep over every admitted server) stays idempotent and cheap."""
    _system, governor, _instances = governed_system
    policy = governor.config.policies[Band.FAILED]

    benchmark(governor._apply, policy)
    governor._apply(governor.config.policies[Band.STABLE])  # restore


def test_e17_claims_hold():
    assert_and_report(run_experiment("e17", RunConfig(quick=True)))
