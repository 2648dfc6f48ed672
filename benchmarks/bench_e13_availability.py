"""E13 bench: availability under chaos + the cost of one recovery.

Regenerates the chaos table and times the full crash→sweep→
reactivate-from-checkpoint sequence: each round crashes the object's
process, so the measured sweep *always* performs a recovery.
"""

from conftest import assert_and_report

from repro.experiments.common import RunConfig
from repro.experiments.runner import run_experiment
from repro.faults.driver import ChaosDriver
from repro.faults.log import FaultLog
from repro.faults.plan import FaultPlan
from repro.system.legion import LegionSystem, SiteSpec
from repro.workloads.apps import CounterImpl


def test_e13_chaos_claims_and_recovery_cost(benchmark):
    system = LegionSystem.build(
        [SiteSpec("east", hosts=3), SiteSpec("west", hosts=3)], seed=42
    )
    site0 = system.sites[0].name
    cls = system.create_class(
        "BenchCounter",
        factory=CounterImpl,
        magistrate=system.magistrates[site0].loid,
        host=system.host_servers[system.site_hosts[site0][0]].loid,
    )
    binding = system.create_instance(cls.loid)
    system.call(binding.loid, "Increment", 7)
    row = system.call(cls.loid, "GetRow", binding.loid)
    system.call(row.current_magistrates[0], "Checkpoint", binding.loid)
    driver = ChaosDriver(system, FaultPlan(), FaultLog())
    driver.start()

    def crash_then_recover():
        driver.crash_object(str(binding.loid))
        system.call(row.current_magistrates[0], "SweepHosts")
        return system.call(binding.loid, "Get")

    value = benchmark(crash_then_recover)
    assert value == 7  # recovered from the checkpoint every round

    assert_and_report(run_experiment("e13", RunConfig(quick=True)))
