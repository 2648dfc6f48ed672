"""StackSpec validation, build-time checks, and the open-loop phase schedule."""

import pytest

from repro.experiments.common import uniform_sites
from repro.experiments.stack import (
    GOVERNOR,
    ChaosSpec,
    StackSpec,
    StackSpecError,
    build,
    serial_flow,
)
from repro.system.legion import LegionSystem
from repro.workloads.apps import CounterImpl
from repro.workloads.generators import OpenLoopDriver


@pytest.mark.parametrize(
    "make, path",
    [
        (lambda: ChaosSpec("s", intensity=-1.0, horizon=10.0), "stack.faults.intensity"),
        (lambda: ChaosSpec("s", intensity=1.0, horizon=0.0), "stack.faults.horizon"),
        (lambda: ChaosSpec("s", 1.0, 10.0, sweep=float("nan")), "stack.faults.sweep"),
        (lambda: ChaosSpec("s", 1.0, 10.0, start=-5.0), "stack.faults.start"),
        (lambda: StackSpec(governor={"tick": 10.0}), "stack.governor"),
        (lambda: StackSpec(retry=GOVERNOR), "stack.retry"),
    ],
)
def test_invalid_specs_name_their_key_path(make, path):
    with pytest.raises(StackSpecError, match=path):
        make()


def test_build_checks_the_flow_and_the_hot_class():
    system = LegionSystem.build(uniform_sites(1, 2), seed=0)
    with pytest.raises(StackSpecError, match="stack.flow"):
        build(system, StackSpec(flow=serial_flow(2.0)))
    from repro.autoscale import AutoscaleConfig

    scaling = AutoscaleConfig(high_water=1.0, low_water=0.1)
    with pytest.raises(StackSpecError, match="stack.autoscale"):
        build(system, StackSpec(autoscale=scaling))


def test_open_loop_phases_stagger_and_records():
    system = LegionSystem.build(uniform_sites(1, 2), seed=0)
    cls = system.create_class("Counter", factory=CounterImpl)
    target = system.create_instance(cls.loid).loid
    clients = [system.new_client("a"), system.new_client("b")]
    driver = OpenLoopDriver(
        system.kernel,
        clients,
        lambda _client: (target, "Get", ()),
        phases=[(10.0, 4.0), (6.0, 3.0)],
        stagger=1.0,
    )
    t0 = system.kernel.now
    system.kernel.run_until_complete(driver.start())
    issued = sorted(round(r["issue"] - t0, 6) for r in driver.records)
    # Client a: 0, 4, 8 (the last wait is cut at the phase end, 10), then
    # 10, 13.  Client b starts 1 ms later: 1, 5, 9, then 11, 14.
    assert issued == [0.0, 1.0, 4.0, 5.0, 8.0, 9.0, 10.0, 11.0, 13.0, 14.0]
    assert driver.outcome_counts() == {"ok": 10, "shed": 0, "failed": 0}
    assert all(r["done"] >= r["issue"] for r in driver.records)
    assert driver.stats.calls_issued == driver.stats.calls_succeeded == 10
