"""Subsystem composition: one :class:`StackSpec`, one :func:`build`, one settle.

The experiments compose the subsystems layered over a
:class:`~repro.system.legion.LegionSystem` one way, as the paper composes
a whole system from a fixed set of core objects: each experiment
declares the stacks it compares as :class:`StackSpec` values made from
the named configurations below, :func:`build` installs a stack in one
fixed order -- FaultLog, replication catalogs, chaos plan and recovery
sweeper, governor, clone controller, then the clients -- and
:meth:`Stack.settle` tears it down in one fixed order.  DESIGN.md
section 4l gives the reasons for both orders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Any, Callable, Dict, Iterable, Mapping, Optional

from repro.autoscale import (
    AutoscaleConfig,
    CloneController,
    ClonePoolRouter,
    build_placement_agent,
)
from repro.core.runtime import RetryPolicy
from repro.errors import LegionError
from repro.faults.driver import ChaosDriver, eligible_hosts
from repro.faults.log import FaultLog
from repro.faults.plan import FaultKind, FaultPlan
from repro.faults.recovery import RecoverySweeper
from repro.flow import FlowConfig
from repro.health import GovernorConfig, enable_governor
from repro.metrics.counters import ComponentKind
from repro.replication import ReplicationConfig, enable_replication

# ------------------------------------------------- named configurations

#: The patient policy chaos clients run (E13, E18's fault arm): wide
#: attempt budget, exponential backoff with seeded jitter, and both
#: transient-failure modes retried -- partitions (wait out the heal) and
#: resolution failures (recovery may still be in flight).
CHAOS_RETRY = RetryPolicy(
    max_attempts=12,
    base_backoff=10.0,
    backoff_factor=2.0,
    max_backoff=300.0,
    jitter=0.5,
    budget=10_000.0,
    retry_partitions=True,
    retry_resolution_failures=True,
)

#: E17's client policy: patient (rides out crashes) but budgeted -- the
#: retry-token bucket is the knob the governor's refill scaling turns,
#: and what keeps retry volume honest in the ungoverned baseline too.
GOVERNED_RETRY = RetryPolicy(
    max_attempts=6,
    base_backoff=5.0,
    backoff_factor=2.0,
    max_backoff=100.0,
    budget=2_000.0,
    retry_partitions=True,
    retry_resolution_failures=True,
    retry_tokens=60.0,
    retry_token_refill=0.5,
)

#: E16's readers ride out a timed partition instead of failing: wide
#: backoff, ``retry_partitions``, zero jitter for byte-identical schedules.
PATIENT_RETRY = RetryPolicy(
    max_attempts=12,
    base_backoff=10.0,
    backoff_factor=2.0,
    max_backoff=200.0,
    jitter=0.0,
    budget=5_000.0,
    retry_partitions=True,
    retry_resolution_failures=True,
)

#: The governor E17 and E18 run: default thresholds and ladder, dwells
#: short enough that a 240 ms phase fits two one-band steps.
GOVERNOR = GovernorConfig(
    degrade_dwell=30.0,
    recover_dwell=80.0,
    tick=10.0,
    window=40.0,
)

#: The geo-replication data plane at its defaults (E16, E18).
REPLICATION = ReplicationConfig()


def serial_flow(service_time: float) -> FlowConfig:
    """The serial-admission regime E15, E16, E17 and E18 share.

    Capacity 1 matches a serial service's own discipline; the bounded
    queue sheds with a server-computed pushback; callers hold credit
    windows.  Application objects only -- infrastructure (agents,
    magistrates, hosts) is never shed.
    """
    return FlowConfig(
        capacity=1,
        queue_limit=14,
        service_estimate=service_time,
        admit_kinds=frozenset({ComponentKind.APPLICATION}),
        credit_window=8,
    )


# --------------------------------------------------------------- specs


class StackSpecError(LegionError):
    """A StackSpec (or its install) is invalid; the message names the key path."""


@dataclass(frozen=True)
class ChaosSpec:
    """Seeded chaos plus periodic recovery sweeps.

    Every field is one that two experiments set differently: E13, E17
    and E18 draw from different RNG streams, over different horizons and
    intensities, and E17 alone narrows the fault mix, sweeps at 120 ms,
    and starts the plan late (at its storm phase).
    """

    #: Name of the RNG stream the plan is drawn from.
    stream: str
    #: Fault events per 1000 simulated ms.
    intensity: float
    #: Simulated ms the plan spans (relative to its start).
    horizon: float
    #: RecoverySweeper interval, simulated ms.
    sweep: float = 100.0
    #: Fault-kind weights; None is FaultPlan's default mix.
    mix: Optional[Mapping[FaultKind, float]] = None
    #: Simulated ms after :func:`build` at which the plan starts.
    start: float = 0.0

    def __post_init__(self) -> None:
        _require(self.intensity >= 0.0, "faults.intensity", ">= 0", self.intensity)
        _require(self.horizon > 0.0, "faults.horizon", "> 0", self.horizon)
        _require(self.sweep > 0.0, "faults.sweep", "> 0", self.sweep)
        _require(self.start >= 0.0, "faults.start", ">= 0", self.start)


@dataclass(frozen=True)
class StackSpec:
    """Which subsystems run, each as the config object it takes today.

    ``None`` leaves a subsystem off.  ``flow`` is consumed when the
    system is built (``LegionSystem.build(flow=...)`` or
    ``scenarios.deploy(..., flow=...)``) because every runtime bakes its
    credit window at construction; :func:`build` checks the match.
    """

    flow: Optional[FlowConfig] = None
    retry: Optional[RetryPolicy] = None
    faults: Optional[ChaosSpec] = None
    governor: Optional[GovernorConfig] = None
    autoscale: Optional[AutoscaleConfig] = None
    replicas: Optional[ReplicationConfig] = None

    def __post_init__(self) -> None:
        kinds = (
            FlowConfig, RetryPolicy, ChaosSpec, GovernorConfig, AutoscaleConfig,
            ReplicationConfig,
        )
        for f, kind in zip(fields(self), kinds, strict=True):
            value = getattr(self, f.name)
            if value is not None and not isinstance(value, kind):
                raise StackSpecError(
                    f"stack.{f.name}: expected {kind.__name__} or None, "
                    f"got {type(value).__name__}"
                )


def _require(ok: bool, path: str, rule: str, value: float) -> None:
    if not ok or not math.isfinite(value):
        raise StackSpecError(f"stack.{path}: must be finite and {rule}, got {value!r}")


# -------------------------------------------------------------- install


class Stack:
    """A :class:`StackSpec` installed on one live system.

    Holds the installed pieces for the experiment to read: ``log`` (the
    FaultLog), ``plan`` (the chaos FaultPlan), ``governor``,
    ``controller``, ``directory`` (replication), and ``router_for``.
    After :meth:`settle`: ``drained_messages`` (network messages sent by
    the end of the drain, before the final repair sweeps) and
    ``drained_to_min`` (whether the clone pool drained back to zero).
    """

    def __init__(self, system, spec: StackSpec, hot=None) -> None:
        self.system = system
        self.spec = spec
        self.hot = hot
        self.log = FaultLog()
        self.plan: Optional[FaultPlan] = None
        self.sweeper: Optional[RecoverySweeper] = None
        self.governor = None
        self.controller: Optional[CloneController] = None
        self.directory = None
        self._routers: Dict[int, ClonePoolRouter] = {}
        self.drained_messages: Optional[int] = None
        self.drained_to_min: Optional[bool] = None

    def join(self, *clients) -> None:
        """Put clients under the stack: retry policy, governor tracking,
        and (with a hot class) a clone-pool router each."""
        if self.spec.retry is not None:
            for client in clients:
                client.runtime.retry_policy = self.spec.retry
        if self.governor is not None:
            self.governor.track(*clients)
        if self.hot is not None:
            routers = {id(c): ClonePoolRouter(c, self.hot, refresh=20.0) for c in clients}
            self._routers.update(routers)
            for router in routers.values():
                router.start()

    def router_for(self, client) -> ClonePoolRouter:
        """The clone-pool router a joined client routes the hot class by."""
        return self._routers[id(client)]

    def settle(self, verify: Optional[Callable[[], Any]] = None) -> Any:
        """Tear the stack down: stop the sweeper and the governor loop
        (endless tick processes would pin the drain), drain the clone pool
        back to zero, stop the routers, drain the kernel, sweep every
        magistrate once more (so chaos losses are recovered and logged
        before reconciliation), run ``verify``, then let the governor take
        its last look and restore its baselines.  Returns ``verify()``.
        """
        system = self.system
        kernel = system.kernel
        if self.sweeper is not None:
            self.sweeper.stop()
        if self.governor is not None:
            self.governor.stop_loop()
        if self.controller is not None:
            # Scale-down: with the traffic gone the pool must drain back.
            deadline = kernel.now + 6_000.0
            while kernel.now < deadline and system.call(self.hot.loid, "CloneCount") > 0:
                kernel.run(until=kernel.now + 100.0)
            self.drained_to_min = system.call(self.hot.loid, "CloneCount") == 0
            self.controller.stop()
        for router in self._routers.values():
            router.stop()
        kernel.run()  # backlog, late chaos events, heals and restores
        self.drained_messages = system.network.stats.messages_sent
        if self.sweeper is not None:
            for site in sorted(system.magistrates):
                fut = system.spawn(system.magistrates[site].impl.sweep_hosts())
                kernel.run_until_complete(fut)
        outcome = verify() if verify is not None else None
        if self.governor is not None:
            self.governor.poll()  # observe the drained world once more
            self.governor.stop()
        return outcome


def build(
    system,
    spec: StackSpec,
    clients: Iterable = (),
    *,
    targets: Iterable = (),
    critical: Iterable = (),
    hot=None,
) -> Stack:
    """Install ``spec`` on ``system`` in the fixed order (module doc);
    ``clients`` join last (:meth:`Stack.join`).

    ``targets`` are the objects the chaos plan may crash; ``critical``
    the components the governor never pauses; ``hot`` the class binding
    the autoscaler grows and every client routes over.
    """
    if system.services.flow != spec.flow:
        raise StackSpecError(
            "stack.flow: the system was built with a different flow config; "
            "pass stack.flow when building the system"
        )
    if spec.autoscale is not None and hot is None:
        raise StackSpecError("stack.autoscale: needs the hot class (hot=)")
    stack = Stack(system, spec, hot=hot)
    system.services.fault_log = stack.log
    if spec.replicas is not None:
        stack.directory = enable_replication(system, spec.replicas)
    chaos = spec.faults
    if chaos is not None:
        stack.plan = FaultPlan.generate(
            system.services.rng.stream(chaos.stream),
            horizon=chaos.horizon,
            intensity=chaos.intensity,
            hosts=eligible_hosts(system),
            sites=[s.name for s in system.sites],
            objects=[str(t) for t in targets],
            mix=chaos.mix,
        )
        driver = ChaosDriver(system, stack.plan, stack.log)
        stack.sweeper = RecoverySweeper(system, interval=chaos.sweep)
        if chaos.start > 0.0:
            system.kernel.schedule(chaos.start, driver.start)
        else:
            driver.start()
        stack.sweeper.start()
    if spec.governor is not None:
        config = spec.governor
        critical = frozenset(str(c) for c in critical)
        if critical:
            config = replace(config, critical=critical)
        stack.governor = enable_governor(system, config)
        if stack.sweeper is not None:
            stack.governor.attach(sweeper=stack.sweeper)
    if spec.autoscale is not None:
        stack.controller = CloneController(
            system, hot, spec.autoscale, placement=build_placement_agent(system)
        )
        stack.controller.start()
    stack.join(*clients)
    return stack
