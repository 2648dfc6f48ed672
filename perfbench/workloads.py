"""The benchmark's four workloads, pinned here rather than taken from the
scenario catalog or an experiment module, so that rewriting either cannot
silently change what the benchmark measures.

A workload has four parts:

* ``prepare(seed)`` builds, once per process and untimed, the inputs
  every unit shares.
* ``setup(seed)`` builds the world the measured phase runs against (system
  build, deploy, compile, warm-up).  The runner times it as ``setup_s``.
* ``measure(world, clock)`` runs one measured unit of fixed,
  seed-determined work and returns the :class:`Outcome` with the host
  seconds ``clock`` saw the program work for.
* ``verify(world, outcome)`` runs the correctness checks; a failed check
  raises :class:`CheckFailed` and fails the whole run.

Everything an :class:`Outcome` holds is simulated-time output or a count,
so two units with the same seed must produce the same ``digest``.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from repro.core.runtime import RetryPolicy
from repro.faults import ChaosDriver, FaultLog, FaultPlan, RecoverySweeper
from repro.faults.driver import eligible_hosts
from repro.flow import FlowConfig
from repro.health import GovernorConfig, HealthLedger, enable_governor
from repro.megascale import BulkEngine, StateFrame
from repro.metrics.counters import ComponentKind
from repro.net.latency import LinkClass
import repro.scenarios as scenarios
from repro.scenarios import ScenarioDriver, from_dict, stream_stats
from repro.simkernel.rng import RngStreams
from repro.system.legion import LegionSystem, SiteSpec
from repro.workloads.apps import CounterImpl

#: The ``multi-tenant`` premium deadline: a request that completes ok
#: within this many simulated ms meets the SLO; failed and shed miss it.
SLO_MS = 400.0


class CheckFailed(Exception):
    """A correctness check failed; the run must not report metrics."""


def check(condition: bool, what: str) -> None:
    if not condition:
        raise CheckFailed(what)


@dataclass
class Outcome:
    """What one measured unit produced: outcomes, sim latencies, counts."""

    attempted: int
    ok: int
    #: Requests the workload expects to be refused (MayI denials).
    expected_denied: int
    #: Simulated ms from each ok request's due time to its reply, sorted.
    latencies: np.ndarray
    #: Simulated ms the goodput is taken over.
    sim_ms: float
    #: Deterministic per-layer counts of the measured phase.
    counts: Dict[str, float] = field(default_factory=dict)
    #: Requests that ended in an error: not ok, not shed by admission
    #: control, not refused by MayI.
    errors: int = 0

    @property
    def missed(self) -> int:
        """Requests neither ok nor an expected MayI denial (shed, refused
        past the per-id limit, or failed)."""
        return self.attempted - self.ok - self.expected_denied

    def digest(self) -> str:
        """A fingerprint of every simulated-time output and count."""
        body = json.dumps(
            {
                "attempted": self.attempted,
                "ok": self.ok,
                "expected_denied": self.expected_denied,
                "errors": self.errors,
                "latencies": hashlib.sha256(self.latencies.tobytes()).hexdigest(),
                "sim_ms": repr(self.sim_ms),
                "counts": {k: repr(v) for k, v in sorted(self.counts.items())},
            },
            sort_keys=True,
        )
        return hashlib.sha256(body.encode()).hexdigest()[:16]


# ------------------------------------------------------------ shared helpers


def live_servers(system) -> list:
    """Every live ObjectServer the system itself knows: core and standard
    class objects, site infrastructure, the console, and the application
    objects running in host processes (extra client consoles are not
    among them)."""
    servers = list(system.core.servers.values())
    servers += list(system.standard_classes.values())
    servers += list(system.host_servers.values())
    servers += list(system.magistrates.values())
    servers += list(system.agents.values())
    servers.append(system.console)
    for host_server in system.host_servers.values():
        servers += [entry.server for entry in host_server.impl.processes.running()]
    return servers


def check_settled(system, clients) -> None:
    """The RuntimeStats settlement identity, shed included, on every
    runtime, with no request left pending."""
    for server in live_servers(system) + list(clients):
        runtime = server.runtime
        s = runtime.stats
        settled = (
            s.replies_received + s.timeouts + s.delivery_failures + s.cancelled + s.shed
        )
        check(
            s.requests_sent == settled and runtime.pending_count == 0,
            f"settlement identity fails on {runtime.component_label}: "
            f"sent={s.requests_sent} settled={settled} "
            f"pending={runtime.pending_count}",
        )


_RUNTIME_FIELDS = (
    "invocations",
    "attempts",
    "timeouts",
    "rebinds",
    "refreshes",
    "stale_detected",
    "agent_lookups",
    "credit_waits",
    "retry_denied",
    "shed",
)


def wire_snapshot(system, clients) -> Dict[str, int]:
    """Kernel, network and caller-side runtime counters, for diffing."""
    net = system.network.stats
    snap = {
        "events": system.kernel.events_executed,
        "msgs": net.messages_sent,
        "wan_msgs": net.by_class[LinkClass.WIDE_AREA],
        "drops": net.drops,
        "delivery_failures": net.delivery_failures,
        "partition_blocks": net.partition_blocks,
        "cache_hits": 0,
        "cache_misses": 0,
    }
    for name in _RUNTIME_FIELDS:
        snap[name] = 0
    for client in clients:
        runtime = client.runtime
        for name in _RUNTIME_FIELDS:
            snap[name] += getattr(runtime.stats, name)
        snap["cache_hits"] += runtime.cache.stats.hits
        snap["cache_misses"] += runtime.cache.stats.misses
    return snap


def wire_counts(before: Dict[str, int], after: Dict[str, int]) -> Dict[str, float]:
    return {name: after[name] - before[name] for name in before}


def admission_counts(system) -> Dict[str, int]:
    admitted = shed = 0
    for server in live_servers(system):
        if server.admission is not None:
            admitted += server.admission.stats.admitted
            shed += server.admission.stats.shed_total()
    return {"flow_admitted": admitted, "flow_shed": shed}


def scenario_outcome(driver, plan, counts: Dict[str, float]) -> Outcome:
    """Reduce a ScenarioDriver run to an Outcome (issue time == due time:
    a discrete-event generator is never late in simulated time).  The
    simulated length is the scenario's arrival timeline, not the drain
    after it, whose length the fault plan's last heal decides."""
    ok = [r for r in driver.records if r["outcome"] == "ok"]
    sessions = driver.sessions
    counts = dict(counts)
    counts.update(
        sessions_started=sessions.started,
        sessions_abandoned=sessions.abandoned,
        requests_shed=sum(r["outcome"] == "shed" for r in driver.records),
        requests_denied=sum(r["outcome"] == "denied" for r in driver.records),
    )
    return Outcome(
        attempted=len(driver.records),
        ok=len(ok),
        expected_denied=stream_stats(plan)["denied"],
        latencies=np.sort([r["done"] - r["issue"] for r in ok]),
        sim_ms=driver.spec.duration,
        counts=counts,
        errors=sum(r["outcome"] == "failed" for r in driver.records),
    )


def verify_scenario(driver, plan, outcome: Outcome) -> None:
    """Checks every rich scenario workload shares."""
    sessions = driver.sessions
    check(
        sessions.active == 0
        and sessions.started == sessions.completed + sessions.abandoned,
        f"sessions not conserved: started={sessions.started} "
        f"completed={sessions.completed} abandoned={sessions.abandoned}",
    )
    check(
        sessions.started == stream_stats(plan)["sessions"],
        "driver started a different number of sessions than were compiled",
    )
    check(
        all(r["outcome"] != "pending" for r in driver.records),
        "a request was left pending",
    )
    check(outcome.errors == 0, f"{outcome.errors} requests ended in an error")
    # Admission runs before MayI, so an expected denial that was shed never
    # reaches the gate; every other expected denial must be denied, and
    # nothing else may be.
    denied_ok = all(
        (r["outcome"] == "denied") == r["expect_denied"]
        or (r["expect_denied"] and r["outcome"] == "shed")
        for r in driver.records
    )
    shed_probes = sum(
        r["expect_denied"] and r["outcome"] == "shed" for r in driver.records
    )
    check(
        denied_ok
        and outcome.counts["requests_denied"] + shed_probes == outcome.expected_denied,
        f"MayI denials {outcome.counts['requests_denied']} (+{shed_probes} shed first) "
        f"!= compiled {outcome.expected_denied}",
    )
    check(
        all(r["done"] >= r["issue"] for r in driver.records),
        "a request completed before it was issued",
    )


def _scaled(spec: dict, phase_scale: float) -> dict:
    phases = [dict(p, duration=p["duration"] * phase_scale) for p in spec["phases"]]
    return dict(spec, phases=phases)


class Workload:
    """A named workload; ``prepare`` is optional."""

    name = ""
    #: The reference kernel (``calibrate.py``) whose speed the runner
    #: scales this workload's host seconds by: one doing the same kind of
    #: work.
    speed_kernel = "events"

    def prepare(self, seed: int) -> None:
        """Shared inputs of every unit; most workloads have none."""


# ------------------------------------------------------------------ warm-call


class WarmCall(Workload):
    """Closed loop: one console, warm ``Ping`` round trips over six bound
    instances on 2 sites x 2 hosts (two same-host, two same-site, two WAN)."""

    name = "warm-call"
    #: Calls in one measured unit.
    CALLS = 20_000

    def setup(self, seed: int):
        system = LegionSystem.build(
            [SiteSpec("site0", hosts=2), SiteSpec("site1", hosts=2)], seed=seed
        )
        cls = system.create_class("BenchTarget", factory=CounterImpl)
        console_host = system.console.host
        placements = [
            ("site0", console_host),
            ("site0", console_host),
            ("site0", system.site_hosts["site0"][1]),
            ("site0", system.site_hosts["site0"][1]),
            ("site1", system.site_hosts["site1"][0]),
            ("site1", system.site_hosts["site1"][1]),
        ]
        targets = []
        for site, host_id in placements:
            binding = system.create_instance(
                cls.loid,
                magistrate=system.magistrates[site].loid,
                host=system.host_servers[host_id].loid,
            )
            targets.append(binding.loid)
        for loid in targets:
            check(system.call(loid, "Ping") == "pong", "warm-up Ping failed")
        rng = random.Random(seed)
        sequence = [targets[rng.randrange(len(targets))] for _ in range(self.CALLS)]
        return {"system": system, "sequence": sequence}

    def measure(self, world, clock):
        system = world["system"]
        kernel = system.kernel
        clients = [system.console]
        before = wire_snapshot(system, clients)
        t_start = kernel.now
        latencies = []
        replies = []
        call = system.call
        sent = t_start
        started = clock()
        for loid in world["sequence"]:
            replies.append(call(loid, "Ping"))
            done = kernel.now  # the next call is sent at once: no think time
            latencies.append(done - sent)
            sent = done
        busy = clock() - started
        world["replies"] = replies
        counts = wire_counts(before, wire_snapshot(system, clients))
        return Outcome(
            attempted=len(latencies),
            ok=sum(r == "pong" for r in replies),
            expected_denied=0,
            latencies=np.sort(latencies),
            sim_ms=kernel.now - t_start,
            counts=counts,
        ), busy

    def verify(self, world, outcome: Outcome) -> None:
        check(
            all(r == "pong" for r in world["replies"]),
            "a warm Ping returned something other than 'pong'",
        )
        check(outcome.attempted == self.CALLS, "not every call settled")
        check_settled(world["system"], [])


# ------------------------------------------------------------ tenant-overload

#: A copy of the catalog's ``multi-tenant`` shape (phases stretched below).
MULTI_TENANT = {
    "name": "bench-multi-tenant",
    "description": "mixed-priority tenants probing MayI under contention",
    "sites": 2,
    "n_classes": 2,
    "service_time": 2.0,
    "tenants": [
        {"name": "premium", "weight": 0.3, "deadline": 400.0, "privileged": True},
        {"name": "standard", "weight": 0.5},
        {"name": "batch", "weight": 0.2},
    ],
    "mix": {"kinds": {"work": 0.85, "privileged": 0.15}, "locality": 0.7},
    "phases": [
        {
            "name": "ramp",
            "duration": 160.0,
            "arrival": {"kind": "poisson", "rate": 0.6},
            "session": {
                "think_time": 8.0,
                "p_continue": 0.5,
                "p_abandon": 0.5,
                "max_requests": 3,
            },
        },
        {
            "name": "contention",
            "duration": 240.0,
            "arrival": {"kind": "poisson", "rate": 1.6},
            "session": {
                "think_time": 5.0,
                "p_continue": 0.6,
                "p_abandon": 0.4,
                "max_requests": 3,
            },
        },
        {
            "name": "calm",
            "duration": 160.0,
            "arrival": {"kind": "poisson", "rate": 0.4},
            "session": {
                "think_time": 8.0,
                "p_continue": 0.5,
                "p_abandon": 0.5,
                "max_requests": 2,
            },
        },
    ],
}


class TenantOverload(Workload):
    """``multi-tenant`` at 3x its offered rate behind flow admission,
    caller credits and the operating-mode governor."""

    name = "tenant-overload"
    PHASE_SCALE = 2.0
    RATE_SCALE = 3.0

    def setup(self, seed: int):
        spec = from_dict(_scaled(MULTI_TENANT, self.PHASE_SCALE))
        plan = scenarios.compile_events(spec, seed, rate_scale=self.RATE_SCALE)
        flow = FlowConfig(
            capacity=1,
            queue_limit=14,
            service_estimate=spec.service_time,
            admit_kinds=frozenset({ComponentKind.APPLICATION}),
            credit_window=8,
        )
        dep = scenarios.deploy(spec, seed, flow=flow)
        system = dep.system
        critical = frozenset(
            str(loid) for key in sorted(dep.instances) for loid in dep.instances[key]
        )
        governor = enable_governor(
            system,
            GovernorConfig(
                degrade_dwell=30.0,
                recover_dwell=80.0,
                tick=10.0,
                window=40.0,
                critical=critical,
            ),
        )
        clients = dep.all_clients()
        governor.track(*clients)
        driver = ScenarioDriver(dep, plan, use_deadlines=False)
        return {
            "system": system,
            "plan": plan,
            "driver": driver,
            "governor": governor,
            "clients": clients,
        }

    def measure(self, world, clock):
        system, driver = world["system"], world["driver"]
        governor, clients = world["governor"], world["clients"]
        kernel = system.kernel
        before = wire_snapshot(system, clients)
        started = clock()
        kernel.run_until_complete(driver.start())
        governor.stop_loop()  # the endless tick loop would pin the drain
        kernel.run()
        busy = clock() - started
        counts = wire_counts(before, wire_snapshot(system, clients))
        counts.update(admission_counts(system))
        counts["health_transitions"] = len(governor.ledger)
        return scenario_outcome(driver, world["plan"], counts), busy

    def verify(self, world, outcome: Outcome) -> None:
        governor = world["governor"]
        governor.poll()  # observe the drained world once more
        error = HealthLedger.verify_records(governor.ledger.to_json())
        check(error is None, f"governor ledger does not verify: {error}")
        governor.stop()
        verify_scenario(world["driver"], world["plan"], outcome)
        check_settled(world["system"], world["clients"])
        check(outcome.ok > 0, "no request succeeded under overload")


# ---------------------------------------------------------- repository-faults

#: A copy of the catalog's ``repository`` shape (phases stretched below).
REPOSITORY = {
    "name": "bench-repository",
    "description": "FEDORA-style reader-heavy repository, rare writes",
    "sites": 3,
    "n_classes": 2,
    "targets_per_site": 1,
    "service_time": 2.0,
    "read_time": 0.25,
    "consistency": "primary-copy",
    "mix": {"kinds": {"read": 0.96, "write": 0.04}, "zipf_s": 1.1, "locality": 0.85},
    "phases": [
        {
            "name": "browse",
            "duration": 480.0,
            "arrival": {"kind": "poisson", "rate": 1.4},
            "session": {
                "think_time": 6.0,
                "p_continue": 0.6,
                "p_abandon": 0.4,
                "max_requests": 4,
            },
        }
    ],
}

#: The patient client policy chaos callers run (the E13 recipe).
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
#: The checkpointed key every instance must still answer after chaos.
#: The traffic draws its keys from ``range(KEYSPACE)``, so only the
#: checkpoint can supply this key's value.
SENTINEL_KEY = -1


class RepositoryFaults(Workload):
    """``repository`` on 3 sites under scheduled chaos with checkpointed
    state, patient retry, and periodic recovery sweeps."""

    name = "repository-faults"
    PHASE_SCALE = 8.0
    INTENSITY = 2.0
    #: The fault schedule is part of the workload, the same for every
    #: seed, so its rare incidents cannot make one seed's tail latency
    #: unlike the next one's (see README.md).
    FAULT_PLAN_SEED = 0

    def setup(self, seed: int):
        spec = from_dict(_scaled(REPOSITORY, self.PHASE_SCALE))
        plan = scenarios.compile_events(spec, seed)
        dep = scenarios.deploy(spec, seed, pin_classes=True)
        system = dep.system
        instances = [loid for key in sorted(dep.instances) for loid in dep.instances[key]]
        for k, cls in enumerate(dep.classes):
            for si in range(spec.sites):
                for loid in dep.instances[(k, si)]:
                    system.call(loid, "Write", SENTINEL_KEY)
                    row = system.call(cls.loid, "GetRow", loid)
                    system.call(row.current_magistrates[0], "Checkpoint", loid)
        clients = dep.all_clients()
        for client in clients:
            client.runtime.retry_policy = CHAOS_RETRY
        log = FaultLog()
        fault_plan = FaultPlan.generate(
            RngStreams(self.FAULT_PLAN_SEED).stream("bench-faults"),
            horizon=spec.duration,
            intensity=self.INTENSITY,
            hosts=eligible_hosts(system),
            sites=[s.name for s in system.sites],
            objects=[str(loid) for loid in instances],
        )
        return {
            "system": system,
            "plan": plan,
            "driver": ScenarioDriver(dep, plan, use_deadlines=False, timeout=600.0),
            "chaos": ChaosDriver(system, fault_plan, log),
            "sweeper": RecoverySweeper(system, interval=100.0),
            "log": log,
            "instances": instances,
            "clients": clients,
        }

    def measure(self, world, clock):
        system, driver = world["system"], world["driver"]
        sweeper, clients = world["sweeper"], world["clients"]
        kernel = system.kernel
        before = wire_snapshot(system, clients)
        started = clock()
        world["chaos"].start()
        sweeper.start()
        kernel.run_until_complete(driver.start())
        sweeper.stop()
        kernel.run()  # late chaos events, heals and restores drain here
        busy = clock() - started
        counts = wire_counts(before, wire_snapshot(system, clients))
        summary = world["log"].summary()
        counts.update(
            faults_injected=summary["injected"],
            objects_lost=summary["objects_lost"],
            recoveries=summary["recoveries"],
            recovery_ms_mean=summary["recovery_time_mean"],
            recovery_ms_max=summary["recovery_time_max"],
        )
        return scenario_outcome(driver, world["plan"], counts), busy

    def verify(self, world, outcome: Outcome) -> None:
        system, log = world["system"], world["log"]
        for site in sorted(system.magistrates):
            fut = system.spawn(system.magistrates[site].impl.sweep_hosts())
            system.kernel.run_until_complete(fut)
        # A straggler lost on a live host is recovered by this very read.
        for loid in world["instances"]:
            value = system.call(loid, "Read", SENTINEL_KEY)
            check(value == 1, f"{loid} answers its checkpointed sentinel with {value}")
        recovered = set(log.recovered_objects())
        unrecovered = sorted(set(log.lost_objects()) - recovered)
        check(not unrecovered, f"lost objects never recovered: {unrecovered}")
        verify_scenario(world["driver"], world["plan"], outcome)
        check_settled(system, world["clients"])
        check(
            outcome.ok == outcome.attempted,
            f"{outcome.attempted - outcome.ok} requests failed under chaos",
        )


# ------------------------------------------------------------ mega-population


class MegaPopulation(Workload):
    """A 10^6-id StateFrame driven by a BulkEngine: each tick is one
    Zipf-skewed target-id array drawn from the seed.

    The engine has no simulated clock, so this workload has no simulated
    latency or goodput: its simulated output is the served and shed
    count of every tick.
    """

    name = "mega-population"
    speed_kernel = "arrays"
    POPULATION = 1_000_000
    #: Logical calls per tick; arrivals/tick : population = 1 : 10.
    PER_TICK = 100_000
    TICKS = 20
    ZIPF_S = 1.05
    PER_TICK_LIMIT = 40
    N_CLASSES = 16
    N_HOSTS = 64
    HOT_IDS = 16
    #: Hot ids are drawn from these Zipf ranks (0 is the most popular).
    HOT_RANKS = np.arange(100, 1100)

    def prepare(self, seed: int) -> None:
        """The seed's Zipf table, built once per process so that set-up
        time is the frame's and the engine's alone."""
        rng = np.random.default_rng(seed)
        ranks = np.arange(1, self.POPULATION + 1, dtype=float)
        cdf = np.cumsum(ranks ** (-self.ZIPF_S))
        cdf /= cdf[-1]
        # Zipf rank -> id through a seeded permutation, so hot ids scatter
        # across classes and hosts.
        rank_to_id = rng.permutation(self.POPULATION)
        # The standing "interesting set": a few popular ids below the top
        # ranks, which alone would take a large, seed-dependent share.
        hot = rank_to_id[rng.choice(self.HOT_RANKS, self.HOT_IDS, replace=False)]
        self.inputs = {"cdf": cdf, "rank_to_id": rank_to_id, "hot": hot.tolist()}

    def setup(self, seed: int):
        inputs = self.inputs
        frame = StateFrame(n_classes=self.N_CLASSES, n_hosts=self.N_HOSTS)
        ids = np.arange(self.POPULATION, dtype=np.int64)
        frame.extend(self.POPULATION, ids % self.N_CLASSES, ids % self.N_HOSTS)
        engine = BulkEngine(frame, hot_ids=inputs["hot"], per_tick_limit=self.PER_TICK_LIMIT)
        return dict(inputs, frame=frame, engine=engine, rng=np.random.default_rng([seed, 1]))

    def _tick_targets(self, world):
        ranks = np.searchsorted(world["cdf"], world["rng"].random(self.PER_TICK), side="right")
        return world["rank_to_id"][np.minimum(ranks, self.POPULATION - 1)]

    def measure(self, world, clock):
        """Run the unit; only the engine's own calls count as measured
        time (input generation and the reference count are not)."""
        engine = world["engine"]
        hot_mask = engine.hot
        served_ref = 0
        busy = 0.0
        for k in range(self.TICKS):
            targets = self._tick_targets(world)
            t0 = clock()
            out = engine.tick(k, targets)
            engine.demote_idle(k)
            busy += clock() - t0
            # Reference count: a bulk id serves at most PER_TICK_LIMIT
            # calls a tick, a hot id serves every call.
            ids, arrivals = np.unique(targets, return_counts=True)
            served = np.where(
                hot_mask[ids], arrivals, np.minimum(arrivals, self.PER_TICK_LIMIT)
            ).sum()
            check(
                int(served) == out.bulk_served + out.escalated,
                f"tick {k}: engine served {out.bulk_served + out.escalated}, "
                f"the admission limit serves {int(served)}",
            )
            served_ref += int(served)
        engine.demote_all()
        world["served_ref"] = served_ref
        ledger = engine.ledger
        counts = {
            "bulk_served": ledger.bulk_completed,
            "escalated": ledger.escalated_completed,
            "mega_shed": ledger.shed,
            "promotions": ledger.promotions,
            "ticks": self.TICKS,
        }
        outcome = Outcome(
            attempted=ledger.issued,
            ok=ledger.bulk_completed + ledger.escalated_completed,
            expected_denied=0,
            latencies=np.empty(0),
            sim_ms=0.0,
            counts=counts,
        )
        return outcome, busy

    def verify(self, world, outcome: Outcome) -> None:
        engine, frame = world["engine"], world["frame"]
        check(engine.settled(), "BulkEngine ledger does not settle")
        check(not engine.promoted_ids(), "ids left promoted after the drain")
        total = int(frame.value.sum())
        check(
            total == outcome.ok == world["served_ref"],
            f"frame value total {total} != served calls {outcome.ok}",
        )


WORKLOADS = {
    w.name: w
    for w in (WarmCall(), TenantOverload(), RepositoryFaults(), MegaPopulation())
}
