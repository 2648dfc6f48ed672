"""E13 -- availability under scheduled chaos (sections 3.1, 4.1.4).

Claim: failures cost repair traffic, never wrong answers.  With the
self-healing stack in place -- patient retry/rebind in the runtime,
checkpointing magistrates, RecoverObject on the stale-binding path, and
periodic recovery sweeps -- every call succeeds at every fault intensity
for which a recovery path exists (here: each site's first host, carrying
the site infrastructure, stays up), and every lost object comes back with
its checkpointed state intact.

Method: build a 2-site testbed, create counters with distinct state,
checkpoint them, then run read traffic while a seeded ChaosDriver crashes
hosts and objects, degrades links, and partitions sites.  Sweep the fault
intensity; report call success rate, time-to-recover distributions, and
the repair-traffic overhead versus the fault-free control.  Runs are
bit-identical per seed.
"""

from __future__ import annotations

from repro.experiments.common import (
    ExperimentResult,
    RunConfig,
    uniform_sites,
    write_report,
)
from repro.experiments.stack import CHAOS_RETRY, ChaosSpec, StackSpec, build
from repro.metrics.recorder import SeriesRecorder
from repro.system.legion import LegionSystem
from repro.workloads.apps import CounterImpl
from repro.workloads.generators import TrafficDriver


def _run_level(intensity: float, seed: int, quick: bool):
    n_objects = 8 if quick else 12
    calls_per_client = 30 if quick else 80
    horizon = 1_500.0 if quick else 4_000.0
    system = LegionSystem.build(uniform_sites(2, hosts_per_site=3), seed=seed)
    # The class object is infrastructure: pin it to a protected host (each
    # site's first host stays up, like the magistrates and agents it needs).
    site0 = system.sites[0].name
    cls = system.create_class(
        "Counter",
        factory=CounterImpl,
        magistrate=system.magistrates[site0].loid,
        host=system.host_servers[system.site_hosts[site0][0]].loid,
    )
    objects = [system.create_instance(cls.loid) for _ in range(n_objects)]
    loids = [b.loid for b in objects]

    # Distinct state per object, checkpointed so a crash cannot lose it.
    for i, binding in enumerate(objects):
        system.call(binding.loid, "Increment", i + 1)
    for binding in objects:
        row = system.call(cls.loid, "GetRow", binding.loid)
        system.call(row.current_magistrates[0], "Checkpoint", binding.loid)

    clients = [
        system.new_client(f"e13-{i}", site=system.sites[i % len(system.sites)].name)
        for i in range(4)
    ]
    rng = system.services.rng.stream("e13")

    system.reset_measurements()
    stack = build(
        system,
        StackSpec(
            retry=CHAOS_RETRY,
            faults=ChaosSpec("e13-faults", intensity=intensity, horizon=horizon),
        ),
        clients,
        targets=loids,
    )
    traffic = TrafficDriver(
        system.kernel,
        clients,
        choose_target=lambda _client: loids[rng.randrange(len(loids))],
        method="Get",
        args=(),
        calls_per_client=calls_per_client,
        think_time=10.0,
        timeout=250.0,
    )
    stats_fut = traffic.start()
    stats = system.kernel.run_until_complete(stats_fut, max_events=20_000_000)

    def verify() -> bool:
        # Every object answers with its checkpointed state.  A still-lost
        # object is recovered by this very call (the reactive path), so
        # reconciliation sees it too.
        values = [system.call(binding.loid, "Get") for binding in objects]
        return values == [i + 1 for i in range(len(objects))]

    state_intact = stack.settle(verify)
    log = stack.log
    return {
        "intensity": intensity,
        "stats": stats,
        "summary": log.summary(),
        "lost": sorted(set(log.lost_objects())),
        "recovered": sorted(set(log.recovered_objects())),
        "fault_log_json": log.to_json(),
        "state_intact": state_intact,
        "repair_messages": stack.drained_messages,
        "sim_clock": system.kernel.now,
        "sim_events": system.kernel.events_executed,
    }


def shard_units(cfg: RunConfig) -> list:
    """The independent work units of one E13 sweep (one per intensity).

    Every level builds its own system, chaos plan, and fault log from
    the seed, so levels may run in separate worker processes
    (``--shards N``) in any order; only the *merge* -- the repair-traffic
    overhead against the level-0 control -- is cross-level, and that
    happens in :func:`shard_finish`.
    """
    if cfg.faults is not None:
        return [0.0, float(cfg.faults)]
    return [0.0, 1.0, 3.0] if cfg.quick else [0.0, 0.5, 1.0, 2.0, 4.0]


def shard_measure(intensity: float, cfg: RunConfig) -> dict:
    """Run one intensity; reduce the live system to a picklable partial."""
    return _run_level(intensity, cfg.seed, cfg.quick)


def shard_finish(partials, cfg: RunConfig) -> ExperimentResult:
    """Merge level partials into the E13 result, in level order.

    Partials are consumed in :func:`shard_units` order regardless of
    worker completion order, so recorder rows, checks, the overhead
    denominator (level 0's message count), and the report artifact are
    byte-identical to the sequential run.
    """
    by_level = {p["intensity"]: p for p in partials}
    recorder = SeriesRecorder(x_label="fault_intensity")
    result = ExperimentResult(
        experiment="E13",
        title="availability under scheduled chaos (self-healing runtime)",
        claim=(
            "with retry/rebind and class-manager recovery, scheduled host "
            "and object crashes cost repair traffic but no failed calls "
            "and no lost state"
        ),
        recorder=recorder,
    )
    levels = shard_units(cfg)
    baseline_messages = None
    total_clock = 0.0
    total_events = 0
    report_rows = []
    saw_chaos = False
    for intensity in levels:
        out = by_level[intensity]
        stats = out["stats"]
        summary = out["summary"]
        total_clock += out["sim_clock"]
        total_events += out["sim_events"]
        if intensity == 0.0 and baseline_messages is None:
            baseline_messages = out["repair_messages"]
        overhead = (
            out["repair_messages"] / baseline_messages
            if baseline_messages
            else 0.0
        )
        recorder.add(
            intensity,
            injected=summary["injected"],
            lost=summary["objects_lost"],
            recovered=summary["objects_recovered"],
            success_rate=stats.success_rate,
            recovery_ms_mean=round(summary["recovery_time_mean"], 3),
            recovery_ms_max=round(summary["recovery_time_max"], 3),
            repair_overhead=round(overhead, 3),
        )
        result.check(
            f"intensity={intensity:g}: all calls succeeded",
            stats.success_rate == 1.0,
            f"{stats.calls_succeeded}/{stats.calls_issued}"
            + (f"; first error: {stats.errors[0]}" if stats.errors else ""),
        )
        result.check(
            f"intensity={intensity:g}: state preserved through recovery",
            out["state_intact"],
        )
        lost = set(out["lost"])
        recovered = set(out["recovered"])
        result.check(
            f"intensity={intensity:g}: every lost object was recovered",
            lost <= recovered,
            f"lost={len(lost)} recovered={len(recovered & lost)}",
        )
        if intensity > 0.0 and summary["injected"] > 0:
            saw_chaos = True
        report_rows.append(
            {
                "intensity": intensity,
                "calls_issued": stats.calls_issued,
                "calls_succeeded": stats.calls_succeeded,
                "success_rate": stats.success_rate,
                "repair_overhead": round(overhead, 6),
                "fault_log": out["fault_log_json"],
            }
        )
    result.check(
        "chaos plan injected faults at non-zero intensity (mechanism exercised)",
        saw_chaos,
    )
    result.sim_clock = total_clock
    result.sim_events = total_events
    if cfg.report is not None:
        path = write_report(
            cfg.report,
            f"e13-availability-seed{cfg.seed}.json",
            {"seed": cfg.seed, "quick": cfg.quick, "levels": report_rows},
        )
        result.notes = f"report: {path}"
    return result
