"""E14 -- load-adaptive class cloning bounds the hot-class load (5.2.2).

Claim: the paper's clones "arbitrarily reduce the load" on a hot class,
but leaves *when* to clone to the administrator.  With the loop closed --
LoadMonitor rates feeding a CloneController that spawns clones through
the scheduling agent above a high-water mark and drains/retires them
below a low-water mark -- the maximum per-class-object request count
stays bounded (log-log slope ~ 0) as the offered load grows 8x, while a
static one-clone baseline saturates linearly.

Method: per load level L in {1, 2, 4, 8}, build a fresh 2-site testbed
with one hot class, and drive open-loop traffic (rate proportional to L,
independent of service latency) from clone-aware clients that route over
GetClonePool() round-robin: mostly cheap class-method calls plus a
Create() every CREATE_EVERY-th call, so both instantiation and method
traffic spread.  The autoscaled arm runs a CloneController (placement
through LeastLoadedPlacementAgent); the static arm keeps one hand-placed
clone.  Each level warms up until the controller converges, resets the
counters, and measures a fixed window; at the top level the autoscaled
arm also demonstrates scale-down (the pool drains back to min_clones
after the traffic stops).  Everything runs on simulated time from seeded
state: byte-identical across --jobs 1 and --jobs N.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Optional

from repro.autoscale import AutoscaleConfig
from repro.experiments.common import ExperimentResult, write_report
from repro.experiments.stack import StackSpec, build
from repro.megascale.compat import require_numpy
from repro.megascale.frame import StateFrame
from repro.metrics.counters import ComponentId, ComponentKind, MetricsRegistry
from repro.metrics.recorder import SeriesRecorder
from repro.simkernel.rng import RngStreams
from repro.system.legion import LegionSystem, SiteSpec
from repro.workloads.apps import CounterImpl
from repro.workloads.generators import OpenLoopDriver

#: Offered load per level: N_CLIENTS clients each firing one call every
#: BASE_INTERVAL / level simulated ms.
N_CLIENTS = 3
BASE_INTERVAL = 5.0
#: Every CREATE_EVERY-th call is a Create() on the chosen pool member
#: (instantiation traffic); the rest are CloneEpoch() (method traffic).
CREATE_EVERY = 16
#: Process slots per host: the sweep creates hundreds of instances at the
#: top level, and a full host would turn a load experiment into a
#: capacity one.
MAX_PROCESSES = 1_024
#: Controller thresholds (requests per simulated ms per pool member).
HIGH_WATER = 0.7
LOW_WATER = 0.12
COOLDOWN = 30.0
TICK = 8.0
MAX_CLONES = 8
#: Per-level spawn budget: each clone spawn costs a placement probe plus
#: a Derive (~0.5 simulated s); warm up long enough for the controller to
#: converge before the measured window opens.
WARMUP_BASE = 400.0
WARMUP_PER_CLONE = 550.0
#: Mega arm: refresh the pool snapshot every this-many controller ticks
#: (the router cadence).
POOL_POLL_TICKS = 5

#: The autoscaled arm: a CloneController over the hot class, placing
#: clones through a LeastLoadedPlacementAgent.
AUTOSCALED = StackSpec(
    autoscale=AutoscaleConfig(
        high_water=HIGH_WATER,
        low_water=LOW_WATER,
        cooldown=COOLDOWN,
        tick=TICK,
        max_clones=MAX_CLONES,
    )
)


def _expected_members(level: int) -> int:
    total_rate = N_CLIENTS * level / BASE_INTERVAL
    return min(MAX_CLONES + 1, max(1, math.ceil(total_rate / HIGH_WATER)))


def _testbed(seed: int):
    """The 2-site system and its hot class, for either arm."""
    system = LegionSystem.build(
        [
            SiteSpec("east", hosts=3, max_processes=MAX_PROCESSES),
            SiteSpec("west", hosts=3, max_processes=MAX_PROCESSES),
        ],
        seed=seed,
    )
    return system, system.create_class("HotClass", factory=CounterImpl)


def _run_level(level: int, seed: int, quick: bool, autoscaled: bool):
    measure = 500.0 if quick else 1_200.0
    system, hot = _testbed(seed)

    if autoscaled:
        stack = build(system, AUTOSCALED, hot=hot)
    else:
        system.call(hot.loid, "Clone")  # the hand-placed static baseline
        stack = build(system, StackSpec(), hot=hot)

    # Clone-aware clients route over GetClonePool() round-robin.
    clients = [
        system.new_client(f"e14-{i}", site=system.sites[i % len(system.sites)].name)
        for i in range(N_CLIENTS)
    ]
    stack.join(*clients)

    calls = {"n": 0}

    def choose_call(client):
        calls["n"] += 1
        target = stack.router_for(client).choose()
        if calls["n"] % CREATE_EVERY == 0:
            return (target, "Create", ({"no_delegate": True},))
        return (target, "CloneEpoch", ())

    interval = BASE_INTERVAL / level
    warmup = WARMUP_BASE + (
        WARMUP_PER_CLONE * (_expected_members(level) - 1) if autoscaled else 0.0
    )
    # One continuous open-loop driver across warm-up and measurement: a
    # driver handoff would leave an offered-load trough while the old
    # backlog drains, and the controller would (correctly!) scale down
    # right inside the measured window.  Counters reset mid-flight at the
    # phase boundary instead; the LoadMonitor re-baselines on the reset.
    driver = OpenLoopDriver(
        system.kernel, clients, choose_call, interval, warmup + measure, timeout=400.0
    )
    stats_fut = driver.start()
    phase_start = system.kernel.now
    system.kernel.run(until=phase_start + warmup)
    system.reset_measurements()
    system.kernel.run(until=phase_start + warmup + measure)
    # Sample the bottleneck metric *now*, before scale-down admin traffic
    # (drain polls, Deactivates) lands on the survivors.
    max_load = system.services.metrics.max_by_kind(ComponentKind.CLASS_OBJECT)
    measure_end = system.kernel.now
    stats = system.kernel.run_until_complete(stats_fut, max_events=20_000_000)
    clone_count = system.call(hot.loid, "CloneCount")
    stack.settle()  # the autoscaled pool drains back to zero clones here

    actions = list(stack.controller.actions) if autoscaled else []
    # Peak concurrent clones up to the end of the measured window: the
    # instantaneous count is noisy right at the scale thresholds (a pool
    # hovering on a watermark may have just grown or shrunk), the peak is
    # the capacity the controller actually provisioned for this level.
    peak = live = 0
    for when, what, _loid in actions:
        if when > measure_end:
            break
        live += 1 if what == "spawn" else -1
        peak = max(peak, live)
    return {
        "stats": stats,
        "max_load": max_load,
        "clone_count": clone_count,
        "peak_clones": peak,
        "drained_to_min": stack.drained_to_min,
        "actions": actions,
        "sim_clock": system.kernel.now,
        "sim_events": system.kernel.events_executed,
    }


def run_mega_autoscale(level: int, seed: int, quick: bool, population: int) -> Dict[str, Any]:
    """One load level with a columnar mega-scale caller population.

    The frame rows are *callers*: each carries a binding-cache entry (the
    ``cache_epoch`` column plus a cached pool-member index).  Every
    controller tick a seeded vectorised draw picks the active callers;
    the stale ones (their cached epoch trails the pool's) lazily re-fetch
    the pool -- exactly the ClonePoolRouter contract, amortised over
    millions of cache entries -- and the tick's demand, the live fleet's
    offered rate at this level, lands on the real pool members'
    CLASS_OBJECT counters.  The autoscaled stack's LoadMonitor and
    CloneController see the same signal ordinary clients would generate,
    and react with real Clone()/RetireClone() traffic.
    """
    np = require_numpy("the E14 mega-scale phase")
    system, hot = _testbed(seed)
    stack = build(system, AUTOSCALED, hot=hot)

    # The caller population: one frame row per caller.  ``cache_epoch``
    # is the binding-cache column; the cached pool-member index rides in
    # a parallel array (it is only meaningful next to its epoch).
    frame = StateFrame(n_classes=1, n_hosts=4)
    frame.extend(
        population,
        klass=np.zeros(population, dtype=np.int32),
        host=(np.arange(population, dtype=np.int64) % 4).astype(np.int32),
    )
    member = np.zeros(population, dtype=np.int32)

    demand_per_tick = max(1, round(N_CLIENTS / BASE_INTERVAL * level * TICK))
    expected = _expected_members(level)
    warmup_ticks = math.ceil((WARMUP_BASE + WARMUP_PER_CLONE * (expected - 1)) / TICK)
    measure_ticks = 40 if quick else 100
    stream = RngStreams(seed).numpy_stream(f"e14-mega-{level}")

    metrics = system.services.metrics
    rebinds = 0
    issued = 0
    routed = 0
    peak_members = 1
    max_member_calls = 0
    start = system.kernel.now
    epoch, pool = system.call(hot.loid, "GetClonePool")
    for k in range(warmup_ticks + measure_ticks):
        if k % POOL_POLL_TICKS == 0:
            # Refresh the pool snapshot on the router cadence, not every
            # tick: callers bound to an older epoch keep routing into the
            # stale snapshot until they next call (lazy rebind), and the
            # polling traffic itself stays negligible next to the
            # injected demand.
            epoch, pool = system.call(hot.loid, "GetClonePool")
            pool_names = [str(b.loid) for b in pool]
        peak_members = max(peak_members, len(pool))
        active = stream.integers(0, population, size=demand_per_tick)
        stale = frame.cache_epoch[active] != epoch
        stale_ids = active[stale]
        if stale_ids.size:
            rebinds += int(stale_ids.size)
            member[stale_ids] = (stale_ids % len(pool)).astype(np.int32)
            frame.cache_epoch[stale_ids] = epoch
        counts = np.bincount(member[active], minlength=len(pool))
        issued += int(active.size)
        if k == warmup_ticks:
            system.reset_measurements()
        for m, count in enumerate(counts.tolist()):
            if count:
                routed += count
                metrics.incr(
                    ComponentId(ComponentKind.CLASS_OBJECT, pool_names[m]),
                    MetricsRegistry.REQUESTS,
                    count,
                )
                if k >= warmup_ticks:
                    max_member_calls = max(max_member_calls, count)
        np.add.at(frame.value, active, 1)  # the caller-side call tally
        system.kernel.run(until=start + (k + 1) * TICK)
    final_members = len(system.call(hot.loid, "GetClonePool")[1])
    stack.settle()  # with the demand gone the pool must drain back

    final_epoch, final_pool = system.call(hot.loid, "GetClonePool")
    fresh = frame.cache_epoch == final_epoch
    return {
        "level": level,
        "population": population,
        "issued": issued,
        "routed": routed,
        "rebinds": rebinds,
        "expected_members": expected,
        "peak_members": peak_members,
        "final_members_at_load": final_members,
        "max_member_calls_per_tick": max_member_calls,
        "drained_to_min": stack.drained_to_min,
        "fresh_members_valid": bool((member[fresh] < len(final_pool)).all()),
        "stale_fraction_final": round(float((~fresh).sum()) / population, 6),
        "caller_calls_total": int(frame.value.sum()),
        "allocator_high_water": frame.allocator.high_water,
        "sim_clock": system.kernel.now,
        "sim_events": system.kernel.events_executed,
    }


def _run_mega(
    quick: bool, seed: int, levels: list, mega: int
) -> ExperimentResult:
    """The mega-scale arm: columnar callers driving the real controller.

    The caller population lives in a frame (its ``cache_epoch`` column is
    the binding cache); each tick's demand lands on the live pool
    members' CLASS_OBJECT counters, so the LoadMonitor → CloneController
    loop reacts to mega-population demand exactly as it would to
    ordinary clients, including lazy rebinds when the pool epoch moves.
    """
    recorder = SeriesRecorder(x_label="load_multiplier")
    result = ExperimentResult(
        experiment="E14",
        title=f"load-adaptive cloning (columnar mega callers, N={mega})",
        claim=(
            "a mega-scale columnar caller population's demand, injected "
            "into the pool's counters with lazy per-caller cache rebinds, "
            "drives the real CloneController to provision for the load "
            "and drain back after it"
        ),
        recorder=recorder,
    )
    result.sim_clock = 0.0
    result.sim_events = 0
    peaks = []
    for level in levels:
        out = run_mega_autoscale(level, seed=seed, quick=quick, population=mega)
        result.sim_clock += out["sim_clock"]
        result.sim_events += out["sim_events"]
        peaks.append(out["peak_members"])
        recorder.add(
            level,
            peak_members=out["peak_members"],
            final_members=out["final_members_at_load"],
            rebinds=out["rebinds"],
            demand=out["issued"],
        )
        result.check(
            f"L={level}: pool provisioned for the injected demand",
            out["final_members_at_load"] >= out["expected_members"],
            f"members={out['final_members_at_load']} "
            f"expected>={out['expected_members']}",
        )
        result.check(
            f"L={level}: every routed call is accounted for",
            out["issued"] == out["routed"]
            and out["caller_calls_total"] == out["issued"],
            f"issued={out['issued']} routed={out['routed']}",
        )
        result.check(
            f"L={level}: stale caches rebind lazily on epoch bumps",
            0 < out["rebinds"] <= out["issued"] and out["fresh_members_valid"],
            f"rebinds={out['rebinds']} of {out['issued']} calls",
        )
        result.check(
            f"L={level}: pool drains back after the demand stops",
            out["drained_to_min"],
        )
        result.check(
            f"L={level}: caller ids stay monotone (no recycling)",
            out["allocator_high_water"] == mega,
            f"high_water={out['allocator_high_water']}",
        )
    result.check(
        "peak pool size grows monotonically with offered load",
        all(a <= b for a, b in zip(peaks, peaks[1:], strict=False))
        and peaks[-1] > peaks[0],
        f"peaks={peaks}",
    )
    return result


def run(
    quick: bool = True,
    seed: int = 0,
    autoscale: Optional[float] = None,
    report: Optional[str] = None,
    mega: Optional[int] = None,
) -> ExperimentResult:
    """Sweep offered load 8x; autoscaled max load must stay bounded.

    ``autoscale`` (the runner's ``--autoscale`` flag) overrides the top
    load multiplier: levels become powers of two up to that value.
    ``report`` names a directory for the JSON load-slope artifact.
    ``mega`` (the ``--mega N`` flag) swaps the live client fleet for a
    columnar caller population of N: same levels, same controller, with
    demand injected frame-at-once and binding caches as a column.
    """
    recorder = SeriesRecorder(x_label="load_multiplier")
    result = ExperimentResult(
        experiment="E14",
        title="load-adaptive class cloning (closed-loop autoscaler)",
        claim=(
            "a CloneController keeps the max per-class-object load bounded "
            "(log-log slope ~ 0) across an 8x offered-load sweep, while a "
            "static one-clone baseline saturates"
        ),
        recorder=recorder,
    )
    top = int(autoscale) if autoscale is not None else 8
    levels, level = [], 1
    while level <= max(2, top):
        levels.append(level)
        level *= 2
    if mega is not None:
        return _run_mega(quick, seed, levels, int(mega))
    total_clock, total_events = 0.0, 0
    report_rows = []
    clone_counts = []
    top_loads = {}
    for level in levels:
        auto = _run_level(level, seed, quick, autoscaled=True)
        static = _run_level(level, seed, quick, autoscaled=False)
        total_clock += auto["sim_clock"] + static["sim_clock"]
        total_events += auto["sim_events"] + static["sim_events"]
        clone_counts.append(auto["peak_clones"])
        top_loads = {"auto": auto["max_load"], "static": static["max_load"]}
        recorder.add(
            level,
            autoscale_max_load=auto["max_load"],
            static_max_load=static["max_load"],
            peak_clones=auto["peak_clones"],
            spawns=sum(1 for a in auto["actions"] if a[1] == "spawn"),
        )
        for arm, out in (("autoscale", auto), ("static", static)):
            stats = out["stats"]
            result.check(
                f"L={level} {arm}: zero lost requests",
                stats.calls_failed == 0,
                f"{stats.calls_succeeded}/{stats.calls_issued}"
                + (f"; first error: {stats.errors[0]}" if stats.errors else ""),
            )
        if auto["drained_to_min"] is not None:
            result.check(
                f"L={level}: pool drains back to min_clones after the burst",
                auto["drained_to_min"],
            )
        report_rows.append(
            {
                "level": level,
                "autoscale_max_load": auto["max_load"],
                "static_max_load": static["max_load"],
                "clones": auto["clone_count"],
                "peak_clones": auto["peak_clones"],
                "actions": auto["actions"],
            }
        )
    auto_slope = recorder.slope("autoscale_max_load", log_log=True)
    static_slope = recorder.slope("static_max_load", log_log=True)
    result.check(
        "autoscaled max per-class-object load is bounded (log-log slope <= 0.15)",
        auto_slope <= 0.15,
        f"slope={auto_slope:.3f}",
    )
    result.check(
        "static baseline saturates (log-log slope >= 0.5)",
        static_slope >= 0.5,
        f"slope={static_slope:.3f}",
    )
    result.check(
        "at top load the autoscaled hot spot carries <= half the static one",
        top_loads["auto"] <= 0.5 * top_loads["static"],
        f"auto={top_loads['auto']} static={top_loads['static']}",
    )
    result.check(
        "peak clone count grows monotonically with offered load",
        all(a <= b for a, b in zip(clone_counts, clone_counts[1:], strict=False))
        and clone_counts[-1] > clone_counts[0],
        f"counts={clone_counts}",
    )
    result.sim_clock = total_clock
    result.sim_events = total_events
    if report is not None:
        path = write_report(
            report,
            f"e14-autoscale-seed{seed}.json",
            {
                "seed": seed,
                "quick": quick,
                "autoscale_slope": auto_slope,
                "static_slope": static_slope,
                "levels": report_rows,
            },
        )
        result.notes = f"report: {path}"
    return result
