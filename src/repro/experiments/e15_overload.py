"""E15 -- flow control turns overload collapse into a goodput plateau.

Claim: without flow control, offered load past a serial service's
capacity triggers the classic congestion-collapse spiral -- queues grow
without bound, every reply arrives after the caller's timeout, and the
timeout path's invalidate/refresh/retry machinery *multiplies* the
offered load (each logical call costs up to max_attempts wire requests),
so goodput falls toward zero.  With the repro.flow subsystem -- bounded
admission queues that shed with a server-computed ``retry_after``
pushback, caller-side credit windows, and shed replies exempted from the
stale-binding machinery -- the same service under the same overload keeps
a goodput plateau at >= 80% of its capacity with bounded latency for the
requests it does admit.

Method: one strictly serial service (``SerialServiceImpl``,
``service_time`` = 2 simulated ms, so capacity is exactly 0.5 requests
per ms) takes open-loop traffic from 4 clients at offered load x1..x10
capacity.  Two arms per level, identical except for the installed
FlowConfig: the *flow* arm runs admission control (capacity 1, queue 14,
application objects only) plus credit windows; the *baseline* arm runs
the historical no-flow path.  Every call's issue/settle times and outcome
(ok, shed, failed) are recorded; goodput is in-window successes per
simulated ms.  After each run every runtime must settle exactly --
``requests_sent == replies + timeouts + delivery_failures + cancelled +
shed`` with nothing pending -- and the three shed ledgers (metrics
counters, FaultLog observations, client-side wire sheds) must agree.
With ``--trace``, a TraceAudit additionally proves from the span record
that admitted concurrency never exceeded the configured capacity.
Everything runs on simulated time from seeded state: byte-identical
across ``--jobs 1`` and ``--jobs N``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.experiments.common import (
    ExperimentResult,
    RunConfig,
    export_trace,
    trace_recorder,
    write_report,
)
from repro.experiments.stack import StackSpec, build, serial_flow
from repro.megascale.compat import require_numpy
from repro.megascale.engine import QCAP_TICKS, BulkEngine
from repro.megascale.frame import StateFrame
from repro.metrics.counters import MetricsRegistry
from repro.metrics.recorder import SeriesRecorder
from repro.simkernel.rng import RngStreams
from repro.system.legion import LegionSystem, SiteSpec
from repro.trace.audit import TraceAudit
from repro.workloads.apps import SerialServiceImpl
from repro.workloads.generators import OpenLoopDriver

#: Exclusive service per Work() call; capacity is its reciprocal.
SERVICE_TIME = 2.0
CAPACITY = 1.0 / SERVICE_TIME
N_CLIENTS = 4
#: Per-call deadline: generous against the ~30 ms worst admitted wait,
#: hopeless against an unbounded baseline backlog -- which is the point.
TIMEOUT = 60.0
#: Admitted-latency bound for the flow arm's in-window successes: queue
#: wait (<= 15 slots x 2 ms) + service + a few shed/pushback round trips.
P99_BOUND = 200.0

#: The two arms: identical except for the installed flow regime (serial
#: admission, bounded queue, pushback sheds, caller credit windows).
STACKS = {
    "flow": StackSpec(flow=serial_flow(SERVICE_TIME)),
    "baseline": StackSpec(),
}


def _run_level(level: int, seed: int, quick: bool, arm: str, trace) -> Dict[str, Any]:
    measure = 300.0 if quick else 1_000.0
    warmup = 100.0
    spec = STACKS[arm]
    system = LegionSystem.build([SiteSpec("main", hosts=2)], seed=seed, flow=spec.flow)
    recorder = trace_recorder(system, trace)
    cls = system.create_class(
        "SerialService", factory=lambda: SerialServiceImpl(service_time=SERVICE_TIME)
    )
    instance = system.create_instance(cls.loid)
    clients = [system.new_client(f"e15-{i}") for i in range(N_CLIENTS)]
    # The stack's FaultLog is the shed observation ledger: _shed_reply
    # reports every shed logical request there, so the experiment can
    # reconcile it against the metrics counters and the clients' wire-level
    # shed replies.
    stack = build(system, spec, clients)

    # Open-loop Work() traffic; client start phases are staggered across
    # one interval so the offered load is smooth rather than N-synchronised
    # bursts.
    interval = N_CLIENTS / (level * CAPACITY)
    driver = OpenLoopDriver(
        system.kernel,
        clients,
        lambda _client: (instance.loid, "Work", ()),
        interval,
        warmup + measure,
        timeout=TIMEOUT,
        stagger=interval / N_CLIENTS,
    )
    start = system.kernel.now
    system.kernel.run_until_complete(driver.start(), max_events=50_000_000)
    stack.settle()  # drain the service backlog and late replies
    records = driver.records

    w0, w1 = start + warmup, start + warmup + measure
    ok_latencies = sorted(
        r["done"] - r["issue"]
        for r in records
        if r["outcome"] == "ok" and w0 <= r["done"] <= w1
    )
    outcomes = driver.outcome_counts()

    metrics = system.services.metrics
    metrics_shed = sum(metrics.snapshot(None, MetricsRegistry.SHED).values())
    faultlog_shed = sum(1 for i in stack.log.observed if i.kind == "request-shed")
    wire_shed = sum(rt.stats.shed for rt in system.runtimes(clients))

    audits: List[Any] = []
    trace_path = None
    if recorder is not None:
        audit = TraceAudit(recorder.spans)
        audits.append(
            audit.admitted_load_bound(spec.flow.capacity, prefix="application:")
        )
        audits.append(
            audit.shed_reconciles_with(
                metrics.labelled_counts(MetricsRegistry.SHED),
                prefix="application:",
            )
        )
        trace_path = export_trace(recorder, trace, f"e15-x{level}", seed)

    return {
        "goodput": len(ok_latencies) / measure,
        "p99": (
            ok_latencies[int(0.99 * (len(ok_latencies) - 1))]
            if ok_latencies
            else float("inf")
        ),
        "outcomes": outcomes,
        "issued": len(records),
        "metrics_shed": metrics_shed,
        "faultlog_shed": faultlog_shed,
        "wire_shed": wire_shed,
        "settled": system.settled(clients),
        "audits": audits,
        "trace_path": trace_path,
        "sim_clock": system.kernel.now,
        "sim_events": system.kernel.events_executed,
    }


#: Mega arm: aggregate service per tick is the population / this.
MEGA_CAP_FRACTION = 50
#: Mega arm: a served call is goodput only if it queued <= this many ticks.
MEGA_DEADLINE_TICKS = 6


def run_mega_overload(
    level: int, arm: str, seed: int, quick: bool, population: int
) -> Dict[str, Any]:
    """One (level, arm) unit over a mega-scale object frame.

    Each tick's arrivals, a seeded draw over the whole population, queue
    at their object's host: a :class:`BulkEngine` grouped by host, which
    admits them in dense-id order within each host (so the admission cut
    is deterministic) and serves each host's queue oldest first.  The
    **flow** arm caps every host queue at ``QCAP_TICKS`` ticks of service
    and sheds the excess; the **baseline** admits everything, so its
    queues -- and the delay before each serve -- grow without bound and
    goodput collapses.
    """
    np = require_numpy("the E15 mega-scale phase")
    n_hosts = max(8, population // 125_000)
    n_classes = max(4, population // 1_000)
    cap_per_host = max(1, population // MEGA_CAP_FRACTION // n_hosts)
    qcap = QCAP_TICKS * cap_per_host
    ticks = 12 if quick else 30
    draws_per_tick = max(1, level * population // MEGA_CAP_FRACTION)

    frame = StateFrame(n_classes=n_classes, n_hosts=n_hosts)
    ids = np.arange(population, dtype=np.int64)
    frame.extend(
        population,
        klass=(ids % n_classes).astype(np.int32),
        host=(ids % n_hosts).astype(np.int32),
    )
    engine = BulkEngine(
        frame,
        group="host",
        queue_cap=qcap if arm == "flow" else None,
        service=cap_per_host,
    )
    stream = RngStreams(seed).numpy_stream(f"e15-mega-{level}-{arm}")
    good = 0
    for tick in range(ticks):
        out = engine.tick(tick, np.sort(stream.integers(0, population, size=draws_per_tick)))
        # A tick's serves drain the oldest queued work: they are on time
        # iff the backlog they sat behind fits inside the deadline.
        queued = engine.backlog + out.served_work
        on_time = queued // cap_per_host <= MEGA_DEADLINE_TICKS
        good += int(out.served_work[on_time].sum())

    ledger = engine.ledger
    queued_end = int(engine.backlog.sum())
    return {
        "level": level,
        "arm": arm,
        "population": population,
        "issued": ledger.issued,
        "admitted": ledger.admitted,
        "shed": ledger.shed,
        "served": ledger.bulk_completed,
        "good": good,
        "queued_end": queued_end,
        "goodput_x": round(good / (ticks * cap_per_host * n_hosts), 4),
        "max_queue": int(engine.backlog.max()),
        "qcap": qcap,
        "settled": ledger.issued == ledger.admitted + ledger.shed
        and ledger.admitted == ledger.bulk_completed + queued_end,
        "class_calls_total": int(frame.class_calls.sum()),
        "checksum": frame.value_checksum(),
        "sim_clock": float(ticks),
        "sim_events": ledger.issued,
    }


def shard_units(cfg: RunConfig) -> list:
    """The independent work units of one E15 sweep.

    Each unit is one (offered-load level, arm) pair; every unit builds
    its own single-site system from the seed and shares nothing with the
    others, so units may run in separate worker processes
    (``--shards N``) in any order.  The unit *shape* is the same with
    ``--mega N`` -- the measure step then runs the columnar overload
    kernel over an N-object frame instead of the live testbed.
    """
    top = max(2, int(cfg.overload)) if cfg.overload is not None else 10
    base = [1, 2, 4] if cfg.quick else [1, 2, 3, 4, 6, 8]
    levels = [lvl for lvl in base if lvl < top] + [top]
    return [(level, arm) for level in levels for arm in ("flow", "baseline")]


def shard_measure(unit, cfg: RunConfig) -> Dict[str, Any]:
    """Run one (level, arm) unit; the returned dict is picklable.

    The trace export (when tracing) happens worker-side; only its path
    travels back.  ``audits`` are :class:`AuditFinding` dataclasses --
    plain picklable records.
    """
    level, arm = unit
    if cfg.mega is not None:
        return run_mega_overload(
            level, arm, seed=cfg.seed, quick=cfg.quick, population=cfg.mega
        )
    trace = cfg.trace if arm == "flow" else None
    out = _run_level(level, cfg.seed, cfg.quick, arm, trace)
    out["level"] = level
    out["arm"] = arm
    return out


def shard_finish(partials, cfg: RunConfig) -> ExperimentResult:
    """Merge unit partials into the E15 result, in deterministic unit order.

    Partials are consumed in :func:`shard_units` order regardless of
    worker completion order, so recorder rows, checks, float
    accumulation, and the report artifact are byte-identical to the
    sequential run.
    """
    if cfg.mega is not None:
        return _finish_mega(partials, cfg.mega)
    by_unit = {(p["level"], p["arm"]): p for p in partials}
    recorder = SeriesRecorder(x_label="offered_x")
    result = ExperimentResult(
        experiment="E15",
        title="goodput under overload (admission control + backpressure)",
        claim=(
            "with admission control, credit windows, and retry pushback, a "
            "serial service under 10x offered load keeps >= 80% of its "
            "capacity as goodput with bounded latency, while the no-flow "
            "baseline collapses through timeout-driven retry amplification"
        ),
        recorder=recorder,
    )
    levels = sorted({level for level, _arm in shard_units(cfg)})
    top = levels[-1]
    mid = 4 if 4 in levels else levels[len(levels) // 2]

    total_clock, total_events = 0.0, 0
    ratios: Dict[Tuple[int, str], float] = {}
    report_rows = []
    top_flow: Dict[str, Any] = {}
    mid_p99 = float("inf")
    for level in levels:
        fl = by_unit[(level, "flow")]
        bl = by_unit[(level, "baseline")]
        total_clock += fl["sim_clock"] + bl["sim_clock"]
        total_events += fl["sim_events"] + bl["sim_events"]
        ratios[(level, "flow")] = fl["goodput"] / CAPACITY
        ratios[(level, "base")] = bl["goodput"] / CAPACITY
        if level == mid:
            mid_p99 = fl["p99"]
        if level == top:
            top_flow = fl
        recorder.add(
            level,
            flow_goodput=round(fl["goodput"] / CAPACITY, 3),
            baseline_goodput=round(bl["goodput"] / CAPACITY, 3),
            flow_p99=round(fl["p99"], 1),
            sheds=fl["metrics_shed"],
        )
        for arm, out in (("flow", fl), ("baseline", bl)):
            result.check(
                f"x{level} {arm}: every request settles (shed included)",
                out["settled"],
                f"outcomes={out['outcomes']}",
            )
        result.check(
            f"x{level} flow: shed ledgers reconcile (metrics == FaultLog == wire)",
            fl["metrics_shed"] == fl["faultlog_shed"] == fl["wire_shed"],
            f"metrics={fl['metrics_shed']} faultlog={fl['faultlog_shed']} "
            f"wire={fl['wire_shed']}",
        )
        for finding in fl["audits"]:
            result.check(f"x{level} {finding.name}", finding.passed, finding.detail)
        report_rows.append(
            {
                "level": level,
                "flow_goodput": fl["goodput"],
                "baseline_goodput": bl["goodput"],
                "flow_p99": fl["p99"],
                "flow_outcomes": fl["outcomes"],
                "baseline_outcomes": bl["outcomes"],
                "sheds": fl["metrics_shed"],
            }
        )

    for level in (mid, top):
        result.check(
            f"x{level} flow: goodput plateau >= 80% of capacity",
            ratios[(level, "flow")] >= 0.8,
            f"{ratios[(level, 'flow')]:.2f}x capacity",
        )
    result.check(
        f"x{top} baseline: goodput collapses (<= 50% of capacity)",
        ratios[(top, "base")] <= 0.5,
        f"{ratios[(top, 'base')]:.2f}x capacity",
    )
    result.check(
        f"x{top} flow: p99 admitted latency bounded (<= {P99_BOUND:.0f} ms)",
        top_flow["p99"] <= P99_BOUND,
        f"p99={top_flow['p99']:.1f} ms over {top_flow['outcomes']['ok']} successes",
    )
    result.check(
        f"x{mid} flow: p99 admitted latency bounded (<= {P99_BOUND:.0f} ms)",
        mid_p99 <= P99_BOUND,
        f"p99={mid_p99:.1f} ms",
    )
    result.check(
        f"x{top} flow: admission sheds the excess (> 0 sheds)",
        top_flow["metrics_shed"] > 0,
        f"{top_flow['metrics_shed']} sheds of {top_flow['issued']} issued",
    )
    result.sim_clock = total_clock
    result.sim_events = total_events

    notes = []
    if top_flow["trace_path"]:
        notes.append(f"trace: {top_flow['trace_path']}")
    if cfg.report is not None:
        path = write_report(
            cfg.report,
            f"e15-overload-seed{cfg.seed}.json",
            {"seed": cfg.seed, "quick": cfg.quick, "levels": report_rows},
        )
        notes.append(f"report: {path}")
    result.notes = "\n".join(notes)
    return result


def _finish_mega(partials, mega: int) -> ExperimentResult:
    """The mega-scale merge: plateau vs collapse over the columnar kernel.

    The same claim shape as the live sweep -- admission keeps goodput at
    the capacity plateau with bounded queues while the baseline's
    unbounded queues turn every serve late -- proven at 10^6-10^7
    objects with per-host carryover queues over the frame.
    """
    by_unit = {(p["level"], p["arm"]): p for p in partials}
    recorder = SeriesRecorder(x_label="offered_x")
    result = ExperimentResult(
        experiment="E15",
        title=f"goodput under overload (columnar mega-scale, N={mega})",
        claim=(
            "over a columnar mega-population with per-host carryover "
            "queues, shedding at the queue cap holds goodput at the "
            "capacity plateau with bounded delay, while the unbounded "
            "baseline serves ever later and its goodput collapses"
        ),
        recorder=recorder,
    )
    levels = sorted({level for level, _arm in by_unit})
    top = levels[-1]
    mid = 4 if 4 in levels else levels[len(levels) // 2]
    result.sim_clock = 0.0
    result.sim_events = 0
    for level in levels:
        fl = by_unit[(level, "flow")]
        bl = by_unit[(level, "baseline")]
        result.sim_clock += fl["sim_clock"] + bl["sim_clock"]
        result.sim_events += fl["sim_events"] + bl["sim_events"]
        recorder.add(
            level,
            flow_goodput=fl["goodput_x"],
            baseline_goodput=bl["goodput_x"],
            sheds=fl["shed"],
            flow_max_queue=fl["max_queue"],
            baseline_max_queue=bl["max_queue"],
        )
        for arm, out in (("flow", fl), ("baseline", bl)):
            result.check(
                f"x{level} {arm}: every call settles "
                "(admitted + shed, admitted == served + queued)",
                out["settled"],
                f"issued={out['issued']} admitted={out['admitted']} "
                f"shed={out['shed']} served={out['served']} "
                f"queued_end={out['queued_end']}",
            )
        result.check(
            f"x{level} flow: per-host queue bounded by the cap",
            fl["max_queue"] <= fl["qcap"],
            f"max_queue={fl['max_queue']} qcap={fl['qcap']}",
        )
        result.check(
            f"x{level}: per-class tallies account for every admitted call",
            fl["class_calls_total"] == fl["admitted"],
            f"class_calls={fl['class_calls_total']} admitted={fl['admitted']}",
        )
    for level in (mid, top):
        result.check(
            f"x{level} flow: goodput plateau >= 80% of capacity",
            by_unit[(level, "flow")]["goodput_x"] >= 0.8,
            f"{by_unit[(level, 'flow')]['goodput_x']:.2f}x capacity",
        )
    result.check(
        f"x{top} baseline: goodput collapses (<= 50% of capacity)",
        by_unit[(top, "baseline")]["goodput_x"] <= 0.5,
        f"{by_unit[(top, 'baseline')]['goodput_x']:.2f}x capacity",
    )
    result.check(
        f"x{top} flow: admission sheds the excess (> 0 sheds)",
        by_unit[(top, "flow")]["shed"] > 0,
        f"{by_unit[(top, 'flow')]['shed']} sheds "
        f"of {by_unit[(top, 'flow')]['issued']} issued",
    )
    result.notes = (
        f"columnar backend: {mega} objects, "
        f"value checksum at top flow level: "
        f"{by_unit[(top, 'flow')]['checksum']}"
    )
    return result
