"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload warm-call --seed 1 --seconds 20 --trace 0

A run is one warm-up unit of the workload -- a fresh set-up, then one
measured unit of seed-determined work -- then more units until
``--seconds`` of wall time have been spent (at least ``MIN_UNITS``).
Host-time metrics are medians over the units after the warm-up;
simulated-time metrics and counts come from the units themselves, which
must agree exactly (every unit of a run has the same seed).

Host seconds are reported at the reference speed: every timed set-up and
unit is bracketed by two samples of a fixed reference kernel of the
workload's kind (``calibrate.py``), and its host seconds are scaled by how
much slower or faster than nominal the host ran the kernel around it.  The host's speed
swings by up to a factor of two over seconds to minutes; scaled this way
the swings cancel, and a change to the program still moves the figures by
exactly what it saves, because the kernel runs none of the program's code.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced units and prints the per-layer metrics (see
``tracing.py``); it also counts Python frames per request under
``sys.setprofile`` in one extra unit.  ``--workload all`` runs every
workload in turn, each in a fresh process, and exits with the worst
status.  ``--fingerprint`` prints only the deterministic counts of one
unit (``check_determinism.py`` compares them across hash seeds).

The last line of standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
A failed correctness check prints a message to standard error and exits
with status 1 without that line.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from typing import Any, NamedTuple, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Measured units per run, at least.
MIN_UNITS = 3
#: Set-ups timed per run, at least (extra ones are set-up only).
MIN_SETUPS = 25


class Unit(NamedTuple):
    #: Set-up and measured-phase seconds at the reference speed.
    setup_s: float
    busy_s: float
    attempted: int
    digest: str
    #: The full outcome, kept only where a run reports from it, so that
    #: the number of units a run fits in cannot move its peak memory.
    outcome: Optional[Any] = None
    #: Span totals of the set-up and of the measured phase (traced units).
    setup_spans: Optional[Any] = None
    spans: Optional[Any] = None


def speed_scale(kernel: str, before: float) -> float:
    """Host seconds -> reference-speed seconds for a region timed since
    the reference sample ``before`` of ``kernel``: the kernel's nominal
    seconds over the mean of that sample and one taken now."""
    from perfbench import calibrate

    return calibrate.NOMINAL_S[kernel] / ((before + calibrate.sample(kernel)) / 2)


def timed_setup(workload, seed: int):
    gc.collect()
    t0 = time.perf_counter()
    world = workload.setup(seed)
    return time.perf_counter() - t0, world


def scaled_setup(workload, seed: int) -> float:
    """One set-up on its own, in reference-speed seconds."""
    from perfbench import calibrate

    before = calibrate.sample(workload.speed_kernel)
    setup_s, _world = timed_setup(workload, seed)
    return setup_s * speed_scale(workload.speed_kernel, before)


def run_unit(workload, seed: int, recorder=None, keep: bool = False) -> Unit:
    """One set-up plus one measured unit, then the correctness checks;
    ``keep`` keeps the outcome."""
    from perfbench import calibrate

    if recorder is not None:
        recorder.take()
    before = calibrate.sample(workload.speed_kernel)
    setup_s, world = timed_setup(workload, seed)
    setup_spans = recorder.take() if recorder is not None else None
    gc.collect()  # the measured unit does not pay for earlier garbage
    outcome, busy_s = workload.measure(world, time.perf_counter)
    spans = recorder.take() if recorder is not None else None
    scale = speed_scale(workload.speed_kernel, before)
    workload.verify(world, outcome)
    return Unit(
        setup_s * scale,
        busy_s * scale,
        outcome.attempted,
        outcome.digest(),
        outcome if keep else None,
        setup_spans,
        spans,
    )


def units_for(workload, seed: int, seconds: float) -> tuple:
    """One warm-up unit, then measured units until ``seconds`` of wall
    time are spent.  The warm-up unit is checked like the others but left
    out of the host-time medians: the first unit of a process pays for
    warming the allocator and caches, which a long-lived caller pays once."""
    warmup = run_unit(workload, seed, keep=True)
    units = []
    started = time.perf_counter()
    while len(units) < MIN_UNITS or time.perf_counter() - started < seconds:
        units.append(run_unit(workload, seed))
    return warmup, units


def same_outputs(units, what: str) -> None:
    from perfbench.workloads import CheckFailed

    digests = {u.digest for u in units}
    if len(digests) != 1:
        raise CheckFailed(f"{what}: units of one seed disagree ({sorted(digests)})")


def frames_per_request(workload, seed: int) -> float:
    """Python frames entered per request inside one unit's timed regions."""
    world = workload.setup(seed)
    frames = 0

    def profile(_frame, event, _arg):
        nonlocal frames
        if event == "call":
            frames += 1

    def clock():
        # ``measure`` reads the clock at the start and at the end of each
        # timed region: count frames between the two reads only.
        sys.setprofile(None if sys.getprofile() else profile)
        return time.perf_counter()

    try:
        outcome, _busy = workload.measure(world, clock)
    finally:
        sys.setprofile(None)
    workload.verify(world, outcome)
    return frames / outcome.attempted


def median_rate(units) -> float:
    return statistics.median(u.attempted / u.busy_s for u in units)


def nearest_rank(sorted_values, q: float) -> float:
    return float(sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)])


def end_to_end(outcome, units, setups) -> dict:
    """name -> (value, unit, samples) for every end-to-end metric."""
    n = outcome.attempted
    return {
        "requests_per_s": (median_rate(units), "1/s", len(units)),
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB",
            1,
        ),
        "ok_frac": ((n - outcome.missed) / n, "fraction", n),
    }


def simulated(outcome) -> dict:
    """name -> (value, unit) for the simulated-time outputs; zero where
    the workload has no simulated clock."""
    from perfbench.workloads import SLO_MS

    lat = outcome.latencies
    if not lat.size:
        return {
            "sim.latency_p50_ms": (0.0, "ms"),
            "sim.latency_p99_ms": (0.0, "ms"),
            "sim.goodput_per_s": (0.0, "1/s"),
            "sim.slo_frac": (0.0, "fraction"),
        }
    return {
        "sim.latency_p50_ms": (nearest_rank(lat, 0.50), "ms"),
        "sim.latency_p99_ms": (nearest_rank(lat, 0.99), "ms"),
        "sim.goodput_per_s": (outcome.ok / (outcome.sim_ms / 1000.0), "1/s"),
        "sim.slo_frac": (int((lat <= SLO_MS).sum()) / outcome.attempted, "fraction"),
    }


def per_layer(workload, unit: Unit, frames: float, overhead: float) -> dict:
    """name -> (value, unit) for every per-layer metric of one traced unit."""
    c = unit.outcome.counts
    spans, setup_spans = unit.spans, unit.setup_spans
    n = unit.outcome.attempted

    def get(name):
        return c.get(name, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    def self_us(span, per=None):
        calls = spans.calls(span) if per is None else per
        return ratio(spans.self_s(span) * 1e6, calls)

    invocations = get("invocations")
    lookups = get("cache_hits") + get("cache_misses")
    ticks = get("ticks")
    tick_s = spans.total_s("megascale.tick")
    return {
        **simulated(unit.outcome),
        "simkernel.events_per_request": (ratio(get("events"), n), "count"),
        "simkernel.self_us_per_event": (self_us("simkernel.run", get("events")), "us"),
        "net.msgs_per_request": (ratio(get("msgs"), n), "count"),
        "net.wan_msgs_per_request": (ratio(get("wan_msgs"), n), "count"),
        "net.send_self_us": (self_us("net.send"), "us"),
        "net.drops": (get("drops"), "count"),
        "net.delivery_failures": (get("delivery_failures"), "count"),
        "net.partition_blocks": (get("partition_blocks"), "count"),
        "core.frames_per_call": (frames, "count"),
        "core.invoke_self_us": (
            self_us("core.invoke", spans.counter("core.invoke")),
            "us",
        ),
        "core.dispatch_self_us": (self_us("core.dispatch"), "us"),
        "core.attempts_per_invocation": (ratio(get("attempts"), invocations), "count"),
        "core.timeouts": (get("timeouts"), "count"),
        "binding.agent_lookups_per_invocation": (
            ratio(get("agent_lookups"), invocations),
            "count",
        ),
        "binding.rebinds": (get("rebinds"), "count"),
        "binding.refreshes": (get("refreshes"), "count"),
        "binding.stale_detected": (get("stale_detected"), "count"),
        "naming.cache_hit_rate": (ratio(get("cache_hits"), lookups), "fraction"),
        "flow.admitted": (get("flow_admitted"), "count"),
        "flow.shed": (get("flow_shed"), "count"),
        "flow.credit_waits": (get("credit_waits"), "count"),
        "flow.retry_denied": (get("retry_denied"), "count"),
        "flow.arrive_self_us": (self_us("flow.arrive"), "us"),
        "security.mayi_checks": (spans.calls("security.mayi"), "count"),
        "security.denied": (spans.counter("security.denied"), "count"),
        "health.polls": (spans.calls("health.poll"), "count"),
        "health.transitions": (get("health_transitions"), "count"),
        "health.poll_self_us": (self_us("health.poll"), "us"),
        "faults.injected": (get("faults_injected"), "count"),
        "faults.objects_lost": (get("objects_lost"), "count"),
        "faults.recoveries": (get("recoveries"), "count"),
        "faults.recovery_sim_ms_mean": (get("recovery_ms_mean"), "ms"),
        "faults.recovery_sim_ms_max": (get("recovery_ms_max"), "ms"),
        "scenarios.compile_s": (setup_spans.total_s("scenarios.compile"), "s"),
        "scenarios.sessions_started": (get("sessions_started"), "count"),
        "scenarios.sessions_abandoned": (get("sessions_abandoned"), "count"),
        "system.build_s": (setup_spans.total_s("system.build"), "s"),
        "megascale.tick_ms": (ratio(tick_s * 1e3, ticks), "ms"),
        "megascale.ns_per_id_tick": (
            ratio(tick_s * 1e9, ticks * getattr(workload, "POPULATION", 0)),
            "ns",
        ),
        "megascale.bulk_served": (get("bulk_served"), "count"),
        "megascale.escalated": (get("escalated"), "count"),
        "megascale.shed": (get("mega_shed"), "count"),
        "megascale.promotions": (get("promotions"), "count"),
        "bench.tracing_overhead_x": (overhead, "x"),
    }


def emit(metrics: dict, outcome) -> None:
    for name, (value, unit, *samples) in metrics.items():
        note = f"  (n={samples[0]})" if samples else ""
        print(f"{name:40s} {value:>16.6g} {unit}{note}")
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": outcome.attempted,
                "failed": outcome.errors,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit, *_rest) in metrics.items()
                },
            }
        )
    )


def fingerprint(workload, seed: int) -> dict:
    outcome = run_unit(workload, seed, keep=True).outcome
    n = outcome.attempted
    return {
        "workload": workload.name,
        "seed": seed,
        "digest": outcome.digest(),
        "events_per_request": outcome.counts.get("events", 0) / n,
        "msgs_per_request": outcome.counts.get("msgs", 0) / n,
        "frames_per_call": frames_per_request(workload, seed),
    }


def traced(workload, seed: int, seconds: float) -> None:
    """Alternate untraced and traced units (each order in turn); report
    the first traced unit's per-layer metrics and write its spans."""
    from perfbench.tracing import Instrumentation, SpanRecorder

    frames = frames_per_request(workload, seed)
    recorder = SpanRecorder()
    plain, traced_units = [], []

    def traced_unit():
        with Instrumentation(recorder):
            traced_units.append(run_unit(workload, seed, recorder, keep=not traced_units))
        recorder.keep = 0  # span records: the first traced unit only

    started = time.perf_counter()
    while not traced_units or time.perf_counter() - started < seconds:
        if len(plain) % 2:
            traced_unit()
            plain.append(run_unit(workload, seed))
        else:
            plain.append(run_unit(workload, seed))
            traced_unit()
    same_outputs(plain + traced_units, f"{workload.name} traced vs untraced")
    overhead = median_rate(plain) / median_rate(traced_units)
    out_dir = os.path.join(ROOT, "perfbench", "out")
    os.makedirs(out_dir, exist_ok=True)
    recorder.dump(os.path.join(out_dir, f"{workload.name}-seed{seed}.spans.jsonl"))
    first = traced_units[0]
    emit(per_layer(workload, first, frames, overhead), first.outcome)


def run_all(args) -> int:
    """Every workload in turn, each in a fresh process; the worst exit."""
    from perfbench.workloads import WORKLOADS

    worst = 0
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        cmd = [
            sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        worst = max(worst, subprocess.run(cmd, check=False).returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fingerprint", action="store_true")
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"perfbench: no program sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    sys.path.insert(0, ROOT)
    from perfbench.workloads import WORKLOADS, CheckFailed

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"expected one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    workload.prepare(args.seed)
    try:
        if args.fingerprint:
            print(json.dumps(fingerprint(workload, args.seed), sort_keys=True))
        elif args.trace:
            traced(workload, args.seed, args.seconds)
        else:
            warmup, units = units_for(workload, args.seed, args.seconds)
            same_outputs([warmup] + units, workload.name)
            setups = [u.setup_s for u in units]
            while len(setups) < MIN_SETUPS:
                setups.append(scaled_setup(workload, args.seed))
            emit(end_to_end(warmup.outcome, units, setups), warmup.outcome)
    except CheckFailed as exc:
        print(f"perfbench: correctness check failed: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
