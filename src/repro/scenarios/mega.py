"""Columnar mega-scale backend for the scenario language.

Any catalog scenario runs at 10^6 callers: the compiled event stream is
replayed through vectorised per-tick frame kernels (the PR-9 columnar
idiom) instead of per-object simulation processes.  The scaling model is
*sharded symmetry*: a population of N callers is served by
``scale = ceil(N / base)`` disjoint target shards, each receiving the
identical base stream -- per-target dynamics are exactly the base
dynamics, and every tally scales linearly.  That keeps the kernel an
exact, deterministic function of ``(spec, seed, population)`` and makes
rich-vs-mega agreement on per-frame arrival counts a property by
construction (compare at scale 1).

Accounting is exact: privileged requests from unprivileged tenants are
denied up front (the MayI gate, columnar form); the rest go through a
:class:`~repro.megascale.engine.BulkEngine` with one frame row per
target, each request costing its service time in ms.  Each target's
carryover queue holds ``QCAP_TICKS`` ticks of work, the excess is shed,
and the target serves FIFO at one ms of work per ms.  The settled
identity ``issued == denied + shed + served`` holds after the drain, per
target, per frame.
"""

from __future__ import annotations

import hashlib
import json
from typing import List, Sequence

from repro.megascale.compat import require_numpy
from repro.megascale.engine import QCAP_TICKS, BulkEngine
from repro.megascale.frame import StateFrame

try:  # optional ``repro[mega]`` extra
    import numpy as np
except ImportError:  # pragma: no cover - numpy-less installs only
    np = None  # type: ignore[assignment]

from .events import TickPlan, compile_events
from .spec import ScenarioSpec

def _cost(spec: ScenarioSpec, kind: str) -> float:
    if kind == "read":
        return spec.read_time
    if kind == "batch":
        return spec.batch_units * spec.service_time
    return spec.service_time


def compile_frames(spec: ScenarioSpec, plan: Sequence[TickPlan]) -> dict:
    """Flatten a compiled stream into columnar per-request arrays.

    Requests are placed at their *nominal* times (arrival offset plus
    cumulative think gaps -- the open-loop rendering of the session
    state machine) and sorted FIFO per tick.
    """
    require_numpy("the scenario mega backend")
    times: List[float] = []
    tids: List[int] = []
    costs: List[float] = []
    denied: List[bool] = []
    first: List[bool] = []
    for tick in plan:
        for a in tick.arrivals:
            t = tick.t0 + a.offset
            tid = (a.klass * spec.sites + a.target_site) * spec.targets_per_site
            tid += a.slot
            for i, req in enumerate(a.requests):
                t += req.think
                times.append(t)
                tids.append(tid)
                costs.append(_cost(spec, req.kind))
                denied.append(req.denied)
                first.append(i == 0)
    order = np.lexsort((np.arange(len(times)), np.asarray(times)))
    return {
        "time": np.asarray(times)[order],
        "tid": np.asarray(tids, dtype=np.int64)[order],
        "cost": np.asarray(costs)[order],
        "denied": np.asarray(denied, dtype=bool)[order],
        "first": np.asarray(first, dtype=bool)[order],
        "n_targets": spec.targets_total,
    }


def frame_arrivals(spec: ScenarioSpec, seed: int) -> List[int]:
    """Per-frame session arrivals as the columnar backend sees them.

    The rich backend's counts are ``events.per_tick_arrivals``; the two
    must agree frame for frame (a Hypothesis property).
    """
    plan = compile_events(spec, seed)
    frames = compile_frames(spec, plan)
    n_ticks = len(plan)
    session_times = frames["time"][frames["first"]]
    index = np.minimum(
        (session_times // spec.tick_ms).astype(np.int64), n_ticks - 1
    )
    return np.bincount(index, minlength=n_ticks).astype(int).tolist()


def run_scenario_mega(
    spec: ScenarioSpec, seed: int, population: int = 1_000_000
) -> dict:
    """One scenario at ``population`` callers through the frame kernels."""
    require_numpy("the scenario mega backend")
    plan = compile_events(spec, seed)
    frames = compile_frames(spec, plan)
    n_targets = frames["n_targets"]
    tick_ms = spec.tick_ms

    base_sessions = int(frames["first"].sum())
    scale = max(1, -(-population // max(1, base_sessions)))

    # One row per target (tid); each target queues its own requests.
    frame = StateFrame(n_classes=1, n_hosts=1)
    frame.extend(n_targets, klass=0, host=0)
    engine = BulkEngine(frame, queue_cap=QCAP_TICKS * tick_ms, service=tick_ms)

    time_arr, tid_arr = frames["time"], frames["tid"]
    cost_arr, denied_arr = frames["cost"], frames["denied"]
    tick_of = (time_arr // tick_ms).astype(np.int64)
    horizon = int(tick_of.max()) + 1 if len(tick_of) else len(plan)
    bounds = np.searchsorted(tick_of, np.arange(horizon + 1))

    issued = denied_n = 0
    frame_rows: List[dict] = []
    peak_backlog = 0.0

    def run_tick(k: int, tids_k, costs_k, denied_tick: int) -> None:
        nonlocal peak_backlog
        out = engine.tick(k, tids_k, costs_k)
        queued = engine.backlog + out.served_work  # before this tick's service
        peak_backlog = max(peak_backlog, float(queued.max()))
        frame_rows.append(
            {
                "tick": k,
                "issued": len(tids_k) + denied_tick,
                "denied": denied_tick,
                "shed": out.shed,
                "served": out.bulk_served,
                "backlog_ms": round(float(engine.backlog.sum()), 4),
            }
        )

    for k in range(horizon):
        tick_slice = slice(bounds[k], bounds[k + 1])
        denied_k = denied_arr[tick_slice]
        live = ~denied_k
        issued += int(denied_k.size)
        denied_n += int(denied_k.sum())
        run_tick(k, tid_arr[tick_slice][live], cost_arr[tick_slice][live], int(denied_k.sum()))

    drain_ticks = 0
    while float(engine.backlog.sum()) > 1e-9:
        run_tick(horizon + drain_ticks, [], [], 0)
        drain_ticks += 1

    ledger = engine.ledger
    settled = issued == denied_n + ledger.shed + ledger.bulk_completed
    report = {
        "scenario": spec.name,
        "population": base_sessions * scale,
        "scale": scale,
        "base_sessions": base_sessions,
        "ticks": horizon,
        "drain_ticks": drain_ticks,
        "issued": issued * scale,
        "denied": denied_n * scale,
        "shed": ledger.shed * scale,
        "served": ledger.bulk_completed * scale,
        "settled": settled,
        "peak_target_backlog_ms": round(peak_backlog, 4),
        "frames": frame_rows,
    }
    digest = hashlib.sha256(
        json.dumps(report, sort_keys=True).encode()
    ).hexdigest()
    report["checksum"] = digest[:16]
    return report
