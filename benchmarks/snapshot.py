"""Perf snapshots: record the repo's performance trajectory over PRs.

Measures three layers and writes ``BENCH_<label>.json`` at the repo root:

* **kernel**  -- events/sec on the timeout, spawn, and future-resume paths
  (the micro-workloads of :mod:`bench_kernel`);
* **system**  -- end-to-end warm ``system.call`` latency and calls/sec;
* **sweep_multicore** -- jurisdiction-sharded E15 full-sweep speedup at
  ``--shards 4`` (see :mod:`bench_shards`);
* **sweep**   -- wall time of the quick experiment sweep
  (``python -m repro.experiments``), optionally parallel via ``--jobs``.

Usage::

    PYTHONPATH=src python benchmarks/snapshot.py --label pr1 --jobs 4
    PYTHONPATH=src python benchmarks/snapshot.py --label quick --skip-sweep

Compare two snapshots::

    PYTHONPATH=src python benchmarks/snapshot.py --compare BENCH_seed.json BENCH_pr1.json

Snapshots are committed so every future PR has a trajectory to argue
against; wall-clock numbers are machine-dependent, so compare ratios
within one machine's series, not absolute numbers across machines.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from datetime import datetime, timezone

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import bench_kernel  # noqa: E402  (sibling module, not a package)
import bench_shards  # noqa: E402  (sibling module, not a package)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def snapshot_kernel() -> dict:
    """Events/sec for each kernel micro-workload (best of 3)."""
    metrics = {}
    for name, fn, n in (
        ("timeout_chain", bench_kernel.timeout_chain, 20_000),
        ("spawn_wave", bench_kernel.spawn_wave, 5_000),
        ("future_resume", bench_kernel.future_resume, 10_000),
    ):
        wall, events = bench_kernel.measure(fn, n)
        metrics[name] = {
            "iters": n,
            "events": events,
            "ops_per_sec": round(n / wall, 1),
            "wall_s": round(wall, 6),
        }
    return metrics


def snapshot_system_call(n: int = 300) -> dict:
    """Warm end-to-end call throughput (one request/reply per call)."""
    system, loid = bench_kernel.build_warm_system()
    wall, _ = bench_kernel.measure(bench_kernel.warm_system_call, system, loid, n)
    return {
        "calls": n,
        "calls_per_sec": round(n / wall, 1),
        "wall_ms_per_call": round(1000.0 * wall / n, 4),
    }


def snapshot_e15_goodput() -> dict:
    """E15 flow-arm goodput at the 4x overload level (fraction of capacity).

    The flow-control claim the perf gate protects: admission control must
    keep delivered goodput at the capacity plateau while offered load runs
    4x past it.  Recorded as a throughput-style metric (higher is better)
    so check_regression can hold the line on it like any ops/sec number.
    """
    from repro.experiments.common import RunConfig
    from repro.experiments.runner import run_experiment  # deferred: imports numpy

    started = time.perf_counter()
    result = run_experiment("e15", RunConfig(quick=True, seed=0))
    wall = time.perf_counter() - started
    by_level = dict(
        zip(result.recorder.xs, result.recorder.series("flow_goodput"), strict=True)
    )
    level = 4.0 if 4.0 in by_level else max(by_level)
    return {
        "level": level,
        "goodput_x_capacity": by_level[level],
        "all_checks_passed": result.passed,
        "wall_s": round(wall, 2),
    }


def snapshot_e16_local_read() -> dict:
    """E16 locality claim the perf gate protects: with one replica per
    jurisdiction, same-jurisdiction reads stay at same-host cost.

    Recorded as reciprocal simulated latency (reads per simulated ms,
    higher is better) so check_regression can hold a line on it.  The
    number is deterministic -- if locality-aware selection breaks and
    local reads start crossing the WAN, it collapses by ~800x.
    """
    from repro.experiments import e16_georeplication as e16
    from repro.experiments.common import RunConfig

    started = time.perf_counter()
    out = e16.shard_measure(("locality", e16.N_SITES), RunConfig(quick=True, seed=0))
    wall = time.perf_counter() - started
    local_ms = out["local_mean"]
    return {
        "replicas": out["replicas"],
        "local_mean_sim_ms": round(local_ms, 4),
        "reads_per_sim_ms": round(1.0 / local_ms, 3) if local_ms else 0.0,
        "wan_msgs_per_read": round(out["wan_per_read"], 4),
        "failed_reads": out["failed"],
        "wall_s": round(wall, 2),
    }


def snapshot_e17_governed_goodput() -> dict:
    """E17 governed-arm storm goodput (fraction of capacity, higher is
    better): the banded-governor claim the perf gate protects.

    Simulated-time and deterministic -- if band coupling stops tightening
    admission and retry policy under the storm, the governed arm joins
    the baseline's collapse and this drops ~3x.  The recovery figure and
    the band walk ride along for context.
    """
    from repro.experiments import e17_governor as e17  # deferred import
    from repro.experiments.common import RunConfig

    started = time.perf_counter()
    out = e17.shard_measure("governed", RunConfig(quick=True, seed=0))
    wall = time.perf_counter() - started
    by_phase = {p["phase"]: p for p in out["phases"]}
    return {
        "storm_goodput_x_capacity": round(by_phase["storm"]["goodput_x"], 3),
        "recovery_goodput_x_capacity": round(
            by_phase["recovery"]["goodput_x"], 3
        ),
        "band_final": out["band_final"],
        "ledgered_transitions": len(out["ledger"]),
        "settled": out["settled"],
        "wall_s": round(wall, 2),
    }


def snapshot_e18_scenario_matrix() -> dict:
    """E18 scenario-language claim the perf gate protects: every catalog
    scenario's plain rich-object replay keeps delivering its goodput.

    Runs the plain arm of each catalog scenario and records the mean
    peak-phase goodput (fraction of deployment capacity, higher is
    better).  Simulated-time and deterministic -- it collapses if the
    compiler stops pacing arrivals, the driver stops completing
    sessions, or the deployment stops serving the mix.  The MayI-denial
    agreement and total delivered calls ride along for context.
    """
    from repro.experiments import e18_scenarios as e18
    from repro.experiments.common import RunConfig
    from repro.scenarios import scenario_names

    started = time.perf_counter()
    partials = [
        e18.shard_measure((name, "plain", 0.0), RunConfig(quick=True, seed=0))
        for name in scenario_names()
    ]
    wall = time.perf_counter() - started
    goodputs = [
        max((p["goodput_x"] for p in partial["phases"]), default=0.0)
        for partial in partials
    ]
    return {
        "scenarios": len(partials),
        "mean_plain_goodput_x": round(sum(goodputs) / len(goodputs), 4),
        "ok_total": sum(p["outcomes"]["ok"] for p in partials),
        "denied_matches": all(
            p["outcomes"]["denied"] == p["expected_denied"] for p in partials
        ),
        "all_settled": all(p["settled"] for p in partials),
        "wall_s": round(wall, 2),
    }


def snapshot_e9_mega(mega: int = 1_000_000) -> dict:
    """E9 mega-ladder flatness: the columnar-backend claim the gate protects.

    Runs the E9 ``--mega`` population ladder (N/100, N/10, N) through the
    columnar backend and fits the log-log slope of max per-class load.
    The gated number is the bounded transform ``1 / (1 + max(0, slope))``
    (higher is better; 1.0 = perfectly flat ladder) because ratios of
    near-zero raw slopes are unstable.  Deterministic and simulated-time;
    the wall-clock calls/sec of the top rung rides along for context.
    """
    import bench_mega  # deferred: needs the repro[mega] extra (numpy)

    started = time.perf_counter()
    ladder = bench_mega.ladder_throughput(mega, seed=0, quick=True)
    wall = time.perf_counter() - started
    top = ladder["rungs"][-1]
    return {
        "population": top["population"],
        "slope": ladder["slope"],
        "flatness": bench_mega.flatness(ladder["slope"]),
        "all_settled": all(r["settled"] for r in ladder["rungs"]),
        "top_calls_per_sec": top["calls_per_sec"],
        "top_objects_per_sec": top["objects_per_sec"],
        "wall_s": round(wall, 2),
    }


def snapshot_sweep_multicore(shards: int = 4) -> dict:
    """Jurisdiction-sharded E15 full-sweep speedup at ``--shards N``.

    Real pool wall-clock on multi-CPU machines; on a single-CPU container
    the per-unit serial walls are measured for real and the N-worker
    makespan is modelled (LPT), with the mode recorded in the snapshot.
    See :mod:`bench_shards` for the full story.
    """
    return bench_shards.sweep_multicore(shards=shards, quick=False, seed=0)


def snapshot_sweep(jobs: int = 1) -> dict:
    """Wall time of the full quick experiment sweep via the CLI."""
    cmd = [sys.executable, "-m", "repro.experiments"]
    if jobs != 1:
        cmd += ["--jobs", str(jobs)]
    env = dict(os.environ)
    src = os.path.join(REPO_ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep * bool(env.get("PYTHONPATH")) + env.get(
        "PYTHONPATH", ""
    )
    started = time.perf_counter()
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - started
    return {
        "jobs": jobs,
        "wall_s": round(wall, 2),
        "all_passed": proc.returncode == 0,
    }


def take_snapshot(label: str, jobs: int, skip_sweep: bool) -> dict:
    data = {
        "label": label,
        "created": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "metrics": {
            "kernel": snapshot_kernel(),
            "system_call": snapshot_system_call(),
            "e15_goodput": snapshot_e15_goodput(),
            "e16_local_read": snapshot_e16_local_read(),
            "e17_governed_goodput": snapshot_e17_governed_goodput(),
            "e18_scenario_matrix": snapshot_e18_scenario_matrix(),
            "sweep_multicore": snapshot_sweep_multicore(),
        },
    }
    from repro.megascale.compat import HAVE_NUMPY

    if HAVE_NUMPY:
        data["metrics"]["e9_mega"] = snapshot_e9_mega()
    if not skip_sweep:
        data["metrics"]["sweep"] = snapshot_sweep(jobs)
    return data


def compare(path_a: str, path_b: str) -> int:
    """Print B/A speedup ratios for every shared throughput metric."""
    with open(path_a) as fh:
        a = json.load(fh)
    with open(path_b) as fh:
        b = json.load(fh)
    print(f"{'metric':<28} {a['label']:>14} {b['label']:>14} {'speedup':>9}")
    rows = []
    for name in a["metrics"]["kernel"]:
        if name in b["metrics"]["kernel"]:
            va = a["metrics"]["kernel"][name]["ops_per_sec"]
            vb = b["metrics"]["kernel"][name]["ops_per_sec"]
            rows.append((f"kernel.{name}", va, vb))
    rows.append(
        (
            "system_call",
            a["metrics"]["system_call"]["calls_per_sec"],
            b["metrics"]["system_call"]["calls_per_sec"],
        )
    )
    multicore_a = a["metrics"].get("sweep_multicore")
    multicore_b = b["metrics"].get("sweep_multicore")
    if multicore_a and multicore_b:
        rows.append(
            ("sweep_multicore", multicore_a["speedup_x"], multicore_b["speedup_x"])
        )
    for name, va, vb in rows:
        print(f"{name:<28} {va:>14.0f} {vb:>14.0f} {vb / va:>8.2f}x")
    sweep_a = a["metrics"].get("sweep")
    sweep_b = b["metrics"].get("sweep")
    if sweep_a and sweep_b:
        print(
            f"{'sweep wall (s)':<28} {sweep_a['wall_s']:>14.1f} "
            f"{sweep_b['wall_s']:>14.1f} {sweep_a['wall_s'] / sweep_b['wall_s']:>8.2f}x"
        )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", default="dev", help="snapshot label (file suffix)")
    parser.add_argument("--jobs", type=int, default=1, help="sweep parallelism")
    parser.add_argument("--skip-sweep", action="store_true", help="kernel+call only")
    parser.add_argument(
        "--compare", nargs=2, metavar=("A.json", "B.json"), help="diff two snapshots"
    )
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare)

    data = take_snapshot(args.label, args.jobs, args.skip_sweep)
    out_path = os.path.join(REPO_ROOT, f"BENCH_{args.label}.json")
    with open(out_path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=False)
        fh.write("\n")
    print(json.dumps(data, indent=2))
    print(f"\nwrote {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
