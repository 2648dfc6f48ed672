"""E18 bench: scenario compilation + the columnar scenario backend.

Times the two hot paths the scenario language adds: compiling a catalog
spec into its backend-neutral event stream (pure seeded draws, no
kernel), and replaying a compiled scenario through the columnar frame
kernels at a mega-scale population.  The rich-object replay path is
covered by the experiment itself (``test_e18_claims_hold``), whose
per-cell cost the sweep wall-clock tracks.
"""

import pytest
from conftest import assert_and_report

from repro.experiments.common import RunConfig
from repro.experiments.runner import run_experiment
from repro.scenarios import compile_events, get_scenario, stream_stats


def test_compile_catalog_scenario_cost(benchmark):
    """Compiling multi-tenant (3 phases, 3 tenants, MayI gating)."""
    spec = get_scenario("multi-tenant")

    plan = benchmark(compile_events, spec, 0)
    stats = stream_stats(plan)
    assert stats["sessions"] > 0
    assert stats["denied"] > 0  # the ACL probes are in the stream


def test_mega_backend_scenario_cost(benchmark):
    """One full mega-scale replay (compile + frames + tick kernel)."""
    np = pytest.importorskip("numpy", reason="repro[mega] extra not installed")
    del np
    from repro.scenarios.mega import run_scenario_mega

    spec = get_scenario("flash-crowd")

    report = benchmark(run_scenario_mega, spec, 0, 1_000_000)
    assert report["settled"]
    assert report["population"] >= 1_000_000
    assert report["shed"] > 0  # the surge must overrun the admission cap


def test_e18_claims_hold():
    assert_and_report(run_experiment("e18", RunConfig(quick=True)))
