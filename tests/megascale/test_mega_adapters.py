"""E14/E15 mega adapters: invariants at a small (fast) population.

These run the real adapter code paths -- the live CloneController for
E14, the per-host carryover queues for E15 -- at populations small enough
for CI, asserting the same invariants the experiment checks gate on at
10^6-10^7.
"""

import pytest

from repro.experiments.e9_scaling import run_e9_mega_unit
from repro.experiments.e14_autoscale import run_mega_autoscale
from repro.experiments.e15_overload import run_mega_overload
from repro.megascale.engine import QCAP_TICKS as MEGA_QCAP_TICKS


class TestE9MegaUnit:
    def test_unit_settles_and_exercises_the_boundary(self):
        unit = run_e9_mega_unit(10_000, seed=0, quick=True)
        assert unit["settled"] and unit["wire_settled"]
        assert unit["issued"] == unit["completed"] + unit["shed"]
        assert unit["promotions"] > 0
        assert unit["demotions"] == unit["promotions"]
        assert unit["allocator_high_water"] == 10_000
        assert unit["max_class_load"] > 0

    def test_unit_is_deterministic(self):
        a = run_e9_mega_unit(10_000, seed=3, quick=True)
        b = run_e9_mega_unit(10_000, seed=3, quick=True)
        assert a == b


class TestE15MegaOverload:
    def test_flow_arm_bounds_the_queue_and_settles(self):
        unit = run_mega_overload(3, "flow", seed=0, quick=True, population=20_000)
        assert unit["settled"]
        assert unit["max_queue"] <= unit["qcap"]
        assert unit["shed"] > 0  # 3x overload: the cap bit
        assert unit["class_calls_total"] == unit["admitted"]
        assert unit["goodput_x"] >= 0.8

    def test_baseline_arm_queues_unboundedly_and_collapses(self):
        flow = run_mega_overload(3, "flow", seed=0, quick=True, population=20_000)
        base = run_mega_overload(3, "baseline", seed=0, quick=True, population=20_000)
        assert base["settled"]
        assert base["shed"] == 0
        assert base["max_queue"] > base["qcap"]
        assert base["goodput_x"] < flow["goodput_x"]
        # same seeded arrivals either way: the arms admit differently but
        # issue identically
        assert base["issued"] == flow["issued"]

    def test_underload_neither_sheds_nor_queues(self):
        unit = run_mega_overload(1, "flow", seed=0, quick=True, population=20_000)
        assert unit["settled"]
        assert unit["shed"] == 0
        assert unit["queued_end"] <= unit["qcap"] * 8  # drains tick-to-tick
        assert unit["goodput_x"] >= 0.8

    def test_qcap_scales_with_capacity(self):
        unit = run_mega_overload(2, "flow", seed=0, quick=True, population=20_000)
        n_hosts = 8  # max(8, 20_000 // 125_000)
        cap = max(1, 20_000 // 50 // n_hosts)
        assert unit["qcap"] == MEGA_QCAP_TICKS * cap


class TestE14MegaAutoscale:
    @pytest.fixture(scope="class")
    def unit(self):
        return run_mega_autoscale(3, seed=0, quick=True, population=20_000)

    def test_provisions_to_demand_and_drains(self, unit):
        assert unit["final_members_at_load"] >= unit["expected_members"]
        assert unit["expected_members"] >= 3  # level 3 needs real scale-out
        assert unit["drained_to_min"]

    def test_demand_accounting_closes(self, unit):
        assert unit["issued"] == unit["routed"]
        assert unit["caller_calls_total"] == unit["issued"]

    def test_binding_caches_lazily_rebind(self, unit):
        assert 0 < unit["rebinds"] <= unit["issued"]
        assert unit["fresh_members_valid"]
        # nearly all of the population never called, so never rebound
        assert unit["stale_fraction_final"] > 0.5

    def test_caller_ids_stay_monotone(self, unit):
        assert unit["allocator_high_water"] == unit["population"] == 20_000
