"""The ``--mega`` wiring on E9: sharding stays byte-identical, numpy stays
optional.

``--mega N`` appends a columnar ladder (N/100, N/10, N -- floored at
10^4) to E9's sweep.  The sharded-runner contract must survive the new
arm: ``--shards`` is purely a wall-clock optimisation, so the rendered
report has to match the sequential reference byte for byte at any shard
count.  And because numpy is an optional extra, a numpy-less install
must fail with one actionable LegionError, not a traceback.
"""

import pytest

from repro.errors import LegionError
from repro.experiments import e9_scaling
from repro.experiments.common import RunConfig
from repro.experiments.runner import run_experiment, run_one
from repro.experiments.e9_scaling import e9_mega_sizes

MEGA = 20_000  # ladder: [10_000, 20_000] under the LADDER_FLOOR


def test_mega_units_extend_the_sweep():
    base = e9_scaling.shard_units(RunConfig(quick=True))
    mega = e9_scaling.shard_units(RunConfig(quick=True, mega=MEGA))
    assert base == [u for u in mega if u[0] != "mega"]
    assert [u for u in mega if u[0] == "mega"] == [
        ("mega", 10_000),
        ("mega", MEGA),
    ]


def test_ladder_floor_and_dedup():
    assert e9_mega_sizes(10_000, quick=True) == [10_000]
    assert e9_mega_sizes(2_000_000, quick=True) == [
        20_000,
        200_000,
        2_000_000,
    ]


def test_shards_1_and_2_mega_reports_are_byte_identical():
    cfg = RunConfig(quick=True, seed=0, mega=MEGA)
    seq = run_one("e9", cfg, shards=1)
    par = run_one("e9", cfg, shards=2)
    assert seq.passed, f"e9 --mega failed sequentially:\n{seq.report}"
    assert seq.report == par.report, "e9 --mega diverged across --shards"
    assert "mega" in seq.report


def test_mega_run_exposes_the_slope_for_the_bench_gate():
    result = run_experiment("e9", RunConfig(quick=True, seed=0, mega=MEGA))
    assert result.passed, result.render()
    assert hasattr(result, "mega_slope")
    assert result.mega_slope < 0.35


def test_run_composes_from_the_shard_hooks_with_mega():
    cfg = RunConfig(quick=True, seed=0, mega=MEGA)
    partials = [
        e9_scaling.shard_measure(unit, cfg) for unit in e9_scaling.shard_units(cfg)
    ]
    composed = e9_scaling.shard_finish(partials, cfg)
    direct = run_experiment("e9", cfg)
    assert composed.render() == direct.render()


def test_numpyless_install_gets_one_actionable_error(monkeypatch):
    from repro.megascale import compat

    monkeypatch.setattr(compat, "HAVE_NUMPY", False)
    with pytest.raises(LegionError) as exc:
        compat.require_numpy("the --mega flag")
    message = str(exc.value)
    assert "the --mega flag" in message
    assert 'pip install "repro[mega]"' in message
