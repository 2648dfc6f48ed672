"""Property-based tests over the columnar mega-scale kernels.

Hypothesis sweeps random (seed, population, admission model, hot set)
scenarios -- the admission model being either a per-row ``per_tick_limit``
or a carryover queue per row or per host with its own cap and service,
fed unit-cost or float-cost calls; for each one:

* the frame-at-once :class:`BulkEngine` kernels must land on *exactly*
  the state the numpy-free per-agent :class:`ReferenceMachine` reaches --
  ledgers, per-class tallies, per-id values, checksums;
* ``demote(promote(x))`` round-trips a row's columns exactly, for
  arbitrary column contents;
* the id allocator only ever moves forward, whatever the alloc sequence.

``derandomize=True`` keeps the sweep itself deterministic run to run.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

np = pytest.importorskip("numpy", reason="repro[mega] extra not installed")

from repro.megascale import (  # noqa: E402
    BULK,
    BulkEngine,
    IdAllocator,
    ReferenceMachine,
    StateFrame,
)

scenarios = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 2**31 - 1),
        "n": st.integers(5, 120),
        "n_classes": st.integers(1, 6),
        "n_hosts": st.integers(2, 5),
        "ticks": st.integers(1, 8),
        "per_tick": st.integers(0, 300),
        "limit": st.one_of(st.none(), st.integers(1, 4)),
        "group": st.sampled_from(["row", "host"]),
        "cap": st.one_of(st.none(), st.integers(1, 12)),
        "service": st.one_of(st.none(), st.integers(1, 6)),
        "costed": st.booleans(),
        "n_hot": st.integers(0, 4),
        "crash": st.booleans(),
    }
)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(cfg=scenarios)
def test_frame_kernels_match_the_per_agent_reference(cfg):
    rng = np.random.default_rng(cfg["seed"])
    n = cfg["n"]
    hot = sorted(rng.choice(n, size=min(cfg["n_hot"], n), replace=False).tolist())
    klass = rng.integers(0, cfg["n_classes"], size=n).astype(np.int32)
    host = rng.integers(0, cfg["n_hosts"], size=n).astype(np.int32)

    # With a per_tick_limit the queue model comes from the limit alone.
    model = {"per_tick_limit": cfg["limit"], "demote_after": 2}
    if cfg["limit"] is None:
        model.update(group=cfg["group"], queue_cap=cfg["cap"], service=cfg["service"])

    frame = StateFrame(n_classes=cfg["n_classes"], n_hosts=cfg["n_hosts"])
    frame.extend(n, klass=klass, host=host)
    engine = BulkEngine(frame, hot_ids=hot, **model)
    ref = ReferenceMachine(cfg["n_classes"], cfg["n_hosts"], hot_ids=hot, **model)
    ref.extend(n, klass=klass, host=host)

    def draw_costs(size):
        # Quarter units: float costs whose sums are exact, so both
        # machines compare work without rounding noise.
        return rng.integers(1, 13, size=size) / 4.0 if cfg["costed"] else None

    crash_tick = cfg["ticks"] // 2 if cfg["crash"] else None
    for tick in range(cfg["ticks"]):
        targets = rng.integers(0, n, size=cfg["per_tick"])
        costs = draw_costs(targets.size)
        out = engine.tick(tick, targets, costs)
        ref.tick(tick, targets, costs)
        assert out.admitted + out.shed + out.escalated == out.issued
        el, rl = engine.ledger, ref.ledger
        assert (el.admitted, el.bulk_completed, el.shed) == (
            rl.admitted,
            rl.bulk_completed,
            rl.shed,
        )
        assert [float(w) for w in engine.backlog] == [
            ref.backlog(g) for g in range(engine.backlog.size)
        ]
        if crash_tick is not None and tick == crash_tick:
            assert engine.crash_host(0) == ref.crash_host(0)
            engine.restore_host(0)
            ref.restore_host(0)
        engine.demote_idle(tick)
        ref.demote_idle(tick)
    # Drain the carried queues: empty ticks still serve.
    tick = cfg["ticks"]
    while engine.backlog.any():
        engine.tick(tick, [], draw_costs(0))
        ref.tick(tick, [], draw_costs(0))
        tick += 1
    assert not any(ref.queues.values())
    engine.demote_all()
    ref.demote_all()

    el, rl = engine.ledger, ref.ledger
    assert (el.issued, el.admitted, el.bulk_completed, el.escalated_completed, el.shed) == (
        rl.issued,
        rl.admitted,
        rl.bulk_completed,
        rl.escalated_completed,
        rl.shed,
    )
    assert (el.promotions, el.demotions, el.fault_promotions) == (
        rl.promotions,
        rl.demotions,
        rl.fault_promotions,
    )
    assert engine.settled() and ref.settled()
    assert [int(x) for x in frame.class_calls] == ref.class_calls
    assert [int(x) for x in frame.class_sheds] == ref.class_sheds
    assert [int(v) for v in frame.value] == [o.value for o in ref.objects]
    assert frame.value_checksum() == ref.value_checksum()
    assert frame.band_histogram() == ref.band_histogram()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(1, 60),
    pick=st.integers(0, 59),
)
def test_demote_promote_round_trips_exactly(seed, n, pick):
    rng = np.random.default_rng(seed)
    i = pick % n
    frame = StateFrame(n_classes=3, n_hosts=4)
    frame.extend(
        n,
        klass=rng.integers(0, 3, size=n).astype(np.int32),
        host=rng.integers(0, 4, size=n).astype(np.int32),
    )
    frame.value[:] = rng.integers(0, 10**12, size=n)
    frame.calls[:] = rng.integers(0, 10**6, size=n)
    frame.cache_epoch[:] = rng.integers(-1, 50, size=n).astype(np.int32)

    before = frame.snapshot_row(i)
    occupancy_before = [int(x) for x in frame.host_occupancy]
    checksum_before = frame.value_checksum()

    (snap,) = frame.promote([i])
    assert snap == before
    frame.demote(i, value=snap["value"])

    assert frame.snapshot_row(i) == before
    assert int(frame.state[i]) == BULK
    assert [int(x) for x in frame.host_occupancy] == occupancy_before
    assert frame.value_checksum() == checksum_before


@settings(max_examples=60, deadline=None, derandomize=True)
@given(counts=st.lists(st.integers(0, 1000), min_size=0, max_size=30))
def test_allocator_never_reuses_an_id(counts):
    alloc = IdAllocator()
    seen_stop = 0
    for count in counts:
        ids = alloc.alloc(count)
        assert ids.start == seen_stop  # contiguous, monotone
        assert ids.stop == ids.start + count
        seen_stop = ids.stop
        assert alloc.high_water == seen_stop
    assert alloc.high_water == sum(counts)
