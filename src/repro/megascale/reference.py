"""The per-agent reference machine: the frame kernels, one object at a time.

This is the differential twin of :class:`~repro.megascale.engine.BulkEngine`:
the same scenario semantics -- carryover-queue admission per row or per
host (cap, service, unit or per-call costs, prefix admission, FIFO
service), shedding, escalation on touch, fault promotion, idle demotion,
the settlement identity -- implemented over plain Python dicts with an
explicit per-call loop, a real FIFO queue per group, and *no numpy
anywhere*.  The property and differential tests drive both
machines with identical seeded inputs and assert the final states,
ledgers, and checksums are equal; the columnar backend is only trusted
where this twin proves it interchangeable.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional

from repro.errors import LegionError
from repro.megascale.engine import EPS, EngineLedger

_CHECKSUM_MOD = 2305843009213693951  # 2**61 - 1, matches StateFrame


@dataclass
class RefObject:
    """One rich-ish object: the per-agent unit of the reference machine."""

    klass: int
    host: int
    state: str = "bulk"  # bulk | promoted
    value: int = 0
    calls: int = 0
    shed: int = 0


class ReferenceMachine:
    """Per-agent twin of the columnar engine (see module docstring)."""

    def __init__(
        self,
        n_classes: int,
        n_hosts: int,
        hot_ids=(),
        per_tick_limit: Optional[int] = None,
        demote_after: int = 3,
        *,
        group: str = "row",
        queue_cap: Optional[float] = None,
        service: Optional[float] = None,
    ) -> None:
        if per_tick_limit is not None:
            queue_cap = service = per_tick_limit
        self.n_classes = n_classes
        self.n_hosts = n_hosts
        self.group = group
        self.queue_cap = queue_cap
        self.service = service
        self.demote_after = int(demote_after)
        self.objects: List[RefObject] = []
        self.hot = set(int(i) for i in hot_ids)
        self.host_up = [True] * n_hosts
        self.class_calls = [0] * n_classes
        self.class_sheds = [0] * n_classes
        self.ledger = EngineLedger()
        self._twins: Dict[int, int] = {}  # promoted id → twin value
        self._last_touch: Dict[int, int] = {}
        #: group → FIFO of its queued calls' remaining work.
        self.queues: Dict[int, Deque[float]] = {}

    def extend(self, count: int, klass, host) -> List[int]:
        """Allocate rows exactly the way StateFrame.extend does."""
        start = len(self.objects)
        for j in range(count):
            k = klass[j] if hasattr(klass, "__getitem__") else klass
            h = host[j] if hasattr(host, "__getitem__") else host
            self.objects.append(RefObject(klass=int(k), host=int(h)))
        return list(range(start, start + count))

    # ------------------------------------------------------------------ kernels

    def tick(self, tick: int, targets, costs=None) -> None:
        """One tick: identical semantics, one call at a time."""
        targets = [int(t) for t in targets]
        costs = [1.0] * len(targets) if costs is None else [float(c) for c in costs]
        self.ledger.issued += len(targets)
        # Classification happens against the band state at tick start,
        # exactly like the engine's upfront mask: nothing promotes until
        # the escalated calls run, after admission and service.
        escalated = []
        refused = set()  # groups that shed a call this tick admit no more
        for t, cost in zip(targets, costs, strict=True):
            obj = self.objects[t]
            if t in self.hot or obj.state != "bulk":
                escalated.append(t)
                continue
            g = t if self.group == "row" else obj.host
            if g not in refused and (
                self.queue_cap is None or self.backlog(g) + cost <= self.queue_cap + EPS
            ):
                self.queues.setdefault(g, deque()).append(cost)
                obj.value += 1
                obj.calls += 1
                self.class_calls[obj.klass] += 1
                self.ledger.admitted += 1
            else:
                refused.add(g)
                obj.shed += 1
                self.class_sheds[obj.klass] += 1
                self.ledger.shed += 1
        for g in sorted(self.queues):
            self._serve(g)
        for t in escalated:
            self._escalated_call(t, tick)

    def backlog(self, g: int) -> float:
        """Group ``g``'s admitted, unserved work."""
        return sum(self.queues.get(g, ()))

    def _serve(self, g: int) -> None:
        """Group ``g`` works through its queue, oldest call first."""
        queue = self.queues[g]
        budget = self.backlog(g)
        if self.service is not None:
            budget = min(budget, self.service)
        while queue and queue[0] <= budget + EPS:
            budget -= queue.popleft()
            self.ledger.bulk_completed += 1
        if queue:
            queue[0] -= budget

    def _escalated_call(self, i: int, tick: int) -> None:
        obj = self.objects[i]
        if obj.state != "promoted":
            self._promote([i], reason="touch")
        self._last_touch[i] = tick
        self.ledger.escalated_issued += 1
        self._twins[i] += 1
        self.ledger.escalated_completed += 1
        self.class_calls[obj.klass] += 1

    # --------------------------------------------------------------- promotion

    def _promote(self, ids: List[int], reason: str) -> None:
        for i in ids:
            obj = self.objects[i]
            if obj.state == "promoted":
                raise LegionError("promote: row already promoted")
            obj.state = "promoted"
            self._twins[i] = obj.value
        self.ledger.promotions += len(ids)
        if reason == "fault":
            self.ledger.fault_promotions += len(ids)
            self.ledger.promoted_by_fault.extend(ids)

    def demote_idle(self, tick: int) -> int:
        idle = sorted(
            i
            for i, last in self._last_touch.items()
            if tick - last >= self.demote_after
        )
        for i in idle:
            self._demote(i)
        return len(idle)

    def demote_all(self) -> int:
        promoted = sorted(self._last_touch)
        for i in promoted:
            self._demote(i)
        return len(promoted)

    def _demote(self, i: int) -> None:
        obj = self.objects[i]
        if not self.host_up[obj.host]:
            obj.host = self._surviving_host()
        obj.value = self._twins.pop(i)
        obj.state = "bulk"
        self._last_touch.pop(i, None)
        self.ledger.demotions += 1

    def _surviving_host(self) -> int:
        for h, up in enumerate(self.host_up):
            if up:
                return h
        raise LegionError("no surviving host to re-home a demoted row")

    # ------------------------------------------------------------------- chaos

    def crash_host(self, host_id: int) -> List[int]:
        affected = sorted(
            i
            for i, obj in enumerate(self.objects)
            if obj.host == host_id and obj.state == "bulk"
        )
        self.host_up[host_id] = False
        if affected:
            self._promote(affected, reason="fault")
            for i in affected:
                self._last_touch.setdefault(i, 0)
        return affected

    def restore_host(self, host_id: int) -> None:
        self.host_up[host_id] = True

    # --------------------------------------------------------------- reporting

    def value_checksum(self) -> int:
        total = 0
        for i, obj in enumerate(self.objects):
            total += obj.value * ((i % 9973) + 1) % _CHECKSUM_MOD
        return total % _CHECKSUM_MOD

    def band_histogram(self) -> Dict[str, int]:
        counts = Counter(obj.state for obj in self.objects)
        return {
            "bulk": counts.get("bulk", 0),
            "promoted": counts.get("promoted", 0),
            "lost": counts.get("lost", 0),
        }

    def settled(self) -> bool:
        return self.ledger.settled()
