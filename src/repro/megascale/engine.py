"""Frame-at-once transition kernels plus the escalation boundary.

:class:`BulkEngine` drives a :class:`~repro.megascale.frame.StateFrame`
through ticks: each tick takes the whole tick's call targets as one array
and applies them with a handful of vectorised operations (admit against
the carryover queues, scatter-add the admissions and sheds, serve the
queues, tally per class).  No per-object Python runs for the bulk
population -- that is the entire point.

Admission has one model: each bulk call joins the carryover queue of
its group (the row, or the row's host), which holds at most
``queue_cap`` work, serves ``service`` work per tick FIFO, and admits a
tick's calls as a prefix in caller order (DESIGN.md section 4j).

The *escalation boundary* is where the bulk world meets the rich-object
path.  Any id the scenario actually touches -- a call on a designated
"interesting" id, a fault on its host, a rebind, a clone -- is promoted
out of the frame: its columns are snapshotted, a rich twin takes over,
and subsequent calls to it run through the ordinary per-object machinery.
When it goes quiet it is demoted back: the twin's state folds onto the
*same* dense id (the allocator never recycles ids, so trace identities
survive the round trip).

The boundary is pluggable.  With ``boundary=None`` the engine carries
twins as plain per-id Python dicts -- the smallest possible rich-object
path, used by the reference/differential tests.  The live boundary in
:mod:`repro.megascale.scenario` backs each twin with a real Legion object
and routes escalated calls through ``runtime.invoke``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.errors import LegionError
from repro.megascale.frame import BULK, PROMOTED, StateFrame

#: A group's queue cap, in ticks of its service: E15's and E18's mega
#: arms both bound their carryover queues at this many ticks of work.
QCAP_TICKS = 4

#: Slack when comparing accumulated work: float costs add up inexactly.
EPS = 1e-9


@dataclass
class TickOutcome:
    """One tick's accounting (all logical calls, not wire messages)."""

    tick: int
    issued: int = 0
    admitted: int = 0
    bulk_served: int = 0
    escalated: int = 0
    shed: int = 0
    #: Work each group served this tick (numpy array over groups).
    served_work: Any = None


@dataclass
class EngineLedger:
    """Cumulative settlement ledger for one engine run.

    The identity mirrors the runtime's: every issued logical call must be
    accounted for -- served frame-at-once, served by a rich twin after
    escalation, or shed at admission (queued calls are still pending).
    """

    issued: int = 0
    admitted: int = 0
    bulk_completed: int = 0
    escalated_issued: int = 0
    escalated_completed: int = 0
    shed: int = 0
    promotions: int = 0
    demotions: int = 0
    fault_promotions: int = 0
    promoted_by_fault: List[int] = field(default_factory=list)

    def settled(self) -> bool:
        """issued == bulk + escalated + shed, with no escalation pending."""
        return (
            self.issued
            == self.bulk_completed + self.escalated_completed + self.shed
            and self.escalated_issued == self.escalated_completed
        )


class BulkEngine:
    """Vectorised transitions for the bulk band + the escalation boundary.

    ``hot_ids`` are the scenario's standing "interesting set": calls to
    them always escalate.  ``group``, ``queue_cap`` and ``service`` set
    the admission model (module docstring); ``None`` leaves the cap or
    the service unbounded.  ``per_tick_limit=L`` is shorthand for
    ``group="row", queue_cap=L, service=L``.  Shed calls are tallied --
    the settlement identity keeps its ``+ shed`` term.
    """

    def __init__(
        self,
        frame: StateFrame,
        hot_ids=(),
        per_tick_limit: Optional[int] = None,
        boundary=None,
        demote_after: int = 3,
        *,
        group: str = "row",
        queue_cap: Optional[float] = None,
        service: Optional[float] = None,
    ) -> None:
        if group not in ("row", "host"):
            raise LegionError(f"group must be 'row' or 'host', got {group!r}")
        if per_tick_limit is not None:
            queue_cap = service = per_tick_limit
        self.np = frame.np
        self.frame = frame
        self.boundary = boundary
        self.group = group
        self.queue_cap = queue_cap
        self.service = service
        self.demote_after = int(demote_after)
        self.ledger = EngineLedger()
        self.hot = self.np.zeros(frame.size, dtype=bool)
        for i in hot_ids:
            self.hot[i] = True
        #: Admitted, unserved work per group (rows, or host slots).
        self.backlog = self.np.zeros(frame.size if group == "row" else frame.n_hosts)
        #: Costed calls complete one by one: each queued one keeps its
        #: group and the work ahead of it, itself included.
        self._costed = False
        self._pending_group = self.np.empty(0, dtype=self.np.int64)
        self._pending_work = self.np.empty(0)
        #: promoted id → last tick a call touched it (drives demotion).
        self._last_touch: Dict[int, int] = {}
        #: promoted id → dict twin (only when no live boundary is set).
        self._twins: Dict[int, Dict[str, int]] = {}

    # ------------------------------------------------------------------ kernels

    def tick(self, tick: int, targets, costs=None) -> TickOutcome:
        """Apply one tick's calls: bulk frame-at-once, the rest escalated.

        ``costs`` optionally gives each call's work (default 1 each).
        The queues are served even when ``targets`` is empty, so empty
        ticks drain the backlog.
        """
        np = self.np
        frame = self.frame
        t = np.asarray(targets, dtype=np.int64)
        out = TickOutcome(tick=tick, issued=int(t.size))
        self.ledger.issued += out.issued
        if bool((t >= frame.size).any()) or bool((t < 0).any()):
            raise LegionError("tick: target id out of range")
        if costs is not None:
            costs = np.asarray(costs, dtype=float)
            if costs.shape != t.shape:
                raise LegionError("tick: costs must match targets one to one")

        escalate_mask = self.hot[t] | (frame.state[t] != BULK)
        if not bool(escalate_mask.all()):
            bulk = ~escalate_mask
            self._admit(t[bulk], None if costs is None else costs[bulk], out)
        self._serve(out)

        # --- the escalated set: promote on first touch, then call rich.
        esc_targets = t[escalate_mask]
        for i in esc_targets.tolist():
            self._escalated_call(int(i), tick)
        out.escalated = int(esc_targets.size)
        return out

    def _admit(self, rows, costs, out: TickOutcome) -> None:
        """Admit a prefix of each group's calls, in caller order; shed the rest."""
        np = self.np
        frame = self.frame
        costed = costs is not None
        if costed != self._costed:
            if bool(self.backlog.any()):
                raise LegionError(
                    "tick: costed and unit-cost calls cannot share a queue; "
                    "drain it first"
                )
            self._costed = costed
        if not costed and self.service is not None and self.service != int(self.service):
            raise LegionError("tick: unit-cost calls need a whole-number service")
        n = rows.size
        groups = rows if self.group == "row" else frame.host[rows].astype(np.int64)
        # Group the calls, keeping caller order within each group: the
        # composite keys are distinct, so a plain sort is a stable one.
        keys = np.sort(groups * n + np.arange(n, dtype=np.int64))
        order, g = keys % n, keys // n
        step = costs[order] if costed else np.ones(n)
        work = np.cumsum(step)
        starts = np.flatnonzero(np.r_[True, g[1:] != g[:-1]])
        before = np.repeat(np.r_[0.0, work[starts[1:] - 1]], np.diff(np.r_[starts, n]))
        # Work queued in the group up to and including each call.
        ahead = self.backlog[g] + (work - before)
        if self.queue_cap is None:
            ok = np.ones(n, dtype=bool)
        else:
            ok = ahead <= self.queue_cap + EPS
        np.add.at(self.backlog, g[ok], step[ok])
        if costed:
            self._pending_group = np.r_[self._pending_group, g[ok]]
            self._pending_work = np.r_[self._pending_work, ahead[ok]]

        sorted_rows = rows[order]
        admitted, shed = sorted_rows[ok], sorted_rows[~ok]
        np.add.at(frame.value, admitted, 1)
        np.add.at(frame.calls, admitted, 1)
        frame.class_calls += np.bincount(frame.klass[admitted], minlength=frame.n_classes)
        if shed.size:
            np.add.at(frame.shed, shed, 1)
            frame.class_sheds += np.bincount(frame.klass[shed], minlength=frame.n_classes)
        out.admitted = int(admitted.size)
        out.shed = int(shed.size)
        self.ledger.admitted += out.admitted
        self.ledger.shed += out.shed

    def _serve(self, out: TickOutcome) -> None:
        """Every group serves its queue FIFO, up to ``service`` work."""
        np = self.np
        if self.service is None:
            served = self.backlog.copy()
        else:
            served = np.minimum(self.backlog, self.service)
        self.backlog -= served
        if self._costed:
            self._pending_work -= served[self._pending_group]
            left = self._pending_work > EPS
            out.bulk_served = int(left.size - left.sum())
            self._pending_group = self._pending_group[left]
            self._pending_work = self._pending_work[left]
        else:
            out.bulk_served = int(served.sum())
        out.served_work = served
        self.ledger.bulk_completed += out.bulk_served

    def _escalated_call(self, i: int, tick: int) -> None:
        """Route one call through the rich-object path (promoting first)."""
        if int(self.frame.state[i]) != PROMOTED:
            self._promote([i], reason="touch")
        self._last_touch[i] = tick
        self.ledger.escalated_issued += 1
        if self.boundary is not None:
            self.boundary.call(i)
        else:
            twin = self._twins[i]
            twin["value"] += 1
            self.note_escalated_done(i)

    def note_escalated_done(self, i: int) -> None:
        """One escalated call settled on the rich side; close the ledger."""
        self.ledger.escalated_completed += 1
        self.frame.class_calls[int(self.frame.klass[i])] += 1

    # --------------------------------------------------------------- promotion

    def _promote(self, ids: List[int], reason: str) -> None:
        snapshots = self.frame.promote(ids)
        self.ledger.promotions += len(snapshots)
        if reason == "fault":
            self.ledger.fault_promotions += len(snapshots)
            self.ledger.promoted_by_fault.extend(int(i) for i in ids)
        if self.boundary is not None:
            self.boundary.promote(snapshots, reason=reason)
        else:
            for snap in snapshots:
                self._twins[snap["id"]] = {"value": snap["value"]}

    def demote_idle(self, tick: int) -> int:
        """Fold quiet twins back into the frame; returns how many."""
        idle = sorted(
            i
            for i, last in self._last_touch.items()
            if tick - last >= self.demote_after
        )
        for i in idle:
            self._demote(i)
        return len(idle)

    def demote_all(self) -> int:
        """End-of-run drain: every twin folds back (reporting needs it)."""
        promoted = sorted(self._last_touch)
        for i in promoted:
            self._demote(i)
        return len(promoted)

    def _demote(self, i: int) -> None:
        home = int(self.frame.host[i])
        if not bool(self.frame.host_up[home]):
            home = self._surviving_host()
        if self.boundary is not None:
            value = self.boundary.demote(i)
        else:
            value = self._twins.pop(i)["value"]
        self.frame.demote(i, value=value, host=home)
        self._last_touch.pop(i, None)
        self.ledger.demotions += 1

    def _surviving_host(self) -> int:
        np = self.np
        up = np.nonzero(self.frame.host_up)[0]
        if up.size == 0:
            raise LegionError("no surviving host to re-home a demoted row")
        return int(up[0])

    # ------------------------------------------------------------------- chaos

    def crash_host(self, host_id: int) -> List[int]:
        """A bulk-backed host dies: promote *exactly* the affected ids.

        The bulk rows occupying the crashed host's slots are the blast
        radius -- each one is promoted into the rich-object path (the
        frame snapshot is its checkpoint, exactly the magistrate/OPR
        recovery shape), and nothing else moves bands.  Returns the
        promoted ids, in dense-id order.
        """
        affected = self.frame.bulk_ids_on_host(host_id).tolist()
        self.frame.crash_host(host_id)
        if affected:
            self._promote([int(i) for i in affected], reason="fault")
            for i in affected:
                self._last_touch.setdefault(int(i), 0)
        return [int(i) for i in affected]

    def restore_host(self, host_id: int) -> None:
        """Bring the host back; demotion may re-home rows onto it again."""
        self.frame.restore_host(host_id)

    # --------------------------------------------------------------- reporting

    def promoted_ids(self) -> List[int]:
        """Currently promoted ids, in dense-id order."""
        return sorted(self._last_touch)

    def settled(self) -> bool:
        """The engine-side settlement identity (shed term included)."""
        return self.ledger.settled()
