"""Spans and counts recorded around each layer's public entry points.

The benchmark does not rely on the program's own tracer: inside a
``with Instrumentation(recorder):`` block the entry points
:func:`_entry_points` lists are wrapped on their classes (or modules) and
record one span per call -- name, start, end, parent; leaving the block
puts the originals back.  Objects keep whichever version was installed
when they captured it, so the block must cover the set-up as well as the
measured unit.  ``LegionRuntime.invoke``
returns a generator, so its span is taken around every resume of that
generator rather than around the call that creates it.

Self time is a span's duration minus the time its direct children
cover; it is accumulated per span name as spans close.  The first
``keep`` spans are also kept as records for :meth:`SpanRecorder.dump`.
"""

from __future__ import annotations

import functools
import json
import time
from typing import Dict, List, Tuple


class Totals:
    """Per-name span totals and counters over one stretch of a run."""

    def __init__(self, totals: Dict[str, List[int]], counters: Dict[str, int]) -> None:
        self._totals = totals
        self._counters = counters

    def calls(self, name: str) -> int:
        return self._totals.get(name, (0, 0, 0))[0]

    def total_s(self, name: str) -> float:
        return self._totals.get(name, (0, 0, 0))[1] / 1e9

    def self_s(self, name: str) -> float:
        return self._totals.get(name, (0, 0, 0))[2] / 1e9

    def counter(self, name: str) -> int:
        return self._counters.get(name, 0)


class SpanRecorder:
    """A stack of open spans plus per-name totals of closed ones."""

    def __init__(self, keep: int = 20_000) -> None:
        #: Span records kept for :meth:`dump` (the first ``keep`` spans).
        self.keep = keep
        self.records: List[Tuple[int, str, int, int, int]] = []
        self.clock = time.perf_counter_ns
        #: open spans: [id, name, start ns, child ns, parent id]
        self._stack: List[list] = []
        self._next_id = 1
        #: name -> [calls, total ns, self ns]
        self._totals: Dict[str, List[int]] = {}
        self._counters: Dict[str, int] = {}

    def take(self) -> Totals:
        """The totals since the last take; starts a new stretch."""
        taken = Totals(self._totals, self._counters)
        self._totals, self._counters = {}, {}
        return taken

    def begin(self, name: str) -> list:
        stack = self._stack
        parent = stack[-1][0] if stack else 0
        span = [self._next_id, name, self.clock(), 0, parent]
        self._next_id += 1
        stack.append(span)
        return span

    def end(self, span: list) -> None:
        now = self.clock()
        stack = self._stack
        stack.pop()
        span_id, name, start, child, parent = span
        duration = now - start
        if stack:
            stack[-1][3] += duration
        total = self._totals.get(name)
        if total is None:
            total = self._totals[name] = [0, 0, 0]
        total[0] += 1
        total[1] += duration
        total[2] += duration - child
        if len(self.records) < self.keep:
            self.records.append((span_id, name, start, now, parent))

    def count(self, name: str, amount: int = 1) -> None:
        self._counters[name] = self._counters.get(name, 0) + amount

    def dump(self, path: str) -> None:
        """Write the kept span records as JSON lines."""
        with open(path, "w") as fh:
            for span_id, name, start, end, parent in self.records:
                fh.write(
                    json.dumps(
                        {"id": span_id, "name": name, "start_ns": start,
                         "end_ns": end, "parent": parent}
                    )
                )
                fh.write("\n")


def _wrap_call(recorder: SpanRecorder, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = recorder.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.end(span)

    return wrapper


def _timed_resumes(recorder: SpanRecorder, name: str, gen):
    """Delegate to ``gen``, with one span around each of its resumes."""
    value, error = None, None
    while True:
        span = recorder.begin(name)
        try:
            if error is None:
                item = gen.send(value)
            else:
                item = gen.throw(error)
        except StopIteration as stop:
            return stop.value
        finally:
            recorder.end(span)
        try:
            value, error = (yield item), None
        except BaseException as exc:  # forwarded into gen, which decides
            value, error = None, exc


def _wrap_generator(recorder: SpanRecorder, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        recorder.count(name)
        return _timed_resumes(recorder, name, fn(*args, **kwargs))

    return wrapper


def _wrap_mayi(recorder: SpanRecorder, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = recorder.begin(name)
        try:
            allowed = fn(*args, **kwargs)
        finally:
            recorder.end(span)
        if not allowed:
            recorder.count("security.denied")
        return allowed

    return wrapper


def _entry_points():
    """(owner, attribute, span name, wrapper factory) for every layer."""
    import repro.scenarios as scenarios
    from repro.core.runtime import LegionRuntime
    from repro.core.server import ObjectServer
    from repro.flow.admission import AdmissionController
    from repro.health.governor import Governor
    from repro.megascale.engine import BulkEngine
    from repro.net.network import Network
    from repro.security import mayi
    from repro.simkernel.kernel import SimKernel
    from repro.system.legion import LegionSystem

    points = [
        (SimKernel, "run", "simkernel.run", _wrap_call),
        (SimKernel, "run_until_complete", "simkernel.run", _wrap_call),
        (Network, "send", "net.send", _wrap_call),
        (LegionRuntime, "invoke", "core.invoke", _wrap_generator),
        (ObjectServer, "handle_message", "core.dispatch", _wrap_call),
        (AdmissionController, "arrive", "flow.arrive", _wrap_call),
        (Governor, "poll", "health.poll", _wrap_call),
        (scenarios, "compile_events", "scenarios.compile", _wrap_call),
        (scenarios, "deploy", "scenarios.deploy", _wrap_call),
        (LegionSystem, "build", "system.build", _wrap_call),
        (BulkEngine, "tick", "megascale.tick", _wrap_call),
    ]
    # Every MayI policy class that implements its own check.
    for policy in vars(mayi).values():
        if (
            isinstance(policy, type)
            and issubclass(policy, mayi.MayIPolicy)
            and "may_i" in vars(policy)
        ):
            points.append((policy, "may_i", "security.mayi", _wrap_mayi))
    return points


class Instrumentation:
    """Installs the wrappers on entry and restores the originals on exit."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._saved: list = []

    def __enter__(self) -> SpanRecorder:
        for owner, attr, name, factory in _entry_points():
            raw = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(factory(self.recorder, name, raw.__func__)))
            else:
                setattr(owner, attr, factory(self.recorder, name, raw))
        return self.recorder

    def __exit__(self, *exc) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()
