"""Fixed reference kernels that measure how fast the host runs right now.

The benchmark's host runs the same code at very different speeds from one
second to the next: slow and fast stretches last from seconds to minutes,
and the process's CPU time tracks its wall time through them, so it is
slower execution, not lost CPU.  Timing a reference kernel just before and
just after each measured unit gives that unit's host speed, and the runner
scales the unit's host seconds by it (see ``run.py``).

The kernels are the benchmark's own code and import nothing from the
program, so no change to the program can change them.  There are two,
because the host's slow stretches do not slow all code alike, and a
kernel tracks a workload only if it does the same kind of work:

* ``events`` does what the rich-object simulator does: a heap-ordered
  event loop resuming generator processes, messages routed through dicts
  to small objects, a little string formatting.
* ``arrays`` does what the columnar backend's ``BulkEngine.tick`` does:
  a gather by a target array, a ``bincount`` over a population of about a
  million, a clip, in-place adds over the population, a weighted
  ``bincount`` by class.
"""

from __future__ import annotations

import functools
import heapq
import time

import numpy as np

#: Seconds one sample of each kernel takes at the nominal speed: about its
#: typical time on a 2-CPU virtual machine (Intel Xeon, 2.1 GHz).  A
#: region timed while the host ran a kernel in its nominal time keeps its
#: host seconds.
NOMINAL_S = {"events": 0.040, "arrays": 0.040}
#: Events the ``events`` kernel executes per sample.
EVENTS = 12_000
#: Rows of the ``arrays`` kernel's population, and passes per sample.
POPULATION = 1 << 20
PASSES = 3


class _Message:
    def __init__(self, src, dst, body):
        self.src = src
        self.dst = dst
        self.body = body


class _Node:
    def __init__(self, name):
        self.name = name
        self.state = {}

    def handle(self, msg):
        key = msg.body["key"]
        self.state[key] = self.state.get(key, 0) + msg.body["value"]
        return {"key": key, "value": self.state[key], "from": self.name}


def _process(pid, route, send):
    """A client process: each resume takes a reply and sends one request."""
    k = pid
    while True:
        k = (k * 1103515245 + 12345) & 0x7FFFFFFF
        reply = yield send(pid, route[k % len(route)], {"key": k % 64, "value": k & 7})
        k += reply["value"]


def _event_loop() -> None:
    nodes = {f"node{i}": _Node(f"node{i}") for i in range(16)}
    route = list(nodes)
    queue = []
    seq = 0
    now = 0.0
    procs = {}
    labels = {}

    def send(pid, dst, body):
        nonlocal seq
        seq += 1
        heapq.heappush(queue, (now + 1.0 + (seq % 7) * 0.25, seq, _Message(pid, dst, body)))

    for pid in range(32):
        procs[pid] = _process(pid, route, send)
        next(procs[pid])
    for _ in range(EVENTS):
        now, _seq, msg = heapq.heappop(queue)
        reply = nodes[msg.dst].handle(msg)
        labels[f"{msg.src}:{reply['key']}"] = reply["value"]
        procs[msg.src].send(reply)


@functools.cache
def _array_inputs():
    """The ``arrays`` kernel's inputs: scattered target ids (one per ten
    rows) and a class column.  Built on first use, in the sample before a
    run's warm-up unit, so that only the workload that uses them carries
    them in its peak memory."""
    targets = (np.arange(POPULATION // 10, dtype=np.int64) * 2654435761) % POPULATION
    return targets, np.arange(POPULATION, dtype=np.int64) % 16


def _array_passes() -> None:
    all_targets, klass = _array_inputs()
    value = np.zeros(POPULATION, dtype=np.int64)
    for _ in range(PASSES):
        targets = all_targets[value[all_targets] >= 0]
        served = np.minimum(np.bincount(targets, minlength=POPULATION), 3)
        value += served
        np.bincount(klass, weights=served, minlength=16)


_KERNELS = {"events": _event_loop, "arrays": _array_passes}


def sample(kernel: str) -> float:
    """Seconds one pass of ``kernel`` ("events" or "arrays") takes now."""
    run = _KERNELS[kernel]
    started = time.perf_counter()
    run()
    return time.perf_counter() - started
