"""Measurement primitives: percentiles, /proc accounting, the tracer.

The tracer is an exclusive-time profiler keyed by *layer label*.  At any
instant exactly one label is current; every transition (a wrapped call
entered or left, an asyncio task resumed or suspended) charges the time
since the previous transition to the label that was current.  A layer's
self time is therefore measured directly — its duration minus whatever
ran inside it — and stays right when a wrapped coroutine awaits and
other tasks run in between, because each task carries its own label
stack.  Raw spans ``(name, start, end, parent, op)`` are kept in memory
(capped) and written out once, after the run.
"""

from __future__ import annotations

import asyncio
import collections.abc
import json
import os
import time
from collections import defaultdict
from typing import Iterable, Optional

__all__ = [
    "percentile",
    "ProcessMeter",
    "Tracer",
    "IDLE",
    "DRIVER",
]

#: Label charged while the event loop is between task steps: selector
#: wait, transport read callbacks, loop bookkeeping.  Not attributed.
IDLE = "asyncio.loop"
#: Label of the benchmark's own driver code.  Not attributed.
DRIVER = "bench.driver"

_SPAN_CAP = 50_000
_CLK_TCK = os.sysconf("SC_CLK_TCK")


def percentile(values: Iterable[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of a non-empty sample."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(1, -(-len(ordered) * q // 100))  # ceil without float error
    return ordered[min(len(ordered), int(rank)) - 1]


class ProcessMeter:
    """CPU seconds and peak RSS of this process plus its SUT children.

    Children are named explicitly (the worker host's pid, the pipe
    workers) so work moved into another process still shows up in
    ``cpu_ms_per_op``; a child that already exited contributes what it
    had when last sampled.
    """

    def __init__(self) -> None:
        self._pids: list[int] = [os.getpid()]
        self._last_cpu: dict[int, float] = {}
        self._last_hwm: dict[int, float] = {}

    def watch(self, pid: int) -> None:
        if pid not in self._pids:
            self._pids.append(pid)

    def cpu_seconds(self) -> float:
        """User + system CPU of every watched process so far.

        This process reads its own clock; a child's threads are summed
        from ``/proc/<pid>/task/*/schedstat`` (nanoseconds on a CPU), or
        from ``/proc/<pid>/stat`` (clock ticks) where the kernel keeps no
        scheduler statistics.
        """
        for pid in self._pids[1:]:
            try:
                self._last_cpu[pid] = _child_cpu_seconds(pid)
            except (OSError, IndexError, ValueError):
                pass  # gone: keep what it had when last sampled
        return time.process_time() + sum(self._last_cpu.values())

    def peak_rss_mb(self) -> float:
        """Sum of ``VmHWM`` over every watched process, in MB."""
        for pid in self._pids:
            try:
                with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
                    for line in handle:
                        if line.startswith("VmHWM:"):
                            self._last_hwm[pid] = int(line.split()[1]) / 1024.0
                            break
            except (OSError, ValueError):
                pass
        return sum(self._last_hwm.values())


def _child_cpu_seconds(pid: int) -> float:
    try:
        total = 0
        for task in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{task}/schedstat", "rb") as handle:
                total += int(handle.read().split()[0])
        return total / 1e9
    except FileNotFoundError:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            # comm may contain spaces; fields resume after ')'.
            fields = handle.read().rsplit(b")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLK_TCK


class Tracer:
    """Exclusive-time accounting per layer label, plus capped raw spans."""

    def __init__(self, root: str = DRIVER):
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.spans: list[tuple] = []
        self.dropped_spans = 0
        self._root_stack = [root]
        self._stack = self._root_stack
        self._last = time.perf_counter()

    # -- wrapped calls ------------------------------------------------------------

    def enter(self, name: str) -> float:
        now = time.perf_counter()
        stack = self._stack
        self.self_s[stack[-1]] += now - self._last
        self._last = now
        stack.append(name)
        return now

    def exit(self, started: float, op=None) -> float:
        now = time.perf_counter()
        stack = self._stack
        name = stack.pop()
        self.self_s[name] += now - self._last
        self._last = now
        self.calls[name] += 1
        if len(self.spans) < _SPAN_CAP:
            self.spans.append((name, started, now, stack[-1], op))
        else:
            self.dropped_spans += 1
        return now - started

    # -- asyncio task steps ---------------------------------------------------------

    def install(self, loop: asyncio.AbstractEventLoop, labels: dict[str, str]) -> None:
        """Time every task step on ``loop``, labelled by coroutine name.

        ``labels`` maps a coroutine ``__qualname__`` to a layer label;
        tasks running anything else are charged to the driver.  With the
        factory installed the loop itself becomes the root label: time
        between steps is the loop's, not the driver's.
        """
        self._root_stack[0] = IDLE

        def factory(loop, coro, **kwargs):
            label = labels.get(getattr(coro, "__qualname__", ""), DRIVER)
            return asyncio.Task(_TimedCoroutine(coro, self, label), loop=loop, **kwargs)

        loop.set_task_factory(factory)

    def _resume(self, stack: list) -> None:
        now = time.perf_counter()
        self.self_s[self._stack[-1]] += now - self._last
        self._last = now
        self._stack = stack

    def _suspend(self) -> None:
        now = time.perf_counter()
        self.self_s[self._stack[-1]] += now - self._last
        self._last = now
        self._stack = self._root_stack

    # -- reading --------------------------------------------------------------------

    def snapshot(self) -> dict[str, float]:
        """Self seconds per label so far (charges the running label first)."""
        now = time.perf_counter()
        self.self_s[self._stack[-1]] += now - self._last
        self._last = now
        return dict(self.self_s)

    def write(self, path: str, extra: Optional[dict] = None) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        payload = {
            "self_seconds": dict(self.self_s),
            "calls": dict(self.calls),
            "dropped_spans": self.dropped_spans,
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p, "op": op}
                for n, s, e, p, op in self.spans
            ],
        }
        payload.update(extra or {})
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


class _TimedCoroutine(collections.abc.Coroutine):
    """A coroutine proxy that reports each step to the tracer.

    ``asyncio.Task`` drives any ``collections.abc.Coroutine`` through
    ``send``/``throw``; wrapping those two calls times exactly the
    stretches in which the task's code holds the thread.
    """

    __slots__ = ("_coro", "_tracer", "_stack")

    def __init__(self, coro, tracer: Tracer, label: str):
        self._coro = coro
        self._tracer = tracer
        self._stack = [label]

    def send(self, value):
        self._tracer._resume(self._stack)
        try:
            return self._coro.send(value)
        finally:
            self._tracer._suspend()

    def throw(self, *exc_info):
        self._tracer._resume(self._stack)
        try:
            return self._coro.throw(*exc_info)
        finally:
            self._tracer._suspend()

    def close(self):
        return self._coro.close()

    def __await__(self):
        return self._coro.__await__()
