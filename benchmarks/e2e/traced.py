"""Traced twins of the public objects the benchmark constructs.

The ``--trace`` run builds these instead of the plain classes; each
override brackets one public call with the tracer and defers to the real
method, so the system's behaviour is untouched and the untraced run pays
nothing.  No file under ``src/`` knows about tracing.
"""

from __future__ import annotations

from repro.core.engine import XCQLEngine
from repro.fragments.persist import Journal
from repro.streams import net
from repro.streams.scheduler import QueryScheduler
from repro.streams.sharding import ShardedEngine

from benchmarks.e2e.measure import Tracer

__all__ = [
    "TASK_LABELS",
    "TracedJournal",
    "TracedServer",
    "TracedEngine",
    "TracedScheduler",
    "TracedShardedEngine",
]

#: Coroutine ``__qualname__`` -> layer label for asyncio task steps.  The
#: names are the transport's task entry points; a renamed coroutine falls
#: back to the driver label and shows up as a drop in
#: ``pipeline.attributed_share``.
TASK_LABELS = {
    "StreamServer._handle": "streams.net.server_ingest",
    "_Outbox.run": "streams.net.outbox_write",
    "_Outbox.flush": "streams.net.outbox_flush",
    "StreamClient._run": "streams.net.client_recv",
}


class TracedJournal(Journal):
    def __init__(self, path, tracer: Tracer):
        super().__init__(path)
        self._tracer = tracer

    def record(self, message) -> None:
        started = self._tracer.enter("fragments.persist.record")
        try:
            super().record(message)
        finally:
            self._tracer.exit(started)


class TracedServer(net.StreamServer):
    """Also remembers when each seq was published (for ``hop_ms``)."""

    def __init__(self, *args, tracer: Tracer, **kwargs):
        super().__init__(*args, **kwargs)
        self._tracer = tracer
        self.published_at: dict[int, float] = {}

    async def publish(self, message) -> int:
        started = self._tracer.enter("streams.net.publish")
        seq = 0
        try:
            seq = await super().publish(message)
            self.published_at[seq] = started
            return seq
        finally:
            self._tracer.exit(started, op=seq)


class TracedEngine(XCQLEngine):
    def __init__(self, *args, tracer: Tracer, **kwargs):
        super().__init__(*args, **kwargs)
        self._tracer = tracer

    def deliver(self, message) -> int:
        started = self._tracer.enter("core.engine.deliver")
        try:
            return super().deliver(message)
        finally:
            self._tracer.exit(started)

    def feed_raw(self, name, payloads, chunk_size: int = 4096) -> int:
        started = self._tracer.enter("core.engine.feed_raw")
        try:
            return super().feed_raw(name, payloads, chunk_size)
        finally:
            self._tracer.exit(started)

    def execute(self, query, *args, **kwargs) -> list:
        started = self._tracer.enter("core.engine.execute")
        try:
            return super().execute(query, *args, **kwargs)
        finally:
            self._tracer.exit(started)


class TracedScheduler(QueryScheduler):
    """Also samples the automaton host's capture buffer before each poll."""

    def __init__(self, engine, tracer: Tracer):
        super().__init__(engine)
        self._tracer = tracer
        self._host = engine.automaton_host
        self.buffered_peak = 0

    def poll(self, now) -> dict:
        buffered = self._host.stats()["buffered"]
        if buffered > self.buffered_peak:
            self.buffered_peak = buffered
        started = self._tracer.enter("streams.scheduler.poll")
        try:
            return super().poll(now)
        finally:
            self._tracer.exit(started)


class TracedShardedEngine(ShardedEngine):
    def __init__(self, *args, tracer: Tracer, **kwargs):
        self._tracer = tracer
        super().__init__(*args, **kwargs)

    def feed_raw(self, name, payloads) -> int:
        started = self._tracer.enter("streams.sharding.dispatch")
        try:
            return super().feed_raw(name, payloads)
        finally:
            self._tracer.exit(started)

    def tick(self, now=None) -> dict:
        started = self._tracer.enter("streams.sharding.tick")
        try:
            return super().tick(now)
        finally:
            self._tracer.exit(started)
