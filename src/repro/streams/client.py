"""The stream client: ingest fragments, run continuous queries (paper §1).

A client registers with a server's channel once, then receives everything
pushed on it — no per-query registration with the server, no feedback.  All
received fillers land in the client's :class:`XCQLEngine` stores, where any
number of continuous queries evaluate over them, scheduled by the
client's own :class:`~repro.streams.scheduler.QueryScheduler`.
"""

from __future__ import annotations

from typing import Optional

from repro.core.engine import XCQLEngine
from repro.fragments.store import FragmentStore
from repro.streams.clock import Clock, SimulatedClock
from repro.streams.continuous import ContinuousQuery
from repro.streams.scheduler import QueryScheduler
from repro.streams.transport import FILLER, TAG_STRUCTURE, Channel, Message
from repro.core.translator import Strategy

__all__ = ["StreamClient"]


class StreamClient:
    """A client that tunes in to one or more broadcast channels.

    The client owns an :class:`XCQLEngine`; each stream it hears about
    (via the Tag Structure announcement) gets a fragment store inside the
    engine.  Continuous queries registered on the client are re-evaluated
    by its :attr:`scheduler` (paper §8) when an arrival or the clock can
    have changed their answer, and push *new* results to their
    subscribers.
    """

    def __init__(self, clock: Optional[Clock] = None):
        self.clock = clock or SimulatedClock()
        self.engine = XCQLEngine()
        self.queries: list[ContinuousQuery] = []
        # Watches the engine, which announces every accepted arrival —
        # delivered by a channel or fed straight in (replayed snapshots).
        self.scheduler = QueryScheduler(self.engine)
        self.received_fillers = 0
        self.received_bytes = 0
        self._pending = 0

    # -- tuning in -----------------------------------------------------------------

    def tune_in(self, channel: Channel) -> None:
        """Subscribe to a channel (the one-time pull-based registration)."""
        channel.subscribe(self._on_message)

    def _on_message(self, message: Message) -> None:
        """Hand a channel message to :meth:`XCQLEngine.deliver`.

        Two guards sit in front of it: a filler heard before its stream's
        Tag Structure is dropped (nothing can place it yet), and a
        repeated Tag Structure announcement does not re-register.
        """
        known = message.stream in self.engine.stores
        if message.kind == TAG_STRUCTURE:
            if not known:
                self.engine.deliver(message)
        elif message.kind == FILLER and known:
            added = self.engine.deliver(message)
            self.received_fillers += added
            self.received_bytes += added * message.wire_size
            self._pending += added

    # -- continuous queries -----------------------------------------------------------

    def register_query(
        self,
        source: str,
        strategy: Strategy = Strategy.QAC,
        emit: str = "delta",
    ) -> ContinuousQuery:
        """Register a continuous XCQL query on this client."""
        query = ContinuousQuery(self.engine, source, strategy=strategy, emit=emit)
        self.queries.append(query)
        self.scheduler.add(query)
        return query

    def poll(self) -> dict[ContinuousQuery, list]:
        """Re-evaluate continuous queries at the current clock time.

        Returns each query's newly emitted results.  Call after arrivals
        and/or clock advances (window queries can fire on time alone).
        Queries whose dependencies saw no new fragments (and whose
        windows cannot have moved) are skipped: they emit ``[]``.
        """
        self._pending = 0
        return self.scheduler.poll(self.clock.now())

    @property
    def has_pending_arrivals(self) -> bool:
        """True when fillers arrived since the last poll."""
        return self._pending > 0

    def store_of(self, stream: str) -> FragmentStore:
        """The fragment store of a stream this client has heard."""
        return self.engine.stores[stream]
