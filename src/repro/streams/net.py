"""Asyncio network transport: framed broadcast over real sockets.

The paper's dissemination model is radio-like multicast — servers push,
clients cannot request retransmission, and a late or lossy client's only
recovery path is stored history.  This module carries that model onto
real sockets:

- :class:`StreamServer` accepts producer and subscriber connections,
  stamps every published envelope with its journal sequence number,
  coalesces each publisher burst into one wire batch per connection
  (:mod:`repro.streams.netproto` frames; no timer — a batch outgrows
  its burst only while the connection's writer is behind),
  tag-compresses batches past a threshold, and applies *bounded*
  per-connection backpressure — a slow consumer can block the producer,
  shed frames with a counter, or be disconnected, but never grows an
  unbounded queue;
- :class:`StreamClient` negotiates a protocol version, subscribes with
  optional per-``tsid`` routing predicates, catches up from the server's
  :class:`~repro.fragments.persist.Journal` replay (CATCHUP), and feeds
  received envelopes to an engine's raw-event ingest
  (:meth:`~repro.core.engine.XCQLEngine.deliver`) — payload bytes arrive
  exactly as published, even through compression, because the codec's
  streaming transcoder rewrites tag names in place
  (:meth:`~repro.streams.compression.TagCodec.compress_iter`).

The server's front door decides subscription predicates: a BATCH is
fanned out only to connections whose subscriptions can match the
arriving envelope — the ``(stream, tsid)`` dependency test, a
conservative supersede rule for non-event tags, and the routing
predicates decided while the envelope's wire text is tokenized
(:class:`~repro.streams.routing.DoorProbe`, one per ``(stream, tsid)``:
one pass per envelope, no DOM, and the pass stops reading once every
predicate sends).  It is one of the two places a predicate is decided
at run time; the other is the binding-tuple index of a scheduler's
group.

Catch-up sequence (the no-retransmission model's only recovery path)::

    client                          server
      | HELLO {versions}              |
      |------------------------------>|
      |          HELLO {version, seq} |
      |<------------------------------|
      | SUBSCRIBE {subs, catchup}     |   catchup: hold live traffic
      |------------------------------>|
      | CATCHUP {after}               |
      |------------------------------>|
      |     BATCH* (journal replay)   |   batched + compressed like live
      |<------------------------------|
      |     ACK {catchup, replayed}   |
      |<------------------------------|
      |     BATCH* (held live, live)  |
      |<------------------------------|

Replay and live traffic may overlap at the boundary; entries carry their
journal seq, so the client absorbs duplicates idempotently.

Catch-up replay is *predicate-narrowed*: each entry is judged with the
supersede answer the live door gave it (the server's one ledger, the seq
of each fragment's first counted version), so a ``RoutingPredicate``
subscription replays exactly what it would have been sent live —
non-matching and non-superseding entries are skipped (``replay_skipped``
counts them) instead of the old tsid-conservative flood.

The WORKER role (protocol v2)
-----------------------------

A server started with ``worker=True`` additionally hosts remote shards
for :class:`~repro.streams.sharding.ShardedEngine` coordinators: a v2
connection's DISPATCH/POLL/RESPAWN frames go to a per-connection
:class:`~repro.streams.sharding.ShardWorkerHost` through
:meth:`~repro.streams.sharding.ShardWorkerHost.serve` — the entry point
a pipe worker process and the in-process loopback call with the same
frames, since every shard link speaks this protocol.  Shard state is
connection-scoped (a reconnecting coordinator re-bootstraps from its
journal, exactly like respawning a dead pipe worker).  The role is pure
addition: subscribe/tail/feed traffic — including from v1-only peers,
which negotiate down and never see a WORKER frame — is served unchanged
on the same port.
"""

from __future__ import annotations

import asyncio
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from repro.core.optimizer import RoutingPredicate
from repro.fragments.persist import Journal
from repro.fragments.tagstructure import TagStructure, TagType
from repro.streams.compression import TagCodec
from repro.streams import netproto as proto
from repro.streams.netproto import FrameDecoder, ProtocolError
from repro.streams.routing import DoorProbe
from repro.streams.sharding import ShardWorkerHost
from repro.streams.transport import FILLER, TAG_STRUCTURE, Message, peek_filler

__all__ = [
    "StreamServer",
    "StreamClient",
    "Subscription",
    "run_worker",
    "BLOCK",
    "DROP",
    "DISCONNECT",
]

#: Slow-consumer policies (what happens when a subscriber's bounded send
#: queue is full at flush time).
BLOCK = "block"  # the producer's publish() awaits the queue slot
DROP = "drop"  # the batch is shed; ``dropped_frames`` counts it
DISCONNECT = "disconnect"  # the connection is closed

_POLICIES = frozenset({BLOCK, DROP, DISCONNECT})

_READ_CHUNK = 65536
_COMPRESS_SLICE = 4096
_NO_SKIPS: frozenset = frozenset()  # the door's verdict: every predicate sends


def _slices(text: str, size: int = _COMPRESS_SLICE):
    return (text[i : i + size] for i in range(0, len(text), size))


# -- subscriptions -----------------------------------------------------------------


@dataclass(frozen=True)
class Subscription:
    """One connection's interest: a stream, optionally narrowed.

    ``tsid`` limits delivery to envelopes of one Tag Structure node
    (``None`` = the whole stream); ``predicate`` is a compiled query's
    :class:`~repro.core.optimizer.RoutingPredicate`, probed per envelope
    at the server so frames that provably cannot match are never sent.
    """

    stream: str
    tsid: Optional[int] = None
    predicate: Optional[RoutingPredicate] = None

    def to_header(self) -> dict:
        entry: dict = {"stream": self.stream}
        if self.tsid is not None:
            entry["tsid"] = int(self.tsid)
        if self.predicate is not None:
            pred = self.predicate
            entry["predicate"] = {
                "tuple_tag": pred.tuple_tag,
                "path": list(pred.path),
                "attribute": pred.attribute,
                "text_only": pred.text_only,
                "op": pred.op,
                "value": pred.value,
                "numeric": pred.numeric,
                "single": pred.single,
            }
        return entry

    @classmethod
    def from_header(cls, entry: dict) -> "Subscription":
        stream = entry.get("stream")
        if not isinstance(stream, str) or not stream:
            raise ProtocolError("subscription without a stream name")
        tsid = entry.get("tsid")
        predicate = None
        raw = entry.get("predicate")
        if raw is not None:
            try:
                predicate = RoutingPredicate(
                    tuple_tag=raw["tuple_tag"],
                    path=tuple(raw["path"]),
                    attribute=raw.get("attribute"),
                    text_only=bool(raw.get("text_only")),
                    op=raw["op"],
                    value=raw["value"],
                    numeric=bool(raw.get("numeric")),
                    single=bool(raw.get("single")),
                )
            except (KeyError, TypeError) as exc:
                raise ProtocolError(f"malformed routing predicate: {exc}") from exc
        return cls(stream, None if tsid is None else int(tsid), predicate)


# -- fan-out cache ------------------------------------------------------------------


class _FanoutCache:
    """Share per-message work across a broadcast's N connections.

    Fan-out repeats identical work per subscriber: the same entries
    compress to the same bytes and encode to the same BATCH frame no
    matter which connection they are bound for.  Both memos are keyed by
    journal seq — a server stamps each payload with exactly one seq, so
    the key is a content key.  Entries without a real seq (producer FEED
    frames use 0) are never cached.  Both maps are capacity-capped and
    cleared wholesale on overflow: the hit window is one burst wide, so
    eviction precision is not worth bookkeeping on the hot path.
    """

    _CAP = 256

    def __init__(self) -> None:
        self._frames: dict = {}  # (stream, kind, compressed, seqs) -> frame
        self._payloads: dict = {}  # (stream, seq) -> compressed payload

    def frame(self, key: tuple) -> Optional[bytes]:
        return self._frames.get(key)

    def store_frame(self, key: tuple, frame: bytes) -> None:
        if len(self._frames) >= self._CAP:
            self._frames.clear()
        self._frames[key] = frame

    def compressed_payload(self, stream: str, seq: int, payload: str, codec: TagCodec) -> str:
        if seq <= 0:
            return "".join(codec.compress_iter(_slices(payload)))
        key = (stream, seq)
        hit = self._payloads.get(key)
        if hit is None:
            hit = "".join(codec.compress_iter(_slices(payload)))
            if len(self._payloads) >= self._CAP:
                self._payloads.clear()
            self._payloads[key] = hit
        return hit


# -- per-connection outbox ----------------------------------------------------------


class _Outbox:
    """A connection's batcher plus its bounded send queue.

    Batches are sized by backpressure, never by a clock.  The first
    entry of a batch schedules one flush for the end of the current
    event-loop turn, so everything a publisher produces before it next
    waits on its socket — a FEED frame's entries, every frame of one
    read chunk, a ``publish`` loop — rides one BATCH frame.  A
    connection that is keeping up (nothing queued, no write in flight)
    is flushed then and there: holding its batch any longer could only
    add latency, because nothing it is waiting for would make the frame
    cheaper.  A connection whose writer is *behind* keeps the batch
    pending instead; the writer loop cuts it the moment it frees, and
    ``max_batch_bytes`` of payload forces a frame into the queue
    meanwhile — batches grow exactly when the consumer is slower than
    the producer.  A stream or kind change flushes immediately, so
    frames never interleave messages and publish order is preserved.

    Entries leave ``_pending`` only at the instant their frame is
    queued, so order needs no lock: whoever cuts next cuts the oldest
    entries.  The queue holds *encoded frames* and is bounded
    (``queue_frames`` frames of up to ``max_batch_bytes`` each);
    overflow behavior is the slow-consumer policy.
    """

    def __init__(
        self,
        writer: asyncio.StreamWriter,
        *,
        max_batch_bytes: int,
        compress_threshold: Optional[int],
        queue_frames: int,
        policy: str,
        codec_of: Callable[[str], Optional[TagCodec]],
        on_overflow: Callable[[], None],
        cache: Optional[_FanoutCache] = None,
    ):
        self._writer = writer
        self._cache = cache
        self.max_batch_bytes = int(max_batch_bytes)
        self.compress_threshold = compress_threshold
        self.policy = policy
        self._codec_of = codec_of
        self._on_overflow = on_overflow
        self._queue: asyncio.Queue = asyncio.Queue(maxsize=int(queue_frames))
        self._room = asyncio.Event()  # BLOCK: the writer took a frame
        self._pending: list = []  # (seq, payload) entries
        self._pending_bytes = 0
        self._stream: Optional[str] = None
        self._kind: Optional[str] = None
        self._armed = False  # a turn-end flush is scheduled
        self._writing = False  # a frame is between the queue and the socket
        self._task: Optional[asyncio.Task] = None  # the writer loop
        self.frames_sent = 0
        self.bytes_sent = 0
        self.batches = 0
        self.compressed_batches = 0
        self.dropped_frames = 0
        self.dropped_entries = 0
        self.closed = False

    # append return codes: the caller owes no await, a flush() await, or
    # the full (awaited) enqueue path.
    APPENDED = 0
    FLUSH_DUE = 1
    BOUNDARY = 2

    def append(self, entry: tuple, size: int, stream: str, kind: str) -> int:
        """Batcher append without coroutine overhead (the fan-out hot path).

        The one place a batch grows and the one place a flush is
        scheduled.  Returns ``APPENDED`` (done), ``FLUSH_DUE`` (appended,
        batch full — the caller must ``await flush()``), or ``BOUNDARY``
        (NOT appended: a stream/kind change must flush the previous
        batch first — the caller must ``await enqueue(...)``).
        """
        if self._pending and (stream != self._stream or kind != self._kind):
            return self.BOUNDARY
        self._stream = stream
        self._kind = kind
        self._pending.append(entry)
        self._pending_bytes += size
        if self._pending_bytes >= self.max_batch_bytes:
            return self.FLUSH_DUE
        if not self._armed:
            self._armed = True
            asyncio.get_running_loop().call_soon(self._turn_end)
        return self.APPENDED

    async def enqueue(self, seq: int, message: Message) -> None:
        """Append one message, awaiting whatever flush the append owes."""
        while True:
            state = self.append(
                (seq, message.payload), message.wire_size, message.stream, message.kind
            )
            if state != self.APPENDED:
                await self.flush()
            if state != self.BOUNDARY:
                return  # else: the old batch is drained, re-try the append

    def _turn_end(self) -> None:
        """The publisher's burst is over: send, unless the writer is behind."""
        self._armed = False
        if self._pending and not self._writing and self._queue.empty():
            self._cut()

    async def flush(self) -> None:
        """Queue what is batched now; only a full ``BLOCK`` queue suspends."""
        await self._wait_room()
        self._cut()

    async def put_control(self, frame: bytes) -> None:
        """Send a control frame, flushing batched entries first (ordering)."""
        await self.flush()
        await self._wait_room()
        self._put(frame, 0)

    async def _wait_room(self) -> None:
        """``BLOCK`` is the one policy that waits for a queue slot."""
        while self.policy == BLOCK and self._queue.full() and not self.closed:
            self._room.clear()
            await self._room.wait()

    def _cut(self) -> None:
        """Encode the pending batch as one frame and queue it."""
        entries = self._pending
        size = self._pending_bytes
        self._pending = []
        self._pending_bytes = 0
        if not entries or self.closed:
            return
        stream, kind = self._stream, self._kind
        compress = (
            self.compress_threshold is not None
            and kind == FILLER
            and size > self.compress_threshold
            and self._codec_of(stream) is not None
        )
        if compress:
            self.compressed_batches += 1
        entry_count = len(entries)
        # During a broadcast every matching connection flushes the same
        # entries, so the encoded frame (and each compressed payload) is
        # computed once and shared via the fan-out cache.
        key = None
        frame = None
        if self._cache is not None:
            key = (stream, kind, compress, tuple(seq for seq, _ in entries))
            frame = self._cache.frame(key)
        if frame is None:
            if compress:
                codec = self._codec_of(stream)
                if self._cache is not None:
                    entries = [
                        (seq, self._cache.compressed_payload(stream, seq, payload, codec))
                        for seq, payload in entries
                    ]
                else:
                    entries = [
                        (seq, "".join(codec.compress_iter(_slices(payload))))
                        for seq, payload in entries
                    ]
            frame = proto.encode_batch(proto.BATCH, stream, kind, entries, compress)
            if key is not None:
                self._cache.store_frame(key, frame)
        self.batches += 1
        self._put(frame, entry_count)

    def _put(self, frame: bytes, entry_count: int) -> None:
        if self.closed:
            return
        try:
            self._queue.put_nowait(frame)
        except asyncio.QueueFull:
            if self.policy == DROP:
                self.dropped_frames += 1
                self.dropped_entries += entry_count
            elif self.policy == DISCONNECT:
                self.closed = True
                self._on_overflow()
            else:  # BLOCK waits for room before it cuts
                raise

    def start(self) -> None:
        self._task = asyncio.get_running_loop().create_task(self.run())

    async def run(self) -> None:
        """The connection's writer loop (one task per connection)."""
        queue = self._queue
        try:
            while True:
                if self._pending and queue.empty():
                    self._cut()  # freed: what batched up behind the last write
                frame = await queue.get()
                self._room.set()
                self._writing = True
                self._writer.write(frame)
                await self._writer.drain()
                self._writing = False
                self.frames_sent += 1
                self.bytes_sent += len(frame)
        except (ConnectionError, asyncio.CancelledError):
            pass

    def stop(self) -> None:
        self.closed = True
        self._room.set()  # a BLOCKed publisher moves on
        # Drop anything still queued, even behind a write that never ends.
        while not self._queue.empty():
            self._queue.get_nowait()
        if self._task is not None:
            self._task.cancel()


class _Connection:
    """Server-side per-connection state."""

    def __init__(self, peer: str, outbox: _Outbox):
        self.peer = peer
        self.outbox = outbox
        self.decoder: Optional[FrameDecoder] = None
        self.version: Optional[int] = None
        self.subscriptions: list = []
        self.live = False  # delivering live traffic (post catch-up)
        self.hold: deque = deque()  # (seq, Message) held during catch-up
        self.acked = 0
        self.shard: Optional[ShardWorkerHost] = None  # v2 WORKER role state
        self.transport_writer: Optional[asyncio.StreamWriter] = None

    def subscribes_stream(self, stream: str) -> bool:
        return any(sub.stream == stream for sub in self.subscriptions)


# -- server -----------------------------------------------------------------------


class StreamServer:
    """The broadcast side: journal-stamped, routed, batched fan-out.

    ``journal`` makes published messages durable and is the catch-up
    source; without one, CATCHUP replays nothing (the paper's pure
    no-retransmission radio).  ``engine`` is optional — when attached,
    every published message is also ingested locally
    (:meth:`XCQLEngine.deliver`), which is how ``repro-xcql serve``
    answers standing queries while broadcasting.  ``worker=True``
    enables the v2 WORKER role: the same front door then also hosts
    remote shards for sharded coordinators.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        journal: Optional[Journal] = None,
        engine=None,
        worker: bool = False,
        max_batch_bytes: int = 64 * 1024,
        compress_threshold: Optional[int] = 64 * 1024,
        queue_frames: int = 64,
        slow_policy: str = BLOCK,
        max_frame_bytes: int = proto.DEFAULT_MAX_FRAME,
    ):
        if slow_policy not in _POLICIES:
            raise ValueError(f"unknown slow-consumer policy {slow_policy!r}")
        self.host = host
        self._requested_port = port
        self.journal = journal
        self.engine = engine
        self.worker = bool(worker)
        self.max_batch_bytes = int(max_batch_bytes)
        self.compress_threshold = compress_threshold
        self.queue_frames = int(queue_frames)
        self.slow_policy = slow_policy
        self.max_frame_bytes = int(max_frame_bytes)
        self._server: Optional[asyncio.AbstractServer] = None
        self._conns: list[_Connection] = []
        self._fanout_cache = _FanoutCache()
        self._structures: dict[str, TagStructure] = {}
        self._codecs: dict[str, TagCodec] = {}
        self._structure_records: dict[str, tuple[int, Message]] = {}
        self._tag_types: dict[tuple[str, int], Optional[TagType]] = {}
        # (stream, tsid) -> the door probe of its predicate subscriptions.
        self._probes: dict[tuple[str, int], DoorProbe] = {}
        # (stream, filler_id) -> seq of the first version the door
        # counted: the supersede ledger of the conservative wake (mirrors
        # the sharded front door).  A version at seq had one before iff
        # first < seq — live, after a restart and in catch-up alike.
        self._first_versions: dict[tuple[str, int], int] = {}
        self._seq = journal.last_seq if journal is not None else 0
        # Counters (see stats()).
        self.published = 0
        self.fanned_out = 0
        self.routing_probes = 0
        self.routing_skips = 0
        self.door_passes = 0
        self.fed_entries = 0
        self.replayed_entries = 0
        self.replay_skipped = 0
        self.disconnected_slow = 0
        # Outbox counters of closed connections — drops and disconnects
        # must stay observable at the front door after the culprit left.
        self._retired_outboxes = {
            "frames_sent": 0,
            "bytes_sent": 0,
            "batches": 0,
            "compressed_batches": 0,
            "dropped_frames": 0,
            "dropped_entries": 0,
        }
        self._retired_workers = {"commands": 0, "polls": 0, "resets": 0}

    # -- lifecycle --------------------------------------------------------------

    async def start(self) -> None:
        if self.journal is not None:
            self._bootstrap_structures()
        self._server = await asyncio.start_server(
            self._handle, self.host, self._requested_port
        )

    def _bootstrap_structures(self) -> None:
        """Recover stream schemas, codecs, and the supersede ledger.

        A restarted server must keep probing the routing front door with
        the same answers it would have given before the restart: the
        ledger (the conservative supersede wake) is part of that state,
        so it is rebuilt from the journal along with the schemas, record
        by record like the live door — or a fragment's first
        post-restart version would look like its first ever.
        """
        for seq, message in self.journal.read_indexed():
            if message.kind == TAG_STRUCTURE:
                self._register_structure(seq, message)
                continue
            try:
                filler_id, tsid, _holes = peek_filler(message.payload)
            except ValueError:
                continue  # not an envelope: nothing the door could count
            self._note_version(message.stream, filler_id, tsid, seq)

    @property
    def port(self) -> int:
        assert self._server is not None and self._server.sockets
        return self._server.sockets[0].getsockname()[1]

    @property
    def seq(self) -> int:
        """The sequence number of the most recently published message."""
        return self._seq

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for conn in list(self._conns):
            self._close_conn(conn)
        if self.journal is not None:
            self.journal.close()
        await asyncio.sleep(0)

    def _close_conn(self, conn: _Connection) -> None:
        if conn in self._conns:
            self._conns.remove(conn)
            self._rebuild_probes()
            for key in self._retired_outboxes:
                self._retired_outboxes[key] += getattr(conn.outbox, key)
            if conn.shard is not None:
                shard = conn.shard.stats()
                for key in self._retired_workers:
                    self._retired_workers[key] += shard[key]
        conn.outbox.stop()
        if conn.transport_writer is not None:
            try:
                conn.transport_writer.close()
            except RuntimeError:
                pass

    # -- publishing -------------------------------------------------------------

    async def publish(self, message: Message) -> int:
        """Journal, stamp, and fan one message out; returns its seq.

        The hot path: one journal append, one cheap envelope peek, then
        a routed batcher append per *matching* live connection —
        subscribers whose subscriptions provably cannot match never see
        a frame.  Nothing is sent from here: each connection's outbox
        flushes at the end of the loop turn, so a caller that publishes
        in a loop without awaiting anything else gets one BATCH per
        connection, and only a full ``BLOCK`` queue suspends it.
        """
        if self.journal is not None:
            self.journal.record(message)
        self._seq += 1
        seq = self._seq
        self.published += 1
        tsid = None
        skips = _NO_SKIPS
        if message.kind == TAG_STRUCTURE:
            self._register_structure(seq, message)
        elif message.kind == FILLER:
            filler_id, tsid, _holes = peek_filler(message.payload)
            supersede = self._note_version(message.stream, filler_id, tsid, seq)
            skips = self._door_skips(message, tsid, supersede)
        if self.engine is not None:
            self.engine.deliver(message)
        # Fan-out hot loop: one batcher append per matching connection;
        # the fast path cannot yield, so a burst of publishes lands in
        # every outbox before any of them is flushed.
        entry = (seq, message.payload)
        size = message.wire_size
        stream, kind = message.stream, message.kind
        fanned = 0
        for conn in list(self._conns):
            if conn.version is None or not conn.subscriptions:
                continue
            if not self._should_send(conn, message, tsid, skips):
                self.routing_skips += 1
                continue
            fanned += 1
            if not conn.live:
                conn.hold.append((seq, message))
                continue
            outbox = conn.outbox
            state = outbox.append(entry, size, stream, kind)
            if state == outbox.FLUSH_DUE:
                await outbox.flush()
            elif state == outbox.BOUNDARY:
                await outbox.enqueue(seq, message)
        self.fanned_out += fanned
        return seq

    def _note_version(self, stream: str, filler_id: int, tsid: int, seq: int) -> bool:
        """Count the version published at ``seq``; had the fragment one already?

        The door asks only for non-event tags, and each live event is a
        fragment of its own: counting a tsid known to be an event would
        grow the ledger by an entry per message for ever.  An unknown
        tsid is counted — the schema may yet say otherwise.
        """
        if self._tag_types.get((stream, tsid)) is TagType.EVENT:
            return False
        return self._first_versions.setdefault((stream, filler_id), seq) < seq

    def _register_structure(self, seq: int, message: Message) -> None:
        structure = TagStructure.from_xml(message.payload)
        self._structures[message.stream] = structure
        self._codecs[message.stream] = TagCodec(structure)
        self._structure_records[message.stream] = (seq, message)
        for tag in structure.all_tags():
            self._tag_types[(message.stream, tag.tsid)] = tag.type

    def _door_skips(self, message: Message, tsid: int, supersede: bool) -> frozenset:
        """The predicates of ``(stream, tsid)`` that skip this envelope.

        One :class:`~repro.streams.routing.DoorProbe` pass per envelope,
        however many connections and predicates ask (an empty set when
        none does).  A non-event fragment that got another version is
        sent to every predicate unread: the annotations of its previous
        version move regardless of the predicate.
        """
        probe = self._probes.get((message.stream, tsid))
        if probe is None:
            return _NO_SKIPS
        tag_type = self._tag_types.get((message.stream, tsid))
        if tag_type is not TagType.EVENT and supersede:
            return _NO_SKIPS
        self.door_passes += 1
        return probe.decide(message.payload, tag_type)

    def _rebuild_probes(self) -> None:
        """One door probe per ``(stream, tsid)`` some live subscription narrows
        with a predicate — after a SUBSCRIBE and after a connection leaves."""
        wanted: dict = {}
        for conn in self._conns:
            for sub in conn.subscriptions:
                if sub.predicate is not None and sub.tsid is not None:
                    wanted.setdefault((sub.stream, sub.tsid), []).append(sub.predicate)
        self._probes = {key: DoorProbe(preds) for key, preds in wanted.items()}

    def _should_send(
        self, conn: _Connection, message: Message, tsid: Optional[int], skips: frozenset
    ) -> bool:
        """The front door: can this envelope matter to this connection?

        Mirrors the sharded coordinator's dispatch probe: tsid-narrowed
        subscriptions are dependency-tested; a predicate subscription is
        sent the envelope unless its predicate is among ``skips``, the
        door probe's verdict (:meth:`_door_skips`).  Uncertainty always
        sends.
        """
        if message.kind != FILLER:
            return conn.subscribes_stream(message.stream)
        for sub in conn.subscriptions:
            if sub.stream != message.stream:
                continue
            if sub.tsid is None:
                return True
            if sub.tsid != tsid:
                continue
            if sub.predicate is None:
                return True
            self.routing_probes += 1
            if not skips or sub.predicate not in skips:
                return True
        return False

    # -- connection handling ------------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        peername = writer.get_extra_info("peername")
        outbox = _Outbox(
            writer,
            max_batch_bytes=self.max_batch_bytes,
            compress_threshold=self.compress_threshold,
            queue_frames=self.queue_frames,
            policy=self.slow_policy,
            codec_of=self._codecs.get,
            on_overflow=lambda: None,  # rebound below with the conn
            cache=self._fanout_cache,
        )
        conn = _Connection(str(peername), outbox)
        conn.transport_writer = writer
        conn.decoder = FrameDecoder(self.max_frame_bytes)
        outbox._on_overflow = lambda: self._overflow(conn)
        self._conns.append(conn)
        outbox.start()
        try:
            while True:
                data = await reader.read(_READ_CHUNK)
                if not data:
                    break
                for frame in conn.decoder.feed(data):
                    if not await self._process(conn, frame):
                        return
        except ProtocolError as exc:
            await self._send_error(conn, "protocol-error", str(exc))
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            self._close_conn(conn)

    def _overflow(self, conn: _Connection) -> None:
        self.disconnected_slow += 1
        self._close_conn(conn)

    async def _send_error(self, conn: _Connection, code: str, detail: str) -> None:
        try:
            await conn.outbox.put_control(
                proto.encode_control(proto.ERROR, code=code, detail=detail)
            )
            await asyncio.sleep(0)
        except (ConnectionError, RuntimeError):
            pass

    async def _process(self, conn: _Connection, frame: proto.Frame) -> bool:
        if conn.version is None:
            if frame.type != proto.HELLO:
                raise ProtocolError(
                    f"expected HELLO, got {frame.name}"
                )
            version = proto.choose_version(frame.header.get("versions"))
            if version is None:
                await self._send_error(
                    conn,
                    "unsupported-version",
                    f"server speaks {list(proto.PROTOCOL_VERSIONS)}",
                )
                return False
            conn.version = version
            await conn.outbox.put_control(
                proto.encode_control(proto.HELLO, version=version, seq=self._seq)
            )
            return True
        if proto.min_version(frame.type) > conn.version:
            # A WORKER frame on a v1 connection: the peer negotiated a
            # version without these types, so this is garbage framing,
            # not a degraded-mode request.
            raise ProtocolError(
                f"{frame.name} needs protocol "
                f"v{proto.min_version(frame.type)}; this connection "
                f"negotiated v{conn.version}"
            )
        if frame.type == proto.SUBSCRIBE:
            return await self._on_subscribe(conn, frame)
        if frame.type == proto.CATCHUP:
            return await self._on_catchup(conn, frame)
        if frame.type == proto.FEED:
            return await self._on_feed(conn, frame)
        if frame.type in (proto.DISPATCH, proto.POLL, proto.RESPAWN):
            return await self._on_worker_frame(conn, frame)
        if frame.type == proto.ACK:
            conn.acked = int(frame.header.get("seq", conn.acked) or 0)
            return True
        if frame.type == proto.BYE:
            return False
        raise ProtocolError(f"unexpected {frame.name} frame")

    async def _on_worker_frame(self, conn: _Connection, frame: proto.Frame) -> bool:
        """Serve one v2 WORKER frame (the remote-shard role)."""
        if not self.worker:
            await self._send_error(
                conn,
                "no-worker-role",
                "this server does not host remote shards",
            )
            return False
        if conn.shard is None:
            conn.shard = ShardWorkerHost()
        await conn.outbox.put_control(conn.shard.serve(frame))
        return True

    async def _on_subscribe(self, conn: _Connection, frame: proto.Frame) -> bool:
        entries = frame.header.get("subscriptions")
        if not isinstance(entries, list):
            raise ProtocolError("SUBSCRIBE without a subscriptions list")
        conn.subscriptions = [Subscription.from_header(e) for e in entries]
        self._rebuild_probes()
        wants_catchup = bool(frame.header.get("catchup"))
        conn.live = False
        if not wants_catchup:
            # A fresh subscriber still needs the current schemas to
            # decode compressed batches and register stores.
            for stream in sorted({s.stream for s in conn.subscriptions}):
                record = self._structure_records.get(stream)
                if record is not None:
                    await conn.outbox.enqueue(record[0], record[1])
            conn.live = True
        await conn.outbox.put_control(
            proto.encode_control(
                proto.ACK, subscribed=len(conn.subscriptions), seq=self._seq
            )
        )
        return True

    async def _on_catchup(self, conn: _Connection, frame: proto.Frame) -> bool:
        after = int(frame.header.get("after", 0) or 0)
        replayed = 0
        skipped = 0
        max_seq = after
        if self.journal is not None:
            # Predicate subscriptions need the supersede state each
            # journal entry was published under: the ledger answers it
            # for any seq, so the replay filter gives byte-identical
            # answers to the live front door, superseded/non-matching
            # entries are skipped instead of flooding the reconnecting
            # client, and the journal is read once.
            narrowed = any(sub.predicate is not None for sub in conn.subscriptions)
            for seq, message in self.journal.read_indexed(after):
                if not self._replay_match(conn, seq, message, narrowed):
                    skipped += 1
                    continue
                await conn.outbox.enqueue(seq, message)
                replayed += 1
                max_seq = seq
        self.replayed_entries += replayed
        self.replay_skipped += skipped
        # Drain the live traffic held during replay, skipping overlap.
        while conn.hold:
            seq, message = conn.hold.popleft()
            if seq <= max_seq:
                continue
            await conn.outbox.enqueue(seq, message)
        conn.live = True
        await conn.outbox.put_control(
            proto.encode_control(
                proto.ACK,
                catchup=True,
                replayed=replayed,
                skipped=skipped,
                seq=self._seq,
            )
        )
        return True

    def _replay_match(
        self, conn: _Connection, seq: int, message: Message, narrowed: bool
    ) -> bool:
        """Replay filter: the live front-door probe, fed the ledger.

        When a predicate subscription asks (``narrowed``), the ledger's
        had-this-filler-a-version-before-``seq`` answer feeds the exact
        :meth:`_should_send` probe — same tsid dependency test, same
        predicate probe, same conservative non-event supersede wake — so
        a catch-up client receives precisely the frames it would have
        been sent live.
        """
        if message.kind != FILLER:
            return conn.subscribes_stream(message.stream)
        try:
            filler_id, tsid, _holes = peek_filler(message.payload)
        except ValueError:
            return True  # undecidable — conservative replay
        skips = _NO_SKIPS  # no predicate of this connection asks
        if narrowed:
            first = self._first_versions.get((message.stream, filler_id), seq)
            skips = self._door_skips(message, tsid, first < seq)
        return self._should_send(conn, message, tsid, skips)

    async def _on_feed(self, conn: _Connection, frame: proto.Frame) -> bool:
        """Ingest a producer's envelope batch and rebroadcast it."""
        payloads = [payload for _seq, payload in frame.entries]
        if frame.compressed:
            codec = self._codecs.get(frame.stream)
            if codec is None:
                raise ProtocolError(
                    f"compressed FEED for unknown stream {frame.stream!r}"
                )
            payloads = [
                "".join(codec.decompress_iter(_slices(payload)))
                for payload in payloads
            ]
        for payload in payloads:
            await self.publish(Message(frame.kind, frame.stream, payload))
        self.fed_entries += len(payloads)
        return True

    # -- introspection ----------------------------------------------------------

    def stats(self) -> dict:
        """Server counters in the sharded-engine stats shape.

        ``outboxes`` aggregates every connection's batcher — including
        connections that already left — so shed frames and slow-consumer
        disconnects are observable at the front door, not only on the
        per-connection objects; ``worker`` does the same for hosted
        remote shards.
        """
        outboxes = dict(self._retired_outboxes)
        for conn in self._conns:
            for key in outboxes:
                outboxes[key] += getattr(conn.outbox, key)
        outboxes["queued_frames"] = sum(
            c.outbox._queue.qsize() for c in self._conns
        )
        worker = dict(self._retired_workers)
        hosted = 0
        for conn in self._conns:
            if conn.shard is None:
                continue
            hosted += 1
            shard = conn.shard.stats()
            for key in self._retired_workers:
                worker[key] += shard[key]
        worker["hosted_shards"] = hosted
        return {
            "seq": self._seq,
            "connections": len(self._conns),
            "published": self.published,
            "fanned_out": self.fanned_out,
            "routing_probes": self.routing_probes,
            "routing_skips": self.routing_skips,
            "door_passes": self.door_passes,
            "fed_entries": self.fed_entries,
            "replayed_entries": self.replayed_entries,
            "replay_skipped": self.replay_skipped,
            "disconnected_slow": self.disconnected_slow,
            "dropped_frames": outboxes["dropped_frames"],
            "queued_frames": outboxes["queued_frames"],
            "outboxes": outboxes,
            "worker": worker,
        }


# -- worker entry point -------------------------------------------------------------


def run_worker(
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    journal: Optional[Journal] = None,
    ready: Optional[Callable[[int], None]] = None,
    **server_kw,
) -> None:
    """Host remote shards until interrupted (blocking).

    The convenience entry behind ``repro-xcql serve --worker`` and the
    cross-host tests: one :class:`StreamServer` with the WORKER role
    enabled, running its own event loop.  ``ready`` is called with the
    bound port once listening (how a spawning test learns an ephemeral
    port).  Workers need no journal of their own — the *coordinator*
    journals every batch before dispatching, which is exactly what makes
    its failover story transport-blind — but one can be passed to make
    the front door double as a durable broadcast server.
    """

    async def _main() -> None:
        server = StreamServer(host, port, journal=journal, worker=True, **server_kw)
        await server.start()
        if ready is not None:
            ready(server.port)
        try:
            await asyncio.Event().wait()
        finally:
            await server.close()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass


# -- client -----------------------------------------------------------------------


class StreamClient:
    """The subscriber/producer side of the framed protocol.

    Received envelopes are applied idempotently by journal seq (a
    replay/live overlap or a server repeat never double-ingests) and
    handed to ``engine.deliver`` and/or the ``on_message`` callback with
    byte-exact payloads.  ``last_seen`` survives :meth:`close`, so a
    reconnecting client passes it to :meth:`catchup` and resumes where
    it died — the paper's stored-history recovery, not retransmission.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        engine=None,
        on_message: Optional[Callable[[Message], None]] = None,
        max_frame_bytes: int = proto.DEFAULT_MAX_FRAME,
        feed_compress_threshold: Optional[int] = None,
    ):
        self.host = host
        self.port = port
        self.engine = engine
        self.on_message = on_message
        self.max_frame_bytes = int(max_frame_bytes)
        self.feed_compress_threshold = feed_compress_threshold
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._reader_task: Optional[asyncio.Task] = None
        self._decoder = FrameDecoder(self.max_frame_bytes)
        self._codecs: dict[str, TagCodec] = {}
        self._acks: asyncio.Queue = asyncio.Queue()
        self.version: Optional[int] = None
        self.server_seq = 0
        self.last_seen = 0
        self._seen: set[int] = set()
        self.received = 0
        self.duplicates = 0
        self.batches = 0
        self.compressed_batches = 0
        self.error: Optional[dict] = None
        self.closed = asyncio.Event()

    # -- lifecycle --------------------------------------------------------------

    async def connect(self) -> int:
        """Open the socket and negotiate a protocol version."""
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )
        self._writer.write(
            proto.encode_control(
                proto.HELLO, versions=list(proto.PROTOCOL_VERSIONS)
            )
        )
        await self._writer.drain()
        frame = await self._read_frame()
        if frame is None:
            raise ProtocolError("connection closed during handshake")
        if frame.type == proto.ERROR:
            raise ProtocolError(
                f"server refused: {frame.header.get('code')} "
                f"({frame.header.get('detail')})"
            )
        if frame.type != proto.HELLO:
            raise ProtocolError(f"expected HELLO, got {frame.name}")
        self.version = int(frame.header.get("version", 0))
        self.server_seq = int(frame.header.get("seq", 0) or 0)
        self._reader_task = asyncio.get_running_loop().create_task(self._run())
        return self.version

    async def _read_frame(self) -> Optional[proto.Frame]:
        """One frame, straight off the socket (handshake only)."""
        while True:
            data = await self._reader.read(_READ_CHUNK)
            if not data:
                return None
            frames = self._decoder.feed(data)
            if frames:
                # Handshake: the server sends nothing else yet.
                assert len(frames) == 1
                return frames[0]

    async def close(self) -> None:
        if self._writer is not None:
            try:
                self._writer.write(proto.encode_control(proto.BYE))
                await self._writer.drain()
            except ConnectionError:
                pass
            self._writer.close()
        if self._reader_task is not None:
            await asyncio.wait([self._reader_task], timeout=1.0)
            self._reader_task.cancel()
        self.closed.set()

    # -- subscribing ------------------------------------------------------------

    async def subscribe(
        self, subscriptions: Iterable[Subscription], catchup: bool = False
    ) -> dict:
        """Register interest; with ``catchup=True`` live traffic is held
        until :meth:`catchup` finishes replaying."""
        self._send(
            proto.encode_control(
                proto.SUBSCRIBE,
                subscriptions=[s.to_header() for s in subscriptions],
                catchup=catchup,
            )
        )
        await self._writer.drain()
        return await self._await_ack()

    async def catchup(self, after: Optional[int] = None) -> dict:
        """Replay the server journal from ``after`` (default: resume)."""
        self._send(
            proto.encode_control(
                proto.CATCHUP,
                after=int(self.last_seen if after is None else after),
            )
        )
        await self._writer.drain()
        return await self._await_ack()

    async def ack(self) -> None:
        """Tell the server how far this client has applied."""
        self._send(proto.encode_control(proto.ACK, seq=self.last_seen))
        await self._writer.drain()

    async def _await_ack(self) -> dict:
        header = await self._acks.get()
        return header

    def _send(self, frame: bytes) -> None:
        if self._writer is None:
            raise ProtocolError("client is not connected")
        self._writer.write(frame)

    # -- producing --------------------------------------------------------------

    async def feed(self, messages: Iterable[Message]) -> int:
        """Publish messages through the server (the producer role).

        Consecutive same-stream/kind messages ride one FEED frame;
        filler runs past ``feed_compress_threshold`` are tag-compressed
        when the client has seen the stream's schema.
        """
        run: list[Message] = []
        count = 0

        async def flush() -> None:
            nonlocal run
            if not run:
                return
            first = run[0]
            entries = [(0, message.payload) for message in run]
            compressed = False
            threshold = self.feed_compress_threshold
            codec = self._codecs.get(first.stream)
            if (
                threshold is not None
                and first.kind == FILLER
                and codec is not None
                and sum(m.wire_size for m in run) > threshold
            ):
                entries = [
                    (0, "".join(codec.compress_iter(_slices(p))))
                    for _, p in entries
                ]
                compressed = True
            self._send(
                proto.encode_batch(
                    proto.FEED, first.stream, first.kind, entries, compressed
                )
            )
            run = []

        for message in messages:
            if message.kind == TAG_STRUCTURE:
                self._learn_structure(message)
            if run and (
                message.stream != run[0].stream or message.kind != run[0].kind
            ):
                await flush()
            run.append(message)
            count += 1
        await flush()
        await self._writer.drain()
        return count

    # -- receiving --------------------------------------------------------------

    async def _run(self) -> None:
        try:
            while True:
                data = await self._reader.read(_READ_CHUNK)
                if not data:
                    break
                for frame in self._decoder.feed(data):
                    self._dispatch(frame)
        except (ConnectionError, asyncio.CancelledError, ProtocolError) as exc:
            if isinstance(exc, ProtocolError):
                self.error = {"code": "protocol-error", "detail": str(exc)}
        finally:
            self.closed.set()

    def _dispatch(self, frame: proto.Frame) -> None:
        if frame.type == proto.BATCH:
            self._apply_batch(frame)
        elif frame.type == proto.ACK:
            self._acks.put_nowait(frame.header)
        elif frame.type == proto.ERROR:
            self.error = frame.header
        elif frame.type == proto.BYE:
            pass
        else:
            raise ProtocolError(f"unexpected {frame.name} frame")

    def _apply_batch(self, frame: proto.Frame) -> None:
        self.batches += 1
        entries = frame.entries
        if frame.compressed:
            self.compressed_batches += 1
            codec = self._codecs.get(frame.stream)
            if codec is None:
                raise ProtocolError(
                    f"compressed batch for unknown stream {frame.stream!r}"
                )
            entries = [
                (seq, "".join(codec.decompress_iter(_slices(payload))))
                for seq, payload in entries
            ]
        for seq, payload in entries:
            if seq in self._seen:
                self.duplicates += 1
                continue
            self._seen.add(seq)
            if seq > self.last_seen:
                self.last_seen = seq
            message = Message(frame.kind, frame.stream, payload)
            if message.kind == TAG_STRUCTURE:
                self._learn_structure(message)
            self.received += 1
            if self.engine is not None:
                self.engine.deliver(message)
            if self.on_message is not None:
                self.on_message(message)

    def _learn_structure(self, message: Message) -> None:
        self._codecs[message.stream] = TagCodec(
            TagStructure.from_xml(message.payload)
        )

    def stats(self) -> dict:
        return {
            "version": self.version,
            "last_seen": self.last_seen,
            "received": self.received,
            "duplicates": self.duplicates,
            "batches": self.batches,
            "compressed_batches": self.compressed_batches,
            "frames_decoded": self._decoder.frames_decoded,
            "bytes_decoded": self._decoder.bytes_decoded,
        }
