"""Push-based transport: one-way broadcast channels (paper §1).

The paper's configuration is radio-like: servers multicast to registered
clients and receive no feedback — a client cannot request retransmission
after a noise burst.  :class:`Channel` models the in-process fan-out;
:class:`LossyChannel` injects deterministic loss and duplication so tests
can exercise the client-side tolerance (duplicate fillers are idempotent in
the store; servers may schedule repeats of critical fragments).

Messages are delivered as wire text (serialized XML), so every hop runs
through the real serializer and parser.

:class:`ShardLink` is the other half of the transport story: where a
channel broadcasts *outward* to subscribers, a shard link is the
coordinator's private duplex lane to one shard worker.  The sharded
engine speaks this interface exclusively — dispatch, poll-merge,
journaling, failover, and respawn are written once against it.  Every
link speaks the same netproto v2 WORKER frames; the three media in
:mod:`repro.streams.sharding` (in-process loopback, multiprocessing
pipe, socket) differ only in how the frame bytes move.
"""

from __future__ import annotations

import random
import re
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NoReturn, Optional

from repro.streams import netproto as proto

__all__ = [
    "Message",
    "Channel",
    "LossyChannel",
    "ShardLink",
    "ShardFailure",
    "ShardCommandError",
    "peek_filler",
]

TAG_STRUCTURE = "tag_structure"
FILLER = "filler"

_FILLER_TAG_RE = re.compile(r"<filler\b[^>]*>")
_ID_TSID_RE = re.compile(r"\b(id|tsid)\s*=\s*[\"']([^\"']*)[\"']")
_HOLE_ID_RE = re.compile(r"<hole\b[^>]*?\bid\s*=\s*[\"'](\d+)[\"']")


def peek_filler(payload: str) -> tuple[int, int, list[int]]:
    """Read ``(filler_id, tsid, hole_ids)`` off filler wire text cheaply.

    A regex scan of the envelope tag and its ``<hole>`` placeholders —
    no parse, no DOM.  Routing hops (the sharded coordinator, journal
    triage) need exactly these three facts to pick a destination, and a
    full parse here would defeat the lazy-ingest path the payload is
    headed for.  Raises ``ValueError`` on text that is not a filler
    envelope; the numbers are *trusted* from the wire — full validation
    still happens wherever the payload is finally ingested.
    """
    tag = _FILLER_TAG_RE.search(payload)
    if tag is None:
        raise ValueError("expected a single <filler> element")
    attrs = dict(_ID_TSID_RE.findall(tag.group(0)))
    try:
        filler_id = int(attrs["id"])
        tsid = int(attrs["tsid"])
    except (KeyError, ValueError) as exc:
        raise ValueError(f"filler missing attribute {exc}") from exc
    holes = [int(m) for m in _HOLE_ID_RE.findall(payload, tag.end())]
    return filler_id, tsid, holes


@dataclass(frozen=True)
class Message:
    """One broadcast unit: a kind tag plus its XML wire text."""

    kind: str  # TAG_STRUCTURE or FILLER
    stream: str
    payload: str  # serialized XML

    @cached_property
    def wire_size(self) -> int:
        """Payload size in bytes as transmitted.

        Computed once per message: the network batcher consults it on
        every flush decision, and re-encoding a large payload each time
        would dominate the batching loop.  (``cached_property`` stores
        into ``__dict__`` directly, which works on a frozen dataclass.)
        """
        return len(self.payload.encode("utf-8"))


class ShardFailure(RuntimeError):
    """A worker died or stopped answering (crash, kill, pipe timeout)."""


class ShardCommandError(RuntimeError):
    """A worker is alive but a command it ran raised (re-raised here)."""


#: Commands a link leaves unanswered before :meth:`ShardLink.post` reads
#: the replies: a worker blocked writing replies nobody reads stops
#: reading commands, and two full buffers between single-threaded peers
#: is a deadlock.
MAX_PENDING = 512


class ShardLink:
    """The coordinator's lane to one shard worker, whatever carries the bytes.

    Every link speaks one protocol: a command tuple becomes a netproto
    v2 WORKER frame (``("poll", now)`` → POLL, ``("respawn",)`` →
    RESPAWN, ``(cmd, *args)`` → DISPATCH), and the worker answers in
    command order with ACK / POLL_REPLY frames, which this class matches
    by id and revives.  A subclass is only a medium: it connects or
    spawns, writes frame bytes (:meth:`_write`), reads reply bytes
    (:meth:`_read`), and stops.  Its ``configure`` DISPATCH is the first
    command it posts.

    Commands are *pipelined*: :meth:`post` sends without waiting, and
    :meth:`sync` drains the outstanding replies in order — so a feed
    fans out to every shard before the first round-trip completes, and a
    tick's polls run concurrently across workers.  The contract:

    - :meth:`post` raises :class:`ShardFailure` when the worker is
      unreachable (dead process, broken pipe, closed socket);
    - :meth:`sync` returns one reply per posted command, in order —
      including the replies :meth:`post` read early to keep
      :data:`MAX_PENDING` — and raises ``ShardFailure`` on
      death/timeouts or :class:`ShardCommandError` after the drain when
      a command raised worker-side; the link survives command errors,
      only transport failures kill it;
    - ``poll`` replies have one dict shape (``emitted`` keyed by int
      qid, ``watermarks`` as tuples).

    ``kind`` identifies the medium in merged stats (``"inproc"``,
    ``"pipe"``, ``"net"``); :meth:`link_stats` has one key set for all.
    """

    kind = "link"
    #: The remote worker's ``host:port``, and the protocol version it
    #: negotiated; ``None`` on local media, which negotiate nothing.
    address: Optional[str] = None
    version: Optional[int] = None

    def __init__(self) -> None:
        self.alive = True
        self.frames_sent = 0
        self.bytes_sent = 0
        self.frames_received = 0
        self.bytes_received = 0
        self.dispatches = 0
        self.polls = 0
        self._next_id = 1
        self._ids: deque = deque()  # sent, not yet answered
        self._replies: list = []  # answered, not yet returned by sync
        self._error: Optional[str] = None  # the first command error among them
        self._frames: deque = deque()
        self._decoder = proto.FrameDecoder()

    # -- the medium -------------------------------------------------------------

    def _write(self, data: bytes) -> None:
        """Move one encoded frame to the worker; ``ShardFailure`` if gone."""
        raise NotImplementedError

    def _read(self) -> bytes:
        """Block for reply bytes from the worker; ``ShardFailure`` if gone."""
        raise NotImplementedError

    def stop(self) -> None:
        """Release the worker and the medium (idempotent)."""
        raise NotImplementedError

    # -- the protocol -----------------------------------------------------------

    @property
    def pending(self) -> int:
        """Commands posted whose replies :meth:`sync` has not returned."""
        return len(self._ids) + len(self._replies)

    def post(self, msg: tuple) -> None:
        """Send one command tuple without waiting for its reply."""
        if not self.alive:
            raise ShardFailure("worker link is down")
        if len(self._ids) >= MAX_PENDING:
            self._drain()
        command, *args = msg
        mid = self._next_id
        self._next_id += 1
        if command == "poll":
            data = proto.encode_control(proto.POLL, id=mid, now=args[0])
            self.polls += 1
        elif command == "respawn":
            data = proto.encode_control(proto.RESPAWN, id=mid)
        else:
            data = proto.encode_control(proto.DISPATCH, id=mid, cmd=command, args=args)
            self.dispatches += 1
        self._send(data)
        self._ids.append(mid)

    def sync(self) -> list:
        """Collect every outstanding reply, in post order."""
        self._drain()
        replies, self._replies = self._replies, []
        error, self._error = self._error, None
        if error is not None:
            raise ShardCommandError(error)
        return replies

    def request(self, msg: tuple):
        """Post one command and wait: returns its reply."""
        self.post(msg)
        return self.sync()[-1]

    @property
    def in_process(self) -> bool:
        """Back-compat alias: does this shard run inside the coordinator?"""
        return self.kind == "inproc"

    def link_stats(self) -> dict:
        """Transport-level counters in one schema-stable shape."""
        return {
            "kind": self.kind,
            "alive": bool(self.alive),
            "pending": self.pending,
            "address": self.address,
            "version": self.version,
            "frames_sent": self.frames_sent,
            "bytes_sent": self.bytes_sent,
            "frames_received": self.frames_received,
            "bytes_received": self.bytes_received,
            "dispatches": self.dispatches,
            "polls": self.polls,
        }

    def _drain(self) -> None:
        """Read the reply of every sent command into ``_replies``."""
        while self._ids:
            frame = self._recv_frame()
            header = frame.header
            if frame.type not in (proto.ACK, proto.POLL_REPLY):
                self._fail(f"worker answered {frame.name} {header}")
            if header.get("id") != self._ids[0]:
                self._fail(
                    f"reply id {header.get('id')!r} does not match command id "
                    f"{self._ids[0]} — worker link out of sync"
                )
            self._ids.popleft()
            if frame.type == proto.POLL_REPLY and "error" not in header:
                self._replies.append(_revive_poll(header))
            elif frame.type == proto.ACK and header.get("ok"):
                self._replies.append(header.get("result"))
            else:
                if self._error is None:
                    self._error = str(header.get("error"))
                self._replies.append(None)

    def _send(self, data: bytes) -> None:
        try:
            self._write(data)
        except ShardFailure:
            self.alive = False
            raise
        self.frames_sent += 1
        self.bytes_sent += len(data)

    def _recv_frame(self) -> proto.Frame:
        while not self._frames:
            try:
                chunk = self._read()
            except ShardFailure:
                self.alive = False
                raise
            self.bytes_received += len(chunk)
            try:
                frames = self._decoder.feed(chunk)
            except proto.ProtocolError as exc:
                self._fail(f"bad frame from worker: {exc}")
            self._frames.extend(frames)
            self.frames_received += len(frames)
        return self._frames.popleft()

    def _fail(self, reason: str) -> NoReturn:
        self.alive = False
        raise ShardFailure(reason)


def _revive_poll(header: dict) -> dict:
    """Rebuild a POLL_REPLY header into the poll dict the merge reads.

    JSON stringifies int dict keys and turns tuples into lists; the
    merge code (and the differential tests) read qids as ints and
    watermarks as tuples, so the damage is undone here.
    """
    return {
        "emitted": {
            int(qid): list(items)
            for qid, items in (header.get("emitted") or {}).items()
        },
        "watermarks": {
            name: tuple(mark)
            for name, mark in (header.get("watermarks") or {}).items()
        },
        "elapsed": float(header.get("elapsed", 0.0)),
        "cpu": float(header.get("cpu", 0.0)),
    }


class Channel:
    """An in-process broadcast channel with subscriber fan-out."""

    kind = "channel"

    def __init__(self) -> None:
        self._subscribers: list[Callable[[Message], None]] = []
        self.published = 0
        self.delivered = 0

    def subscribe(self, callback: Callable[[Message], None]) -> None:
        """Register a delivery callback (a client's ingest hook)."""
        self._subscribers.append(callback)

    def unsubscribe(self, callback: Callable[[Message], None]) -> None:
        """Remove a previously registered callback."""
        self._subscribers.remove(callback)

    def publish(self, message: Message) -> None:
        """Broadcast one message to every subscriber."""
        self.published += 1
        for subscriber in list(self._subscribers):
            self._deliver(subscriber, message)

    def _deliver(self, subscriber: Callable[[Message], None], message: Message) -> None:
        self.delivered += 1
        subscriber(message)

    def stats(self) -> dict:
        """Counters in the same shape the sharded engine reports."""
        return {
            "kind": self.kind,
            "published": self.published,
            "delivered": self.delivered,
            "subscribers": len(self._subscribers),
        }


class LossyChannel(Channel):
    """A channel that drops and duplicates messages deterministically.

    ``loss_rate`` is the independent per-delivery drop probability;
    ``duplicate_rate`` re-delivers a message immediately (simulating the
    server's repetition of critical fragments reaching a client twice).
    The RNG is seeded, so failures replay exactly.
    """

    kind = "lossy"

    def __init__(self, loss_rate: float = 0.0, duplicate_rate: float = 0.0, seed: int = 0):
        super().__init__()
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError("loss_rate must be in [0, 1)")
        if not 0.0 <= duplicate_rate < 1.0:
            raise ValueError("duplicate_rate must be in [0, 1)")
        self.loss_rate = loss_rate
        self.duplicate_rate = duplicate_rate
        self.dropped = 0
        self.duplicated = 0
        self._rng = random.Random(seed)

    def _deliver(self, subscriber: Callable[[Message], None], message: Message) -> None:
        if self._rng.random() < self.loss_rate:
            self.dropped += 1
            return
        self.delivered += 1
        subscriber(message)
        if self._rng.random() < self.duplicate_rate:
            self.duplicated += 1
            subscriber(message)

    def stats(self) -> dict:
        """Channel counters plus the loss/duplication tallies."""
        stats = super().stats()
        stats["dropped"] = self.dropped
        stats["duplicated"] = self.duplicated
        return stats
