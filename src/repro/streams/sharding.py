"""Sharded multi-process standing-query engine (the clearing-house daemon).

Every hot path so far — compiled plans, the delta driver, shared
prefixes, stream automata — runs inside one GIL-bound process, so tick
throughput caps at a single core no matter how many standing queries are
registered.  :class:`ShardedEngine` is the coordinator of the "single
clearing house" daemon shape: it partitions fragment storage and
standing-query evaluation by ``(stream, filler-id hash)`` across N
``multiprocessing`` workers, each running its own
:class:`~repro.core.engine.XCQLEngine` plus
:class:`~repro.streams.scheduler.QueryScheduler` over its partition of
the stream history.

Why partition-by-filler is sound
--------------------------------

Only *delta-safe* queries are admitted (``add_query`` raises otherwise,
quoting the pipeline's ``incremental_reason``).  Delta safety means the plan is
a single-stream, downward-only, order-insensitive FLWOR whose answer is
a union of per-tuple contributions — PR 3's incremental driver already
relies on exactly this to fold arrival batches in one at a time.  The
same property makes the answer a *partition union*: evaluating the plan
over any disjoint split of the fillers and unioning the results equals
evaluating it over all of them.  Each worker therefore computes the
answer over its partition, and the coordinator's merge — per-shard
blocks stable-sorted on the reported store watermark ``seq``, then the
shard index — reconstructs a deterministic multiset identical to the
single-process scheduler's (the differential suite in
``tests/test_sharding.py`` holds this byte-for-byte across shard counts,
arrival orders, worker restarts, and mixed ``feed``/``feed_raw``
histories).

Holes are kept shard-local: a filler's ``<hole>`` children are pinned to
the parent's shard at dispatch time, so downward navigation through a
hole resolves within one worker's store.  A child whose parent envelope
never crossed the coordinator (or arrived child-first from a
non-conforming server) is counted in ``dispatch_conflicts`` instead of
silently splitting a fragment tree.

The dependency gate
-------------------

The coordinator keeps one wake gate for ``feed`` and ``feed_raw`` alike:
does any resident query depend on a tsid of this per-shard sub-batch, or
on the clock?  A shard whose sub-batch touches nothing a query can
observe is forwarded the fillers (its partition must stay complete) but
is *not* polled on the next tick.  What the fillers *contain* is not
looked at here — routing predicates are decided per binding tuple
inside each worker's scheduler, which is where they are cheapest.

One link interface, three transports
------------------------------------

The coordinator speaks one interface —
:class:`repro.streams.transport.ShardLink` — and never a medium.  Three
implementations are interchangeable per shard:

- :class:`InProcessLink` serves the shard inside the coordinator
  process (deterministic differential testing, failover target);
- :class:`PipeLink` spawns a ``multiprocessing`` worker and pipelines
  pickled command tuples over a pipe;
- :class:`NetLink` drives a remote worker host over the netproto v2
  WORKER frames (DISPATCH/POLL/POLL_REPLY/RESPAWN) — the same framed
  socket protocol ``serve``/``tail`` already speak, so a shard can live
  on another host behind an ordinary ``repro-xcql serve`` front door.

Dispatch, poll-merge, journaling, failover, and respawn are written
once against the interface; :class:`ShardWorkerHost` is the server-side
adapter that maps WORKER frame headers onto the exact same
:class:`_ShardServer` the pipe workers run.

Durability and failover
-----------------------

Every per-shard batch is journaled (:class:`repro.fragments.persist.Journal`)
*before* it is forwarded.  A worker crash, pipe timeout, or dropped
socket degrades gracefully: the coordinator replays that shard's
journal into an in-process replacement engine and re-runs its queries
locally, and :meth:`ShardedEngine.respawn_shard` bootstraps a fresh
worker — local process or remote host — the same way.  Emissions stay
exactly-once across the swap because the coordinator dedups on the same
serialized identity the single-process
:class:`~repro.streams.continuous.ContinuousQuery` uses — a replayed
worker re-deriving old answers re-reports them, and the coordinator's
seen-set absorbs the repeats.  The journal bootstrap is
transport-blind, which is what makes failover identical whether the
dead shard was a local child process or a remote worker on another
host.

Envelope batches whose wire size crosses ``compress_threshold`` are
tag-compressed (:class:`~repro.streams.compression.TagCodec`) before
pickling into the pipe; raw (``feed_raw``) payloads are always forwarded
verbatim so the worker's streaming-automaton path sees the exact wire
text.
"""

from __future__ import annotations

import multiprocessing
import os
import shutil
import socket
import tempfile
import time
import zlib
from collections import deque
from typing import Callable, Iterable, Optional, Union

from repro.core.engine import XCQLEngine
from repro.core.translator import Strategy
from repro.dom.serializer import serialize
from repro.fragments.model import Filler, parse_filler
from repro.fragments.persist import Journal
from repro.fragments.tagstructure import TagStructure
from repro.streams import netproto as proto
from repro.streams.compression import TagCodec
from repro.streams.continuous import ContinuousQuery
from repro.streams.scheduler import (
    QueryDependencies,
    QueryScheduler,
    dependencies_of,
)
from repro.streams.transport import (
    FILLER,
    TAG_STRUCTURE,
    Channel,
    Message,
    ShardLink,
    peek_filler,
)
from repro.temporal.chrono import XSDateTime

__all__ = [
    "ShardedEngine",
    "ShardedQuery",
    "ShardFailure",
    "ShardCommandError",
    "ShardLink",
    "InProcessLink",
    "PipeLink",
    "NetLink",
    "ShardWorkerHost",
    "shard_of",
]


def shard_of(stream: str, filler_id: int, shards: int) -> int:
    """The home shard of ``(stream, filler_id)`` under ``shards`` workers.

    CRC32, not ``hash()``: Python string hashing is randomized per
    process, and the shard key must agree between the coordinator, every
    worker, and any future coordinator replaying the same journals.
    """
    key = f"{stream}\x00{int(filler_id)}".encode("utf-8")
    return zlib.crc32(key) % int(shards)


class ShardFailure(RuntimeError):
    """A worker died or stopped answering (crash, kill, pipe timeout)."""


class ShardCommandError(RuntimeError):
    """A worker is alive but a command it ran raised (re-raised here)."""


class ShardedQuery:
    """The coordinator-side handle of one standing query.

    Emissions arrive as *identity strings* — the exact serialized form
    :func:`repro.streams.continuous.item_identity` produces, which is
    also what the single-process engine dedups on — so subscribers can
    compare answers across processes byte-for-byte.
    """

    def __init__(self, qid: int, source: str, strategy: Strategy, emit: str,
                 stream: str):
        self.qid = qid
        self.source = source
        self.strategy = strategy
        self.emit = emit
        self.stream = stream
        self.subscribers: list[Callable[[list[str]], None]] = []
        self.emitted_total = 0
        # Cross-shard emission dedup (delta mode): identical answers
        # derived on two shards, or re-derived by a journal-bootstrapped
        # replacement worker, are emitted exactly once.
        self._seen: dict[str, None] = {}

    def subscribe(self, callback: Callable[[list[str]], None]) -> None:
        """Register a sink for merged emissions (lists of identity strings)."""
        self.subscribers.append(callback)

    def __repr__(self) -> str:
        return (
            f"<ShardedQuery {self.qid} {self.strategy.value} emit={self.emit}"
            f" emitted={self.emitted_total}>"
        )


# -- the worker side ---------------------------------------------------------------


class _ShardServer:
    """One worker's state: an engine + scheduler over its partition.

    Runs identically inside a spawned process (:func:`_shard_worker_main`)
    or inside the coordinator process (the in-process degraded mode), so
    failover swaps the transport without changing any evaluation code.
    """

    def __init__(self, options: dict):
        self.engine = XCQLEngine(
            default_backend=options.get("default_backend", "compiled")
        )
        self.scheduler = QueryScheduler(
            self.engine,
            share_groups=options.get("share_groups", True),
            routing=options.get("routing", True),
            stream_automata=options.get("stream_automata", True),
        )
        self.queries: dict[int, ContinuousQuery] = {}
        self.codecs: dict[str, TagCodec] = {}

    def handle(self, msg: tuple):
        command = msg[0]
        if command == "register_stream":
            _, name, structure_xml = msg
            structure = TagStructure.from_xml(structure_xml)
            self.engine.register_stream(name, structure)
            self.codecs[name] = TagCodec(structure)
            return True
        if command == "feed":
            _, name, encoded, envelopes = msg
            if encoded:
                codec = self.codecs[name]
                envelopes = [codec.decode_wire(payload) for payload in envelopes]
            return self.engine.feed(
                name, [parse_filler(payload) for payload in envelopes]
            )
        if command == "feed_raw":
            _, name, payloads = msg
            return self.engine.feed_raw(name, payloads)
        if command == "add_query":
            _, qid, source, strategy_value, emit = msg
            query = ContinuousQuery(
                self.engine, source, strategy=Strategy(strategy_value), emit=emit
            )
            self.scheduler.add(query)
            self.queries[qid] = query
            return True
        if command == "remove_query":
            _, qid = msg
            query = self.queries.pop(qid, None)
            if query is not None:
                self.scheduler.remove(query)
            return query is not None
        if command == "poll":
            _, now_text = msg
            started = time.perf_counter()
            cpu_started = time.process_time()
            emitted = self.scheduler.poll(XSDateTime.parse(now_text))
            out: dict[int, list[str]] = {}
            for qid, query in self.queries.items():
                # The strings the poll just deduplicated the emission on,
                # not a second serialization of it.
                if emitted.get(query):
                    out[qid] = query.last_emitted_identities
            return {
                "emitted": out,
                "watermarks": {
                    name: store.watermark
                    for name, store in self.engine.stores.items()
                },
                # Wall time inside the worker, and the worker's own CPU
                # time.  They diverge when workers outnumber cores and
                # the scheduler time-slices them: the CPU figure is the
                # honest per-shard compute for critical-path analysis.
                "elapsed": time.perf_counter() - started,
                "cpu": time.process_time() - cpu_started,
            }
        if command == "stats":
            # Query ids are stringified so the reply has one shape on
            # every link: JSON (the net link) cannot carry int keys, and
            # a schema that differs by transport defeats unified stats.
            return {
                "engine": self.engine.stats(),
                "scheduler": self.scheduler.stats(),
                "queries": {
                    str(qid): query.stats() for qid, query in self.queries.items()
                },
            }
        if command == "stop":
            return True
        raise ValueError(f"unknown shard command {command!r}")


def _shard_worker_main(conn, options: dict) -> None:
    """A worker process: serve shard commands over the pipe until 'stop'."""
    server = _ShardServer(options)
    while True:
        try:
            msg = conn.recv()
        except (EOFError, KeyboardInterrupt):
            break
        try:
            reply = ("ok", server.handle(msg))
        except Exception as exc:  # report, don't die: the pipe stays usable
            reply = ("error", f"{type(exc).__name__}: {exc}")
        try:
            conn.send(reply)
        except (BrokenPipeError, KeyboardInterrupt):
            break
        if msg and msg[0] == "stop":
            break
    conn.close()


class PipeLink(ShardLink):
    """Coordinator-side proxy of one local worker process.

    Commands are *pipelined*: :meth:`post` sends without waiting, and
    :meth:`sync` drains the outstanding acks in order — so a feed fans
    out to every shard before the first ack round-trip completes, and a
    tick's polls run concurrently across workers.
    """

    kind = "pipe"

    def __init__(self, context, options: dict, timeout: float):
        self.timeout = timeout
        self.conn, child_conn = context.Pipe()
        self.process = context.Process(
            target=_shard_worker_main,
            args=(child_conn, options),
            daemon=True,
        )
        self.process.start()
        child_conn.close()
        self.pending = 0
        self.alive = True
        self.posted = 0

    def post(self, msg: tuple) -> None:
        if not self.alive:
            raise ShardFailure("worker is gone")
        if self.pending >= 512:
            # Drain before the ack pipe can fill: a worker blocked on a
            # full reply pipe stops reading commands, and two full pipes
            # between single-threaded peers is a deadlock.
            self.sync()
        try:
            self.conn.send(msg)
        except (BrokenPipeError, OSError) as exc:
            self.alive = False
            raise ShardFailure(f"worker pipe broke: {exc}") from exc
        self.pending += 1
        self.posted += 1

    def sync(self) -> list:
        """Collect every outstanding ack; raises on death or command error."""
        replies: list = []
        error: Optional[str] = None
        while self.pending:
            deadline_hit = False
            try:
                if not self.conn.poll(self.timeout):
                    deadline_hit = True
                else:
                    status, payload = self.conn.recv()
            except (EOFError, BrokenPipeError, OSError) as exc:
                self.alive = False
                raise ShardFailure(f"worker died mid-reply: {exc}") from exc
            if deadline_hit:
                self.alive = False
                raise ShardFailure(
                    f"worker unresponsive for {self.timeout:.1f}s"
                )
            self.pending -= 1
            if status == "error":
                if error is None:
                    error = payload
                replies.append(None)
            else:
                replies.append(payload)
        if error is not None:
            raise ShardCommandError(error)
        return replies

    def stop(self) -> None:
        if self.alive:
            try:
                self.conn.send(("stop",))
                self.conn.poll(min(self.timeout, 2.0))
            except (BrokenPipeError, OSError):
                pass
        self.alive = False
        try:
            self.conn.close()
        except OSError:
            pass
        if self.process.is_alive():
            self.process.terminate()
        self.process.join(timeout=5.0)

    def link_stats(self) -> dict:
        stats = super().link_stats()
        stats["posted"] = self.posted
        return stats


class InProcessLink(ShardLink):
    """A shard served inside the coordinator process (degraded mode).

    Same post/sync/request surface as :class:`PipeLink`; commands
    execute eagerly.  Used when ``in_process=True`` (deterministic
    differential testing, single-core deployments) and as the failover
    target when a worker dies.
    """

    kind = "inproc"

    def __init__(self, options: dict):
        self.server = _ShardServer(options)
        self._replies: list = []
        self._error: Optional[str] = None
        self.alive = True
        self.posted = 0

    @property
    def pending(self) -> int:
        return len(self._replies)

    def post(self, msg: tuple) -> None:
        self.posted += 1
        try:
            self._replies.append(self.server.handle(msg))
        except Exception as exc:
            if self._error is None:
                self._error = f"{type(exc).__name__}: {exc}"
            self._replies.append(None)

    def sync(self) -> list:
        replies, self._replies = self._replies, []
        error, self._error = self._error, None
        if error is not None:
            raise ShardCommandError(error)
        return replies

    def stop(self) -> None:
        self.alive = False

    def link_stats(self) -> dict:
        stats = super().link_stats()
        stats["posted"] = self.posted
        return stats


# -- the netproto link (coordinator side) -------------------------------------------


class NetLink(ShardLink):
    """A shard served by a remote worker host over netproto v2.

    A plain blocking socket client — deliberately not asyncio: the
    coordinator's pipelined post/sync discipline is synchronous, and the
    link lives on the coordinator's thread exactly like a pipe.  Command
    tuples become WORKER frames (``poll`` → POLL, ``respawn`` → RESPAWN,
    everything else → DISPATCH); replies come back in command order as
    ACK/POLL_REPLY frames and are revived to the exact dict shapes the
    pipe link produces, so the merge code upstream cannot tell the
    transports apart.

    The HELLO handshake advertises every version this build speaks; a
    host that negotiates below v2 cannot carry WORKER frames, so the
    link raises :class:`ShardFailure` and the coordinator degrades
    through its normal failover path (the host itself still serves that
    v1 connection's subscribe/tail surface — degraded, not refused).
    """

    kind = "net"

    def __init__(
        self,
        address: str,
        options: dict,
        timeout: float,
        max_pending: int = 512,
    ):
        self.address = address
        self.timeout = timeout
        self.max_pending = max_pending
        self.alive = False
        self.version: Optional[int] = None
        self.frames_sent = 0
        self.frames_received = 0
        self.bytes_sent = 0
        self.bytes_received = 0
        self.dispatches = 0
        self.polls = 0
        self._pending: deque = deque()
        self._frames: deque = deque()
        self._decoder = proto.FrameDecoder()
        self._next_id = 1
        host, _, port_text = address.rpartition(":")
        try:
            port = int(port_text)
        except ValueError as exc:
            raise ValueError(f"bad worker address {address!r}: {exc}") from exc
        try:
            self._sock = socket.create_connection(
                (host or "127.0.0.1", port), timeout=min(timeout, 10.0)
            )
        except OSError as exc:
            raise ShardFailure(f"cannot reach worker {address}: {exc}") from exc
        self._sock.settimeout(timeout)
        self.alive = True
        self._send(
            proto.encode_control(
                proto.HELLO,
                versions=list(proto.PROTOCOL_VERSIONS),
                role="shard-link",
            )
        )
        frame = self._recv_frame()
        if frame.type == proto.ERROR:
            self._abandon()
            raise ShardFailure(
                f"worker {address} refused the handshake: "
                f"{frame.header.get('error', frame.header)}"
            )
        if frame.type != proto.HELLO:
            self._abandon()
            raise ShardFailure(
                f"worker {address} answered {frame.name}, expected HELLO"
            )
        self.version = int(frame.header.get("version", 1))
        if self.version < 2:
            # The host is alive but speaks only v1 — it has no WORKER
            # frames to offer this link.  Say goodbye politely; the
            # coordinator fails over instead of wedging the shard.
            try:
                self._send(proto.encode_control(proto.BYE))
            except ShardFailure:
                pass
            self._abandon()
            raise ShardFailure(
                f"worker {address} negotiated protocol v{self.version}; "
                "the WORKER role needs v2"
            )
        # The remote shard must evaluate with the coordinator's engine
        # options or the differential guarantees are off.
        self.request(("configure", dict(options)))

    @property
    def pending(self) -> int:
        return len(self._pending)

    def post(self, msg: tuple) -> None:
        if not self.alive:
            raise ShardFailure("worker link is down")
        if len(self._pending) >= self.max_pending:
            # Same discipline as the pipe link: drain before both ends'
            # socket buffers can fill with unread replies.
            self.sync()
        command = msg[0]
        mid = self._next_id
        self._next_id += 1
        if command == "poll":
            data = proto.encode_control(proto.POLL, id=mid, now=msg[1])
            self.polls += 1
        elif command == "respawn":
            data = proto.encode_control(proto.RESPAWN, id=mid)
        elif command == "configure":
            data = proto.encode_control(
                proto.DISPATCH, id=mid, cmd="configure", args=[msg[1]]
            )
            self.dispatches += 1
        else:
            data = proto.encode_control(
                proto.DISPATCH, id=mid, cmd=command, args=list(msg[1:])
            )
            self.dispatches += 1
        self._send(data)
        self._pending.append((command, mid))

    def sync(self) -> list:
        replies: list = []
        error: Optional[str] = None
        while self._pending:
            frame = self._recv_frame()
            _command, mid = self._pending[0]
            if frame.type == proto.ERROR:
                self._abandon()
                raise ShardFailure(
                    f"worker error: {frame.header.get('error', frame.header)}"
                )
            if frame.type not in (proto.ACK, proto.POLL_REPLY):
                self._abandon()
                raise ShardFailure(
                    f"unexpected {frame.name} frame on a worker link"
                )
            header = frame.header
            if header.get("id") != mid:
                self._abandon()
                raise ShardFailure(
                    f"reply id {header.get('id')!r} does not match "
                    f"command id {mid} — worker link out of sync"
                )
            self._pending.popleft()
            if frame.type == proto.POLL_REPLY:
                if "error" in header:
                    if error is None:
                        error = str(header["error"])
                    replies.append(None)
                else:
                    replies.append(_revive_poll(header))
            elif header.get("ok"):
                replies.append(header.get("result"))
            else:
                if error is None:
                    error = str(header.get("error"))
                replies.append(None)
        if error is not None:
            raise ShardCommandError(error)
        return replies

    def respawn(self) -> None:
        """Ask the host to discard this connection's shard state."""
        self.request(("respawn",))

    def stop(self) -> None:
        if self.alive:
            try:
                self._send(proto.encode_control(proto.BYE))
            except ShardFailure:
                pass
        self._abandon()

    def link_stats(self) -> dict:
        stats = super().link_stats()
        stats.update(
            address=self.address,
            version=self.version,
            frames_sent=self.frames_sent,
            frames_received=self.frames_received,
            bytes_sent=self.bytes_sent,
            bytes_received=self.bytes_received,
            dispatches=self.dispatches,
            polls=self.polls,
        )
        return stats

    # -- socket plumbing --------------------------------------------------------

    def _send(self, data: bytes) -> None:
        try:
            self._sock.sendall(data)
        except OSError as exc:
            self._abandon()
            raise ShardFailure(f"worker socket broke: {exc}") from exc
        self.frames_sent += 1
        self.bytes_sent += len(data)

    def _recv_frame(self) -> proto.Frame:
        while not self._frames:
            try:
                chunk = self._sock.recv(1 << 16)
            except socket.timeout:
                self._abandon()
                raise ShardFailure(
                    f"worker unresponsive for {self.timeout:.1f}s"
                ) from None
            except OSError as exc:
                self._abandon()
                raise ShardFailure(f"worker socket broke: {exc}") from exc
            if not chunk:
                self._abandon()
                raise ShardFailure("worker closed the connection")
            self.bytes_received += len(chunk)
            try:
                frames = self._decoder.feed(chunk)
            except proto.ProtocolError as exc:
                self._abandon()
                raise ShardFailure(f"bad frame from worker: {exc}") from exc
            self._frames.extend(frames)
            self.frames_received += len(frames)
        return self._frames.popleft()

    def _abandon(self) -> None:
        self.alive = False
        try:
            self._sock.close()
        except OSError:
            pass


def _revive_poll(header: dict) -> dict:
    """Rebuild a POLL_REPLY header into the pipe link's poll dict.

    JSON stringifies int dict keys and turns tuples into lists; the
    merge code (and the differential tests) must see identical shapes
    on every link, so the damage is undone here.
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


def _jsonable(value):
    """Deep-convert a worker reply into JSON-encodable primitives."""
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted(_jsonable(item) for item in value)
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


class ShardWorkerHost:
    """Server-side shard state behind one v2 worker connection.

    :class:`~repro.streams.net.StreamServer` creates one per connection
    on the first WORKER frame and calls :meth:`dispatch` / :meth:`poll`
    / :meth:`reset`; this class maps the JSON frame headers onto the
    exact :class:`_ShardServer` command tuples the pipe workers run, and
    scrubs the replies down to JSON-encodable primitives.  Shard state
    is connection-scoped — a coordinator that reconnects starts from a
    blank shard and re-bootstraps from its journal, which is the same
    recovery contract the pipe workers have (a dead process keeps no
    state either).
    """

    def __init__(self) -> None:
        self._options: dict = {}
        self._server: Optional[_ShardServer] = None
        self.commands = 0
        self.polls = 0
        self.resets = 0

    def _shard(self) -> _ShardServer:
        if self._server is None:
            self._server = _ShardServer(self._options)
        return self._server

    def reset(self) -> None:
        """RESPAWN: discard the shard so the peer can re-bootstrap."""
        self._server = None
        self.resets += 1

    def dispatch(self, header: dict) -> dict:
        """Run one DISPATCH command; returns the ACK header fields."""
        self.commands += 1
        mid = header.get("id")
        cmd = header.get("cmd")
        args = header.get("args") or []
        try:
            if cmd == "configure":
                self._options = dict(args[0]) if args else {}
                # Options apply from the next (re)build; configure is the
                # first command after HELLO, before any state exists.
                self._server = None
                result: object = True
            elif cmd == "register_stream":
                result = self._shard().handle(
                    ("register_stream", args[0], args[1])
                )
            elif cmd == "feed":
                result = self._shard().handle(
                    ("feed", args[0], bool(args[1]), list(args[2]))
                )
            elif cmd == "feed_raw":
                result = self._shard().handle(("feed_raw", args[0], list(args[1])))
            elif cmd == "add_query":
                result = self._shard().handle(
                    ("add_query", int(args[0]), args[1], args[2], args[3])
                )
            elif cmd == "remove_query":
                result = self._shard().handle(("remove_query", int(args[0])))
            elif cmd == "stats":
                result = self._shard().handle(("stats",))
            elif cmd == "stop":
                result = self._shard().handle(("stop",))
            else:
                raise ValueError(f"unknown worker command {cmd!r}")
        except Exception as exc:  # report, don't die: the link stays usable
            return {"id": mid, "ok": False, "error": f"{type(exc).__name__}: {exc}"}
        return {"id": mid, "ok": True, "result": _jsonable(result)}

    def poll(self, header: dict) -> dict:
        """Run one POLL pass; returns the POLL_REPLY header fields."""
        self.polls += 1
        mid = header.get("id")
        try:
            reply = self._shard().handle(("poll", header["now"]))
        except Exception as exc:
            return {"id": mid, "error": f"{type(exc).__name__}: {exc}"}
        return {"id": mid, **_jsonable(reply)}

    def stats(self) -> dict:
        return {
            "commands": self.commands,
            "polls": self.polls,
            "resets": self.resets,
            "active": self._server is not None,
        }


# -- the coordinator ---------------------------------------------------------------


class ShardedEngine:
    """Clearing-house coordinator over N partitioned worker engines.

    Parameters
    ----------
    shards:
        Worker count.  Fillers are partitioned by
        :func:`shard_of`; every standing query is resident on every
        shard (its answer is the union of per-partition answers).
    in_process:
        Serve every shard inside this process instead of spawning
        workers — bit-identical scheduling without multiprocessing,
        for differential tests and single-core hosts.
    workers:
        ``host:port`` addresses of remote worker hosts (``repro-xcql
        serve --worker`` front doors).  Address *i* serves shard *i*
        over a :class:`NetLink`; shards past the list fall back to the
        local default (pipe workers, or in-process when
        ``in_process=True``).  Mixing kinds is fine — the coordinator
        only ever speaks :class:`~repro.streams.transport.ShardLink`.
    journal_dir:
        Where the per-shard journals live.  Defaults to a private
        temporary directory removed by :meth:`close`; pass a path to
        keep journals across coordinator restarts.
    compress_threshold:
        Per-shard ``feed`` batches whose total wire size exceeds this
        many bytes are tag-compressed before pickling into the pipe
        (``None`` disables).  Raw batches are never compressed — the
        automaton path needs the exact wire text.
    timeout:
        Seconds a worker may stay silent before it is declared dead and
        failed over.
    """

    def __init__(
        self,
        shards: int = 4,
        *,
        in_process: bool = False,
        workers: Optional[Iterable[str]] = None,
        journal_dir: Optional[Union[str, os.PathLike]] = None,
        compress_threshold: Optional[int] = 65536,
        timeout: float = 30.0,
        start_method: Optional[str] = None,
        share_groups: bool = True,
        routing: bool = True,
        stream_automata: bool = True,
        default_backend: str = "compiled",
    ):
        if shards < 1:
            raise ValueError("shards must be a positive integer")
        self.shard_count = int(shards)
        self.in_process = bool(in_process)
        addresses = [str(address) for address in (workers or [])]
        if len(addresses) > self.shard_count:
            raise ValueError(
                f"{len(addresses)} worker addresses for {self.shard_count} shards"
            )
        default_kind = "inproc" if self.in_process else "pipe"
        # Per-shard link spec: respawns return to the preferred kind
        # even after an in-process failover.
        self._specs: list[tuple[str, Optional[str]]] = [
            ("net", addresses[index]) if index < len(addresses)
            else (default_kind, None)
            for index in range(self.shard_count)
        ]
        self.compress_threshold = compress_threshold
        self.timeout = timeout
        self._options = {
            "share_groups": share_groups,
            "routing": routing,
            "stream_automata": stream_automata,
            "default_backend": default_backend,
        }
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else "spawn"
        self._context = multiprocessing.get_context(start_method)
        # The local engine holds schemas only (never fillers): queries are
        # compiled and validated here once, with the same pipeline the
        # workers run, before anything crosses a process boundary.
        self._local = XCQLEngine(default_backend=default_backend)
        self._structures: dict[str, TagStructure] = {}
        self._codecs: dict[str, TagCodec] = {}
        if journal_dir is None:
            self._journal_dir = tempfile.mkdtemp(prefix="repro-shards-")
            self._own_journal_dir = True
        else:
            self._journal_dir = os.fspath(journal_dir)
            os.makedirs(self._journal_dir, exist_ok=True)
            self._own_journal_dir = False
        self._journals = [
            Journal(os.path.join(self._journal_dir, f"shard-{index}.journal"))
            for index in range(self.shard_count)
        ]
        self._shards: list[ShardLink] = [
            self._new_link(index) for index in range(self.shard_count)
        ]
        self._queries: dict[int, ShardedQuery] = {}
        self._dependencies: dict[int, QueryDependencies] = {}  # by qid
        self._next_qid = 1
        # (stream, filler_id) -> shard pin; children are pinned to their
        # parent's shard when the parent's holes pass through dispatch.
        self._homes: dict[tuple[str, int], int] = {}
        self._dirty: set[int] = set()
        self._closed = False
        # Coordinator counters (see stats()).
        self._fed = 0
        self._ticks = 0
        self._dispatch_probes = 0
        self._dispatch_wakes = 0
        self._dispatch_skips = 0
        self._dispatch_conflicts = 0
        self._shard_polls = 0
        self._shard_poll_skips = 0
        self._compressed_batches = 0
        self._failovers = 0
        self._respawns = 0
        self._delivered = {TAG_STRUCTURE: 0, FILLER: 0}
        self._channels: list[Channel] = []
        self._shard_watermarks: dict[int, dict] = {}
        self.last_tick_timing: dict = {}

    # -- shard lifecycle --------------------------------------------------------

    def _new_link(self, index: int) -> ShardLink:
        """Build shard ``index``'s link from its spec."""
        kind, address = self._specs[index]
        if kind == "net":
            return NetLink(address, self._options, self.timeout)
        if kind == "pipe":
            return PipeLink(self._context, self._options, self.timeout)
        return InProcessLink(self._options)

    def _bootstrap(self, index: int, handle) -> None:
        """Replay shard ``index``'s journal + query set into a new handle.

        The journal is the write-ahead record of everything the dead
        worker ever saw (streams first, then every filler batch in
        arrival order), so replaying it rebuilds the partition exactly;
        re-adding the standing queries afterwards re-derives their
        answers.  Old emissions re-derived this way are re-reported on
        the next poll and absorbed by the coordinator's per-query
        identity dedup — no loss, no duplicates.
        """
        batch: list[str] = []
        batch_stream: Optional[str] = None

        def flush() -> None:
            nonlocal batch, batch_stream
            if batch:
                handle.post(("feed", batch_stream, False, batch))
                batch, batch_stream = [], None

        for message in self._journals[index].read():
            if message.kind == TAG_STRUCTURE:
                flush()
                handle.post(("register_stream", message.stream, message.payload))
            else:
                if batch_stream is not None and batch_stream != message.stream:
                    flush()
                batch_stream = message.stream
                batch.append(message.payload)
                if len(batch) >= 256:
                    flush()
        flush()
        for qid, query in sorted(self._queries.items()):
            handle.post(
                ("add_query", qid, query.source, query.strategy.value, query.emit)
            )
        handle.sync()

    def _failover(self, index: int) -> None:
        """Replace a dead worker with a journal-replayed in-process shard.

        Transport-blind on purpose: whether the shard was a local child
        process or a remote worker host, everything it ever saw is in
        its write-ahead journal, so the replacement is built the same
        way from the same records.
        """
        old = self._shards[index]
        try:
            old.stop()
        except Exception:
            pass
        handle = InProcessLink(self._options)
        self._bootstrap(index, handle)
        self._shards[index] = handle
        self._failovers += 1
        # The replacement starts un-polled: flush it on the next tick so
        # any answers its partition already implies are (re-)reported and
        # deduped promptly.
        self._dirty.add(index)

    def respawn_shard(self, index: int, address: Optional[str] = None) -> None:
        """Replace shard ``index`` with a fresh worker.

        The journal bootstrap path: the new worker replays the shard's
        write-ahead journal, then the standing queries are re-added.  Use
        after a failover to climb back from in-process degraded mode, or
        to recycle a worker proactively.

        ``address`` retargets the shard to a (new) remote worker host —
        how a coordinator migrates a shard onto another machine, or
        re-adopts a replacement host after the original was killed.  A
        still-connected :class:`NetLink` respawning onto its own host is
        recycled in place with a RESPAWN frame (the host discards the
        connection's shard state) instead of reconnecting.
        """
        if not 0 <= index < self.shard_count:
            raise IndexError(f"no shard {index}")
        if address is not None:
            self._specs[index] = ("net", str(address))
        old = self._shards[index]
        if (
            isinstance(old, NetLink)
            and old.alive
            and self._specs[index] == ("net", old.address)
        ):
            try:
                old.respawn()
                old.request(("configure", dict(self._options)))
                self._bootstrap(index, old)
                self._respawns += 1
                self._dirty.add(index)
                return
            except (ShardFailure, ShardCommandError):
                pass  # the host went away mid-recycle; fall through
        try:
            old.stop()
        except Exception:
            pass
        handle = self._new_link(index)
        self._bootstrap(index, handle)
        self._shards[index] = handle
        self._respawns += 1
        self._dirty.add(index)

    # -- registration -----------------------------------------------------------

    def register_stream(self, name: str, tag_structure: TagStructure) -> None:
        """Register a stream on the coordinator and every shard."""
        self._check_open()
        if isinstance(tag_structure, str):
            tag_structure = TagStructure.from_xml(tag_structure)
        self._local.register_stream(name, tag_structure)
        self._structures[name] = tag_structure
        self._codecs[name] = TagCodec(tag_structure)
        # Single-line wire form: journal records are one line per message.
        payload = serialize(tag_structure.to_xml())
        for index in range(self.shard_count):
            self._journals[index].record(Message(TAG_STRUCTURE, name, payload))
            self._post(index, ("register_stream", name, payload))
        self._sync_all()

    def add_query(
        self,
        source: str,
        strategy: Strategy = Strategy.QAC_PLUS,
        emit: str = "delta",
    ) -> ShardedQuery:
        """Register a standing query on every shard; returns its handle.

        Only delta-safe plans are admitted — delta safety is exactly the
        partition-union property the shard merge relies on.  Non-safe
        plans raise ``ValueError`` quoting the pipeline's reason; run
        those on a single-process engine instead.
        """
        self._check_open()
        compiled = self._local.compile(source, strategy)
        plan = self._local.prepare_incremental(compiled)
        if plan is None:
            raise ValueError(
                "query is not delta-safe, so its answer is not a partition "
                "union and cannot be sharded: "
                f"{compiled.info.incremental_reason}"
            )
        qid = self._next_qid
        self._next_qid += 1
        query = ShardedQuery(qid, source, strategy, emit, plan.stream)
        self._queries[qid] = query
        self._dependencies[qid] = dependencies_of(compiled)
        for index in range(self.shard_count):
            self._post(index, ("add_query", qid, source, strategy.value, emit))
            # A new query needs its baseline evaluation everywhere.
            self._dirty.add(index)
        self._sync_all()
        return query

    def remove_query(self, query: ShardedQuery) -> bool:
        """Withdraw a standing query from every shard."""
        self._check_open()
        if query.qid not in self._queries:
            return False
        del self._queries[query.qid]
        del self._dependencies[query.qid]
        for index in range(self.shard_count):
            self._post(index, ("remove_query", query.qid))
        self._sync_all()
        return True

    # -- ingest -----------------------------------------------------------------

    def feed(self, name: str, fillers: Union[Filler, Iterable[Filler]]) -> int:
        """Partition a filler batch across the shards; returns the count.

        Per shard: the sub-batch is journaled, forwarded (tag-compressed
        past ``compress_threshold``), and put to the dependency gate — a
        shard whose sub-batch touches no resident query's tsids stays
        un-dirty and is skipped by the next :meth:`tick`.
        """
        self._check_open()
        if name not in self._structures:
            raise KeyError(f"unknown stream {name!r}")
        if isinstance(fillers, Filler):
            fillers = [fillers]
        fillers = list(fillers)
        if not fillers:
            return 0
        buckets: dict[int, list[Filler]] = {}
        for filler in fillers:
            target = self._home(name, int(filler.filler_id))
            self._pin_holes(name, target, filler.hole_ids())
            buckets.setdefault(target, []).append(filler)
        for target, batch in sorted(buckets.items()):
            envelopes = [filler.to_xml() for filler in batch]
            self._journals[target].record_many(
                Message(FILLER, name, payload) for payload in envelopes
            )
            encoded = False
            if self.compress_threshold is not None:
                wire = sum(len(payload) for payload in envelopes)
                if wire > self.compress_threshold:
                    codec = self._codecs[name]
                    envelopes = [
                        codec.encode_wire(payload) for payload in envelopes
                    ]
                    encoded = True
                    self._compressed_batches += 1
            self._post(target, ("feed", name, encoded, envelopes))
            if self._wakes(name, {int(filler.tsid) for filler in batch}):
                self._dirty.add(target)
        self._fed += len(fillers)
        return len(fillers)

    def feed_raw(self, name: str, payloads: Union[str, Iterable[str]]) -> int:
        """Partition raw envelope text across the shards; returns the count.

        Payloads are forwarded verbatim (never re-serialized or
        compressed) so each worker's streaming-automaton ingest sees the
        exact wire text; the shard key and hole pins are read off the
        envelope with a regex peek.  The same dependency gate as
        :meth:`feed` decides which shards the next tick polls.
        """
        self._check_open()
        if name not in self._structures:
            raise KeyError(f"unknown stream {name!r}")
        if isinstance(payloads, str):
            payloads = [payloads]
        payloads = list(payloads)
        if not payloads:
            return 0
        buckets: dict[int, list[str]] = {}
        tsids: dict[int, set[int]] = {}
        for payload in payloads:
            filler_id, tsid, holes = peek_filler(payload)
            target = self._home(name, filler_id)
            self._pin_holes(name, target, holes)
            buckets.setdefault(target, []).append(payload)
            tsids.setdefault(target, set()).add(tsid)
        for target, batch in sorted(buckets.items()):
            self._journals[target].record_many(
                Message(FILLER, name, payload) for payload in batch
            )
            self._post(target, ("feed_raw", name, batch))
            if self._wakes(name, tsids[target]):
                self._dirty.add(target)
        self._fed += len(payloads)
        return len(payloads)

    def _home(self, stream: str, filler_id: int) -> int:
        pinned = self._homes.get((stream, filler_id))
        if pinned is not None:
            return pinned
        target = shard_of(stream, filler_id, self.shard_count)
        self._homes[(stream, filler_id)] = target
        return target

    def _pin_holes(self, stream: str, target: int, hole_ids) -> None:
        """Pin a filler's future children to its own shard.

        Keeps every hole chain shard-local, so downward navigation
        through holes resolves inside one worker's store.  A child
        already pinned elsewhere (it arrived before its parent, from a
        server violating the paper's top-down fragmentation order) is
        left where it is and counted — splitting is detectable, not
        silent.
        """
        for hole_id in hole_ids:
            key = (stream, int(hole_id))
            existing = self._homes.get(key)
            if existing is None:
                self._homes[key] = target
            elif existing != target:
                self._dispatch_conflicts += 1

    # -- the dependency gate ------------------------------------------------------

    def _wakes(self, name: str, tsids: set) -> bool:
        """Can this sub-batch change any resident query's answer?

        ``False`` means no resident query depends on an arriving tsid (or
        on the clock), so the receiving shard need not be polled.  The
        one gate for ``feed`` and ``feed_raw``; every sub-batch it sees is
        one ``dispatch_probes``, tallied as a wake or a skip.
        """
        self._dispatch_probes += 1
        for dependencies in self._dependencies.values():
            if dependencies.touches(name, tsids) or dependencies.time_sensitive:
                self._dispatch_wakes += 1
                return True
        self._dispatch_skips += 1
        return False

    # -- evaluation -------------------------------------------------------------

    def tick(self, now: Optional[XSDateTime] = None) -> dict:
        """Poll the woken shards and merge their answers deterministically.

        Returns ``{ShardedQuery: [identity strings]}`` — delta mode
        reports each identity exactly once across the query's lifetime,
        shards, and worker restarts.  Per query, shard answer blocks are
        stable-sorted on ``(reported store seq, shard index)`` before the
        dedup, so the merged order never depends on reply arrival timing.
        """
        self._check_open()
        now = now or self._local.default_now
        now_text = str(now)
        started = time.perf_counter()
        if any(
            dependencies.time_sensitive
            for dependencies in self._dependencies.values()
        ):
            self._dirty.update(range(self.shard_count))
        polled = set(self._dirty)
        self._dirty.clear()
        replies: dict[int, dict] = {}
        for index in sorted(polled):
            try:
                self._shards[index].post(("poll", now_text))
            except ShardFailure:
                self._failover(index)
                self._dirty.discard(index)  # we poll the replacement now
                replies[index] = self._shards[index].request(("poll", now_text))
        posted = time.perf_counter()
        for index, shard in enumerate(self._shards):
            if index in replies or not shard.pending:
                continue
            try:
                out = shard.sync()
                if index in polled:
                    replies[index] = out[-1]
            except ShardFailure:
                self._failover(index)
                if index in polled:
                    self._dirty.discard(index)
                    replies[index] = self._shards[index].request(
                        ("poll", now_text)
                    )
        waited = time.perf_counter()
        self._ticks += 1
        self._shard_polls += len(replies)
        self._shard_poll_skips += self.shard_count - len(polled)
        for index, reply in replies.items():
            self._shard_watermarks[index] = dict(reply["watermarks"])
        results: dict[ShardedQuery, list[str]] = {}
        for qid in sorted(self._queries):
            query = self._queries[qid]
            blocks = []
            for index in sorted(replies):
                reply = replies[index]
                items = reply["emitted"].get(qid)
                if not items:
                    continue
                seq = reply["watermarks"].get(query.stream, (0, 0))[0]
                blocks.append((seq, index, items))
            blocks.sort(key=lambda block: (block[0], block[1]))
            merged = [item for _, _, items in blocks for item in items]
            if query.emit == "delta":
                fresh = []
                for item in merged:
                    if item not in query._seen:
                        query._seen[item] = None
                        fresh.append(item)
            else:
                fresh = merged
            query.emitted_total += len(fresh)
            if fresh:
                for subscriber in query.subscribers:
                    subscriber(list(fresh))
            results[query] = fresh
        self.last_tick_timing = {
            "post": posted - started,
            "wait": waited - posted,
            "merge": time.perf_counter() - waited,
            "shard_elapsed": {
                index: reply.get("elapsed", 0.0)
                for index, reply in replies.items()
            },
            "shard_cpu": {
                index: reply.get("cpu", 0.0)
                for index, reply in replies.items()
            },
        }
        return results

    # -- channel integration ------------------------------------------------------

    def deliver(self, message: Message) -> None:
        """Ingest one broadcast message (a Channel subscriber callback).

        Subscribing the coordinator to a transport channel makes it the
        paper's clearing-house daemon: Tag Structure announcements
        register the stream everywhere, filler messages take the raw
        dispatch path.
        """
        if message.kind == TAG_STRUCTURE:
            self.register_stream(
                message.stream, TagStructure.from_xml(message.payload)
            )
        elif message.kind == FILLER:
            self.feed_raw(message.stream, [message.payload])
        else:
            raise ValueError(f"unknown message kind {message.kind!r}")
        self._delivered[message.kind] += 1

    def attach_channel(self, channel: Channel, subscribe: bool = True) -> Channel:
        """Wire a transport channel into this coordinator.

        Subscribes :meth:`deliver` (unless ``subscribe=False`` for a
        channel wired by hand) and, either way, adopts the channel into
        :meth:`stats` — so drop/duplication tallies of a lossy feed are
        observable at the front door instead of only on the channel
        object itself.  Returns the channel for chaining.
        """
        if subscribe:
            channel.subscribe(self.deliver)
        if channel not in self._channels:
            self._channels.append(channel)
        return channel

    # -- plumbing -----------------------------------------------------------------

    def _post(self, index: int, msg: tuple) -> None:
        """Forward one (journaled or re-derivable) command to a shard.

        Safe to fail over on error: everything posted through here is
        reconstructed by the journal + query-registry bootstrap.
        """
        try:
            self._shards[index].post(msg)
        except ShardFailure:
            self._failover(index)

    def _sync_all(self) -> None:
        for index in range(self.shard_count):
            try:
                self._shards[index].sync()
            except ShardFailure:
                self._failover(index)

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("ShardedEngine is closed")

    # -- observability ------------------------------------------------------------

    def stats(self) -> dict:
        """One merged dict: coordinator counters, per-shard link + engine stats.

        The shape is deployment-independent — every shard entry carries
        its link ``kind`` and transport counters next to the worker's
        engine/scheduler/query payloads, the coordinator block reports
        the dependency gate's tallies (``dispatch_probes`` sub-batches
        gated = ``dispatch_wakes`` + ``dispatch_skips``) plus the last tick's
        wall/CPU timings, and attached channels surface their
        drop/duplication counters here rather than only per-object.
        ``repro-xcql serve --shards`` dumps exactly this dict as JSON.
        """
        self._check_open()
        shards = []
        for index in range(self.shard_count):
            try:
                payload = self._shards[index].request(("stats",))
            except ShardFailure:
                self._failover(index)
                payload = self._shards[index].request(("stats",))
            link = self._shards[index]
            shards.append(
                {
                    "index": index,
                    "kind": link.kind,
                    "in_process": link.in_process,
                    "link": link.link_stats(),
                    **payload,
                }
            )
        timing = self.last_tick_timing
        return {
            "shards": shards,
            "coordinator": {
                "shard_count": self.shard_count,
                "links": [link.kind for link in self._shards],
                "queries": len(self._queries),
                "fed": self._fed,
                "delivered": dict(self._delivered),
                "ticks": self._ticks,
                "dispatch_probes": self._dispatch_probes,
                "dispatch_wakes": self._dispatch_wakes,
                "dispatch_skips": self._dispatch_skips,
                "dispatch_conflicts": self._dispatch_conflicts,
                "shard_polls": self._shard_polls,
                "shard_poll_skips": self._shard_poll_skips,
                "compressed_batches": self._compressed_batches,
                "failovers": self._failovers,
                "respawns": self._respawns,
                "timings": {
                    "post": timing.get("post", 0.0),
                    "wait": timing.get("wait", 0.0),
                    "merge": timing.get("merge", 0.0),
                    "shard_elapsed": {
                        str(index): value
                        for index, value in sorted(
                            timing.get("shard_elapsed", {}).items()
                        )
                    },
                    "shard_cpu": {
                        str(index): value
                        for index, value in sorted(
                            timing.get("shard_cpu", {}).items()
                        )
                    },
                },
            },
            "channels": [channel.stats() for channel in self._channels],
            "watermarks": {
                index: dict(marks)
                for index, marks in sorted(self._shard_watermarks.items())
            },
        }

    # -- lifecycle ----------------------------------------------------------------

    def close(self) -> None:
        """Stop every worker and remove owned journals (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for shard in self._shards:
            try:
                shard.stop()
            except Exception:
                pass
        for journal in self._journals:
            journal.close()
        if self._own_journal_dir:
            shutil.rmtree(self._journal_dir, ignore_errors=True)

    def __enter__(self) -> "ShardedEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:
            pass
