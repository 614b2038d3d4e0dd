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

One protocol, three media
-------------------------

The coordinator speaks one link — :class:`repro.streams.transport.ShardLink`
— and one protocol over it: the netproto v2 WORKER frames
(DISPATCH/POLL/POLL_REPLY/RESPAWN) that ``serve``/``tail``'s framed
socket protocol defines.  Three media carry the frame bytes and are
interchangeable per shard:

- :class:`InProcessLink` is the loopback: it hands each frame to a
  :class:`ShardWorkerHost` inside the coordinator process
  (deterministic differential testing, failover target);
- :class:`PipeLink` spawns a ``multiprocessing`` worker that runs the
  same host, and moves the frames with ``send_bytes`` / ``recv_bytes``;
- :class:`NetLink` is a socket to a remote worker host, after a HELLO
  handshake — so a shard can live on another host behind an ordinary
  ``repro-xcql serve`` front door.

Dispatch, poll-merge, journaling, failover, and respawn are written
once against the link; :meth:`ShardWorkerHost.serve` is the one place a
worker command is parsed and run, whichever medium delivered it.

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

Envelopes cross to a worker as their exact wire text, whichever ingest
call brought them (``feed`` serializes its fillers first), so the
worker's streaming-automaton path sees what the server sent.
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
from repro.fragments.model import Filler
from repro.fragments.persist import Journal
from repro.fragments.tagstructure import TagStructure
from repro.streams import netproto as proto
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
    ShardCommandError,
    ShardFailure,
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


def _jsonable(value):
    """Deep-convert a command result into JSON-encodable primitives."""
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
    """One shard worker: an engine + scheduler over its partition, run by frames.

    Every link kind ends here: the in-process loopback calls
    :meth:`serve` directly, a pipe worker process calls it from
    :func:`_pipe_worker_main`, and :class:`~repro.streams.net.StreamServer`
    calls it for each WORKER frame on a v2 connection.  :meth:`serve`
    is the one place a worker command is parsed and run, so failover
    swaps the medium without changing any evaluation code.

    Shard state is built on first use with the options of the last
    ``configure`` and is scoped to the host — a coordinator that
    reconnects (or a dead pipe worker's replacement) starts from a blank
    shard and re-bootstraps from its journal.
    """

    def __init__(self) -> None:
        self._options: dict = {}
        self.engine: Optional[XCQLEngine] = None
        self.scheduler: Optional[QueryScheduler] = None
        self.queries: dict[int, ContinuousQuery] = {}
        self.commands = 0
        self.polls = 0
        self.resets = 0

    def serve(self, frame: proto.Frame) -> bytes:
        """Run one WORKER frame; returns the encoded reply frame.

        DISPATCH and RESPAWN are answered by ACK, POLL by POLL_REPLY.  A
        command that raises is reported in its reply, not raised: the
        link stays usable.
        """
        mid = frame.header.get("id")
        if frame.type == proto.RESPAWN:
            self.reset()
            return proto.encode_control(proto.ACK, id=mid, ok=True, result=True)
        polling = frame.type == proto.POLL
        try:
            if polling:
                self.polls += 1
                return proto.encode_control(
                    proto.POLL_REPLY, id=mid, **self._poll(frame.header["now"])
                )
            self.commands += 1
            result = self._run(frame.header.get("cmd"), frame.header.get("args") or [])
            return proto.encode_control(proto.ACK, id=mid, ok=True, result=_jsonable(result))
        except Exception as exc:  # report, don't die
            error = f"{type(exc).__name__}: {exc}"
        if polling:
            return proto.encode_control(proto.POLL_REPLY, id=mid, error=error)
        return proto.encode_control(proto.ACK, id=mid, ok=False, error=error)

    def reset(self) -> None:
        """RESPAWN: discard the shard so the peer can re-bootstrap."""
        self.engine = None
        self.resets += 1

    def stats(self) -> dict:
        return {
            "commands": self.commands,
            "polls": self.polls,
            "resets": self.resets,
            "active": self.engine is not None,
        }

    def _shard(self) -> tuple[XCQLEngine, QueryScheduler]:
        if self.engine is None:
            options = self._options
            self.engine = XCQLEngine()
            self.scheduler = QueryScheduler(
                self.engine,
                share_groups=options.get("share_groups", True),
                routing=options.get("routing", True),
                stream_automata=options.get("stream_automata", True),
            )
            self.queries = {}
        return self.engine, self.scheduler

    def _run(self, cmd, args: list):
        """One DISPATCH command; its result is the ACK's ``result``."""
        if cmd == "configure":
            # Options apply from the next build; configure is the first
            # command a link posts, before any state exists.
            self._options = dict(args[0]) if args else {}
            self.engine = None
            return True
        engine, scheduler = self._shard()
        if cmd == "register_stream":
            name, structure_xml = args
            engine.register_stream(name, TagStructure.from_xml(structure_xml))
            return True
        if cmd == "feed_raw":
            name, payloads = args
            return engine.feed_raw(name, payloads)
        if cmd == "add_query":
            qid, source, strategy_value, emit = args
            query = ContinuousQuery(
                engine, source, strategy=Strategy(strategy_value), emit=emit
            )
            scheduler.add(query)
            self.queries[int(qid)] = query
            return True
        if cmd == "remove_query":
            query = self.queries.pop(int(args[0]), None)
            if query is not None:
                scheduler.remove(query)
            return query is not None
        if cmd == "stats":
            # Query ids are stringified here as JSON would: one shape
            # whatever reads the reply.
            return {
                "engine": engine.stats(),
                "scheduler": scheduler.stats(),
                "queries": {
                    str(qid): query.stats() for qid, query in self.queries.items()
                },
            }
        raise ValueError(f"unknown worker command {cmd!r}")

    def _poll(self, now_text: str) -> dict:
        engine, scheduler = self._shard()
        started = time.perf_counter()
        cpu_started = time.process_time()
        emitted = scheduler.poll(XSDateTime.parse(now_text))
        return {
            # The strings the poll just deduplicated the emission on, not
            # a second serialization of it.  JSON turns the qid keys and
            # the watermark tuples into strings and lists; the link
            # revives them.
            "emitted": {
                qid: query.last_emitted_identities
                for qid, query in self.queries.items()
                if emitted.get(query)
            },
            "watermarks": {
                name: store.watermark for name, store in engine.stores.items()
            },
            # Wall time inside the worker, and the worker's own CPU
            # time.  They diverge when workers outnumber cores and the
            # scheduler time-slices them: the CPU figure is the honest
            # per-shard compute for critical-path analysis.
            "elapsed": time.perf_counter() - started,
            "cpu": time.process_time() - cpu_started,
        }


def _pipe_worker_main(conn) -> None:
    """A worker process: serve WORKER frames from the pipe until BYE."""
    host = ShardWorkerHost()
    decoder = proto.FrameDecoder()
    try:
        while True:
            for frame in decoder.feed(conn.recv_bytes()):
                if frame.type == proto.BYE:
                    return
                conn.send_bytes(host.serve(frame))
    except (EOFError, OSError, KeyboardInterrupt):
        pass
    finally:
        conn.close()


# -- the media (coordinator side) -----------------------------------------------


class InProcessLink(ShardLink):
    """The loopback medium: a :class:`ShardWorkerHost` in this process.

    Each frame is handed straight to the host and its reply queued for
    :meth:`_read`, so commands execute eagerly.  Used when
    ``in_process=True`` (deterministic differential testing,
    single-core deployments) and as the failover target when a worker
    dies.
    """

    kind = "inproc"

    def __init__(self, options: dict):
        super().__init__()
        self.host = ShardWorkerHost()
        self._wire = proto.FrameDecoder()
        self._inbox: deque = deque()
        self.post(("configure", dict(options)))

    def _write(self, data: bytes) -> None:
        self._inbox.extend(self.host.serve(frame) for frame in self._wire.feed(data))

    def _read(self) -> bytes:
        return self._inbox.popleft()

    def stop(self) -> None:
        self.alive = False


class PipeLink(ShardLink):
    """A local worker process behind a ``multiprocessing`` pipe.

    The worker runs :func:`_pipe_worker_main`; each frame travels as one
    ``send_bytes`` message.  The start method is ``fork`` where the
    platform has it (cheap, and the worker inherits the loaded code),
    ``spawn`` elsewhere.
    """

    kind = "pipe"

    def __init__(self, options: dict, timeout: float):
        super().__init__()
        self.timeout = timeout
        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
        self.conn, child_conn = context.Pipe()
        self.process = context.Process(
            target=_pipe_worker_main, args=(child_conn,), daemon=True
        )
        self.process.start()
        child_conn.close()
        self.post(("configure", dict(options)))

    def _write(self, data: bytes) -> None:
        try:
            self.conn.send_bytes(data)
        except OSError as exc:
            raise ShardFailure(f"worker pipe broke: {exc}") from exc

    def _read(self) -> bytes:
        try:
            if not self.conn.poll(self.timeout):
                raise ShardFailure(f"worker unresponsive for {self.timeout:.1f}s")
            return self.conn.recv_bytes()
        except (EOFError, OSError) as exc:
            raise ShardFailure(f"worker died mid-reply: {exc}") from exc

    def stop(self) -> None:
        if self.alive:
            try:
                self._send(proto.encode_control(proto.BYE))
            except ShardFailure:
                pass
            self.process.join(timeout=min(self.timeout, 2.0))
        self.alive = False
        try:
            self.conn.close()
        except OSError:
            pass
        if self.process.is_alive():
            self.process.terminate()
        self.process.join(timeout=5.0)


class NetLink(ShardLink):
    """A socket to a remote worker host (``repro-xcql serve --worker``).

    A plain blocking socket client — deliberately not asyncio: the
    coordinator's pipelined post/sync discipline is synchronous, and the
    link lives on the coordinator's thread exactly like a pipe.

    The HELLO handshake advertises every version this build speaks; a
    host that negotiates below v2 cannot carry WORKER frames, so the
    link raises :class:`ShardFailure` and the coordinator degrades
    through its normal failover path (the host itself still serves that
    v1 connection's subscribe/tail surface — degraded, not refused).
    """

    kind = "net"

    def __init__(self, address: str, options: dict, timeout: float):
        super().__init__()
        self.address = address
        self.timeout = timeout
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
        try:
            self._handshake()
        except ShardFailure:
            self._sock.close()
            raise
        self.post(("configure", dict(options)))

    def _handshake(self) -> None:
        self._send(
            proto.encode_control(
                proto.HELLO, versions=list(proto.PROTOCOL_VERSIONS), role="shard-link"
            )
        )
        frame = self._recv_frame()
        if frame.type == proto.ERROR:
            self._fail(
                f"worker {self.address} refused the handshake: "
                f"{frame.header.get('error', frame.header)}"
            )
        if frame.type != proto.HELLO:
            self._fail(f"worker {self.address} answered {frame.name}, expected HELLO")
        self.version = int(frame.header.get("version", 1))
        if self.version < 2:
            # The host is alive but speaks only v1 — it has no WORKER
            # frames to offer this link.  Say goodbye politely; the
            # coordinator fails over instead of wedging the shard.
            try:
                self._send(proto.encode_control(proto.BYE))
            except ShardFailure:
                pass
            self._fail(
                f"worker {self.address} negotiated protocol v{self.version}; "
                "the WORKER role needs v2"
            )

    def _write(self, data: bytes) -> None:
        try:
            self._sock.sendall(data)
        except OSError as exc:
            raise ShardFailure(f"worker socket broke: {exc}") from exc

    def _read(self) -> bytes:
        try:
            chunk = self._sock.recv(1 << 16)
        except socket.timeout:
            raise ShardFailure(f"worker unresponsive for {self.timeout:.1f}s") from None
        except OSError as exc:
            raise ShardFailure(f"worker socket broke: {exc}") from exc
        if not chunk:
            raise ShardFailure("worker closed the connection")
        return chunk

    def stop(self) -> None:
        if self.alive:
            try:
                self._send(proto.encode_control(proto.BYE))
            except ShardFailure:
                pass
        self.alive = False
        try:
            self._sock.close()
        except OSError:
            pass


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
        timeout: float = 30.0,
        share_groups: bool = True,
        routing: bool = True,
        stream_automata: bool = True,
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
        self.timeout = timeout
        self._options = {
            "share_groups": share_groups,
            "routing": routing,
            "stream_automata": stream_automata,
        }
        # The local engine holds schemas only (never fillers): queries are
        # compiled and validated here once, with the same pipeline the
        # workers run, before anything crosses a process boundary.
        self._local = XCQLEngine()
        self._structures: dict[str, TagStructure] = {}
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
            return PipeLink(self._options, self.timeout)
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
                handle.post(("feed_raw", batch_stream, batch))
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
                old.request(("respawn",))
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

        The fillers are serialized and take :meth:`feed_raw`'s path —
        journal, forward, dependency gate — so a worker has one ingest
        command whichever call brought the envelopes.
        """
        if isinstance(fillers, Filler):
            fillers = [fillers]
        return self.feed_raw(name, [filler.to_xml() for filler in fillers])

    def feed_raw(self, name: str, payloads: Union[str, Iterable[str]]) -> int:
        """Partition raw envelope text across the shards; returns the count.

        Per shard: the sub-batch is journaled, forwarded verbatim (never
        re-serialized) so the worker's streaming-automaton ingest sees
        the exact wire text, and put to the dependency gate — a shard
        whose sub-batch touches no resident query's tsids stays un-dirty
        and is skipped by the next :meth:`tick`.  The shard key and hole
        pins are read off the envelope with a regex peek.
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
