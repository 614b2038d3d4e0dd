"""Workloads on the socket topology: producer -> StreamServer -> subscriber.

One process, one thread, one event loop: the load generator (this
module), the broadcast server with its journal, and the subscriber all
share it, joined by two loopback connections — the deployment ``repro-xcql
serve`` plus an embedding client gives a user.  The server runs with its
shipped defaults.

``standing-events`` and ``standing-updates`` attach an engine and a
scheduler to the subscriber and poll once per delivered burst;
``relay-small`` attaches nothing and narrows its subscription with a
routing predicate.
"""

from __future__ import annotations

import asyncio
import gc
import os
import time
from typing import Optional

from repro.core.engine import XCQLEngine
from repro.core.optimizer import RoutingPredicate
from repro.core.translator import Strategy
from repro.fragments.persist import Journal
from repro.streams import net
from repro.streams.continuous import ContinuousQuery
from repro.streams.scheduler import QueryScheduler
from repro.streams.transport import FILLER, TAG_STRUCTURE, Message
from repro.temporal.chrono import XSDateTime
from repro.xmark.queries import Q2, Q5

from benchmarks.e2e import traced
from benchmarks.e2e.harness import (
    Drain,
    Paced,
    Round,
    RunConfig,
    RunResult,
    identities,
    identity_set,
    judge,
    judge_repeat,
    summarize,
)
from benchmarks.e2e.layers import (
    attributed_share,
    blank_layers,
    load_layers,
    numeric_delta,
    paced_layers,
    ratio,
    scheduler_layers,
)
from benchmarks.e2e.loadgen import (
    AUCTION_STREAM,
    LEDGER_STREAM,
    LEDGER_TXN_TSID,
    AuctionLoad,
    LedgerLoad,
)
from benchmarks.e2e.measure import Tracer, percentile
from benchmarks.e2e.replay import replay_wire_costs
from benchmarks.e2e.spec import LATENCY_LIMIT_MS

__all__ = ["StandingEvents", "StandingUpdates", "RelaySmall", "event_queries", "CAQ_SAMPLE"]

_WAIT_S = 60.0  # one progress wait; the sandbox watchdog bounds the run


def _sale(threshold: int) -> str:
    return (
        f'for $c in stream("auction")//closed_auction where $c/price > {threshold} '
        "return <sale>{$c/price/text()}</sale>"
    )


def event_queries() -> list[str]:
    """The 64 standing queries of the event workloads (fixed, not seeded).

    48 bind the whole ``closed_auction``, 16 bind its ``price``: two
    shared-prefix groups, all automaton- and routing-eligible.
    """
    whole = [_sale(10 + 12 * i) for i in range(48)]
    price = [
        f'for $p in stream("auction")//closed_auction/price where $p > {20 + 36 * i} '
        "return <hit>{$p/text()}</hit>"
        for i in range(16)
    ]
    return whole + price


#: Queries also checked against the interpreter under CaQ.
CAQ_SAMPLE = (0, 21, 47, 55)


# -- subscribers ---------------------------------------------------------------------


class _StandingSubscriber:
    """Engine-backed subscriber: one scheduler poll per delivered burst.

    ``on_message`` only counts and arms a ``call_soon`` poll, so every
    envelope the transport hands over in one read is answered by a
    single poll; an op completes when the poll that followed its
    delivery returns.
    """

    def __init__(self, scheduler: QueryScheduler, now_of, tracer: Optional[Tracer]):
        self.scheduler = scheduler
        self.now_of = now_of
        self.tracer = tracer
        self.loop = asyncio.get_running_loop()
        self.event = asyncio.Event()
        self.structures = 0
        self.delivered = 0  # filler envelopes since begin()
        self.completed = 0  # ...answered by a finished poll
        self.total_delivered = 0  # across phases (drives now_of)
        self.done_at: list = []
        self.emitted: dict = {}  # ContinuousQuery -> cumulative items
        self.emitted_count = 0
        self.polls: list = []  # (envelopes, seconds) per poll since begin()
        self.hops: Optional[list] = None  # traced: publish -> callback seconds
        self.client: Optional[net.StreamClient] = None
        self.server = None
        self.live = False  # polls start once the standing queries exist
        self._armed = False

    def begin(self) -> None:
        self.delivered = self.completed = 0
        self.done_at = []
        self.polls = []

    def on_message(self, message: Message) -> None:
        if message.kind != FILLER:
            self.structures += 1
            self.event.set()
            return
        self.delivered += 1
        self.total_delivered += 1
        if self.hops is not None:
            sent = self.server.published_at.pop(self.client.last_seen, None)
            if sent is not None:
                self.hops.append(time.perf_counter() - sent)
        if not self.live:
            self.event.set()
        elif not self._armed:
            self._armed = True
            self.loop.call_soon(self.poll)

    def poll(self) -> None:
        self._armed = False
        upto = self.delivered
        tracer = self.tracer
        entered = tracer.enter("bench.subscriber") if tracer is not None else 0.0
        started = time.perf_counter()
        emitted = self.scheduler.poll(self.now_of(self.total_delivered))
        for query, items in emitted.items():
            if items:
                self.emitted.setdefault(query, []).extend(items)
                self.emitted_count += len(items)
        finished = time.perf_counter()
        self.polls.append((upto - self.completed, finished - started))
        self.done_at.extend([finished] * (upto - self.completed))
        self.completed = upto
        self.event.set()
        if tracer is not None:
            tracer.exit(entered)

    def latencies_ms(self, due) -> list:
        return [1000.0 * (done - due(i)) for i, done in enumerate(self.done_at)]

    @property
    def last_done(self) -> float:
        return self.done_at[-1]


class _RelaySubscriber:
    """Engine-less subscriber: keeps every delivered payload and its time.

    The server stamps each published message with its journal seq, so
    ``last_seen - seq_base`` is how many ops the relay has disposed of —
    delivered here or skipped by the routing predicate.
    """

    def __init__(self):
        self.event = asyncio.Event()
        self.structures = 0
        self.payloads: list = []
        self.arrivals: list = []  # (seq, time) since begin()
        self.hops: Optional[list] = None
        self.client: Optional[net.StreamClient] = None
        self.server = None
        self.seq_base = 0

    def begin(self, seq_base: int) -> None:
        self.seq_base = seq_base
        self.arrivals = []

    def on_message(self, message: Message) -> None:
        if message.kind != FILLER:
            self.structures += 1
            self.event.set()
            return
        now = time.perf_counter()
        seq = self.client.last_seen
        self.payloads.append(message.payload)
        self.arrivals.append((seq, now))
        if self.hops is not None:
            sent = self.server.published_at.pop(seq, None)
            if sent is not None:
                self.hops.append(now - sent)
        self.event.set()

    @property
    def completed(self) -> int:
        return max(0, self.client.last_seen - self.seq_base)

    def latencies_ms(self, due) -> list:
        base = self.seq_base + 1
        return [1000.0 * (at - due(seq - base)) for seq, at in self.arrivals]

    @property
    def last_done(self) -> float:
        return self.arrivals[-1][1]


# -- the topology ----------------------------------------------------------------------


class NetWorkload:
    """Set-up, phases and teardown shared by the three socket workloads."""

    name = ""
    stream = ""
    has_engine = True

    def __init__(self, config: RunConfig):
        self.seed = config.seed
        self.sizing = sizing = config.sizing
        self.sandbox = config.sandbox
        self.meter = config.meter
        self.tracer = config.tracer
        self.rounds = config.sizing.rounds
        self.rates = config.paced_rates()
        self.paced_counts = config.paced_counts()
        self.total_ops = sum(self.paced_counts) + sizing.drain_ops  # of one round
        self._attempt = 0
        self.compile_s = 0.0
        self.fed_messages = 0

    # -- hooks ---------------------------------------------------------------------

    def make_load(self):
        """Build the seeded load; returns ``(preload payloads, op payloads)``."""
        raise NotImplementedError

    def subscriptions(self) -> list:
        return [net.Subscription(self.stream)]

    def queries(self) -> list[str]:
        return []

    def now_of(self, delivered: int) -> XSDateTime:
        raise NotImplementedError

    def checkpoint_oracle(self, result: RunResult) -> None:
        """First-round checks at the quiescent point between the two phases."""

    def answers(self) -> dict:
        """What the round answered, in a form two rounds can be compared by."""
        raise NotImplementedError

    def final_oracle(self, result: RunResult, answers: dict) -> None:
        raise NotImplementedError

    def check_round(self, result: RunResult, index: int) -> None:
        """The oracle on the first round, equality with it on the others.

        Every round is given the same inputs, so the oracle's verdict on
        the first round's answers holds for any round that repeats them.
        """
        answers = self.answers()
        if index == 0:
            self.final_oracle(result, answers)
            self._first_answers = answers
        else:
            judge_repeat(result, index, self._first_answers, answers)

    # -- lifecycle -----------------------------------------------------------------

    def run(self) -> RunResult:
        return asyncio.run(self._main())

    async def _main(self) -> RunResult:
        if self.tracer is not None:
            loop = asyncio.get_running_loop()
            self.tracer.install(loop, traced.TASK_LABELS)
            # asyncio.run() made this task before the factory existed;
            # the body runs in one the tracer can see.
            return await loop.create_task(self._body())
        return await self._body()

    async def _body(self) -> RunResult:
        result = RunResult(self.name, self.seed, 0.0, rounds=self.rounds)
        rounds = []
        for index in range(self.rounds):
            started = time.perf_counter()
            try:
                await self._setup()
                setup_s = time.perf_counter() - started
                cursor = 0
                paced_runs = []
                for rate, count in zip(self.rates, self.paced_counts):
                    paced_runs.append(
                        await self._paced(self.ops[cursor : cursor + count], rate)
                    )
                    cursor += count
                if index == 0:
                    self.checkpoint_oracle(result)
                drain = await self._drain(self.ops[cursor:])
                self.check_round(result, index)
                measured = Round(setup_s, [paced.row() for paced in paced_runs], drain)
                if index == 0:
                    result.counts = self._counts()
                if self.tracer is not None:
                    measured.layers = self._layers(paced_runs[0], drain)
                rounds.append(measured)
            finally:
                await self._teardown()
        result.ops = self.rounds * self.total_ops
        summarize(result, rounds, self.meter)
        return result

    async def _setup(self) -> None:
        tracer = self.tracer
        self._attempt += 1
        self.preload_payloads, self.ops = self.make_load()
        preload = self.preload_payloads
        journal_path = self.sandbox.path(f"{self.name}-{self._attempt}.journal")
        if tracer is None:
            self.journal = Journal(journal_path)
            self.server = net.StreamServer(journal=self.journal)
            self.engine = XCQLEngine() if self.has_engine else None
            self.scheduler = QueryScheduler(self.engine) if self.has_engine else None
        else:
            self.journal = traced.TracedJournal(journal_path, tracer)
            self.server = traced.TracedServer(journal=self.journal, tracer=tracer)
            self.engine = traced.TracedEngine(tracer=tracer) if self.has_engine else None
            self.scheduler = (
                traced.TracedScheduler(self.engine, tracer) if self.has_engine else None
            )
        await self.server.start()
        if self.has_engine:
            self.subscriber = _StandingSubscriber(self.scheduler, self.now_of, tracer)
        else:
            self.subscriber = _RelaySubscriber()
        self.sub_client = net.StreamClient(
            "127.0.0.1",
            self.server.port,
            engine=self.engine,
            on_message=self.subscriber.on_message,
        )
        self.subscriber.client = self.sub_client
        self.subscriber.server = self.server
        if tracer is not None:
            self.subscriber.hops = []
        await self.sub_client.connect()
        await self.sub_client.subscribe(self.subscriptions())
        self.producer = net.StreamClient("127.0.0.1", self.server.port)
        await self.producer.connect()
        self.fed_messages = 0
        messages = [Message(TAG_STRUCTURE, self.stream, self.structure_xml)]
        messages += [Message(FILLER, self.stream, payload) for payload in preload]
        await self._feed(messages)
        self.preloaded = len(preload)
        await self._wait(
            lambda: self.subscriber.structures >= 1
            and self._preload_delivered() >= self.preloaded
        )
        self.standing: list[ContinuousQuery] = []
        if self.has_engine:
            started = time.perf_counter()
            for source in self.queries():
                query = ContinuousQuery(self.engine, source, strategy=Strategy.QAC_PLUS)
                self.scheduler.add(query)
                self.standing.append(query)
            self.compile_s = time.perf_counter() - started
            # The baseline evaluation (a full run per query) is set-up.
            self.subscriber.total_delivered = 0
            self.subscriber.live = True
            self.subscriber.poll()

    def _preload_delivered(self) -> int:
        return self.subscriber.delivered if self.has_engine else 0

    async def _teardown(self) -> None:
        for client in (getattr(self, "sub_client", None), getattr(self, "producer", None)):
            if client is not None:
                await client.close()
        server = getattr(self, "server", None)
        if server is not None:
            await server.close()
        journal = getattr(self, "journal", None)
        if journal is not None and os.path.exists(journal.path):
            os.remove(journal.path)
        # Nothing of this round may stay alive into the next one's heap.
        self.sub_client = self.producer = self.server = self.journal = None
        self.engine = self.scheduler = self.subscriber = self.load = None
        self.standing = self.ops = self.preload_payloads = None
        gc.collect()

    # -- phases ----------------------------------------------------------------------

    async def _feed(self, messages: list) -> None:
        """The producer role: one FEED frame per run of same-kind messages."""
        tracer = self.tracer
        if tracer is None:
            await self.producer.feed(messages)
        else:
            started = tracer.enter("streams.net.client_feed")
            try:
                await self.producer.feed(messages)
            finally:
                tracer.exit(started)
        self.fed_messages += len(messages)

    async def _wait(self, done) -> None:
        event = self.subscriber.event
        while not done():
            event.clear()
            await asyncio.wait_for(event.wait(), _WAIT_S)

    def _begin_phase(self) -> None:
        if self.has_engine:
            self.subscriber.begin()
        else:
            self.subscriber.begin(self.fed_messages)

    async def _paced(self, payloads: list, rate: float) -> Paced:
        """Open loop: op ``i`` is due at ``t0 + i / rate`` no matter what."""
        messages = [Message(FILLER, self.stream, payload) for payload in payloads]
        count = len(messages)
        subscriber = self.subscriber
        self._begin_phase()
        gc.collect()
        interval = 1.0 / rate
        origin = time.perf_counter() + 0.05

        def due(index: int) -> float:
            return origin + index * interval

        late = []
        sent = 0
        while sent < count:
            now = time.perf_counter()
            if now < due(sent):
                await asyncio.sleep(due(sent) - now)
                now = time.perf_counter()
            upto = sent + 1
            while upto < count and due(upto) <= now:
                upto += 1
            late.extend(1000.0 * (now - due(i)) for i in range(sent, upto))
            await self._feed(messages[sent:upto])
            sent = upto
        settle = due(count - 1) + LATENCY_LIMIT_MS / 1000.0 - time.perf_counter()
        if settle > 0:
            await asyncio.sleep(settle)
        backlog = count - subscriber.completed
        await self._wait(lambda: subscriber.completed >= count)
        return Paced(rate, subscriber.latencies_ms(due), late, backlog)

    async def _drain(self, payloads: list) -> Drain:
        """Closed loop: a fixed op count behind a bounded window."""
        messages = [Message(FILLER, self.stream, payload) for payload in payloads]
        count = len(messages)
        batch, window = self.sizing.batch, self.sizing.window
        subscriber = self.subscriber
        self._begin_phase()
        self._before = self._snapshot()
        gc.collect()
        cpu_before = self.meter.cpu_seconds()
        started = time.perf_counter()
        sent = 0
        while sent < count:
            if sent - subscriber.completed >= window:
                await self._wait(lambda: sent - subscriber.completed < window)
            await self._feed(messages[sent : sent + batch])
            sent += batch
        await self._wait(lambda: subscriber.completed >= count)
        cpu = self.meter.cpu_seconds() - cpu_before
        wall = subscriber.last_done - started
        self._after = self._snapshot()
        return Drain(count, wall, cpu)

    # -- counters ----------------------------------------------------------------------

    def _snapshot(self) -> dict:
        """Cumulative counters read through public ``stats()`` surfaces."""
        snap = {
            "client": self.sub_client.stats(),
            "server": self.server.stats(),
        }
        if self.tracer is not None:
            snap["self_s"] = self.tracer.snapshot()
            snap["calls"] = dict(self.tracer.calls)
        if self.has_engine:
            snap["scheduler"] = self.scheduler.stats()
            snap["engine"] = self.engine.stats()
        return snap

    def _counts(self) -> dict:
        """Counts fixed by the seed alone (not by timing)."""
        counts = {
            "ops": self.total_ops,
            "journal_records": self.journal.records_written,
            "journal_bytes": os.path.getsize(self.journal.path),
            "drain_feed_frames": self.sizing.drain_ops // self.sizing.batch,
        }
        if self.has_engine:
            counts["emitted_items"] = self.subscriber.emitted_count
            counts["store_fillers"] = self.engine.stores[self.stream].filler_count
        else:
            counts["delivered"] = len(self.subscriber.payloads)
        return counts

    # -- per-layer metrics -----------------------------------------------------------------

    def _layers(self, paced: Paced, drain: Drain) -> dict:
        before, after = self._before, self._after
        layers = blank_layers()
        ops, wall = drain.ops, drain.wall_s
        self_s = numeric_delta(before["self_s"], after["self_s"])
        calls = numeric_delta(before["calls"], after["calls"])
        client = numeric_delta(before["client"], after["client"])
        server = numeric_delta(before["server"], after["server"])
        received = client["received"]

        layers["fragments.persist.record_us_per_env"] = 1e6 * ratio(
            self_s.get("fragments.persist.record", 0.0),
            calls.get("fragments.persist.record", 0),
        )
        layers["fragments.persist.journal_bytes_per_env"] = ratio(
            os.path.getsize(self.journal.path), self.journal.records_written
        )
        layers["streams.net.publish_self_us_per_env"] = 1e6 * ratio(
            self_s.get("streams.net.publish", 0.0), calls.get("streams.net.publish", 0)
        )
        hops = self.subscriber.hops
        layers["streams.net.hop_ms_p50"] = 1000.0 * percentile(hops, 50) if hops else 0.0
        layers["streams.net.wire_bytes_per_env"] = ratio(client["bytes_decoded"], received)
        layers["streams.net.routing_skip_ratio"] = ratio(
            server["routing_skips"], server["routing_skips"] + server["fanned_out"]
        )
        layers["streams.net.dropped_frames"] = float(after["server"]["dropped_frames"])
        layers["streams.netproto.frames_per_kenv"] = 1000.0 * ratio(
            client["frames_decoded"], received
        )
        layers["streams.compression.compressed_batch_ratio"] = ratio(
            client["compressed_batches"], client["batches"]
        )
        per_batch = max(1, round(ratio(received, client["batches"])))
        layers.update(
            replay_wire_costs(self.ops[-ops:], self.stream, self.structure_xml, per_batch)
        )
        if self.has_engine:
            layers.update(self._engine_layers(ops, wall, self_s))
        layers.update(load_layers(self.load))
        layers.update(paced_layers(paced))
        layers["pipeline.attributed_share"] = attributed_share(self_s, wall)
        return layers

    def _engine_layers(self, ops: int, wall: float, self_s: dict) -> dict:
        """The subscriber's engine, scheduler and store, over the drain."""
        before, after = self._before, self._after
        scheduler = numeric_delta(before["scheduler"], after["scheduler"])
        store = after["engine"]["streams"][self.stream]
        cache, memo = after["engine"]["plan_cache"], store["delta_memo"]
        poll_ms = [1000.0 * seconds for _, seconds in self.subscriber.polls]
        feed_raw_s = self_s.get("core.engine.feed_raw", 0.0)
        emitted = self.subscriber.emitted_count
        layers = scheduler_layers(scheduler, ops)
        layers.update({
            "core.engine.compile_ms_per_query": 1000.0 * ratio(
                self.compile_s, len(self.standing)
            ),
            "core.engine.feed_raw_us_per_env": 1e6 * ratio(feed_raw_s, ops),
            "core.engine.feed_raw_share": ratio(feed_raw_s, wall),
            "core.engine.plan_cache_hit_ratio": ratio(
                cache["hits"], cache["hits"] + cache["misses"]
            ),
            "xquery.automata.buffered_peak": float(self.scheduler.buffered_peak),
            "fragments.store.fillers": float(store["fillers"]),
            "fragments.store.wire_mb": sum(
                len(payload.encode("utf-8")) for payload in self.preload_payloads + self.ops
            ) / 1e6,
            "fragments.store.delta_memo_hit_ratio": ratio(
                memo["hits"], memo["hits"] + memo["misses"]
            ),
            "streams.scheduler.poll_ms_p50": percentile(poll_ms, 50),
            "streams.scheduler.poll_ms_p95": percentile(poll_ms, 95),
            "streams.scheduler.poll_share": ratio(sum(poll_ms) / 1000.0, wall),
            "streams.scheduler.envelopes_per_poll": ratio(ops, len(poll_ms)),
            "streams.continuous.emitted_items_per_op": ratio(emitted, self.total_ops),
            "pipeline.emitted_items": float(emitted),
        })
        return layers


# -- standing-events -------------------------------------------------------------------


class StandingEvents(NetWorkload):
    """Workload 1, the spine: sale events under 64 eligible standing queries."""

    name = "standing-events"
    stream = AUCTION_STREAM
    _NOW = XSDateTime(2004, 1, 1)

    def make_load(self):
        self.load = load = AuctionLoad(self.seed)
        self.structure_xml = load.structure_xml
        ops = load.events(self.total_ops)
        return load.catalog + [load.root_update()], ops

    def queries(self) -> list[str]:
        return event_queries()

    def now_of(self, delivered: int) -> XSDateTime:
        return self._NOW

    def _emitted_ids(self, query) -> set:
        return identity_set(self.subscriber.emitted.get(query, ()))

    def checkpoint_oracle(self, result: RunResult) -> None:
        """CaQ over the interpreter must have produced the same answers.

        Run between the phases, where the store is still small: the
        interpreter materializes the whole temporal view per query.
        """
        for index in CAQ_SAMPLE:
            query = self.standing[index]
            expected = identity_set(
                self.engine.execute(
                    query.source, Strategy.CAQ, now=self._NOW, backend="interpreted"
                )
            )
            judge(result, f"CaQ/interpreted q{index}", expected, self._emitted_ids(query))

    def answers(self) -> dict:
        return {
            index: self._emitted_ids(query) for index, query in enumerate(self.standing)
        }

    def final_oracle(self, result: RunResult, answers: dict) -> None:
        """Cumulative emissions == a fresh full execution on the final store."""
        for index, query in enumerate(self.standing):
            expected = identity_set(
                self.engine.execute(query.source, Strategy.QAC_PLUS, now=self._NOW)
            )
            judge(result, f"full q{index}", expected, answers[index])


# -- standing-updates ------------------------------------------------------------------


def _hot(threshold: int) -> str:
    return (
        f'for $o in stream("auction")//open_auction where $o/current > {threshold} '
        'return <hot id="{$o/@id}">{$o/current/text()}</hot>'
    )


#: (source, monotone).  A monotone query's answers never leave its
#: result, so its cumulative emissions must equal the final answer; the
#: others (aggregates, windows) are checked on their final answer only.
UPDATE_QUERIES = (
    (_hot(100), True),
    (_hot(200), True),
    (_hot(300), True),
    (_hot(400), True),
    (Q2, True),
    (Q5, False),
    (
        'for $c in stream("auction")//closed_auction?[now-PT2H, now] '
        "return <recent>{$c/price/text()}</recent>",
        False,
    ),
    (
        'for $o in stream("auction")//open_auction?[now-PT1H, now] '
        'return <active id="{$o/@id}">{$o/current/text()}</active>',
        False,
    ),
    (
        'for $o in stream("auction")//open_auction#[last - 1, last] '
        'return <lasttwo id="{$o/@id}">{$o/current/text()}</lasttwo>',
        False,
    ),
    (
        'for $o in stream("auction")//open_auction where $o/current?[now] > 250 '
        'return <live id="{$o/@id}"/>',
        False,
    ),
    (_sale(40), True),
    (_sale(200), True),
)

_UPDATE_STEP_S = 30


class StandingUpdates(NetWorkload):
    """Workload 2: bids re-version temporal fragments under projections."""

    name = "standing-updates"
    stream = AUCTION_STREAM

    def make_load(self):
        self.load = load = AuctionLoad(self.seed)
        self.structure_xml = load.structure_xml
        ops = load.updates(self.total_ops)
        return load.catalog + [load.root_update()], ops

    def queries(self) -> list[str]:
        return [source for source, _ in UPDATE_QUERIES]

    def now_of(self, delivered: int) -> XSDateTime:
        """``now`` is the latest delivered validTime."""
        return self.load.stamp_of(max(0, delivered - 1), _UPDATE_STEP_S)

    def answers(self) -> dict:
        """Per query: its last answer and, if monotone, all it ever emitted.

        What a window or an aggregate emitted on the way depends on
        where the polls fell, so it is not compared between rounds.
        """
        return {
            index: (
                identities(query.last_result),
                identity_set(self.subscriber.emitted.get(query, ())) if monotone else None,
            )
            for index, (query, (_, monotone)) in enumerate(zip(self.standing, UPDATE_QUERIES))
        }

    def final_oracle(self, result: RunResult, answers: dict) -> None:
        now = self.now_of(self.total_ops)
        for index, (query, (_, monotone)) in enumerate(zip(self.standing, UPDATE_QUERIES)):
            fresh = identities(self.engine.execute(query.source, Strategy.QAC_PLUS, now=now))
            last, emitted = answers[index]
            if last != fresh:
                result.failed_ops += max(1, len(set(fresh) ^ set(last)))
                result.failures.append(f"final answer q{index} differs from a fresh run")
            if monotone:
                judge(result, f"cumulative q{index}", set(fresh), emitted)
        for index in (0, 4, 5, 10):
            expected = identities(
                self.engine.execute(
                    self.standing[index].source, Strategy.CAQ, now=now, backend="interpreted"
                )
            )
            if expected != answers[index][0]:
                result.failed_ops += 1
                result.failures.append(f"CaQ/interpreted q{index} differs")


# -- relay-small -----------------------------------------------------------------------

_RELAY_THRESHOLD = 250


class RelaySmall(NetWorkload):
    """Workload 4: the smallest messages, no engine, a routing predicate."""

    name = "relay-small"
    stream = LEDGER_STREAM
    has_engine = False

    def make_load(self):
        self.load = load = LedgerLoad(self.seed)
        self.structure_xml = load.structure_xml
        ops = []
        # Each phase ends on an envelope the subscriber receives.
        for count in self.paced_counts + [self.sizing.drain_ops]:
            ops += load.envelopes(count, close_with_match=_RELAY_THRESHOLD + 1)
        return [], ops

    def subscriptions(self) -> list:
        predicate = RoutingPredicate(
            tuple_tag="txn",
            path=("amount",),
            attribute=None,
            text_only=False,
            op=">",
            value=float(_RELAY_THRESHOLD),
            numeric=True,
        )
        return [net.Subscription(self.stream, tsid=LEDGER_TXN_TSID, predicate=predicate)]

    def check_round(self, result: RunResult, index: int) -> None:
        """Delivered == exactly the predicate-selected envelopes, in order.

        Cheap enough to run in full on every round.
        """
        marker = "<amount>"
        expected = [
            payload
            for payload in self.ops
            if int(payload.split(marker, 1)[1].split("<", 1)[0]) > _RELAY_THRESHOLD
        ]
        delivered = self.subscriber.payloads
        if delivered != expected:
            wrong = sum(1 for a, b in zip(delivered, expected) if a != b)
            wrong += abs(len(delivered) - len(expected))
            result.failed_ops += max(1, wrong)
            result.failures.append(
                f"relay delivered {len(delivered)} envelopes, expected {len(expected)}; "
                f"{wrong} differ"
            )
