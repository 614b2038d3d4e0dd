"""Workload 3, ``sharded-events``: the event traffic through a 2-shard engine.

``ShardedEngine(2, workers=[loopback serve --worker host])``: shard 0
sits behind a :class:`~repro.streams.sharding.NetLink`, shard 1 behind a
:class:`~repro.streams.sharding.PipeLink`.  The driver is synchronous —
``feed_raw(batch)`` then ``tick()`` — so there is no event loop here and
the coordinator's own time is everything the driver does not spend
generating load.

The catalog is preloaded *without* its root filler: the coordinator pins
every hole of a passing filler to that filler's shard, and the XMark
``site`` root holds a hole for every fragment, so feeding it would home
the whole stream on one shard and leave the other link idle.  Sharded
plans are delta-safe QaC+ plans and never navigate holes, so the root is
not needed for their answers; the oracle engine gets the complete stream.
"""

from __future__ import annotations

import gc
import multiprocessing
import statistics
import time
from multiprocessing.reduction import ForkingPickler
from typing import Optional

from repro.core.engine import XCQLEngine
from repro.core.translator import Strategy
from repro.streams.sharding import ShardedEngine, shard_of
from repro.streams.transport import peek_filler
from repro.temporal.chrono import XSDateTime

from benchmarks.e2e import traced
from benchmarks.e2e.harness import (
    Drain,
    Paced,
    Round,
    RunConfig,
    RunResult,
    identity_set,
    judge,
    judge_repeat,
    summarize,
)
from benchmarks.e2e.layers import (
    attributed_share,
    add_numeric,
    blank_layers,
    load_layers,
    numeric_delta,
    paced_layers,
    ratio,
    scheduler_layers,
)
from benchmarks.e2e.loadgen import AUCTION_STREAM, AuctionLoad
from benchmarks.e2e.measure import percentile
from benchmarks.e2e.netbench import CAQ_SAMPLE, event_queries
from benchmarks.e2e.replay import replay_wire_costs
from benchmarks.e2e.spec import LATENCY_LIMIT_MS

__all__ = ["ShardedEvents"]

_SHARDS = 2
_NOW = XSDateTime(2004, 1, 1)


class ShardedEvents:
    name = "sharded-events"
    stream = AUCTION_STREAM

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
        self.engine: Optional[ShardedEngine] = None
        self.emitted: dict = {}  # ShardedQuery -> cumulative identity strings
        self.emitted_count = 0
        self.ticks: list = []  # (wall seconds, last_tick_timing) since the phase began

    # -- lifecycle -----------------------------------------------------------------

    def run(self) -> RunResult:
        result = RunResult(self.name, self.seed, 0.0, rounds=self.rounds)
        rounds = []
        first_answers: dict = {}
        for index in range(self.rounds):
            started = time.perf_counter()
            try:
                self._setup()
                setup_s = time.perf_counter() - started
                cursor = 0
                paced_runs = []
                for rate, count in zip(self.rates, self.paced_counts):
                    paced_runs.append(self._paced(self.ops[cursor : cursor + count], rate))
                    cursor += count
                if index == 0:
                    self._oracle_feed(self.ops[:cursor])
                    self._caq_oracle(result)
                drain = self._drain(self.ops[cursor:])
                answers = {i: self._emitted_ids(q) for i, q in enumerate(self.queries)}
                if index == 0:
                    # The solo-engine oracle on the first round; the others
                    # repeat its inputs and must repeat its answers.
                    self._oracle_feed(self.ops[cursor:])
                    self._full_oracle(result, answers)
                    first_answers = answers
                    result.counts = self._counts()
                else:
                    judge_repeat(result, index, first_answers, answers)
                measured = Round(setup_s, [paced.row() for paced in paced_runs], drain)
                if self.tracer is not None:
                    measured.layers = self._layers(paced_runs[0], drain)
                rounds.append(measured)
            finally:
                self._teardown()
        result.ops = self.rounds * self.total_ops
        summarize(result, rounds, self.meter)
        return result

    def _setup(self) -> None:
        self._attempt += 1
        self.load = load = AuctionLoad(self.seed)
        self.ops = load.events(self.total_ops)
        self.root_update = load.root_update()
        address, pid = self.sandbox.spawn_worker_host()
        self.meter.watch(pid)
        options = dict(
            workers=[address], journal_dir=self.sandbox.path(f"shards-{self._attempt}")
        )
        if self.tracer is None:
            self.engine = ShardedEngine(_SHARDS, **options)
        else:
            self.engine = traced.TracedShardedEngine(_SHARDS, tracer=self.tracer, **options)
        for worker in multiprocessing.active_children():
            self.meter.watch(worker.pid)
        self.engine.register_stream(self.stream, load.structure)
        self.preload = load.catalog[1:]  # see the module docstring
        self.engine.feed_raw(self.stream, self.preload)
        started = time.perf_counter()
        self.queries = [
            self.engine.add_query(source, Strategy.QAC_PLUS) for source in event_queries()
        ]
        self.compile_s = time.perf_counter() - started
        self.emitted = {}
        self.emitted_count = 0
        self._tick()  # baseline evaluations are set-up
        self.oracle_engine: Optional[XCQLEngine] = None

    def _teardown(self) -> None:
        if self.engine is not None:
            self.engine.close()
            self.engine = None
        self.sandbox.reap()
        self.oracle_engine = self.load = self.ops = None
        self.emitted = {}
        gc.collect()

    # -- phases ----------------------------------------------------------------------

    def _tick(self) -> float:
        started = time.perf_counter()
        emitted = self.engine.tick(_NOW)
        for query, items in emitted.items():
            if items:
                self.emitted.setdefault(query, []).extend(items)
                self.emitted_count += len(items)
        finished = time.perf_counter()
        self.ticks.append((finished - started, self.engine.last_tick_timing))
        return finished

    def _paced(self, payloads: list, rate: float) -> Paced:
        """Open loop: whatever is due goes out as one batch, then a tick."""
        count = len(payloads)
        self.ticks = []
        gc.collect()
        interval = 1.0 / rate
        origin = time.perf_counter() + 0.05

        def due(index: int) -> float:
            return origin + index * interval

        late, done_at = [], []
        sent = 0
        while sent < count:
            now = time.perf_counter()
            if now < due(sent):
                time.sleep(due(sent) - now)
                now = time.perf_counter()
            upto = sent + 1
            while upto < count and due(upto) <= now:
                upto += 1
            late.extend(1000.0 * (now - due(i)) for i in range(sent, upto))
            self.engine.feed_raw(self.stream, payloads[sent:upto])
            finished = self._tick()
            done_at.extend([finished] * (upto - sent))
            sent = upto
        limit_at = due(count - 1) + LATENCY_LIMIT_MS / 1000.0
        backlog = sum(1 for done in done_at if done > limit_at)
        latencies = [1000.0 * (done - due(i)) for i, done in enumerate(done_at)]
        return Paced(rate, latencies, late, backlog)

    def _drain(self, payloads: list) -> Drain:
        """Closed loop: a window of FEED-sized batches, then a tick."""
        count = len(payloads)
        batch, window = self.sizing.batch, self.sizing.window
        self.ticks = []
        self._before = self.engine.stats()
        gc.collect()
        cpu_before = self.meter.cpu_seconds()
        if self.tracer is not None:
            self._self_before = self.tracer.snapshot()
        started = finished = time.perf_counter()
        for base in range(0, count, window):
            upto = min(base + window, count)
            for offset in range(base, upto, batch):
                self.engine.feed_raw(self.stream, payloads[offset : offset + batch])
            finished = self._tick()
        if self.tracer is not None:
            self._self_after = self.tracer.snapshot()
        cpu = self.meter.cpu_seconds() - cpu_before
        self._after = self.engine.stats()
        return Drain(count, finished - started, cpu)

    # -- oracle ------------------------------------------------------------------------

    def _oracle_feed(self, payloads: list) -> None:
        """A fresh solo engine fed the complete, legal stream."""
        if self.oracle_engine is None:
            self.oracle_engine = XCQLEngine()
            self.oracle_engine.register_stream(self.stream, self.load.structure)
            self.oracle_engine.feed_raw(
                self.stream, self.load.catalog + [self.root_update]
            )
        self.oracle_engine.feed_raw(self.stream, payloads)

    def _emitted_ids(self, query) -> set:
        return set(self.emitted.get(query, ()))  # ticks emit identity strings

    def _caq_oracle(self, result: RunResult) -> None:
        for index in CAQ_SAMPLE:
            query = self.queries[index]
            expected = identity_set(
                self.oracle_engine.execute(
                    query.source, Strategy.CAQ, now=_NOW, backend="interpreted"
                )
            )
            judge(result, f"CaQ/interpreted q{index}", expected, self._emitted_ids(query))

    def _full_oracle(self, result: RunResult, answers: dict) -> None:
        """Merged emissions == a solo engine's full answers, exactly once."""
        total = 0
        for index, query in enumerate(self.queries):
            expected = identity_set(
                self.oracle_engine.execute(query.source, Strategy.QAC_PLUS, now=_NOW)
            )
            total += len(expected)
            judge(result, f"full q{index}", expected, answers[index])
        if total != self.emitted_count:
            result.failed_ops += abs(total - self.emitted_count)
            result.failures.append(
                f"merge emitted {self.emitted_count} items, a solo engine emits {total}"
            )

    # -- counters ----------------------------------------------------------------------

    def _counts(self) -> dict:
        coordinator = numeric_delta(self._before["coordinator"], self._after["coordinator"])
        scheduler = self._scheduler_delta()
        return {
            "ops": self.total_ops,
            "emitted_items": self.emitted_count,
            "store_fillers": sum(
                shard["engine"]["streams"][self.stream]["fillers"]
                for shard in self._after["shards"]
            ),
            "drain_ticks": coordinator["ticks"],
            "drain_shard_polls": coordinator["shard_polls"],
            "drain_tier_runs": {
                "automaton_runs": scheduler["automata"]["runs"],
                "delta_runs": scheduler["delta_runs"],
                "shared_runs": scheduler["shared_runs"],
                "full_runs": scheduler["full_runs"],
            },
        }

    def _scheduler_delta(self) -> dict:
        """The workers' ``scheduler`` stats over the drain, summed over shards."""
        total: dict = {}
        for before, after in zip(self._before["shards"], self._after["shards"]):
            add_numeric(total, numeric_delta(before["scheduler"], after["scheduler"]))
        return total

    # -- per-layer metrics -----------------------------------------------------------------

    def _layers(self, paced: Paced, drain: Drain) -> dict:
        layers = blank_layers()
        ops, wall = drain.ops, drain.wall_s
        self_s = numeric_delta(self._self_before, self._self_after)
        coordinator = numeric_delta(self._before["coordinator"], self._after["coordinator"])
        tick_walls = [seconds for seconds, _ in self.ticks]
        timings = [timing for _, timing in self.ticks]
        shard_cpu = [0.0] * _SHARDS
        elapsed_ms, slowest = [], 0.0
        for timing in timings:
            for index, value in timing["shard_cpu"].items():
                shard_cpu[index] += value
            shard_elapsed = list(timing["shard_elapsed"].values())
            elapsed_ms.extend(1000.0 * value for value in shard_elapsed)
            slowest += max(shard_elapsed, default=0.0)
        stores = [s["engine"]["streams"][self.stream] for s in self._after["shards"]]
        caches = [s["engine"]["plan_cache"] for s in self._after["shards"]]
        memo_hits = sum(store["delta_memo"]["hits"] for store in stores)
        memo_misses = sum(store["delta_memo"]["misses"] for store in stores)
        cache_hits = sum(cache["hits"] for cache in caches)
        cache_misses = sum(cache["misses"] for cache in caches)

        layers.update(scheduler_layers(self._scheduler_delta(), ops))
        layers.update({
            "core.engine.compile_ms_per_query": 1000.0 * ratio(
                self.compile_s, len(self.queries)
            ),
            "core.engine.plan_cache_hit_ratio": ratio(cache_hits, cache_hits + cache_misses),
            "fragments.store.fillers": float(sum(store["fillers"] for store in stores)),
            "fragments.store.wire_mb": sum(
                len(payload.encode("utf-8")) for payload in self.preload + self.ops
            ) / 1e6,
            "fragments.store.delta_memo_hit_ratio": ratio(memo_hits, memo_hits + memo_misses),
            # Worker-side poll wall, one sample per (tick, shard).
            "streams.scheduler.poll_ms_p50": percentile(elapsed_ms, 50),
            "streams.scheduler.poll_ms_p95": percentile(elapsed_ms, 95),
            "streams.scheduler.poll_share": ratio(slowest, wall),
            "streams.scheduler.envelopes_per_poll": ratio(ops, coordinator["shard_polls"]),
            "streams.continuous.emitted_items_per_op": ratio(
                self.emitted_count, self.total_ops
            ),
            "streams.sharding.dispatch_us_per_env": 1e6 * ratio(
                self_s.get("streams.sharding.dispatch", 0.0), ops
            ),
            "streams.sharding.tick_ms_p50": 1000.0 * statistics.median(tick_walls),
            "streams.sharding.tick_wait_share": ratio(
                sum(timing["wait"] for timing in timings), sum(tick_walls)
            ),
            "streams.sharding.merge_ms_p50": 1000.0 * statistics.median(
                timing["merge"] for timing in timings
            ),
            "streams.sharding.shard_cpu_skew": ratio(
                max(shard_cpu), sum(shard_cpu) / len(shard_cpu)
            ),
            "streams.sharding.dispatch_skip_ratio": ratio(
                coordinator["dispatch_skips"], coordinator["dispatch_probes"]
            ),
            "streams.sharding.poll_skip_ratio": ratio(
                coordinator["shard_poll_skips"],
                coordinator["shard_poll_skips"] + coordinator["shard_polls"],
            ),
            "streams.sharding.failovers": float(self._after["coordinator"]["failovers"]),
            "pipeline.emitted_items": float(self.emitted_count),
            "pipeline.attributed_share": attributed_share(self_s, wall),
        })
        layers.update(self._link_bytes())
        layers.update(
            replay_wire_costs(
                self.ops[-ops:], self.stream, self.load.structure_xml, self.sizing.batch
            )
        )
        layers.update(load_layers(self.load))
        layers.update(paced_layers(paced))
        return layers

    def _link_bytes(self) -> dict:
        """Coordinator -> worker bytes per envelope, per link kind.

        The net link counts its own bytes; the pipe link does not, so
        the drain's command tuples for that shard are pickled again the
        way ``Connection.send`` pickles them.
        """
        out = {}
        drain_ops = self.ops[-self.sizing.drain_ops :]
        routed = [0] * _SHARDS
        pipe_bytes = 0
        for base in range(0, len(drain_ops), self.sizing.batch):
            buckets: dict = {}
            for payload in drain_ops[base : base + self.sizing.batch]:
                home = shard_of(self.stream, peek_filler(payload)[0], _SHARDS)
                buckets.setdefault(home, []).append(payload)
                routed[home] += 1
            for home, sub_batch in buckets.items():
                if self._after["shards"][home]["kind"] == "pipe":
                    command = ("feed_raw", self.stream, sub_batch)
                    pipe_bytes += 4 + len(ForkingPickler.dumps(command))
        for before, after in zip(self._before["shards"], self._after["shards"]):
            index, link = after["index"], after["link"]
            if after["kind"] == "net":
                sent = link["bytes_sent"] - before["link"]["bytes_sent"]
                commands = (
                    link["dispatches"] + link["polls"]
                    - before["link"]["dispatches"] - before["link"]["polls"]
                )
                out["streams.sharding.link.net.bytes_per_env"] = ratio(sent, routed[index])
                out["streams.sharding.link.net.frames_per_command"] = ratio(
                    link["frames_sent"] - before["link"]["frames_sent"], commands
                )
            elif after["kind"] == "pipe":
                polls = len(self.ticks)
                poll_bytes = polls * (4 + len(ForkingPickler.dumps(("poll", str(_NOW)))))
                out["streams.sharding.link.pipe.bytes_per_env"] = ratio(
                    pipe_bytes + poll_bytes, routed[index]
                )
        return out
