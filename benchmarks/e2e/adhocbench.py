"""Workload 5, ``adhoc-history``: the paper's use, reads beside writes.

One :class:`~repro.core.engine.XCQLEngine`, preloaded through
``feed_raw`` with the catalog and 600 bids, then a single caller in a
closed loop: each iteration feeds eight more bids and runs the ad-hoc
query set from source text — Q1/Q2/Q5 under QaC+ and under QaC, an
interval projection, ``?[now]``, two version projections, and Q8; CaQ-Q5
joins the last of a round's eight iterations.  An op is one query.  The latency metrics
are the per-query execute times; throughput counts the writes' time too.
"""

from __future__ import annotations

import gc
import time

from repro.core.engine import XCQLEngine
from repro.core.translator import Strategy
from repro.temporal.chrono import XSDateTime
from repro.xmark.queries import Q1, Q2, Q5, Q8

from benchmarks.e2e import traced
from benchmarks.e2e.harness import (
    Drain,
    Round,
    RunConfig,
    RunResult,
    identities,
    summarize,
)
from benchmarks.e2e.layers import (
    attributed_share,
    blank_layers,
    load_layers,
    numeric_delta,
    ratio,
)
from benchmarks.e2e.loadgen import AUCTION_STREAM, AuctionLoad
from benchmarks.e2e.measure import percentile
from benchmarks.e2e.replay import replay_wire_costs
from benchmarks.e2e.spec import ADHOC_PREFIX

__all__ = ["AdhocHistory"]

_PRELOAD_BIDS = 600
_WRITES_PER_ITERATION = 8
_BID_STEP_S = 30

_INTERVAL = (
    'stream("auction")//open_auction?[2003-06-01T01:00:00, 2003-06-01T03:00:00]'
)
_NOW_POINT = 'for $o in stream("auction")//open_auction return $o/current?[now]'
# Version windows are positional, so they are taken over one auction's
# versions: over the whole ``//open_auction`` sequence CaQ (document
# order) and QaC/QaC+ (arrival order after incremental feeds) pick
# different "last two" — an order sensitivity of the system, not of the
# benchmark (see README.md, "Findings").
_LAST_TWO = 'stream("auction")//open_auction[@id="open_auction7"]#[last - 1, last]'
_FIRST = 'stream("auction")//open_auction[@id="open_auction7"]#[1]'

#: metric suffix -> (source, strategy); order is the iteration's order.
QUERY_SET = {
    "q1-qacplus": (Q1, Strategy.QAC_PLUS),
    "q2-qacplus": (Q2, Strategy.QAC_PLUS),
    "q5-qacplus": (Q5, Strategy.QAC_PLUS),
    "q1-qac": (Q1, Strategy.QAC),
    "q2-qac": (Q2, Strategy.QAC),
    "q5-qac": (Q5, Strategy.QAC),
    "interval-qacplus": (_INTERVAL, Strategy.QAC_PLUS),
    "now-qacplus": (_NOW_POINT, Strategy.QAC_PLUS),
    "lasttwo-qacplus": (_LAST_TWO, Strategy.QAC_PLUS),
    "first-qacplus": (_FIRST, Strategy.QAC_PLUS),
    "lasttwo-qac": (_LAST_TWO, Strategy.QAC),
    "first-qac": (_FIRST, Strategy.QAC),
    "q8-qacplus": (Q8, Strategy.QAC_PLUS),
    "q5-caq": (Q5, Strategy.CAQ),
}

#: Same query, other strategy: the answers must agree in every iteration.
_PAIRS = (
    ("q1-qacplus", "q1-qac"),
    ("q2-qacplus", "q2-qac"),
    ("q5-qacplus", "q5-qac"),
    ("lasttwo-qacplus", "lasttwo-qac"),
    ("first-qacplus", "first-qac"),
)


class AdhocHistory:
    name = "adhoc-history"
    stream = AUCTION_STREAM

    def __init__(self, config: RunConfig):
        self.seed = config.seed
        self.meter = config.meter
        self.tracer = config.tracer
        self.rounds = config.sizing.rounds
        self.iterations = config.sizing.drain_ops
        self.batch = _WRITES_PER_ITERATION

    def run(self) -> RunResult:
        result = RunResult(self.name, self.seed, 0.0, rounds=self.rounds)
        rounds = []
        for index in range(self.rounds):
            started = time.perf_counter()
            self._setup()
            setup_s = time.perf_counter() - started
            drain = self._loop(result)
            # The latency samples are the per-query execute times.
            latency = {
                "latency_p50_ms": percentile(self.latencies_ms, 50),
                "latency_p95_ms": percentile(self.latencies_ms, 95),
            }
            measured = Round(setup_s, [latency], drain)
            if index == 0:
                self._final_oracle(result)
                result.counts = self._counts()
            if self.tracer is not None:
                measured.layers = self._layers(drain)
            rounds.append(measured)
            self.engine = self.load = None
            gc.collect()
        summarize(result, rounds, self.meter)
        return result

    def _setup(self) -> None:
        self.load = load = AuctionLoad(self.seed)
        self.preload = load.catalog + load.bids(_PRELOAD_BIDS)
        self.writes = load.bids(self.iterations * self.batch)
        if self.tracer is None:
            self.engine = XCQLEngine()
        else:
            self.engine = traced.TracedEngine(tracer=self.tracer)
        self.engine.register_stream(self.stream, load.structure)
        self.engine.feed_raw(self.stream, self.preload)
        started = time.perf_counter()
        for source, strategy in QUERY_SET.values():
            self.engine.compile(source, strategy)
        self.compile_s = time.perf_counter() - started

    def _now(self, bids: int) -> XSDateTime:
        """The latest validTime written so far."""
        return self.load.stamp_of(bids - 1, _BID_STEP_S)

    def _loop(self, result: RunResult) -> Drain:
        engine, stream = self.engine, self.stream
        self.times_ms: dict = {name: [] for name in QUERY_SET}
        self.latencies_ms: list = []
        answered = []  # each iteration's answers, judged after the timed loop
        checked = {name for pair in _PAIRS for name in pair} | {"q5-caq"}
        ops = 0
        gc.collect()
        cpu_before = self.meter.cpu_seconds()
        if self.tracer is not None:
            self._self_before = self.tracer.snapshot()
        started = time.perf_counter()
        for iteration in range(self.iterations):
            base = iteration * self.batch
            engine.feed_raw(stream, self.writes[base : base + self.batch])
            now = self._now(_PRELOAD_BIDS + base + self.batch)
            answers = {}
            for name, (source, strategy) in QUERY_SET.items():
                if strategy is Strategy.CAQ and iteration + 1 < self.iterations:
                    continue  # once a round, on its last iteration
                begun = time.perf_counter()
                answers[name] = engine.execute(source, strategy, now=now)
                elapsed = 1000.0 * (time.perf_counter() - begun)
                self.times_ms[name].append(elapsed)
                self.latencies_ms.append(elapsed)
                ops += 1
            answered.append({name: answers[name] for name in checked if name in answers})
        wall = time.perf_counter() - started
        cpu = self.meter.cpu_seconds() - cpu_before
        if self.tracer is not None:
            self._self_after = self.tracer.snapshot()
        for iteration, answers in enumerate(answered):
            self._iteration_oracle(result, iteration, answers)
        result.ops += ops
        self._last_now = now
        self._last_q5 = answers["q5-qacplus"]
        return Drain(ops, wall, cpu)

    # -- oracle ------------------------------------------------------------------------

    def _iteration_oracle(self, result: RunResult, iteration: int, answers: dict) -> None:
        """QaC, QaC+ and CaQ give the same answer for the same query."""
        pairs = list(_PAIRS)
        if "q5-caq" in answers:
            pairs.append(("q5-qacplus", "q5-caq"))
        for left, right in pairs:
            if identities(answers[left]) != identities(answers[right]):
                result.failed_ops += 1
                result.failures.append(f"iteration {iteration}: {left} != {right}")

    def _final_oracle(self, result: RunResult) -> None:
        """The projection queries and Q8, once under the other strategies.

        Q8 skips CaQ: its inner ``stream()`` call sits inside the person
        loop, so CaQ re-materializes the whole view once per person.
        """
        for name in ("interval-qacplus", "now-qacplus", "lasttwo-qacplus",
                     "first-qacplus", "q8-qacplus"):
            source, _ = QUERY_SET[name]
            reference = identities(
                self.engine.execute(source, Strategy.QAC_PLUS, now=self._last_now)
            )
            others = (Strategy.QAC,) if name == "q8-qacplus" else (Strategy.QAC, Strategy.CAQ)
            for strategy in others:
                other = identities(
                    self.engine.execute(source, strategy, now=self._last_now)
                )
                if other != reference:
                    result.failed_ops += 1
                    result.failures.append(f"{name}: {strategy.value} != QaC+")

    # -- counters ----------------------------------------------------------------------

    def _counts(self) -> dict:
        cache = self.engine.plan_cache_info()
        return {
            "ops": sum(len(samples) for samples in self.times_ms.values()),
            "store_fillers": self.engine.stores[self.stream].filler_count,
            "write_bytes": sum(len(p.encode("utf-8")) for p in self.writes),
            "q5_answer": identities(self._last_q5),
            "plan_cache_hits": cache["hits"],
            "plan_cache_misses": cache["misses"],
        }

    def _layers(self, drain: Drain) -> dict:
        layers = blank_layers()
        self_s = numeric_delta(self._self_before, self._self_after)
        feed_raw_s = self_s.get("core.engine.feed_raw", 0.0)
        stats = self.engine.stats()
        store, cache = stats["streams"][self.stream], stats["plan_cache"]
        memo = store["delta_memo"]
        layers.update({
            "core.engine.feed_raw_us_per_env": 1e6 * ratio(
                feed_raw_s, self.iterations * self.batch
            ),
            "core.engine.feed_raw_share": ratio(feed_raw_s, drain.wall_s),
            "core.engine.compile_ms_per_query": 1000.0 * ratio(
                self.compile_s, len(QUERY_SET)
            ),
            "core.engine.plan_cache_hit_ratio": ratio(
                cache["hits"], cache["hits"] + cache["misses"]
            ),
            "fragments.store.fillers": float(store["fillers"]),
            "fragments.store.wire_mb": sum(
                len(payload.encode("utf-8")) for payload in self.preload + self.writes
            ) / 1e6,
            "fragments.store.delta_memo_hit_ratio": ratio(
                memo["hits"], memo["hits"] + memo["misses"]
            ),
            "pipeline.latency_p99_ms": percentile(self.latencies_ms, 99),
            "pipeline.attributed_share": attributed_share(self_s, drain.wall_s),
        })
        for name, samples in self.times_ms.items():
            layers[ADHOC_PREFIX + name] = percentile(samples, 50)
        layers.update(
            replay_wire_costs(self.writes, self.stream, self.load.structure_xml, self.batch)
        )
        layers.update(load_layers(self.load))
        return layers
