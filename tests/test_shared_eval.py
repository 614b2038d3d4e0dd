"""Shared multi-query evaluation and predicate routing (PR 4 / ablation A11).

Three layers of guarantees:

- **Analysis**: `analyze_delta` splits delta-safe plans into a shared
  prefix and a per-query residual, groups equal prefixes, and extracts
  routable predicates exactly when sound.
- **Execution**: prefix-then-residual equals the unsplit plan over the
  same wrappers equals a fresh full evaluation, byte for byte.
- **Differential**: a scheduler with sharing + routing enabled emits and
  retains byte-identical results to a solo-delta scheduler and to an
  interpreted-backend re-evaluation, across random arrival orders, group
  membership churn, and prune/epoch fallbacks.
"""

from __future__ import annotations

import random
from datetime import datetime, timedelta

from repro.core.engine import XCQLEngine
from repro.core.optimizer import DELTA_VAR, SHARED_VAR
from repro.core.pipeline import analyze_delta
from repro.core.translator import Strategy
from repro.dom.parser import parse_document
from repro.dom.serializer import serialize
from repro.fragments.model import Filler
from repro.fragments.tagstructure import TagStructure
from repro.streams.continuous import ContinuousQuery
from repro.streams.scheduler import QueryScheduler
from repro.temporal.chrono import XSDateTime
from repro.xquery import xast
from repro.xquery.compiler import compile_delta_plan

STRUCTURE_XML = """
<stream:structure>
  <tag type="snapshot" id="1" name="log">
    <tag type="event" id="2" name="txn">
      <tag type="snapshot" id="4" name="amount"/>
    </tag>
    <tag type="temporal" id="3" name="limit"/>
  </tag>
</stream:structure>
"""

EVENT_QUERY = (
    'for $t in stream("s")//txn where $t/amount > 50 '
    "return <hit>{$t/amount/text()}</hit>"
)
LIMIT_QUERY = (
    'for $l in stream("s")//limit where $l > 50 '
    "return <big>{$l/text()}</big>"
)

_BASE = datetime(2003, 1, 1)


def stamp(hours: int) -> XSDateTime:
    return XSDateTime.parse(
        (_BASE + timedelta(hours=hours)).strftime("%Y-%m-%dT%H:%M:%S")
    )


def txn(filler_id: int, hours: int, amount: int) -> Filler:
    content = parse_document(
        f'<txn seq="{filler_id}.{hours}"><amount>{amount}</amount></txn>'
    ).document_element
    return Filler(filler_id, 2, stamp(hours), content)


def limit(filler_id: int, hours: int, value: int) -> Filler:
    content = parse_document(f"<limit>{value}</limit>").document_element
    return Filler(filler_id, 3, stamp(hours), content)


def make_engine() -> XCQLEngine:
    engine = XCQLEngine()
    engine.register_stream("s", TagStructure.from_xml(STRUCTURE_XML))
    return engine


def normalized(items) -> list[str]:
    return sorted(serialize(item) for item in items)


def shared_of(source: str, strategy: Strategy = Strategy.QAC_PLUS):
    engine = make_engine()
    compiled = engine.compile(source, strategy)
    return analyze_delta(compiled.translated)


class TestSharedAnalysis:
    def test_split_shape(self):
        analysis = shared_of(EVENT_QUERY)
        assert analysis.safe
        assert DELTA_VAR in xast.to_source(analysis.prefix_module)
        body = analysis.residual_module.body
        assert isinstance(body, xast.FLWOR)
        driver = body.clauses[0]
        assert isinstance(driver, xast.ForClause)
        assert isinstance(driver.expr, xast.VarRef)
        assert driver.expr.name == SHARED_VAR
        # The residual keeps the where clause and the return body.
        assert any(isinstance(c, xast.WhereClause) for c in body.clauses[1:])

    def test_group_key_equal_for_same_prefix(self):
        keys = {
            shared_of(
                f'for $t in stream("s")//txn where $t/amount > {k} '
                "return <hit>{$t/amount/text()}</hit>"
            ).group_key
            for k in (10, 50, 90)
        }
        assert len(keys) == 1

    def test_group_key_distinct_per_prefix(self):
        assert shared_of(EVENT_QUERY).group_key != shared_of(LIMIT_QUERY).group_key

    def test_routing_child_path(self):
        routing = shared_of(EVENT_QUERY).routing
        assert routing is not None
        assert routing.tuple_tag == "txn"
        assert routing.path == ("amount",)
        assert routing.attribute is None
        assert routing.op == ">"
        assert routing.value == 50.0
        assert routing.numeric

    def test_routing_empty_path(self):
        routing = shared_of(LIMIT_QUERY).routing
        assert routing is not None
        assert routing.tuple_tag == "limit"
        assert routing.path == ()
        assert routing.op == ">"

    def test_routing_flipped_literal(self):
        routing = shared_of(
            'for $t in stream("s")//txn where 50 < $t/amount '
            "return <hit>{$t/amount/text()}</hit>"
        ).routing
        assert routing is not None
        assert routing.op == ">"
        assert routing.value == 50.0

    def test_routing_text_step_string_literal(self):
        routing = shared_of(
            'for $t in stream("s")//txn where $t/amount/text() = "75" '
            "return <hit>ok</hit>"
        ).routing
        assert routing is not None
        assert routing.text_only
        assert routing.op == "="
        assert routing.value == "75"
        assert not routing.numeric

    def test_routing_vtfrom_datetime(self):
        routing = shared_of(
            'for $t in stream("s")//txn where $t/@vtFrom > 2003-01-01T05:00:00 '
            "return <hit>ok</hit>"
        ).routing
        assert routing is not None
        assert routing.attribute == "vtFrom"
        assert routing.numeric
        assert routing.value == XSDateTime.parse("2003-01-01T05:00:00").to_epoch_seconds()

    def test_complex_predicate_shares_without_routing(self):
        analysis = shared_of(
            'for $t in stream("s")//txn where $t/amount + 1 > 50 '
            "return <hit>ok</hit>"
        )
        assert analysis.safe
        assert analysis.routing is None

    def test_unsafe_query_not_shared(self):
        engine = make_engine()
        compiled = engine.compile('count(stream("s")//txn)', Strategy.QAC_PLUS)
        assert engine.prepare_incremental(compiled) is None
        assert compiled.info.incremental_reason


class TestEngineSharedExecution:
    def test_prefix_plus_residual_equals_delta_and_direct(self):
        engine = make_engine()
        compiled = engine.compile(EVENT_QUERY, Strategy.QAC_PLUS)
        plan = engine.prepare_incremental(compiled)
        assert plan is not None
        engine.feed("s", [txn(100 + i, i, 30 + i * 10) for i in range(6)])
        store = engine.stores["s"]
        _, wrappers = store.delta_batch(0, tsid=plan.tsid,
                                        filler_id=plan.filler_id)
        tuples = engine.execute_prefix(plan, wrappers)
        via_split = engine.execute_residual(plan, tuples)
        # The unsplit plan over the same wrappers: the translated module
        # with its stream access bound to the batch.
        unsplit = compile_delta_plan(
            xast.Module(
                compiled.translated.functions,
                xast.substitute(
                    compiled.translated.body,
                    compiled.translated.body.clauses[0].expr.base,
                    xast.VarRef(DELTA_VAR),
                ),
            ),
            DELTA_VAR,
        )
        via_unsplit = unsplit(engine.build_context(), wrappers)
        direct = engine.execute(EVENT_QUERY, Strategy.QAC_PLUS)
        assert [serialize(x) for x in via_split] == [serialize(x) for x in via_unsplit]
        assert normalized(via_split) == normalized(direct)

    def test_explain_reports_sharing(self):
        engine = make_engine()
        plan = engine.explain(EVENT_QUERY, Strategy.QAC_PLUS)
        assert plan["incremental"]
        assert plan["incremental_group"] is not None
        assert plan["routing_predicate"] == "txn[amount > 50.0]"

    def test_delta_batch_memoized(self):
        engine = make_engine()
        engine.feed("s", [txn(100, 0, 10), txn(101, 1, 20)])
        store = engine.stores["s"]
        first = store.delta_batch(0, tsid=2)
        second = store.delta_batch(0, tsid=2)
        assert first[1] is second[1]  # the memo returns the same batch
        info = store.delta_memo_info()
        assert info["hits"] == 1 and info["misses"] == 1
        engine.feed("s", [txn(102, 2, 30)])
        third = store.delta_batch(0, tsid=2)
        assert third[1] is not second[1]  # new seq invalidates
        assert len(third[0]) == 3


class ShareRig:
    """Three arms over one arrival sequence.

    ``shared``: one engine, one scheduler with grouping + routing on.
    ``solo``: one engine, one scheduler with both off (PR-3 behaviour).
    ``interp``: one engine, interpreted backend, evaluated directly.
    Every arm sees fresh copies of the same fillers.
    """

    def __init__(self, sources: list[str]):
        self.sources = sources
        self.engines = [make_engine(), make_engine(), make_engine()]
        self.shared_sched = QueryScheduler(self.engines[0],
                                           share_groups=True, routing=True)
        self.solo_sched = QueryScheduler(self.engines[1],
                                         share_groups=False, routing=False)
        self.shared_queries = []
        self.solo_queries = []
        self.interp_queries = []
        for source in sources:
            shared_q = ContinuousQuery(self.engines[0], source, Strategy.QAC_PLUS)
            solo_q = ContinuousQuery(self.engines[1], source, Strategy.QAC_PLUS)
            interp_q = ContinuousQuery(self.engines[2], source, Strategy.QAC_PLUS,
                                       incremental=False, backend="interpreted")
            self.shared_sched.add(shared_q)
            self.solo_sched.add(solo_q)
            self.shared_queries.append(shared_q)
            self.solo_queries.append(solo_q)
            self.interp_queries.append(interp_q)
        self.emitted = {id(q): [] for q in
                        self.shared_queries + self.solo_queries + self.interp_queries}
        for query in (self.shared_queries + self.solo_queries +
                      self.interp_queries):
            query.subscribe(lambda items, q=query: self.emitted[id(q)].extend(
                serialize(i) for i in items))

    def feed(self, fillers) -> None:
        for engine in self.engines:
            engine.feed("s", [
                Filler(f.filler_id, f.tsid, f.valid_time, f.content.copy())
                for f in fillers
            ])

    def tick(self, now: XSDateTime) -> None:
        self.shared_sched.poll(now)
        self.solo_sched.poll(now)
        for query in self.interp_queries:
            query.evaluate(now)

    def assert_identical(self) -> None:
        for shared_q, solo_q, interp_q in zip(
            self.shared_queries, self.solo_queries, self.interp_queries
        ):
            reference = normalized(interp_q.last_result)
            assert normalized(shared_q.last_result) == reference, shared_q.source
            assert normalized(solo_q.last_result) == reference, solo_q.source
            assert sorted(self.emitted[id(shared_q)]) == sorted(
                self.emitted[id(solo_q)]
            ), shared_q.source
            assert sorted(self.emitted[id(shared_q)]) == sorted(
                self.emitted[id(interp_q)]
            ), shared_q.source


def _query_mix() -> list[str]:
    sources = [
        f'for $t in stream("s")//txn where $t/amount > {k} '
        "return <hit>{$t/amount/text()}</hit>"
        for k in (10, 40, 70, 100, 500)
    ]
    sources.append(
        'for $t in stream("s")//txn where $t/amount/text() = "75" '
        "return <eq>{$t/amount/text()}</eq>"
    )
    sources.append(LIMIT_QUERY)
    return sources


def _random_batches(rng: random.Random, ticks: int) -> list[list[Filler]]:
    batches = []
    next_id = 100
    hour = 0
    for _ in range(ticks):
        batch = []
        for _ in range(rng.randint(0, 5)):
            hour += 1
            if rng.random() < 0.8:
                # Events may reuse a filler id (shared event holes stay
                # on the delta path); fresh ids otherwise.
                filler_id = rng.choice([next_id, 7]) if rng.random() < 0.3 else next_id
                batch.append(txn(filler_id, hour, rng.randrange(0, 130)))
            else:
                batch.append(limit(next_id, hour, rng.randrange(0, 130)))
            next_id += 1
        rng.shuffle(batch)
        batches.append(batch)
    return batches


class TestSharedDifferential:
    def test_random_arrival_orders(self):
        for seed in (0, 1, 2):
            rng = random.Random(seed)
            rig = ShareRig(_query_mix())
            now = stamp(0)
            rig.tick(now)  # baseline
            for i, batch in enumerate(_random_batches(rng, 12)):
                rig.feed(batch)
                rig.tick(stamp(i + 1))
                rig.assert_identical()
            stats = rig.shared_sched.stats()
            assert stats["shared_runs"] > 0, "grouping never engaged"
            assert stats["routing"]["tuples_pruned"] > 0, "the index never pruned"
            assert stats["shared_residual"]["guards_run"] == 0
            assert stats["shared_residual"]["body_reuses"] > 0
            assert stats["shared_prefix"]["reuses"] > 0

    def test_membership_churn(self):
        rng = random.Random(7)
        rig = ShareRig(_query_mix())
        now = stamp(0)
        rig.tick(now)
        batches = _random_batches(rng, 10)
        dropped = None
        for i, batch in enumerate(batches):
            if i == 3:
                # Drop one group member mid-stream from both scheduler arms.
                dropped = rig.shared_queries[1], rig.solo_queries[1]
                assert rig.shared_sched.remove(dropped[0])
                assert rig.solo_sched.remove(dropped[1])
            if i == 6:
                # Re-admit it; its watermark is stale, the next run catches up.
                rig.shared_sched.add(dropped[0])
                rig.solo_sched.add(dropped[1])
                dropped = None
            rig.feed(batch)
            rig.tick(stamp(i + 1))
            for j, (shared_q, solo_q, interp_q) in enumerate(zip(
                rig.shared_queries, rig.solo_queries, rig.interp_queries
            )):
                if dropped is not None and j == 1:
                    continue  # not being polled; compared after re-add
                reference = normalized(interp_q.last_result)
                assert normalized(shared_q.last_result) == reference
                assert normalized(solo_q.last_result) == reference
        rig.tick(stamp(len(batches) + 1))
        rig.assert_identical()
        assert rig.shared_sched.stats()["shared_runs"] > 0

    def test_prune_epoch_fallback(self):
        rng = random.Random(11)
        rig = ShareRig(_query_mix())
        rig.tick(stamp(0))
        batches = _random_batches(rng, 8)
        for i, batch in enumerate(batches):
            if i == 4:
                # History rewrite: every arm prunes, epochs move, retained
                # state is discarded and rebuilt by a full run.
                for engine in rig.engines:
                    engine.stores["s"].prune_before(stamp(3))
            rig.feed(batch)
            rig.tick(stamp(i + 1))
            for shared_q, solo_q, interp_q in zip(
                rig.shared_queries, rig.solo_queries, rig.interp_queries
            ):
                reference = normalized(interp_q.last_result)
                assert normalized(shared_q.last_result) == reference
                assert normalized(solo_q.last_result) == reference
        assert rig.shared_sched.stats()["full_runs"] > len(rig.shared_queries)

    def test_routing_skip_preserves_catchup(self):
        """A tick whose tuples the index prunes away is folded in as an
        empty delta; the next matching arrival is a delta over itself."""
        engine = make_engine()
        sched = QueryScheduler(engine)
        query = ContinuousQuery(engine, EVENT_QUERY, Strategy.QAC_PLUS)
        sched.add(query)
        sched.poll(stamp(0))
        engine.feed("s", [txn(100, 1, 10)])  # amount 10: cannot match > 50
        assert sched.poll(stamp(1))[query] == []
        stats = sched.stats()
        assert query.skips == 0 and query.last_mode == "shared"
        assert stats["routing"]["tuples_pruned"] == 1
        assert stats["shared_residual"]["body_runs"] == 0
        engine.feed("s", [txn(101, 2, 90)])  # matches
        emitted = sched.poll(stamp(2))[query]
        assert [serialize(item) for item in emitted] == ["<hit>90</hit>"]
        stats = sched.stats()
        assert stats["routing"]["tuples_pruned"] == 1  # nothing to catch up on
        assert stats["shared_residual"] == {
            "guards_skipped": 1, "guards_run": 0, "body_runs": 1, "body_reuses": 0,
        }
        assert normalized(query.last_result) == normalized(
            engine.execute(EVENT_QUERY, Strategy.QAC_PLUS)
        )

    def test_temporal_supersede_wakes_despite_predicate_miss(self):
        """A new version of a temporal fragment must re-run its queries
        in full even when its value cannot match: the arrival closes the
        previous version's open ``vtTo``, so retained annotations move."""
        source = 'for $l in stream("s")//limit where $l > 50 return $l'
        engine = make_engine()
        sched = QueryScheduler(engine)
        query = ContinuousQuery(engine, source, Strategy.QAC_PLUS)
        sched.add(query)
        sched.poll(stamp(0))
        engine.feed("s", [limit(7, 1, 80)])  # matches: vtTo="now"
        sched.poll(stamp(1))
        assert 'vtTo="now"' in serialize(query.last_result[0])
        # Value 10 fails "> 50" — but it supersedes version 80.
        full_before = query.full_runs
        engine.feed("s", [limit(7, 2, 10)])
        sched.poll(stamp(2))
        assert query.full_runs == full_before + 1
        assert normalized(query.last_result) == normalized(
            engine.execute(source, Strategy.QAC_PLUS)
        )
        assert f'vtTo="{stamp(2)}"' in serialize(query.last_result[0])
        # A predicate miss on a *fresh* temporal id is pruned by the index.
        pruned_before = sched.stats()["routing"]["tuples_pruned"]
        engine.feed("s", [limit(8, 3, 5)])
        assert sched.poll(stamp(3))[query] == []
        assert query.last_mode == "shared"
        assert sched.stats()["routing"]["tuples_pruned"] == pruned_before + 1


def _gated(threshold: int, tag: str) -> str:
    """A plan whose driving path calls the prolog function ``small``."""
    return (
        f"define function small($t) {{ $t/amount <= {threshold} }} "
        f'for $t in stream("s")//txn[not(small(.))] '
        f"return <{tag}>{{$t/amount/text()}}</{tag}>"
    )


# Shapes whose scheduled runs used to leave the shared path: groups of one
# (an event plan, a temporal plan), and plans whose driving path calls a
# prolog function — the first two under one prolog, the third defining
# another body under the same name.
_SOLO_SOURCES = [EVENT_QUERY, LIMIT_QUERY, _gated(50, "p"), _gated(50, "q"), _gated(90, "r")]


class SoloRig:
    """One arrival script into four arms, each on its own engine.

    ``scheduled``: every source under one default ``QueryScheduler``;
    ``direct``: unscheduled incremental ``ContinuousQuery`` objects;
    ``full``: ``incremental=False``; and, on the ``full`` engine, a fresh
    ``engine.execute`` per comparison.
    """

    def __init__(self, sources: list[str]):
        self.sources = sources
        self.engines = [make_engine(), make_engine(), make_engine()]
        self.scheduler = QueryScheduler(self.engines[0])
        self.scheduled, self.direct, self.full = (
            [ContinuousQuery(engine, source, Strategy.QAC_PLUS, incremental=incremental)
             for source in sources]
            for engine, incremental in zip(self.engines, (True, True, False))
        )
        for query in self.scheduled:
            self.scheduler.add(query)
        self.emitted = {}
        for query in self.scheduled + self.direct + self.full:
            sink = self.emitted[id(query)] = []
            query.subscribe(lambda items, sink=sink: sink.extend(
                serialize(i) for i in items))

    def feed(self, fillers, raw: bool) -> None:
        for engine in self.engines:
            copies = [
                Filler(f.filler_id, f.tsid, f.valid_time, f.content.copy())
                for f in fillers
            ]
            if raw:
                engine.feed_raw("s", [f.to_xml() for f in copies])
            else:
                engine.feed("s", copies)

    def tick(self, now: XSDateTime) -> None:
        self.scheduler.poll(now)
        for query in self.direct + self.full:
            query.evaluate(now)

    def assert_identical(self) -> None:
        for scheduled, direct, full in zip(self.scheduled, self.direct, self.full):
            reference = normalized(
                self.engines[2].execute(full.source, Strategy.QAC_PLUS)
            )
            for query in (scheduled, direct, full):
                assert normalized(query.last_result) == reference, query.source
            for query in (scheduled, direct):
                assert sorted(self.emitted[id(query)]) == sorted(
                    self.emitted[id(full)]
                ), query.source


class TestGroupsOfOneDifferential:
    def test_prolog_in_the_driving_path_decides_the_group(self):
        engine = make_engine()
        same, also_same, other = (
            engine.explain(source, Strategy.QAC_PLUS) for source in _SOLO_SOURCES[2:]
        )
        assert same["incremental"] and other["incremental"]
        assert same["incremental_group"] == also_same["incremental_group"]
        assert same["incremental_group"] != other["incremental_group"]
        rig = SoloRig(_SOLO_SOURCES)
        assert sorted(rig.scheduler.stats()["groups"].values()) == [1, 1, 1, 2]

    def test_seeded_scripts(self):
        for seed in (3, 4, 5):
            rng = random.Random(seed)
            rig = SoloRig(_SOLO_SOURCES)
            rig.tick(stamp(0))  # baseline
            for i, batch in enumerate(_random_batches(rng, 12)):
                if i in (2, 6, 9):
                    # A non-event fragment gets another version: the
                    # retained one's vtTo closes, forcing a full run.
                    batch = batch + [limit(9, 900 + i, rng.choice([20, 80]))]
                if i == 7:
                    for engine in rig.engines:
                        engine.stores["s"].prune_before(stamp(3))
                rig.feed(batch, raw=rng.random() < 0.5)
                rig.tick(stamp(i + 1))
                rig.assert_identical()
            for query in rig.scheduled + rig.direct + rig.full:
                counts = query.stats()
                assert (
                    counts["full_runs"] + counts["delta_runs"] + counts["shared_runs"]
                    == counts["evaluations"]
                ), query.source
            # A scheduled incremental run is "shared", an unscheduled one
            # "delta"; both fell back to full runs on the epoch move and
            # the re-versions.
            for scheduled, direct, full in zip(rig.scheduled, rig.direct, rig.full):
                assert scheduled.delta_runs == 0 and scheduled.shared_runs > 0
                assert direct.shared_runs == 0 and direct.delta_runs > 0
                assert direct.full_runs > 1 and scheduled.full_runs > 1
                assert full.full_runs == full.evaluations
            stats = rig.scheduler.stats()
            assert (
                stats["full_runs"] + stats["delta_runs"] + stats["shared_runs"]
                == stats["evaluations"]
            )
            assert stats["delta_runs"] == 0
            assert stats["automata"]["runs"] > 0  # raw feeds answered from captures
            assert stats["automata"]["fallbacks"] > 0  # mixed histories declined
            assert stats["shared_prefix"]["runs"] > 0


class TestPushRuntimeRouting:
    """The channel ingest path is ``engine.deliver``: lazy fillers, event
    captures, and the group's tuple index deciding each event once."""

    def _rig(self):
        from repro.streams.client import StreamClient
        from repro.streams.clock import SimulatedClock
        from repro.streams.server import StreamServer
        from repro.streams.transport import Channel

        clock = SimulatedClock(stamp(0))
        channel = Channel()
        server = StreamServer(
            "s", TagStructure.from_xml(STRUCTURE_XML), channel, clock
        )
        client = StreamClient(clock)
        client.tune_in(channel)
        server.announce()
        server.publish_document(parse_document("<log/>").document_element)
        return clock, server, client

    def test_channel_arrivals_are_probed_and_skipped(self):
        clock, server, client = self._rig()
        query = client.register_query(EVENT_QUERY, strategy=Strategy.QAC_PLUS)
        emitted: list = []
        query.subscribe(emitted.extend)
        client.poll()
        for amount in (10, 60, 20, 90, 30):
            clock.advance("PT1H")
            server.emit_event(
                0,
                parse_document(
                    f"<txn><amount>{amount}</amount></txn>"
                ).document_element,
            )
            client.poll()
        assert sorted(serialize(e) for e in emitted) == [
            "<hit>60</hit>",
            "<hit>90</hit>",
        ]
        stats = client.scheduler.stats()
        assert stats["routing"]["registered"] == 1
        assert stats["routing"]["tuple_probes"] == 5
        assert stats["routing"]["tuples_pruned"] == 3  # amounts 10, 20, 30
        assert stats["shared_residual"] == {  # amounts 60, 90
            "guards_skipped": 2, "guards_run": 0, "body_runs": 2, "body_reuses": 0,
        }
        assert stats["automata"]["runs"] == 5  # delivered as wire text
        assert client.engine.stats()["streams"]["s"]["materialized_fillers"] == 0
        assert normalized(query.last_result) == normalized(
            client.engine.execute(EVENT_QUERY, Strategy.QAC_PLUS)
        )
