"""Tests for the continuous-query scheduler (paper §8 extension)."""

import pytest

from repro import (
    Channel,
    SimulatedClock,
    Strategy,
    StreamClient,
    StreamServer,
    TagStructure,
    XCQLEngine,
)
from repro.dom import Element, parse_document, serialize
from repro.fragments.model import Filler
from repro.streams.continuous import ContinuousQuery
from repro.streams.scheduler import ALL_TSIDS, QueryScheduler, dependencies_of
from repro.temporal.chrono import XSDateTime

from tests.conftest import CREDIT_TAG_STRUCTURE_XML, RerunClient


def make_engine():
    structure = TagStructure.from_xml(CREDIT_TAG_STRUCTURE_XML)
    engine = XCQLEngine()
    engine.register_stream("credit", structure)
    return engine


class TestDependencyDerivation:
    def test_qac_depends_on_whole_stream(self):
        engine = make_engine()
        compiled = engine.compile('count(stream("credit")//account)', Strategy.QAC)
        deps = dependencies_of(compiled)
        assert ("credit", ALL_TSIDS) in deps.streams

    def test_qac_plus_depends_on_tsid(self):
        engine = make_engine()
        compiled = engine.compile(
            'count(stream("credit")//transaction)', Strategy.QAC_PLUS
        )
        deps = dependencies_of(compiled)
        assert deps.streams == frozenset({("credit", 5)})

    def test_now_makes_time_sensitive(self):
        engine = make_engine()
        compiled = engine.compile(
            'stream("credit")//transaction?[now-PT1H, now]', Strategy.QAC_PLUS
        )
        assert dependencies_of(compiled).time_sensitive

    def test_without_now_not_time_sensitive(self):
        engine = make_engine()
        compiled = engine.compile(
            'count(stream("credit")//transaction)', Strategy.QAC_PLUS
        )
        assert not dependencies_of(compiled).time_sensitive

    def test_caq_depends_on_whole_stream(self):
        engine = make_engine()
        compiled = engine.compile('count(stream("credit")//account)', Strategy.CAQ)
        deps = dependencies_of(compiled)
        assert ("credit", ALL_TSIDS) in deps.streams

    def test_touches(self):
        engine = make_engine()
        deps = dependencies_of(
            engine.compile('count(stream("credit")//transaction)', Strategy.QAC_PLUS)
        )
        assert deps.touches("credit", {5})
        assert not deps.touches("credit", {4})
        assert not deps.touches("other", {5})

    def test_user_function_bodies_are_visited(self):
        engine = make_engine()
        compiled = engine.compile(
            'define function txns() { stream("credit")//transaction } '
            "count(txns())",
            Strategy.QAC_PLUS,
        )
        deps = dependencies_of(compiled)
        assert ("credit", ALL_TSIDS) in deps.streams

    def test_time_sensitivity_inside_user_function(self):
        engine = make_engine()
        compiled = engine.compile(
            "define function horizon() { now - PT1H } "
            'count(stream("credit")//transaction?[horizon(), now])',
            Strategy.QAC_PLUS,
        )
        assert dependencies_of(compiled).time_sensitive

    def test_nested_get_fillers_by_tsid_calls(self):
        # Two tsid accesses nested inside other call expressions: both
        # must surface as exact (stream, tsid) dependencies.
        engine = make_engine()
        compiled = engine.compile(
            'count(stream("credit")//transaction) + '
            'count(stream("credit")//creditLimit)',
            Strategy.QAC_PLUS,
        )
        deps = dependencies_of(compiled)
        assert deps.streams == frozenset({("credit", 5), ("credit", 4)})
        assert deps.touches("credit", {4})
        assert deps.touches("credit", {5})
        assert not deps.touches("credit", {3})


@pytest.fixture()
def scheduled_rig():
    structure = TagStructure.from_xml(CREDIT_TAG_STRUCTURE_XML)
    clock = SimulatedClock("2003-10-01T00:00:00")
    channel = Channel()
    client = StreamClient(clock)
    scheduler = client.scheduler
    client.tune_in(channel)
    server = StreamServer("credit", structure, channel, clock)
    server.announce()
    server.publish_document(
        parse_document(
            "<creditAccounts><account id='1'>"
            "<customer>X</customer><creditLimit>100</creditLimit>"
            "</account></creditAccounts>"
        )
    )
    return clock, server, client, scheduler


def transaction(txn_id: str, amount: str) -> Element:
    txn = Element("transaction", {"id": txn_id})
    vendor = Element("vendor")
    vendor.add_text("V")
    txn.append(vendor)
    amt = Element("amount")
    amt.add_text(amount)
    txn.append(amt)
    return txn


class TestScheduler:
    def test_first_poll_always_runs(self, scheduled_rig):
        clock, server, client, scheduler = scheduled_rig
        query = client.register_query(
            'count(stream("credit")//transaction)', strategy=Strategy.QAC_PLUS
        )
        client.poll()
        assert scheduler.total_evaluations == 1

    def test_no_arrivals_no_time_skips(self, scheduled_rig):
        clock, server, client, scheduler = scheduled_rig
        client.register_query(
            'count(stream("credit")//transaction)', strategy=Strategy.QAC_PLUS
        )
        client.poll()
        client.poll()
        client.poll()
        assert scheduler.total_evaluations == 1
        assert scheduler.total_skips == 2

    def test_relevant_arrival_triggers(self, scheduled_rig):
        clock, server, client, scheduler = scheduled_rig
        query = client.register_query(
            'count(stream("credit")//transaction)',
            strategy=Strategy.QAC_PLUS,
            emit="full",
        )
        client.poll()
        account_hole = server.hole_id(0, "account", "1")
        server.emit_event(account_hole, transaction("t1", "5"))
        result = client.poll()
        assert scheduler.total_evaluations == 2
        assert result[query] == [1]

    def test_irrelevant_arrival_skipped(self, scheduled_rig):
        clock, server, client, scheduler = scheduled_rig
        client.register_query(
            'count(stream("credit")//creditLimit)', strategy=Strategy.QAC_PLUS
        )
        client.poll()
        account_hole = server.hole_id(0, "account", "1")
        server.emit_event(account_hole, transaction("t1", "5"))  # tsid 5 + status
        client.poll()
        # creditLimit is tsid 4: the transaction arrival is irrelevant.
        assert scheduler.total_evaluations == 1
        assert scheduler.total_skips == 1

    def test_direct_engine_feed_notifies_scheduler(self, scheduled_rig):
        # Regression: ingest that bypasses the channel (engine.feed) used
        # to require hand-plumbed notify_arrival calls; the client now
        # subscribes its scheduler to the engine's arrival listeners.
        clock, server, client, scheduler = scheduled_rig
        from repro.fragments.model import Filler
        from repro.temporal import XSDateTime

        query = client.register_query(
            'count(stream("credit")//transaction)',
            strategy=Strategy.QAC_PLUS,
            emit="full",
        )
        client.poll()
        filler = Filler(
            999, 5, XSDateTime.parse("2003-10-01T01:00:00"), transaction("t9", "7")
        )
        client.engine.feed("credit", filler)
        result = client.poll()
        assert scheduler.total_evaluations == 2
        assert result[query] == [1]

    def test_shared_dependency_wakes_both_queries(self, scheduled_rig):
        clock, server, client, scheduler = scheduled_rig
        counting = client.register_query(
            'count(stream("credit")//transaction)',
            strategy=Strategy.QAC_PLUS,
            emit="full",
        )
        flagging = client.register_query(
            'for $t in stream("credit")//transaction '
            "where $t/amount > 4 return $t/amount",
            strategy=Strategy.QAC_PLUS,
        )
        unrelated = client.register_query(
            'count(stream("credit")//creditLimit)', strategy=Strategy.QAC_PLUS
        )
        client.poll()
        account_hole = server.hole_id(0, "account", "1")
        server.emit_event(account_hole, transaction("t1", "5"))
        client.poll()
        # One arrival on tsid 5: both dependent queries re-ran, the
        # creditLimit query (tsid 4) was skipped.
        assert counting.stats()["evaluations"] == 2
        assert flagging.stats()["evaluations"] == 2
        assert unrelated.stats()["evaluations"] == 1
        assert unrelated.stats()["skips"] == 1

    def test_time_sensitive_reruns_on_clock_advance(self, scheduled_rig):
        clock, server, client, scheduler = scheduled_rig
        client.register_query(
            'count(stream("credit")//transaction?[now-PT1H, now])',
            strategy=Strategy.QAC_PLUS,
        )
        client.poll()
        clock.advance("PT10M")
        client.poll()
        assert scheduler.total_evaluations == 2

    def test_time_insensitive_not_rerun_on_clock_advance(self, scheduled_rig):
        clock, server, client, scheduler = scheduled_rig
        client.register_query(
            'count(stream("credit")//transaction)', strategy=Strategy.QAC_PLUS
        )
        client.poll()
        clock.advance("PT10M")
        client.poll()
        assert scheduler.total_evaluations == 1

    def test_scheduled_results_match_unscheduled(self):
        """The scheduler is a pure optimization: emissions are identical."""
        structure = TagStructure.from_xml(CREDIT_TAG_STRUCTURE_XML)

        def run(with_scheduler: bool):
            clock = SimulatedClock("2003-10-01T00:00:00")
            channel = Channel()
            client = StreamClient(clock) if with_scheduler else RerunClient(clock)
            client.tune_in(channel)
            server = StreamServer("credit", structure, channel, clock)
            server.announce()
            server.publish_document(
                parse_document(
                    "<creditAccounts><account id='1'>"
                    "<customer>X</customer><creditLimit>100</creditLimit>"
                    "</account></creditAccounts>"
                )
            )
            query = client.register_query(
                'for $a in stream("credit")//account '
                "where sum($a/transaction?[now-PT1H,now]/amount) >= 10 "
                'return <hot id="{$a/@id}"/>',
                strategy=Strategy.QAC,
            )
            emitted: list[str] = []
            from repro.dom import serialize

            query.subscribe(lambda items: emitted.extend(serialize(i) for i in items))
            account_hole = server.hole_id(0, "account", "1")
            client.poll()
            server.emit_event(account_hole, transaction("t1", "4"))
            client.poll()
            server.emit_event(account_hole, transaction("t2", "8"))
            client.poll()
            clock.advance("PT2H")
            client.poll()
            return emitted

        assert run(True) == run(False)

    def test_stats(self, scheduled_rig):
        _clock, _server, client, scheduler = scheduled_rig
        source = 'count(stream("credit")//transaction)'
        query = client.register_query(source, strategy=Strategy.QAC_PLUS)
        client.poll()
        client.poll()
        stats = scheduler.stats()
        assert stats["evaluations"] == 1
        assert stats["skips"] == 1
        assert stats["queries"] == [
            {
                "source": source,
                "evaluations": 1,
                "skips": 1,
                "delta_runs": 0,
                "full_runs": 1,
                "shared_runs": 0,
                "automaton_runs": 0,
                "automaton_fallbacks": 0,
            }
        ]
        # The scheduler's rows are the query's own counters.
        assert query.stats()["evaluations"] == 1
        assert query.stats()["skips"] == 1


class TestArrivalDuringPoll:
    """What a subscriber feeds during a tick wakes its watchers on the next."""

    def test_a_fed_limit_reaches_the_limit_query(self):
        engine = make_engine()
        engine.feed("credit", [
            Filler(0, 1, XSDateTime.parse("2003-10-01T00:00:00"), parse_document(
                '<creditAccounts><hole id="1" tsid="2"/></creditAccounts>'
            ).document_element),
            Filler(1, 2, XSDateTime.parse("2003-10-01T00:00:00"), parse_document(
                '<account id="1"><hole id="2" tsid="4"/><hole id="3" tsid="5"/></account>'
            ).document_element),
        ])
        scheduler = QueryScheduler(engine)
        limits = ContinuousQuery(engine, 'stream("credit")//creditLimit', Strategy.QAC_PLUS)
        txns = ContinuousQuery(engine, 'stream("credit")//transaction', Strategy.QAC_PLUS)
        for query in (limits, txns):
            scheduler.add(query)

        def raise_the_limit(items):
            engine.feed("credit", [Filler(
                2, 4, XSDateTime.parse("2003-10-01T00:00:01"),
                parse_document("<creditLimit>900</creditLimit>").document_element,
            )])

        txns.subscribe(raise_the_limit)
        now = XSDateTime.parse("2003-10-02T00:00:00")
        scheduler.poll(now)
        assert limits.last_result == [] and txns.last_result == []
        engine.feed("credit", [TestListenerLifecycle._txn(3, 2, 5)])
        during = scheduler.poll(now)
        after = scheduler.poll(now)
        emitted = [serialize(item) for item in during[limits] + after[limits]]
        assert emitted == [
            '<creditLimit vtFrom="2003-10-01T00:00:01" vtTo="now">900</creditLimit>'
        ]
        fresh = engine.execute('stream("credit")//creditLimit', Strategy.QAC_PLUS, now=now)
        assert list(map(serialize, limits.last_result)) == list(map(serialize, fresh))


class TestListenerLifecycle:
    """watch/unwatch must neither leak listeners nor double-fire wakes."""

    @staticmethod
    def _txn(filler_id: int, hour: int, amount: int) -> Filler:
        content = parse_document(
            f'<transaction id="t{filler_id}"><amount>{amount}</amount>'
            "</transaction>"
        ).document_element
        return Filler(
            filler_id, 5, XSDateTime.parse(f"2003-10-01T{hour:02d}:00:00"), content
        )

    def test_watch_twice_registers_once(self):
        engine = make_engine()
        scheduler = QueryScheduler(engine)
        scheduler.watch_engine(engine)  # idempotent
        assert len(engine._arrival_listeners) == 1
        engine.feed("credit", [self._txn(10, 1, 5)])
        assert scheduler.stats()["notifications"] == 1

    def test_unwatch_stops_notifications_and_releases_listener(self):
        engine = make_engine()
        scheduler = QueryScheduler(engine)
        scheduler.unwatch_engine(engine)
        assert engine._arrival_listeners == []
        engine.feed("credit", [self._txn(11, 1, 5)])
        assert scheduler.stats()["notifications"] == 0

    def test_dropped_then_rewatched_fires_exactly_once(self):
        engine = make_engine()
        scheduler = QueryScheduler(engine)
        scheduler.unwatch_engine(engine)
        scheduler.watch_engine(engine)
        assert len(engine._arrival_listeners) == 1
        engine.feed("credit", [self._txn(12, 1, 5)])
        assert scheduler.stats()["notifications"] == 1

    def test_two_schedulers_fire_independently(self):
        engine = make_engine()
        first = QueryScheduler(engine)
        second = QueryScheduler(engine)
        engine.feed("credit", [self._txn(13, 1, 5)])
        assert first.stats()["notifications"] == 1
        assert second.stats()["notifications"] == 1
        first.unwatch_engine(engine)
        engine.feed("credit", [self._txn(14, 2, 5)])
        assert first.stats()["notifications"] == 1
        assert second.stats()["notifications"] == 2

    def test_same_tsid_batch_coalesces_to_one_notification(self):
        engine = make_engine()
        scheduler = QueryScheduler(engine)
        engine.feed("credit", [self._txn(20 + i, 1 + i, 5) for i in range(6)])
        assert scheduler.stats()["notifications"] == 1

    def test_mixed_tsids_fire_one_notification_each(self):
        engine = make_engine()
        scheduler = QueryScheduler(engine)
        limit_content = parse_document("<creditLimit>75</creditLimit>").document_element
        fillers = [self._txn(30 + i, 1 + i, 5) for i in range(3)]
        fillers.append(
            Filler(40, 4, XSDateTime.parse("2003-10-01T05:00:00"), limit_content)
        )
        engine.feed("credit", fillers)
        assert scheduler.stats()["notifications"] == 2

    def test_unwatched_scheduler_skips_without_arrival_signal(self):
        engine = make_engine()
        scheduler = QueryScheduler(engine)
        query = ContinuousQuery(
            engine, 'count(stream("credit")//transaction)', Strategy.QAC_PLUS
        )
        scheduler.add(query)
        now = XSDateTime.parse("2003-10-01T00:00:00")
        scheduler.poll(now)
        scheduler.unwatch_engine(engine)
        engine.feed("credit", [self._txn(50, 1, 5)])
        scheduler.poll(now)
        # The arrival was never seen, so the poll must skip (stale answer
        # is the documented contract for manual notification wiring).
        assert query.skips == 1


class TestWatermarkEpochs:
    """An idle member's watermark across arrivals and store history rewrites.

    A member whose leading predicate accepts none of a tick's tuples
    still *runs*: the group's tuple index hands it an empty sub-list, it
    folds in an empty delta and its watermark moves to the store head.
    ``prune_before``/``clear`` bump the store's mutation epoch; the
    watermark is then stale and the next run must be a full one —
    silently folding a delta in would replay or lose retained
    annotations.
    """

    @staticmethod
    def _txn(filler_id: int, hour: int, amount: int) -> Filler:
        content = parse_document(
            f'<transaction id="t{filler_id}"><amount>{amount}</amount>'
            "</transaction>"
        ).document_element
        return Filler(
            filler_id, 5, XSDateTime.parse(f"2003-10-01T{hour:02d}:00:00"), content
        )

    def test_watch_twice_registers_once(self):
        engine = make_engine()
        scheduler = QueryScheduler(engine)
        scheduler.watch_engine(engine)  # idempotent
        assert len(engine._arrival_listeners) == 1
        engine.feed("credit", [self._txn(10, 1, 5)])
        assert scheduler.stats()["notifications"] == 1

    def test_unwatch_stops_notifications_and_releases_listener(self):
        engine = make_engine()
        scheduler = QueryScheduler(engine)
        scheduler.unwatch_engine(engine)
        assert engine._arrival_listeners == []
        engine.feed("credit", [self._txn(11, 1, 5)])
        assert scheduler.stats()["notifications"] == 0

    def test_dropped_then_rewatched_fires_exactly_once(self):
        engine = make_engine()
        scheduler = QueryScheduler(engine)
        scheduler.unwatch_engine(engine)
        scheduler.watch_engine(engine)
        assert len(engine._arrival_listeners) == 1
        engine.feed("credit", [self._txn(12, 1, 5)])
        assert scheduler.stats()["notifications"] == 1

    def test_two_schedulers_fire_independently(self):
        engine = make_engine()
        first = QueryScheduler(engine)
        second = QueryScheduler(engine)
        engine.feed("credit", [self._txn(13, 1, 5)])
        assert first.stats()["notifications"] == 1
        assert second.stats()["notifications"] == 1
        first.unwatch_engine(engine)
        engine.feed("credit", [self._txn(14, 2, 5)])
        assert first.stats()["notifications"] == 1
        assert second.stats()["notifications"] == 2

    def test_same_tsid_batch_coalesces_to_one_notification(self):
        engine = make_engine()
        scheduler = QueryScheduler(engine)
        engine.feed("credit", [self._txn(20 + i, 1 + i, 5) for i in range(6)])
        assert scheduler.stats()["notifications"] == 1

    def test_mixed_tsids_fire_one_notification_each(self):
        engine = make_engine()
        scheduler = QueryScheduler(engine)
        limit_content = parse_document("<creditLimit>75</creditLimit>").document_element
        fillers = [self._txn(30 + i, 1 + i, 5) for i in range(3)]
        fillers.append(
            Filler(40, 4, XSDateTime.parse("2003-10-01T05:00:00"), limit_content)
        )
        engine.feed("credit", fillers)
        assert scheduler.stats()["notifications"] == 2

    def test_unwatched_scheduler_skips_without_arrival_signal(self):
        engine = make_engine()
        scheduler = QueryScheduler(engine)
        query = ContinuousQuery(
            engine, 'count(stream("credit")//transaction)', Strategy.QAC_PLUS
        )
        scheduler.add(query)
        now = XSDateTime.parse("2003-10-01T00:00:00")
        scheduler.poll(now)
        scheduler.unwatch_engine(engine)
        engine.feed("credit", [self._txn(50, 1, 5)])
        scheduler.poll(now)
        # The arrival was never seen, so the poll must skip (stale answer
        # is the documented contract for manual notification wiring).
        assert query.skips == 1


class TestWatermarkEpochs:
    """Routing-index watermark advancement across store history rewrites.

    The routed-skip optimization records ``cleared_seq`` and advances a
    skipped query's delta watermark past probed-and-missed arrivals.
    ``prune_before``/``clear`` bump the store's mutation epoch; a stale
    watermark must then be refused (the next run falls back to full) —
    silently accepting one would replay or lose retained annotations.
    """

    @staticmethod
    def _txn(filler_id: int, hour: int, amount: int) -> Filler:
        content = parse_document(
            f'<transaction id="t{filler_id}"><vendor>V</vendor>'
            f"<amount>{amount}</amount></transaction>"
        ).document_element
        return Filler(
            filler_id, 5, XSDateTime.parse(f"2003-10-01T{hour:02d}:00:00"), content
        )

    ROUTED = (
        'for $t in stream("credit")//transaction where $t/amount > 500 '
        "return <big>{$t/amount/text()}</big>"
    )
    NOW = XSDateTime.parse("2003-12-15T00:00:00")

    def _rig(self):
        engine = make_engine()
        scheduler = QueryScheduler(engine)
        query = ContinuousQuery(engine, self.ROUTED, strategy=Strategy.QAC_PLUS)
        scheduler.add(query)
        scheduler.poll(self.NOW)  # baseline: arms the delta watermark
        return engine, scheduler, query

    def test_routed_skip_advances_watermark(self):
        engine, scheduler, query = self._rig()
        store = engine.stores["credit"]
        engine.feed("credit", [self._txn(100 + i, 1 + i, 10) for i in range(3)])
        assert scheduler.poll(self.NOW)[query] == []
        # The member ran over nothing: the index pruned all three tuples,
        # no guard or body ran, and the watermark moved to the store head.
        stats = scheduler.stats()
        assert query.stats()["evaluations"] == 2
        assert query.stats()["shared_runs"] == 1
        assert query.watermark == store.watermark
        assert stats["routing"]["tuples_pruned"] == 3
        assert stats["shared_residual"]["guards_run"] == 0
        assert stats["shared_residual"]["body_runs"] == 0
        # The advanced watermark is still live: a matching arrival runs
        # an ordinary delta over only the new filler.
        engine.feed("credit", [self._txn(200, 9, 900)])
        emitted = scheduler.poll(self.NOW)[query]
        assert [item.string_value() for item in emitted] == ["900"]
        assert query.stats()["shared_runs"] == 2
        assert scheduler.stats()["routing"]["tuple_probes"] == 4

    def test_prune_before_forces_full_run_of_idle_member(self):
        engine, scheduler, query = self._rig()
        store = engine.stores["credit"]
        engine.feed("credit", [self._txn(100, 1, 10)])
        baseline_watermark = query.watermark
        epoch_before = store.mutation_epoch
        # History rewrite between the arrival and the next poll.
        store.prune_before(XSDateTime.parse("2003-10-01T02:00:00"))
        assert store.mutation_epoch == epoch_before + 1
        full_before = query.stats()["full_runs"]
        assert scheduler.poll(self.NOW)[query] == []
        # The epoch moved under the old watermark: nothing was folded in,
        # the member re-ran in full and re-armed on the new history.
        assert query.stats()["full_runs"] == full_before + 1
        assert query.watermark == store.watermark != baseline_watermark
        # The query still answers correctly, incrementally again.
        engine.feed("credit", [self._txn(300, 10, 777)])
        emitted = scheduler.poll(self.NOW)[query]
        assert [item.string_value() for item in emitted] == ["777"]
        assert query.last_mode == "shared"

    def test_clear_epoch_bump_forces_full_run(self):
        engine, scheduler, query = self._rig()
        store = engine.stores["credit"]
        engine.feed("credit", [self._txn(400, 1, 900)])
        assert [i.string_value() for i in scheduler.poll(self.NOW)[query]] == ["900"]
        full_before = query.stats()["full_runs"]
        store.clear()
        engine.feed("credit", [self._txn(401, 2, 901)])
        emitted = scheduler.poll(self.NOW)[query]
        # The wipe emptied the store, so only the new filler answers —
        # and it had to come from a full run, not a stale delta.
        assert [item.string_value() for item in emitted] == ["901"]
        assert query.stats()["full_runs"] == full_before + 1

    def test_advance_watermark_noop_on_epoch_mismatch(self):
        """An idle run never carries a watermark across an epoch bump."""
        engine, scheduler, query = self._rig()
        store = engine.stores["credit"]
        engine.feed("credit", [self._txn(500, 1, 900)])
        scheduler.poll(self.NOW)
        store.prune_before(XSDateTime.parse("2003-10-01T02:00:00"))
        engine.feed("credit", [self._txn(501, 3, 10)])  # the index prunes it
        full_before = query.stats()["full_runs"]
        assert scheduler.poll(self.NOW)[query] == []
        assert query.stats()["full_runs"] == full_before + 1
        assert query.watermark == store.watermark

    def test_advance_watermark_never_rewinds(self):
        """Idle runs move the watermark forward only, one store head at a time."""
        engine, scheduler, query = self._rig()
        store = engine.stores["credit"]
        marks = [query.watermark]
        for i in range(4):
            engine.feed("credit", [self._txn(600 + i, 1 + i, 10)])
            assert scheduler.poll(self.NOW)[query] == []
            marks.append(query.watermark)
        assert marks == sorted(marks) and len(set(marks)) == len(marks)
        assert marks[-1] == store.watermark
        # A poll with no arrival is a dependency skip and leaves it alone.
        scheduler.poll(self.NOW)
        assert query.watermark == marks[-1]
        assert query.stats()["skips"] == 1


class TestDeterministicDispatchOrder:
    """Grouped entries dispatch sorted by group key, not insertion order.

    The sharded coordinator compares per-shard answers positionally, so
    two schedulers holding the same queries must tick them in the same
    order no matter how registration interleaved.
    """

    SOURCES = [
        'for $t in stream("credit")//transaction where $t/amount > 500 '
        "return <big>{$t/amount/text()}</big>",
        'for $c in stream("credit")//creditLimit where $c > 1000 '
        "return <lim>{$c/text()}</lim>",
        'count(stream("credit")//customer)',
    ]

    def _order(self, sources):
        engine = make_engine()
        scheduler = QueryScheduler(engine)
        for source in sources:
            scheduler.add(ContinuousQuery(engine, source, strategy=Strategy.QAC_PLUS))
        return [
            entry.query.source
            for group in scheduler._groups_in_order()
            for entry in group.members
        ]

    def test_single_member_groups_order_is_registration_invariant(self):
        forward = self._order(self.SOURCES)
        backward = self._order(list(reversed(self.SOURCES)))
        assert forward == backward

    def test_grouped_before_ungrouped_and_ties_by_registration(self):
        engine = make_engine()
        scheduler = QueryScheduler(engine)
        first = ContinuousQuery(engine, self.SOURCES[0], strategy=Strategy.QAC_PLUS)
        second = ContinuousQuery(engine, self.SOURCES[0], strategy=Strategy.QAC_PLUS)
        scheduler.add(second)
        scheduler.add(first)
        ordered = [entry for group in scheduler._groups_in_order() for entry in group.members]
        grouped = [entry for entry in ordered if entry.group_key is not None]
        ungrouped = [entry for entry in ordered if entry.group_key is None]
        # Grouped entries lead; same-group members keep registration order.
        assert ordered[: len(grouped)] == grouped
        assert [entry.query for entry in grouped[:2]] == [second, first]
        assert all(entry.group_key is None for entry in ungrouped)
