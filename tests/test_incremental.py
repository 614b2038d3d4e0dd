"""Incremental (delta) continuous-query evaluation: watermarks, analysis,
and the differential guarantee that the delta path is byte-identical to a
full re-evaluation on both backends."""

import random
from datetime import datetime, timedelta

import pytest

from repro import Strategy, TagStructure, XCQLEngine
from repro.core.pipeline import analyze_delta
from repro.dom import parse_document
from repro.dom.serializer import serialize
from repro.fragments.model import Filler
from repro.streams.continuous import ContinuousQuery
from repro.streams.scheduler import QueryScheduler
from repro.temporal import XSDateTime

SENSOR_STRUCTURE_XML = """
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
    engine.register_stream("s", TagStructure.from_xml(SENSOR_STRUCTURE_XML))
    return engine


def normalized(items) -> list[str]:
    return sorted(serialize(item) for item in items)


class Rig:
    """Three views of one arrival sequence: incremental, full, interpreted.

    Each query runs on its own engine so the incremental path cannot lean
    on state the full evaluation produced (separate stores, separate plan
    caches, separate wrapper caches).
    """

    def __init__(self, source: str):
        self.engines = [make_engine(), make_engine(), make_engine()]
        self.incremental = ContinuousQuery(
            self.engines[0], source, strategy=Strategy.QAC_PLUS, incremental=True
        )
        self.full = ContinuousQuery(
            self.engines[1], source, strategy=Strategy.QAC_PLUS, incremental=False
        )
        self.interpreted = ContinuousQuery(
            self.engines[2],
            source,
            strategy=Strategy.QAC_PLUS,
            incremental=False,
            backend="interpreted",
        )
        self.queries = [self.incremental, self.full, self.interpreted]
        self.emitted: dict[ContinuousQuery, list[str]] = {q: [] for q in self.queries}
        for query in self.queries:
            query.subscribe(
                lambda items, q=query: self.emitted[q].extend(
                    serialize(i) for i in items
                )
            )

    def feed(self, fillers) -> None:
        for engine in self.engines:
            # Fresh Filler objects per engine: stores must not share state.
            engine.feed("s", [Filler(f.filler_id, f.tsid, f.valid_time, f.content.copy())
                              for f in fillers])

    def tick(self, now: XSDateTime) -> None:
        for query in self.queries:
            query.evaluate(now)

    def assert_identical(self) -> None:
        reference = normalized(self.interpreted.last_result)
        assert normalized(self.incremental.last_result) == reference
        assert normalized(self.full.last_result) == reference
        assert sorted(self.emitted[self.incremental]) == sorted(self.emitted[self.full])
        assert sorted(self.emitted[self.incremental]) == sorted(
            self.emitted[self.interpreted]
        )


class TestStoreWatermarks:
    def test_seq_advances_per_accepted_filler(self):
        engine = make_engine()
        store = engine.stores["s"]
        assert store.seq == 0
        engine.feed("s", [txn(1, 0, 10), txn(2, 1, 20)])
        assert store.seq == 2
        engine.feed("s", [txn(1, 0, 10)])  # exact duplicate: dropped
        assert store.seq == 2

    def test_fillers_since_slices_and_filters(self):
        engine = make_engine()
        store = engine.stores["s"]
        engine.feed("s", [txn(1, 0, 10), limit(9, 1, 100), txn(2, 2, 20)])
        assert [f.filler_id for f in store.fillers_since(0)] == [1, 9, 2]
        assert [f.filler_id for f in store.fillers_since(1)] == [9, 2]
        assert [f.filler_id for f in store.fillers_since(1, tsid=2)] == [2]
        assert [f.filler_id for f in store.fillers_since(0, filler_id=9)] == [9]
        assert store.fillers_since(0, tsid=2, filler_id=9) == []
        assert store.fillers_since(store.seq) == []

    def test_tsid_watermark(self):
        engine = make_engine()
        store = engine.stores["s"]
        assert store.tsid_watermark(2) == 0
        engine.feed("s", [txn(1, 0, 10), limit(9, 1, 100)])
        assert store.tsid_watermark(2) == 1
        assert store.tsid_watermark(3) == 2

    def test_mutation_epoch_stable_under_appends(self):
        engine = make_engine()
        store = engine.stores["s"]
        epoch = store.mutation_epoch
        engine.feed("s", [txn(1, 0, 10)])
        assert store.mutation_epoch == epoch

    def test_mutation_epoch_bumps_on_history_rewrites(self):
        engine = make_engine()
        store = engine.stores["s"]
        engine.feed("s", [txn(1, 0, 10), txn(2, 1, 20)])
        epoch = store.mutation_epoch
        store.prune_before(stamp(5))
        assert store.mutation_epoch == epoch + 1
        store.clear()
        assert store.mutation_epoch == epoch + 2
        store.set_tag_structure(TagStructure.from_xml(SENSOR_STRUCTURE_XML))
        assert store.mutation_epoch == epoch + 3

    def test_seq_not_rewound_by_clear(self):
        engine = make_engine()
        store = engine.stores["s"]
        engine.feed("s", [txn(1, 0, 10), txn(2, 1, 20)])
        store.clear()
        assert store.seq == 2
        engine.feed("s", [txn(3, 2, 30)])
        assert store.seq == 3
        assert [f.filler_id for f in store.fillers_since(2)] == [3]

    def test_delta_wrappers_match_get_fillers_for_new_ids(self):
        engine = make_engine()
        store = engine.stores["s"]
        batch = [txn(7, 3, 55), txn(7, 1, 44), txn(8, 2, 66)]
        engine.feed("s", batch)
        wrappers = store.delta_wrappers(store.fillers_since(0))
        assert [serialize(w) for w in wrappers] == [
            serialize(store.get_fillers(7)),
            serialize(store.get_fillers(8)),
        ]


class TestDeltaAnalysis:
    def compiled(self, source: str, strategy=Strategy.QAC_PLUS):
        return make_engine().compile(source, strategy)

    def test_event_flwor_is_delta_safe(self):
        analysis = analyze_delta(self.compiled(EVENT_QUERY).translated)
        assert analysis.safe
        assert analysis.stream == "s"
        assert analysis.tsid == 2
        assert analysis.binds_versions

    def test_tuple_local_aggregate_is_safe(self):
        source = (
            'for $t in stream("s")//txn where count($t/amount) > 0 '
            "return <n>{sum($t/amount)}</n>"
        )
        assert analyze_delta(self.compiled(source).translated).safe

    def test_aggregate_over_driving_sequence_is_full_only(self):
        analysis = analyze_delta(
            self.compiled('count(stream("s")//txn)').translated
        )
        assert not analysis.safe
        assert "FLWOR" in analysis.reason

    def test_order_by_is_full_only(self):
        source = (
            'for $t in stream("s")//txn order by $t/amount '
            "return $t/amount"
        )
        analysis = analyze_delta(self.compiled(source).translated)
        assert not analysis.safe
        assert "order" in analysis.reason

    def test_now_window_is_full_only(self):
        source = (
            'for $t in stream("s")//txn?[now-PT1H, now] return $t/amount'
        )
        analysis = analyze_delta(self.compiled(source).translated)
        assert not analysis.safe

    def test_version_projection_is_full_only(self):
        source = 'for $t in stream("s")//txn#[1, 2] return $t/amount'
        analysis = analyze_delta(self.compiled(source).translated)
        assert not analysis.safe

    def test_qac_hole_chasing_is_full_only(self):
        analysis = analyze_delta(self.compiled(EVENT_QUERY, Strategy.QAC).translated)
        assert not analysis.safe

    def test_positional_predicate_on_driver_is_full_only(self):
        source = 'for $t in stream("s")//txn[1] return $t/amount'
        analysis = analyze_delta(self.compiled(source).translated)
        assert not analysis.safe
        assert "positional" in analysis.reason

    def test_interpreted_backend_has_no_delta_plan(self):
        engine = make_engine()
        compiled = engine.compile(EVENT_QUERY, Strategy.QAC_PLUS, backend="interpreted")
        assert engine.prepare_incremental(compiled) is None
        assert "interpreted" in compiled.info.incremental_reason

    def test_explain_reports_delta_verdict(self):
        engine = make_engine()
        assert engine.explain(EVENT_QUERY, Strategy.QAC_PLUS)["incremental"] is True
        plan = engine.explain('count(stream("s")//txn)', Strategy.QAC_PLUS)
        assert plan["incremental"] is False
        assert plan["incremental_reason"]


class TestDeltaDifferential:
    def test_in_order_new_ids_exact_and_incremental(self):
        rig = Rig(EVENT_QUERY)
        rig.feed([txn(i, i, 40 + i * 10) for i in range(4)])
        rig.tick(stamp(10))
        for round_no in range(5):
            rig.feed([txn(10 + round_no, 20 + round_no, 55 + round_no)])
            rig.tick(stamp(30 + round_no))
            # In-order fresh ids keep even the list order identical.
            assert [serialize(i) for i in rig.incremental.last_result] == [
                serialize(i) for i in rig.full.last_result
            ]
        rig.assert_identical()
        assert rig.incremental.delta_runs == 5
        assert rig.incremental.full_runs == 1

    def test_random_arrival_orders(self):
        rng = random.Random(42)
        arrivals = [txn(i, i % 17, rng.randrange(0, 120)) for i in range(40)]
        # Shared event holes: several events reuse one filler id.
        arrivals += [txn(100, 5 + i, rng.randrange(0, 120)) for i in range(6)]
        rng.shuffle(arrivals)
        rig = Rig(EVENT_QUERY)
        hour = 50
        while arrivals:
            batch, arrivals = arrivals[: rng.randrange(1, 5)], arrivals[4:]
            rig.feed(batch)
            hour += 1
            rig.tick(stamp(hour))
            rig.assert_identical()
        assert rig.incremental.delta_runs > 0

    def test_shared_event_hole_stays_on_delta_path(self):
        rig = Rig(EVENT_QUERY)
        rig.feed([txn(1, 0, 80)])
        rig.tick(stamp(10))
        rig.feed([txn(1, 1, 90)])  # same filler id, second event version
        rig.tick(stamp(11))
        rig.assert_identical()
        assert rig.incremental.last_mode == "delta"

    def test_update_heavy_temporal_closures_fall_back(self):
        """A new limit version closes the old version's vtTo: full rerun."""
        rig = Rig(LIMIT_QUERY)
        rig.feed([limit(1, 0, 100), limit(2, 0, 40)])
        rig.tick(stamp(10))
        for round_no in range(4):
            rig.feed([limit(1, 20 + round_no, 60 + round_no)])
            rig.tick(stamp(40 + round_no))
            rig.assert_identical()
        # Every post-baseline run re-scanned: versions of existing
        # temporal fragments mutate retained annotations.
        assert rig.incremental.delta_runs == 0
        assert rig.incremental.full_runs == 5

    def test_fresh_temporal_ids_stay_on_delta_path(self):
        rig = Rig(LIMIT_QUERY)
        rig.feed([limit(1, 0, 100)])
        rig.tick(stamp(10))
        rig.feed([limit(2, 1, 70), limit(3, 2, 30)])
        rig.tick(stamp(11))
        rig.assert_identical()
        assert rig.incremental.last_mode == "delta"

    def test_prune_forces_full_resync(self):
        rig = Rig(EVENT_QUERY)
        rig.feed([txn(i, i, 60 + i) for i in range(6)])
        rig.tick(stamp(10))
        rig.feed([txn(10, 12, 99)])
        rig.tick(stamp(13))
        assert rig.incremental.last_mode == "delta"
        for engine in rig.engines:
            engine.stores["s"].prune_before(stamp(3))
        rig.tick(stamp(20))
        assert rig.incremental.last_mode == "full"
        rig.assert_identical()
        # And the delta path resumes once resynchronized.
        rig.feed([txn(11, 21, 77)])
        rig.tick(stamp(22))
        assert rig.incremental.last_mode == "delta"
        rig.assert_identical()

    def test_no_arrivals_trivial_delta(self):
        rig = Rig(EVENT_QUERY)
        rig.feed([txn(1, 0, 80)])
        rig.tick(stamp(10))
        rig.tick(stamp(11))
        assert rig.incremental.last_mode == "delta"
        rig.assert_identical()

    def test_full_only_query_unaffected_by_incremental_flag(self):
        rig = Rig('for $t in stream("s")//txn order by $t/amount return $t/amount')
        rig.feed([txn(i, i, 90 - i) for i in range(5)])
        rig.tick(stamp(10))
        rig.feed([txn(9, 20, 45)])
        rig.tick(stamp(21))
        assert rig.incremental.delta_runs == 0
        reference = [serialize(i) for i in rig.interpreted.last_result]
        assert [serialize(i) for i in rig.incremental.last_result] == reference


class TestSeenCap:
    def test_eviction_is_oldest_first_and_counted(self):
        engine = make_engine()
        query = ContinuousQuery(
            engine, EVENT_QUERY, strategy=Strategy.QAC_PLUS, seen_cap=2
        )
        engine.feed("s", [txn(i, i, 60 + i) for i in range(5)])
        query.evaluate(stamp(10))
        stats = query.stats()
        assert stats["seen_size"] == 2
        assert stats["seen_evictions"] == 3
        assert stats["emitted"] == 5

    def test_evicted_identity_re_emits(self):
        engine = make_engine()
        query = ContinuousQuery(
            engine, EVENT_QUERY, strategy=Strategy.QAC_PLUS, seen_cap=1
        )
        engine.feed("s", [txn(1, 0, 80)])
        assert len(query.evaluate(stamp(1))) == 1
        engine.feed("s", [txn(2, 1, 90)])  # evicts <hit>80</hit>
        assert len(query.evaluate(stamp(2))) == 1
        # The same answer re-appears via a new event with identical content:
        # its identity was evicted, so it is emitted again.
        engine.feed("s", [txn(3, 2, 80)])
        emitted = query.evaluate(stamp(3))
        assert [serialize(i) for i in emitted] == ["<hit>80</hit>"]

    def test_unbounded_by_default(self):
        engine = make_engine()
        query = ContinuousQuery(engine, EVENT_QUERY, strategy=Strategy.QAC_PLUS)
        engine.feed("s", [txn(i, i, 60 + i) for i in range(5)])
        query.evaluate(stamp(10))
        assert query.stats()["seen_size"] == 5
        assert query.stats()["seen_evictions"] == 0

    def test_invalid_cap_rejected(self):
        with pytest.raises(ValueError):
            ContinuousQuery(make_engine(), EVENT_QUERY, seen_cap=0)


class TestAutomaticArrivalWiring:
    def test_feed_notifies_watching_scheduler(self):
        engine = make_engine()
        scheduler = QueryScheduler(engine)
        query = ContinuousQuery(engine, EVENT_QUERY, strategy=Strategy.QAC_PLUS)
        scheduler.add(query)
        scheduler.poll(stamp(1))
        # No manual notify_arrival: feed() itself announces the batch.
        engine.feed("s", [txn(1, 0, 80)])
        scheduler.poll(stamp(2))
        assert scheduler.total_evaluations == 2
        assert scheduler.total_skips == 0
        scheduler.poll(stamp(3))
        assert scheduler.total_skips == 1

    def test_unwatch_stops_notifications(self):
        engine = make_engine()
        scheduler = QueryScheduler(engine)
        query = ContinuousQuery(engine, EVENT_QUERY, strategy=Strategy.QAC_PLUS)
        scheduler.add(query)
        scheduler.poll(stamp(1))
        scheduler.unwatch_engine(engine)
        engine.feed("s", [txn(1, 0, 80)])
        scheduler.poll(stamp(2))
        assert scheduler.total_skips == 1

    def test_scheduler_records_delta_vs_full_vs_skip(self):
        engine = make_engine()
        scheduler = QueryScheduler(engine)
        query = ContinuousQuery(engine, EVENT_QUERY, strategy=Strategy.QAC_PLUS)
        scheduler.add(query)
        engine.feed("s", [txn(1, 0, 80)])
        scheduler.poll(stamp(1))   # first run: full baseline
        engine.feed("s", [txn(2, 1, 90)])
        scheduler.poll(stamp(2))   # incremental: a scheduled run is "shared"
        scheduler.poll(stamp(3))   # skip (no arrivals)
        stats = scheduler.stats()
        assert stats["full_runs"] == 1
        assert stats["shared_runs"] == 1 and stats["delta_runs"] == 0
        assert stats["skips"] == 1
        per_query = stats["queries"][0]
        assert per_query["shared_runs"] == 1
        assert per_query["full_runs"] == 1
