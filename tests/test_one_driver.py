"""One driver for a standing query: the scheduler's settle.

``ContinuousQuery.evaluate(now)`` is the settle of a group of one
(``scheduler.run_alone``): no automaton, no index, never skipped, an
incremental run booked as ``"delta"``.  The scheduler keeps none of a
query's run counters — its ``stats()`` reads the members' own — and the
in-process ``StreamClient`` always schedules.

The property drives one engine's queries through ``evaluate`` and a twin
engine's through a window of the query's own, the reference
(``own_window_evaluate`` below: epoch check, ``DeltaWindow``, prefix scan,
residual, ``fold(..., "delta")``), over raw and DOM feeds,
``prune_before``, schema swaps, ``reset``, ``emit`` modes, ``seen_cap``
and ``incremental=False``; emissions, ``last_mode``, ``stats()``,
watermarks, the last answer and the last emission's identities must be
identical (the CI workflow runs it under the ``ci`` hypothesis profile).
"""

from __future__ import annotations

import inspect

from hypothesis import given, settings, strategies as st

from repro.core.engine import XCQLEngine
from repro.core.translator import Strategy
from repro.dom.parser import parse_document
from repro.fragments.model import Filler
from repro.fragments.tagstructure import TagStructure
from repro.streams import scheduler as scheduler_module
from repro.streams.client import StreamClient
from repro.streams.continuous import ContinuousQuery, DeltaWindow, item_identity
from repro.streams.scheduler import QueryScheduler

from tests.test_group_settle import (
    _ARRIVAL,
    _MEMBER,
    NOW,
    STRUCTURE_XML,
    arrival,
    source_of,
    stamp,
)


def own_window_evaluate(query: ContinuousQuery, now) -> list:
    """``evaluate`` as a query's own driver: its window, or a full run."""
    engine = query.engine
    plan = engine.prepare_incremental(query.compiled)
    store = engine.stores.get(plan.stream) if plan is not None else None
    window = None
    if query.incremental and query.watermark is not None and store is not None:
        seq, epoch = query.watermark
        if store.mutation_epoch == epoch:
            window = DeltaWindow(store, plan, seq)
            if not window.applicable:
                window = None
    if window is None:
        return query.refresh(now)
    if not window.fresh:
        return query.fold((), (), window.end, "delta")
    context = engine.build_context(now=now)
    items, keys = window.residual(plan, window.scan(engine, context), context)
    return query.fold(items, keys, window.end, "delta")


class _Twin:
    """One engine whose queries are driven by ``drive(query, now)``."""

    def __init__(self, drive) -> None:
        self.drive = drive
        self.engine = XCQLEngine()
        self.engine.register_stream("s", TagStructure.from_xml(STRUCTURE_XML))
        self.engine.feed("s", [Filler(0, 1, stamp(0), parse_document("<log/>").document_element)])
        self.queries: list[ContinuousQuery] = []

    def join(self, member, incremental: bool) -> None:
        spec, emit, seen_cap = member
        self.queries.append(ContinuousQuery(
            self.engine, source_of(spec), strategy=Strategy.QAC_PLUS, emit=emit,
            seen_cap=seen_cap, incremental=incremental,
        ))

    def tick(self) -> list:
        return [
            [item_identity(item) for item in self.drive(query, NOW)]
            for query in self.queries
        ]

    def observed(self) -> list:
        return [
            (
                query.stats(), query.last_mode, query.watermark,
                query.last_emitted_identities,
                [item_identity(item) for item in query.last_result],
            )
            for query in self.queries
        ]


_JOIN = st.tuples(_MEMBER, st.sampled_from([True, True, False]))  # (member, incremental)
_STEP = st.one_of(
    st.tuples(st.just("join"), _JOIN),
    st.tuples(st.just("prune"), st.integers(0, 60)),
    st.tuples(st.just("swap"), st.none()),
    st.tuples(st.just("reset"), st.integers(0, 7)),
)
_TICK = st.tuples(
    st.lists(_STEP, max_size=2),
    st.booleans(),  # feed_raw?
    st.lists(_ARRIVAL, max_size=6),
)


class TestEvaluateEqualsItsOwnWindow:
    @given(st.lists(_JOIN, min_size=1, max_size=5), st.lists(_TICK, min_size=1, max_size=5))
    @settings(deadline=None)
    def test_emissions_modes_counters_and_watermarks(self, members, script):
        twins = [_Twin(ContinuousQuery.evaluate), _Twin(own_window_evaluate)]
        for twin in twins:
            for member, incremental in members:
                twin.join(member, incremental)
        assert twins[0].tick() == twins[1].tick()
        seq = 0
        for steps, raw, arrivals in script:
            batch = []
            for kind, which, value in arrivals:
                seq += 1
                batch.append(arrival(seq, kind, which, value))
            ticks = []
            for twin in twins:
                store = twin.engine.stores["s"]
                for step, arg in steps:
                    if step == "join":
                        twin.join(*arg)
                    elif step == "prune":
                        store.prune_before(stamp(arg))
                    elif step == "swap":
                        store.set_tag_structure(TagStructure.from_xml(STRUCTURE_XML))
                    else:
                        twin.queries[arg % len(twin.queries)].reset()
                if raw:
                    twin.engine.feed_raw("s", [filler.to_xml() for filler in batch])
                else:
                    twin.engine.feed("s", [
                        Filler(f.filler_id, f.tsid, f.valid_time, f.content.copy())
                        for f in batch
                    ])
                ticks.append(twin.tick())
            assert ticks[0] == ticks[1]
            assert twins[0].observed() == twins[1].observed()
        for query in twins[0].queries:
            stats = query.stats()
            assert stats["shared_runs"] == stats["skips"] == 0
            assert stats["full_runs"] + stats["delta_runs"] == stats["evaluations"]


def _engine_with(*bodies: str) -> XCQLEngine:
    engine = XCQLEngine()
    engine.register_stream("s", TagStructure.from_xml(STRUCTURE_XML))
    engine.feed("s", [Filler(0, 1, stamp(0), parse_document("<log/>").document_element)])
    for seq, body in enumerate(bodies, start=1):
        engine.feed("s", [Filler(100 + seq, 2, stamp(seq), parse_document(body).document_element)])
    return engine


TXN = 'for $t in stream("s")//txn where $t/amount > 10 return <hit>{$t/amount/text()}</hit>'


class TestOneDriver:
    def test_evaluate_settles_a_group_of_one(self, monkeypatch):
        engine = _engine_with("<txn><amount>20</amount></txn>")
        query = ContinuousQuery(engine, TXN, strategy=Strategy.QAC_PLUS)
        settles = []
        settle = QueryScheduler._settle

        def spy(scheduler, group, now, woken, emitted):
            settles.append(([entry.query for entry in group.members], group.mode,
                            group.index, [entry.automaton for entry in group.members]))
            return settle(scheduler, group, now, woken, emitted)

        monkeypatch.setattr(QueryScheduler, "_settle", spy)
        assert len(query.evaluate(NOW)) == 1 and query.last_mode == "full"
        engine.feed("s", [Filler(200, 2, stamp(9), parse_document(
            "<txn><amount>30</amount></txn>").document_element)])
        assert len(query.evaluate(NOW)) == 1 and query.last_mode == "delta"
        assert query.evaluate(NOW) == [] and query.last_mode == "delta"
        assert settles == [([query], "delta", None, [None])] * 3
        assert query.stats()["delta_runs"] == 2 and query.stats()["full_runs"] == 1

    def test_the_query_keeps_no_window_of_its_own(self):
        for name in ("_window", "_plan_and_store"):
            assert not hasattr(ContinuousQuery, name)

    def test_an_entry_holds_none_of_the_querys_counters(self):
        fields = set(scheduler_module._Entry.__dataclass_fields__)
        assert not fields & {"evaluations", "skips", "full_runs", "delta_runs", "shared_runs"}
        assert {"automaton_runs", "automaton_fallbacks", "last_now", "filed"} <= fields

    def test_scheduler_rows_are_the_members_own_counters(self):
        engine = _engine_with("<txn><amount>20</amount></txn>")
        direct = ContinuousQuery(engine, TXN, strategy=Strategy.QAC_PLUS)
        direct.evaluate(NOW)
        direct.evaluate(NOW)  # a delta run outside any scheduler
        scheduled = ContinuousQuery(engine, TXN, strategy=Strategy.QAC_PLUS)
        scheduler = QueryScheduler(engine)
        scheduler.add(direct)
        scheduler.add(scheduled)
        scheduler.poll(NOW)
        scheduler.poll(NOW)  # nothing arrived: both skip
        first, second = scheduler.stats()["queries"]
        assert first == {
            "source": TXN, "evaluations": 3, "skips": 1, "delta_runs": 1,
            "full_runs": 1, "shared_runs": 1, "automaton_runs": 0,
            "automaton_fallbacks": 0,
        }
        assert second == {
            "source": TXN, "evaluations": 1, "skips": 1, "delta_runs": 0,
            "full_runs": 1, "shared_runs": 0, "automaton_runs": 0,
            "automaton_fallbacks": 0,
        }
        stats = scheduler.stats()
        assert (stats["evaluations"], stats["skips"], stats["delta_runs"]) == (4, 2, 1)
        assert scheduler.total_evaluations == 4 and scheduler.total_delta_runs == 1
        assert scheduler.total_shared_runs == 1 and scheduler.total_full_runs == 2
        assert scheduler.total_skips == 2

    def test_the_client_always_schedules(self):
        assert "scheduler" not in inspect.signature(StreamClient).parameters
        client = StreamClient()
        assert isinstance(client.scheduler, QueryScheduler)
        assert not hasattr(StreamClient, "tune_out")
