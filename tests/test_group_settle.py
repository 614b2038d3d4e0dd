"""A tick costs what it delivers: each woken group settles once.

``QueryScheduler.poll`` is a loop over groups.  A group builds one
``DeltaWindow`` per member watermark, produces its tuples once, splits
them once with its predicate index, and runs a residual only for the
members the split fed; a filed member it left out folds in an empty
delta without any call chain of its own.  Two properties hold it:

- structurally, on the benchmark's 64 standing queries, a one-envelope
  tick calls ``DeltaWindow.residual`` exactly for the members the
  partition lists, the partition lists only members it fed, every
  member's run is booked by ``ContinuousQuery.fold`` and nobody goes
  through ``evaluate``;
- per tick, the emissions and per-query counters equal those of a
  ``share_groups=False, routing=False`` scheduler, and the emissions
  equal a fresh full evaluation, across thresholds and operators,
  ``emit`` modes, ``seen_cap``, members the index cannot file
  (``@vtFrom``), late joiners, ``remove``, ``prune_before`` and schema
  swaps, over one-envelope and batched ticks (the CI workflow runs this
  one under the ``ci`` hypothesis profile).
"""

from __future__ import annotations

from datetime import datetime, timedelta

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.engine import XCQLEngine
from repro.core.translator import Strategy
from repro.dom.parser import parse_document
from repro.fragments.model import Filler
from repro.fragments.tagstructure import TagStructure
from repro.streams.continuous import ContinuousQuery, DeltaWindow, item_identity
from repro.streams.routing import TupleIndex
from repro.streams.scheduler import QueryScheduler
from repro.temporal.chrono import XSDateTime

NOW = XSDateTime(2004, 1, 1)


class TestTickVisitsOnlyFedMembers:
    def test_one_envelope_tick_on_the_benchmark_queries(self, monkeypatch):
        netbench = pytest.importorskip("benchmarks.e2e.netbench")
        loadgen = pytest.importorskip("benchmarks.e2e.loadgen")
        load = loadgen.AuctionLoad(seed=7)
        engine = XCQLEngine()
        engine.register_stream(loadgen.AUCTION_STREAM, load.structure)
        engine.feed_raw(loadgen.AUCTION_STREAM, load.catalog)
        scheduler = QueryScheduler(engine)
        queries = [
            ContinuousQuery(engine, source, strategy=Strategy.QAC_PLUS)
            for source in netbench.event_queries()
        ]
        for query in queries:
            scheduler.add(query)
        scheduler.poll(NOW)
        envelopes = load.events(40)
        for envelope in envelopes[:8]:  # past the first ticks
            engine.feed_raw(loadgen.AUCTION_STREAM, [envelope])
            scheduler.poll(NOW)

        partitions, residuals, folds, contexts = [], [], [], []
        partition, residual = TupleIndex.partition, DeltaWindow.residual
        fold, build = ContinuousQuery.fold, engine.build_context

        def spy_partition(index, tuples):
            partitions.append(partition(index, tuples))
            return partitions[-1]

        def spy_residual(window, plan, *args):
            residuals.append(plan)
            return residual(window, plan, *args)

        def spy_fold(query, *args, **kwargs):
            folds.append(query)
            return fold(query, *args, **kwargs)

        def no_evaluate(*args, **kwargs):
            raise AssertionError("a scheduled member went through evaluate")

        monkeypatch.setattr(TupleIndex, "partition", spy_partition)
        monkeypatch.setattr(DeltaWindow, "residual", spy_residual)
        monkeypatch.setattr(ContinuousQuery, "fold", spy_fold)
        monkeypatch.setattr(ContinuousQuery, "evaluate", no_evaluate)
        monkeypatch.setattr(
            engine, "build_context", lambda *a, **k: contexts.append(1) or build(*a, **k)
        )
        entries = [entry for group in scheduler._groups_in_order() for entry in group.members]
        plan_of = {id(entry): entry.plan for entry in entries}
        fed_ticks = 0
        for envelope in envelopes[8:]:
            partitions.clear(), residuals.clear(), folds.clear(), contexts.clear()
            engine.feed_raw(loadgen.AUCTION_STREAM, [envelope])
            emitted = scheduler.poll(NOW)
            assert len(partitions) == 2  # one split per group, not per member
            fed = [key for split in partitions for key in split]
            # The partitions list only the members they fed ...
            assert all(split[key] for split in partitions for key in split)
            # ... and exactly those run a residual, once each.
            assert sorted(map(id, residuals)) == sorted(id(plan_of[key]) for key in fed)
            assert len(folds) == len(queries) and set(folds) == set(queries)
            assert len(contexts) <= 2  # one per group settle, built on use
            assert all(not items for query, items in emitted.items() if id(query) not in {
                id(entry.query) for entry in entries
                if id(entry) in fed
            })
            fed_ticks += bool(fed)
        assert fed_ticks > 10
        stats = scheduler.stats()
        assert stats["skips"] == 0 and stats["full_runs"] == len(queries)
        assert stats["automata"]["fallbacks"] == 0


# -- the property -------------------------------------------------------------------------

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
_BASE = datetime(2003, 1, 1)
_OPS = (">", ">=", "<", "<=", "=", "!=")


def stamp(minutes: int) -> XSDateTime:
    return XSDateTime.parse(
        (_BASE + timedelta(minutes=minutes)).strftime("%Y-%m-%dT%H:%M:%S")
    )


def source_of(spec) -> str:
    kind, op, literal = spec
    if kind == "txn":
        return (
            f'for $t in stream("s")//txn where $t/amount {op} {literal} '
            "return <hit>{$t/amount/text()}</hit>"
        )
    if kind == "vt":  # not fileable: the member takes every tuple
        return (
            f'for $t in stream("s")//txn where $t/@vtFrom {op} '
            f"{stamp(literal)} return <vt>{{$t/@seq}}</vt>"
        )
    return (
        f'for $l in stream("s")//limit where $l {op} {literal} '
        "return <lim>{$l/text()}</lim>"
    )


_SPEC = st.one_of(
    st.tuples(st.just("txn"), st.sampled_from(_OPS), st.sampled_from([0, 10, 40, 40.5, 70])),
    st.tuples(st.just("vt"), st.sampled_from(_OPS[:4]), st.integers(0, 40)),
    st.tuples(st.just("limit"), st.sampled_from(_OPS[:4]), st.sampled_from([5, 50])),
)
_MEMBER = st.tuples(_SPEC, st.sampled_from(["delta", "delta", "full"]),
                    st.sampled_from([None, None, 1, 3]))
_ARRIVAL = st.one_of(
    # (kind, shared event hole?, amount)
    st.tuples(st.just("txn"), st.booleans(), st.sampled_from(["0", "10", "40", "41", "75", ""])),
    st.tuples(st.just("limit"), st.integers(0, 2), st.sampled_from(["5", "50", "90"])),
)
_STEP = st.one_of(
    st.tuples(st.just("join"), _MEMBER),
    st.tuples(st.just("remove"), st.integers(0, 7)),
    st.tuples(st.just("prune"), st.integers(0, 60)),
    st.tuples(st.just("swap"), st.none()),
)
_TICK = st.tuples(
    st.lists(_STEP, max_size=2),
    st.booleans(),  # feed_raw?
    st.one_of(st.lists(_ARRIVAL, min_size=1, max_size=1), st.lists(_ARRIVAL, max_size=8)),
)


def arrival(seq: int, kind: str, which, value: str) -> Filler:
    if kind == "txn":
        body = f"<amount>{value}</amount>" if value else ""
        content = parse_document(f'<txn seq="{seq}">{body}</txn>').document_element
        return Filler(7 if which else 100 + seq, 2, stamp(seq), content)
    content = parse_document(f"<limit>{value}</limit>").document_element
    return Filler(10 + which, 3, stamp(seq), content)


class _Arm:
    """One engine and its standing members; ``scheduler`` is ``None`` for the reference."""

    def __init__(self, members, **knobs):
        self.engine = XCQLEngine()
        self.engine.register_stream("s", TagStructure.from_xml(STRUCTURE_XML))
        self.engine.feed("s", [Filler(0, 1, stamp(0), parse_document("<log/>").document_element)])
        self.reference = knobs.pop("reference", False)
        self.scheduler = None if self.reference else QueryScheduler(self.engine, **knobs)
        self.queries: list = []
        for member in members:
            self.join(member)

    def join(self, member) -> None:
        spec, emit, seen_cap = member
        query = ContinuousQuery(
            self.engine, source_of(spec), strategy=Strategy.QAC_PLUS, emit=emit,
            seen_cap=seen_cap, incremental=not self.reference,
        )
        self.queries.append(query)
        if self.scheduler is not None:
            self.scheduler.add(query)

    def remove(self, at: int) -> None:
        query = self.queries.pop(at)
        if self.scheduler is not None:
            assert self.scheduler.remove(query)

    def tick(self) -> list:
        if self.scheduler is None:
            out = {query: query.evaluate(NOW) for query in self.queries}
        else:
            out = self.scheduler.poll(NOW)
            assert list(out) == [
                entry.query
                for group in self.scheduler._groups_in_order()
                for entry in group.members
            ]
        return [[item_identity(item) for item in out[query]] for query in self.queries]

    def counters(self) -> list:
        return [
            (
                query.evaluations, query.shared_runs, query.full_runs, query.delta_runs,
                query.skips, query.watermark_seq, query.last_mode,
                query.last_emitted_identities,
            )
            for query in self.queries
        ]


class TestSettleEqualsPerMemberRuns:
    @given(st.lists(_MEMBER, min_size=1, max_size=6), st.lists(_TICK, min_size=1, max_size=5))
    @settings(deadline=None)
    def test_emissions_and_counters_agree(self, members, script):
        arms = [
            _Arm(members),
            _Arm(members, share_groups=False, routing=False),
            _Arm(members, reference=True),
        ]
        for arm in arms:
            arm.tick()
        seq = 0
        for steps, raw, arrivals in script:
            batch = []
            for kind, which, value in arrivals:
                seq += 1
                batch.append(arrival(seq, kind, which, value))
            ticks = []
            ran = {query: query.evaluations for query in arms[0].queries}
            for arm in arms:
                store = arm.engine.stores["s"]
                for step, arg in steps:
                    if step == "join":
                        arm.join(arg)
                    elif step == "remove" and arm.queries:
                        arm.remove(arg % len(arm.queries))
                    elif step == "prune":
                        store.prune_before(stamp(arg))
                    elif step == "swap":
                        store.set_tag_structure(TagStructure.from_xml(STRUCTURE_XML))
                if raw:
                    arm.engine.feed_raw("s", [filler.to_xml() for filler in batch])
                else:
                    arm.engine.feed("s", [
                        Filler(f.filler_id, f.tsid, f.valid_time, f.content.copy())
                        for f in batch
                    ])
                ticks.append(arm.tick())
            settled, solo, fresh = ticks
            assert settled == solo
            assert arms[0].counters() == arms[1].counters()
            for query, reference, got, want in zip(
                arms[0].queries, arms[2].queries, settled, fresh
            ):
                # Arrival order vs document order may permute the items.
                if query.emit == "delta" and query.seen_cap is None:
                    assert sorted(got) == sorted(want), query.source
                if query.evaluations > ran.get(query, 0):  # it ran this tick
                    assert sorted(map(item_identity, query.last_result)) == sorted(
                        map(item_identity, reference.last_result)
                    ), query.source
        for arm in arms[:2]:
            stats = arm.scheduler.stats()
            assert (
                stats["full_runs"] + stats["delta_runs"] + stats["shared_runs"]
                == stats["evaluations"]
            )
