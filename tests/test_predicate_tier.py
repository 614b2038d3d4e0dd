"""One place to decide a predicate: what the deleted wake-routing tier checked.

A routing predicate is decided on wire text at the network door and on
binding tuples in the group, nowhere in between — arrivals wake by
``(stream, tsid)`` dependency alone.  Two properties stand in for the
tests that tier had:

- an idle member costs nothing of its residual: a 256-member group over
  a one-tuple tick builds one context and runs at most as many guards
  and bodies as there are accepting members (counters, no timing);
- emissions per query per tick are byte-identical with the tuple index
  on and off, and equal a fresh full evaluation, over ``feed`` /
  ``feed_raw`` mixes, batch sizes 1–64, temporal re-versions and
  ``prune_before`` (the CI workflow runs this one under the ``ci``
  hypothesis profile).
"""

from __future__ import annotations

from datetime import datetime, timedelta

from hypothesis import given, settings, strategies as st

from repro.core.engine import XCQLEngine
from repro.core.translator import Strategy
from repro.dom.parser import parse_document
from repro.fragments.model import Filler
from repro.fragments.tagstructure import TagStructure
from repro.streams.continuous import ContinuousQuery, item_identity
from repro.streams.scheduler import QueryScheduler
from repro.temporal.chrono import XSDateTime

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
NOW = XSDateTime(2004, 1, 1)


def stamp(minutes: int) -> XSDateTime:
    return XSDateTime.parse(
        (_BASE + timedelta(minutes=minutes)).strftime("%Y-%m-%dT%H:%M:%S")
    )


def txn(filler_id: int, seq: int, amount: str) -> Filler:
    body = f"<amount>{amount}</amount>" if amount else ""
    content = parse_document(f'<txn seq="{seq}">{body}</txn>').document_element
    return Filler(filler_id, 2, stamp(seq), content)


def limit(filler_id: int, seq: int, value: str) -> Filler:
    content = parse_document(f"<limit>{value}</limit>").document_element
    return Filler(filler_id, 3, stamp(seq), content)


def make_engine() -> XCQLEngine:
    engine = XCQLEngine()
    engine.register_stream("s", TagStructure.from_xml(STRUCTURE_XML))
    return engine


def over(threshold) -> str:
    return (
        f'for $t in stream("s")//txn where $t/amount > {threshold} '
        "return <hit>{$t/amount/text()}</hit>"
    )


class TestIdleMembersCostNothing:
    MEMBERS = 256

    def _group(self, monkeypatch):
        engine = make_engine()
        scheduler = QueryScheduler(engine)
        queries = [
            ContinuousQuery(engine, over(k), strategy=Strategy.QAC_PLUS)
            for k in range(self.MEMBERS)
        ]
        for query in queries:
            scheduler.add(query)
        scheduler.poll(NOW)
        contexts = []
        build = engine.build_context
        monkeypatch.setattr(
            engine, "build_context",
            lambda *args, **kwargs: contexts.append(1) or build(*args, **kwargs),
        )
        return engine, scheduler, queries, contexts

    def test_one_tuple_tick_builds_one_context(self, monkeypatch):
        engine, scheduler, queries, contexts = self._group(monkeypatch)
        engine.feed_raw("s", [txn(100, 1, "100.5").to_xml()])
        emitted = scheduler.poll(NOW)
        accepting = [query for query in queries if emitted[query]]
        assert len(accepting) == 101  # thresholds 0 .. 100
        stats = scheduler.stats()
        residual = stats["shared_residual"]
        assert len(contexts) == 1  # the one body run; captures bound the tuple
        assert residual["body_runs"] + residual["guards_run"] <= len(accepting)
        assert residual == {
            "guards_skipped": 101, "guards_run": 0, "body_runs": 1, "body_reuses": 100,
        }
        assert stats["routing"]["registered"] == self.MEMBERS
        assert stats["routing"]["tuple_probes"] == 1
        assert stats["routing"]["tuples_pruned"] == self.MEMBERS - 101
        # Every member ran — over its own sub-list — and stands at the head.
        assert stats["skips"] == 0
        head = engine.stores["s"].watermark
        assert all(query.watermark == head for query in queries)

    def test_a_tick_nobody_accepts_builds_nothing(self, monkeypatch):
        engine, scheduler, queries, contexts = self._group(monkeypatch)
        engine.feed_raw("s", [txn(100, 1, "-3").to_xml()])
        emitted = scheduler.poll(NOW)
        assert not any(emitted.values())
        assert contexts == []
        residual = scheduler.stats()["shared_residual"]
        assert residual["body_runs"] + residual["guards_run"] == 0
        assert scheduler.stats()["routing"]["tuples_pruned"] == self.MEMBERS

    def test_a_dom_scan_adds_its_one_context(self, monkeypatch):
        engine, scheduler, queries, contexts = self._group(monkeypatch)
        engine.feed("s", [txn(100, 1, "100.5")])
        emitted = scheduler.poll(NOW)
        assert sum(1 for items in emitted.values() if items) == 101
        assert len(contexts) == 1  # member 0 scanned the prefix and ran the body


# -- the property ------------------------------------------------------------------------

SOURCES = [
    over(10),
    over(40),
    over(70.5),
    'for $t in stream("s")//txn where $t/amount/text() = "75" '
    "return <eq>{$t/amount/text()}</eq>",
    'for $t in stream("s")//txn where count($t/amount) > 0 '
    "return <seen>{$t/@seq}</seen>",
    'for $l in stream("s")//limit where $l > 50 return $l',
    'for $l in stream("s")//limit where $l <= 50 return <low>{$l/text()}</low>',
    # Not delta-safe — every wake is a full run — yet each item stands on its
    # own: a prune wakes nobody, so an aggregate would lag the reference.
    'for $t in stream("s")//txn order by $t/@seq return <o>{$t/@seq}</o>',
]

_AMOUNTS = st.sampled_from(["0", "9", "10", "11", "40", "41", "70.5", "71", "75", "130", ""])
_ARRIVALS = st.one_of(
    st.tuples(st.just("txn"), st.booleans(), _AMOUNTS),  # (kind, shared hole?, amount)
    st.tuples(st.just("limit"), st.integers(0, 3), st.sampled_from(["5", "50", "51", "90"])),
)
_TICKS = st.lists(
    st.tuples(
        st.booleans(),  # feed_raw?
        st.one_of(st.none(), st.integers(0, 60)),  # prune_before(stamp(n)) first
        st.lists(_ARRIVALS, min_size=1, max_size=64),
    ),
    min_size=1,
    max_size=5,
)


class _Arm:
    def __init__(self, **knobs):
        self.engine = make_engine()
        self.scheduler = QueryScheduler(self.engine, **knobs)
        self.queries = [
            ContinuousQuery(self.engine, source, strategy=Strategy.QAC_PLUS)
            for source in SOURCES
        ]
        for query in self.queries:
            self.scheduler.add(query)

    def tick(self) -> list[list[str]]:
        out = self.scheduler.poll(NOW)
        return [[item_identity(item) for item in out[query]] for query in self.queries]


class _Fresh:
    """The reference: a full evaluation per query per tick, delta-emitted."""

    def __init__(self):
        self.engine = make_engine()
        self.queries = [
            ContinuousQuery(self.engine, source, strategy=Strategy.QAC_PLUS,
                            incremental=False)
            for source in SOURCES
        ]

    def tick(self) -> list[list[str]]:
        return [
            [item_identity(item) for item in query.evaluate(NOW)]
            for query in self.queries
        ]


class TestEmissionsDoNotDependOnTheIndex:
    @given(_TICKS)
    @settings(deadline=None)
    def test_routing_on_off_and_fresh_execute_agree(self, script):
        arms = [_Arm(), _Arm(routing=False), _Fresh()]
        for arm in arms:
            arm.engine.feed("s", [Filler(
                0, 1, stamp(0), parse_document("<log/>").document_element
            )])
            arm.tick()
        seq = 0
        for raw, prune, arrivals in script:
            batch = []
            for kind, which, value in arrivals:
                seq += 1
                if kind == "txn":
                    # Events may share a hole (id 7); everything else is fresh.
                    batch.append(txn(7 if which else 100 + seq, seq, value))
                else:
                    # Four limit fragments, re-versioned over and over.
                    batch.append(limit(10 + which, seq, value))
            ticks = []
            for arm in arms:
                if prune is not None:
                    arm.engine.stores["s"].prune_before(stamp(prune))
                if raw:
                    arm.engine.feed_raw("s", [filler.to_xml() for filler in batch])
                else:
                    arm.engine.feed("s", [
                        Filler(f.filler_id, f.tsid, f.valid_time, f.content.copy())
                        for f in batch
                    ])
                ticks.append(arm.tick())
            indexed, unindexed, fresh = ticks
            assert indexed == unindexed
            # Arrival order vs document order may permute a tick's items.
            assert [sorted(items) for items in indexed] == [
                sorted(items) for items in fresh
            ]
        for arm in arms[:2]:
            stats = arm.scheduler.stats()
            assert (
                stats["full_runs"] + stats["delta_runs"] + stats["shared_runs"]
                == stats["evaluations"]
            )
