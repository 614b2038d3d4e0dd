"""Capture projection: an automaton buffers only what its group reads.

Layer by layer:

- **Analysis**: :func:`repro.xquery.automata.capture_projection` keeps
  the child names a residual reaches from its binding, or says why it
  needs the whole subtree — checked over a table of residual shapes, and
  through ``explain`` on the plans the engine compiles.
- **Host**: the members' projections are a multiset per automaton; the
  captures keep their union, whole as soon as one member needs it, and a
  window captured narrower than the group now reads is declined.
- **Differential**: a group mixing projected and whole members, members
  added and removed mid-stream, random ``feed_raw`` chunkings and
  ``prune_before`` emits per tick exactly what ``stream_automata=False``
  emits, and what a fresh full evaluation emits (the CI workflow runs
  this one under the ``ci`` hypothesis profile).
- **Census**: the benchmark's 48 + 16 standing queries buffer at most six
  events per ``closed_auction`` capture.
"""

from __future__ import annotations

import types
from datetime import datetime, timedelta

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.engine import XCQLEngine
from repro.core.translator import Strategy
from repro.dom.parser import iter_events
from repro.fragments.tagstructure import TagStructure
from repro.streams.continuous import ContinuousQuery, item_identity
from repro.streams.scheduler import QueryScheduler
from repro.temporal.chrono import XSDateTime
from repro.xquery.automata import (
    AutomatonMatcher,
    StepSpec,
    StreamAutomaton,
    capture_projection,
)
from repro.xquery.parser import parse

STRUCTURE_XML = """
<stream:structure>
  <tag type="snapshot" id="1" name="log">
    <tag type="event" id="2" name="sale">
      <tag type="snapshot" id="4" name="price"/>
      <tag type="snapshot" id="5" name="name"/>
      <tag type="snapshot" id="6" name="a">
        <tag type="snapshot" id="7" name="b"/>
      </tag>
    </tag>
  </tag>
</stream:structure>
"""

_BASE = datetime(2003, 1, 1)
NOW = XSDateTime(2004, 1, 1)


def stamp(minutes: int) -> str:
    return (_BASE + timedelta(minutes=minutes)).strftime("%Y-%m-%dT%H:%M:%S")


def envelope(filler_id: int, seq: int, payload: str) -> str:
    return f'<filler id="{filler_id}" tsid="2" validTime="{stamp(seq)}">{payload}</filler>'


def make_engine() -> XCQLEngine:
    engine = XCQLEngine()
    engine.register_stream("s", TagStructure.from_xml(STRUCTURE_XML))
    return engine


def sales(condition: str, body: str) -> str:
    return f'for $s in stream("s")//sale where {condition} return {body}'


# -- the analysis ------------------------------------------------------------------------

_CHILD = StreamAutomaton("s", 2, (StepSpec("child", "sale"),), "$d/sale")
_DESCENDANT = StreamAutomaton("s", 2, (StepSpec("descendant-or-self", "sale"),), "$d//sale")

# (residual clauses after `for $c in $b`, expected projection or reason)
ANALYSIS_TABLE = [
    ("return $c/price", ["price"]),
    ("return <r>{$c/@id}</r>", []),
    ("return $c/@*", []),
    ("return $c/a/b", ["a"]),
    ("return $c/a//b", ["a"]),
    ("where $c/price[. > $c/@k] return <r/>", ["price"]),
    ("where $c/price > 5 and $c/name = 'x' return <r>{$c/a/text()}</r>", ["a", "name", "price"]),
    ("return count($c/price)", ["price"]),
    ("return $c/price[$c/name = 'x']", ["name", "price"]),
    ("return for $p in $c/price return $p/text()", ["price"]),
    ("return <r k=\"{$c/@k}\">{$c/name/text()}</r>", ["name"]),
    ("return <r/>", []),
    ("return $c", "$c is read whole"),
    ("return ($c, $c/price)", "$c is read whole"),
    ("return $c[price]", "$c is read whole"),
    ("return string($c)", "$c is an argument of string()"),
    ("return f($c)", "$c is an argument of f()"),
    ("return $c/*", "$c/child::* reads past named children"),
    ("return $c/text()", "$c/child::text() reads past named children"),
    ("return $c/node()", "$c/child::node() reads past named children"),
    ("return $c//x", "$c/descendant-or-self::x reads past named children"),
    ("let $c := $c/price return $c", "$c is rebound"),
    ("return for $c in $c/price return $c", "$c is rebound"),
    ("where some $c in $c/price satisfies $c > 3 return <r/>", "$c is rebound"),
    ("where $c/price > 1 return $c/@id", ["price"]),
]


def _residual(rest: str):
    return types.SimpleNamespace(residual_module=parse(f"for $c in $b {rest}", xcql=True))


def _expected(outcome):
    if isinstance(outcome, list):
        return frozenset(outcome), ""
    return None, outcome


class TestAnalysis:
    @pytest.mark.parametrize("rest, outcome", ANALYSIS_TABLE)
    def test_residual_shapes(self, rest, outcome):
        assert capture_projection(_residual(rest), _CHILD) == _expected(outcome)

    def test_a_descendant_step_automaton_keeps_whole_captures(self):
        assert capture_projection(_residual("return $c/price"), _DESCENDANT) == (
            None, "automaton has a descendant step: matches may nest"
        )

    def test_the_pass_stores_it_and_explain_reports_it(self):
        engine = make_engine()
        cases = {
            sales("$s/price > 5", "<hit>{$s/price/text()}</hit>"): ["price"],
            sales("$s/price > 5", "$s"): "whole: $s is read whole",
            'for $x in stream("s")//sale/a return <b>{$x/b/text()}</b>': ["b"],
        }
        for source, outcome in cases.items():
            info = engine.compile(source, Strategy.QAC_PLUS).info
            report = engine.explain(source, Strategy.QAC_PLUS)
            assert report["automaton_projection"] == outcome, source
            if isinstance(outcome, list):
                assert info.projection == frozenset(outcome)
            else:
                assert info.projection is None
                assert outcome == f"whole: {info.projection_reason}"
        assert engine.explain('count(stream("s")//sale)', Strategy.QAC_PLUS)[
            "automaton_projection"
        ] is None


# -- the matcher and the host --------------------------------------------------------------

_PAYLOAD = (
    '<sale seq="1" k="2">lead<!--c--><price>7</price><junk><price>9</price></junk>'
    "tail<a><b>x</b><c/></a><name>ann</name></sale>"
)


def _payload_events(payload: str) -> list:
    return list(iter_events(payload, fragment=True))


class TestMatcher:
    @pytest.mark.parametrize("split", [1, 2, 5, 100])
    def test_projected_capture_keeps_root_and_named_children(self, split):
        events = _payload_events(_PAYLOAD)
        matcher = AutomatonMatcher(_CHILD, frozenset({"price", "a"}))
        for start in range(0, len(events), split):
            matcher.feed_many(events[start:start + split])
        assert matcher.root_matched and matcher.matches == [(0, 0)]
        assert matcher.buffers == [
            _payload_events(
                '<sale seq="1" k="2"><price>7</price><a><b>x</b><c/></a></sale>'
            )
        ]

    def test_whole_and_single_event_feeds_agree(self):
        events = _payload_events(_PAYLOAD)
        whole, single = AutomatonMatcher(_CHILD), AutomatonMatcher(_CHILD, frozenset())
        whole.feed_many(events)
        for event in events:
            single.feed(event)
        assert whole.buffers == [events]
        assert single.buffers == [_payload_events('<sale seq="1" k="2"></sale>')]


def _automaton_of(engine, source):
    return engine.compile(source, Strategy.QAC_PLUS).info.automaton


class TestHost:
    def test_the_group_keeps_the_union_of_its_members(self):
        engine = make_engine()
        host = engine.automaton_host
        automaton = _automaton_of(engine, sales("$s/price > 1", "$s/price"))

        def keep():
            (pair,) = host.matchers_for("s", 2)
            return pair[1].keep

        host.register(automaton, frozenset({"price"}))
        assert keep() == {"price"}
        host.register(automaton, frozenset({"name"}))
        host.register(automaton, frozenset({"price"}))
        assert keep() == {"price", "name"}
        host.register(automaton, None)
        assert keep() is None
        host.unregister(automaton, None)
        host.unregister(automaton, frozenset({"name"}))
        assert keep() == {"price"}
        host.unregister(automaton, frozenset({"price"}))
        assert keep() == {"price"}  # one registration left
        assert host.stats()["registered"] == 1
        host.unregister(automaton, frozenset({"price"}))
        assert host.matchers_for("s", 2) == [] and host.stats()["groups"] == 0

    def test_a_window_captured_narrower_than_the_group_reads_is_declined(self):
        # A member that ran on its own before joining skips the baseline run,
        # so its first window holds captures from before the group widened.
        engine = make_engine()
        scheduler = QueryScheduler(engine)
        narrow = ContinuousQuery(engine, sales("$s/price > 1", "<p>{$s/price/text()}</p>"),
                                 strategy=Strategy.QAC_PLUS)
        whole = ContinuousQuery(engine, sales("$s/price > 1", "$s"), strategy=Strategy.QAC_PLUS)
        scheduler.add(narrow)
        scheduler.poll(NOW)
        whole.evaluate(NOW)
        engine.feed_raw("s", [envelope(101, 1, _PAYLOAD)])
        scheduler.add(whole)
        emitted = scheduler.poll(NOW)
        fresh = engine.execute(whole.source, Strategy.QAC_PLUS, now=NOW)
        assert [item_identity(i) for i in emitted[whole]] == [item_identity(i) for i in fresh]
        assert "<junk>" in item_identity(emitted[whole][0])
        assert engine.automaton_host.stats()["declines"] == 1
        assert scheduler.stats()["automata"]["fallbacks"] >= 1


# -- the differential ------------------------------------------------------------------------

POOL = [
    sales("$s/price > 5", "<hit>{$s/@seq}{$s/price/text()}</hit>"),
    sales("$s/price > 20", "<hit>{$s/@seq}{$s/price/text()}</hit>"),
    sales("$s/price > 10", "<n>{$s/name/text()}</n>"),
    sales('$s/a/b = "x"', "<ab>{$s/@seq}{$s/a}</ab>"),
    sales('$s/@k = "1"', "<k>{$s/@seq}</k>"),
    sales("$s/price > 10", "$s"),
    sales("$s/price >= 0", "<t>{$s/@seq}{string($s)}</t>"),
    sales("$s/@seq > 0", "<c>{$s/@seq}{count($s/*)}</c>"),
    'for $x in stream("s")//sale/a return <b>{$x/b/text()}</b>',
    'for $x in stream("s")//sale/a where $x/b = "y" return $x',
]

_PIECES = st.sampled_from([
    "<price>3</price>", "<price>25</price>", "<price>12</price>", "<name>ann</name>",
    "<name>bob</name>", "<a><b>x</b></a>", "<a><b>y</b><c/></a>",
    "<junk><price>99</price></junk>", "<b>x</b>", "text", "<!--note-->",
])
_SALES = st.tuples(
    st.booleans(),  # shares event id 7?
    st.sampled_from(["", ' k="1"', ' k="2"']),
    st.lists(_PIECES, max_size=5),
)
_TICKS = st.lists(
    st.tuples(
        st.one_of(st.none(), st.integers(0, len(POOL) - 1)),  # toggle a member first
        st.one_of(st.none(), st.integers(0, 40)),  # prune_before(stamp(n)) first
        st.one_of(st.none(), st.integers(1, 80)),  # feed_raw chunk size
        st.lists(_SALES, min_size=1, max_size=12),
    ),
    min_size=1,
    max_size=5,
)


class _Arm:
    def __init__(self, members, scheduled: bool, **knobs):
        self.engine = make_engine()
        self.scheduler = QueryScheduler(self.engine, **knobs) if scheduled else None
        self.queries: dict[int, ContinuousQuery] = {}
        for index in members:
            self.toggle(index)

    def toggle(self, index: int) -> None:
        query = self.queries.pop(index, None)
        if query is not None:
            if self.scheduler is not None:
                assert self.scheduler.remove(query)
            return
        query = ContinuousQuery(
            self.engine, POOL[index], strategy=Strategy.QAC_PLUS,
            incremental=self.scheduler is not None,
        )
        self.queries[index] = query
        if self.scheduler is not None:
            self.scheduler.add(query)

    def tick(self) -> dict[int, list[str]]:
        if self.scheduler is not None:
            out = self.scheduler.poll(NOW)
        else:
            out = {query: query.evaluate(NOW) for query in self.queries.values()}
        return {
            index: [item_identity(item) for item in out[query]]
            for index, query in sorted(self.queries.items())
        }


class TestEmissionsDoNotDependOnProjection:
    @given(st.sets(st.integers(0, len(POOL) - 1), min_size=1), _TICKS)
    @settings(deadline=None)
    def test_projected_unprojected_and_fresh_execute_agree(self, members, script):
        arms = [
            _Arm(sorted(members), scheduled=True),
            _Arm(sorted(members), scheduled=True, stream_automata=False),
            _Arm(sorted(members), scheduled=False),
        ]
        for arm in arms:
            arm.tick()
        seq = 0
        for toggle, prune, chunk, batch in script:
            payloads = []
            for shared, attrs, pieces in batch:
                seq += 1
                body = f'<sale seq="{seq}"{attrs}>{"".join(pieces)}</sale>'
                payloads.append(envelope(7 if shared else 100 + seq, seq, body))
            ticks = []
            for arm in arms:
                if toggle is not None:
                    arm.toggle(toggle)
                if prune is not None:
                    arm.engine.stores["s"].prune_before(XSDateTime.parse(stamp(prune)))
                if chunk is None:
                    arm.engine.feed_raw("s", payloads)
                else:
                    arm.engine.feed_raw("s", payloads, chunk_size=chunk)
                ticks.append(arm.tick())
            projected, unprojected, fresh = ticks
            assert projected == unprojected
            # Arrival order vs document order may permute a tick's items.
            assert {i: sorted(items) for i, items in projected.items()} == {
                i: sorted(items) for i, items in fresh.items()
            }
        stats = arms[0].scheduler.stats()
        assert stats["automata"]["fallbacks"] == 0


# -- the census on the benchmark's queries ---------------------------------------------------


class TestBenchmarkCensus:
    def _run(self, sources, load, envelopes):
        engine = XCQLEngine()
        engine.register_stream(self.loadgen.AUCTION_STREAM, load.structure)
        engine.feed_raw(self.loadgen.AUCTION_STREAM, load.catalog)
        scheduler = QueryScheduler(engine)
        queries = [ContinuousQuery(engine, s, strategy=Strategy.QAC_PLUS) for s in sources]
        for query in queries:
            scheduler.add(query)
        scheduler.poll(NOW)
        emitted = []
        for start in range(0, len(envelopes), 8):
            engine.feed_raw(self.loadgen.AUCTION_STREAM, envelopes[start:start + 8])
            out = scheduler.poll(NOW)
            emitted.append([[item_identity(i) for i in out[q]] for q in queries])
        assert scheduler.stats()["automata"]["fallbacks"] == 0
        return engine.automaton_host.stats(), emitted

    def test_closed_auction_captures_hold_at_most_six_events(self):
        netbench = pytest.importorskip("benchmarks.e2e.netbench")
        self.loadgen = pytest.importorskip("benchmarks.e2e.loadgen")
        load = self.loadgen.AuctionLoad(seed=7)
        envelopes = load.events(256)
        everything = netbench.event_queries()
        assert len(everything) == 64
        price_only = [s for s in everything if "closed_auction/price" in s]
        assert len(price_only) == 16
        both, _ = self._run(everything, load, envelopes)
        price, _ = self._run(price_only, load, envelopes)
        closed_captures = both["captures"] - price["captures"]
        closed_events = both["captured_events"] - price["captured_events"]
        assert closed_captures == len(envelopes)
        assert closed_events <= 6 * closed_captures

    def test_emissions_match_whole_captures(self):
        netbench = pytest.importorskip("benchmarks.e2e.netbench")
        self.loadgen = pytest.importorskip("benchmarks.e2e.loadgen")
        load = self.loadgen.AuctionLoad(seed=7)
        envelopes = load.events(64)
        sources = netbench.event_queries()
        # One whole member widens the closed_auction captures for its group.
        widened = sources + [
            'for $c in stream("auction")//closed_auction where $c/price > 5000 return $c'
        ]
        _, projected = self._run(sources, load, envelopes)
        _, whole = self._run(widened, load, envelopes)
        assert projected == [tick[:-1] for tick in whole]

