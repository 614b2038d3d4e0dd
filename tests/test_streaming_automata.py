"""Differential tests for the streaming event-automaton hot path (PR 6).

The standing-query fast path (``XCQLEngine.feed_raw`` + the scheduler's
automaton-served tuple source) must be *observationally identical* to the
paths it bypasses: the DOM delta driver and the interpreted full
evaluation.  These tests replay the paper's credit corpus and randomized
churn through all three and require byte-identical answers per tick,
plus exact error parity between ``feed_raw``'s envelope scan and
``parse_filler``.
"""

from __future__ import annotations

import random

import pytest

from repro import Fragmenter, Strategy, TagStructure, XCQLEngine
from repro.dom import parse_document
from repro.dom.serializer import serialize
from repro.fragments.model import Filler, LazyFiller, parse_filler
from repro.streams.continuous import ContinuousQuery
from repro.streams.scheduler import QueryScheduler
from repro.temporal import XSDateTime

from tests.conftest import CREDIT_VIEW_XML, NOW_2003_12_15

# Standing queries over the paper's credit stream: an event target, a
# temporal target returning the bound node itself (so the automaton's
# vtFrom/vtTo annotations must match the store's byte for byte), and a
# predicate that never matches.
CREDIT_QUERIES = [
    'for $t in stream("credit")//transaction '
    "where $t/amount > 50 return <hit>{$t/vendor/text()}</hit>",
    'for $c in stream("credit")//creditLimit where $c > 900 return $c',
    'for $t in stream("credit")//transaction '
    "where $t/amount > 99999 return <never>{$t/@id}</never>",
]


def _arm(structure, sources, *, automata, now):
    engine = XCQLEngine(default_now=now)
    engine.register_stream("credit", structure)
    scheduler = QueryScheduler(engine, stream_automata=automata)
    queries = []
    for source in sources:
        query = ContinuousQuery(engine, source, strategy=Strategy.QAC_PLUS)
        scheduler.add(query)
        queries.append(query)
    return engine, scheduler, queries


def _snapshots(queries):
    return [sorted(serialize(item) for item in q.last_result) for q in queries]


class TestCreditCorpusDifferential:
    """Raw/automaton vs DOM/delta vs interpreted over the §3.1 corpus."""

    def test_byte_identity_per_tick(self, credit_structure, credit_fillers):
        raw_engine, raw_sched, raw_queries = _arm(
            credit_structure, CREDIT_QUERIES, automata=True, now=NOW_2003_12_15
        )
        dom_engine, dom_sched, dom_queries = _arm(
            credit_structure, CREDIT_QUERIES, automata=False, now=NOW_2003_12_15
        )
        raw_sched.poll(NOW_2003_12_15)
        dom_sched.poll(NOW_2003_12_15)
        batch = 3
        for start in range(0, len(credit_fillers), batch):
            window = credit_fillers[start:start + batch]
            raw_engine.feed_raw("credit", [f.to_xml() for f in window])
            dom_engine.feed(
                "credit",
                [Filler(f.filler_id, f.tsid, f.valid_time, f.content.copy())
                 for f in window],
            )
            raw_sched.poll(NOW_2003_12_15)
            dom_sched.poll(NOW_2003_12_15)
            assert _snapshots(raw_queries) == _snapshots(dom_queries)
        # ...and against the interpreted one-shot evaluation at the end.
        for query, source in zip(raw_queries, CREDIT_QUERIES):
            compiled = dom_engine.compile(
                source, Strategy.QAC_PLUS, backend="interpreted"
            )
            interpreted = dom_engine.execute(compiled, now=NOW_2003_12_15)
            assert sorted(serialize(i) for i in query.last_result) == sorted(
                serialize(i) for i in interpreted
            ), source
        assert raw_sched.stats()["automata"]["runs"] > 0

    def test_hot_path_never_materializes(self, credit_structure, credit_fillers):
        engine, scheduler, _ = _arm(
            credit_structure, CREDIT_QUERIES, automata=True, now=NOW_2003_12_15
        )
        scheduler.poll(NOW_2003_12_15)
        engine.feed_raw("credit", [f.to_xml() for f in credit_fillers])
        scheduler.poll(NOW_2003_12_15)
        fillers = engine.stores["credit"].fillers_since(0)
        assert fillers and all(isinstance(f, LazyFiller) for f in fillers)
        assert not any(f.materialized for f in fillers)
        # A cold full evaluation still works: content parses on demand.
        result = engine.execute(
            'count(stream("credit")//transaction)', now=NOW_2003_12_15
        )
        assert result == [3]
        # ...into trees the store owns: the fillers themselves stay text.
        assert not any(f.materialized for f in fillers)
        store = engine.stores["credit"]
        for filler_id in store.filler_ids_of_tsid(5):
            assert [v.tag for v in store.versions_of(filler_id)] == ["transaction"]

    def test_mixed_feed_declines_to_fallback(self, credit_structure,
                                             credit_fillers):
        """A DOM-fed filler inside the window forces the delta fallback —
        and the answer still matches the control arm byte for byte."""
        raw_engine, raw_sched, raw_queries = _arm(
            credit_structure, CREDIT_QUERIES, automata=True, now=NOW_2003_12_15
        )
        dom_engine, dom_sched, dom_queries = _arm(
            credit_structure, CREDIT_QUERIES, automata=False, now=NOW_2003_12_15
        )
        raw_sched.poll(NOW_2003_12_15)
        dom_sched.poll(NOW_2003_12_15)
        half = len(credit_fillers) // 2
        raw_engine.feed_raw("credit", [f.to_xml() for f in credit_fillers[:half]])
        # The second half arrives pre-parsed: no automaton capture exists.
        raw_engine.feed(
            "credit",
            [Filler(f.filler_id, f.tsid, f.valid_time, f.content.copy())
             for f in credit_fillers[half:]],
        )
        dom_engine.feed(
            "credit",
            [Filler(f.filler_id, f.tsid, f.valid_time, f.content.copy())
             for f in credit_fillers],
        )
        raw_sched.poll(NOW_2003_12_15)
        dom_sched.poll(NOW_2003_12_15)
        assert _snapshots(raw_queries) == _snapshots(dom_queries)
        assert raw_sched.stats()["automata"]["fallbacks"] > 0

    def test_remove_unregisters_automaton(self, credit_structure):
        engine, scheduler, queries = _arm(
            credit_structure, CREDIT_QUERIES[:1], automata=True,
            now=NOW_2003_12_15,
        )
        assert engine.automaton_host.stats()["registered"] == 1
        scheduler.remove(queries[0])
        assert engine.automaton_host.stats()["registered"] == 0


# ---------------------------------------------------------------------------
# Randomized churn: supersedes, out-of-order valid times, repeated ids
# ---------------------------------------------------------------------------

_CHURN_STRUCTURE = TagStructure.from_xml(
    """
    <stream:structure>
      <tag type="snapshot" id="1" name="ledger">
        <tag type="event" id="2" name="txn">
          <tag type="snapshot" id="3" name="amount"/>
        </tag>
        <tag type="temporal" id="4" name="limit"/>
        <tag type="snapshot" id="5" name="note"/>
      </tag>
    </stream:structure>
    """
)

CHURN_QUERIES = [
    'for $t in stream("ledger")//txn where $t/amount > 40 '
    "return <hit>{$t/amount/text()}</hit>",
    'for $l in stream("ledger")//limit where $l > 10 return $l',
    'for $n in stream("ledger")//note return $n',
]


def _churn_envelope(rng, tick, serial):
    """One random raw envelope: event txn, temporal limit, or snapshot note.

    Repeated filler ids (limit/note supersedes) and shuffled hours
    (out-of-order valid times) are generated on purpose.
    """
    hour = rng.randrange(0, 24)
    stamp = f"2003-06-{(tick % 27) + 1:02d}T{hour:02d}:00:00"
    kind = rng.randrange(3)
    if kind == 0:
        amount = rng.randrange(0, 100)
        return (
            f'<filler id="{1000 + serial}" tsid="2" validTime="{stamp}">'
            f'<txn seq="{serial}"><amount>{amount}</amount></txn></filler>'
        )
    if kind == 1:
        return (
            f'<filler id="{rng.randrange(1, 4)}" tsid="4" validTime="{stamp}">'
            f"<limit>{rng.randrange(0, 50)}</limit></filler>"
        )
    return (
        f'<filler id="{rng.randrange(10, 13)}" tsid="5" validTime="{stamp}">'
        f'<note k="{rng.randrange(5)}">n{serial}</note></filler>'
    )


class TestRandomizedChurn:
    @pytest.mark.parametrize("seed", [7, 23, 101])
    def test_three_way_byte_identity(self, seed):
        rng = random.Random(seed)
        now = XSDateTime.parse("2003-12-31T00:00:00")
        raw_engine, raw_sched, raw_queries = _arm(
            _CHURN_STRUCTURE, [], automata=True, now=now
        )
        dom_engine, dom_sched, dom_queries = _arm(
            _CHURN_STRUCTURE, [], automata=False, now=now
        )
        # _arm registered the stream as "credit"; churn uses "ledger".
        raw_engine.register_stream("ledger", _CHURN_STRUCTURE)
        dom_engine.register_stream("ledger", _CHURN_STRUCTURE)
        for source in CHURN_QUERIES:
            for engine, sched, queries in (
                (raw_engine, raw_sched, raw_queries),
                (dom_engine, dom_sched, dom_queries),
            ):
                query = ContinuousQuery(engine, source, strategy=Strategy.QAC_PLUS)
                sched.add(query)
                queries.append(query)
        raw_sched.poll(now)
        dom_sched.poll(now)
        serial = 0
        for tick in range(12):
            batch = []
            for _ in range(rng.randrange(1, 5)):
                batch.append(_churn_envelope(rng, tick, serial))
                serial += 1
            raw_engine.feed_raw("ledger", batch)
            dom_engine.feed("ledger", [parse_filler(raw) for raw in batch])
            raw_sched.poll(now)
            dom_sched.poll(now)
            assert _snapshots(raw_queries) == _snapshots(dom_queries), (
                seed, tick,
            )
        for query, source in zip(raw_queries, CHURN_QUERIES):
            compiled = dom_engine.compile(
                source, Strategy.QAC_PLUS, backend="interpreted"
            )
            interpreted = dom_engine.execute(compiled, now=now)
            assert sorted(serialize(i) for i in query.last_result) == sorted(
                serialize(i) for i in interpreted
            ), (seed, source)


# ---------------------------------------------------------------------------
# feed_raw error parity with parse_filler
# ---------------------------------------------------------------------------

BAD_ENVELOPES = [
    "<filler id='1' tsid='2'",  # truncated markup
    "<notfiller/>",  # wrong root tag
    '<filler id="1" tsid="2" validTime="2003-01-01T00:00:00"/>',  # no payload
    '<filler id="1" tsid="2" validTime="2003-01-01T00:00:00">'
    "<a/><b/></filler>",  # two payloads
    '<filler tsid="2" validTime="2003-01-01T00:00:00"><a/></filler>',  # no id
    '<filler id="1" validTime="2003-01-01T00:00:00"><a/></filler>',  # no tsid
    '<filler id="x" tsid="2" validTime="2003-01-01T00:00:00"><a/></filler>',
    '<filler id="1" tsid="2" validTime="nope"><a/></filler>',
    "<a/><a/>",  # two top-level elements, neither a filler
    "just text",
]


class TestFeedRawErrorParity:
    @pytest.mark.parametrize("raw", BAD_ENVELOPES)
    def test_same_error_as_parse_filler(self, raw, credit_structure):
        engine = XCQLEngine()
        engine.register_stream("credit", credit_structure)
        with pytest.raises(Exception) as reference:
            parse_filler(raw)
        with pytest.raises(Exception) as streaming:
            engine.feed_raw("credit", [raw])
        assert type(streaming.value) is type(reference.value)
        assert str(streaming.value) == str(reference.value)

    def test_raw_round_trip_equals_parse_filler(self, credit_structure,
                                                credit_fillers):
        engine = XCQLEngine()
        engine.register_stream("credit", credit_structure)
        engine.feed_raw("credit", [f.to_xml() for f in credit_fillers])
        stored = engine.stores["credit"].fillers_since(0)
        assert len(stored) == len(credit_fillers)
        for lazy, eager in zip(stored, credit_fillers):
            assert lazy.filler_id == eager.filler_id
            assert lazy.tsid == eager.tsid
            assert str(lazy.valid_time) == str(eager.valid_time)
            assert serialize(lazy.content) == serialize(eager.content)
