"""The store's cached wrapper is its live view of a filler id.

A write that lands after an id's last version keeps the cached
``<filler>`` wrapper; the next read parses only the new versions, closes
the previous last version's ``vtTo`` and appends them.  Every other
write is a history rewrite and drops the wrapper.  The reference is a
``use_cache=False`` store fed the same writes: it builds every answer
from the fillers on every call, so whatever the cached store extended in
place must serialise the same, and the index windows over the live
wrapper must project to what a scan of the reference projects.

Document order ranks cached wrappers by their id's first arrival, so a
whole-sequence version window agrees across strategies however the
wrappers came to be built.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro import FragmentStore, Strategy, TagStructure, XCQLEngine
from repro.dom import serialize
from repro.dom.nodes import Element
from repro.dom.parser import TreeBuilder
from repro.fragments.model import Filler
from repro.temporal import XSDateTime
from repro.xmark.schema import AUCTION_STREAM
from repro.xquery.temporal_functions import interval_project_nodes
from tests.test_temporal_index import AUCTION_STRUCTURE, auction_payloads, stamp_after

_STRUCTURE_XML = """
<stream:structure>
  <tag type="snapshot" id="1" name="log">
    <tag type="{2}" id="2" name="unit"/>
    <tag type="{3}" id="3" name="tick"/>
    <tag type="snapshot" id="4" name="note"/>
  </tag>
</stream:structure>
"""
#: The schema the stores start under, and a swap that re-types tsids 2 and 3.
PLAIN = TagStructure.from_xml(_STRUCTURE_XML.replace("{2}", "temporal").replace("{3}", "event"))
SWAPPED = TagStructure.from_xml(_STRUCTURE_XML.replace("{2}", "event").replace("{3}", "temporal"))
TAGS = {2: "unit", 3: "tick", 4: "note", 9: "stray"}  # tsid 9 is unknown: temporal
#: Each id's usual tsid; a write may stray onto another (a mixed-tsid bucket).
HOME_TSID = {0: 2, 1: 2, 2: 3, 3: 4, 4: 9}
NOW = XSDateTime(2003, 2, 1)
WINDOWS = [
    (XSDateTime(2003, 1, 1), XSDateTime(2003, 1, 1)),
    (XSDateTime(2003, 1, 2), XSDateTime(2003, 1, 3)),
    (XSDateTime(2003, 1, 3), NOW),
    (XSDateTime(2003, 1, 1), NOW),
    (XSDateTime(2002, 1, 1), XSDateTime(2002, 6, 1)),
]
_SCAN = SimpleNamespace(now=NOW, hole_resolver=None)


def _filler(filler_id: int, stray, day: int, serial: int) -> Filler:
    tsid = HOME_TSID[filler_id] if stray is None else stray
    content = Element(TAGS[tsid], {"n": str(serial)}).add_text(f"v{serial}")
    return Filler(filler_id, tsid, XSDateTime(2003, 1, day), content)


# Few ids, days and payloads, so that tail writes, inserts before a held
# version, equal validTimes and exact duplicates all come up.
_FILLERS = st.builds(
    _filler,
    st.sampled_from(sorted(HOME_TSID)),
    st.sampled_from([None, None, None, None, 2, 3, 4, 9]),
    st.integers(1, 5),
    st.integers(0, 2),
)
_BURST = st.lists(_FILLERS, min_size=1, max_size=4)
_STEP = st.one_of(
    st.tuples(st.just("append"), _BURST),
    st.tuples(st.just("append"), _BURST),
    st.tuples(st.just("extend"), _BURST),
    st.tuples(st.just("feed_raw"), _BURST),
    st.tuples(st.just("feed_raw"), _BURST),
    st.tuples(st.just("prune"), st.integers(1, 5)),
    st.tuples(st.just("schema"), st.sampled_from([PLAIN, SWAPPED])),
    st.tuples(st.just("clear"), st.none()),
    st.tuples(st.just("adopt"), st.sampled_from(sorted(HOME_TSID))),
)


def _projected(nodes, begin, end) -> list[str]:
    """The interval projection by plain scan, serialised."""
    return [serialize(node) for node in interval_project_nodes(list(nodes), begin, end, _SCAN)]


class _Pair:
    """A cached store and its ``use_cache=False`` reference, fed alike."""

    def __init__(self):
        self.cached = FragmentStore(PLAIN)
        self.reference = FragmentStore(PLAIN, use_cache=False)
        self.engines = []
        for store in (self.cached, self.reference):
            engine = XCQLEngine(default_now=NOW)
            engine.register_stream("s", PLAIN, store)
            self.engines.append(engine)
        self.held: dict[int, tuple[Element, str]] = {}

    def apply(self, kind: str, arg) -> None:
        if kind == "adopt":
            Element("holder").append(self.cached.get_fillers(arg))
            return
        for store, engine in zip((self.cached, self.reference), self.engines):
            if kind == "append":
                for filler in arg:
                    store.append(filler)
            elif kind == "extend":
                store.extend(arg)
            elif kind == "feed_raw":
                engine.feed_raw("s", [filler.to_xml() for filler in arg])
            elif kind == "prune":
                store.prune_before(XSDateTime(2003, 1, arg))
            elif kind == "schema":
                store.set_tag_structure(arg)
            else:
                store.clear()

    def check(self) -> None:
        hook = self.engines[0].temporal_index
        for filler_id in HOME_TSID:
            # A wrapper the store let go of is never touched again.
            old, text = self.held.get(filler_id, (None, None))
            wrapper = self.cached.get_fillers(filler_id)
            if old is not None and old is not wrapper:
                assert serialize(old) == text
            text = serialize(wrapper)
            assert text == serialize(self.reference.get_fillers(filler_id))
            assert self.cached.versions_of(filler_id) is wrapper.children
            self.held[filler_id] = (wrapper, text)
            indexed = self.cached.endpoint_index(filler_id) is not None
            scan = self.reference.versions_of(filler_id)
            for begin, end in WINDOWS:
                want = _projected(scan, begin, end)
                b, e = begin.to_epoch_seconds(), end.to_epoch_seconds()
                window = hook.wrapper_window(wrapper, b, e)
                assert (window is not None) == indexed
                if window is not None:
                    lo, hi = window
                    assert _projected(wrapper.children[lo:hi], begin, end) == want
                found = hook.hole_window(str(filler_id), b, e)
                if found is not None:
                    versions, lo, hi = found
                    assert versions is wrapper.children
                    assert _projected(versions[lo:hi], begin, end) == want


class TestLiveWrapperMatchesTheScan:
    @given(st.lists(_STEP, min_size=1, max_size=14))
    @settings(deadline=None)
    def test_every_read_equals_an_uncached_store(self, steps):
        pair = _Pair()
        for kind, arg in steps:
            pair.apply(kind, arg)
            pair.check()


def _count_parses(monkeypatch) -> list[int]:
    """Count payload parses from wire text, and the characters they read.

    The store reads every payload kept as text through a
    ``TreeBuilder``: a whole envelope, or only the part a write
    changed.
    """
    counts = [0, 0]
    read = TreeBuilder._read

    def counting(builder, text):
        counts[0] += 1
        counts[1] += len(text)
        return read(builder, text)

    monkeypatch.setattr(TreeBuilder, "_read", counting)
    return counts


class TestReadParsesOnlyNewVersions:
    @pytest.mark.parametrize("tsid", [2, 3], ids=["temporal", "shared-event-id"])
    def test_n_tail_writes_then_one_read_parse_n_payloads(self, tsid, monkeypatch):
        def payload(day: int) -> Element:
            return Element(TAGS[tsid]).add_text(str(day))

        def envelope(day: int) -> str:
            return Filler(7, tsid, XSDateTime(2003, 1, day), payload(day)).to_xml()

        engine = XCQLEngine(default_now=NOW)
        store = engine.register_stream("s", PLAIN)
        engine.feed_raw("s", [envelope(day) for day in range(1, 11)])
        wrapper = store.get_fillers(7)
        parses = _count_parses(monkeypatch)
        writes = 6
        days = range(11, 11 + writes)
        for day in days:
            engine.feed_raw("s", envelope(day))
        assert parses[0] == 0  # ingest stays parse-free
        assert store.get_fillers(7) is wrapper
        assert parses[0] == writes
        if tsid == 2:
            # Each temporal version shares its payload's head and tail with
            # its predecessor's: only the changed middle is read.
            assert parses[1] < sum(len(serialize(payload(day))) for day in days)
        assert store.get_fillers(7) is wrapper and parses[0] == writes
        reference = FragmentStore(PLAIN, use_cache=False)
        reference.extend(store.fillers_of(7))
        assert serialize(wrapper) == serialize(reference.get_fillers(7))


class TestDocumentOrderIsFirstArrival:
    """Whole-sequence version windows agree under CaQ, QaC and QaC+."""

    QUERY = 'stream("auction")//open_auction#[last - 1, last]'

    @pytest.mark.parametrize("backend", ["compiled", "interpreted"])
    def test_wrappers_built_in_reverse_order_keep_document_order(self, backend):
        payloads = auction_payloads(0.0, 40)
        catalog = len(payloads) - 40
        engine = XCQLEngine()
        engine.register_stream(AUCTION_STREAM, AUCTION_STRUCTURE)
        engine.feed_raw(AUCTION_STREAM, payloads[: catalog + 24])
        store = engine.stores[AUCTION_STREAM]
        auctions = next(t.tsid for t in AUCTION_STRUCTURE.all_tags() if t.name == "open_auction")
        for filler_id in reversed(store.filler_ids_of_tsid(auctions)):
            store.get_fillers(filler_id)
        for bids in (24, 32, 40):
            engine.feed_raw(AUCTION_STREAM, payloads[catalog : catalog + bids])
            answers = {
                strategy: [
                    serialize(item)
                    for item in engine.execute(
                        self.QUERY, strategy, now=stamp_after(bids), backend=backend
                    )
                ]
                for strategy in Strategy
            }
            assert len(answers[Strategy.CAQ]) == 2
            assert answers[Strategy.QAC] == answers[Strategy.CAQ], bids
            assert answers[Strategy.QAC_PLUS] == answers[Strategy.CAQ], bids
