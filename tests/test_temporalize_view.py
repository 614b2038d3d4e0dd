"""CaQ's temporal view stands on the store's versions.

``temporalize`` over a cached store copies only the spine that carries
holes; every stored version with nothing but elements and text below it,
none a hole, enters the view as a copy-on-touch ``DeferredElement``.
These tests hold that view to three references — an uncached store's
view (a full copy, built from the fillers on every call), the paper's
interpreted ``ref_temporalize`` and, for the XMark queries, QaC+ — and
check that it costs what it reads: Q5 under CaQ builds nodes in
proportion to the stored versions, not to the view.  The paper-faithful
(uncached) store still materializes the whole view.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

import repro.core.engine as engine_module
from repro import FragmentStore, Strategy, TagStructure, XCQLEngine
from repro.bench.figure4 import Figure4Workload
from repro.core.reference import attach_reference_functions
from repro.dom import serialize
from repro.dom.nodes import (
    Comment,
    DeferredElement,
    Document,
    Element,
    Node,
    ProcessingInstruction,
    Text,
)
from repro.fragments import Filler, schema_driven_temporalize, temporalize
from repro.temporal import XSDateTime
from repro.xmark.queries import Q1, Q2, Q5, Q8

_STRUCTURE_XML = """
<stream:structure>
  <tag type="snapshot" id="1" name="log">
    <tag type="{2}" id="2" name="unit">
      <tag type="temporal" id="5" name="part"/>
    </tag>
    <tag type="{3}" id="3" name="tick"/>
    <tag type="snapshot" id="4" name="note"/>
  </tag>
</stream:structure>
"""
PLAIN = TagStructure.from_xml(_STRUCTURE_XML.replace("{2}", "temporal").replace("{3}", "event"))
SWAPPED = TagStructure.from_xml(_STRUCTURE_XML.replace("{2}", "event").replace("{3}", "temporal"))
#: filler id -> (tsid, tag); id 0 is the root, id 4 hangs below id 1's holes.
FRAGMENTS = {1: (2, "unit"), 2: (3, "tick"), 3: (4, "note"), 4: (5, "part")}
ROOT_HOLES = ((1, 2), (2, 3), (3, 4))
NOW = XSDateTime(2003, 2, 1)


def _day(day: int) -> XSDateTime:
    return XSDateTime(2003, 1, day)


def _payload(tag: str, kind: str, serial: int) -> Element:
    """One version's payload; only ``plain`` and ``empty`` may be stood on."""
    element = Element(tag, {"n": str(serial)})
    if kind == "empty":
        return element
    element.append(Text(f"v{serial}"))
    if kind == "plain":
        element.append(Element("b")).append(Text("w"))
    elif kind == "comment":
        element.append(Comment(f"c{serial}"))
    elif kind == "pi":
        element.insert(0, ProcessingInstruction("p", str(serial)))
    elif kind == "timed":
        at = element.append(Element("at", {"vtFrom": str(_day(serial + 1))}))
        at.append(Text("t"))
    elif kind == "hole" and tag == "unit":
        element.append(Element("hole", {"id": "4", "tsid": "5"}))
    return element


def _fragment(filler_id: int, day: int, kind: str, serial: int) -> Filler:
    tsid, tag = FRAGMENTS[filler_id]
    return Filler(filler_id, tsid, _day(day), _payload(tag, kind, serial))


def _root(day: int, holes: list[int], comment: bool) -> Filler:
    """A (re-)published root snapshot over a subset of its holes."""
    log = Element("log")
    if comment:
        log.append(Comment("root"))
    for filler_id, tsid in ROOT_HOLES:
        if filler_id in holes:
            log.append(Element("hole", {"id": str(filler_id), "tsid": str(tsid)}))
    return Filler(0, 1, _day(day), log)


_KINDS = st.sampled_from(("plain", "plain", "empty", "comment", "pi", "timed", "hole"))
_FRAGMENT = st.builds(
    _fragment, st.sampled_from(sorted(FRAGMENTS)), st.integers(1, 6), _KINDS, st.integers(0, 2)
)
_ROOT = st.builds(
    _root,
    st.integers(1, 6),
    st.lists(st.sampled_from([1, 2, 3]), unique=True),
    st.booleans(),
)
_STEP = st.one_of(
    st.tuples(st.just("append"), st.lists(_FRAGMENT, min_size=1, max_size=4)),
    st.tuples(st.just("append"), st.lists(_FRAGMENT, min_size=1, max_size=4)),
    st.tuples(st.just("extend"), st.lists(_FRAGMENT, min_size=1, max_size=4)),
    st.tuples(st.just("republish"), _ROOT),
    st.tuples(st.just("prune"), st.integers(1, 6)),
    st.tuples(st.just("schema"), st.sampled_from([None, PLAIN, SWAPPED])),
    st.tuples(st.just("touch"), st.integers(0, 20)),
)


def _texts(document: Document) -> list[str]:
    return [serialize(child) for child in document.children]


class _Stores:
    """A cached store and its ``use_cache=False`` reference, fed alike.

    Both start without a Tag Structure: the paper's printed
    ``get_fillers`` is type-agnostic, so ``ref_temporalize`` agrees with
    them exactly while no schema is set.
    """

    def __init__(self, root: Filler):
        self.cached = FragmentStore(None)
        self.reference = FragmentStore(None, use_cache=False)
        self.engine = XCQLEngine(default_now=NOW)
        self.engine.register_stream("s", PLAIN, self.cached)
        attach_reference_functions(self.engine, "s")
        self.held: list[tuple[Document, list[str]]] = []
        self.apply("append", [root])

    def apply(self, kind: str, arg) -> None:
        if kind == "touch":
            if self.held:
                view, _ = self.held[arg % len(self.held)]
                for node in view.iter():  # builds every copy-on-touch node
                    node.children_named("b")
            return
        for store in (self.cached, self.reference):
            if kind == "append":
                for filler in arg:
                    store.append(filler)
            elif kind == "extend":
                store.extend(arg)
            elif kind == "republish":
                store.append(arg)
            elif kind == "prune":
                store.prune_before(_day(arg))
            else:
                store.set_tag_structure(arg)

    def check(self) -> None:
        # A view taken earlier is the snapshot of its call.
        for view, texts in self.held:
            assert _texts(view) == texts
        view = temporalize(self.cached)
        texts = _texts(view)
        assert texts == _texts(temporalize(self.reference))
        structure = self.cached.tag_structure
        if structure is None:
            interpreted = self.engine.execute("ref_temporalize(ref_get_fillers(0))")
            assert [serialize(item) for item in interpreted] == texts
        else:
            assert _texts(schema_driven_temporalize(self.cached, structure)) == texts
        self.held.append((view, texts))


class TestViewMatchesTheReferences:
    @given(root=_ROOT, steps=st.lists(_STEP, min_size=1, max_size=10))
    @settings(deadline=None)
    def test_cached_view_equals_uncached_and_interpreted(self, root, steps):
        stores = _Stores(root)
        stores.check()
        for kind, arg in steps:
            stores.apply(kind, arg)
            stores.check()


def _deferred(node: Node) -> int:
    """How many copy-on-touch nodes below ``node`` nothing has touched yet."""
    count = 0
    stack = [node]
    while stack:
        current = stack.pop()
        if isinstance(current, DeferredElement) and current._source is not None:
            count += 1
            continue
        stack.extend(current.children)
    return count


def _built(node: Node) -> int:
    """Nodes of ``node``'s tree that exist, without building any more."""
    count = 0
    stack = [node]
    while stack:
        current = stack.pop()
        count += 1
        if not (isinstance(current, DeferredElement) and current._source is not None):
            stack.extend(current.children)
    return count


class TestTheViewStandsOnStoredVersions:
    def _store(self, use_cache: bool) -> FragmentStore:
        store = FragmentStore(PLAIN, use_cache=use_cache)
        store.append(_root(1, [1, 2, 3], comment=False))
        store.append(_fragment(1, 1, "hole", 0))
        store.append(_fragment(1, 2, "plain", 1))
        store.append(_fragment(2, 1, "plain", 0))
        store.append(_fragment(3, 1, "comment", 0))
        store.append(_fragment(4, 1, "plain", 0))
        return store

    def test_only_the_hole_spine_is_copied(self):
        store = self._store(use_cache=True)
        view = temporalize(store)
        log = view.document_element
        assert type(log) is Element  # it carries holes
        unit_with_hole, unit, tick, note = log.children
        assert type(unit_with_hole) is Element
        assert isinstance(unit_with_hole.children[-1], DeferredElement)  # <part>
        assert isinstance(unit, DeferredElement) and isinstance(tick, DeferredElement)
        assert type(note) is Element  # a comment below: copied
        assert serialize(view) == serialize(temporalize(self._store(use_cache=False)))

    def test_an_uncached_store_copies_everything(self):
        view = temporalize(self._store(use_cache=False))
        assert _deferred(view) == 0

    def test_paper_faithful_caq_still_deep_copies(self, monkeypatch):
        views: list[Document] = []

        def recording(store):
            views.append(temporalize(store))
            return views[-1]

        monkeypatch.setattr(engine_module, "temporalize", recording)
        for paper_faithful in (True, False):
            workload = Figure4Workload.build(0.0, paper_faithful=paper_faithful)
            views.clear()
            workload.run(Q5, Strategy.CAQ)
            assert len(views) == 1
            if paper_faithful:
                assert _deferred(views[0]) == 0
            else:
                assert _deferred(views[0]) > 0


class TestCommentsAndProcessingInstructions:
    """``temporalize`` keeps them, as ``ref_temporalize`` and QaC do."""

    STRUCTURE = TagStructure.from_xml(
        '<stream:structure><tag type="snapshot" id="1" name="r">'
        '<tag type="temporal" id="2" name="a"/></tag></stream:structure>'
    )

    def _engine(self) -> XCQLEngine:
        from repro.dom.parser import parse_document

        engine = XCQLEngine(default_now=NOW)
        store = engine.register_stream("s", self.STRUCTURE)
        store.extend([
            Filler(0, 1, _day(1), parse_document(
                '<r><!--c--><hole id="1" tsid="2"/></r>').document_element),
            Filler(1, 2, _day(2), parse_document(
                '<a>x<!--k--><?p q?><b>y</b></a>').document_element),
        ])
        return engine

    def test_every_strategy_counts_four_children(self):
        engine = self._engine()
        query = 'count(stream("s")/r/a/node())'
        for strategy in Strategy:
            assert engine.execute(query, strategy) == [4], strategy
        assert engine.execute_on_view(query) == [4]

    @pytest.mark.parametrize("schema_driven", [False, True])
    def test_the_view_keeps_them(self, schema_driven):
        store = self._engine().stores["s"]
        if schema_driven:
            view = schema_driven_temporalize(store, self.STRUCTURE)
        else:
            view = temporalize(store)
        assert serialize(view) == (
            '<r><!--c--><a vtFrom="2003-01-02T00:00:00" vtTo="now">'
            "x<!--k--><?p q?><b>y</b></a></r>"
        )


# -- XMark over a store with bid writes -------------------------------------------

_INTERVAL = 'stream("auction")//open_auction?[2003-06-01T01:00:00, 2003-06-01T03:00:00]'
_NOW_POINT = 'for $o in stream("auction")//open_auction return $o/current?[now]'
_LAST_TWO = 'stream("auction")//open_auction[@id="open_auction7"]#[last - 1, last]'
_FIRST = 'stream("auction")//open_auction[@id="open_auction7"]#[1]'


@pytest.fixture(scope="module")
def auction():
    """An engine over the e2e auction load: catalog, bids, and bids to come."""
    loadgen = pytest.importorskip("benchmarks.e2e.loadgen")
    load = loadgen.AuctionLoad(seed=3)
    engine = XCQLEngine()
    engine.register_stream(loadgen.AUCTION_STREAM, load.structure)
    engine.feed_raw(loadgen.AUCTION_STREAM, load.catalog + load.bids(120))
    return engine, load, loadgen.AUCTION_STREAM


def _answers(engine, source: str, strategy: Strategy, now) -> list:
    return [
        serialize(item) if isinstance(item, Node) else item
        for item in engine.execute(source, strategy, now=now)
    ]


class TestXMarkUnderCaQ:
    @pytest.mark.parametrize(
        "source",
        [Q1, Q2, Q5, Q8, _INTERVAL, _NOW_POINT, _LAST_TWO, _FIRST],
        ids=["Q1", "Q2", "Q5", "Q8", "interval", "now", "last-two", "first"],
    )
    def test_caq_equals_qacplus_beside_bid_writes(self, auction, source):
        engine, load, stream = auction
        now = XSDateTime(2003, 6, 2)
        for _ in range(2):
            want = _answers(engine, source, Strategy.QAC_PLUS, now)
            assert _answers(engine, source, Strategy.CAQ, now) == want
            engine.feed_raw(stream, load.bids(8))

    def test_q5_builds_in_proportion_to_stored_versions(self, auction, monkeypatch):
        engine, _, stream = auction
        views: list[Document] = []

        def recording(store):
            views.append(temporalize(store))
            return views[-1]

        monkeypatch.setattr(engine_module, "temporalize", recording)
        engine.execute(Q5, Strategy.CAQ)
        store = engine.stores[stream]
        versions = sum(len(store.versions_of(filler_id)) for filler_id in store._by_id)
        whole = sum(1 for _ in temporalize(store).iter())
        assert whole > 10 * versions  # the bound below is far from the view
        assert _built(views[0]) <= 3 * versions
