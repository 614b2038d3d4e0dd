"""A stored version stands on its predecessor, and equals a full parse.

When the store builds the next version of a temporal id from wire text,
it parses only the middle that the write changed and carries every other
payload child over from the previous version: a one-node copy-on-touch
stand-in, or an eager copy where a comment, a processing instruction or
a ``<hole>`` lies below.  The reference is a ``use_cache=False`` store
fed the same envelopes: it parses every version in full on every read.

The payloads are drawn as token runs and edited at random places, so the
edges of the shared head and tail fall on every kind of seam: text and
whitespace runs, comments, PIs, CDATA, holes, references, non-ASCII text,
``>`` inside attribute values, ``<a/>`` against ``<a></a>``, a changed
payload attribute, and a new ``<!--`` that an unchanged tail's
``<a t="-->"/>`` closes.  Whatever a caller took from the store before
— versions, projections, CaQ views, dropped wrappers — serialises as it
did after later writes and after every node of it has been touched.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro import FragmentStore, TagStructure, XCQLEngine
from repro.dom import serialize
from repro.dom.nodes import (
    DeferredElement,
    Element,
    _below,
    sort_document_order,
    stored_verdict,
)
from repro.fragments import parse_filler, temporalize
from repro.temporal import XSDateTime
from repro.xquery.temporal_functions import interval_project_nodes, version_project_nodes
from tests.test_dom_builders import assert_consistent

_STRUCTURE_XML = """
<stream:structure>
  <tag type="snapshot" id="1" name="log">
    <tag type="{2}" id="2" name="unit"/>
    <tag type="{3}" id="3" name="tick"/>
  </tag>
</stream:structure>
"""
PLAIN = TagStructure.from_xml(_STRUCTURE_XML.replace("{2}", "temporal").replace("{3}", "event"))
SWAPPED = TagStructure.from_xml(_STRUCTURE_XML.replace("{2}", "event").replace("{3}", "temporal"))
#: filler id -> (tsid, payload tag); id 0 is the root snapshot.
FRAGMENTS = {1: (2, "unit"), 2: (3, "tick"), 3: (2, "unit")}
NOW = XSDateTime(2003, 2, 1)

#: ``<!--`` inserted before it makes its ``-->`` end a comment.
CLOSER = '<a t="-->"/>'
TOKENS = (
    "<a>x</a>", "<a/>", "<a></a>", '<b k="1>2">t</b>', '<b k="&gt;">t</b>',
    "<b><c>deep</c>tail</b>", "<c><!--in--></c>", "<c><?p in?></c>",
    '<b><hole id="9" tsid="5"/></b>', '<t vtFrom="2003-01-01T00:00:00">z</t>',
    "text", "  ", "\n ", " sp ", "&amp;", "&#65;", "é", "ξ<a/>",
    "<!--c-->", "<?p d?>", "<![CDATA[ x ]]>", "<![CDATA[]]>",
    '<hole id="9" tsid="5"/>', CLOSER,
)
ASCII = tuple(token for token in TOKENS if token.isascii())
#: Payload start tags: the attribute changes, one value holds ``>``.
HEADS = ('n="1"', 'n="2"', 'n="1>2"')

_EDIT = st.one_of(
    st.tuples(st.just("insert"), st.integers(0, 40), st.sampled_from(TOKENS)),
    st.tuples(st.just("insert"), st.integers(0, 40), st.sampled_from(TOKENS[:10])),
    st.tuples(st.just("replace"), st.integers(0, 40), st.sampled_from(TOKENS)),
    st.tuples(st.just("delete"), st.integers(0, 40), st.none()),
    st.tuples(st.just("swallow"), st.integers(0, 40), st.none()),
    st.tuples(st.just("head"), st.integers(0, len(HEADS) - 1), st.none()),
)
_WRITE = st.tuples(
    st.sampled_from(sorted(FRAGMENTS)),
    st.lists(_EDIT, max_size=3),
    st.sampled_from(["tail", "tail", "tail", "before", "eager"]),
)
_OTHER = st.one_of(
    st.tuples(st.just("republish"), st.lists(st.sampled_from(sorted(FRAGMENTS)), unique=True)),
    st.tuples(st.just("prune"), st.integers(1, 40)),
    st.tuples(st.just("schema"), st.sampled_from([PLAIN, SWAPPED])),
    st.tuples(st.just("clear"), st.none()),
    st.tuples(st.just("touch"), st.integers(0, 50)),
    st.tuples(st.just("hold"), st.none()),
)
#: Three writes to one other step: most reads build on a predecessor.
_STEP = st.integers(0, 3).flatmap(
    lambda n: st.tuples(st.just("write"), _WRITE) if n else _OTHER
)


def _at(hour: int) -> XSDateTime:
    return XSDateTime(2003, 1, 1 + hour // 24, hour % 24)


def _edited(tokens: list, head: int, edits) -> tuple[list, int]:
    tokens = list(tokens)
    for kind, at, token in edits:
        if kind == "insert":
            tokens.insert(at % (len(tokens) + 1), token)
        elif kind == "head":
            head = at
        elif not tokens:
            continue
        elif kind == "replace":
            tokens[at % len(tokens)] = token
        elif kind == "delete":
            del tokens[at % len(tokens)]
        else:  # swallow: open a comment that the next CLOSER ends
            closers = [i for i, t in enumerate(tokens) if t == CLOSER and i >= at % len(tokens)]
            if closers:
                tokens[closers[0]] = "<!--" + CLOSER
    return tokens, head


class _Stores:
    """A cached store and its ``use_cache=False`` reference, fed the same text."""

    def __init__(self, start: list = ()):
        self.cached = FragmentStore(PLAIN)
        self.reference = FragmentStore(PLAIN, use_cache=False)
        self.engines = []
        for store in (self.cached, self.reference):
            engine = XCQLEngine(default_now=NOW)
            engine.register_stream("s", PLAIN, store)
            self.engines.append(engine)
        self.payloads = {fid: (list(start), 0) for fid in FRAGMENTS}
        self.hour = {fid: 0 for fid in (0, *FRAGMENTS)}
        # (what a caller took, its serialisations then)
        self.held: list[tuple[list, list[str]]] = []
        self.wrappers: dict = {}  # filler id -> (its wrapper, serialised) at the last check
        self.rng = random.Random(0)
        self._feed(self._root(sorted(FRAGMENTS), 0))

    def _root(self, holes, hour: int) -> str:
        body = "".join(f'<hole id="{fid}" tsid="{FRAGMENTS[fid][0]}"/>' for fid in holes)
        return f'<filler id="0" tsid="1" validTime="{_at(hour)}"><log>{body}</log></filler>'

    def _feed(self, text: str, eager: bool = False) -> None:
        for store, engine in zip((self.cached, self.reference), self.engines):
            if eager:
                store.append(parse_filler(text))
            else:
                engine.feed_raw("s", text)

    def apply(self, kind: str, arg) -> None:
        if kind == "write":
            fid, edits, when = arg
            tokens, head = self.payloads[fid] = _edited(*self.payloads[fid], edits)
            if when == "before":
                hour = self.rng.randint(0, max(self.hour[fid] - 1, 0))
            else:
                hour = self.hour[fid] = self.hour[fid] + 1
            tsid, tag = FRAGMENTS[fid]
            self._feed(
                f'<filler id="{fid}" tsid="{tsid}" validTime="{_at(hour)}">'
                f'<{tag} {HEADS[head]}>{"".join(tokens)}</{tag}></filler>',
                eager=when == "eager",
            )
        elif kind == "republish":
            self.hour[0] += 1
            self._feed(self._root(arg, self.hour[0]))
        elif kind == "touch":
            targets = [top for taken, _ in self.held for top in taken]
            targets += [self.cached.get_fillers(fid) for fid in FRAGMENTS]
            top = targets[arg % len(targets)].root()
            for node in top.iter():  # builds every stand-in below
                node.children_named("a")
            assert_consistent(top, self.rng)
        elif kind == "hold":
            versions = [v for fid in FRAGMENTS for v in self.cached.versions_of(fid)]
            ctx = self.engines[0].build_context(now=NOW)
            projected = interval_project_nodes(versions, _at(2), NOW, ctx)
            projected += version_project_nodes(versions, 1, 2, ctx)
            below = [child for v in versions for child in v.children]
            kept = projected + below + [temporalize(self.cached)]
            self.held.append((kept, [serialize(node) for node in kept]))
        else:
            for store in (self.cached, self.reference):
                if kind == "prune":
                    store.prune_before(_at(arg))
                elif kind == "schema":
                    store.set_tag_structure(arg)
                else:
                    store.clear()

    def check(self) -> None:
        for taken, texts in self.held:
            assert [serialize(node) for node in taken] == texts
        for fid in (0, *FRAGMENTS):
            # A wrapper the store let go of is never touched again.
            old, text = self.wrappers.get(fid, (None, None))
            wrapper = self.cached.get_fillers(fid)
            if old is not None and old is not wrapper:
                assert serialize(old) == text
            text = serialize(wrapper)
            self.wrappers[fid] = (wrapper, text)
            assert text == serialize(self.reference.get_fillers(fid))
            for version in wrapper.children:
                # What the builder filed is what a walk would find.
                assert stored_verdict(version) == _below(version)
        assert serialize(temporalize(self.cached)) == serialize(temporalize(self.reference))


class TestSuccessorEqualsAFullParse:
    @given(
        st.lists(st.sampled_from(ASCII), min_size=1, max_size=8),
        st.lists(_STEP, min_size=1, max_size=20),
    )
    @settings(deadline=None)
    def test_every_read_equals_an_uncached_store(self, start, steps):
        stores = _Stores(start)
        stores.check()
        for kind, arg in steps:
            stores.apply(kind, arg)
            stores.check()


class TestSeams:
    """One text per seam case, each built on its predecessor or in full."""

    def _versions(self, *contents: str, tag: str = "unit", head: str = 'n="1"') -> Element:
        stores = _Stores()
        for hour, content in enumerate(contents, start=1):
            stores._feed(
                f'<filler id="1" tsid="2" validTime="{_at(hour)}">'
                f"<{tag} {head}>{content}</{tag}></filler>"
            )
            stores.check()
        return stores.cached.get_fillers(1)

    def test_a_new_comment_closed_by_an_unchanged_attribute(self):
        wrapper = self._versions(f"<x/><y/>{CLOSER}<z/>", f"<x/><!--<y/>{CLOSER}<z/>")
        assert serialize(wrapper.children[-1]).startswith('<unit n="1" vtFrom=')
        assert '<!--<y/><a t="-->' in serialize(wrapper)

    def test_the_unchanged_children_are_stand_ins(self):
        wrapper = self._versions(
            "<b><c>1</c></b><b><c>2</c></b><d>old</d><b><c>3</c></b>",
            "<b><c>1</c></b><b><c>2</c></b><d>new</d><b><c>3</c></b>",
        )
        first, second = wrapper.children
        kinds = [type(child) for child in second.children]
        assert kinds == [DeferredElement, DeferredElement, Element, DeferredElement]
        assert [c._source for c in second.children if type(c) is DeferredElement] == [
            first.children[0], first.children[1], first.children[3]
        ]

    def test_a_stand_in_on_a_stand_in_stands_on_its_source(self):
        wrapper = self._versions(*(f"<b><c>1</c></b><d>{n}</d>" for n in (1, 2, 3)))
        first, _, third = wrapper.children
        assert third.children[0]._source is first.children[0]

    def test_non_ascii_text_is_parsed_in_full(self):
        wrapper = self._versions("<b><c>é</c></b><d>1</d>", "<b><c>é</c></b><d>2</d>")
        assert all(type(child) is Element for child in wrapper.children[-1].children)

    def test_empty_and_self_closed_payloads(self):
        self._versions("", "<a/>", "", "<a></a><a/>", "<a/><a></a>")

    def test_a_mixed_child_is_copied_eagerly(self):
        wrapper = self._versions("<c><!--in--></c><d>1</d>", "<c><!--in--></c><d>2</d>")
        carried = wrapper.children[-1].children[0]
        assert type(carried) is Element and carried is not wrapper.children[0].children[0]


# -- what a version costs ------------------------------------------------------


def _auction(bids: int) -> str:
    """An ``open_auction``-shaped payload after ``bids`` bids, as a bid rewrites it."""
    bidders = "".join(
        f"<bidder><date>2003-01-{1 + b % 28:02d}</date><time>{b % 24:02d}:00:00</time>"
        f'<personref person="person{b}"/><increase>{1 + b % 7}.50</increase></bidder>'
        for b in range(bids)
    )
    return (
        f'<unit id="open_auction1"><initial>10.00</initial>{bidders}'
        f"<current>{10 + 2 * bids}.00</current>"
        '<itemref item="item1"/><seller person="person9"/>'
        "<annotation><description><text>gold words here</text></description></annotation>"
        "<quantity>1</quantity><type>Regular</type></unit>"
    )


def _auction_store(bids: int, use_cache: bool = True) -> FragmentStore:
    store = FragmentStore(PLAIN, use_cache=use_cache)
    engine = XCQLEngine(default_now=NOW)
    engine.register_stream("s", PLAIN, store)
    engine.feed_raw(
        "s",
        f'<filler id="0" tsid="1" validTime="{_at(0)}"><log><hole id="1" tsid="2"/></log></filler>',
    )
    engine.feed_raw("s", [
        f'<filler id="1" tsid="2" validTime="{_at(1 + bid)}">{_auction(bid)}</filler>'
        for bid in range(bids + 1)
    ])
    return store


def _held(top) -> tuple[int, int]:
    """``(built nodes, untouched stand-ins)`` below ``top``, building none."""
    built = stand_ins = 0
    stack = [top]
    while stack:
        node = stack.pop()
        if type(node) is DeferredElement and node._source is not None:
            stand_ins += 1
            continue
        built += 1
        stack.extend(node.children)
    return built, stand_ins


class TestAVersionCostsWhatItsWriteChanged:
    def test_built_nodes_grow_linearly_in_the_bid_count(self):
        built = {}
        for bids in (10, 20, 40):
            wrapper = _auction_store(bids).get_fillers(1)
            reference = _auction_store(bids, use_cache=False).get_fillers(1)
            assert serialize(wrapper) == serialize(reference)
            built[bids], stand_ins = _held(wrapper)
            # One stand-in per unchanged child element with children.
            versions = wrapper.children
            assert stand_ins == sum(
                sum(1 for c in v.children if type(c) is DeferredElement) for v in versions
            )
            assert stand_ins >= sum(len(v.children) - 6 for v in versions[1:])
        # Each bid adds the same parsed nodes: the new bidder and current.
        assert built[40] - built[20] <= 2.2 * (built[20] - built[10])
        assert built[40] < 20 * 41

    def test_a_document_order_sort_builds_no_stand_in(self):
        wrapper = _auction_store(12).get_fillers(1)
        before = _held(wrapper)
        assert before[1] > 0
        last = wrapper.children[-1]
        nodes = [last.children[-1], last, wrapper.children[0], last.children[0]]
        ordered = sort_document_order(nodes)
        assert ordered == [wrapper.children[0], last, last.children[0], last.children[-1]]
        assert _held(wrapper) == before
        view = temporalize(_auction_store(12))
        view_before = _held(view)
        sort_document_order([view.document_element.children[-1], view.document_element])
        assert _held(view) == view_before

    def test_a_touched_stand_in_takes_its_place_in_document_order(self):
        wrapper = _auction_store(3).get_fillers(1)
        last = wrapper.children[-1]
        first_child = last.children[1]  # a bidder: a stand-in
        assert type(first_child) is DeferredElement
        sort_document_order([last, wrapper.children[0]])  # numbers the wrapper
        date = first_child.children[0]  # builds it, after numbering
        ordered = sort_document_order([last.children[-1], date, first_child, last])
        assert ordered == [last, first_child, date, last.children[-1]]

    def test_a_child_path_over_the_wrappers_numbers_nothing(self, monkeypatch):
        from repro.dom.nodes import _Container
        from repro.xquery.compiler import compile_module
        from repro.xquery.evaluator import Context, Evaluator
        from repro.xquery.parser import parse

        engine = XCQLEngine(default_now=NOW)
        store = engine.register_stream("s", PLAIN)
        for fid in (1, 3):
            engine.feed_raw("s", [
                f'<filler id="{fid}" tsid="2" validTime="{_at(1 + bid)}">{_auction(bid)}</filler>'
                for bid in range(4)
            ])
        module = parse("$w/unit/bidder[1]/increase/text()", xcql=True)
        run = compile_module(module)
        first = run(Context(variables={"w": store.get_fillers_by_tsid(2)}))
        engine.feed_raw(
            "s", f'<filler id="1" tsid="2" validTime="{_at(9)}">{_auction(4)}</filler>'
        )
        wrappers = store.get_fillers_by_tsid(2)  # caught up: the wrapper is dirty
        calls = [0]
        renumber = _Container._renumber

        def counting(container):
            calls[0] += 1
            renumber(container)

        monkeypatch.setattr(_Container, "_renumber", counting)
        answer = run(Context(variables={"w": wrappers}))
        assert calls[0] == 0
        assert len(answer) == len(first) + 1
        monkeypatch.undo()
        interpreted = Evaluator(Context(variables={"w": wrappers})).evaluate_module(module)
        assert [node.text for node in answer] == [node.text for node in interpreted]

    def test_paper_faithful_caq_still_parses_every_version_in_full(self, monkeypatch):
        from repro.core.translator import Strategy
        from repro.dom.parser import TreeBuilder

        store = _auction_store(6, use_cache=False)
        engine = XCQLEngine(default_now=NOW)
        engine.register_stream("s", PLAIN, store)
        read_chars, extends = [0], [0]
        read = TreeBuilder._read
        extend = TreeBuilder.extend

        def counting_read(builder, text):
            read_chars[0] += len(text)
            return read(builder, text)

        def counting_extend(builder, version, text):
            extends[0] += 1
            return extend(builder, version, text)

        monkeypatch.setattr(TreeBuilder, "_read", counting_read)
        monkeypatch.setattr(TreeBuilder, "extend", counting_extend)
        engine.execute('count(stream("s")/log/unit/bidder)', Strategy.CAQ)
        assert read_chars[0] == sum(len(f.wire_text) for f in store._fillers)
        assert extends[0] == 0
