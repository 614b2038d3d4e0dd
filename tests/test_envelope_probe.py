"""The wire-text routing probe against the DOM probe it replaces.

``routing.envelope_values`` decides a routing predicate from one
tokenizer pass over an envelope's text; ``routing.filler_values`` over
``parse_filler`` of the same text is the reference.  The two must agree
on every value (type and all), on ``None`` (undecidable), and on raising
``ValueError`` — for every predicate shape, every tag type, and however
the text was chunked into the tokenizer.  The server-level test then
checks the door built on it: live fan-out, catch-up replay and a
restarted server send exactly the same envelopes.
"""

from __future__ import annotations

import asyncio
import os
from xml.sax.saxutils import escape, quoteattr

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.optimizer import RoutingPredicate
from repro.dom.parser import EventParser
from repro.fragments.model import parse_filler
from repro.fragments.persist import Journal
from repro.fragments.tagstructure import TagType
from repro.streams import routing
from repro.streams.net import StreamClient, StreamServer, Subscription
from repro.streams.routing import (
    envelope_match,
    envelope_values,
    filler_values,
    route_match,
)
from repro.streams.transport import FILLER, TAG_STRUCTURE, Message
from tests.test_net import run, wait_until
from tests.test_streaming_automata import BAD_ENVELOPES

TAG_TYPES = [TagType.EVENT, TagType.TEMPORAL, TagType.SNAPSHOT, None]

# -- generated envelopes -----------------------------------------------------------------

#: "t" is every predicate's tuple tag, so candidates nest, repeat and
#: sometimes are the payload root; "a" and "b" make path steps, "c" noise.
#: Children are drawn with a bias towards the tags the paths below name.
TAGS = {None: ["t", "t", "a", "c"], "t": ["a", "a", "t", "b"], "a": ["b", "a", "t"]}
PATHS = [(), ("a",), ("b",), ("t",), ("a", "b"), ("a", "a"), ("t", "a")]

VALUES = [
    "42", "7.5", "-3", "0", " 42 ", "\t8\n", "$38.20", "NaN", "INF", "-INF",
    "9007199254740993", "1e3", "abc", "", " ", "4 2", "x<y", "a&b", "'q\"",
]

leaf_text = st.sampled_from(VALUES).map(escape)
other_leaves = st.one_of(
    st.sampled_from(VALUES).map(lambda v: f"<![CDATA[{v}]]>"),
    st.sampled_from(["<!--7-->", "<!-- -->", "<?pi 9?>", "<?x?>", "&#52;2", "&lt;5"]),
)


def _attrs(draw) -> str:
    out = ""
    if draw(st.booleans()):
        out += " k=" + quoteattr(draw(st.sampled_from(VALUES)))
    if draw(st.integers(0, 5)) == 0:
        out += ' vtFrom="2001-01-01T00:00:00"'  # a payload attribute, not the annotation
    return out


@st.composite
def elements(draw, depth: int = 0, parent: str = None) -> str:
    tag = draw(st.sampled_from(TAGS.get(parent, TAGS[None])))
    attrs = _attrs(draw)
    if depth >= 4 or draw(st.integers(0, 3)) == 0:
        if draw(st.booleans()):
            return f"<{tag}{attrs}/>"
        return f"<{tag}{attrs}>{draw(leaf_text)}</{tag}>"
    children = draw(
        st.lists(
            st.one_of(elements(depth + 1, tag), elements(depth + 1, tag), leaf_text, other_leaves),
            min_size=0,
            max_size=4,
        )
    )
    return f"<{tag}{attrs}>{''.join(children)}</{tag}>"


@st.composite
def envelopes(draw) -> str:
    payload = draw(elements())
    pad = draw(st.sampled_from(["", "", " ", "\n", "<!--between-->"]))
    return (
        f'<filler id="{draw(st.integers(0, 99))}" tsid="2" '
        f'validTime="2004-01-{draw(st.integers(1, 28)):02d}T00:00:00">'
        f"{pad}{payload}{pad}</filler>"
    )


@st.composite
def predicates(draw) -> RoutingPredicate:
    attribute = draw(st.sampled_from([None, None, None, "k", "vtFrom", "vtTo", "missing"]))
    numeric = draw(st.booleans())
    return RoutingPredicate(
        tuple_tag="t",
        path=draw(st.sampled_from(PATHS)),
        attribute=attribute,
        text_only=attribute is None and draw(st.booleans()),
        op=draw(st.sampled_from(["=", "!=", "<", "<=", ">", ">="])),
        value=draw(st.sampled_from([7.5, 42.0, 1e12])) if numeric else draw(
            st.sampled_from(["42", "abc", ""])
        ),
        numeric=numeric,
        single=draw(st.booleans()),
    )


# -- the comparison ----------------------------------------------------------------------


def _typed(values):
    """Values with their types, NaN-safe (``[nan] != [nan]`` otherwise)."""
    return None if values is None else [(type(v).__name__, repr(v)) for v in values]


def _outcome(thunk):
    try:
        return ("ok", thunk())
    except ValueError as exc:
        return ("error", type(exc).__name__, str(exc))


def _reference(pred, text, tag_type):
    return _outcome(lambda: _typed(filler_values(pred, parse_filler(text), tag_type, None)))


def _probe(pred, text, tag_type, cache=None):
    return _outcome(lambda: _typed(envelope_values(pred, text, tag_type, cache)))


def _chunked_events(text: str, cuts: list) -> list:
    parser = EventParser(fragment=True)
    events, previous = [], 0
    for cut in sorted(cut % (len(text) + 1) for cut in cuts):
        events += parser.feed(text[previous:cut])
        previous = cut
    events += parser.feed(text[previous:])
    return events + parser.close()


#: Hand-written payloads for the shapes the generator reaches rarely,
#: crossed below with every predicate shape and tag type.
CORPUS = [
    "<t>42</t>",
    "<t><a>42</a></t>",
    "<t><a><b>42</b></a></t>",
    "<t><a>1</a><a>2</a><a>abc</a></t>",  # repeated path children
    "<t><a>1<b>2</b>3</a></t>",  # mixed content: text() vs string value
    "<t><a> 42 </a><a>\t</a><a/></t>",  # padded, whitespace-only, empty
    "<t><a>$38.20</a></t>",
    "<t><a>NaN</a><a>INF</a><a>-INF</a></t>",
    "<t><a>9007199254740993</a><a>9007199254740992</a></t>",
    "<t><a>4<!--x-->2</a></t>",  # a comment splits the text node
    "<t><a>4<?pi 9?>2<![CDATA[ 7]]></a></t>",
    "<t><a><![CDATA[ ]]></a><a><![CDATA[<a>5</a>]]></a></t>",
    "<t><a>&lt;5&amp;&#52;2</a></t>",
    '<t k="9"><a k="7">1</a><a k="abc"/><a/></t>',
    '<t k="1"><t k="2"><t k="3"/></t></t>',  # nested candidates
    "<t><a>1</a><t><a>2</a></t><a>3</a></t>",
    "<t><t><a>5</a></t><a><t><a>6</a></t></a></t>",
    "<c><t><a>1</a></t><t><a>2</a></t></c>",  # sibling candidates below the root
    "<c><b><t>7</t></b><a><t><a><b>8</b></a></t></a></c>",
    "<a><a><b>1</b></a><b>2</b></a>",  # no candidate at all
    "<t><b><a>1</a></b><c><a><b>2</b></a></c></t>",  # path tags at the wrong depth
    "<t><a><a><a>1</a></a></a></t>",
    "<t/>",
    '<t vtFrom="2001-01-01T00:00:00" vtTo="x">5</t>',  # payload attributes, not annotations
    "<t>1<a>2<b>3</b>4</a>5<a>6</a>7</t>",
]

SHAPES = [
    RoutingPredicate("t", path, attribute, text_only, ">", 5.0 if numeric else "5", numeric, single)
    for path in PATHS
    for attribute, text_only in [
        (None, False), (None, True), ("k", False), ("vtFrom", False), ("vtTo", False),
    ]
    for numeric in (True, False)
    for single in (True, False)
]


class TestDifferential:
    def test_every_shape_on_the_corpus(self):
        hits = 0
        for payload in CORPUS:
            text = f'<filler id="3" tsid="2" validTime="2004-01-05T00:00:00">{payload}</filler>'
            filler = parse_filler(text)
            for tag_type in TAG_TYPES:
                cache: dict = {}
                for pred in SHAPES:
                    expected = _typed(filler_values(pred, filler, tag_type, None))
                    assert _typed(envelope_values(pred, text, tag_type, cache)) == expected, (
                        payload, pred, tag_type,
                    )
                    hits += expected != []
        assert hits > 4000  # values or undecidable: not a grid of empty operands

    @settings(max_examples=400, deadline=None)
    @given(envelopes(), predicates(), st.sampled_from(TAG_TYPES))
    def test_values_equal_the_dom_kernel(self, text, pred, tag_type):
        reference = _reference(pred, text, tag_type)
        assert reference[0] == "ok"
        assert _probe(pred, text, tag_type) == reference
        assert envelope_match(pred, text, tag_type) == route_match(
            pred, parse_filler(text), tag_type
        )

    @settings(max_examples=150, deadline=None)
    @given(
        envelopes(),
        predicates(),
        st.sampled_from(TAG_TYPES),
        st.lists(st.integers(0, 10_000), max_size=6),
    )
    def test_independent_of_tokenizer_chunking(self, text, pred, tag_type, cuts):
        cache = {"events": _chunked_events(text, cuts)}
        assert _probe(pred, text, tag_type, cache) == _reference(pred, text, tag_type)

    @settings(max_examples=300, deadline=None)
    @given(
        envelopes(),
        predicates(),
        st.sampled_from(TAG_TYPES),
        st.integers(0, 10_000),
        st.integers(1, 12),
    )
    def test_damaged_text_raises_exactly_where_the_dom_path_does(
        self, text, pred, tag_type, at, width
    ):
        at %= len(text)
        damaged = text[:at] + text[at + width:]
        assert _probe(pred, damaged, tag_type) == _reference(pred, damaged, tag_type)

    @pytest.mark.parametrize("raw", BAD_ENVELOPES)
    @pytest.mark.parametrize("attribute", [None, "vtFrom"])
    def test_malformed_corpus(self, raw, attribute):
        pred = RoutingPredicate("a", (), attribute, False, ">", 1.0, True)
        reference = _reference(pred, raw, TagType.EVENT)
        assert reference[0] == "error"
        assert _probe(pred, raw, TagType.EVENT) == reference

    @pytest.mark.parametrize(
        "raw",
        [
            # Two top-level elements, text beside the envelope, text beside
            # the payload, an XML declaration: only the first is an error.
            '<filler id="1" tsid="2" validTime="2004-01-01"><t>5</t></filler><x/>',
            'lead <filler id="1" tsid="2" validTime="2004-01-01"><t>5</t></filler> trail',
            '<filler id="1" tsid="2" validTime="2004-01-01">n<t>5</t>m</filler>',
            '<?xml version="1.0"?><filler id="1" tsid="2" validTime="2004-01-01"><t>5</t></filler>',
            '<filler id="1" tsid="2" validTime="2004-01-01"><x><t>5</t></x><t>6</t></filler>',
            '<filler id="1" tsid="x" validTime="2004-01-01"><t>5</t></filler>',
        ],
    )
    def test_envelope_edges(self, raw):
        pred = RoutingPredicate("t", (), None, False, ">", 1.0, True)
        assert _probe(pred, raw, None) == _reference(pred, raw, None)

    def test_document_order_across_nested_candidates(self):
        """An outer candidate's values all precede a nested one's."""
        text = (
            '<filler id="1" tsid="2" validTime="2004-01-01">'
            "<t><a>1</a><t><a>2</a></t><a>3</a></t></filler>"
        )
        pred = RoutingPredicate("t", ("a",), None, False, ">", 0.0, True)
        assert envelope_values(pred, text, None) == [1.0, 3.0, 2.0]
        assert filler_values(pred, parse_filler(text), None, None) == [1.0, 3.0, 2.0]


class TestProbeCache:
    TEXT = (
        '<filler id="1" tsid="2" validTime="2004-01-01">'
        '<t k="9"><a>5</a></t></filler>'
    )

    def test_one_tokenizer_pass_however_many_shapes(self, monkeypatch):
        # Counted at the parser: one pass per value cache, however many
        # predicate shapes walk its events.
        passes = []

        class CountingParser(EventParser):
            __slots__ = ()

            def __init__(self, *args, **kwargs):
                passes.append(kwargs)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(routing, "EventParser", CountingParser)
        by_path = RoutingPredicate("t", ("a",), None, False, ">", 1.0, True)
        by_attr = RoutingPredicate("t", (), "k", False, ">", 1.0, True)
        other = RoutingPredicate("t", ("a",), None, False, "<", 3.0, True)

        def probe(cache):
            assert envelope_values(by_path, self.TEXT, None, cache) == [5.0]
            assert envelope_values(by_attr, self.TEXT, None, cache) == [9.0]
            # Same shape, other literal: the cached values, no walk.
            assert envelope_values(other, self.TEXT, None, cache) == [5.0]

        probe({})
        assert passes == [{"fragment": True}]
        for _ in range(99):
            envelope_values(by_path, self.TEXT, None, {})
        probe({})
        assert len(passes) == 101

    def test_unreadable_text_caches_nothing(self):
        cache: dict = {}
        pred = RoutingPredicate("t", (), None, False, ">", 1.0, True)
        with pytest.raises(ValueError):
            envelope_values(pred, "<filler", None, cache)
        assert cache == {}


# -- the door: live, replayed and restarted ------------------------------------------------

STRUCTURE = (
    '<stream:structure><tag type="snapshot" id="1" name="report">'
    '<tag type="temporal" id="2" name="customer">'
    '<tag type="temporal" id="4" name="balance"/></tag>'
    '<tag type="event" id="5" name="alert"/></tag></stream:structure>'
)


def customer(i: int, balance) -> str:
    return (
        f'<filler id="{i}" tsid="2" validTime="2004-01-{i % 27 + 1:02d}">'
        f"<customer><balance>{balance}</balance></customer></filler>"
    )


def alert(i: int, level) -> str:
    return (
        f'<filler id="{i}" tsid="5" validTime="2004-01-{i % 27 + 1:02d}">'
        f"<alert><level>{level}</level></alert></filler>"
    )


SUBSCRIPTIONS = [
    Subscription(
        "credit",
        tsid=2,
        predicate=RoutingPredicate("customer", ("balance",), None, False, ">", 500.0, True),
    ),
    Subscription(
        "credit",
        tsid=5,
        predicate=RoutingPredicate("alert", ("level",), None, False, ">", 5.0, True),
    ),
]

HISTORY = [
    (customer(1, 100), False),
    (customer(2, 900), True),
    (customer(1, 50), True),  # fails the predicate, but supersedes id 1
    (alert(10, 9), True),
    (alert(11, 1), False),
    (alert(11, 1), False),  # an event gets no supersede wake
    (alert(12, "high"), True),  # not a number: undecidable, sent
    ('<filler id="13" tsid="5" validTime="2004-01-02"><alert/><alert/></filler>', True),
    (customer(3, 700), True),
    (customer(2, 40), True),  # supersedes id 2
    (alert(14, "<![CDATA[8]]><!--x-->"), True),
    (alert(15, "<!--8-->2"), False),
]
AFTER_RESTART = [
    (customer(3, 10), True),  # id 3 had a version before the restart
    (customer(4, 10), False),
    (alert(10, 0), False),
]


async def _subscriber(server, got, *, catchup=False):
    client = StreamClient(
        "127.0.0.1", server.port, on_message=lambda m: got.append((m.kind, m.payload))
    )
    await client.connect()
    await asyncio.wait_for(client.subscribe(SUBSCRIPTIONS, catchup=catchup), 5)
    if catchup:
        await asyncio.wait_for(client.catchup(after=0), 5)
    return client


class TestDoorDecisions:
    def test_live_replay_and_restart_send_the_same_envelopes(self, tmp_path):
        path = os.path.join(tmp_path, "door.journal")
        expected = [(TAG_STRUCTURE, STRUCTURE)] + [
            (FILLER, payload) for payload, sent in HISTORY if sent
        ]

        async def scenario():
            server = StreamServer(journal=Journal(path))
            await server.start()
            live: list = []
            live_client = await _subscriber(server, live)
            await server.publish(Message(TAG_STRUCTURE, "credit", STRUCTURE))
            for payload, _sent in HISTORY:
                await server.publish(Message(FILLER, "credit", payload))
            await wait_until(lambda: len(live) == len(expected))
            await asyncio.sleep(0.05)
            assert live == expected
            assert server.routing_skips == sum(1 for _p, sent in HISTORY if not sent)

            replayed: list = []
            late_client = await _subscriber(server, replayed, catchup=True)
            await wait_until(lambda: len(replayed) == len(expected))
            assert replayed == expected
            # Only the non-event fragments are tracked at the door.
            assert {key[1] for key in server._version_counts} == {1, 2, 3}
            for client in (live_client, late_client):
                await client.close()
            await server.close()

            reborn = StreamServer(journal=Journal(path))
            await reborn.start()
            assert reborn._version_counts == server._version_counts
            again: list = []
            client = await _subscriber(reborn, again, catchup=True)
            await wait_until(lambda: len(again) == len(expected))
            assert again == expected
            for payload, _sent in AFTER_RESTART:
                await reborn.publish(Message(FILLER, "credit", payload))
            tail = [(FILLER, payload) for payload, sent in AFTER_RESTART if sent]
            await wait_until(lambda: len(again) == len(expected) + len(tail))
            await asyncio.sleep(0.05)
            assert again == expected + tail
            await client.close()
            await reborn.close()

        run(scenario())

    def test_event_streams_leave_no_state_at_the_door(self, tmp_path):
        """One dict entry per relayed event would be a leak: live events
        carry fresh ids and the door never asks about them."""

        async def scenario():
            server = StreamServer(
                journal=Journal(os.path.join(tmp_path, "events.journal"))
            )
            await server.start()
            await server.publish(Message(TAG_STRUCTURE, "credit", STRUCTURE))
            for i in range(10_000):
                await server.publish(Message(FILLER, "credit", alert(i, i % 10)))
            assert server._version_counts == {}
            # An envelope of a tsid the schema does not know still counts.
            unknown = customer(7, 1).replace('tsid="2"', 'tsid="77"')
            await server.publish(Message(FILLER, "credit", unknown))
            assert server._version_counts == {("credit", 7): 1}
            await server.close()

            reborn = StreamServer(journal=server.journal)
            await reborn.start()
            assert reborn._version_counts == {("credit", 7): 1}
            assert reborn.seq == 10_002
            await reborn.close()

        run(scenario())
