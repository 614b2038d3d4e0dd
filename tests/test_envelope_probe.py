"""The network door's in-flight routing probe against the DOM reference.

``routing.DoorProbe`` decides a set of routing predicates while expat
reads an envelope's text, stopping once every predicate is decided.
Each verdict must be exactly ``route_match(pred, parse_filler(text),
tag_type)``, and "send" wherever ``parse_filler`` raises — for every
predicate shape, every tag type, sets of predicates decided together,
however the text was chunked, and whatever the probe read before.  The
server-level tests then check the door built on it: live fan-out,
catch-up replay and a restarted server send exactly the same envelopes,
with one probe pass per envelope.
"""

from __future__ import annotations

import asyncio
import dataclasses
import os
from xml.sax.saxutils import escape, quoteattr

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.optimizer import RoutingPredicate
from repro.fragments.model import parse_filler
from repro.fragments.persist import Journal
from repro.fragments.tagstructure import TagType
from repro.streams.net import StreamClient, StreamServer, Subscription
from repro.streams.routing import DoorProbe, route_match
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


def _expected(pred, text, tag_type) -> bool:
    """The DOM reference's verdict; an unreadable envelope is sent."""
    try:
        filler = parse_filler(text)
    except ValueError:
        return True
    return route_match(pred, filler, tag_type)


def _verdicts(probe, preds, text, tag_type) -> list:
    skips = probe.decide(text, tag_type)
    assert skips <= set(probe.predicates)
    return [pred not in skips for pred in preds]


def _assert_exact(preds, text, tag_type, probe=None):
    probe = probe or DoorProbe(preds)
    expected = [_expected(pred, text, tag_type) for pred in preds]
    assert _verdicts(probe, preds, text, tag_type) == expected, (text, preds, tag_type)
    return expected


def _cut(text: str, cuts: list) -> list:
    chunks, previous = [], 0
    for cut in sorted(cut % (len(text) + 1) for cut in cuts):
        chunks.append(text[previous:cut])
        previous = cut
    return chunks + [text[previous:]]


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
OPERATORS = ["=", "!=", "<", "<=", ">", ">="]

predicate_sets = st.lists(predicates(), min_size=1, max_size=4)


def _envelope(payload: str) -> str:
    return f'<filler id="3" tsid="2" validTime="2004-01-05T00:00:00">{payload}</filler>'


class TestDifferential:
    def test_every_shape_on_the_corpus(self):
        every = [
            dataclasses.replace(shape, op=op) for shape in SHAPES for op in OPERATORS
        ]
        together = DoorProbe(every)  # one probe, every shape decided at once
        sent = skipped = 0
        for payload in CORPUS:
            text = _envelope(payload)
            for tag_type in TAG_TYPES:
                expected = _assert_exact(every, text, tag_type, together)
                for at in range(0, len(every), len(OPERATORS)):
                    _assert_exact(every[at:at + len(OPERATORS)], text, tag_type)
                sent += sum(expected)
                skipped += expected.count(False)
        assert sent > 20_000 and skipped > 20_000  # both verdicts, not a grid of one

    @settings(deadline=None)
    @given(envelopes(), predicate_sets, st.sampled_from(TAG_TYPES))
    def test_verdicts_equal_the_dom_reference(self, text, preds, tag_type):
        parse_filler(text)  # the generator writes readable envelopes
        _assert_exact(preds, text, tag_type)

    @settings(max_examples=150, deadline=None)
    @given(
        envelopes(),
        predicate_sets,
        st.sampled_from(TAG_TYPES),
        st.lists(st.integers(0, 10_000), max_size=6),
    )
    def test_independent_of_tokenizer_chunking(self, text, preds, tag_type, cuts):
        expected = _assert_exact(preds, text, tag_type)
        assert _verdicts(DoorProbe(preds), preds, _cut(text, cuts), tag_type) == expected

    @settings(deadline=None)
    @given(
        envelopes(),
        predicate_sets,
        st.sampled_from(TAG_TYPES),
        st.integers(0, 10_000),
        st.integers(1, 12),
    )
    def test_damaged_text_raises_exactly_where_the_dom_path_does(
        self, text, preds, tag_type, at, width
    ):
        """The probe raises nothing: it sends wherever the DOM path raises."""
        at %= len(text)
        _assert_exact(preds, text[:at] + text[at + width:], tag_type)

    @pytest.mark.parametrize("raw", BAD_ENVELOPES)
    @pytest.mark.parametrize("attribute", [None, "vtFrom"])
    def test_malformed_corpus(self, raw, attribute):
        pred = RoutingPredicate("a", (), attribute, False, ">", 1.0, True)
        with pytest.raises(ValueError):
            parse_filler(raw)
        assert DoorProbe([pred]).decide(raw, TagType.EVENT) == frozenset()

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
        preds = [
            RoutingPredicate("t", (), None, False, op, literal, True)
            for op in OPERATORS
            for literal in (1.0, 5.0, 9.0)
        ]
        _assert_exact(preds, raw, None)

    def test_document_order_across_nested_candidates(self):
        """A nested candidate's values fall between its outer one's, and
        each candidate tallies its own under a value comparison."""
        pred = RoutingPredicate("t", ("a",), None, False, ">", 5.0, True, single=True)
        inner_only = _envelope("<t><a>1</a><t><a>2</a></t></t>")
        both = _envelope("<t><a>1</a><t><a>2</a></t><a>3</a></t>")
        assert _assert_exact([pred], inner_only, None) == [False]  # one value each
        assert _assert_exact([pred], both, None) == [True]  # the outer one has two


class TestProbeCache:
    """The server keeps one probe per ``(stream, tsid)``; a probe reads
    one envelope after another."""

    TEXT = '<filler id="1" tsid="2" validTime="2004-01-01"><t k="9"><a>5</a></t></filler>'

    def test_one_tokenizer_pass_however_many_shapes(self):
        # Counted at the server: one pass per envelope, whoever asks.
        by_path = RoutingPredicate("alert", ("level",), None, False, ">", 5.0, True)
        by_text = RoutingPredicate("alert", ("level",), None, True, "<", 3.0, True)
        same_shape = RoutingPredicate("alert", ("level",), None, False, ">", 8.0, True)
        levels = [1, 9, 2, 7, "x", 6, 4, 10]
        wanted = {
            pred: [alert(20 + i, level) for i, level in enumerate(levels)
                   if _expected(pred, alert(20 + i, level), TagType.EVENT)]
            for pred in (by_path, by_text, same_shape)
        }

        async def scenario():
            server = StreamServer()
            await server.start()
            await server.publish(Message(TAG_STRUCTURE, "credit", STRUCTURE))
            got = []
            clients = []
            for pred in (by_path, by_text, same_shape, by_path):
                received: list = []
                client = StreamClient(
                    "127.0.0.1", server.port,
                    on_message=lambda m, into=received: m.kind == FILLER
                    and into.append(m.payload),
                )
                await client.connect()
                await asyncio.wait_for(
                    client.subscribe([Subscription("credit", tsid=5, predicate=pred)]), 5
                )
                clients.append(client)
                got.append((pred, received))
            assert len(server._probes[("credit", 5)].predicates) == 3
            for i, level in enumerate(levels):
                await server.publish(Message(FILLER, "credit", alert(20 + i, level)))
            stats = server.stats()
            assert stats["door_passes"] == len(levels)
            assert stats["routing_probes"] == 4 * len(levels)
            for pred, received in got:
                await wait_until(lambda: len(received) == len(wanted[pred]))
            await asyncio.sleep(0.05)
            assert [received for _pred, received in got] == [
                wanted[pred] for pred, _received in got
            ]
            for client in clients:
                await client.close()
            await wait_until(lambda: not server._probes)
            await server.close()

        run(scenario())

    def test_unreadable_text_caches_nothing(self):
        """Decided early, then malformed, then skipped: nothing an envelope
        leaves behind changes the next one's verdicts."""
        preds = [
            RoutingPredicate("t", ("a",), None, False, ">", 1.0, True, single=True),
            RoutingPredicate("t", (), "k", False, "<", 5.0, True),
            RoutingPredicate("t", (), "vtFrom", False, ">", 0.0, True),
        ]
        probe = DoorProbe(preds)
        texts = [
            self.TEXT,  # every predicate sends at the first values
            '<filler id="1" tsid="2" validTime="2004-01-01"><t k="9"><a>5</a><a>',
            self.TEXT.replace(">5<", ">0<").replace('k="9"', 'k="8"'),
            "<filler",
            self.TEXT.replace("2004-01-01", "1969-12-31").replace(">5<", ">1<"),
            self.TEXT,
        ]
        verdicts = [_assert_exact(preds, text, TagType.EVENT, probe) for text in texts]
        assert verdicts[2] == [False, False, True] and verdicts[4] == [False, False, False]

    def test_decided_early_reads_no_further(self):
        """A first operand that accepts sends whatever follows it, and the
        handlers stop being called."""
        calls = []

        class Counting(DoorProbe):
            __slots__ = ()

            def _start(self, tag, attrs):
                calls.append(tag)
                super()._start(tag, attrs)

            def _end(self, tag):
                calls.append(tag)
                super()._end(tag)

        pred = RoutingPredicate("t", ("a",), None, False, ">", 5.0, True)
        siblings = "<b>1</b>" * 10_000
        head = '<filler id="1" tsid="2" validTime="2004-01-01"><t><a>9</a>'
        for text in (head + siblings + "</t></filler>", head + "<b></t></filler>"):
            del calls[:]
            assert _assert_exact([pred], text, None, Counting([pred])) == [True]
            assert len(calls) <= 5
        del calls[:]
        cheap = head.replace(">9<", ">1<") + siblings + "</t></filler>"
        assert _assert_exact([pred], cheap, None, Counting([pred])) == [False]
        assert len(calls) > 20_000  # a skip is read to the end


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
            assert {key[1] for key in server._first_versions} == {1, 2, 3}
            for client in (live_client, late_client):
                await client.close()
            await server.close()

            reborn = StreamServer(journal=Journal(path))
            await reborn.start()
            assert reborn._first_versions == server._first_versions
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

    def test_one_catch_up_reads_the_journal_once(self, tmp_path, monkeypatch):
        """The ledger answers each replayed entry's supersede question, so
        a narrowed catch-up opens the journal for its replay alone."""
        import builtins

        from repro.fragments import persist

        path = os.path.join(tmp_path, "once.journal")
        expected = [(TAG_STRUCTURE, STRUCTURE)] + [
            (FILLER, payload) for payload, sent in HISTORY if sent
        ]
        reads: list = []

        def spy(file, mode="r", *args, **kwargs):
            if os.fspath(file) == path and "r" in mode:
                reads.append(mode)
            return builtins.open(file, mode, *args, **kwargs)

        async def scenario():
            server = StreamServer(journal=Journal(path))
            await server.start()
            await server.publish(Message(TAG_STRUCTURE, "credit", STRUCTURE))
            for payload, _sent in HISTORY:
                await server.publish(Message(FILLER, "credit", payload))
            monkeypatch.setattr(persist, "open", spy, raising=False)
            replayed: list = []
            client = await _subscriber(server, replayed, catchup=True)
            monkeypatch.undo()
            assert reads == ["r"]
            await wait_until(lambda: len(replayed) == len(expected))
            assert replayed == expected
            await client.close()
            await server.close()

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
            assert server._first_versions == {}
            # An envelope of a tsid the schema does not know still counts.
            unknown = customer(7, 1).replace('tsid="2"', 'tsid="77"')
            await server.publish(Message(FILLER, "credit", unknown))
            assert server._first_versions == {("credit", 7): 10_002}
            await server.close()

            reborn = StreamServer(journal=server.journal)
            await reborn.start()
            assert reborn._first_versions == {("credit", 7): 10_002}
            assert reborn.seq == 10_002
            await reborn.close()

        run(scenario())
