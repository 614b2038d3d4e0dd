"""Property-based tests for the XQuery/XCQL and XML parsers.

Random ASTs are rendered with ``to_source`` and re-parsed: the second
render must be identical (render∘parse is a projection).  Random evaluable
expressions additionally round-trip through evaluation with equal results.
Random XML fed to the incremental :class:`EventParser` at arbitrary chunk
boundaries must produce the same events, the same DOM, and the same errors
as a whole-string parse.  Where it reads a text differently from the
hand-written tokenizer it replaced, one text per divergence ``docs/api.md``
lists records both readings.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.dom.nodes import Element
from repro.dom.parser import (
    EventParser,
    XMLParseError,
    build_fragment_indexed,
    parse_document,
    parse_fragment,
)
from repro.xquery import evaluate, parse, to_source
from repro.xquery import xast

# ---------------------------------------------------------------------------
# Random evaluable arithmetic/logic expression sources
# ---------------------------------------------------------------------------

_numbers = st.integers(min_value=0, max_value=999)


@st.composite
def arithmetic_sources(draw, depth=0):
    if depth >= 3 or draw(st.booleans()):
        return str(draw(_numbers))
    op = draw(st.sampled_from(["+", "-", "*"]))
    left = draw(arithmetic_sources(depth=depth + 1))
    right = draw(arithmetic_sources(depth=depth + 1))
    if draw(st.booleans()):
        return f"({left} {op} {right})"
    return f"{left} {op} {right}"


@st.composite
def boolean_sources(draw):
    comparison = draw(st.sampled_from(["=", "!=", "<", "<=", ">", ">="]))
    left = draw(arithmetic_sources())
    right = draw(arithmetic_sources())
    expr = f"{left} {comparison} {right}"
    if draw(st.booleans()):
        other = f"{draw(arithmetic_sources())} = {draw(arithmetic_sources())}"
        connective = draw(st.sampled_from(["and", "or"]))
        expr = f"{expr} {connective} {other}"
    return expr


class TestEvaluableRoundTrip:
    @given(arithmetic_sources())
    @settings(max_examples=150, deadline=None)
    def test_arithmetic_render_parse_fixpoint(self, source):
        module = parse(source)
        rendered = to_source(module)
        again = to_source(parse(rendered))
        assert again == rendered

    @given(arithmetic_sources())
    @settings(max_examples=150, deadline=None)
    def test_arithmetic_value_preserved(self, source):
        direct = evaluate(source)
        round_tripped = evaluate(to_source(parse(source)))
        assert round_tripped == direct

    @given(boolean_sources())
    @settings(max_examples=100, deadline=None)
    def test_boolean_value_preserved(self, source):
        assert evaluate(to_source(parse(source))) == evaluate(source)


# ---------------------------------------------------------------------------
# Random ASTs (paths, FLWOR, constructors) — render/parse fixpoint
# ---------------------------------------------------------------------------

_names = st.sampled_from(["a", "b", "item", "price", "x1"])
_vars = st.sampled_from(["v", "w", "acc"])


@st.composite
def path_exprs(draw):
    base = xast.VarRef(draw(_vars))
    steps = []
    for _ in range(draw(st.integers(1, 3))):
        axis = draw(st.sampled_from(["child", "descendant-or-self", "attribute"]))
        steps.append(xast.Step(axis, draw(_names)))
    return xast.PathExpr(base, steps)


@st.composite
def expressions(draw, depth=0):
    if depth >= 2:
        return draw(
            st.one_of(
                st.builds(xast.Literal, _numbers),
                st.builds(xast.VarRef, _vars),
                path_exprs(),
            )
        )
    kind = draw(st.integers(0, 5))
    if kind == 0:
        return xast.BinOp(
            draw(st.sampled_from(["+", "*", "=", "<"])),
            draw(expressions(depth=depth + 1)),
            draw(expressions(depth=depth + 1)),
        )
    if kind == 1:
        return xast.IfExpr(
            draw(expressions(depth=depth + 1)),
            draw(expressions(depth=depth + 1)),
            draw(expressions(depth=depth + 1)),
        )
    if kind == 2:
        return xast.FLWOR(
            [xast.ForClause(draw(_vars), draw(expressions(depth=depth + 1)))],
            draw(expressions(depth=depth + 1)),
        )
    if kind == 3:
        return xast.FunctionCall(
            draw(st.sampled_from(["count", "sum", "f"])),
            [draw(expressions(depth=depth + 1))],
        )
    if kind == 4:
        return xast.IntervalProjection(
            draw(path_exprs()), xast.NowConstant(), xast.NowConstant()
        )
    return draw(path_exprs())


class TestASTRoundTrip:
    @given(expressions())
    @settings(max_examples=200, deadline=None)
    def test_render_parse_fixpoint(self, tree):
        rendered = to_source(xast.Module([], tree))
        reparsed = parse(rendered, xcql=True)
        assert to_source(reparsed) == rendered


# ---------------------------------------------------------------------------
# EventParser: chunk boundaries never change events, DOMs, or errors
# ---------------------------------------------------------------------------

_xml_names = st.sampled_from(["a", "b", "item", "ns:tag", "x-1", "_u"])
_xml_texts = st.lists(
    st.sampled_from(["x", "y z", "&amp;", "&lt;", "&#65;", "&#x41;", "\n", "é", "  "]),
    max_size=4,
).map("".join)
_xml_attr_values = st.sampled_from(["1", "a b", "&amp;", "&#x41;", "", "q'q"])
_xml_misc = st.sampled_from(
    ["<!-- a comment -->", "<![CDATA[ raw < & > ]]>", "<?pi data?>", "<?pi?>"]
)


@st.composite
def xml_elements(draw, depth=0):
    name = draw(_xml_names)
    attrs = draw(
        st.lists(
            st.tuples(_xml_names, _xml_attr_values),
            max_size=2,
            unique_by=lambda pair: pair[0],
        )
    )
    rendered_attrs = "".join(f' {key}="{value}"' for key, value in attrs)
    if depth >= 3 or draw(st.booleans()):
        if draw(st.booleans()):
            return f"<{name}{rendered_attrs}/>"
        return f"<{name}{rendered_attrs}>{draw(_xml_texts)}</{name}>"
    children = draw(
        st.lists(
            st.one_of(xml_elements(depth=depth + 1), _xml_texts, _xml_misc),
            min_size=1,
            max_size=3,
        )
    )
    return f"<{name}{rendered_attrs}>" + "".join(children) + f"</{name}>"


@st.composite
def chunk_cuts(draw, source):
    cuts = sorted(set(draw(st.lists(st.integers(0, len(source)), max_size=8))))
    chunks = []
    previous = 0
    for cut in cuts:
        chunks.append(source[previous:cut])
        previous = cut
    chunks.append(source[previous:])
    return chunks


# Near-XML junk: exercises every error path (stray "<", bad names, unclosed
# constructs, mismatched tags) as well as some accidentally well-formed input.
_xml_junk = st.text(alphabet="<>/ab&;=\"' \n!?-[]CDAT", max_size=40)


def _parse_outcome(chunks, keep_whitespace):
    """Events, or the error identity — whatever the chunked parse produces."""
    parser = EventParser(fragment=True, keep_whitespace=keep_whitespace)
    events = []
    try:
        for chunk in chunks:
            events.extend(parser.feed(chunk))
        events.extend(parser.close())
    except XMLParseError as exc:
        return ("error", str(exc), exc.line, exc.column)
    return ("ok", events)


def _shape(node):
    """A node's kind, name, attributes or text, and its children's shapes."""
    if isinstance(node, Element):
        return ("element", node.tag, node.attrs, [_shape(child) for child in node.children])
    return (type(node).__name__, getattr(node, "target", None), node.text)


class TestEventParserChunking:
    @given(st.data(), xml_elements(), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_chunked_events_match_whole(self, data, source, keep_whitespace):
        chunks = data.draw(chunk_cuts(source))
        whole = _parse_outcome([source], keep_whitespace)
        assert whole[0] == "ok"
        assert _parse_outcome(chunks, keep_whitespace) == whole

    @given(st.data(), xml_elements(), st.booleans(), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_chunked_dom_matches_whole(self, data, source, fragment, keep_whitespace):
        """The tree builder reads what the capture replay builds from chunked events."""
        chunks = data.draw(chunk_cuts(source))
        parser = EventParser(fragment=fragment, keep_whitespace=keep_whitespace)
        events = []
        for chunk in chunks:
            events.extend(parser.feed(chunk))
        events.extend(parser.close())
        replayed, _ = build_fragment_indexed(events)
        if fragment:
            built = parse_fragment(source, keep_whitespace)
            assert all(node.parent is None for node in built)
        else:
            built = parse_document(source, keep_whitespace).children
        assert [_shape(node) for node in built] == [_shape(node) for node in replayed]

    @given(st.data(), _xml_junk, st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_chunked_errors_match_whole(self, data, source, keep_whitespace):
        chunks = data.draw(chunk_cuts(source))
        assert _parse_outcome(chunks, keep_whitespace) == _parse_outcome(
            [source], keep_whitespace
        )


# ---------------------------------------------------------------------------
# EventParser (expat) where it reads unlike the hand tokenizer it replaced
# ---------------------------------------------------------------------------


def _expat_events(chunks, fragment=True, keep_whitespace=False):
    parser = EventParser(fragment=fragment, keep_whitespace=keep_whitespace)
    events = []
    for chunk in chunks:
        events += parser.feed(chunk)
    return events + parser.close()


def _events_or_rejected(text, fragment):
    try:
        return _expat_events([text], fragment)
    except XMLParseError:
        return "rejected"


_A = ("start", "a", {})
_END = ("end", "a")


class TestSettledDivergences:
    """One text per divergence docs/api.md lists: the hand tokenizer's
    reading, as it read the text before the parser moved to expat, then
    the expat-backed parser's."""

    @pytest.mark.parametrize(
        "text, fragment, hand, expat",
        [
            ('<a x="1\t2\n3"/>', True,
             [("start", "a", {"x": "1\t2\n3"}), _END], [("start", "a", {"x": "1 2 3"}), _END]),
            ("<a>1\r\n2\r3</a>", True, [_A, ("text", "1\r\n2\r3"), _END], [_A, ("text", "1\n2\n3"), _END]),
            ("<a>]]></a>", True, [_A, ("text", "]]>"), _END], "rejected"),
            ('<a x="<"/>', True, [("start", "a", {"x": "<"}), _END], "rejected"),
            ("<a>&#0;</a>", True, [_A, ("text", "\0"), _END], "rejected"),
            ("<a>\x01\ufffe\ud800</a>", True, [_A, ("text", "\x01\ufffe\ud800"), _END], "rejected"),
            ("<!-- a -- b -->", True, [("comment", " a -- b ")], "rejected"),
            ("<?pi!x?>", True, [("pi", "pi", "!x")], "rejected"),
            ("<a>&#32;</a>", True, [_A, ("text", " "), _END], [_A, _END]),
            ("<é/>", True, "rejected", [("start", "é", {}), ("end", "é")]),
            ('<a/><?xml version="1.0"?>', True, [_A, _END, ("pi", "xml", 'version="1.0"')], "rejected"),
            ("<!DOCTYPE a [ junk ]><a/>", False, [_A, _END], "rejected"),
            ("<!DOCTYPE a [<!--c-->]><a/>", False, [_A, _END], [("comment", "c"), _A, _END]),
            ('<!DOCTYPE a [<!ENTITY e "x">]><a b="&e;"/>', False,
             "rejected", [("start", "a", {"b": "x"}), _END]),
        ],
    )
    def test_divergence(self, text, fragment, hand, expat):
        assert hand != expat
        assert _events_or_rejected(text, fragment) == expat

    #: Read alike by both: the hand tokenizer's reading is expat's.
    DOCTYPES = {
        '<!DOCTYPE a [<!ENTITY e "x">]><a>&e;</a>': "rejected",
        '<!DOCTYPE a [<!ATTLIST a z CDATA "d">]><a/>': [_A, _END],
        '<!DOCTYPE a SYSTEM "a.dtd"><a>&e;</a>': "rejected",
    }

    @pytest.mark.parametrize("text", list(DOCTYPES))
    def test_doctype_read_alike(self, text):
        """A declared entity stays unknown in content; ATTLIST defaults
        are not added."""
        assert _events_or_rejected(text, False) == self.DOCTYPES[text]
