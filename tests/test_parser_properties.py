"""Property-based tests for the XQuery/XCQL and XML parsers.

Random ASTs are rendered with ``to_source`` and re-parsed: the second
render must be identical (render∘parse is a projection).  Random evaluable
expressions additionally round-trip through evaluation with equal results.
Random XML fed to the incremental :class:`EventParser` at arbitrary chunk
boundaries must produce the same events, the same DOM, and the same errors
as a whole-string parse, and must read like the hand-written tokenizer it
replaced (``tests/hand_tokenizer.py``) but for the divergences
``docs/api.md`` lists.
"""

import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.dom.parser import (
    EventParser,
    XMLParseError,
    build_fragment,
    parse_fragment,
)
from repro.dom.serializer import serialize
from repro.xquery import evaluate, parse, to_source
from repro.xquery import xast
from tests.hand_tokenizer import hand_events

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


class TestEventParserChunking:
    @given(st.data(), xml_elements(), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_chunked_events_match_whole(self, data, source, keep_whitespace):
        chunks = data.draw(chunk_cuts(source))
        whole = _parse_outcome([source], keep_whitespace)
        assert whole[0] == "ok"
        assert _parse_outcome(chunks, keep_whitespace) == whole

    @given(st.data(), xml_elements())
    @settings(max_examples=100, deadline=None)
    def test_chunked_dom_matches_whole(self, data, source):
        chunks = data.draw(chunk_cuts(source))
        parser = EventParser(fragment=True)
        events = []
        for chunk in chunks:
            events.extend(parser.feed(chunk))
        events.extend(parser.close())
        chunked_dom = "".join(serialize(node) for node in build_fragment(events))
        whole_dom = "".join(serialize(node) for node in parse_fragment(source))
        assert chunked_dom == whole_dom

    @given(st.data(), _xml_junk, st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_chunked_errors_match_whole(self, data, source, keep_whitespace):
        chunks = data.draw(chunk_cuts(source))
        assert _parse_outcome(chunks, keep_whitespace) == _parse_outcome(
            [source], keep_whitespace
        )


# ---------------------------------------------------------------------------
# EventParser (expat) against the hand tokenizer it replaced

_TREE_NAMES = ["filler", "a", "b", "ns:t", "x-1"]
_tree_names = st.sampled_from(_TREE_NAMES)
_tree_texts = st.sampled_from(["", "5", "y z", "12.50", "é"])
_tree_values = st.sampled_from(["1", "a b", "", "2004-01-01"])


@st.composite
def shape_trees(draw, depth=0):
    """``(name, attrs, children)``: plain text, no references or markup but tags."""
    name = draw(_tree_names)
    keys = draw(st.permutations(_TREE_NAMES))[: draw(st.integers(0, 3))]
    attrs = [(key, draw(_tree_values)) for key in keys]
    if depth >= 2 or draw(st.booleans()):
        return (name, attrs, [draw(_tree_texts)])
    children = []
    for child in draw(st.lists(shape_trees(depth=depth + 1), min_size=1, max_size=2)):
        children += [draw(_tree_texts), child]
    return (name, attrs, children + [draw(_tree_texts)])


# What a rendering may put in place of a plain piece.  A variant paired with
# a name is a settled divergence (_DIVERGENCES): both parsers read the
# others alike, errors included.
_TEXTS = [
    "  \n\t", "\xa0", ">", "a > b", "&amp;", "&#65;", "&#x41;", "&nope;",
    "<!-- c -->", "<![CDATA[ x ]]>", "<![CDATA[]]>", "<?pi x?>", "<?pi\tx ?>",
    ("]]>", "cdata-close-in-content"),
    ("a\r\nb", "line-ends"),
    ("&#32;", "space-reference-only-text"),
    ("&#0;", "non-character-reference"),
    ("<?xml version='1.0'?>", "xml-declaration-later"),
]
_VALUES = [
    ">", "x'y", 'x"y', "&amp;", "&#65;", "&#x9;", "&nope;", "]]>",
    ("a\tb", "whitespace-in-attribute-value"),
    ("a\nb", "whitespace-in-attribute-value"),
    ("a<b", "lt-in-attribute-value"),
]
_LEADS = ["  ", "\xa0", "\n lead ", '<?xml version="1.0"?>', " \n<?xml?>\n", "<!-- c -->", "<?pi x?>", "&amp;"]
_TRAILS = [" ", "tail", "\xa0", "<!-- c -->", "&amp;", "</zz>", "<![CDATA[]]>"]


class _Rendering:
    """One text of a tree: every point may draw a variant, of which at most
    one is a settled divergence, named in ``divergence``."""

    def __init__(self, draw):
        self.draw = draw
        self.divergence = None

    def pick(self, original, variants=()):
        if not self.draw(st.booleans()):
            return original
        options = [
            v for v in variants if not isinstance(v, tuple) or self.divergence is None
        ]
        if not options:
            return original
        choice = options[self.draw(st.integers(0, len(options) - 1))]
        if not isinstance(choice, tuple):
            return choice
        choice, self.divergence = choice
        return choice

    def text(self, trees) -> str:
        lead = self.pick("", _LEADS)
        trail = self.pick("", _TRAILS)
        text = lead + "".join(self.element(tree) for tree in trees) + trail
        tail = self.pick("", ("truncated", "mismatched"))
        if tail == "truncated" and text:
            text = text[: self.draw(st.integers(0, len(text) - 1))]
        elif tail == "mismatched":
            cut = text.rfind("</")
            text = text[:cut] + "</zz" + text[text.index(">", cut):] if cut >= 0 else text + "</zz>"
        return text

    def element(self, node) -> str:
        name, attrs, children = node
        if len(attrs) > 1 and self.pick(False, (True,)):
            attrs = attrs[1:] + attrs[:1]  # another order
        out = [f"<{name}"]
        for key, value in attrs:
            value = self.pick(value, _VALUES)
            quote = "'" if '"' in value else '"'
            if "'" not in value:
                quote = self.pick(quote, ("'",))
            out.append(self.pick(" ", ("\n ", " \t")) + key)
            out.append(self.pick("=", (" = ", "\n=\t")) + quote + value + quote)
        out.append(self.pick("", (" ", "\n")))
        if len(children) == 1:
            text = self.pick(children[0], _TEXTS)
            if self.pick(text == "", (text != "",)):
                return "".join(out) + "/>"
            return "".join(out) + f">{text}</{name}{self.pick('', (' ',))}>"
        out.append(">")
        for child in children:
            if isinstance(child, str):
                out.append(self.pick(child, _TEXTS))
            else:
                out.append(self.element(child))
        return "".join(out) + f"</{name}{self.pick('', (' ', chr(10)))}>"


def _expat_events(chunks, fragment=True, keep_whitespace=False):
    parser = EventParser(fragment=fragment, keep_whitespace=keep_whitespace)
    events = []
    for chunk in chunks:
        events += parser.feed(chunk)
    return events + parser.close()


def _verdict(read, *args):
    """``("ok", events)`` or ``("error", line, message)``."""
    try:
        return ("ok", read(*args))
    except XMLParseError as exc:
        return ("error", exc.line, str(exc))


def _rejected(got) -> bool:
    return got[0] == "error"


def _lines_with(text: str, needle: str) -> set:
    return {text.count("\n", 0, m.start()) + 1 for m in re.finditer(re.escape(needle), text)}


def _after_quote(text: str, error) -> bool:
    """Whether the hand tokenizer's ``error`` is placed after a quote."""
    line, column = error[1], int(error[2].rsplit(" ", 1)[1])
    offset = sum(len(row) + 1 for row in text.split("\n")[: line - 1]) + column - 1
    return text[offset - 1 : offset] in ("'", '"')


def _reads_as(*rewrites):
    """Expat reads the text as the hand tokenizer reads it rewritten."""

    def holds(text, expected, got, read):
        for old, new in rewrites:
            text = text.replace(old, new)
        return got[:2] == read(text)[:2]

    return holds


_DECODE_ERRORS = ("unknown entity", "unterminated entity", "malformed character")

# Each settled divergence (docs/api.md), by name: when a text may show it
# (the rendering drew it, or ``shows(text, expected, got)``), and what
# expat's reading must then be (``holds``, given the hand tokenizer's
# reading and ``read``, the hand tokenizer itself).
_DIVERGENCES = {
    # Attribute-value normalization: a literal tab or newline reads as a space.
    "whitespace-in-attribute-value": (None, _reads_as(("a\tb", "a b"), ("a\nb", "a b"))),
    # Line-end normalization: "\r\n" reads as "\n".
    "line-ends": (None, _reads_as(("\r\n", "\n"))),
    # Whitespace-only text is dropped after references are expanded.
    "space-reference-only-text": (None, _reads_as(("&#32;", " "))),
    # "]]>" outside a CDATA section is not well-formed: rejected at the first.
    "cdata-close-in-content": (
        lambda text, expected, got: "]]>" in text,
        lambda text, expected, got, read: _rejected(got)
        and got[1] in _lines_with(text, "]]>")
        and (expected[0] == "ok" or got[1] <= expected[1]),
    ),
    # "<" in an attribute value is not well-formed.
    "lt-in-attribute-value": (None, lambda text, expected, got, read: _rejected(got)),
    # "&#0;" names no XML character.
    "non-character-reference": (None, lambda text, expected, got, read: _rejected(got)),
    # Only the input's first construct may be an XML declaration.
    "xml-declaration-later": (None, lambda text, expected, got, read: _rejected(got)),
    # A bad reference is placed at the reference, not at the end of its
    # run; in an attribute value, only once the rest of its tag is read.
    "error-in-run": (
        lambda text, expected, got: _rejected(expected)
        and expected[2].startswith(_DECODE_ERRORS),
        lambda text, expected, got, read: _rejected(got)
        and (got[1] <= expected[1] or _after_quote(text, expected)),
    ),
    # Document mode: text before the root element is rejected by both, but
    # expat reads quoted literals there (DOCTYPE tokens), so not always
    # on the line the hand tokenizer stopped at.
    "text-before-root": (
        lambda text, expected, got: _rejected(expected)
        and expected[2].startswith("expected document element"),
        lambda text, expected, got, read: _rejected(got),
    ),
    # An attribute value cut off by the end of input is placed where the
    # input ends, not at the value's opening quote.
    "unterminated-value": (
        lambda text, expected, got: _rejected(expected)
        and expected[2].startswith("unterminated construct"),
        lambda text, expected, got, read: _rejected(got) and got[1] >= expected[1],
    ),
    # Markup cut off by the end of input is placed at its "<", not at the end.
    "unclosed-token": (
        lambda text, expected, got: _rejected(got) and got[2].startswith("unclosed token"),
        lambda text, expected, got, read: _rejected(expected) and got[1] <= expected[1],
    ),
}


def _assert_reads_alike(text, chunks, fragment=True, keep_whitespace=False, drawn=None):
    def read(source):
        return _verdict(hand_events, [source], fragment, keep_whitespace)

    expected = read(text)
    got = _verdict(_expat_events, chunks, fragment, keep_whitespace)
    if expected[:2] == got[:2]:
        return
    names = {drawn} - {None} | {
        name for name, (shows, _) in _DIVERGENCES.items() if shows and shows(text, expected, got)
    }
    assert names, (text, expected, got)
    assert any(
        _DIVERGENCES[name][1](text, expected, got, read) for name in names
    ), (text, sorted(names), expected, got)


class TestExpatReadsLikeTheHandTokenizer:
    """On every text the expat-backed parser gives the hand tokenizer's
    events, or rejects it on the same line — except where the text shows a
    settled divergence, which then holds as ``_DIVERGENCES`` states it."""

    @given(st.data(), st.lists(shape_trees(), min_size=1, max_size=2), st.booleans())
    @settings(deadline=None)
    def test_renderings(self, data, trees, keep_whitespace):
        rendering = _Rendering(data.draw)
        text = rendering.text(trees)
        fragment = len(trees) > 1 or data.draw(st.booleans())
        _assert_reads_alike(
            text, data.draw(chunk_cuts(text)), fragment, keep_whitespace, rendering.divergence
        )

    @given(st.data(), _xml_junk, st.booleans())
    @settings(deadline=None)
    def test_junk(self, data, text, fragment):
        _assert_reads_alike(text, data.draw(chunk_cuts(text)), fragment)

    @given(st.data(), xml_elements())
    @settings(deadline=None)
    def test_elements(self, data, source):
        _assert_reads_alike(source, data.draw(chunk_cuts(source)))


def _events_or_rejected(read, text, fragment):
    try:
        return read([text], fragment)
    except XMLParseError:
        return "rejected"


_A = ("start", "a", {})
_END = ("end", "a")


class TestSettledDivergences:
    """One text per divergence docs/api.md lists: the hand tokenizer's
    reading, then the expat-backed parser's."""

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
        assert _events_or_rejected(hand_events, text, fragment) == hand
        assert _events_or_rejected(_expat_events, text, fragment) == expat

    @pytest.mark.parametrize(
        "text",
        [
            '<!DOCTYPE a [<!ENTITY e "x">]><a>&e;</a>',
            '<!DOCTYPE a [<!ATTLIST a z CDATA "d">]><a/>',
            '<!DOCTYPE a SYSTEM "a.dtd"><a>&e;</a>',
        ],
    )
    def test_doctype_read_alike(self, text):
        """A declared entity stays unknown in content; ATTLIST defaults
        are not added."""
        assert _events_or_rejected(_expat_events, text, False) == _events_or_rejected(
            hand_events, text, False
        )
