"""Property-based tests for the XQuery/XCQL and XML parsers.

Random ASTs are rendered with ``to_source`` and re-parsed: the second
render must be identical (render∘parse is a projection).  Random evaluable
expressions additionally round-trip through evaluation with equal results.
Random XML fed to the incremental :class:`EventParser` at arbitrary chunk
boundaries must produce the same events, the same DOM, and the same errors
as a whole-string parse, and siblings of a shape a ``ShapeMemo`` compiled
must read through the memo exactly as the tokenizer reads them.
"""

from hypothesis import given, settings, strategies as st

from repro.dom.parser import (
    SHAPE_AFTER,
    EventParser,
    ShapeMemo,
    XMLParseError,
    build_fragment,
    parse_fragment,
)
from repro.dom.serializer import serialize
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
# ShapeMemo: a replayed shape reads exactly like the tokenizer

_MEMO_NAMES = ["filler", "a", "b", "ns:t", "x-1"]
_memo_names = st.sampled_from(_MEMO_NAMES)
_memo_texts = st.sampled_from(["", "5", "y z", "12.50", "é"])
_memo_values = st.sampled_from(["1", "a b", "", "2004-01-01"])

# Changes a compiled shape must replay (the tokenizer reads them as plain
# text and values) and changes only the tokenizer may read.
_REPLAYED_TEXTS = ["  \n\t", "\xa0", ">", "]]>", "a > b"]
_TOKENIZED_TEXTS = [
    "&amp;", "&#65;", "&#x41;", "&nope;", "<!-- c -->", "<![CDATA[ x ]]>", "<?pi x?>",
]
_REPLAYED_VALUES = [">", "x'y", 'x"y']
_TOKENIZED_VALUES = ["a<b", "&amp;", "&#65;", "&nope;"]
_REPLAYED_LEADS = ["  ", "\xa0", "\n lead "]
_TOKENIZED_LEADS = ['<?xml version="1.0"?>', "<!-- c -->", "<?pi x?>", "&amp;"]
_REPLAYED_TRAILS = [" ", "tail", "\xa0"]
_TOKENIZED_TRAILS = ["<!-- c -->", "&amp;", "</zz>", "<![CDATA[]]>"]


@st.composite
def shape_trees(draw, depth=0):
    """``(name, attrs, children)``: plain text, no references or markup but tags."""
    name = draw(_memo_names)
    keys = draw(st.permutations(_MEMO_NAMES))[: draw(st.integers(0, 3))]
    attrs = [(key, draw(_memo_values)) for key in keys]
    if depth >= 2 or draw(st.booleans()):
        return (name, attrs, [draw(_memo_texts)])
    children = []
    for child in draw(st.lists(shape_trees(depth=depth + 1), min_size=1, max_size=2)):
        children += [draw(_memo_texts), child]
    return (name, attrs, children + [draw(_memo_texts)])


class _Rendering:
    """One text of a tree.  The base (``draw`` None) is the plain rendering;
    a sibling draws a change at every point — at most ``tokenized`` of them
    (0 or 1) one only the tokenizer may read — and stays ``replayable``
    while each change it made is one a compiled shape must replay."""

    def __init__(self, draw=None, tokenized=0):
        self.draw = draw
        self.tokenized = tokenized
        self.replayable = True

    def pick(self, original, replayed=(), tokenized=()):
        if self.draw is None or not self.draw(st.booleans()):
            return original
        options = list(replayed) + (list(tokenized) if self.tokenized else [])
        if not options:
            return original
        choice = self.draw(st.integers(0, len(options) - 1))
        if choice >= len(replayed):
            self.tokenized -= 1
            self.replayable = False
        return options[choice]

    def text(self, trees) -> str:
        lead = self.pick("", _REPLAYED_LEADS, _TOKENIZED_LEADS)
        trail = self.pick("", _REPLAYED_TRAILS, _TOKENIZED_TRAILS)
        text = lead + "".join(self.element(tree) for tree in trees) + trail
        tail = self.pick("", (), ("truncated", "mismatched"))
        if tail == "truncated":
            text = text[: self.draw(st.integers(0, len(text) - 1))]
        elif tail == "mismatched":
            cut = text.rfind("</")
            text = text[:cut] + "</zz" + text[text.index(">", cut):] if cut >= 0 else text + "</zz>"
        return text

    def element(self, node) -> str:
        name, attrs, children = node
        if len(attrs) > 1 and self.pick(False, (), (True,)):
            attrs = attrs[1:] + attrs[:1]  # another order
        out = [f"<{name}"]
        for key, value in attrs:
            value = self.pick(value, _REPLAYED_VALUES, _TOKENIZED_VALUES)
            quote = "'" if '"' in value else '"'
            if "'" not in value:
                quote = self.pick(quote, ("'",))
            out.append(self.pick(" ", ("\n ", " \t")) + key)
            out.append(self.pick("=", (" = ", "\n=\t")) + quote + value + quote)
        out.append(self.pick("", (" ", "\n")))
        if len(children) == 1:
            text = self.pick(children[0], _REPLAYED_TEXTS, _TOKENIZED_TEXTS)
            if self.pick(text == "", (text != "",)):
                return "".join(out) + "/>"
            return "".join(out) + f">{text}</{name}{self.pick('', (' ',))}>"
        out.append(">")
        for child in children:
            if isinstance(child, str):
                out.append(self.pick(child, _REPLAYED_TEXTS, _TOKENIZED_TEXTS))
            else:
                out.append(self.element(child))
        return "".join(out) + f"</{name}{self.pick('', (' ', chr(10)))}>"


def _outcome(read, text):
    """Events, or the error's type, message and position."""
    try:
        return ("ok", read(text))
    except ValueError as exc:
        return ("error", type(exc), str(exc), getattr(exc, "line", None),
                getattr(exc, "column", None))


def _tokenize(text):
    parser = EventParser(fragment=True)
    events = parser.feed(text)
    return events + parser.close()


class TestShapeMemoExactness:
    """Past ``SHAPE_AFTER`` sightings a shape is compiled; from then on every
    sibling of it reads exactly like the tokenizer (events, or an equal
    error), and every sibling the shape must replay is a hit."""

    @given(st.data(), st.lists(shape_trees(), min_size=1, max_size=2))
    @settings(deadline=None)
    def test_siblings_read_like_the_tokenizer(self, data, trees):
        base = _Rendering().text(trees)
        memo = ShapeMemo()
        for _ in range(SHAPE_AFTER):
            assert memo.events(base) == _tokenize(base)
        assert memo.stats()["compiled"] == 1
        family = [base] + [
            _Rendering(data.draw, data.draw(st.integers(0, 1))) for _ in range(4)
        ]
        for sibling in family:
            text = sibling if isinstance(sibling, str) else sibling.text(trees)
            hits = memo.hits
            assert _outcome(memo.events, text) == _outcome(_tokenize, text), text
            if isinstance(sibling, str) or sibling.replayable:
                assert memo.hits == hits + 1, text
