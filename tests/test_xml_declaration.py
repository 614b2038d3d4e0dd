"""The lead of a text: an XML declaration is skipped, a ``<?xml…`` PI is not.

``<?xml`` opens the declaration only when whitespace follows it;
``<?xml-stylesheet href="a"?>`` leading a document is a processing
instruction and survives ``parse_document``, ``parse_fragment`` and
``iter_events`` however the text is split into chunks.  Skipping a real
declaration still moves every error position by what was skipped.
"""

from __future__ import annotations

import pytest

from repro.dom.nodes import ProcessingInstruction
from repro.dom.parser import XMLParseError, iter_events, parse_document, parse_fragment
from repro.dom.serializer import serialize


def _splits(text: str):
    """``text`` as one string and as two chunks at every offset."""
    yield text
    for at in range(len(text) + 1):
        yield [text[:at], text[at:]]


def _events(source, fragment=False):
    try:
        return list(iter_events(source, fragment=fragment))
    except XMLParseError as exc:
        return ("error", exc.line, exc.column)


KEPT = [
    '<?xml-stylesheet href="a"?><r/>',
    '  <?xmlfoo x?><r/>',
    '<?xml-model?>\n<r/>',
    '<?xml version="1.0"?><?xml-stylesheet href="a"?><r/>',
]


class TestLeadingProcessingInstruction:
    @pytest.mark.parametrize("text", KEPT)
    def test_document_keeps_it(self, text):
        document = parse_document(text)
        (pi,) = [node for node in document.children if isinstance(node, ProcessingInstruction)]
        assert pi.target.startswith("xml")
        assert serialize(document) == serialize(pi) + "<r/>"

    def test_the_reported_text_round_trips(self):
        text = '<?xml-stylesheet href="a"?><r/>'
        assert serialize(parse_document(text)) == text

    @pytest.mark.parametrize("text", KEPT)
    def test_fragment_keeps_it(self, text):
        nodes = parse_fragment(text)
        assert isinstance(nodes[0], ProcessingInstruction)
        assert [serialize(node) for node in nodes][-1] == "<r/>"

    @pytest.mark.parametrize("fragment", [False, True])
    @pytest.mark.parametrize("text", KEPT)
    def test_events_at_every_chunk_split(self, text, fragment):
        whole = _events(text, fragment)
        assert whole[0][0] == "pi" and whole[0][1].startswith("xml")
        for source in _splits(text):
            assert _events(source, fragment) == whole, source


class TestDeclarationIsStillSkipped:
    @pytest.mark.parametrize(
        "text",
        [
            '<?xml version="1.0"?><r/>',
            '\n  <?xml\tversion="1.0" encoding="utf-8"?>\n<r/>',
            '<?xml\nversion="1.0"?><r/>',
            '<?xml\rversion="1.0"?><r/>',
        ],
    )
    def test_no_event_and_no_node(self, text):
        for source in _splits(text):
            assert _events(source) == [("start", "r", {}), ("end", "r")], source
        assert serialize(parse_document(text)) == "<r/>"
        assert [serialize(node) for node in parse_fragment(text)] == ["<r/>"]

    @pytest.mark.parametrize(
        "text, position",
        [
            ('<?xml version="1.0"?>\n<r><a></r>', (2, 9)),
            ('  <?xml version="1.0"?><r>&bad;</r>', (1, 27)),
            ('<?xml version="1.0"', (1, 1)),
            ("<?xml", (1, 1)),
            ('\n<?xml\tversion="1.0"?>\n\n  <r></x>', (4, 8)),
            ('<?xml-stylesheet href="a"?><r></x>', (1, 33)),
        ],
    )
    def test_error_positions_at_every_chunk_split(self, text, position):
        for source in _splits(text):
            assert _events(source) == ("error", *position), source
        with pytest.raises(XMLParseError) as caught:
            parse_document(text)
        assert (caught.value.line, caught.value.column) == position

    def test_an_unterminated_declaration_is_named(self):
        with pytest.raises(XMLParseError, match="unterminated XML declaration"):
            parse_document('<?xml version="1.0"')
