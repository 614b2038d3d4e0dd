"""Tests for the XML node model, parser and serializer (repro.dom)."""

import pytest
from hypothesis import given, strategies as st

from repro.dom import (
    Attr,
    Comment,
    Document,
    Element,
    ProcessingInstruction,
    Text,
    XMLParseError,
    parse_document,
    parse_fragment,
    serialize,
)
from repro.dom.nodes import document_order_key, sort_document_order


class TestNodeModel:
    def test_append_sets_parent(self):
        parent = Element("a")
        child = parent.append(Element("b"))
        assert child.parent is parent
        assert parent.children == [child]

    def test_reparenting_detaches(self):
        first = Element("a")
        second = Element("b")
        child = first.append(Element("c"))
        second.append(child)
        assert first.children == []
        assert child.parent is second

    def test_remove(self):
        parent = Element("a")
        child = parent.append(Element("b"))
        parent.remove(child)
        assert child.parent is None
        assert parent.children == []

    def test_insert(self):
        parent = Element("a")
        parent.append(Element("x"))
        parent.insert(0, Element("first"))
        assert parent.children[0].tag == "first"

    def test_string_value_concatenates_descendant_text(self):
        root = parse_document("<a>one<b>two</b>three</a>").document_element
        assert root.string_value() == "onetwothree"

    def test_element_text_direct_children_only(self):
        root = parse_document("<a>one<b>two</b></a>").document_element
        assert root.text() == "one"

    def test_first_and_child_elements(self):
        root = parse_document("<a><b>1</b><c/><b>2</b></a>").document_element
        assert root.first("b").text() == "1"
        assert len(root.child_elements("b")) == 2
        assert root.first("zzz") is None

    def test_attribute_helpers(self):
        element = Element("a", {"x": "1"})
        element.set("y", "2")
        assert element.get("x") == "1"
        assert element.get("missing", "dflt") == "dflt"
        names = [attr.name for attr in element.attribute_nodes()]
        assert names == ["x", "y"]

    def test_copy_is_deep_and_detached(self):
        root = parse_document('<a p="1"><b>t</b></a>').document_element
        clone = root.copy()
        assert clone.parent is None
        assert serialize(clone) == serialize(root)
        clone.children[0].append(Text("more"))
        assert serialize(clone) != serialize(root)

    def test_ancestors_and_root(self):
        document = parse_document("<a><b><c/></b></a>")
        root = document.document_element
        c = root.children[0].children[0]
        assert c.root() is document
        detached = Element("solo")
        assert detached.root() is detached


class TestDocumentOrder:
    def test_sorted_after_shuffle(self):
        root = parse_document("<a><b/><c/><d><e/></d></a>").document_element
        nodes = list(root.iter())[1:]
        shuffled = [nodes[2], nodes[0], nodes[3], nodes[1]]
        assert [n.tag for n in sort_document_order(shuffled)] == ["b", "c", "d", "e"]

    def test_dedup(self):
        root = parse_document("<a><b/></a>").document_element
        b = root.children[0]
        assert sort_document_order([b, b, root]) == [root, b]

    def test_order_recomputed_after_mutation(self):
        root = parse_document("<a><b/></a>").document_element
        b = root.children[0]
        key_before = document_order_key(b)
        root.insert(0, Element("new"))
        assert document_order_key(b) > key_before

    def test_attr_ordered_with_owner(self):
        root = parse_document('<a x="1"><b/></a>').document_element
        attr = root.attribute_nodes()[0]
        b = root.children[0]
        assert document_order_key(attr) <= document_order_key(b)


class TestParser:
    def test_basic(self):
        document = parse_document('<a x="1"><b>hi</b></a>')
        root = document.document_element
        assert root.tag == "a"
        assert root.attrs == {"x": "1"}
        assert root.children[0].text() == "hi"

    def test_self_closing(self):
        root = parse_document("<a><b/></a>").document_element
        assert root.children[0].children == []

    def test_entities_in_text_and_attrs(self):
        root = parse_document('<a t="&lt;&amp;&quot;">&#65;&#x42;&gt;</a>').document_element
        assert root.attrs["t"] == '<&"'
        assert root.text() == "AB>"

    def test_unknown_entity_rejected(self):
        with pytest.raises(XMLParseError):
            parse_document("<a>&nope;</a>")

    def test_cdata(self):
        root = parse_document("<a><![CDATA[<raw> & stuff]]></a>").document_element
        assert root.text() == "<raw> & stuff"

    def test_comment_and_pi(self):
        document = parse_document("<?xml version='1.0'?><!--c--><a><?p data?></a>")
        assert isinstance(document.children[0], Comment)
        pi = document.document_element.children[0]
        assert isinstance(pi, ProcessingInstruction)
        assert pi.target == "p"

    def test_doctype_skipped(self):
        document = parse_document(
            "<!DOCTYPE a [ <!ELEMENT a (#PCDATA)> ]><a>x</a>"
        )
        assert document.document_element.text() == "x"

    def test_whitespace_dropped_by_default(self):
        root = parse_document("<a>\n  <b/>\n</a>").document_element
        assert all(not isinstance(c, Text) for c in root.children)

    def test_whitespace_kept_on_request(self):
        root = parse_document("<a>\n  <b/>\n</a>", keep_whitespace=True).document_element
        assert any(isinstance(c, Text) for c in root.children)

    def test_namespace_prefixes_kept(self):
        root = parse_document("<stream:structure><tag/></stream:structure>").document_element
        assert root.tag == "stream:structure"

    @pytest.mark.parametrize(
        "bad",
        [
            "<a>",
            "<a></b>",
            "<a x=1/>",
            "<a x='1' x='2'/>",
            "<a/><b/>",
            "text only",
            "<a><b></a></b>",
        ],
    )
    def test_errors(self, bad):
        with pytest.raises(XMLParseError):
            parse_document(bad)

    def test_error_carries_position(self):
        try:
            parse_document("<a>\n<b></c></a>")
        except XMLParseError as error:
            assert error.line == 2
        else:
            pytest.fail("expected XMLParseError")

    @pytest.mark.parametrize(
        "bad", ["<a>&#xZZ;</a>", "<a>&#;</a>", "<a>&#1114112;</a>", '<a x="&#xq;"/>']
    )
    def test_malformed_character_reference_is_positioned(self, bad):
        with pytest.raises(XMLParseError) as caught:
            parse_fragment(bad)
        assert caught.value.line == 1

    def test_parse_fragment_multiple_siblings(self):
        nodes = parse_fragment("<a/>text<b/>")
        assert len(nodes) == 3
        assert isinstance(nodes[1], Text)

    def test_parse_fragment_with_declaration(self):
        nodes = parse_fragment("<?xml version='1.0'?><a/>")
        assert len(nodes) == 1


class TestSerializer:
    def test_escaping(self):
        element = Element("a", {"t": 'x"<'})
        element.add_text("a<b&c")
        out = serialize(element)
        assert out == '<a t="x&quot;&lt;">a&lt;b&amp;c</a>'

    def test_pretty_print(self):
        out = serialize(parse_document("<a><b><c/></b></a>"), indent="  ")
        assert out == "<a>\n  <b>\n    <c/>\n  </b>\n</a>"

    def test_mixed_content_not_indented(self):
        out = serialize(parse_document("<a>hi<b/></a>"), indent="  ")
        assert out == "<a>hi<b/></a>"

    def test_xml_declaration(self):
        out = serialize(Element("a"), xml_declaration=True)
        assert out.startswith("<?xml")

    def test_document_roundtrip(self):
        text = '<a x="1"><b>hi &amp; bye</b><c/><!--note--></a>'
        assert serialize(parse_document(text)) == text


_tag_names = st.sampled_from(["a", "b", "c", "data", "x-y", "ns:t"])
_texts = st.text(
    # Tab and line ends round-trip only as references; U+FFFE / U+FFFF are
    # not XML characters, so no document can hold them.
    alphabet=st.characters(
        blacklist_categories=("Cs", "Cc"),
        blacklist_characters="<>&\ufffe\uffff",
        whitelist_characters="\t\n\r",
    ),
    min_size=1,
    max_size=20,
).filter(lambda s: s.strip())


@st.composite
def _elements(draw, depth=0):
    element = Element(draw(_tag_names))
    for name in draw(st.lists(st.sampled_from(["p", "q", "r"]), max_size=2, unique=True)):
        element.set(name, draw(_texts))
    if depth < 3:
        for _ in range(draw(st.integers(0, 3))):
            if draw(st.booleans()):
                element.append(draw(_elements(depth=depth + 1)))
            else:
                element.append(Text(draw(_texts)))
    return element


class TestRoundTripProperty:
    @given(_elements())
    def test_serialize_parse_round_trip(self, element):
        document = Document()
        document.append(element)
        text = serialize(document)
        reparsed = parse_document(text, keep_whitespace=True)
        assert serialize(reparsed) == text
