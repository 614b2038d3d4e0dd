"""Tests for tag-name compression (paper §4.1 extension)."""

import pytest

from repro import Fragmenter, SimulatedClock, StreamClient, StreamServer, TagStructure
from repro.dom import Element, parse_document, serialize
from repro.streams.compression import CompressingChannel, TagCodec
from repro.temporal import XSDateTime
from repro.xmark import auction_tag_structure, generate_auction_document

from tests.conftest import CREDIT_TAG_STRUCTURE_XML


@pytest.fixture()
def codec():
    return TagCodec(TagStructure.from_xml(CREDIT_TAG_STRUCTURE_XML))


class TestTagCodec:
    def test_codes_assigned_in_preorder(self, codec):
        assert codec.encode(Element("creditAccounts")).tag == "t1"
        assert codec.encode(Element("account")).tag == "t2"
        assert len(codec) == 8

    def test_structural_names_preserved(self, codec):
        assert codec.encode(Element("hole")).tag == "hole"
        assert codec.encode(Element("filler")).tag == "filler"

    def test_unknown_names_pass_through(self, codec):
        assert codec.encode(Element("zzz")).tag == "zzz"
        assert codec.decode(Element("zzz")).tag == "zzz"

    def test_encode_decode_element_round_trip(self, codec):
        element = parse_document(
            "<account id='1'><customer>X</customer>"
            "<hole id='5' tsid='4'/></account>"
        ).document_element
        encoded = codec.encode(element)
        assert encoded.tag == "t2"
        assert encoded.first("hole") is not None  # holes untouched
        assert serialize(codec.decode(encoded)) == serialize(element)

    def test_attributes_and_text_preserved(self, codec):
        element = parse_document("<customer a='b'>John &amp; co</customer>").document_element
        round_tripped = codec.decode(codec.encode(element))
        assert serialize(round_tripped) == serialize(element)

    def test_wire_round_trip(self, codec):
        payload = (
            '<filler id="3" tsid="5" validTime="2003-10-23T12:23:34">'
            '<transaction id="1"><vendor>V</vendor><amount>38</amount>'
            "</transaction></filler>"
        )
        encoded = codec.encode_wire(payload)
        assert "transaction" not in encoded
        assert codec.decode_wire(encoded) == payload

    def test_encoding_shrinks_wire(self, codec):
        payload = (
            '<filler id="3" tsid="5" validTime="2003-10-23T12:23:34">'
            '<transaction id="1"><vendor>V</vendor><amount>38</amount>'
            "</transaction></filler>"
        )
        assert len(codec.encode_wire(payload)) < len(payload)


class TestDecompressIter:
    PAYLOAD = (
        '<filler id="3" tsid="5" validTime="2003-10-23T12:23:34">'
        '<transaction id="1"><vendor>V &amp; W</vendor><amount>38</amount>'
        "</transaction></filler>"
    )

    def test_matches_decode_wire(self, codec):
        encoded = codec.encode_wire(self.PAYLOAD)
        streamed = "".join(codec.decompress_iter([encoded]))
        assert streamed == codec.decode_wire(encoded) == self.PAYLOAD

    def test_every_split_point_is_equivalent(self, codec):
        encoded = codec.encode_wire(self.PAYLOAD)
        for cut in range(len(encoded) + 1):
            chunks = [encoded[:cut], encoded[cut:]]
            assert "".join(codec.decompress_iter(chunks)) == self.PAYLOAD, cut

    def test_single_character_chunks(self, codec):
        encoded = codec.encode_wire(self.PAYLOAD)
        assert "".join(codec.decompress_iter(iter(encoded))) == self.PAYLOAD

    def test_opaque_sections_pass_through(self, codec):
        wire = "<t2><!-- t2 stays --><![CDATA[<t2>]]><?pi t2?>x</t2>"
        decoded = "".join(codec.decompress_iter([wire]))
        assert decoded == (
            "<account><!-- t2 stays --><![CDATA[<t2>]]><?pi t2?>x</account>"
        )
        # ...at every chunk boundary, including mid-marker splits.
        for cut in range(len(wire) + 1):
            assert "".join(codec.decompress_iter([wire[:cut], wire[cut:]])) == decoded

    def test_quoted_gt_does_not_end_tag(self, codec):
        wire = "<t2 note='a>b'>x</t2>"
        for cut in range(len(wire) + 1):
            assert "".join(
                codec.decompress_iter([wire[:cut], wire[cut:]])
            ) == "<account note='a>b'>x</account>"

    def test_incomplete_trailing_markup_flushes_verbatim(self, codec):
        assert "".join(codec.decompress_iter(["text<t2 a="])) == "text<account a="
        assert "".join(codec.decompress_iter(["<!-- open"])) == "<!-- open"
        assert "".join(codec.decompress_iter(["done<"])) == "done<"

    def test_unmapped_names_and_empty_input(self, codec):
        assert "".join(codec.decompress_iter([])) == ""
        assert "".join(codec.decompress_iter(["<zzz/>"])) == "<zzz/>"


class TestConstructScan:
    """The one-regex scanner keeps the per-character scanner's contract:
    names are rewritten only where a tag opens, whatever the chunking."""

    CASES = [
        # text that merely looks like markup is text
        ("a < t2 and t2 > b", "a < t2 and t2 > b"),
        ("1<2 </ 3 <> <1t2> t2", "1<2 </ 3 <> <1t2> t2"),
        ("<<t2>>", "<<account>>"),
        # attributes: names inside values stay, quotes protect '>' and '<'
        ('<t2 a="<t2>" b=\'</t2>\'>', '<account a="<t2>" b=\'</t2>\'>'),
        ("<t2\n  a = 'x'\n/>", "<account\n  a = 'x'\n/>"),
        ("<t2/><t2 /></t2 >", "<account/><account /></account >"),
        # a tag runs to its first unquoted '>', even across a stray '<'
        ("<t2 <t3>", "<account <t3>"),
        # opaque constructs, closed and not
        ("<!--<t2>--><t2>", "<!--<t2>--><account>"),
        ("<!DOCTYPE t2 [<t2>]><t2>", "<!DOCTYPE t2 [<t2>]><account>"),  # opaque to its first '>'
        ("<!-x><t2>", "<!-x><account>"),
        ("<?t2 <t2>?><t2>", "<?t2 <t2>?><account>"),
        ("<![CDATA[]]><t2>", "<![CDATA[]]><account>"),
        # malformed tails flush verbatim — but an opened tag's name is decoded
        ("<t2><!-- <t2>", "<account><!-- <t2>"),
        ("<t2><![CDATA[ <t2>", "<account><![CDATA[ <t2>"),
        ("<t2><? <t2>", "<account><? <t2>"),
        ("<t2><!x <t2", "<account><!x <t2"),
        ("x</t2", "x</account"),
        ('<t2 a="<t3>', '<account a="<t3>'),
        ("x</", "x</"),
        ("<!--->", "<!--->"),
        ("<?>", "<?>"),
        # names: greedy, unicode, unknown
        ("<t2.x><t22><t2é>", "<t2.x><t22><t2é>"),
        ("<é:t2>", "<é:t2>"),
    ]

    @pytest.mark.parametrize("wire, decoded", CASES)
    def test_every_split_point(self, codec, wire, decoded):
        assert "".join(codec.decompress_iter([wire])) == decoded
        for cut in range(len(wire) + 1):
            assert "".join(codec.decompress_iter([wire[:cut], wire[cut:]])) == decoded, cut
        assert "".join(codec.decompress_iter(iter(wire))) == decoded

    @pytest.mark.parametrize("wire, decoded", CASES)
    def test_compress_inverts_decompress(self, codec, wire, decoded):
        assert "".join(codec.compress_iter([decoded])) == wire
        assert "".join(codec.compress_iter(iter(decoded))) == wire

    def test_holdover_starts_at_the_incomplete_construct(self, codec):
        done, held = codec._rewrite_stream("x<t2>y<t2 a='", codec._decode, final=False)
        assert (done, held) == ("x<account>y", "<t2 a='")
        done, held = codec._rewrite_stream("<t2><!-- <t3> <", codec._decode, final=False)
        assert (done, held) == ("<account>", "<!-- <t3> <")
        assert codec._rewrite_stream("a < b", codec._decode, final=False) == ("a < b", "")
        assert codec._rewrite_stream("a <", codec._decode, final=False) == ("a ", "<")

    def test_round_trip_on_real_fillers_in_slices(self):
        structure = auction_tag_structure()
        codec = TagCodec(structure)
        fillers = Fragmenter(structure).fragment(
            generate_auction_document(0.0), XSDateTime(2003, 1, 1)
        )
        for filler in fillers[:200]:
            text = filler.to_xml()
            for size in (7, 64, 4096):
                slices = [text[i : i + size] for i in range(0, len(text), size)]
                packed = "".join(codec.compress_iter(slices))
                assert packed == codec.encode_wire(text)
                repacked = [packed[i : i + size] for i in range(0, len(packed), size)]
                assert "".join(codec.decompress_iter(repacked)) == text


class TestCompressingChannel:
    def test_transparent_to_client(self):
        structure = TagStructure.from_xml(CREDIT_TAG_STRUCTURE_XML)
        clock = SimulatedClock("2003-10-01T00:00:00")
        channel = CompressingChannel(TagCodec(structure))
        client = StreamClient(clock)
        client.tune_in(channel)
        server = StreamServer("credit", structure, channel, clock)
        server.announce()
        server.publish_document(
            parse_document(
                "<creditAccounts><account id='1'><customer>X</customer>"
                "<creditLimit>100</creditLimit></account></creditAccounts>"
            )
        )
        # The client sees ordinary tag names and can query normally.
        result = client.engine.execute(
            'count(stream("credit")//account)', now=clock.now()
        )
        assert result == [1]
        assert channel.bytes_saved > 0

    def test_savings_on_xmark_stream(self):
        structure = auction_tag_structure()
        codec = TagCodec(structure)
        fragmenter = Fragmenter(structure)
        fillers = fragmenter.fragment(
            generate_auction_document(0.0), XSDateTime(2003, 1, 1)
        )
        raw = sum(f.wire_size for f in fillers)
        encoded = sum(len(codec.encode_wire(f.to_xml()).encode()) for f in fillers)
        # The paper's claim: tag abbreviation compresses stream data.
        assert encoded < raw
        savings = 1 - encoded / raw
        assert savings > 0.10  # >10% on verbose auction markup
