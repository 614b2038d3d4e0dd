"""Tests for the Tag Structure (repro.fragments.tagstructure)."""

import pytest

from repro.dom import serialize
from repro.dom.dtd import parse_dtd
from repro.fragments import TagStructure, TagType
from repro.fragments.tagstructure import TagStructureError

from tests.conftest import CREDIT_TAG_STRUCTURE_XML


class TestParsing:
    def test_from_xml(self, credit_structure):
        assert credit_structure.root.name == "creditAccounts"
        assert len(credit_structure) == 8

    def test_types(self, credit_structure):
        assert credit_structure.by_id(1).type is TagType.SNAPSHOT
        assert credit_structure.by_id(2).type is TagType.TEMPORAL
        assert credit_structure.by_id(5).type is TagType.EVENT

    def test_round_trip_through_xml(self, credit_structure):
        text = serialize(credit_structure.to_xml())
        again = TagStructure.from_xml(text)
        assert serialize(again.to_xml()) == text

    def test_build_assigns_preorder_ids(self):
        structure = TagStructure.build(
            {"name": "a", "children": [{"name": "b"}, {"name": "c"}]}
        )
        assert [t.tsid for t in structure.all_tags()] == [1, 2, 3]

    def test_duplicate_tsid_rejected(self):
        with pytest.raises(TagStructureError):
            TagStructure.from_xml(
                '<tag type="snapshot" id="1" name="a">'
                '<tag type="event" id="1" name="b"/></tag>'
            )

    def test_missing_attribute_rejected(self):
        with pytest.raises(TagStructureError):
            TagStructure.from_xml('<tag id="1" name="a"/>')

    def test_bad_type_rejected(self):
        with pytest.raises(ValueError):
            TagStructure.from_xml('<tag type="weird" id="1" name="a"/>')


class TestLookup:
    def test_by_id(self, credit_structure):
        assert credit_structure.by_id(5).name == "transaction"
        with pytest.raises(TagStructureError):
            credit_structure.by_id(99)
        assert credit_structure.get(99) is None

    def test_resolve_path(self, credit_structure):
        tag = credit_structure.resolve_path(["creditAccounts", "account", "transaction"])
        assert tag.tsid == 5
        with pytest.raises(TagStructureError):
            credit_structure.resolve_path(["creditAccounts", "nope"])
        with pytest.raises(TagStructureError):
            credit_structure.resolve_path(["wrongRoot"])

    def test_descendants_named(self, credit_structure):
        found = credit_structure.root.descendants_named("status")
        assert [t.tsid for t in found] == [7]
        assert credit_structure.root.descendants_named("creditAccounts") == [
            credit_structure.root
        ]

    def test_child(self, credit_structure):
        account = credit_structure.by_id(2)
        assert account.child("customer").tsid == 3
        assert account.child("nope") is None

    def test_path(self, credit_structure):
        assert credit_structure.by_id(7).path() == (
            "/creditAccounts/account/transaction/status"
        )


class TestFromDTD:
    DTD = parse_dtd(
        """
        <!ELEMENT creditAccounts (account*)>
        <!ELEMENT account (customer, creditLimit*, transaction*)>
        <!ELEMENT customer (#PCDATA)>
        <!ELEMENT creditLimit (#PCDATA)>
        <!ELEMENT transaction (vendor, status*, amount)>
        <!ELEMENT vendor (#PCDATA)>
        <!ELEMENT status (#PCDATA)>
        <!ELEMENT amount (#PCDATA)>
        """
    )

    ROLES = {
        "account": "temporal",
        "creditLimit": "temporal",
        "transaction": "event",
        "status": "temporal",
    }

    def test_matches_hand_written(self, credit_structure):
        derived = TagStructure.from_dtd(self.DTD, self.ROLES)
        assert serialize(derived.to_xml()) == serialize(credit_structure.to_xml())

    def test_unlisted_default_to_snapshot(self):
        derived = TagStructure.from_dtd(self.DTD, {})
        assert all(t.type is TagType.SNAPSHOT for t in derived.all_tags())

    def test_recursive_dtd_rejected(self):
        recursive = parse_dtd("<!ELEMENT tag (tag*)>")
        with pytest.raises(TagStructureError, match="recursive"):
            TagStructure.from_dtd(recursive, {})


class TestTagTypeEnum:
    def test_is_fragmented(self):
        assert not TagType.SNAPSHOT.is_fragmented
        assert TagType.TEMPORAL.is_fragmented
        assert TagType.EVENT.is_fragmented
