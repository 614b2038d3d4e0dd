"""Tests for the minimal DTD reader (repro.dom.dtd)."""

import pytest

from repro.dom.dtd import DTDError, parse_dtd

CREDIT_DTD = """
<!DOCTYPE creditSystem [
<!ELEMENT creditAccounts (account*)>
<!ELEMENT account (customer, creditLimit*, transaction*)>
<!ATTLIST account id ID #REQUIRED>
<!ATTLIST account vtFrom CDATA #REQUIRED>
<!ATTLIST account vtTo CDATA #REQUIRED>
<!ELEMENT customer (#CDATA)>
<!ELEMENT creditLimit (#PCDATA)>
<!ATTLIST creditLimit vtFrom CDATA #REQUIRED>
<!ATTLIST creditLimit vtTo CDATA #REQUIRED>
<!ELEMENT transaction (vendor, status*, amount)>
<!ATTLIST transaction vtFrom CDATA #REQUIRED>
<!ATTLIST transaction vtTo CDATA #REQUIRED>
<!ELEMENT vendor (#PCDATA)>
<!ELEMENT status (#PCDATA)>
<!ATTLIST status vtFrom CDATA #REQUIRED>
<!ATTLIST status vtTo CDATA #REQUIRED>
<!ELEMENT amount (#PCDATA)> ]>
"""

TAG_STRUCTURE_DTD = """
<!DOCTYPE tagStructure [
<!ELEMENT tag (tag*)>
<!ATTLIST tag type (snapshot | temporal | event) #REQUIRED>
<!ATTLIST tag id CDATA #REQUIRED>
<!ATTLIST tag name CDATA #REQUIRED> ]>
"""


class TestCreditDTD:
    def test_root_falls_back_to_first_declared(self):
        # The paper's DOCTYPE names "creditSystem" but never declares it.
        dtd = parse_dtd(CREDIT_DTD)
        assert dtd.root == "creditAccounts"

    def test_element_children_with_cardinality(self):
        dtd = parse_dtd(CREDIT_DTD)
        account = dtd.elements["account"]
        assert account.children == [
            ("customer", ""),
            ("creditLimit", "*"),
            ("transaction", "*"),
        ]

    def test_child_names(self):
        dtd = parse_dtd(CREDIT_DTD)
        assert dtd.child_names("transaction") == ["vendor", "status", "amount"]
        assert dtd.child_names("customer") == []

    def test_text_only(self):
        dtd = parse_dtd(CREDIT_DTD)
        assert dtd.elements["amount"].content_model == "(#PCDATA)"
        assert dtd.elements["customer"].content_model == "(#CDATA)"
        assert dtd.elements["amount"].children == dtd.elements["customer"].children == []
        assert dtd.elements["account"].children

    def test_attlists(self):
        dtd = parse_dtd(CREDIT_DTD)
        account_attrs = {attr.name: attr for attr in dtd.attributes["account"]}
        assert set(account_attrs) == {"id", "vtFrom", "vtTo"}
        assert account_attrs["id"].type == "ID"
        assert account_attrs["id"].default == "#REQUIRED"
        assert "vendor" not in dtd.attributes


class TestTagStructureDTD:
    def test_recursive_content_model(self):
        dtd = parse_dtd(TAG_STRUCTURE_DTD)
        assert dtd.root == "tag"
        assert dtd.child_names("tag") == ["tag"]

    def test_enumerated_attribute(self):
        dtd = parse_dtd(TAG_STRUCTURE_DTD)
        type_attr = next(a for a in dtd.attributes["tag"] if a.name == "type")
        assert "snapshot" in type_attr.type


class TestErrors:
    def test_empty_rejected(self):
        with pytest.raises(DTDError):
            parse_dtd("<!DOCTYPE x [ ]>")

    def test_bare_declarations_accepted(self):
        dtd = parse_dtd("<!ELEMENT a (b)> <!ELEMENT b (#PCDATA)>")
        assert dtd.root == "a"
