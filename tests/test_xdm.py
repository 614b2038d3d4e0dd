"""Direct tests for the XDM value model (repro.xquery.xdm)."""

import pytest

from repro.dom import parse_document
from repro.dom.nodes import Attr, Element, Text
from repro.temporal import NOW, START, XSDateTime, XSDuration
from repro.xquery.errors import XQueryTypeError
from repro.xquery.xdm import (
    atomize,
    deep_equal,
    effective_boolean_value,
    general_compare,
    string_value,
    to_number,
    value_compare,
)

NOW_T = XSDateTime.parse("2003-12-15T00:00:00")


class TestAtomize:
    def test_element_string_value(self):
        root = parse_document("<a>x<b>y</b></a>").document_element
        assert atomize(root) == "xy"

    def test_attr(self):
        assert atomize(Attr("n", "v")) == "v"

    def test_atomics_pass(self):
        assert atomize(5) == 5
        assert atomize("s") == "s"


class TestStringValue:
    def test_booleans(self):
        assert string_value(True) == "true"
        assert string_value(False) == "false"

    def test_integral_float(self):
        assert string_value(5.0) == "5"
        assert string_value(5.25) == "5.25"

    def test_symbolic_points(self):
        assert string_value(NOW) == "now"
        assert string_value(START) == "start"


class TestToNumber:
    def test_plain(self):
        assert to_number("42") == 42
        assert to_number(" 3.5 ") == 3.5
        assert to_number(True) == 1

    def test_dollar_amounts(self):
        # The paper's §4.2 fillers carry "$38.20".
        assert to_number("$38.20") == 38.20

    def test_node(self):
        element = Element("amount")
        element.append(Text("7"))
        assert to_number(element) == 7

    def test_rejects_garbage(self):
        with pytest.raises(XQueryTypeError):
            to_number("not-a-number")
        with pytest.raises(XQueryTypeError):
            to_number(XSDuration(0, 1))


class TestEffectiveBooleanValue:
    def test_empty_false(self):
        assert effective_boolean_value([]) is False

    def test_node_first_true(self):
        assert effective_boolean_value([Element("a"), Element("b")]) is True

    def test_singleton_atomics(self):
        assert effective_boolean_value([0]) is False
        assert effective_boolean_value([0.0]) is False
        assert effective_boolean_value([float("nan")]) is False
        assert effective_boolean_value([""]) is False
        assert effective_boolean_value(["x"]) is True
        assert effective_boolean_value([True]) is True

    def test_multi_atomic_rejected(self):
        with pytest.raises(XQueryTypeError):
            effective_boolean_value([1, 2])


class TestValueCompare:
    def test_numeric_promotion(self):
        assert value_compare("lt", "9", 10)
        assert value_compare("eq", 10, "10")

    def test_string_order(self):
        assert value_compare("lt", "abc", "abd")

    def test_datetime_vs_string(self):
        assert value_compare(
            "lt", "2003-01-01T00:00:00", XSDateTime.parse("2003-06-01T00:00:00")
        )

    def test_now_string_resolves(self):
        assert value_compare("eq", "now", NOW_T, NOW_T)
        assert value_compare("gt", "now", XSDateTime.parse("2000-01-01"), NOW_T)

    def test_symbolic_without_clock_rejected(self):
        with pytest.raises(XQueryTypeError):
            value_compare("eq", "now", XSDateTime.parse("2000-01-01"), None)

    def test_durations(self):
        assert value_compare("lt", XSDuration.parse("PT1M"), "PT2M")

    def test_incomparable_rejected(self):
        with pytest.raises(XQueryTypeError):
            value_compare("lt", True, XSDuration(0, 1))


class TestGeneralCompare:
    def test_existential(self):
        assert general_compare("=", [1, 2, 3], [3, 9])
        assert not general_compare("=", [1, 2], [3, 9])

    def test_empty_never_matches(self):
        assert not general_compare("=", [], [1])
        assert not general_compare("!=", [1], [])

    def test_nodes_atomized(self):
        a = Element("x")
        a.append(Text("5"))
        assert general_compare(">", [a], [4])


class TestDeepEqual:
    def doc(self, text):
        return parse_document(text).document_element

    def test_equal_trees(self):
        assert deep_equal([self.doc("<a x='1'><b>t</b></a>")], [self.doc("<a x='1'><b>t</b></a>")])

    def test_attr_difference(self):
        assert not deep_equal([self.doc("<a x='1'/>")], [self.doc("<a x='2'/>")])

    def test_structure_difference(self):
        assert not deep_equal([self.doc("<a><b/></a>")], [self.doc("<a><c/></a>")])

    def test_length_mismatch(self):
        assert not deep_equal([1], [1, 2])

    def test_mixed_kind(self):
        assert not deep_equal([self.doc("<a/>")], ["a"])

    def test_atomics(self):
        assert deep_equal([1, "x"], [1, "x"])
