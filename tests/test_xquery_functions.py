"""Tests for the built-in function library (repro.xquery.functions)."""

import math

import pytest

from repro.dom import parse_document
from repro.temporal import XSDateTime
from repro.xquery import Context, evaluate
from repro.xquery.errors import XQueryDynamicError, XQueryNameError, XQueryTypeError


@pytest.fixture()
def ctx():
    context = Context(now=XSDateTime.parse("2003-12-15T00:00:00"))
    context.register_document(
        "d.xml", parse_document("<r><x>1</x><x>2</x><y unit='m'>5</y></r>")
    )
    return context


class TestSequenceFunctions:
    def test_count_empty_exists(self):
        assert evaluate("count((1, 2, 3))") == [3]
        assert evaluate("empty(())") == [True]
        assert evaluate("exists(())") == [False]
        assert evaluate("exists((1))") == [True]

    def test_boolean_family(self):
        assert evaluate("not(0)") == [True]
        assert evaluate("boolean((1))") == [True]
        assert evaluate("true()") == [True]
        assert evaluate("false()") == [False]

    def test_distinct_values(self):
        assert evaluate('distinct-values((1, 2, 1, "a", "a"))') == [1, 2, "a"]

    def test_reverse(self):
        assert evaluate("reverse((1, 2, 3))") == [3, 2, 1]

    def test_subsequence(self):
        assert evaluate("subsequence((1, 2, 3, 4), 2)") == [2, 3, 4]
        assert evaluate("subsequence((1, 2, 3, 4), 2, 2)") == [2, 3]

    def test_index_of(self):
        assert evaluate('index-of(("a", "b", "a"), "a")') == [1, 3]

    def test_insert_remove(self):
        assert evaluate("insert-before((1, 3), 2, (2))") == [1, 2, 3]
        assert evaluate("remove((1, 2, 3), 2)") == [1, 3]

    def test_cardinality_checks(self):
        assert evaluate("exactly-one((5))") == [5]
        with pytest.raises(XQueryTypeError):
            evaluate("exactly-one((1, 2))")
        assert evaluate("zero-or-one(())") == []
        with pytest.raises(XQueryTypeError):
            evaluate("zero-or-one((1, 2))")


class TestAggregates:
    def test_sum(self):
        assert evaluate("sum((1, 2, 3))") == [6]
        assert evaluate("sum(())") == [0]

    def test_sum_over_nodes(self, ctx):
        assert evaluate('sum(doc("d.xml")//x)', ctx) == [3]

    def test_sum_dollar_amounts(self):
        # The paper's sample fillers carry "$38.20" amounts.
        context = Context()
        context.register_document("m.xml", parse_document("<r><a>$38.20</a><a>$1.80</a></r>"))
        assert evaluate('sum(doc("m.xml")//a)', context) == [40.0]

    def test_avg(self):
        assert evaluate("avg((2, 4))") == [3]
        assert evaluate("avg(())") == []

    def test_min_max_sequence(self):
        assert evaluate("max((1, 5, 3))") == [5]
        assert evaluate("min((1, 5, 3))") == [1]

    def test_max_two_arguments_cql_style(self):
        # The paper writes max($limit * 0.9, 5000).
        assert evaluate("max(4500, 5000)") == [5000]
        assert evaluate("max((), 5000)") == [5000]


class TestStringFunctions:
    def test_concat_contains(self):
        assert evaluate('concat("a", "b", "c")') == ["abc"]
        assert evaluate('contains("hello", "ell")') == [True]
        assert evaluate('starts-with("hello", "he")') == [True]
        assert evaluate('ends-with("hello", "lo")') == [True]

    def test_substring(self):
        assert evaluate('substring("hello", 2)') == ["ello"]
        assert evaluate('substring("hello", 2, 3)') == ["ell"]

    def test_substring_before_after(self):
        assert evaluate('substring-before("a=b", "=")') == ["a"]
        assert evaluate('substring-after("a=b", "=")') == ["b"]
        assert evaluate('substring-before("ab", "x")') == [""]

    def test_string_length_normalize(self):
        assert evaluate('string-length("hey")') == [3]
        assert evaluate('normalize-space("  a   b ")') == ["a b"]

    def test_case(self):
        assert evaluate('upper-case("aB")') == ["AB"]
        assert evaluate('lower-case("aB")') == ["ab"]

    def test_string_join(self):
        assert evaluate('string-join(("a", "b"), "-")') == ["a-b"]
        assert evaluate('string-join(("a", "b"))') == ["ab"]

    def test_translate(self):
        assert evaluate('translate("abc", "abc", "xy")') == ["xy"]

    def test_matches(self):
        assert evaluate('matches("hello world", "wor.d")') == [True]
        assert evaluate('matches("hello", "^h")') == [True]
        assert evaluate('matches("hello", "HELLO", "i")') == [True]
        assert evaluate('matches("hello", "^x")') == [False]

    def test_matches_bad_regex(self):
        with pytest.raises(XQueryDynamicError):
            evaluate('matches("x", "(unclosed")')

    def test_matches_bad_flag(self):
        with pytest.raises(XQueryDynamicError):
            evaluate('matches("x", "x", "q")')

    def test_replace(self):
        assert evaluate('replace("a-b-c", "-", "+")') == ["a+b+c"]
        assert evaluate('replace("AxA", "a", "_", "i")') == ["_x_"]

    def test_tokenize(self):
        assert evaluate('tokenize("a, b,c", ",\\s*")') == ["a", "b", "c"]
        assert evaluate('tokenize("one", ";")') == ["one"]

    def test_string_of_number(self):
        assert evaluate("string(5)") == ["5"]
        assert evaluate("string(())") == [""]


class TestNumericFunctions:
    def test_number(self, ctx):
        assert evaluate('number("3.5")') == [3.5]
        assert math.isnan(evaluate("number(())")[0])

    def test_rounding(self):
        assert evaluate("round(2.5)") == [3]
        assert evaluate("round(-2.5)") == [-2]
        assert evaluate("floor(2.9)") == [2]
        assert evaluate("ceiling(2.1)") == [3]
        assert evaluate("abs(-4)") == [4]


class TestNodeFunctions:
    def test_name(self, ctx):
        assert evaluate('name(doc("d.xml")/r)', ctx) == ["r"]
        assert evaluate('for $a in doc("d.xml")//@unit return name($a)', ctx) == ["unit"]

    def test_local_name_strips_prefix(self):
        context = Context()
        context.register_document("n.xml", parse_document("<ns:a><b/></ns:a>"))
        assert evaluate('local-name(doc("n.xml")/*)', context) == ["a"]

    def test_root(self, ctx):
        assert evaluate('name(root(doc("d.xml")//x)/r)', ctx) == ["r"]

    def test_data_atomizes(self, ctx):
        assert evaluate('data(doc("d.xml")//x)', ctx) == ["1", "2"]

    def test_deep_equal(self, ctx):
        assert evaluate('deep-equal(doc("d.xml")//x, doc("d.xml")//x)', ctx) == [True]
        assert evaluate('deep-equal(doc("d.xml")//x, doc("d.xml")//y)', ctx) == [False]

    def test_doc_unknown(self):
        with pytest.raises(XQueryDynamicError):
            evaluate('doc("missing.xml")')

    def test_stream_requires_registry(self):
        with pytest.raises(XQueryDynamicError):
            evaluate('stream("s")')

    def test_error_function(self):
        with pytest.raises(XQueryDynamicError, match="boom"):
            evaluate('error("boom")')


class TestConstructorFunctions:
    def test_xs_datetime(self, ctx):
        assert evaluate('xs:dateTime("2003-01-01T00:00:00")', ctx) == [
            XSDateTime.parse("2003-01-01T00:00:00")
        ]

    def test_xs_datetime_now_string(self, ctx):
        assert evaluate('xs:dateTime("now")', ctx) == [ctx.now]

    def test_duration_constructors(self, ctx):
        for fn in ("xs:duration", "xdt:dayTimeDuration"):
            out = evaluate(f'{fn}("PT90S")', ctx)
            assert out[0].seconds == 90

    def test_numeric_constructors(self):
        assert evaluate('xs:integer("42")') == [42]
        assert evaluate('xs:decimal("1.5")') == [1.5]
        assert evaluate("xs:string(42)") == ["42"]
        assert evaluate('xs:boolean("")') == [False]

    def test_arity_checking(self):
        with pytest.raises(XQueryTypeError):
            evaluate("count()")

    def test_fn_prefix_accepted(self):
        assert evaluate("fn:count((1, 2))") == [2]


class TestRegistry:
    def test_contexts_share_builtins_but_not_registrations(self):
        from repro.xquery.functions import default_functions

        first, second = Context(), Context()
        assert first.functions is not second.functions
        assert first.functions["count"] is second.functions["count"]  # built once
        first.register_function("twice", lambda ctx, args: [2 * args[0][0]], (1, 1))
        first.register_function("count", lambda ctx, args: [-1], (1, 1))
        assert evaluate("twice(21)", first) == [42]
        assert evaluate("count((1, 2))", first) == [-1]
        assert "twice" not in second.functions
        assert "twice" not in Context().functions
        assert "twice" not in default_functions()
        assert evaluate("count((1, 2))", second) == [2]
        assert evaluate("count((1, 2))") == [2]
        with pytest.raises(XQueryNameError):
            evaluate("twice(21)", second)


class TestVtAccessors:
    def test_explicit_lifespan(self, ctx):
        context = ctx
        context.register_document(
            "v.xml",
            parse_document(
                '<r><e vtFrom="2003-01-01T00:00:00" vtTo="2003-02-01T00:00:00"/></r>'
            ),
        )
        assert evaluate('vtFrom(doc("v.xml")//e)', context) == [
            XSDateTime.parse("2003-01-01T00:00:00")
        ]
        assert evaluate('vtTo(doc("v.xml")//e)', context) == [
            XSDateTime.parse("2003-02-01T00:00:00")
        ]

    def test_now_endpoint_resolves(self, ctx):
        ctx.register_document(
            "w.xml",
            parse_document('<r><e vtFrom="2003-01-01T00:00:00" vtTo="now"/></r>'),
        )
        assert evaluate('vtTo(doc("w.xml")//e)', ctx) == [ctx.now]

    def test_lifespan_propagates_from_children(self, ctx):
        ctx.register_document(
            "p.xml",
            parse_document(
                "<r><parent>"
                '<c vtFrom="2003-01-05T00:00:00" vtTo="2003-01-10T00:00:00"/>'
                '<c vtFrom="2003-01-01T00:00:00" vtTo="2003-01-07T00:00:00"/>'
                "</parent></r>"
            ),
        )
        assert evaluate('vtFrom(doc("p.xml")//parent)', ctx) == [
            XSDateTime.parse("2003-01-01T00:00:00")
        ]
        assert evaluate('vtTo(doc("p.xml")//parent)', ctx) == [
            XSDateTime.parse("2003-01-10T00:00:00")
        ]

    def test_leaf_defaults_to_start_now(self, ctx):
        ctx.register_document("l.xml", parse_document("<r><leaf/></r>"))
        assert evaluate('vtTo(doc("l.xml")//leaf)', ctx) == [ctx.now]

    def test_event_valid_time(self, ctx):
        ctx.register_document(
            "e.xml",
            parse_document('<r><ev validTime="2003-03-03T03:03:03"/></r>'),
        )
        assert evaluate('vtFrom(doc("e.xml")//ev)', ctx) == evaluate(
            'vtTo(doc("e.xml")//ev)', ctx
        )
