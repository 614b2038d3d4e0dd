"""Differential tests for the decorrelated hash equi-join (ISSUE 18).

``lower-value-joins`` annotates a correlated ``let``/``for`` clause of
XMark Q8's shape; the compiled backend then evaluates the inner source
once per execution and probes a key table per enclosing tuple.  The join
must be *unobservable*: every test pits three executions against each
other and requires byte-identical serialised output, or the same error
type and message —

- compiled with the lowering (the build/probe driver),
- compiled without it (the closure nested loop),
- the interpreter over the annotated plan (the nested-loop reference).

Covered: hypothesis-generated key multisets (duplicates, no match, empty
strings, multi-valued keys on either side), the ``str``-only hash rule
and both fallbacks, empty sides, error surfacing, residual short-circuit
order, ``for``-bound joins, re-entrant executions, the recogniser's
negative cases, and Q8 itself under the three strategies with call
counters on the inner source.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Strategy, XCQLEngine
from repro.dom.nodes import Element, Node, Text
from repro.dom.serializer import serialize
from repro.fragments.fragmenter import Fragmenter
from repro.temporal.chrono import XSDateTime
from repro.xmark import Q8
from repro.xmark.generator import generate_auction_document
from repro.xquery import xast
from repro.xquery.compiler import compile_module
from repro.xquery.errors import XQueryDynamicError
from repro.xquery.evaluator import Context, Evaluator
from repro.xquery.parser import parse

# Production code reaches the optimizer through the pipeline (repro-lint).
from repro.core.pipeline import lower_value_joins

from .conftest import AUCTION_STREAM

Q8_SHAPE = """
for $p in $db/p
let $a := for $t in $db/s where {condition} return {inner_return}
return <r>{{ $p/id/text() }}|{{ count($a) }}|{{ $a }}</r>
"""


def database(people: list, sales: list) -> Element:
    """``<db>`` with one ``<p>`` per person and one ``<s>`` per sale.

    Each person / sale is a list of key strings: ``<id>`` / ``<k>``
    children, so a key is empty, single or multi-valued.
    """
    db = Element("db")
    for tag, key_tag, rows in (("p", "id", people), ("s", "k", sales)):
        for n, keys in enumerate(rows):
            row = Element(tag, {"n": f"{tag}{n}"})
            for key in keys:
                child = Element(key_tag)
                child.append(Text(key))
                row.append(child)
            db.append(row)
    return db


def boom(ctx, args):
    raise XQueryDynamicError("boom() was evaluated")


def strict(ctx, args):
    """Identity on strings, an error for the value ``bad``."""
    values = [a.string_value() if isinstance(a, Node) else a for a in args[0]]
    if "bad" in values:
        raise XQueryDynamicError(f"strict() saw {values!r}")
    return values


def make_context(db: Element, calls: list) -> Context:
    context = Context(variables={"db": [db]})
    context.register_function("boom", boom)
    context.register_function("strict", strict)

    def sales(ctx, args):
        calls.append("sales")
        return list(db.children_named("s"))

    context.register_function("sales", sales)
    return context


def outcome(run) -> tuple:
    try:
        result = run()
    except Exception as exc:  # compared, not swallowed: type and message
        return ("error", type(exc).__name__, str(exc))
    return ("ok", [serialize(i) if isinstance(i, Node) else i for i in result])


def three_way(query: str, db: Element, expect_lowered: int = 1) -> tuple:
    """Run ``query`` three ways; returns the (equal) outcome."""
    module = parse(query)
    lowered, count, reason = lower_value_joins(module)
    assert count == expect_lowered, reason
    assert xast.to_source(lowered) == xast.to_source(module)
    hash_calls, loop_calls, reference_calls = [], [], []
    hashed = outcome(lambda: compile_module(lowered)(make_context(db, hash_calls)))
    looped = outcome(lambda: compile_module(module)(make_context(db, loop_calls)))
    reference = outcome(
        lambda: Evaluator(make_context(db, reference_calls)).evaluate_module(lowered)
    )
    assert hashed == looped == reference
    if expect_lowered:
        assert len(hash_calls) <= 1  # the inner source, at most once per execution
    return hashed


def q8_shape(condition: str, inner_return: str = "$t") -> str:
    return Q8_SHAPE.format(condition=condition, inner_return=inner_return)


# ---------------------------------------------------------------------------
# Generated key multisets
# ---------------------------------------------------------------------------

KEY = st.sampled_from(["a", "b", "c", "", "1", "01", "1.0", " a", "A"])
KEYS = st.lists(KEY, min_size=0, max_size=3)
ROWS = st.lists(KEYS, min_size=0, max_size=6)

CONDITIONS = [
    "$t/k = $p/id",
    "$p/id = $t/k",
    "$t/k/text() = $p/id and $t/@n != 's0'",
    "string($t/k[1]) = $p/id[1]",
]


class TestGeneratedKeys:
    @settings(max_examples=120, deadline=None)
    @given(people=ROWS, sales=ROWS, condition=st.sampled_from(CONDITIONS))
    def test_any_key_multiset_agrees(self, people, sales, condition):
        three_way(q8_shape(condition), database(people, sales))

    @settings(max_examples=60, deadline=None)
    @given(people=ROWS, sales=ROWS)
    def test_for_bound_join_agrees(self, people, sales):
        query = """
        for $p in $db/p
        for $x at $i in (for $t in $db/s where $t/k = $p/id return $t)
        return <hit p="{$p/@n}" s="{$x/@n}" i="{$i}"/>
        """
        three_way(query, database(people, sales))

    @settings(max_examples=60, deadline=None)
    @given(people=ROWS, sales=ROWS)
    def test_numeric_probe_falls_back_and_agrees(self, people, sales):
        # number() of a non-numeric id raises; the three runs must raise alike.
        three_way(q8_shape("$t/k = number($p/id[1])"), database(people, sales))

    @settings(max_examples=60, deadline=None)
    @given(people=ROWS, sales=ROWS)
    def test_non_string_build_key_falls_back_and_agrees(self, people, sales):
        three_way(q8_shape("count($t/k) = $p/id"), database(people, sales))


# ---------------------------------------------------------------------------
# The cases the hash rule exists for, spelled out
# ---------------------------------------------------------------------------


class TestHashRule:
    def test_duplicates_keep_inner_order_and_multiplicity(self):
        db = database([["a"], ["b"], ["a"]], [["a"], ["b"], ["a"], ["a", "a"], ["b", "a"]])
        status, items = three_way(q8_shape("$t/k = $p/id"), db)
        assert status == "ok"
        assert [item.split("|")[1] for item in items] == ["4", "2", "4"]
        # person "a": sales 0, 2, 3, 4 in source order, each once.
        assert [part.split('"')[1] for part in items[0].split("<s ")[1:]] == [
            "s0", "s2", "s3", "s4",
        ]

    def test_no_match_and_empty_keys(self):
        db = database([["z"], [], [""]], [["a"], [], [""]])
        status, items = three_way(q8_shape("$t/k = $p/id"), db)
        assert [item.split("|")[1] for item in items] == ["0", "0", "1"]

    def test_leading_zero_is_string_unequal(self):
        db = database([["1"], ["01"]], [["01"], ["1"], ["1.0"]])
        status, items = three_way(q8_shape("$t/k = $p/id"), db)
        assert [item.split("|")[1] for item in items] == ["1", "1"]

    def test_numeric_literal_probe_compares_numerically(self):
        db = database([["x"], ["y"]], [["01"], ["1"], ["1.0"], ["2"]])
        status, items = three_way(q8_shape("$t/k = 1"), db)
        assert [item.split("|")[1] for item in items] == ["3", "3"]

    def test_numeric_probe_on_later_tuples_only(self):
        # First person probes with a string (hash), the others with numbers.
        query = q8_shape("$t/k = (if ($p/@n = 'p0') then $p/id else number($p/id))")
        db = database([["1"], ["1"], ["01"]], [["01"], ["1"], ["1.0"]])
        status, items = three_way(query, db)
        assert [item.split("|")[1] for item in items] == ["1", "3", "3"]

    def test_non_string_build_key_sends_the_whole_join_to_the_scan(self):
        db = database([["1"], ["2"], ["1.0"]], [["7"], ["7", "8"], []])
        status, items = three_way(q8_shape("count($t/k) = $p/id"), db)
        assert [item.split("|")[1] for item in items] == ["1", "1", "1"]

    def test_boolean_atoms_coerce_like_the_nested_loop(self):
        db = database([["true"], ["0"], ["maybe"]], [["a"], []])
        # "maybe" cannot cast to xs:boolean: all three raise the same error.
        assert three_way(q8_shape("exists($t/k) = $p/id"), db)[0] == "error"
        db = database([["true"], ["0"]], [["a"], []])
        status, items = three_way(q8_shape("exists($t/k) = $p/id"), db)
        assert [item.split("|")[1] for item in items] == ["1", "1"]

    @pytest.mark.parametrize(
        "inner_return",
        ["$t", "$t/@n", "<hit p='{$p/@n}' s='{$t/@n}'/>", "($p/id/text(), string($t/@n))", "()"],
    )
    def test_return_expressions_other_than_the_inner_variable(self, inner_return):
        db = database([["a"], ["b"], ["a", "b"]], [["a"], ["b"], ["c"], ["b"]])
        assert three_way(q8_shape("$t/k = $p/id", inner_return), db)[0] == "ok"


# ---------------------------------------------------------------------------
# Empty sides, errors, residuals
# ---------------------------------------------------------------------------


class TestEvaluationOrder:
    def test_empty_outer_evaluates_neither_source_nor_keys(self):
        query = """
        for $p in $db/nobody
        let $a := for $t in boom() where strict($t/k) = boom() return boom()
        return count($a)
        """
        assert three_way(query, database([], [["a"]])) == ("ok", [])

    def test_empty_inner_evaluates_no_key(self):
        db = database([["a"], ["b"]], [])
        assert three_way(q8_shape("boom($t) = $p/id"), db)[0] == "ok"
        assert three_way(q8_shape("$t/k = boom()"), db)[0] == "ok"

    def test_erroring_source_raises_when_a_tuple_arrives(self):
        query = """
        for $p in $db/p
        let $a := for $t in boom() where $t/k = $p/id return $t
        return count($a)
        """
        assert three_way(query, database([["a"]], [])) == (
            "error", "XQueryDynamicError", "boom() was evaluated",
        )

    @pytest.mark.parametrize("bad_at", [0, 1, 3])
    def test_key_error_on_the_kth_inner_item(self, bad_at):
        sales = [["a"], ["b"], ["a"], ["c"]]
        sales[bad_at] = ["bad"]
        db = database([["a"], ["b"]], sales)
        status, kind, message = three_way(q8_shape("strict($t/k) = $p/id"), db)
        assert (status, kind) == ("error", "XQueryDynamicError")
        assert message == "strict() saw ['bad']"

    def test_probe_error_on_a_later_tuple(self):
        db = database([["a"], ["bad"], ["b"]], [["a"], ["b"]])
        for condition in ("$t/k = strict($p/id)", "strict($p/id) = $t/k"):
            assert three_way(q8_shape(condition), db)[0] == "error"

    def test_comparison_error_at_the_same_pair(self):
        # A numeric probe against a non-numeric key: to_number("x") raises.
        db = database([["1"], ["2"]], [["1"], ["x"], ["2"]])
        status, kind, message = three_way(q8_shape("$t/k = number($p/id)"), db)
        assert (status, kind) == ("error", "XQueryTypeError")
        assert "'x'" in message

    def test_residual_runs_only_for_matches_in_short_circuit_order(self):
        # The raising residual sits on a sale no person matches...
        db = database([["a"], ["b"]], [["a"], ["bad"], ["b"]])
        condition = "$t/k = $p/id and strict($t/k) = 'a' and $t/@n = 's0'"
        status, items = three_way(q8_shape(condition), db)
        assert [item.split("|")[1] for item in items] == ["1", "0"]
        # ...and on one the second person does match.
        db = database([["a"], ["bad"]], [["a"], ["bad"]])
        assert three_way(q8_shape(condition), db)[0] == "error"
        # A later conjunct is not reached once an earlier one is false.
        condition = "$t/k = $p/id and $t/@n = 'nope' and boom()"
        assert three_way(q8_shape(condition), db)[0] == "ok"

    def test_inner_variable_does_not_leak_into_the_enclosing_flwor(self):
        query = """
        for $p in $db/p
        let $a := for $t in $db/s where $t/k = $p/id return $t
        return $t
        """
        db = database([["a"]], [["a"]])
        assert three_way(query, db) == ("error", "XQueryNameError", "undefined variable $t")


class TestExecutions:
    def test_inner_source_is_evaluated_once_per_execution(self):
        query = """
        for $p in $db/p
        let $a := for $t in sales() where $t/k = $p/id return $t
        return count($a)
        """
        db = database([["a"], ["b"], ["c"], ["a"]], [["a"], ["b"], ["a"]])
        module = parse(query)
        lowered, count, _ = lower_value_joins(module)
        assert count == 1
        calls: list = []
        assert compile_module(lowered)(make_context(db, calls)) == [2, 1, 0, 2]
        assert len(calls) == 1
        calls.clear()
        assert compile_module(module)(make_context(db, calls)) == [2, 1, 0, 2]
        assert len(calls) == 4

    def test_each_execution_builds_its_own_table(self):
        # The enclosing FLWOR runs once per $round; the sales differ by round.
        query = """
        for $round in ("a", "b")
        return (
          for $p in $db/p
          let $a := for $t in $db/s[k = $round] where $t/k = $p/id return $t
          return count($a)
        )
        """
        db = database([["a"], ["b"]], [["a"], ["b"], ["a", "b"]])
        assert three_way(query, db) == ("ok", [2, 1, 1, 2])

    def test_recursive_re_entry_mid_loop(self):
        query = """
        define function walk($n) {
          if ($n = 0) then () else (
            for $p in $db/p
            let $a := for $t in $db/s where $t/k = $p/id return $t
            return (count($a), walk($n - 1))
          )
        }
        walk(2)
        """
        db = database([["a"], ["b"]], [["a"], ["a"], ["b"]])
        status, items = three_way(query, db)
        assert status == "ok" and items == [2, 2, 1, 1, 2, 1]

    def test_nested_joins_in_the_inner_return(self):
        # XMark Q9's shape: the matched sale drives a second join.
        query = """
        for $p in $db/p
        let $a := for $t in $db/s where $t/k = $p/id return (
                    for $q in $db/p
                    let $b := for $u in $db/s where $u/k = $q/id return $u
                    return count($b))
        return <r>{ $a }</r>
        """
        db = database([["a"], ["b"]], [["a"], ["b"], ["b"]])
        assert three_way(query, db, expect_lowered=2)[0] == "ok"


# ---------------------------------------------------------------------------
# Recognition
# ---------------------------------------------------------------------------


def verdict(query: str) -> tuple:
    module, count, reason = lower_value_joins(parse(query))
    return count, reason


class TestRecognition:
    def test_q8_shape_is_annotated_in_place(self):
        module = parse(q8_shape("$t/k = $p/id and $t/@n = 's0'"))
        lowered, count, reason = lower_value_joins(module)
        assert (count, reason) == (1, None)
        body = lowered.body
        assert type(body) is xast.ValueJoinFLWOR
        assert body.join_index == 1 and body.inner_on_left
        assert body.clauses == module.body.clauses
        assert xast.children(body) == xast.children(module.body)
        flipped = lower_value_joins(parse(q8_shape("$p/id = $t/k")))[0].body
        assert not flipped.inner_on_left

    @pytest.mark.parametrize(
        "query, reason",
        [
            (
                "for $p in $db/p let $a := for $t in $p/s where $t/k = $p/id return $t "
                "return count($a)",
                "inner source is correlated (references $p)",
            ),
            (
                "for $p at $i in $db/p let $a := for $t in $db/s[$i] where $t/k = $p/id "
                "return $t return count($a)",
                "inner source is correlated (references $i)",
            ),
            (
                "for $p in $db/p let $a := for $t in <s><k>a</k></s> where $t/k = $p/id "
                "return $t return count($a)",
                "inner source contains a constructor",
            ),
            (
                "define function all() { $db/s } "
                "for $p in $db/p let $a := for $t in all() where $t/k = $p/id return $t "
                "return count($a)",
                "inner source calls a user-defined function",
            ),
            (
                "for $p in $db/p let $a := for $t at $i in $db/s where $t/k = $p/id "
                "return $t return count($a)",
                "inner for clause is positional",
            ),
            (
                "for $p in $db/p let $a := for $t in $db/s where $t/k = $p/id "
                "order by $t/@n return $t return count($a)",
                "inner FLWOR is not a single for/where/return",
            ),
            (
                "for $p in $db/p let $a := for $t in $db/s let $k := $t/k where $k = $p/id "
                "return $t return count($a)",
                "inner FLWOR is not a single for/where/return",
            ),
            (
                "for $p in $db/p let $a := for $t in $db/s return $t return count($a)",
                "inner FLWOR is not a single for/where/return",
            ),
            (
                "for $p in $db/p let $a := for $t in $db/s where $t/k != $p/id return $t "
                "return count($a)",
                "leading where conjunct is not a general = comparison",
            ),
            (
                "for $p in $db/p let $a := for $t in $db/s where $t/k < $p/id return $t "
                "return count($a)",
                "leading where conjunct is not a general = comparison",
            ),
            (
                "for $p in $db/p let $a := for $t in $db/s where $t/k eq $p/id return $t "
                "return count($a)",
                "leading where conjunct is not a general = comparison",
            ),
            (
                "for $p in $db/p let $a := for $t in $db/s "
                "where $t/@n = 's0' or $t/k = $p/id return $t return count($a)",
                "leading where conjunct is not a general = comparison",
            ),
            (
                "for $p in $db/p let $a := for $t in $db/s where $t/k = $t/@n return $t "
                "return count($a)",
                "= does not compare a $t-only key with a $t-free value",
            ),
            (
                "for $p in $db/p let $a := for $t in $db/s "
                "where concat($t/k, $p/@n) = $p/id return $t return count($a)",
                "= does not compare a $t-only key with a $t-free value",
            ),
            (
                "for $p in $db/p let $a := for $t in $db/s where $t/k = $p/id return $t "
                "order by $p/@n return count($a)",
                "enclosing FLWOR has an order by",
            ),
            (
                "let $a := for $t in $db/s where $t/k = 'a' return $t return count($a)",
                "no for clause encloses the inner FLWOR",
            ),
        ],
    )
    def test_declined_shapes_stay_nested_loops(self, query, reason):
        assert verdict(query) == (0, reason)
        db = database([["a"], ["b"]], [["a"], ["b"], ["a"]])
        three_way(query, db, expect_lowered=0)

    def test_no_candidate_no_reason(self):
        assert verdict("for $p in $db/p return $p/id") == (0, None)

    def test_stale_annotation_compiles_as_a_plain_flwor(self):
        module = parse(q8_shape("$t/k = $p/id"))
        body = module.body
        stale = xast.ValueJoinFLWOR(body.clauses, body.return_expr, join_index=0)
        db = database([["a"]], [["a"], ["a"]])
        plain = compile_module(module)(make_context(db, []))
        assert [serialize(i) for i in compile_module(xast.Module([], stale))(
            make_context(db, [])
        )] == [serialize(i) for i in plain]


# ---------------------------------------------------------------------------
# Q8 itself, through the engine
# ---------------------------------------------------------------------------


def normalized(result) -> list:
    return [serialize(i) if isinstance(i, Node) else i for i in result]


def count_calls(monkeypatch, target, name: str) -> list:
    calls: list = []
    original = getattr(target, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(target, name, counting)
    return calls


@pytest.fixture(scope="module")
def hundredth_auction_engine(auction_structure) -> XCQLEngine:
    """XMark at scale 0.01 (255 people x 98 sales), the benchmark's catalog."""
    engine = XCQLEngine(default_now=XSDateTime.parse("2003-06-01T00:00:00"))
    engine.register_stream(AUCTION_STREAM, auction_structure)
    document = generate_auction_document(0.01)
    engine.feed(
        AUCTION_STREAM,
        Fragmenter(auction_structure).fragment(document, XSDateTime.parse("2003-01-01T00:00:00")),
    )
    return engine


class TestQ8:
    @pytest.mark.parametrize("strategy", list(Strategy), ids=lambda s: s.value)
    def test_lowered_reported_and_byte_identical(self, tiny_auction_engine, strategy):
        engine = tiny_auction_engine
        passes = {p["name"]: p for p in engine.explain(Q8, strategy)["passes"]}
        assert passes["lower-value-joins"] == {
            "name": "lower-value-joins", "fired": True, "rewrites": 1, "detail": None,
        }
        lowered = engine.compile(Q8, strategy)
        nested = engine.compile(Q8, strategy, merge_joins=False)
        interpreted = engine.compile(Q8, strategy, backend="interpreted")
        assert (lowered.merge_joins, nested.merge_joins, interpreted.merge_joins) == (1, 0, 0)
        assert type(lowered.translated.body) is xast.ValueJoinFLWOR
        assert type(nested.translated.body) is xast.FLWOR
        assert lowered.translated_source == nested.translated_source
        answer = normalized(engine.execute(lowered))
        assert len(answer) == 25 and any("<item" in item and "> 1 <" not in item for item in answer)
        assert answer == normalized(engine.execute(nested))
        assert answer == normalized(engine.execute(interpreted))

    def test_qacplus_reads_the_sales_once(self, tiny_auction_engine, monkeypatch):
        engine = tiny_auction_engine
        store = engine.stores[AUCTION_STREAM]
        calls = count_calls(monkeypatch, store, "get_fillers_by_tsid")
        engine.execute(engine.compile(Q8, Strategy.QAC_PLUS))
        assert len(calls) == 2  # the people, the closed auctions
        calls.clear()
        engine.execute(engine.compile(Q8, Strategy.QAC_PLUS, merge_joins=False))
        assert len(calls) == 1 + 25  # the closed auctions again per person

    def test_caq_materializes_the_view_once_per_call_site(
        self, tiny_auction_engine, monkeypatch
    ):
        import repro.core.engine as engine_module

        engine = tiny_auction_engine
        reference = normalized(engine.execute(Q8, Strategy.QAC_PLUS))
        calls = count_calls(monkeypatch, engine_module, "temporalize")
        answer = normalized(engine.execute(engine.compile(Q8, Strategy.CAQ)))
        # Two materialized_view("auction") call sites, independent of the
        # 25 people in the loop.
        assert len(calls) == 2
        assert answer == reference
        assert answer == normalized(
            engine.execute(engine.compile(Q8, Strategy.CAQ, backend="interpreted"))
        )

    def test_benchmark_catalog_agrees(self, hundredth_auction_engine):
        engine = hundredth_auction_engine
        lowered = normalized(engine.execute(engine.compile(Q8, Strategy.QAC_PLUS)))
        assert len(lowered) == 255
        for strategy in (Strategy.QAC_PLUS, Strategy.QAC):
            nested = engine.compile(Q8, strategy, merge_joins=False)
            assert normalized(engine.execute(nested)) == lowered
        assert normalized(engine.execute(engine.compile(Q8, Strategy.QAC))) == lowered
        assert normalized(engine.execute(engine.compile(Q8, Strategy.CAQ))) == lowered
        interpreted = engine.compile(Q8, Strategy.QAC_PLUS, backend="interpreted")
        assert normalized(engine.execute(interpreted)) == lowered
