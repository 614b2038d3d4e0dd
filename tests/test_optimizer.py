"""Tests for the get_fillers hoisting rewrite (paper §8 extension)."""

import pytest

from repro import Strategy
from repro.core.optimizer import count_calls
from repro.core.pipeline import hoist_common_fillers
from repro.dom import serialize
from repro.xquery import parse_xcql, to_source

from tests.conftest import NOW_2003_12_15

QUERY_1 = """
for $a in stream("credit")//account
where sum($a/transaction?[2003-11-01,2003-12-01][status = "charged"]/amount) >=
      $a/creditLimit?[now]
return
  <account>
    { attribute id {$a/@id}, $a/customer, $a/creditLimit }
  </account>
"""


class TestHoisting:
    def test_query1_folds_to_one_call(self, credit_engine):
        plain = credit_engine.compile(QUERY_1, Strategy.QAC)
        optimized = credit_engine.compile(QUERY_1, Strategy.QAC, optimize=True)
        # Unoptimized: one call per hole crossing of $a (three of them).
        assert count_calls(plain.translated.body, "get_fillers") >= 4
        assert optimized.hoisted_calls == 1
        assert (
            count_calls(optimized.translated.body, "get_fillers")
            < count_calls(plain.translated.body, "get_fillers")
        )
        assert "$a__fillers" in optimized.translated_source

    def test_optimized_results_identical(self, credit_engine):
        plain = credit_engine.execute(
            credit_engine.compile(QUERY_1, Strategy.QAC), now=NOW_2003_12_15
        )
        optimized = credit_engine.execute(
            credit_engine.compile(QUERY_1, Strategy.QAC, optimize=True),
            now=NOW_2003_12_15,
        )
        assert [serialize(e) for e in optimized] == [serialize(e) for e in plain]

    def test_let_placed_after_binding(self, credit_engine):
        optimized = credit_engine.compile(QUERY_1, Strategy.QAC, optimize=True)
        text = optimized.translated_source
        assert text.index("for $a in") < text.index("let $a__fillers :=")
        assert text.index("let $a__fillers :=") < text.index("where")

    def test_single_use_not_hoisted(self, credit_engine):
        compiled = credit_engine.compile(
            'for $a in stream("credit")//account return $a/creditLimit',
            Strategy.QAC,
            optimize=True,
        )
        assert compiled.hoisted_calls == 0

    def test_idempotent(self):
        module = parse_xcql(
            'for $a in x return (get_fillers("s", $a/hole/@id)/b,'
            ' get_fillers("s", $a/hole/@id)/c)'
        )
        once, n1 = hoist_common_fillers(module)
        twice, n2 = hoist_common_fillers(once)
        assert n1 == 1 and n2 == 0
        assert to_source(twice) == to_source(once)

    def test_does_not_capture_unrelated_variables(self):
        module = parse_xcql(
            'for $a in x, $b in y return (get_fillers("s", $a/hole/@id)/p,'
            ' get_fillers("s", $b/hole/@id)/q,'
            ' get_fillers("s", $a/hole/@id)/r,'
            ' get_fillers("s", $b/hole/@id)/t)'
        )
        optimized, count = hoist_common_fillers(module)
        assert count == 2
        text = to_source(optimized)
        assert "let $a__fillers" in text and "let $b__fillers" in text

    def test_nested_flwor_handled(self):
        module = parse_xcql(
            "for $a in x return "
            'for $b in get_fillers("s", $a/hole/@id)/k '
            'return (get_fillers("s", $b/hole/@id)/m, get_fillers("s", $b/hole/@id)/n)'
        )
        optimized, count = hoist_common_fillers(module)
        assert count == 1
        assert "let $b__fillers" in to_source(optimized)

    def test_count_calls_helper(self):
        module = parse_xcql("f(1) + f(2) + g(f(3))")
        assert count_calls(module.body, "f") == 3
        assert count_calls(module.body, "g") == 1


VENDOR_JOIN = """
for $a in stream("credit")//account
let $m := for $t in stream("credit")//transaction
          where $t/vendor = $a/transaction/vendor
          return $t
where count($a/transaction) >= 1 and count($a/transaction) < 99
return <r id="{$a/@id}">{ count($m) }</r>
"""


class TestValueJoinAfterHoisting:
    """The two rewrites compose: hoisting inserts a ``let`` before the join
    clause, and the lowering annotates the clause where it ends up."""

    @pytest.mark.parametrize("strategy", [Strategy.QAC, Strategy.QAC_PLUS])
    def test_join_index_follows_the_hoisted_let(self, credit_engine, strategy):
        from repro.xquery import xast

        compiled = credit_engine.compile(VENDOR_JOIN, strategy, optimize=True)
        assert (compiled.hoisted_calls, compiled.merge_joins) == (1, 1)
        body = compiled.translated.body
        assert type(body) is xast.ValueJoinFLWOR
        assert [c.var for c in body.clauses[:3]] == ["a", "a__fillers", "m"]
        assert body.join_index == 2 and body.inner_on_left
        # The annotation adds no nodes: call counts are those of the FLWOR.
        plain = credit_engine.compile(
            VENDOR_JOIN, strategy, optimize=True, merge_joins=False
        )
        assert count_calls(body, "get_fillers") == count_calls(
            plain.translated.body, "get_fillers"
        )

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_results_identical(self, credit_engine, strategy):
        def run(**options):
            compiled = credit_engine.compile(VENDOR_JOIN, strategy, **options)
            return [serialize(i) for i in credit_engine.execute(compiled, now=NOW_2003_12_15)]

        lowered = run(optimize=True)
        assert lowered == ['<r id="1234">2</r>', '<r id="7777">1</r>']
        assert lowered == run(optimize=False, merge_joins=False)
        assert lowered == run(optimize=True, backend="interpreted")


class TestOptimizedBench:
    def test_optimized_is_not_slower(self, credit_engine):
        import time

        plain = credit_engine.compile(QUERY_1, Strategy.QAC)
        optimized = credit_engine.compile(QUERY_1, Strategy.QAC, optimize=True)

        def timed(compiled) -> float:
            best = float("inf")
            for _ in range(5):
                started = time.perf_counter()
                credit_engine.execute(compiled, now=NOW_2003_12_15)
                best = min(best, time.perf_counter() - started)
            return best

        # On the small fixture the win is modest; require no regression
        # with a generous tolerance.
        assert timed(optimized) <= timed(plain) * 1.5
