"""Differential tests: compiled closure backend vs. the tree interpreter.

Every query of the existing corpus (engine, translator, projection and
continuous-query tests, the paper's XMark picks, plus a pure-XQuery
expression battery) must produce byte-identical results under both
backends, across all three execution strategies — including *error*
behaviour (same exception type, same message).

Also covers the plan cache: repeated ``execute()`` of the same source
performs exactly one parse+translate.
"""

from __future__ import annotations

import pytest

from repro.core import Strategy
from repro.dom.nodes import Node
from repro.dom.serializer import serialize
from repro.xmark import ALL_QUERIES
from repro.xquery.compiler import compile_module
from repro.xquery.errors import (
    XQueryDynamicError,
    XQueryNameError,
    XQueryTypeError,
)
from repro.xquery.evaluator import Context, Evaluator
from repro.xquery.parser import parse

from .conftest import NOW_2003_12_15

STRATEGIES = (Strategy.QAC_PLUS, Strategy.QAC, Strategy.CAQ)


def normalized(seq: list) -> list:
    return [serialize(i) if isinstance(i, Node) else i for i in seq]


def run_differential(engine, query: str, strategy: Strategy, now=None) -> list:
    """Run one query under both backends and return the (equal) result."""
    interpreted = engine.compile(query, strategy, backend="interpreted")
    compiled = engine.compile(query, strategy, backend="compiled")
    assert compiled.plan is not None
    assert interpreted.plan is None
    a = normalized(engine.execute(interpreted, now=now))
    b = normalized(engine.execute(compiled, now=now))
    assert a == b, f"backend divergence for {query!r} under {strategy.value}"
    return b


# -- the XCQL corpus over the credit stream ---------------------------------

CREDIT_QUERIES = [
    'count(stream("credit")//account)',
    'stream("credit")//account/customer/text()',
    # §3 examples: projections, intervals, versions.
    'stream("credit")//account/creditLimit?[now]',
    'stream("credit")//account/creditLimit?[1998-01-01, 2003-12-14]',
    'stream("credit")//account/creditLimit#[1, 1]',
    'stream("credit")//account/creditLimit#[last(), last()]',
    'count(stream("credit")//transaction?[2003-09-01, 2003-12-01])',
    # predicates + joins + construction
    '''for $a in stream("credit")//account
       where some $t in $a//transaction satisfies $t/amount > 1000
       return <flagged id="{$a/@id}"/>''',
    '''for $a in stream("credit")//account
       let $limits := $a/creditLimit
       order by $a/@id descending
       return <acct id="{$a/@id}">{ count($limits) }</acct>''',
    '''for $t in stream("credit")//transaction
       where $t/status/text() = "suspended"
       return $t/vendor/text()''',
    'for $a in stream("credit")//account[@id = "1234"] return count($a//transaction)',
    'stream("credit")//transaction[amount > 500]/vendor/text()',
    '''for $a at $p in stream("credit")//account
       return concat(string($p), ":", string($a/@id))''',
    'some $a in stream("credit")//account satisfies $a/creditLimit?[now] > 4000',
    'every $a in stream("credit")//account satisfies exists($a/customer)',
    '''define function spend($a) { sum(for $t in $a//transaction return number($t/amount)) }
       for $a in stream("credit")//account return spend($a)''',
    'if (count(stream("credit")//account) > 1) then "many" else "one"',
    'stream("credit")//account[@id = "1234"]/creditLimit?[now] cast as xs:integer',
]


@pytest.mark.parametrize("strategy", STRATEGIES, ids=[s.value for s in STRATEGIES])
@pytest.mark.parametrize("query", CREDIT_QUERIES, ids=range(len(CREDIT_QUERIES)))
def test_credit_corpus_parity(credit_engine, query, strategy):
    run_differential(credit_engine, query, strategy, now=NOW_2003_12_15)


def test_credit_results_nonempty(credit_engine):
    """Sanity: the corpus actually exercises data, not empty sequences."""
    nonempty = sum(
        1
        for query in CREDIT_QUERIES
        if run_differential(credit_engine, query, Strategy.QAC, now=NOW_2003_12_15)
    )
    assert nonempty >= len(CREDIT_QUERIES) - 2


# -- the paper's XMark queries over the auction stream ----------------------


@pytest.mark.parametrize("name", sorted(ALL_QUERIES))
@pytest.mark.parametrize("strategy", STRATEGIES, ids=[s.value for s in STRATEGIES])
def test_xmark_corpus_parity(tiny_auction_engine, name, strategy):
    run_differential(tiny_auction_engine, ALL_QUERIES[name], strategy)


# -- pure XQuery expression battery (no streams) ----------------------------

EXPRESSIONS = [
    "1 + 2 * 3 - 4 idiv 2",
    "7 mod 3",
    "10 div 4",
    "(1, 2, 3), (4, 5)",
    "(1 to 10)[2]",
    "string-join((\"a\", \"b\", \"c\"), \"-\")",
    "for $x in (3, 1, 2) order by $x return $x * 10",
    "for $x in (1, 2), $y in (10, 20) return $x + $y",
    "let $s := (5, 6, 7) return $s[last()]",
    "some $x in (1, 2, 3) satisfies $x gt 2",
    "every $x in (1, 2, 3) satisfies $x ge 1",
    "if (1 < 2) then \"yes\" else \"no\"",
    "<out>{ for $i in 1 to 3 return <i n=\"{$i}\">{ $i * $i }</i> }</out>",
    "element dyn { attribute a { 1 + 1 }, text { \"body\" } }",
    "<a><b>x</b><b>y</b></a>/b/text()",
    "<a><b><c/></b></a>//c",
    "count(<a><b/><b/></a>/b | <a2/>)",
    "<a><b i=\"1\"/><b i=\"2\"/></a>/b[@i = \"2\"]",
    "(<a><b>1</b></a>/b, <c/>) instance of element()+",
    "\"42\" cast as xs:integer",
    "2000-01-01T00:00:00 + PT1M",
    "PT2H - PT30M",
    "now - PT1H lt now",
    "define function twice($x) { ($x, $x) } count(twice((1, 2)))",
    "define function fib($n) { if ($n le 1) then $n else fib($n - 1) + fib($n - 2) } fib(10)",
    "-(3.5 + 1.5)",
    "concat(\"a\", \"b\", \"c\")",
    "substring(\"hello world\", 7)",
    "contains(\"haystack\", \"hay\")",
    "number(\"3.25\") * 4",
    # order by: the compiled FLWOR's one driver chain, sorted snapshots.
    "for $x at $i in (\"b\", \"a\", \"c\") order by $x return ($i, $x)",
    "for $x in 1 to 6 let $y := $x mod 3 where $x ne 4 "
    "order by $y descending, $x return ($y, $x)",
    "for $x in (1, 2, 3), $y in (\"a\", \"b\") "
    "order by $y descending, $x descending return concat($y, string($x))",
    "let $s := (3, 1, 2) for $x in $s where $x gt 1 order by $x return $x",
    "for $x in (<a k=\"2\"/>, <a/>, <a k=\"1\"/>) order by $x/@k empty least "
    "return $x",
    "for $x in (<a k=\"2\"/>, <a/>, <a k=\"1\"/>) "
    "order by $x/@k descending empty greatest return $x",
    "for $x in (2, 1) order by $x return for $y in (\"q\", \"p\") "
    "order by $y return ($x, $y)",
]


@pytest.mark.parametrize("source", EXPRESSIONS, ids=range(len(EXPRESSIONS)))
def test_expression_parity(source):
    module = parse(source, xcql=True)
    interpreted = Evaluator(Context()).evaluate_module(module)
    compiled = compile_module(module)(Context())
    assert normalized(interpreted) == normalized(compiled)


def test_order_by_binds_no_context(monkeypatch):
    """An ordered FLWOR runs the same driver chain as an order-free one:
    its tuples are snapshots of one scratch context, none a ``bind``."""
    binds = []
    bind = Context.bind
    monkeypatch.setattr(Context, "bind", lambda self, *a: binds.append(1) or bind(self, *a))
    module = parse(
        "for $x at $i in (3, 1, 2), $y in (1, 2) let $z := $x * $y where $z gt 1 "
        "order by $z descending return ($i, $z)",
        xcql=True,
    )
    assert compile_module(module)(Context()) == [1, 6, 3, 4, 1, 3, 2, 2, 3, 2]
    assert binds == []
    assert Evaluator(Context()).evaluate_module(module) == [1, 6, 3, 4, 1, 3, 2, 2, 3, 2]


# -- error parity -----------------------------------------------------------

ERROR_CASES = [
    ("nosuchfn(1, 2)", XQueryNameError),            # undefined function
    ("count(1, 2, 3)", XQueryTypeError),            # builtin arity mismatch
    ("define function f($a, $b) { $a } f(1)", XQueryTypeError),  # user arity
    ("(1)/x", XQueryTypeError),                     # non-node path step
    ("$undefined", XQueryNameError),                # undefined variable
    ("(1, 2) eq (3, 4)", XQueryTypeError),          # value comparison on seq
    ("1 div 0", XQueryDynamicError),                # division by zero
    ("5 idiv 0", XQueryDynamicError),               # integer division by zero
    ("1 mod 0", XQueryDynamicError),                # modulo by zero
    ("for $x in (1, 2) order by (1, 2) return $x", XQueryTypeError),  # bad key
    ("for $x in (1, 2) let $k := ($x, $x) where $x gt 0 order by $k return $x",
     XQueryTypeError),                              # bad key after let/where
    ("\"x\" cast as xs:dateTime", XQueryTypeError),  # bad cast
    (".", XQueryDynamicError),                      # undefined context item
]


@pytest.mark.parametrize(
    "source, expected", ERROR_CASES, ids=[c[0][:30] for c in ERROR_CASES]
)
def test_error_parity(source, expected):
    module = parse(source, xcql=True)
    with pytest.raises(expected) as interp_err:
        Evaluator(Context()).evaluate_module(module)
    with pytest.raises(expected) as comp_err:
        compile_module(module)(Context())
    assert str(interp_err.value) == str(comp_err.value)


@pytest.mark.parametrize("strategy", STRATEGIES, ids=[s.value for s in STRATEGIES])
def test_engine_error_parity(credit_engine, strategy):
    cases = [
        'for $a in stream("credit")//account return nosuch($a)',
        'count(stream("credit")//account, 2)',
        'define function f($a, $b) { $a } f(stream("credit")//account)',
    ]
    for query in cases:
        errors = []
        for backend in ("interpreted", "compiled"):
            compiled = credit_engine.compile(query, strategy, backend=backend)
            with pytest.raises((XQueryNameError, XQueryTypeError)) as err:
                credit_engine.execute(compiled, now=NOW_2003_12_15)
            errors.append((type(err.value), str(err.value)))
        assert errors[0] == errors[1], f"error divergence for {query!r}"


# -- plan cache -------------------------------------------------------------


class TestPlanCache:
    def test_repeated_execute_parses_once(self, credit_engine, monkeypatch):
        """The acceptance criterion: one parse+translate for N executions."""
        import repro.core.engine as engine_module

        calls = {"parse": 0}
        real_parse = engine_module.parse

        def counting_parse(source, xcql=False):
            calls["parse"] += 1
            return real_parse(source, xcql=xcql)

        monkeypatch.setattr(engine_module, "parse", counting_parse)
        credit_engine.clear_plan_cache()
        query = 'count(stream("credit")//transaction)'
        results = [
            credit_engine.execute(query, now=NOW_2003_12_15) for _ in range(5)
        ]
        assert all(r == results[0] for r in results)
        assert calls["parse"] == 1
        info = credit_engine.plan_cache_info()
        assert info["hits"] == 4
        assert info["misses"] == 1

    def test_cache_key_includes_strategy_and_backend(self, credit_engine):
        credit_engine.clear_plan_cache()
        query = 'count(stream("credit")//account)'
        a = credit_engine.compile(query, Strategy.QAC)
        b = credit_engine.compile(query, Strategy.QAC_PLUS)
        c = credit_engine.compile(query, Strategy.QAC, backend="interpreted")
        d = credit_engine.compile(query, Strategy.QAC)
        assert a is not b
        assert a is not c
        assert a is d  # same key: cache hit returns the identical plan

    def test_use_cache_false_bypasses(self, credit_engine):
        credit_engine.clear_plan_cache()
        query = 'count(stream("credit")//account)'
        a = credit_engine.compile(query, Strategy.QAC, use_cache=False)
        b = credit_engine.compile(query, Strategy.QAC, use_cache=False)
        assert a is not b
        assert credit_engine.plan_cache_info()["size"] == 0

    def test_register_stream_invalidates(self, credit_structure, credit_fillers):
        from repro import XCQLEngine

        engine = XCQLEngine(default_now=NOW_2003_12_15)
        engine.register_stream("credit", credit_structure)
        engine.feed("credit", credit_fillers)
        engine.compile('count(stream("credit")//account)')
        assert engine.plan_cache_info()["size"] == 1
        engine.register_stream("credit2", credit_structure)
        assert engine.plan_cache_info()["size"] == 0

    def test_lru_eviction(self, credit_engine):
        from repro import XCQLEngine

        engine = XCQLEngine(default_now=NOW_2003_12_15, plan_cache_size=2)
        engine.register_stream(
            "credit", credit_engine.tag_structures["credit"],
            credit_engine.stores["credit"],
        )
        q1 = 'count(stream("credit")//account)'
        q2 = 'count(stream("credit")//transaction)'
        q3 = 'count(stream("credit")//creditLimit)'
        engine.compile(q1)
        engine.compile(q2)
        engine.compile(q3)  # evicts q1
        assert engine.plan_cache_info()["size"] == 2
        first = engine.compile(q2)  # still cached
        assert engine.plan_cache_info()["hits"] >= 1
        again = engine.compile(q2)
        assert first is again

    def test_continuous_query_shares_cached_plan(self, credit_engine):
        from repro.streams.continuous import ContinuousQuery

        credit_engine.clear_plan_cache()
        q = ContinuousQuery(
            credit_engine,
            'for $a in stream("credit")//account return $a/@id',
            strategy=Strategy.QAC_PLUS,
        )
        assert q.compiled.plan is not None
        # A second standing query over the same source reuses the plan.
        q2 = ContinuousQuery(
            credit_engine,
            'for $a in stream("credit")//account return $a/@id',
            strategy=Strategy.QAC_PLUS,
        )
        assert q.compiled is q2.compiled
        r1 = q.evaluate(NOW_2003_12_15)
        assert q.engine.plan_cache_info()["hits"] >= 1
        assert normalized(r1) == normalized(q.last_result)

    def test_interpreted_backend_still_available(self, credit_engine):
        q = 'count(stream("credit")//account)'
        interp = credit_engine.execute(
            q, now=NOW_2003_12_15, backend="interpreted"
        )
        comp = credit_engine.execute(q, now=NOW_2003_12_15, backend="compiled")
        assert interp == comp == [2]

    def test_execute_on_view_cached(self, credit_engine, monkeypatch):
        import repro.core.engine as engine_module

        calls = {"parse": 0}
        real_parse = engine_module.parse

        def counting_parse(source, xcql=False):
            calls["parse"] += 1
            return real_parse(source, xcql=xcql)

        monkeypatch.setattr(engine_module, "parse", counting_parse)
        credit_engine.clear_plan_cache()
        q = 'count(stream("credit")//account)'
        a = credit_engine.execute_on_view(q, now=NOW_2003_12_15)
        b = credit_engine.execute_on_view(q, now=NOW_2003_12_15)
        assert a == b == [2]
        assert calls["parse"] == 1

    def test_invalid_backend_rejected(self, credit_engine):
        with pytest.raises(ValueError):
            credit_engine.compile('count(stream("credit")//account)', backend="jit")


# -- document order of child-only paths ---------------------------------------


class TestChildPathFromOneNodeSkipsTheSort:
    """A child-only path from one node is in document order already.

    The compiled path returns it as the steps built it: the same sequence
    the interpreter's sorted path returns, without numbering the tree.
    Any other path — several base items, or one non-``child`` step —
    still sorts and drops duplicates.
    """

    XML = (
        "<r><a><b>1</b><c/><b>2<b>5</b></b></a><d/>"
        "<a><b>3</b>t<b>4</b></a></r>"
    )

    def _both(self, monkeypatch, source: str) -> tuple[list, list, int]:
        """(interpreted, compiled, _renumber calls of the compiled run)."""
        from repro.dom import parse_document
        from repro.dom.nodes import _Container

        module = parse(source, xcql=True)
        interpreted = Evaluator(
            Context(variables={"d": [parse_document(self.XML)]})
        ).evaluate_module(module)
        calls = [0]
        renumber = _Container._renumber

        def counting(container):
            calls[0] += 1
            renumber(container)

        monkeypatch.setattr(_Container, "_renumber", counting)
        compiled = compile_module(module)(
            Context(variables={"d": [parse_document(self.XML)]})
        )
        return normalized(interpreted), normalized(compiled), calls[0]

    @pytest.mark.parametrize(
        "source",
        [
            "$d/r/a/b",
            "$d/r/a/b/text()",
            "$d/r/a/node()",
            "$d/r/*/b[2]",
            "$d/r/a[b = '3']/b",
            "$d/*/*/*",
            "for $a in $d/r/a return $a/b",
        ],
    )
    def test_same_sequence_no_numbering(self, monkeypatch, source):
        interpreted, compiled, renumbered = self._both(monkeypatch, source)
        assert compiled == interpreted and compiled
        assert renumbered == 0

    @pytest.mark.parametrize(
        "source, expected",
        [
            # Several base items, out of order and repeated.
            ("($d/r/a[2], $d/r/a[1], $d/r/a[2])/b", ["<b>1</b>", "<b>2<b>5</b></b>",
                                                    "<b>3</b>", "<b>4</b>"]),
            # A descendant step meets b/b below b.
            ("$d/r//b", ["<b>1</b>", "<b>2<b>5</b></b>", "<b>5</b>", "<b>3</b>",
                         "<b>4</b>"]),
            # A parent step meets each a twice.
            ("$d/r/a/b/..", [
                "<a><b>1</b><c/><b>2<b>5</b></b></a>", "<a><b>3</b>t<b>4</b></a>",
            ]),
            ("$d/r/a/b/.", ["<b>1</b>", "<b>2<b>5</b></b>", "<b>3</b>",
                                  "<b>4</b>"]),
        ],
    )
    def test_other_paths_still_sort_and_dedupe(self, monkeypatch, source, expected):
        interpreted, compiled, renumbered = self._both(monkeypatch, source)
        assert compiled == interpreted == expected
        assert renumbered > 0


class TestChildPathFromRisingRootsSkipsTheSort:
    """Child steps from parentless trees in rising tree order need no sort.

    That is how the store hands out its wrappers (``get_fillers_by_tsid``):
    the path returns what the steps built, numbering no tree.  Roots out
    of order, a root given twice, a non-root among them, or a step that is
    not ``child`` still sort and drop duplicates.
    """

    def _run(self, monkeypatch, source: str, base: list) -> tuple[list, list, int]:
        """(interpreted, compiled, _renumber calls of the compiled run)."""
        from repro.dom.nodes import _Container

        module = parse(source, xcql=True)
        interpreted = Evaluator(Context(variables={"w": base})).evaluate_module(module)
        for node in base:
            node.root()._dirty = True  # as a write leaves a wrapper
        calls = [0]
        renumber = _Container._renumber

        def counting(container):
            calls[0] += 1
            renumber(container)

        monkeypatch.setattr(_Container, "_renumber", counting)
        compiled = compile_module(module)(Context(variables={"w": base}))
        return normalized(interpreted), normalized(compiled), calls[0]

    @staticmethod
    def _trees() -> list:
        from repro.dom import parse_fragment

        return [
            parse_fragment(f"<w><a><b>{i}1</b><b>{i}2<b>{i}5</b></b></a><a><b>{i}3</b></a></w>")[0]
            for i in range(3)
        ]

    @pytest.mark.parametrize("source", ["$w/a/b", "$w/a/b[1]/text()", "$w/*", "$w/a[b]/b"])
    def test_rising_roots_keep_order_unnumbered(self, monkeypatch, source):
        interpreted, compiled, renumbered = self._run(monkeypatch, source, self._trees())
        assert compiled == interpreted and compiled
        assert renumbered == 0

    @pytest.mark.parametrize(
        "source, pick",
        [
            ("$w/a/b", lambda t: [t[2], t[0], t[1]]),  # out of tree order
            ("$w/a/b", lambda t: [t[0], t[1], t[1]]),  # a root twice
            ("$w/b", lambda t: [t[0], t[1].children[0], t[0].children[0]]),  # not roots
            ("$w//b", lambda t: t),  # descendant step
            ("$w/a/b/..", lambda t: t),  # parent step
        ],
    )
    def test_other_bases_and_steps_still_sort_and_dedupe(self, monkeypatch, source, pick):
        trees = self._trees()
        interpreted, compiled, renumbered = self._run(monkeypatch, source, pick(trees))
        assert compiled == interpreted and compiled
        assert renumbered > 0
