"""Tests for static analysis (repro.xquery.static, engine.check)."""

import pytest

from repro.xquery.functions import default_functions
from repro.xquery.parser import parse
from repro.xquery.static import check_module


def check(source: str):
    return [i.code for i in check_module(parse(source, xcql=True), default_functions())]


class TestCheckModule:
    def test_clean(self):
        assert check("for $x in (1, 2) return count(($x))") == []

    def test_undefined_variable(self):
        assert check("$nope + 1") == ["undefined-variable"]

    def test_flwor_binds_in_order(self):
        # $y is used before its let binds it.
        assert "undefined-variable" in check(
            "for $x in ($y) let $y := 1 return $x"
        )

    def test_let_visible_later(self):
        assert check("let $y := 1 return $y + 1") == []

    def test_position_var_bound(self):
        assert check("for $x at $i in (1, 2) return $i") == []

    def test_quantified_binding(self):
        assert check("some $q in (1, 2) satisfies $q = 1") == []
        assert "undefined-variable" in check("some $q in ($q) satisfies 1 = 1")

    def test_unknown_function(self):
        assert check("mystery(1)") == ["unknown-function"]

    def test_bad_arity(self):
        assert check("count(1, 2)") == ["bad-arity"]
        assert check("count()") == ["bad-arity"]

    def test_user_function_params_in_scope(self):
        assert check("define function f($a) { $a + 1 } f(1)") == []

    def test_user_function_arity_checked(self):
        assert "bad-arity" in check("define function f($a) { $a } f(1, 2)")

    def test_duplicate_function(self):
        assert "duplicate" in check(
            "define function f() { 1 } define function f() { 2 } f()"
        )

    def test_duplicate_parameter(self):
        assert "duplicate" in check("define function f($a, $a) { $a } f(1, 2)")

    def test_user_function_sees_other_functions(self):
        assert check(
            "define function g() { 1 } define function f() { g() } f()"
        ) == []

    def test_fn_prefix(self):
        assert check("fn:count((1, 2))") == []

    def test_issue_str(self):
        issues = check_module(parse("$x"), default_functions())
        assert "$x" in str(issues[0])


def _unbound(source: str) -> set[str]:
    """The variables ``source`` reads without binding them."""
    return {
        issue.message.split()[0][1:]
        for issue in check_module(parse(source), default_functions())
        if issue.code == "undefined-variable"
    }


class TestFreeVariables:
    def test_simple(self):
        assert _unbound("$a + $b") == {"a", "b"}

    def test_flwor_bound_excluded(self):
        assert _unbound("for $x in ($a) return $x + $b") == {"a", "b"}

    def test_nested_scopes(self):
        assert _unbound("let $x := $outer return for $y in ($x) return $y") == {"outer"}


class TestEngineCheck:
    def test_clean_query(self, credit_engine):
        assert credit_engine.check(
            'for $a in stream("credit")//account return count($a/transaction)'
        ) == []

    def test_reports_both_kinds(self, credit_engine):
        issues = credit_engine.check('stream("credit")//bogus/mystery($x)')
        codes = {issue.code for issue in issues}
        assert "unknown-path" in codes or "syntax-error" in codes

    def test_undefined_variable_reported(self, credit_engine):
        issues = credit_engine.check('count(stream("credit")//account) + $x')
        assert "undefined-variable" in {issue.code for issue in issues}

    def test_registered_function_known(self, credit_engine):
        credit_engine.register_function("dist", lambda ctx, args: [0], (2, 2))
        assert credit_engine.check("dist(1, 2)") == []
        assert "bad-arity" in {i.code for i in credit_engine.check("dist(1)")}
