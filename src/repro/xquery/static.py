"""Static analysis of parsed queries: names, arities, unbound variables.

Catches the errors that would otherwise surface mid-evaluation (or worse,
never, on a branch the test data does not reach):

- references to undefined variables,
- calls to unknown functions,
- calls with an arity no known signature accepts,
- duplicate function definitions and duplicate parameter names.

Used by :meth:`repro.core.engine.XCQLEngine.check` before running
continuous queries that will live for a long time.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.xquery import xast

__all__ = ["StaticIssue", "check_module"]


@dataclass(frozen=True)
class StaticIssue:
    """One static-analysis finding."""

    code: str  # undefined-variable | unknown-function | bad-arity | duplicate
    message: str

    def __str__(self) -> str:
        return f"[{self.code}] {self.message}"


def check_module(
    module: xast.Module,
    known_functions: dict | None = None,
    bound_variables: set[str] | None = None,
) -> list[StaticIssue]:
    """Check a parsed module; returns issues (empty when clean).

    ``known_functions`` maps names to objects carrying ``min_arity`` /
    ``max_arity`` (builtins) or a ``definition`` with params (user
    functions) — the same registry shape the evaluator uses.
    """
    issues: list[StaticIssue] = []
    functions: dict[str, tuple[int, int]] = {}
    if known_functions:
        for name, fn in known_functions.items():
            functions[name] = _arity_of(fn)

    seen_defs: set[str] = set()
    for definition in module.functions:
        if definition.name in seen_defs:
            issues.append(
                StaticIssue("duplicate", f"function {definition.name}() defined twice")
            )
        seen_defs.add(definition.name)
        params = [p.name for p in definition.params]
        if len(params) != len(set(params)):
            issues.append(
                StaticIssue(
                    "duplicate",
                    f"function {definition.name}() has duplicate parameter names",
                )
            )
        functions[definition.name] = (len(params), len(params))

    for definition in module.functions:
        scope = set(bound_variables or set()) | {p.name for p in definition.params}
        _walk(definition.body, scope, functions, issues)
    _walk(module.body, set(bound_variables or set()), functions, issues)
    return issues


def _arity_of(fn: object) -> tuple[int, int]:
    if hasattr(fn, "min_arity"):
        return (fn.min_arity, fn.max_arity)
    definition = getattr(fn, "definition", None)
    if definition is not None:
        count = len(definition.params)
        return (count, count)
    return (0, 99)


def _walk(
    node: object,
    scope: set[str],
    functions: dict[str, tuple[int, int]],
    issues: list[StaticIssue],
) -> None:
    if isinstance(node, xast.VarRef):
        if node.name not in scope:
            issues.append(StaticIssue("undefined-variable", f"${node.name} is not bound"))
        return
    if isinstance(node, xast.FunctionCall):
        lookup = node.name[3:] if node.name.startswith("fn:") else node.name
        signature = functions.get(lookup)
        if signature is None:
            issues.append(
                StaticIssue("unknown-function", f"{node.name}() is not defined")
            )
        else:
            lo, hi = signature
            if not lo <= len(node.args) <= hi:
                expected = str(lo) if lo == hi else f"{lo}..{hi}"
                issues.append(
                    StaticIssue(
                        "bad-arity",
                        f"{node.name}() expects {expected} argument(s),"
                        f" got {len(node.args)}",
                    )
                )
        for argument in node.args:
            _walk(argument, scope, functions, issues)
        return
    if isinstance(node, xast.FLWOR):
        inner = set(scope)
        for clause in node.clauses:
            if isinstance(clause, xast.ForClause):
                _walk(clause.expr, inner, functions, issues)
                inner.add(clause.var)
                if clause.position_var:
                    inner.add(clause.position_var)
            elif isinstance(clause, xast.LetClause):
                _walk(clause.expr, inner, functions, issues)
                inner.add(clause.var)
            elif isinstance(clause, xast.WhereClause):
                _walk(clause.expr, inner, functions, issues)
            elif isinstance(clause, xast.OrderByClause):
                for spec in clause.specs:
                    _walk(spec.expr, inner, functions, issues)
        _walk(node.return_expr, inner, functions, issues)
        return
    if isinstance(node, xast.Quantified):
        inner = set(scope)
        for var, source in node.bindings:
            _walk(source, inner, functions, issues)
            inner.add(var)
        _walk(node.satisfies, inner, functions, issues)
        return
    for child in xast.children(node):
        _walk(child, scope, functions, issues)
