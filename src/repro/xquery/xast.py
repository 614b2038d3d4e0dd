"""AST node definitions for the XQuery/XCQL grammar.

All nodes are plain dataclasses so translators (notably the Figure 3
schema-based XCQL translation in :mod:`repro.core.translator`) can rebuild
trees structurally.  ``to_source`` renders an AST back to query text — used
for showing users the translated query, exactly as the paper prints its
example translations.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Union

__all__ = [
    "Expr",
    "Literal",
    "DateTimeLiteral",
    "DurationLiteral",
    "NowConstant",
    "StartConstant",
    "VarRef",
    "ContextItem",
    "SequenceExpr",
    "IfExpr",
    "ForClause",
    "LetClause",
    "WhereClause",
    "OrderSpec",
    "OrderByClause",
    "FLWOR",
    "IntervalJoinFLWOR",
    "ValueJoinFLWOR",
    "Quantified",
    "BinOp",
    "UnaryOp",
    "Step",
    "PathExpr",
    "Filter",
    "IntervalProjection",
    "VersionProjection",
    "FunctionCall",
    "DirectElement",
    "DirectAttribute",
    "ComputedElement",
    "ComputedAttribute",
    "ComputedText",
    "CastExpr",
    "Param",
    "FunctionDef",
    "Module",
    "to_source",
    "WALKABLE_TYPES",
    "children",
    "walk",
    "map_children",
    "substitute",
]


class Expr:
    """Base class for expression nodes."""

    __slots__ = ()


@dataclass
class Literal(Expr):
    """A string/number/boolean literal."""

    value: object


@dataclass
class DateTimeLiteral(Expr):
    """A bare ``CCYY-MM-DD[Thh:mm:ss]`` literal (XCQL interval syntax)."""

    text: str


@dataclass
class DurationLiteral(Expr):
    """A bare ``PnYnMnDTnHnMnS`` literal such as ``PT1M`` (XCQL syntax)."""

    text: str


@dataclass
class NowConstant(Expr):
    """The XCQL ``now`` constant — the moving current time."""


@dataclass
class StartConstant(Expr):
    """The XCQL ``start`` constant — the beginning of time."""


@dataclass
class VarRef(Expr):
    """``$name``."""

    name: str


@dataclass
class ContextItem(Expr):
    """``.`` — the context item."""


@dataclass
class SequenceExpr(Expr):
    """Comma operator / parenthesized sequence: ``(e1, e2, ...)``."""

    items: list[Expr]


@dataclass
class IfExpr(Expr):
    """``if (cond) then e1 else e2``."""

    condition: Expr
    then: Expr
    otherwise: Expr


@dataclass
class ForClause:
    """``for $var [at $pos] in expr``."""

    var: str
    expr: Expr
    position_var: Optional[str] = None


@dataclass
class LetClause:
    """``let $var := expr``."""

    var: str
    expr: Expr


@dataclass
class WhereClause:
    """``where expr``."""

    expr: Expr


@dataclass
class OrderSpec:
    """One key of an ``order by``."""

    expr: Expr
    descending: bool = False
    empty_least: bool = True


@dataclass
class OrderByClause:
    """``[stable] order by key1 [descending], ...``."""

    specs: list[OrderSpec]
    stable: bool = False


Clause = Union[ForClause, LetClause, WhereClause, OrderByClause]


@dataclass
class FLWOR(Expr):
    """A FLWOR expression."""

    clauses: list[Clause]
    return_expr: Expr


@dataclass
class IntervalJoinFLWOR(FLWOR):
    """A FLWOR whose leading clauses form an interval-comparison join.

    Produced by ``repro.core.optimizer.lower_interval_joins`` when two
    adjacent independent ``for`` clauses feed a ``where`` whose leftmost
    conjunct is an interval comparison between exactly their variables.
    ``clauses``/``return_expr`` stay byte-identical to the original FLWOR,
    so every consumer that treats this as a plain FLWOR (the interpreter,
    ``to_source``, dependency analysis) keeps nested-loop semantics; only
    the compiled backend reads the annotations and emits a sort-merge join.

    ``join_index`` is the position of the outer ``for`` clause (the inner
    one is at ``join_index + 1``, the ``where`` at ``join_index + 2``);
    ``outer_on_left`` records which side of the comparison the outer
    variable appears on; ``residual`` is the where expression minus the
    join conjunct (``None`` when the join was the whole predicate).
    """

    join_index: int = 0
    join_op: str = "overlaps"
    outer_on_left: bool = True
    residual: Optional[Expr] = None


@dataclass
class ValueJoinFLWOR(FLWOR):
    """A FLWOR one of whose clauses binds a decorrelatable equi-join.

    Produced by ``repro.core.optimizer.lower_value_joins`` when the clause
    at ``join_index`` (a ``let`` or a ``for``) binds an inner FLWOR
    ``for $t in S where K = P [and rest] return R`` whose source ``S`` and
    key ``K`` do not depend on the enclosing loop (XMark Q8's shape).  As
    with :class:`IntervalJoinFLWOR`, ``clauses``/``return_expr`` stay
    byte-identical, so every consumer that treats this as a plain FLWOR
    keeps nested-loop semantics; only the compiled backend reads the
    annotations, evaluates ``S`` once per execution and probes a hash
    table of ``K`` per enclosing tuple.

    ``inner_on_left`` records which side of the ``=`` — the leftmost
    conjunct of the inner ``where`` — depends on the inner variable.  The
    node adds no expression fields, so tree walks see exactly the FLWOR.
    """

    join_index: int = 0
    inner_on_left: bool = True


@dataclass
class Quantified(Expr):
    """``some/every $v in e (, ...) satisfies cond``."""

    kind: str  # "some" | "every"
    bindings: list[tuple[str, Expr]]
    satisfies: Expr


@dataclass
class BinOp(Expr):
    """A binary operator.

    ``op`` is one of: ``or and  = != < <= > >=  eq ne lt le gt ge  is
    + - * div idiv mod  to  |  intersect except  before after meets met-by
    overlaps during icontains starts finishes iequals``.
    (The last group are XCQL interval comparisons; ``icontains``/``iequals``
    avoid clashing with the XQuery keywords ``contains``/``=``.)
    """

    op: str
    left: Expr
    right: Expr


@dataclass
class UnaryOp(Expr):
    """Unary ``-`` or ``+``."""

    op: str
    operand: Expr


@dataclass
class Step:
    """One path step.

    ``axis`` ∈ {"child", "descendant-or-self", "attribute", "self",
    "parent"}; ``test`` is an element/attribute name, ``"*"``, or one of the
    kind tests ``"text()"``, ``"node()"``.  ``//`` parses as a
    descendant-or-self step.
    """

    axis: str
    test: str
    predicates: list[Expr] = field(default_factory=list)


@dataclass
class PathExpr(Expr):
    """``base/step/step...``; ``base=None`` means the path is relative."""

    base: Optional[Expr]
    steps: list[Step]


@dataclass
class Filter(Expr):
    """A predicate applied to a non-step expression: ``expr[pred]``."""

    base: Expr
    predicate: Expr


@dataclass
class IntervalProjection(Expr):
    """XCQL ``e ? [t1, t2]`` — restrict lifespans to a time window."""

    base: Expr
    begin: Expr
    end: Expr


@dataclass
class VersionProjection(Expr):
    """XCQL ``e # [v1, v2]`` — select versions by 1-based index."""

    base: Expr
    begin: Expr
    end: Expr


@dataclass
class FunctionCall(Expr):
    """``name(arg, ...)`` — builtin, user-defined, or ``stream("x")``."""

    name: str
    args: list[Expr]


@dataclass
class DirectAttribute:
    """An attribute inside a direct constructor; value parts interleave
    literal text (str) and enclosed expressions (Expr)."""

    name: str
    parts: list[Union[str, Expr]]


@dataclass
class DirectElement(Expr):
    """A direct element constructor ``<tag a="{e}">content</tag>``.

    ``content`` interleaves literal text (str), nested constructors and
    enclosed expressions.
    """

    name: str
    attributes: list[DirectAttribute]
    content: list[Union[str, Expr]]


@dataclass
class ComputedElement(Expr):
    """``element {name-expr} {content}`` (name may be a literal QName)."""

    name: Union[str, Expr]
    content: Optional[Expr]


@dataclass
class ComputedAttribute(Expr):
    """``attribute name {content}``."""

    name: Union[str, Expr]
    content: Optional[Expr]


@dataclass
class ComputedText(Expr):
    """``text {content}``."""

    content: Optional[Expr]


@dataclass
class CastExpr(Expr):
    """``expr cast as type`` (a small set of target types)."""

    expr: Expr
    type_name: str


@dataclass
class InstanceOf(Expr):
    """``expr instance of type`` (sequence-type test)."""

    expr: Expr
    type_name: str


@dataclass
class Param:
    """A declared function parameter."""

    name: str
    type_name: Optional[str] = None


@dataclass
class FunctionDef:
    """``define function name($p as t, ...) as t { body }``."""

    name: str
    params: list[Param]
    return_type: Optional[str]
    body: Expr


@dataclass
class Module:
    """A parsed query: function definitions plus the main expression."""

    functions: list[FunctionDef]
    body: Expr


# ---------------------------------------------------------------------------
# Generic tree plumbing
# ---------------------------------------------------------------------------
#
# Every rewrite and analysis over these trees needs the same three
# primitives: enumerate a node's AST children, rebuild a node with mapped
# children, and substitute a subtree.  They used to be copy-pasted into
# each consumer (optimizer, static checker, linter, scheduler); the pass
# pipeline (repro.core.pipeline) and all other traversals now share the
# implementations below.

#: The dataclass node types the generic walkers descend into: every
#: :class:`Expr` plus the clause/step/attribute helpers that hang off
#: them.  ``Module``/``FunctionDef``/``Param`` are deliberately excluded —
#: traversals visit a module's body and each function body explicitly.
WALKABLE_TYPES = (
    Expr,
    Step,
    ForClause,
    LetClause,
    WhereClause,
    OrderByClause,
    OrderSpec,
    DirectAttribute,
)


def children(node: object) -> list:
    """The direct AST children of a node, in dataclass-field order.

    Non-dataclass values (strings, numbers, ``None``) have no children;
    lists and tuples are flattened transparently, so a FLWOR's clauses
    and a constructor's mixed content both enumerate correctly.
    """
    out: list = []
    if dataclasses.is_dataclass(node):
        for spec in dataclasses.fields(node):
            _collect(getattr(node, spec.name), out)
    return out


def _collect(value: object, out: list) -> None:
    if isinstance(value, WALKABLE_TYPES):
        out.append(value)
    elif isinstance(value, (list, tuple)):
        for item in value:
            _collect(item, out)


def walk(node: object) -> Iterator[object]:
    """Yield ``node`` and every AST descendant, preorder."""
    stack = [node]
    while stack:
        current = stack.pop()
        yield current
        stack.extend(reversed(children(current)))


def map_children(node: object, fn: Callable[[object], object]) -> object:
    """Rebuild ``node`` with ``fn`` applied to each direct AST child.

    Returns ``node`` itself (not a copy) when nothing changed, so
    rewrites preserve sharing on untouched subtrees.  Values that are not
    walkable nodes pass through unmapped.
    """
    if not dataclasses.is_dataclass(node) or not isinstance(node, WALKABLE_TYPES):
        return node
    changed = False
    updates = {}
    for spec in dataclasses.fields(node):
        value = getattr(node, spec.name)
        new_value = _map_value(value, fn)
        if new_value is not value:
            changed = True
        updates[spec.name] = new_value
    if not changed:
        return node
    return type(node)(**updates)


def _map_value(value: object, fn: Callable[[object], object]) -> object:
    if isinstance(value, WALKABLE_TYPES):
        return fn(value)
    if isinstance(value, list):
        mapped = [_map_value(item, fn) for item in value]
        if all(a is b for a, b in zip(mapped, value)):
            return value
        return mapped
    if isinstance(value, tuple):
        return tuple(_map_value(item, fn) for item in value)
    return value


def substitute(node: object, target: object, replacement: object) -> object:
    """Replace every subtree equal to ``target`` with ``replacement``.

    Equality is structural (dataclass ``==``), matching how the rewrite
    passes identify repeated expressions.
    """
    if node == target:
        return replacement

    def visit(child: object) -> object:
        return substitute(child, target, replacement)

    return map_children(node, visit)


# ---------------------------------------------------------------------------
# Source rendering
# ---------------------------------------------------------------------------


def to_source(node: object, indent: int = 0) -> str:
    """Render an AST back to (normalized) query text."""
    pad = "  " * indent
    if isinstance(node, Module):
        parts = [to_source(f) for f in node.functions]
        parts.append(to_source(node.body))
        return "\n\n".join(parts)
    if isinstance(node, FunctionDef):
        params = ", ".join(
            f"${p.name}" + (f" as {p.type_name}" if p.type_name else "") for p in node.params
        )
        ret = f" as {node.return_type}" if node.return_type else ""
        return f"define function {node.name}({params}){ret} {{ {to_source(node.body)} }}"
    if isinstance(node, Literal):
        if isinstance(node.value, str):
            escaped = node.value.replace('"', '""')
            return f'"{escaped}"'
        if isinstance(node.value, bool):
            return "true()" if node.value else "false()"
        return str(node.value)
    if isinstance(node, DateTimeLiteral):
        return node.text
    if isinstance(node, DurationLiteral):
        return node.text
    if isinstance(node, NowConstant):
        return "now"
    if isinstance(node, StartConstant):
        return "start"
    if isinstance(node, VarRef):
        return f"${node.name}"
    if isinstance(node, ContextItem):
        return "."
    if isinstance(node, SequenceExpr):
        return "(" + ", ".join(to_source(item) for item in node.items) + ")"
    if isinstance(node, IfExpr):
        return (
            f"if ({to_source(node.condition)}) then {to_source(node.then)}"
            f" else {to_source(node.otherwise)}"
        )
    if isinstance(node, FLWOR):
        lines = []
        for clause in node.clauses:
            if isinstance(clause, ForClause):
                at = f" at ${clause.position_var}" if clause.position_var else ""
                lines.append(f"for ${clause.var}{at} in {to_source(clause.expr)}")
            elif isinstance(clause, LetClause):
                lines.append(f"let ${clause.var} := {to_source(clause.expr)}")
            elif isinstance(clause, WhereClause):
                lines.append(f"where {to_source(clause.expr)}")
            elif isinstance(clause, OrderByClause):
                keys = ", ".join(
                    to_source(s.expr) + (" descending" if s.descending else "")
                    for s in clause.specs
                )
                lines.append(f"order by {keys}")
        lines.append(f"return {to_source(node.return_expr)}")
        return ("\n" + pad).join(lines)
    if isinstance(node, Quantified):
        bindings = ", ".join(f"${v} in {to_source(e)}" for v, e in node.bindings)
        return f"{node.kind} {bindings} satisfies {to_source(node.satisfies)}"
    if isinstance(node, BinOp):
        left = to_source(node.left)
        right = to_source(node.right)
        # Parenthesize compound operands so structure survives re-parsing
        # (the renderer does not track operator precedence).
        if isinstance(node.left, (BinOp, UnaryOp, IfExpr, FLWOR, Quantified, CastExpr)):
            left = f"({left})"
        if isinstance(node.right, (BinOp, UnaryOp, IfExpr, FLWOR, Quantified, CastExpr)):
            right = f"({right})"
        return f"{left} {node.op} {right}"
    if isinstance(node, UnaryOp):
        if isinstance(node.operand, (BinOp, UnaryOp, IfExpr, FLWOR, Quantified, CastExpr)):
            return f"{node.op}({to_source(node.operand)})"
        return f"{node.op}{to_source(node.operand)}"
    if isinstance(node, PathExpr):
        if node.base is not None:
            out = to_source(node.base)
            for step in node.steps:
                out += _step_source(step)
            return out
        # Relative path: the first step has no leading slash.
        first, rest = node.steps[0], node.steps[1:]
        out = _step_source(first).lstrip("/") if first.axis != "descendant-or-self" else "." + _step_source(first)
        for step in rest:
            out += _step_source(step)
        return out
    if isinstance(node, Filter):
        return f"{to_source(node.base)}[{to_source(node.predicate)}]"
    if isinstance(node, IntervalProjection):
        return f"{to_source(node.base)}?[{to_source(node.begin)}, {to_source(node.end)}]"
    if isinstance(node, VersionProjection):
        return f"{to_source(node.base)}#[{to_source(node.begin)}, {to_source(node.end)}]"
    if isinstance(node, FunctionCall):
        return f"{node.name}(" + ", ".join(to_source(a) for a in node.args) + ")"
    if isinstance(node, DirectElement):
        attrs = "".join(
            " " + attr.name + '="' + "".join(
                part if isinstance(part, str) else "{" + to_source(part) + "}"
                for part in attr.parts
            ) + '"'
            for attr in node.attributes
        )
        if not node.content:
            return f"<{node.name}{attrs}/>"
        content = "".join(
            part if isinstance(part, str) else "{ " + to_source(part) + " }"
            for part in node.content
        )
        return f"<{node.name}{attrs}>{content}</{node.name}>"
    if isinstance(node, ComputedElement):
        name = node.name if isinstance(node.name, str) else "{" + to_source(node.name) + "}"
        body = to_source(node.content) if node.content is not None else ""
        return f"element {name} {{ {body} }}"
    if isinstance(node, ComputedAttribute):
        name = node.name if isinstance(node.name, str) else "{" + to_source(node.name) + "}"
        body = to_source(node.content) if node.content is not None else ""
        return f"attribute {name} {{ {body} }}"
    if isinstance(node, ComputedText):
        body = to_source(node.content) if node.content is not None else ""
        return f"text {{ {body} }}"
    if isinstance(node, CastExpr):
        return f"{to_source(node.expr)} cast as {node.type_name}"
    if isinstance(node, InstanceOf):
        return f"{to_source(node.expr)} instance of {node.type_name}"
    raise TypeError(f"cannot render {type(node).__name__}")


def _step_source(step: Step) -> str:
    if step.axis == "child":
        text = "/" + step.test
    elif step.axis == "descendant-or-self":
        text = "//" + step.test
    elif step.axis == "attribute":
        text = "/@" + step.test
    elif step.axis == "self":
        text = "/."
    elif step.axis == "parent":
        text = "/.."
    else:
        raise TypeError(f"unknown axis {step.axis!r}")
    for predicate in step.predicates:
        text += f"[{to_source(predicate)}]"
    return text
