"""Tree-walking evaluator for the XQuery/XCQL AST.

Evaluation follows the XQuery 1.0 dynamic semantics for the implemented
subset: sequences are flat lists, path steps apply per input node with
positional predicates, general comparisons are existential, constructed
elements deep-copy their content.

The :class:`Context` carries the dynamic context — variable bindings, the
focus (item/position/size), the function registry, the *current time* (the
XCQL ``now`` constant, fixed for one evaluation run and advanced between
runs of a continuous query), a document resolver and a stream registry.  The
fragment layer plugs in through two extension points: extra registered
functions (``get_fillers`` & co.) and the ``hole_resolver`` hook used by the
temporal projection functions.
"""

from __future__ import annotations

from functools import cmp_to_key
from typing import Callable, Optional

from repro.dom.nodes import (
    Attr,
    Comment,
    Document,
    Element,
    Node,
    ProcessingInstruction,
    Text,
    document_order_key,
    sort_document_order,
)
from repro.temporal.chrono import ChronoError, XSDateTime, XSDuration
from repro.temporal.interval import NOW, START, TimeInterval, _Symbolic, resolve_point
from repro.xquery import xast
from repro.xquery.errors import (
    XQueryDynamicError,
    XQueryNameError,
    XQueryTypeError,
)
from repro.xquery.functions import Builtin, default_functions
from repro.xquery.temporal_functions import element_lifespan
from repro.xquery.xdm import (
    atomize,
    effective_boolean_value,
    general_compare,
    string_value,
    to_number,
    value_compare,
)

__all__ = [
    "Context",
    "Evaluator",
    "evaluate",
    "UserFunction",
    "eval_arithmetic",
    "eval_interval_comparison",
]


class UserFunction:
    """A user-defined function from a query prolog."""

    __slots__ = ("definition",)

    def __init__(self, definition: xast.FunctionDef):
        self.definition = definition


class Context:
    """The dynamic context of an evaluation run."""

    __slots__ = (
        "variables",
        "functions",
        "now",
        "documents",
        "streams",
        "hole_resolver",
        "temporal_index",
        "item",
        "position",
        "size",
    )

    def __init__(
        self,
        variables: Optional[dict[str, list]] = None,
        functions: Optional[dict] = None,
        now: Optional[XSDateTime] = None,
        documents: Optional[dict[str, Document]] = None,
        streams: Optional[Callable[[str], list]] = None,
        hole_resolver: Optional[Callable[[object], list]] = None,
    ):
        self.variables: dict[str, list] = dict(variables) if variables else {}
        self.functions = default_functions()
        if functions:
            self.functions.update(functions)
        self.now = now or XSDateTime(2000, 1, 1)
        self.documents: dict[str, Document] = dict(documents) if documents else {}
        self.streams = streams
        self.hole_resolver = hole_resolver
        # Temporal endpoint index hook (see repro.core.engine); only the
        # compiled backend consults it — the interpreter keeps scan
        # semantics as the differential reference.
        self.temporal_index = None
        self.item: object = None
        self.position = 0
        self.size = 0

    # -- derived contexts -----------------------------------------------------

    def bind(self, name: str, value: list) -> "Context":
        """A child context with one extra variable binding."""
        child = self._clone()
        child.variables = dict(self.variables)
        child.variables[name] = value
        return child

    def focus(self, item: object, position: int, size: int) -> "Context":
        """A child context with a new focus (item/position/size)."""
        child = self._clone()
        child.item = item
        child.position = position
        child.size = size
        return child

    def _clone(self) -> "Context":
        child = Context.__new__(Context)
        child.variables = self.variables
        child.functions = self.functions
        child.now = self.now
        child.documents = self.documents
        child.streams = self.streams
        child.hole_resolver = self.hole_resolver
        child.temporal_index = self.temporal_index
        child.item = self.item
        child.position = self.position
        child.size = self.size
        return child

    # -- registration -----------------------------------------------------------

    def register_function(self, name: str, fn: Callable, arity: tuple[int, int] | None = None) -> None:
        """Register a Python-native function callable from queries.

        ``fn(ctx, args)`` receives the context and a list of argument
        sequences and returns a sequence.
        """
        lo, hi = arity if arity else (0, 99)
        self.functions[name] = Builtin(name, lo, hi, fn)

    def register_document(self, name: str, document: Document) -> None:
        """Make ``doc(name)`` / ``document(name)`` resolve to a tree."""
        self.documents[name] = document


class Evaluator:
    """Evaluates parsed queries against a :class:`Context`."""

    def __init__(self, context: Context):
        self.context = context

    # -- entry points ---------------------------------------------------------------

    def evaluate_module(self, module: xast.Module) -> list:
        """Register prolog functions, then evaluate the body."""
        for definition in module.functions:
            self.context.functions[definition.name] = UserFunction(definition)
        return self.eval(module.body, self.context)

    def evaluate(self, expr: xast.Expr) -> list:
        """Evaluate a bare expression in the evaluator's context."""
        return self.eval(expr, self.context)

    # -- dispatcher -------------------------------------------------------------------

    def eval(self, expr: xast.Expr, ctx: Context) -> list:
        method = self._DISPATCH.get(type(expr))
        if method is None:
            raise XQueryDynamicError(f"cannot evaluate {type(expr).__name__}")
        return method(self, expr, ctx)

    # -- leaves ------------------------------------------------------------------------

    def _eval_literal(self, expr: xast.Literal, ctx: Context) -> list:
        return [expr.value]

    def _eval_datetime_literal(self, expr: xast.DateTimeLiteral, ctx: Context) -> list:
        try:
            return [XSDateTime.parse(expr.text)]
        except ChronoError as exc:
            raise XQueryDynamicError(str(exc)) from exc

    def _eval_duration_literal(self, expr: xast.DurationLiteral, ctx: Context) -> list:
        try:
            return [XSDuration.parse(expr.text)]
        except ChronoError as exc:
            raise XQueryDynamicError(str(exc)) from exc

    def _eval_now(self, expr: xast.NowConstant, ctx: Context) -> list:
        return [ctx.now]

    def _eval_start(self, expr: xast.StartConstant, ctx: Context) -> list:
        return [START]

    def _eval_var(self, expr: xast.VarRef, ctx: Context) -> list:
        try:
            return ctx.variables[expr.name]
        except KeyError:
            raise XQueryNameError(f"undefined variable ${expr.name}") from None

    def _eval_context_item(self, expr: xast.ContextItem, ctx: Context) -> list:
        if ctx.item is None:
            raise XQueryDynamicError("context item is undefined")
        return [ctx.item]

    def _eval_sequence(self, expr: xast.SequenceExpr, ctx: Context) -> list:
        out: list = []
        for item in expr.items:
            out.extend(self.eval(item, ctx))
        return out

    # -- control -------------------------------------------------------------------------

    def _eval_if(self, expr: xast.IfExpr, ctx: Context) -> list:
        if effective_boolean_value(self.eval(expr.condition, ctx)):
            return self.eval(expr.then, ctx)
        return self.eval(expr.otherwise, ctx)

    def _eval_flwor(self, expr: xast.FLWOR, ctx: Context) -> list:
        tuples: list[Context] = [ctx]
        order_by: Optional[xast.OrderByClause] = None
        for clause in expr.clauses:
            if isinstance(clause, xast.ForClause):
                expanded: list[Context] = []
                for tup in tuples:
                    seq = self.eval(clause.expr, tup)
                    for index, item in enumerate(seq, start=1):
                        bound = tup.bind(clause.var, [item])
                        if clause.position_var:
                            bound = bound.bind(clause.position_var, [index])
                        expanded.append(bound)
                tuples = expanded
            elif isinstance(clause, xast.LetClause):
                tuples = [
                    tup.bind(clause.var, self.eval(clause.expr, tup)) for tup in tuples
                ]
            elif isinstance(clause, xast.WhereClause):
                tuples = [
                    tup
                    for tup in tuples
                    if effective_boolean_value(self.eval(clause.expr, tup))
                ]
            elif isinstance(clause, xast.OrderByClause):
                order_by = clause
        if order_by is not None:
            tuples = self._order_tuples(tuples, order_by)
        out: list = []
        for tup in tuples:
            out.extend(self.eval(expr.return_expr, tup))
        return out

    def _order_tuples(self, tuples: list[Context], clause: xast.OrderByClause) -> list[Context]:
        keyed = []
        for tup in tuples:
            keys = []
            for spec in clause.specs:
                seq = self.eval(spec.expr, tup)
                if len(seq) > 1:
                    raise XQueryTypeError("order-by key must be a singleton or empty")
                keys.append(atomize(seq[0]) if seq else None)
            keyed.append((keys, tup))

        now = self.context.now

        def compare(a, b) -> int:
            for spec, ka, kb in zip(clause.specs, a[0], b[0]):
                if ka is None and kb is None:
                    continue
                if ka is None:
                    result = -1 if spec.empty_least else 1
                elif kb is None:
                    result = 1 if spec.empty_least else -1
                elif value_compare("eq", ka, kb, now):
                    continue
                else:
                    result = -1 if value_compare("lt", ka, kb, now) else 1
                return -result if spec.descending else result
            return 0

        keyed.sort(key=cmp_to_key(compare))
        return [tup for _keys, tup in keyed]

    def _eval_quantified(self, expr: xast.Quantified, ctx: Context) -> list:
        def recurse(bindings: list, current: Context) -> bool:
            if not bindings:
                return effective_boolean_value(self.eval(expr.satisfies, current))
            var, source = bindings[0]
            for item in self.eval(source, current):
                result = recurse(bindings[1:], current.bind(var, [item]))
                if expr.kind == "some" and result:
                    return True
                if expr.kind == "every" and not result:
                    return False
            return expr.kind == "every"

        return [recurse(expr.bindings, ctx)]

    # -- operators ---------------------------------------------------------------------------

    def _eval_binop(self, expr: xast.BinOp, ctx: Context) -> list:
        op = expr.op
        if op == "or":
            if effective_boolean_value(self.eval(expr.left, ctx)):
                return [True]
            return [effective_boolean_value(self.eval(expr.right, ctx))]
        if op == "and":
            if not effective_boolean_value(self.eval(expr.left, ctx)):
                return [False]
            return [effective_boolean_value(self.eval(expr.right, ctx))]

        left = self.eval(expr.left, ctx)
        right = self.eval(expr.right, ctx)

        if op in ("=", "!=", "<", "<=", ">", ">="):
            return [general_compare(op, left, right, ctx.now)]
        if op in ("eq", "ne", "lt", "le", "gt", "ge"):
            if not left or not right:
                return []
            return [
                value_compare(
                    op,
                    _single(left, "value comparison"),
                    _single(right, "value comparison"),
                    ctx.now,
                )
            ]
        if op == "is":
            if not left or not right:
                return []
            return [_single(left, "is") is _single(right, "is")]
        if op in ("<<", ">>"):
            if not left or not right:
                return []
            a = _single(left, "node comparison")
            b = _single(right, "node comparison")
            if not isinstance(a, Node) or not isinstance(b, Node):
                raise XQueryTypeError("node order comparison requires nodes")
            ka, kb = document_order_key(a), document_order_key(b)
            return [ka < kb if op == "<<" else ka > kb]
        if op == "to":
            if not left or not right:
                return []
            lo = int(to_number(_single(left, "range")))
            hi = int(to_number(_single(right, "range")))
            return list(range(lo, hi + 1))
        if op == "|":
            if not all(isinstance(i, Node) for i in left + right):
                raise XQueryTypeError("union requires node operands")
            return sort_document_order(left + right)
        if op == "intersect":
            right_ids = {id(node) for node in right}
            return sort_document_order([n for n in left if id(n) in right_ids])
        if op == "except":
            right_ids = {id(node) for node in right}
            return sort_document_order([n for n in left if id(n) not in right_ids])
        if op in ("+", "-", "*", "div", "idiv", "mod"):
            return eval_arithmetic(op, left, right, ctx)
        if op in (
            "before",
            "after",
            "meets",
            "met-by",
            "overlaps",
            "during",
            "icontains",
            "istarts",
            "finishes",
            "iequals",
        ):
            return eval_interval_comparison(op, left, right, ctx)
        raise XQueryDynamicError(f"unknown operator {op!r}")

    def _eval_unary(self, expr: xast.UnaryOp, ctx: Context) -> list:
        seq = self.eval(expr.operand, ctx)
        if not seq:
            return []
        value = atomize(_single(seq, "unary"))
        if isinstance(value, XSDuration):
            return [-value if expr.op == "-" else value]
        number = to_number(value)
        return [-number if expr.op == "-" else number]

    # -- paths ----------------------------------------------------------------------------------

    def _eval_path(self, expr: xast.PathExpr, ctx: Context) -> list:
        if expr.base is not None:
            seq = self.eval(expr.base, ctx)
        else:
            if ctx.item is None:
                raise XQueryDynamicError("relative path with undefined context item")
            seq = [ctx.item]
        for step in expr.steps:
            seq = self._apply_step(step, seq, ctx)
        if len(seq) > 1 and all(isinstance(i, Node) for i in seq):
            seq = sort_document_order(seq)
        return seq

    def _apply_step(self, step: xast.Step, seq: list, ctx: Context) -> list:
        out: list = []
        for item in seq:
            if not isinstance(item, Node):
                raise XQueryTypeError(
                    f"path step on a non-node item ({type(item).__name__})"
                )
            candidates = _axis_candidates(step, item)
            for predicate in step.predicates:
                candidates = self._filter_with_position(candidates, predicate, ctx)
            out.extend(candidates)
        return out

    def _filter_with_position(self, items: list, predicate: xast.Expr, ctx: Context) -> list:
        size = len(items)
        kept = []
        for position, item in enumerate(items, start=1):
            focused = ctx.focus(item, position, size)
            result = self.eval(predicate, focused)
            if (
                len(result) == 1
                and isinstance(result[0], (int, float))
                and not isinstance(result[0], bool)
            ):
                if result[0] == position:
                    kept.append(item)
            elif effective_boolean_value(result):
                kept.append(item)
        return kept

    def _eval_filter(self, expr: xast.Filter, ctx: Context) -> list:
        seq = self.eval(expr.base, ctx)
        return self._filter_with_position(seq, expr.predicate, ctx)

    # -- projections (XCQL) -----------------------------------------------------------------------

    def _eval_interval_projection(self, expr: xast.IntervalProjection, ctx: Context) -> list:
        base = self.eval(expr.base, ctx)
        begin = self.eval(expr.begin, ctx)
        end = self.eval(expr.end, ctx)
        return self._call_function("interval_projection", [base, begin, end], ctx)

    def _eval_version_projection(self, expr: xast.VersionProjection, ctx: Context) -> list:
        base = self.eval(expr.base, ctx)
        if not base:
            return []
        focused = ctx.focus(ctx.item, ctx.position, len(base))
        begin = self.eval(expr.begin, focused)
        end = self.eval(expr.end, focused)
        return self._call_function("version_projection", [base, begin, end], ctx)

    # -- functions ----------------------------------------------------------------------------------

    def _eval_call(self, expr: xast.FunctionCall, ctx: Context) -> list:
        args = [self.eval(arg, ctx) for arg in expr.args]
        return self._call_function(expr.name, args, ctx)

    def _call_function(self, name: str, args: list[list], ctx: Context) -> list:
        lookup = name[3:] if name.startswith("fn:") else name
        fn = ctx.functions.get(lookup)
        if fn is None:
            raise XQueryNameError(f"undefined function {name}()")
        if isinstance(fn, Builtin):
            if not fn.min_arity <= len(args) <= fn.max_arity:
                raise XQueryTypeError(
                    f"{name}() expects {fn.min_arity}..{fn.max_arity} arguments,"
                    f" got {len(args)}"
                )
            return fn.fn(ctx, args)
        if isinstance(fn, UserFunction):
            definition = fn.definition
            if len(args) != len(definition.params):
                raise XQueryTypeError(
                    f"{name}() expects {len(definition.params)} arguments, got {len(args)}"
                )
            call_ctx = ctx._clone()
            call_ctx.variables = dict(ctx.variables)
            for param, value in zip(definition.params, args):
                call_ctx.variables[param.name] = value
            return self.eval(definition.body, call_ctx)
        raise XQueryTypeError(f"{name} is not callable")

    # -- constructors ----------------------------------------------------------------------------------

    def _eval_direct_element(self, expr: xast.DirectElement, ctx: Context) -> list:
        element = Element(expr.name)
        for attribute in expr.attributes:
            chunks: list[str] = []
            for part in attribute.parts:
                if isinstance(part, str):
                    chunks.append(part)
                else:
                    seq = self.eval(part, ctx)
                    chunks.append(" ".join(string_value(atomize(i)) for i in seq))
            element.set(attribute.name, "".join(chunks))
        for part in expr.content:
            if isinstance(part, str):
                element.append(Text(part))
            else:
                seq = self.eval(part, ctx)
                _append_content(element, seq)
        return [element]

    def _eval_computed_element(self, expr: xast.ComputedElement, ctx: Context) -> list:
        if isinstance(expr.name, str):
            name = expr.name
        else:
            name = string_value(atomize(_single(self.eval(expr.name, ctx), "element name")))
        element = Element(name)
        if expr.content is not None:
            _append_content(element, self.eval(expr.content, ctx))
        return [element]

    def _eval_computed_attribute(self, expr: xast.ComputedAttribute, ctx: Context) -> list:
        if isinstance(expr.name, str):
            name = expr.name
        else:
            name = string_value(atomize(_single(self.eval(expr.name, ctx), "attribute name")))
        if expr.content is None:
            value = ""
        else:
            seq = self.eval(expr.content, ctx)
            value = " ".join(string_value(atomize(i)) for i in seq)
        return [Attr(name, value)]

    def _eval_computed_text(self, expr: xast.ComputedText, ctx: Context) -> list:
        if expr.content is None:
            return [Text("")]
        seq = self.eval(expr.content, ctx)
        return [Text(" ".join(string_value(atomize(i)) for i in seq))]

    def _eval_cast(self, expr: xast.CastExpr, ctx: Context) -> list:
        seq = self.eval(expr.expr, ctx)
        if not seq:
            return []
        value = atomize(_single(seq, "cast"))
        return [_cast_value(value, expr.type_name, ctx)]

    def _eval_instance_of(self, expr: xast.InstanceOf, ctx: Context) -> list:
        seq = self.eval(expr.expr, ctx)
        return [_matches_sequence_type(seq, expr.type_name)]

    _DISPATCH: dict = {}


def _single(seq: list, what: str) -> object:
    if len(seq) != 1:
        raise XQueryTypeError(f"{what} requires a single item, got {len(seq)}")
    return seq[0]


def eval_arithmetic(op: str, left: list, right: list, ctx: Context) -> list:
    """Shared arithmetic semantics (interpreter and compiled backend)."""
    if not left or not right:
        return []
    lhs = atomize(_single(left, "arithmetic"))
    rhs = atomize(_single(right, "arithmetic"))
    lhs = _temporal_cast(lhs, ctx)
    rhs = _temporal_cast(rhs, ctx)

    if isinstance(lhs, XSDateTime) or isinstance(rhs, XSDateTime):
        return [_datetime_arithmetic(op, lhs, rhs)]
    if isinstance(lhs, XSDuration) or isinstance(rhs, XSDuration):
        return [_duration_arithmetic(op, lhs, rhs)]

    a = to_number(lhs)
    b = to_number(rhs)
    if op == "+":
        return [a + b]
    if op == "-":
        return [a - b]
    if op == "*":
        return [a * b]
    if op == "div":
        if b == 0:
            raise XQueryDynamicError("division by zero")
        result = a / b
        return [result]
    if op == "idiv":
        if b == 0:
            raise XQueryDynamicError("integer division by zero")
        return [int(a // b)]
    if op == "mod":
        if b == 0:
            raise XQueryDynamicError("modulo by zero")
        return [a - b * int(a / b) if isinstance(a, int) and isinstance(b, int) else a % b]
    raise XQueryDynamicError(f"unknown arithmetic operator {op!r}")


def eval_interval_comparison(op: str, left: list, right: list, ctx: Context) -> list:
    """Shared XCQL interval-relation semantics (both backends)."""
    a = _to_interval(left, ctx)
    b = _to_interval(right, ctx)
    if a is None or b is None:
        return [False]
    relation = {
        "before": a.before,
        "after": a.after,
        "meets": a.meets,
        "met-by": a.met_by,
        "overlaps": a.overlaps,
        "during": a.during,
        "icontains": a.contains,
        "istarts": a.starts,
        "finishes": a.finishes,
        "iequals": a.equals,
    }[op]
    return [relation(b)]


def _temporal_cast(value: object, ctx: Context) -> object:
    """Give strings that look temporal their temporal type for arithmetic."""
    if value is NOW:
        return ctx.now
    if value is START:
        return resolve_point(START, ctx.now)
    if isinstance(value, str):
        text = value.strip()
        if text == "now":
            return ctx.now
        if text == "start":
            return resolve_point(START, ctx.now)
        try:
            return XSDateTime.parse(text)
        except ChronoError:
            pass
        if text.startswith("P") or text.startswith("-P"):
            try:
                return XSDuration.parse(text)
            except ChronoError:
                pass
    return value


def _datetime_arithmetic(op: str, lhs: object, rhs: object) -> object:
    # Bare numbers act as second counts (the paper's example 3 adds
    # `distance div speed` — a number of seconds — to a time).
    if isinstance(lhs, XSDateTime) and isinstance(rhs, (int, float)):
        rhs = XSDuration(0, float(rhs))
    if isinstance(rhs, XSDateTime) and isinstance(lhs, (int, float)):
        lhs = XSDuration(0, float(lhs))
    if op == "+" and isinstance(lhs, XSDateTime) and isinstance(rhs, XSDuration):
        return lhs + rhs
    if op == "+" and isinstance(lhs, XSDuration) and isinstance(rhs, XSDateTime):
        return rhs + lhs
    if op == "-" and isinstance(lhs, XSDateTime) and isinstance(rhs, XSDuration):
        return lhs - rhs
    if op == "-" and isinstance(lhs, XSDateTime) and isinstance(rhs, XSDateTime):
        return lhs - rhs
    raise XQueryTypeError(
        f"invalid dateTime arithmetic: {type(lhs).__name__} {op} {type(rhs).__name__}"
    )


def _duration_arithmetic(op: str, lhs: object, rhs: object) -> object:
    if isinstance(lhs, XSDuration) and isinstance(rhs, XSDuration):
        if op == "+":
            return lhs + rhs
        if op == "-":
            return lhs - rhs
        if op == "div":
            if rhs.months:
                raise XQueryTypeError("cannot divide by a year-month duration")
            return lhs.seconds / rhs.seconds
    if isinstance(lhs, XSDuration) and isinstance(rhs, (int, float, str)):
        factor = to_number(rhs)
        if op == "*":
            return lhs * factor
        if op == "div":
            return lhs / factor
    if isinstance(rhs, XSDuration) and isinstance(lhs, (int, float, str)) and op == "*":
        return rhs * to_number(lhs)
    raise XQueryTypeError(
        f"invalid duration arithmetic: {type(lhs).__name__} {op} {type(rhs).__name__}"
    )


def _to_interval(seq: list, ctx: Context) -> Optional[TimeInterval]:
    """Coerce an operand of an interval comparison to a resolved interval.

    Accepts interval values, elements (their lifespan), and single time
    points (the point interval).
    """
    if not seq:
        return None
    item = seq[0]
    if isinstance(item, TimeInterval):
        return item.resolve(ctx.now)
    if isinstance(item, Element):
        return element_lifespan(item, ctx).resolve(ctx.now)
    value = _temporal_cast(atomize(item), ctx)
    if isinstance(value, XSDateTime):
        return TimeInterval.point(value)
    if isinstance(value, _Symbolic):
        return TimeInterval.point(value).resolve(ctx.now)
    raise XQueryTypeError(f"cannot interpret {type(item).__name__} as a time interval")


def _axis_candidates(step: xast.Step, node: Node) -> list:
    axis, test = step.axis, step.test
    if axis == "child":
        return [c for c in node.children if _node_test(c, test)]
    if axis == "descendant-or-self":
        out = []
        stack = list(reversed(node.children))
        if _node_test(node, test):
            out.append(node)
        while stack:
            current = stack.pop()
            if _node_test(current, test):
                out.append(current)
            stack.extend(reversed(current.children))
        return out
    if axis == "attribute":
        if not isinstance(node, Element):
            return []
        if test == "*":
            return node.attribute_nodes()
        value = node.attrs.get(test)
        return [Attr(test, value, node)] if value is not None else []
    if axis == "descendant-attribute":
        out = []
        stack = [node]
        while stack:
            current = stack.pop()
            if isinstance(current, Element):
                if test == "*":
                    out.extend(current.attribute_nodes())
                else:
                    value = current.attrs.get(test)
                    if value is not None:
                        out.append(Attr(test, value, current))
            stack.extend(reversed(current.children))
        return out
    if axis == "self":
        return [node] if _node_test(node, test) else []
    if axis == "parent":
        return [node.parent] if node.parent is not None else []
    raise XQueryDynamicError(f"unsupported axis {axis!r}")


def _node_test(node: Node, test: str) -> bool:
    if test == "node()":
        return True
    if test == "text()":
        return isinstance(node, Text)
    if test == "*":
        return isinstance(node, Element)
    return isinstance(node, Element) and node.tag == test


def _append_content(element: Element, seq: list) -> None:
    """Apply XQuery content-sequence semantics to a constructed element."""
    pending: list[str] = []

    def flush() -> None:
        if pending:
            element.append(Text(" ".join(pending)))
            pending.clear()

    for item in seq:
        if isinstance(item, Attr):
            flush()
            element.set(item.name, item.value)
        elif isinstance(item, Element):
            flush()
            element.append(item.copy() if item.parent is not None else item)
        elif isinstance(item, Text):
            flush()
            element.append(Text(item.text))
        elif isinstance(item, Document):
            flush()
            root = item.document_element
            if root is not None:
                element.append(root.copy())
        elif isinstance(item, (Comment, ProcessingInstruction)):
            flush()
            element.append(
                Comment(item.text)
                if isinstance(item, Comment)
                else ProcessingInstruction(item.target, item.text)
            )
        else:
            pending.append(string_value(atomize(item)))
    flush()


def _cast_value(value: object, type_name: str, ctx: Context) -> object:
    base = type_name.split(":")[-1].rstrip("?")
    text = string_value(value)
    if base in ("integer", "int", "long"):
        return int(to_number(value))
    if base in ("decimal", "double", "float"):
        return float(to_number(value))
    if base == "string":
        return text
    if base == "boolean":
        return effective_boolean_value([value])
    if base in ("dateTime", "date"):
        casted = _temporal_cast(text, ctx)
        if not isinstance(casted, XSDateTime):
            raise XQueryTypeError(f"cannot cast {text!r} to xs:{base}")
        return casted
    if base in ("duration", "dayTimeDuration", "yearMonthDuration"):
        return XSDuration.parse(text)
    raise XQueryTypeError(f"unsupported cast target {type_name!r}")


Evaluator._DISPATCH = {
    xast.Literal: Evaluator._eval_literal,
    xast.DateTimeLiteral: Evaluator._eval_datetime_literal,
    xast.DurationLiteral: Evaluator._eval_duration_literal,
    xast.NowConstant: Evaluator._eval_now,
    xast.StartConstant: Evaluator._eval_start,
    xast.VarRef: Evaluator._eval_var,
    xast.ContextItem: Evaluator._eval_context_item,
    xast.SequenceExpr: Evaluator._eval_sequence,
    xast.IfExpr: Evaluator._eval_if,
    xast.FLWOR: Evaluator._eval_flwor,
    # The interpreter deliberately ignores the join annotations and keeps
    # nested-loop semantics: it is the differential reference for the
    # compiled sort-merge and hash joins.
    xast.IntervalJoinFLWOR: Evaluator._eval_flwor,
    xast.ValueJoinFLWOR: Evaluator._eval_flwor,
    xast.Quantified: Evaluator._eval_quantified,
    xast.BinOp: Evaluator._eval_binop,
    xast.UnaryOp: Evaluator._eval_unary,
    xast.PathExpr: Evaluator._eval_path,
    xast.Filter: Evaluator._eval_filter,
    xast.IntervalProjection: Evaluator._eval_interval_projection,
    xast.VersionProjection: Evaluator._eval_version_projection,
    xast.FunctionCall: Evaluator._eval_call,
    xast.DirectElement: Evaluator._eval_direct_element,
    xast.ComputedElement: Evaluator._eval_computed_element,
    xast.ComputedAttribute: Evaluator._eval_computed_attribute,
    xast.ComputedText: Evaluator._eval_computed_text,
    xast.CastExpr: Evaluator._eval_cast,
    xast.InstanceOf: Evaluator._eval_instance_of,
}


def _matches_sequence_type(seq: list, type_name: str) -> bool:
    """``instance of`` check for the supported sequence types."""
    base = type_name
    occurrence = ""
    if base and base[-1] in "?*+":
        base, occurrence = base[:-1], base[-1]
    if occurrence == "" and len(seq) != 1:
        return base == "empty-sequence()" and not seq
    if occurrence == "?" and len(seq) > 1:
        return False
    if occurrence == "+" and not seq:
        return False
    return all(_matches_item_type(item, base) for item in seq)


def _matches_item_type(item: object, base: str) -> bool:
    local = base.split(":")[-1]
    if local in ("item()",):
        return True
    if local == "node()":
        return isinstance(item, Node)
    if local == "element()":
        return isinstance(item, Element)
    if local == "text()":
        return isinstance(item, Text)
    if local == "attribute()":
        return isinstance(item, Attr)
    if local == "document-node()":
        return isinstance(item, Document)
    if local in ("integer", "int", "long"):
        return isinstance(item, int) and not isinstance(item, bool)
    if local in ("decimal", "double", "float", "numeric"):
        return isinstance(item, (int, float)) and not isinstance(item, bool)
    if local == "string":
        return isinstance(item, str)
    if local == "boolean":
        return isinstance(item, bool)
    if local in ("dateTime", "date"):
        return isinstance(item, XSDateTime)
    if local in ("duration", "dayTimeDuration", "yearMonthDuration"):
        return isinstance(item, XSDuration)
    if local in ("anyAtomicType", "untypedAtomic"):
        return not isinstance(item, Node)
    raise XQueryTypeError(f"unsupported sequence type {base!r}")


def evaluate(source_or_ast, context: Optional[Context] = None, xcql: bool = False) -> list:
    """Convenience one-shot evaluation of query text or a parsed module."""
    from repro.xquery.parser import parse

    ctx = context or Context()
    if isinstance(source_or_ast, str):
        module = parse(source_or_ast, xcql=xcql)
    elif isinstance(source_or_ast, xast.Module):
        module = source_or_ast
    else:
        module = xast.Module([], source_or_ast)
    return Evaluator(ctx).evaluate_module(module)
