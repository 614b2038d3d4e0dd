"""Closure-compilation backend for the XQuery/XCQL engine.

The tree-walking :class:`~repro.xquery.evaluator.Evaluator` pays a
per-node dispatch (``type(expr)`` lookup + bound-method call), per-node
``isinstance`` chains inside operators, and string comparisons on every
axis/test application.  For a *standing* query — the paper's XCQL
continuous queries, re-evaluated on every arrival tick — that tax is paid
on the same AST over and over.

This module lowers an AST **once** into nested Python closures of shape
``(ctx) -> list``:

- literals become constant closures (datetime/duration literals are
  parsed at compile time);
- path steps become pre-resolved step chains — the axis walker and the
  node test are picked per step at compile time, and predicates are
  compiled once and re-applied through a single reusable focus context;
- FLWOR clauses become one pre-bound chain of drivers over a scratch
  context (no ``isinstance`` per clause per run, no tuple list but the
  one an ``order by`` sorts);
- binary operators select their implementation at compile time;
- function-call targets are resolved at compile time where statically
  known (the module's own prolog functions); all other calls do a single
  dict lookup at run time so engine-registered builtins keep working.

Dynamic semantics are *identical* to the interpreter — including error
behaviour (undefined functions, arity mismatches, path steps on
non-nodes) — which ``tests/test_compiled_backend.py`` asserts
differentially over the whole query corpus.  Helpers with non-trivial
semantics (arithmetic, interval relations, casts, content construction)
are shared with the evaluator rather than duplicated.
"""

from __future__ import annotations

import operator
from bisect import bisect_left, bisect_right
from typing import Callable, Optional

from repro.dom.nodes import (
    Attr,
    Element,
    Node,
    Text,
    document_order_key,
    in_tree_order,
    sort_document_order,
)
from repro.temporal.chrono import ChronoError, XSDateTime, XSDuration
from repro.temporal.interval import START, TimeInterval
from repro.xquery import xast
from repro.xquery.errors import (
    XQueryDynamicError,
    XQueryNameError,
    XQueryTypeError,
)
from repro.xquery.evaluator import (
    Context,
    UserFunction,
    _append_content,
    _cast_value,
    _matches_sequence_type,
    _single,
    _to_interval,
    eval_arithmetic,
    eval_interval_comparison,
)
from repro.xquery.functions import Builtin
from repro.xquery.temporal_functions import (
    fn_interval_projection,
    fn_interval_projection_indexed,
    fn_version_projection,
    fn_version_projection_indexed,
)
from repro.xquery.xdm import (
    atomize,
    atomize_sequence,
    effective_boolean_value,
    general_compare,
    string_value,
    to_number,
    value_compare,
)

__all__ = [
    "CompiledPlan",
    "compile_module",
    "compile_expr",
    "compile_delta_plan",
    "compile_guard",
]

Plan = Callable[[Context], list]


class CompiledUserFunction:
    """A prolog function compiled to a closure (parameters pre-bound)."""

    __slots__ = ("name", "params", "body")

    def __init__(self, name: str, params: list[str], body: Plan):
        self.name = name
        self.params = params
        self.body = body


class CompiledPlan:
    """An executable query plan: ``plan(ctx) -> list``.

    Calling the plan registers the module's prolog functions into the
    context (matching :meth:`Evaluator.evaluate_module`) and runs the
    compiled body.
    """

    __slots__ = ("module", "body", "functions")

    def __init__(self, module: xast.Module, body: Plan,
                 functions: dict[str, CompiledUserFunction]):
        self.module = module
        self.body = body
        self.functions = functions

    def __call__(self, ctx: Context) -> list:
        for name, fn in self.functions.items():
            ctx.functions[name] = fn
        return self.body(ctx)


class _ModuleScope:
    """Compile-time knowledge shared by all closures of one module.

    Holds the module's own prolog functions (statically resolvable call
    targets) and a memo for lazily compiling *foreign* interpreted
    :class:`UserFunction` bodies encountered at run time.
    """

    __slots__ = ("prolog", "_foreign")

    def __init__(self) -> None:
        self.prolog: dict[str, CompiledUserFunction] = {}
        self._foreign: dict[int, Plan] = {}

    def foreign_body(self, definition: xast.FunctionDef) -> Plan:
        plan = self._foreign.get(id(definition))
        if plan is None:
            plan = _compile(definition.body, self)
            self._foreign[id(definition)] = plan
        return plan


def compile_module(module: xast.Module) -> CompiledPlan:
    """Compile a parsed module into an executable plan."""
    scope = _ModuleScope()
    # Pre-register names first so prolog functions can call each other
    # (and themselves) through static resolution.
    for definition in module.functions:
        scope.prolog[definition.name] = CompiledUserFunction(
            definition.name, [p.name for p in definition.params], _uncompiled
        )
    for definition in module.functions:
        scope.prolog[definition.name].body = _compile(definition.body, scope)
    body = _compile(module.body, scope)
    return CompiledPlan(module, body, dict(scope.prolog))


def compile_expr(expr: xast.Expr) -> Plan:
    """Compile a bare expression (no prolog) into ``(ctx) -> list``."""
    return _compile(expr, _ModuleScope())


def compile_delta_plan(module: xast.Module, var: str) -> Callable:
    """Compile one half of an incremental plan into ``run(ctx, values) -> list``.

    ``module`` is the prefix or the residual module of a delta-safe plan
    (see :func:`repro.core.optimizer.analyze_delta`), whose driving
    sequence has been replaced by ``$var``; the returned callable binds
    ``values`` to that variable and runs the ordinary compiled plan over
    them — just-arrived filler wrappers in and binding tuples out for the
    prefix, binding tuples in and result items out for the residual.
    Because the closure pipeline is source-agnostic, the incremental path
    reuses every existing stage — steps, predicates, joins, constructors —
    unchanged; only the driving sequence shrinks from the whole store to
    the batch.
    """
    plan = compile_module(module)

    def run(ctx: Context, values: list) -> list:
        ctx.variables[var] = list(values)
        try:
            return plan(ctx)
        finally:
            ctx.variables.pop(var, None)

    return run


def compile_guard(expr: xast.Expr, var: str) -> Callable:
    """Compile a residual's guard into ``accepts(ctx, item) -> bool``.

    The verdict is the one ``where expr`` gives with ``item`` bound to
    ``$var`` — the ``where`` driver itself runs, so the effective boolean
    value and every error are the unsplit residual's.
    """
    drive = _stream_where(xast.WhereClause(expr), _ModuleScope(), _accept)

    def accepts(ctx: Context, item: object) -> bool:
        variables = ctx.variables
        variables[var] = [item]
        out: list = []
        try:
            drive(ctx, out)
        finally:
            variables.pop(var, None)
        return bool(out)

    return accepts


def _accept(ctx: Context, out: list) -> None:
    out.append(True)


def _uncompiled(ctx: Context) -> list:  # placeholder body, never survives
    raise XQueryDynamicError("function body not compiled")


# ---------------------------------------------------------------------------
# Expression lowering
# ---------------------------------------------------------------------------


def _compile(expr: xast.Expr, scope: _ModuleScope) -> Plan:
    handler = _COMPILERS.get(type(expr))
    if handler is None:
        raise XQueryDynamicError(f"cannot compile {type(expr).__name__}")
    return handler(expr, scope)


# -- leaves -----------------------------------------------------------------


def _c_literal(expr: xast.Literal, scope: _ModuleScope) -> Plan:
    value = expr.value
    return lambda ctx: [value]


def _c_datetime_literal(expr: xast.DateTimeLiteral, scope: _ModuleScope) -> Plan:
    # Parse once at compile time; defer malformed literals to run time so
    # error behaviour matches the interpreter.
    try:
        value = XSDateTime.parse(expr.text)
    except ChronoError as exc:
        message = str(exc)

        def fail(ctx: Context) -> list:
            raise XQueryDynamicError(message)

        return fail
    return lambda ctx: [value]


def _c_duration_literal(expr: xast.DurationLiteral, scope: _ModuleScope) -> Plan:
    try:
        value = XSDuration.parse(expr.text)
    except ChronoError as exc:
        message = str(exc)

        def fail(ctx: Context) -> list:
            raise XQueryDynamicError(message)

        return fail
    return lambda ctx: [value]


def _c_now(expr: xast.NowConstant, scope: _ModuleScope) -> Plan:
    return lambda ctx: [ctx.now]


def _c_start(expr: xast.StartConstant, scope: _ModuleScope) -> Plan:
    return lambda ctx: [START]


def _c_var(expr: xast.VarRef, scope: _ModuleScope) -> Plan:
    name = expr.name

    def run(ctx: Context) -> list:
        try:
            return ctx.variables[name]
        except KeyError:
            raise XQueryNameError(f"undefined variable ${name}") from None

    return run


def _c_context_item(expr: xast.ContextItem, scope: _ModuleScope) -> Plan:
    def run(ctx: Context) -> list:
        if ctx.item is None:
            raise XQueryDynamicError("context item is undefined")
        return [ctx.item]

    return run


def _c_sequence(expr: xast.SequenceExpr, scope: _ModuleScope) -> Plan:
    items = tuple(_compile(item, scope) for item in expr.items)

    def run(ctx: Context) -> list:
        out: list = []
        for item in items:
            out.extend(item(ctx))
        return out

    return run


# -- control ----------------------------------------------------------------


def _c_if(expr: xast.IfExpr, scope: _ModuleScope) -> Plan:
    condition = _compile(expr.condition, scope)
    then = _compile(expr.then, scope)
    otherwise = _compile(expr.otherwise, scope)

    def run(ctx: Context) -> list:
        if effective_boolean_value(condition(ctx)):
            return then(ctx)
        return otherwise(ctx)

    return run


def _c_flwor(expr: xast.FLWOR, scope: _ModuleScope) -> Plan:
    """Compile a FLWOR into one nested driver loop.

    The tuple stream never materializes: drivers nest in clause order and
    share ONE scratch context whose variable dict is rebound in place per
    iteration.  Evaluation is strictly eager and every construct that
    captures bindings (function calls, ``bind``/``focus``) snapshots the
    dict, so mutation is unobservable.  With an ``order by`` (the last
    one, applied after all other clauses as in the interpreter) the chain
    ends in a snapshot of each tuple's bindings instead of the return
    clause: the order stage sorts the snapshots, then the return clause
    runs once per tuple.
    """
    order_by: Optional[xast.OrderByClause] = None
    for clause in expr.clauses:
        if isinstance(clause, xast.OrderByClause):
            order_by = clause
    return_expr = _compile(expr.return_expr, scope)
    if order_by is None:
        return _streaming_run(_stream_chain(expr.clauses, scope, _stream_return(return_expr)))

    collect = _streaming_run(_stream_chain(expr.clauses, scope, _snapshot))
    order_stage = _order_stage(order_by, scope)

    def run(ctx: Context) -> list:
        out: list = []
        for tup in order_stage(collect(ctx)):
            out.extend(return_expr(tup))
        return out

    return run


def _stream_return(return_expr: Plan):
    def terminal(ctx: Context, out: list) -> None:
        out.extend(return_expr(ctx))

    return terminal


def _snapshot(ctx: Context, out: list) -> None:
    tup = ctx._clone()
    tup.variables = dict(ctx.variables)
    out.append(tup)


def _stream_chain(clauses, scope: _ModuleScope, drive):
    """Nest the drivers of ``clauses`` around ``drive``, in clause order."""
    for clause in reversed(clauses):
        drive = _stream_clause(clause, scope, drive)
    return drive


def _streaming_run(final) -> Plan:
    def run(ctx: Context) -> list:
        scratch = ctx._clone()
        scratch.variables = dict(ctx.variables)
        out: list = []
        final(scratch, out)
        return out

    return run


def _stream_clause(clause, scope: _ModuleScope, drive, source: Optional[Plan] = None):
    """One clause's driver; ``source`` replaces the clause's own expression
    plan (a join driver supplies the sequence a ``for``/``let`` binds)."""
    if isinstance(clause, xast.ForClause):
        return _stream_for(clause, source or _compile(clause.expr, scope), drive)
    if isinstance(clause, xast.LetClause):
        return _stream_let(clause, source or _compile(clause.expr, scope), drive)
    if isinstance(clause, xast.WhereClause):
        return _stream_where(clause, scope, drive)
    return drive


def _stream_for(clause: xast.ForClause, source: Plan, rest):
    var = clause.var
    position_var = clause.position_var

    if position_var is None:

        def drive(ctx: Context, out: list) -> None:
            variables = ctx.variables
            for item in source(ctx):
                variables[var] = [item]
                rest(ctx, out)

        return drive

    def drive_at(ctx: Context, out: list) -> None:
        variables = ctx.variables
        index = 0
        for item in source(ctx):
            index += 1
            variables[var] = [item]
            variables[position_var] = [index]
            rest(ctx, out)

    return drive_at


def _stream_let(clause: xast.LetClause, source: Plan, rest):
    var = clause.var

    def drive(ctx: Context, out: list) -> None:
        ctx.variables[var] = source(ctx)
        rest(ctx, out)

    return drive


def _stream_where(clause: xast.WhereClause, scope: _ModuleScope, rest):
    condition = _compile(clause.expr, scope)

    if _boolean_shaped(clause.expr):

        def drive_boolean(ctx: Context, out: list) -> None:
            result = condition(ctx)
            if result and result[0]:
                rest(ctx, out)

        return drive_boolean

    def drive(ctx: Context, out: list) -> None:
        if effective_boolean_value(condition(ctx)):
            rest(ctx, out)

    return drive


# -- sort-merge coincidence joins -------------------------------------------

# Unbound relation methods keyed by the interval-comparison operator,
# mirroring eval_interval_comparison's bound-method table.
_JOIN_RELATIONS = {
    "before": TimeInterval.before,
    "after": TimeInterval.after,
    "meets": TimeInterval.meets,
    "met-by": TimeInterval.met_by,
    "overlaps": TimeInterval.overlaps,
    "during": TimeInterval.during,
    "icontains": TimeInterval.contains,
    "istarts": TimeInterval.starts,
    "finishes": TimeInterval.finishes,
    "iequals": TimeInterval.equals,
}


def _c_interval_join_flwor(expr: xast.IntervalJoinFLWOR, scope: _ModuleScope) -> Plan:
    """Compile an optimizer-annotated coincidence join as a sort-merge.

    The annotated triple (outer ``for``, inner ``for``, ``where``) is
    replaced by one join driver inside the ordinary streaming pipeline;
    all surrounding clauses compile exactly as in a plain FLWOR.
    """
    clauses = expr.clauses
    j = expr.join_index
    if (
        any(isinstance(c, xast.OrderByClause) for c in clauses)
        or j + 2 >= len(clauses)
        or not isinstance(clauses[j], xast.ForClause)
        or not isinstance(clauses[j + 1], xast.ForClause)
        or not isinstance(clauses[j + 2], xast.WhereClause)
        or expr.join_op not in _JOIN_RELATIONS
    ):
        return _c_flwor(expr, scope)

    drive = _stream_return(_compile(expr.return_expr, scope))
    drive = _stream_chain(clauses[j + 3:], scope, drive)
    drive = _stream_interval_join(clauses[j], clauses[j + 1], expr, scope, drive)
    return _streaming_run(_stream_chain(clauses[:j], scope, drive))


def _stream_interval_join(
    outer_clause: xast.ForClause,
    inner_clause: xast.ForClause,
    node: xast.IntervalJoinFLWOR,
    scope: _ModuleScope,
    rest,
):
    """The sort-merge join driver.

    Pair order, pair results and error surfacing are identical to the
    nested loop it replaces:

    - the *first* outer tuple does a literal inner scan in the nested
      loop's per-pair coercion order (so a bad interval raises at exactly
      the pair the interpreter would raise at), caching every inner
      interval on the way;
    - every later outer tuple coerces once, narrows the inner side to a
      candidate window by bisection over the begin-/end-sorted endpoint
      arrays (a superset of the matches), re-applies the exact relation
      per candidate, and emits matches in original inner order.

    Per outer tuple this is O(log n + candidates) instead of O(n) relation
    evaluations — the coincidence-join product collapses to a plane sweep.
    """
    outer_source = _compile(outer_clause.expr, scope)
    inner_source = _compile(inner_clause.expr, scope)
    outer_var = outer_clause.var
    inner_var = inner_clause.var
    outer_on_left = node.outer_on_left
    op = node.join_op
    relation = _JOIN_RELATIONS[op]
    residual = (
        _compile(node.residual, scope) if node.residual is not None else None
    )

    def emit(ctx: Context, out: list) -> None:
        if residual is None or effective_boolean_value(residual(ctx)):
            rest(ctx, out)

    def drive(ctx: Context, out: list) -> None:
        outer_items = outer_source(ctx)
        if not outer_items:
            return
        inner_items = inner_source(ctx)
        if not inner_items:
            # The nested loop evaluates no predicate (and coerces
            # nothing) when either side is empty.
            return
        variables = ctx.variables

        # Pass 1: first outer tuple, literal scan, caching inner intervals.
        first = outer_items[0]
        variables[outer_var] = [first]
        inner_intervals: list = []
        first_interval = None
        first_coerced = False
        for item in inner_items:
            variables[inner_var] = [item]
            if outer_on_left and not first_coerced:
                first_interval = _to_interval([first], ctx)
                first_coerced = True
            b = _to_interval([item], ctx)
            inner_intervals.append(b)
            if not first_coerced:
                first_interval = _to_interval([first], ctx)
                first_coerced = True
            if (
                relation(first_interval, b)
                if outer_on_left
                else relation(b, first_interval)
            ):
                emit(ctx, out)

        # Sorted endpoint views over the (now fully coerced) inner side.
        n = len(inner_items)
        order_by_begin = sorted(
            range(n), key=lambda k: inner_intervals[k].begin
        )
        order_by_end = sorted(range(n), key=lambda k: inner_intervals[k].end)
        begin_keys = [inner_intervals[k].begin for k in order_by_begin]
        end_keys = [inner_intervals[k].end for k in order_by_end]

        for item in outer_items[1:]:
            variables[outer_var] = [item]
            q = _to_interval([item], ctx)
            # Candidate pool: a bisected superset of the true matches.
            if op in ("before", "after"):
                inner_is_later = (op == "before") == outer_on_left
                if inner_is_later:
                    # outer before inner / inner after outer: the inner
                    # interval begins at or after the outer end.
                    pool = order_by_begin[bisect_left(begin_keys, q.end):]
                else:
                    # outer after inner / inner before outer: the inner
                    # interval ends at or before the outer begin.
                    pool = order_by_end[:bisect_right(end_keys, q.begin)]
            else:
                # Every other relation implies a shared instant:
                # inner.begin <= outer.end and inner.end >= outer.begin.
                p = bisect_right(begin_keys, q.end)
                s = bisect_left(end_keys, q.begin)
                pool = order_by_begin[:p] if p <= n - s else order_by_end[s:]
            matched = [
                k
                for k in pool
                if (
                    relation(q, inner_intervals[k])
                    if outer_on_left
                    else relation(inner_intervals[k], q)
                )
            ]
            matched.sort()
            for k in matched:
                variables[inner_var] = [inner_items[k]]
                emit(ctx, out)

    return drive


# -- decorrelated hash equi-joins ----------------------------------------------

# Where a ValueJoinFLWOR keeps one execution's build table.  No query
# variable can spell the name, and every execution sets the slot afresh in
# its own scratch bindings, so nested and recursive executions never share.
_JOIN_SLOT = "#value-join"


def _c_value_join_flwor(expr: xast.ValueJoinFLWOR, scope: _ModuleScope) -> Plan:
    """Compile an optimizer-annotated correlated equi-join as a hash join.

    Only the annotated clause changes: the sequence it binds comes from a
    build/probe plan instead of the inner FLWOR's nested loop.  All other
    clauses compile exactly as in a plain FLWOR.
    """
    clauses = expr.clauses
    j = expr.join_index
    clause = clauses[j] if j < len(clauses) else None
    inner = getattr(clause, "expr", None)
    if (
        any(isinstance(c, xast.OrderByClause) for c in clauses)
        or not isinstance(clause, (xast.ForClause, xast.LetClause))
        or type(inner) is not xast.FLWOR
        or [type(c) for c in inner.clauses] != [xast.ForClause, xast.WhereClause]
        or inner.clauses[0].position_var is not None
    ):
        return _c_flwor(expr, scope)
    # The where expression's left spine: the join, then the residual
    # conjuncts in the order short-circuit ``and`` evaluates them.
    join, residual = inner.clauses[1].expr, []
    while isinstance(join, xast.BinOp) and join.op == "and":
        residual.insert(0, join.right)
        join = join.left
    if not (isinstance(join, xast.BinOp) and join.op == "="):
        return _c_flwor(expr, scope)

    drive = _stream_return(_compile(expr.return_expr, scope))
    drive = _stream_chain(clauses[j + 1:], scope, drive)
    source = _value_join_source(inner, join, residual, expr.inner_on_left, scope)
    drive = _stream_clause(clause, scope, drive, source)
    first = _stream_chain(clauses[:j], scope, drive)

    def begin(ctx: Context, out: list) -> None:
        ctx.variables[_JOIN_SLOT] = []
        first(ctx, out)

    return _streaming_run(begin)


def _value_join_source(
    inner: xast.FLWOR,
    join: xast.BinOp,
    residual: list,
    inner_on_left: bool,
    scope: _ModuleScope,
) -> Plan:
    """The build-once / probe-per-tuple plan of ``for $t in S where K = P``.

    Items, item order and error surfacing are identical to the nested loop
    it replaces:

    - the *first* enclosing tuple of an execution evaluates ``S`` and does
      the literal scan — both sides of ``=`` in source order, then the
      full general comparison, per inner item (so an error raises at
      exactly the pair the interpreter raises at) — keeping ``S`` and
      every item's key atoms;
    - every later tuple evaluates ``P`` once and looks its atoms up in a
      dict from key string to inner positions, emitting the matches in
      inner order and re-applying the residual conjuncts per match.

    String equality is the general comparison only between two ``str``
    atoms (the first row of ``xdm._coerce_pair``): a key atom of any other
    type keeps every tuple of the execution on the literal scan, a probe
    atom of any other type that one tuple.  ``S`` is evaluated once per
    execution either way, and never when no enclosing tuple arrives.
    """
    driver = inner.clauses[0]
    inner_source = _compile(driver.expr, scope)
    inner_var = driver.var
    left = _compile(join.left, scope)
    right = _compile(join.right, scope)
    probe = right if inner_on_left else left
    conjuncts = tuple(_compile(conjunct, scope) for conjunct in residual)
    result = _compile(inner.return_expr, scope)

    def emit(ctx: Context, out: list) -> None:
        for conjunct in conjuncts:
            if not effective_boolean_value(conjunct(ctx)):
                return
        out.extend(result(ctx))

    def scan(ctx: Context, inner_items: list, keys: Optional[list], out: list) -> None:
        variables = ctx.variables
        for item in inner_items:
            variables[inner_var] = [item]
            a = atomize_sequence(left(ctx))
            b = atomize_sequence(right(ctx))
            if keys is not None:
                keys.append(a if inner_on_left else b)
            if general_compare("=", a, b, ctx.now):
                emit(ctx, out)

    def run(ctx: Context) -> list:
        state = ctx.variables[_JOIN_SLOT]
        # Like the inner FLWOR's own run: $t is bound in a private copy.
        tup = ctx._clone()
        tup.variables = variables = dict(ctx.variables)
        out: list = []
        if not state:
            inner_items = inner_source(tup)
            keys: list = []
            scan(tup, inner_items, keys, out)
            state.extend((inner_items, _positions_by_key(keys)))
            return out
        inner_items, by_key = state
        if not inner_items:
            return out
        if by_key is not None:
            atoms = atomize_sequence(probe(tup))
            if all(type(atom) is str for atom in atoms):
                if len(atoms) == 1:
                    positions = by_key.get(atoms[0], ())
                else:
                    positions = sorted(
                        {k for atom in atoms for k in by_key.get(atom, ())}
                    )
                for k in positions:
                    variables[inner_var] = [inner_items[k]]
                    emit(tup, out)
                return out
        scan(tup, inner_items, None, out)
        return out

    return run


def _positions_by_key(keys: list) -> Optional[dict]:
    """Inner positions (ascending) per key string; ``None`` when some key
    atom is not a ``str``, i.e. when equality may coerce."""
    by_key: dict = {}
    for position, atoms in enumerate(keys):
        for atom in atoms:
            if type(atom) is not str:
                return None
            bucket = by_key.setdefault(atom, [])
            if not bucket or bucket[-1] != position:
                bucket.append(position)
    return by_key


def _boolean_shaped(expr: xast.Expr) -> bool:
    """True when the compiled plan always returns a one-boolean (or,
    for value comparisons, possibly empty) sequence — the effective
    boolean value is then just ``result and result[0]``."""
    return isinstance(expr, xast.Quantified) or (
        isinstance(expr, xast.BinOp)
        and expr.op in _BOOLEAN_OPS
    )


def _order_stage(clause: xast.OrderByClause, scope: _ModuleScope):
    specs = tuple(
        (_compile(spec.expr, scope), spec.descending, spec.empty_least)
        for spec in clause.specs
    )

    def stage(tuples: list[Context]) -> list[Context]:
        if not tuples:
            return tuples
        now = tuples[0].now  # all tuple contexts share one `now`
        keyed = []
        for tup in tuples:
            keys = []
            for key_fn, _descending, _empty_least in specs:
                seq = key_fn(tup)
                if len(seq) > 1:
                    raise XQueryTypeError("order-by key must be a singleton or empty")
                keys.append(atomize(seq[0]) if seq else None)
            keyed.append((keys, tup))

        from functools import cmp_to_key

        def compare(a, b) -> int:
            for (_key_fn, descending, empty_least), ka, kb in zip(specs, a[0], b[0]):
                if ka is None and kb is None:
                    continue
                if ka is None:
                    result = -1 if empty_least else 1
                elif kb is None:
                    result = 1 if empty_least else -1
                elif value_compare("eq", ka, kb, now):
                    continue
                else:
                    result = -1 if value_compare("lt", ka, kb, now) else 1
                return -result if descending else result
            return 0

        keyed.sort(key=cmp_to_key(compare))
        return [tup for _keys, tup in keyed]

    return stage


def _c_quantified(expr: xast.Quantified, scope: _ModuleScope) -> Plan:
    bindings = tuple((var, _compile(source, scope)) for var, source in expr.bindings)
    satisfies = _compile(expr.satisfies, scope)
    is_some = expr.kind == "some"

    def run(ctx: Context) -> list:
        def recurse(index: int, current: Context) -> bool:
            if index == len(bindings):
                return effective_boolean_value(satisfies(current))
            var, source = bindings[index]
            for item in source(current):
                result = recurse(index + 1, current.bind(var, [item]))
                if is_some and result:
                    return True
                if not is_some and not result:
                    return False
            return not is_some

        return [recurse(0, ctx)]

    return run


# -- operators --------------------------------------------------------------


_GENERAL_OPS = frozenset(("=", "!=", "<", "<=", ">", ">="))
_VALUE_OPS = frozenset(("eq", "ne", "lt", "le", "gt", "ge"))
_ARITH_OPS = frozenset(("+", "-", "*", "div", "idiv", "mod"))
_INTERVAL_OPS = frozenset((
    "before", "after", "meets", "met-by", "overlaps",
    "during", "icontains", "istarts", "finishes", "iequals",
))

_BOOLEAN_OPS = _GENERAL_OPS | _VALUE_OPS | frozenset(("and", "or"))
_GENERAL_TO_VALUE_OP = {
    "=": "eq", "!=": "ne", "<": "lt", "<=": "le", ">": "gt", ">=": "ge",
}
_PY_CMP = {
    "eq": operator.eq, "ne": operator.ne,
    "lt": operator.lt, "le": operator.le,
    "gt": operator.gt, "ge": operator.ge,
}


def _comparison_constant(expr: xast.Expr):
    """The literal operand of a comparison, when statically usable.

    Strings and (non-boolean) numbers cover the hot predicates —
    ``[@id = "person0"]``, ``price/text() >= 40`` — and have coercion
    rules simple enough to inline without risking divergence from
    :func:`repro.xquery.xdm.general_compare`.
    """
    if not isinstance(expr, xast.Literal):
        return None
    value = expr.value
    if isinstance(value, str):
        return value
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return value
    return None


def _context_attribute_step(expr: xast.Expr) -> Optional[str]:
    """The attribute name of a bare ``@name`` path over the context item."""
    if (
        isinstance(expr, xast.PathExpr)
        and expr.base is None
        and len(expr.steps) == 1
    ):
        step = expr.steps[0]
        if step.axis == "attribute" and step.test != "*" and not step.predicates:
            return step.test
    return None


def _specialize_general(
    op: str, expr: xast.BinOp, left: Plan, right: Plan
) -> Optional[Plan]:
    """Compile ``seq <op> literal`` to a direct existential scan.

    The generic path re-atomizes both sequences and runs the full
    coercion table per pair (:func:`general_compare`); with one operand a
    compile-time string/number we can pre-select the coercion once.  Any
    atom the fast path does not cover falls back to
    :func:`value_compare` for that pair, so behaviour (including error
    behaviour) is identical: ``general_compare`` iterates left-outer /
    right-inner, which against a singleton literal is a plain scan.
    """
    value_op = _GENERAL_TO_VALUE_OP[op]
    cmp = _PY_CMP[value_op]

    constant = _comparison_constant(expr.right)
    if constant is not None:
        other, other_expr, literal_on_left = left, expr.left, False
    else:
        constant = _comparison_constant(expr.left)
        if constant is None:
            return None
        other, other_expr, literal_on_left = right, expr.right, True

    # `[@name <op> literal]` — the workhorse predicate.  Read the
    # attribute dict directly instead of materializing an Attr node,
    # running a path plan, and atomizing, on every candidate.
    attr_name = _context_attribute_step(other_expr)
    if attr_name is not None:
        if isinstance(constant, str):

            def run_attr_str(ctx: Context) -> list:
                item = ctx.item
                if item is None:
                    raise XQueryDynamicError(
                        "relative path with undefined context item"
                    )
                if not isinstance(item, Node):
                    raise XQueryTypeError(
                        f"path step on a non-node item ({type(item).__name__})"
                    )
                if isinstance(item, Element):
                    value = item.attrs.get(attr_name)
                    if value is not None:
                        if literal_on_left:
                            return [cmp(constant, value)]
                        return [cmp(value, constant)]
                return [False]

            return run_attr_str

        def run_attr_num(ctx: Context) -> list:
            item = ctx.item
            if item is None:
                raise XQueryDynamicError(
                    "relative path with undefined context item"
                )
            if not isinstance(item, Node):
                raise XQueryTypeError(
                    f"path step on a non-node item ({type(item).__name__})"
                )
            if isinstance(item, Element):
                value = item.attrs.get(attr_name)
                if value is not None:
                    if literal_on_left:
                        return [cmp(constant, to_number(value))]
                    return [cmp(to_number(value), constant)]
            return [False]

        return run_attr_num

    if isinstance(constant, str):
        if literal_on_left:

            def run_str_l(ctx: Context) -> list:
                for item in other(ctx):
                    value = item.string_value() if isinstance(item, Node) else item
                    if type(value) is str:
                        if cmp(constant, value):
                            return [True]
                    elif value_compare(value_op, constant, value, ctx.now):
                        return [True]
                return [False]

            return run_str_l

        def run_str_r(ctx: Context) -> list:
            for item in other(ctx):
                value = item.string_value() if isinstance(item, Node) else item
                if type(value) is str:
                    if cmp(value, constant):
                        return [True]
                elif value_compare(value_op, value, constant, ctx.now):
                    return [True]
            return [False]

        return run_str_r

    # Numeric constant: untyped document text casts to a number
    # (to_number), typed numbers compare directly — the same two rows of
    # the coercion table _coerce_pair would pick.
    if literal_on_left:

        def run_num_l(ctx: Context) -> list:
            for item in other(ctx):
                value = item.string_value() if isinstance(item, Node) else item
                cls = type(value)
                if cls is str:
                    if cmp(constant, to_number(value)):
                        return [True]
                elif cls is int or cls is float:
                    if cmp(constant, value):
                        return [True]
                elif value_compare(value_op, constant, value, ctx.now):
                    return [True]
            return [False]

        return run_num_l

    def run_num_r(ctx: Context) -> list:
        for item in other(ctx):
            value = item.string_value() if isinstance(item, Node) else item
            cls = type(value)
            if cls is str:
                if cmp(to_number(value), constant):
                    return [True]
            elif cls is int or cls is float:
                if cmp(value, constant):
                    return [True]
            elif value_compare(value_op, value, constant, ctx.now):
                return [True]
        return [False]

    return run_num_r


def _c_binop(expr: xast.BinOp, scope: _ModuleScope) -> Plan:
    op = expr.op
    left = _compile(expr.left, scope)
    right = _compile(expr.right, scope)

    if op == "or":

        def run_or(ctx: Context) -> list:
            if effective_boolean_value(left(ctx)):
                return [True]
            return [effective_boolean_value(right(ctx))]

        return run_or

    if op == "and":

        def run_and(ctx: Context) -> list:
            if not effective_boolean_value(left(ctx)):
                return [False]
            return [effective_boolean_value(right(ctx))]

        return run_and

    if op in _GENERAL_OPS:
        specialized = _specialize_general(op, expr, left, right)
        if specialized is not None:
            return specialized

        def run_general(ctx: Context) -> list:
            return [general_compare(op, left(ctx), right(ctx), ctx.now)]

        return run_general

    if op in _VALUE_OPS:

        def run_value(ctx: Context) -> list:
            a = left(ctx)
            b = right(ctx)
            if not a or not b:
                return []
            return [
                value_compare(
                    op,
                    _single(a, "value comparison"),
                    _single(b, "value comparison"),
                    ctx.now,
                )
            ]

        return run_value

    if op == "is":

        def run_is(ctx: Context) -> list:
            a = left(ctx)
            b = right(ctx)
            if not a or not b:
                return []
            return [_single(a, "is") is _single(b, "is")]

        return run_is

    if op in ("<<", ">>"):
        before = op == "<<"

        def run_order(ctx: Context) -> list:
            l = left(ctx)
            r = right(ctx)
            if not l or not r:
                return []
            a = _single(l, "node comparison")
            b = _single(r, "node comparison")
            if not isinstance(a, Node) or not isinstance(b, Node):
                raise XQueryTypeError("node order comparison requires nodes")
            ka, kb = document_order_key(a), document_order_key(b)
            return [ka < kb if before else ka > kb]

        return run_order

    if op == "to":

        def run_range(ctx: Context) -> list:
            l = left(ctx)
            r = right(ctx)
            if not l or not r:
                return []
            lo = int(to_number(_single(l, "range")))
            hi = int(to_number(_single(r, "range")))
            return list(range(lo, hi + 1))

        return run_range

    if op == "|":

        def run_union(ctx: Context) -> list:
            l = left(ctx)
            r = right(ctx)
            if not all(isinstance(i, Node) for i in l + r):
                raise XQueryTypeError("union requires node operands")
            return sort_document_order(l + r)

        return run_union

    if op == "intersect":

        def run_intersect(ctx: Context) -> list:
            l = left(ctx)
            right_ids = {id(node) for node in right(ctx)}
            return sort_document_order([n for n in l if id(n) in right_ids])

        return run_intersect

    if op == "except":

        def run_except(ctx: Context) -> list:
            l = left(ctx)
            right_ids = {id(node) for node in right(ctx)}
            return sort_document_order([n for n in l if id(n) not in right_ids])

        return run_except

    if op in _ARITH_OPS:

        def run_arith(ctx: Context) -> list:
            return eval_arithmetic(op, left(ctx), right(ctx), ctx)

        return run_arith

    if op in _INTERVAL_OPS:

        def run_interval(ctx: Context) -> list:
            return eval_interval_comparison(op, left(ctx), right(ctx), ctx)

        return run_interval

    def run_unknown(ctx: Context) -> list:
        raise XQueryDynamicError(f"unknown operator {op!r}")

    return run_unknown


def _c_unary(expr: xast.UnaryOp, scope: _ModuleScope) -> Plan:
    operand = _compile(expr.operand, scope)
    negate = expr.op == "-"

    def run(ctx: Context) -> list:
        seq = operand(ctx)
        if not seq:
            return []
        value = atomize(_single(seq, "unary"))
        if isinstance(value, XSDuration):
            return [-value if negate else value]
        number = to_number(value)
        return [-number if negate else number]

    return run


# -- paths ------------------------------------------------------------------


def _c_path(expr: xast.PathExpr, scope: _ModuleScope) -> Plan:
    base = _compile(expr.base, scope) if expr.base is not None else None
    steps = tuple(_compile_step(step, scope) for step in expr.steps)

    # Child steps from one node keep document order and never meet a node
    # twice: each step's input is nodes of one depth below that node, in
    # order, so their children come out in order too.  The same holds
    # from parentless trees in rising tree order (the store's wrappers, as
    # get_fillers_by_tsid returns them).  Such a path skips the sort,
    # which would number every tree it meets.
    child_only = all(step.axis == "child" for step in expr.steps)

    if steps:
        # Every axis walker emits nodes only, so after at least one step
        # the all-nodes scan the interpreter performs is a tautology.
        def run(ctx: Context) -> list:
            if base is not None:
                seq = base(ctx)
            else:
                if ctx.item is None:
                    raise XQueryDynamicError(
                        "relative path with undefined context item"
                    )
                seq = [ctx.item]
            ordered = child_only and (len(seq) <= 1 or in_tree_order(seq))
            for step in steps:
                seq = step(seq, ctx)
            if len(seq) > 1 and not ordered:
                seq = sort_document_order(seq)
            return seq

        return run

    def run_stepless(ctx: Context) -> list:
        if base is not None:
            seq = base(ctx)
        else:
            if ctx.item is None:
                raise XQueryDynamicError("relative path with undefined context item")
            seq = [ctx.item]
        if len(seq) > 1 and all(isinstance(i, Node) for i in seq):
            seq = sort_document_order(seq)
        return seq

    return run_stepless


def _check_nodes(seq: list) -> None:
    for item in seq:
        if not isinstance(item, Node):
            raise XQueryTypeError(
                f"path step on a non-node item ({type(item).__name__})"
            )


def _compile_step(step: xast.Step, scope: _ModuleScope):
    candidates = _compile_axis(step.axis, step.test)
    predicates = tuple(_compile_predicate(p, scope) for p in step.predicates)

    if not predicates:
        if step.axis == "child":
            # The hottest step shape: fuse the walk into one comprehension
            # per *sequence* instead of paying a walker frame (plus, on
            # 3.11, a comprehension frame) per item.  Axis walking is a
            # pure read, so validating the whole input sequence up front
            # raises exactly where the per-item loop would.
            test = step.test
            if test == "node()":

                def apply_children(seq: list, ctx: Context) -> list:
                    _check_nodes(seq)
                    return [c for item in seq for c in item.children]

                return apply_children
            if test == "*":

                def apply_child_elements(seq: list, ctx: Context) -> list:
                    _check_nodes(seq)
                    return [
                        c for item in seq for c in item.children
                        if isinstance(c, Element)
                    ]

                return apply_child_elements
            if test == "text()":

                def apply_child_text(seq: list, ctx: Context) -> list:
                    _check_nodes(seq)
                    return [
                        c for item in seq for c in item.children
                        if isinstance(c, Text)
                    ]

                return apply_child_text

            def apply_child_named(seq: list, ctx: Context) -> list:
                _check_nodes(seq)
                if len(seq) == 1:
                    # The tag index's bucket is shared — copy before
                    # handing the sequence to code that may keep it.
                    return list(seq[0].children_named(test))
                out: list = []
                for item in seq:
                    out.extend(item.children_named(test))
                return out

            return apply_child_named

        def apply_plain(seq: list, ctx: Context) -> list:
            out: list = []
            extend = out.extend
            for item in seq:
                if not isinstance(item, Node):
                    raise XQueryTypeError(
                        f"path step on a non-node item ({type(item).__name__})"
                    )
                extend(candidates(item))
            return out

        return apply_plain

    if step.axis == "child" and step.test not in ("node()", "*", "text()"):
        test = step.test
        if len(predicates) == 1:
            predicate = predicates[0]

            def apply_child_named_pred1(seq: list, ctx: Context) -> list:
                out: list = []
                extend = out.extend
                for item in seq:
                    if not isinstance(item, Node):
                        raise XQueryTypeError(
                            f"path step on a non-node item ({type(item).__name__})"
                        )
                    # Predicates never mutate their input, so the shared
                    # index bucket can be filtered directly.
                    extend(predicate(item.children_named(test), ctx))
                return out

            return apply_child_named_pred1

        def apply_child_named_pred(seq: list, ctx: Context) -> list:
            out: list = []
            extend = out.extend
            for item in seq:
                if not isinstance(item, Node):
                    raise XQueryTypeError(
                        f"path step on a non-node item ({type(item).__name__})"
                    )
                found = item.children_named(test)
                for predicate in predicates:
                    found = predicate(found, ctx)
                extend(found)
            return out

        return apply_child_named_pred

    def apply(seq: list, ctx: Context) -> list:
        out: list = []
        extend = out.extend
        for item in seq:
            if not isinstance(item, Node):
                raise XQueryTypeError(
                    f"path step on a non-node item ({type(item).__name__})"
                )
            found = candidates(item)
            for predicate in predicates:
                found = predicate(found, ctx)
            extend(found)
        return out

    return apply


def _compile_test(test: str) -> Callable[[Node], bool]:
    if test == "node()":
        return lambda node: True
    if test == "text()":
        return lambda node: isinstance(node, Text)
    if test == "*":
        return lambda node: isinstance(node, Element)
    return lambda node: isinstance(node, Element) and node.tag == test


def _compile_axis(axis: str, test: str) -> Callable[[Node], list]:
    """Pick the axis walker + node test once, at compile time."""
    if axis == "child":
        if test == "node()":
            return lambda node: list(node.children)
        if test == "*":
            return lambda node: [c for c in node.children if isinstance(c, Element)]
        if test == "text()":
            return lambda node: [c for c in node.children if isinstance(c, Text)]

        def child_named(node: Node, _tag=test) -> list:
            return [
                c for c in node.children
                if isinstance(c, Element) and c.tag == _tag
            ]

        return child_named

    if axis == "descendant-or-self":
        matches = _compile_test(test)

        def descend(node: Node) -> list:
            out = []
            append = out.append
            stack = list(reversed(node.children))
            if matches(node):
                append(node)
            pop = stack.pop
            extend = stack.extend
            while stack:
                current = pop()
                if matches(current):
                    append(current)
                extend(reversed(current.children))
            return out

        return descend

    if axis == "attribute":
        if test == "*":
            return lambda node: (
                node.attribute_nodes() if isinstance(node, Element) else []
            )

        def attribute_named(node: Node, _name=test) -> list:
            if not isinstance(node, Element):
                return []
            value = node.attrs.get(_name)
            return [Attr(_name, value, node)] if value is not None else []

        return attribute_named

    if axis == "descendant-attribute":

        def descendant_attribute(node: Node, _name=test) -> list:
            out = []
            stack = [node]
            while stack:
                current = stack.pop()
                if isinstance(current, Element):
                    if _name == "*":
                        out.extend(current.attribute_nodes())
                    else:
                        value = current.attrs.get(_name)
                        if value is not None:
                            out.append(Attr(_name, value, current))
                stack.extend(reversed(current.children))
            return out

        return descendant_attribute

    if axis == "self":
        matches = _compile_test(test)
        return lambda node: [node] if matches(node) else []

    if axis == "parent":
        return lambda node: [node.parent] if node.parent is not None else []

    def unsupported(node: Node) -> list:
        raise XQueryDynamicError(f"unsupported axis {axis!r}")

    return unsupported


def _compile_predicate(predicate: xast.Expr, scope: _ModuleScope):
    """Positional/boolean predicate filtering with one reusable focus.

    The interpreter clones a focused context per candidate; evaluation is
    strictly eager and nothing retains the focus context itself (variable
    bindings clone it), so one mutated clone per filter pass is
    observationally identical and much cheaper.
    """
    # A literal number is a pure positional predicate: ``bidder[1]``
    # selects by index without evaluating anything per candidate.
    position_constant = _comparison_constant(predicate)
    if isinstance(position_constant, (int, float)):

        def apply_position(items: list, ctx: Context) -> list:
            index = int(position_constant)
            if position_constant == index and 1 <= index <= len(items):
                return [items[index - 1]]
            return []

        return apply_position

    compiled = _compile(predicate, scope)

    # Comparisons, and/or, and quantified predicates compile to closures
    # that always return a one-boolean sequence, so the positional check
    # and the effective-boolean-value call per candidate both fold away.
    if _boolean_shaped(predicate):

        def apply_boolean(items: list, ctx: Context) -> list:
            size = len(items)
            if not size:
                return items
            focused = ctx.focus(None, 0, size)
            kept = []
            append = kept.append
            position = 0
            for item in items:
                position += 1
                focused.item = item
                focused.position = position
                result = compiled(focused)
                if result and result[0]:
                    append(item)
            return kept

        return apply_boolean

    def apply(items: list, ctx: Context) -> list:
        size = len(items)
        if not size:
            return items
        focused = ctx.focus(None, 0, size)
        kept = []
        append = kept.append
        position = 0
        for item in items:
            position += 1
            focused.item = item
            focused.position = position
            result = compiled(focused)
            if (
                len(result) == 1
                and isinstance(result[0], (int, float))
                and not isinstance(result[0], bool)
            ):
                if result[0] == position:
                    append(item)
            elif effective_boolean_value(result):
                append(item)
        return kept

    return apply


def _c_filter(expr: xast.Filter, scope: _ModuleScope) -> Plan:
    base = _compile(expr.base, scope)
    predicate = _compile_predicate(expr.predicate, scope)

    def run(ctx: Context) -> list:
        return predicate(base(ctx), ctx)

    return run


# -- projections (XCQL) -----------------------------------------------------


def _c_interval_projection(expr: xast.IntervalProjection, scope: _ModuleScope) -> Plan:
    base = _compile(expr.base, scope)
    begin = _compile(expr.begin, scope)
    end = _compile(expr.end, scope)
    call = _runtime_call("interval_projection", scope)

    def run(ctx: Context) -> list:
        args = [base(ctx), begin(ctx), end(ctx)]
        if ctx.temporal_index is not None:
            # Route through the endpoint index — but only when the builtin
            # has not been overridden, so custom registrations (and their
            # error behaviour) keep winning over the fast path.
            fn = ctx.functions.get("interval_projection")
            if isinstance(fn, Builtin) and fn.fn is fn_interval_projection:
                return fn_interval_projection_indexed(ctx, args)
        return call(ctx, args)

    return run


def _c_version_projection(expr: xast.VersionProjection, scope: _ModuleScope) -> Plan:
    base_fn = _compile(expr.base, scope)
    begin_fn = _compile(expr.begin, scope)
    end_fn = _compile(expr.end, scope)
    call = _runtime_call("version_projection", scope)

    def run(ctx: Context) -> list:
        base = base_fn(ctx)
        if not base:
            return []
        focused = ctx.focus(ctx.item, ctx.position, len(base))
        begin = begin_fn(focused)
        end = end_fn(focused)
        if ctx.temporal_index is not None:
            fn = ctx.functions.get("version_projection")
            if isinstance(fn, Builtin) and fn.fn is fn_version_projection:
                return fn_version_projection_indexed(ctx, [base, begin, end])
        return call(ctx, [base, begin, end])

    return run


# -- functions --------------------------------------------------------------


def _c_call(expr: xast.FunctionCall, scope: _ModuleScope) -> Plan:
    args = tuple(_compile(arg, scope) for arg in expr.args)
    name = expr.name
    lookup = name[3:] if name.startswith("fn:") else name

    static = scope.prolog.get(lookup)
    if static is not None:
        # Statically known call target: the module's own prolog function.
        expected = len(static.params)
        params = tuple(static.params)

        if len(args) != expected:
            # The interpreter evaluates arguments eagerly, then raises.
            def run_mismatch(ctx: Context) -> list:
                for arg in args:
                    arg(ctx)
                raise XQueryTypeError(
                    f"{name}() expects {expected} arguments, got {len(args)}"
                )

            return run_mismatch

        def run_static(ctx: Context) -> list:
            values = [arg(ctx) for arg in args]
            call_ctx = ctx._clone()
            call_ctx.variables = variables = dict(ctx.variables)
            for param, value in zip(params, values):
                variables[param] = value
            return static.body(call_ctx)

        return run_static

    call = _runtime_call(name, scope)

    def run(ctx: Context) -> list:
        return call(ctx, [arg(ctx) for arg in args])

    return run


def _runtime_call(name: str, scope: _ModuleScope):
    """A late-bound function call: one dict lookup per invocation.

    Matches :meth:`Evaluator._call_function` exactly, including its error
    messages; interpreted :class:`UserFunction` values registered from
    outside the module are compiled lazily (once) and then run natively.
    """
    lookup = name[3:] if name.startswith("fn:") else name

    def call(ctx: Context, args: list[list]) -> list:
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
        if isinstance(fn, CompiledUserFunction):
            if len(args) != len(fn.params):
                raise XQueryTypeError(
                    f"{name}() expects {len(fn.params)} arguments, got {len(args)}"
                )
            call_ctx = ctx._clone()
            call_ctx.variables = variables = dict(ctx.variables)
            for param, value in zip(fn.params, args):
                variables[param] = value
            return fn.body(call_ctx)
        if isinstance(fn, UserFunction):
            definition = fn.definition
            if len(args) != len(definition.params):
                raise XQueryTypeError(
                    f"{name}() expects {len(definition.params)} arguments, got {len(args)}"
                )
            body = scope.foreign_body(definition)
            call_ctx = ctx._clone()
            call_ctx.variables = variables = dict(ctx.variables)
            for param, value in zip(definition.params, args):
                variables[param.name] = value
            return body(call_ctx)
        raise XQueryTypeError(f"{name} is not callable")

    return call


# -- constructors -----------------------------------------------------------


def _c_direct_element(expr: xast.DirectElement, scope: _ModuleScope) -> Plan:
    name = expr.name
    attributes = tuple(
        (
            attribute.name,
            tuple(
                part if isinstance(part, str) else _compile(part, scope)
                for part in attribute.parts
            ),
        )
        for attribute in expr.attributes
    )
    content = tuple(
        part if isinstance(part, str) else _compile(part, scope)
        for part in expr.content
    )

    def run(ctx: Context) -> list:
        element = Element(name)
        for attr_name, parts in attributes:
            chunks: list[str] = []
            for part in parts:
                if isinstance(part, str):
                    chunks.append(part)
                else:
                    seq = part(ctx)
                    chunks.append(" ".join(string_value(atomize(i)) for i in seq))
            element.set(attr_name, "".join(chunks))
        for part in content:
            if isinstance(part, str):
                element.append(Text(part))
            else:
                _append_content(element, part(ctx))
        return [element]

    return run


def _c_computed_element(expr: xast.ComputedElement, scope: _ModuleScope) -> Plan:
    static_name = expr.name if isinstance(expr.name, str) else None
    name_fn = None if static_name is not None else _compile(expr.name, scope)
    content = _compile(expr.content, scope) if expr.content is not None else None

    def run(ctx: Context) -> list:
        if static_name is not None:
            name = static_name
        else:
            name = string_value(atomize(_single(name_fn(ctx), "element name")))
        element = Element(name)
        if content is not None:
            _append_content(element, content(ctx))
        return [element]

    return run


def _c_computed_attribute(expr: xast.ComputedAttribute, scope: _ModuleScope) -> Plan:
    static_name = expr.name if isinstance(expr.name, str) else None
    name_fn = None if static_name is not None else _compile(expr.name, scope)
    content = _compile(expr.content, scope) if expr.content is not None else None

    def run(ctx: Context) -> list:
        if static_name is not None:
            name = static_name
        else:
            name = string_value(atomize(_single(name_fn(ctx), "attribute name")))
        if content is None:
            value = ""
        else:
            seq = content(ctx)
            value = " ".join(string_value(atomize(i)) for i in seq)
        return [Attr(name, value)]

    return run


def _c_computed_text(expr: xast.ComputedText, scope: _ModuleScope) -> Plan:
    content = _compile(expr.content, scope) if expr.content is not None else None

    def run(ctx: Context) -> list:
        if content is None:
            return [Text("")]
        seq = content(ctx)
        return [Text(" ".join(string_value(atomize(i)) for i in seq))]

    return run


def _c_cast(expr: xast.CastExpr, scope: _ModuleScope) -> Plan:
    operand = _compile(expr.expr, scope)
    type_name = expr.type_name

    def run(ctx: Context) -> list:
        seq = operand(ctx)
        if not seq:
            return []
        value = atomize(_single(seq, "cast"))
        return [_cast_value(value, type_name, ctx)]

    return run


def _c_instance_of(expr: xast.InstanceOf, scope: _ModuleScope) -> Plan:
    operand = _compile(expr.expr, scope)
    type_name = expr.type_name

    def run(ctx: Context) -> list:
        return [_matches_sequence_type(operand(ctx), type_name)]

    return run


_COMPILERS: dict = {
    xast.Literal: _c_literal,
    xast.DateTimeLiteral: _c_datetime_literal,
    xast.DurationLiteral: _c_duration_literal,
    xast.NowConstant: _c_now,
    xast.StartConstant: _c_start,
    xast.VarRef: _c_var,
    xast.ContextItem: _c_context_item,
    xast.SequenceExpr: _c_sequence,
    xast.IfExpr: _c_if,
    xast.FLWOR: _c_flwor,
    xast.IntervalJoinFLWOR: _c_interval_join_flwor,
    xast.ValueJoinFLWOR: _c_value_join_flwor,
    xast.Quantified: _c_quantified,
    xast.BinOp: _c_binop,
    xast.UnaryOp: _c_unary,
    xast.PathExpr: _c_path,
    xast.Filter: _c_filter,
    xast.IntervalProjection: _c_interval_projection,
    xast.VersionProjection: _c_version_projection,
    xast.FunctionCall: _c_call,
    xast.DirectElement: _c_direct_element,
    xast.ComputedElement: _c_computed_element,
    xast.ComputedAttribute: _c_computed_attribute,
    xast.ComputedText: _c_computed_text,
    xast.CastExpr: _c_cast,
    xast.InstanceOf: _c_instance_of,
}
