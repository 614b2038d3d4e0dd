"""Rewriting optimizations on translated queries (paper §8 future work).

The paper: "Since our translation relies heavily on efficiency of the
get_fillers function, we would like to research optimization techniques to
unnest/fold the get_fillers functions using language rewriting rules."

The translated form of a query like §3.1's Query 1 calls
``get_fillers("credit", $a/hole/@id)`` three times per account tuple (in
the window sum, the limit lookup, and the result constructor).  The
:func:`hoist_common_fillers` rewrite detects repeated
``get_fillers(<stream>, $v/hole/@id)`` calls inside a FLWOR and folds them
into a single ``let`` binding placed right after ``$v`` is bound::

    for $a in ...                      for $a in ...
    where f(get_fillers($a/...))  =>   let $a__fillers := get_fillers($a/...)
    return g(get_fillers($a/...))      where f($a__fillers)
                                       return g($a__fillers)

The rewrite is safe because ``get_fillers`` is pure with respect to one
evaluation run (the store does not change during a query), and the hoisted
expression depends only on the variable it follows.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.xquery import xast

__all__ = [
    "hoist_common_fillers",
    "lower_interval_joins",
    "lower_value_joins",
    "count_calls",
    "analyze_delta",
    "DeltaAnalysis",
    "RoutingPredicate",
    "DELTA_VAR",
    "SHARED_VAR",
]

_HOISTED_SUFFIX = "__fillers"


def hoist_common_fillers(module: xast.Module) -> tuple[xast.Module, int]:
    """Apply the let-hoisting rewrite; returns (module, hoisted count)."""
    hoisted = [0]
    return _map_module(module, lambda expr: _rewrite(expr, hoisted)), hoisted[0]


def _map_module(module: xast.Module, rewrite) -> xast.Module:
    """``module`` with ``rewrite`` applied to its body and every function body."""
    body = rewrite(module.body)
    functions = [
        xast.FunctionDef(f.name, f.params, f.return_type, rewrite(f.body))
        for f in module.functions
    ]
    return xast.Module(functions, body)


def count_calls(node: object, name: str) -> int:
    """Number of FunctionCall nodes with the given name (for tests/stats)."""
    count = 0
    if isinstance(node, xast.FunctionCall) and node.name == name:
        count += 1
    for child in xast.children(node):
        count += count_calls(child, name)
    return count


# ---------------------------------------------------------------------------
# The rewrite
# ---------------------------------------------------------------------------


def _rewrite(node: object, hoisted: list[int]) -> object:
    node = xast.map_children(node, lambda child: _rewrite(child, hoisted))
    if isinstance(node, xast.FLWOR):
        node = _hoist_in_flwor(node, hoisted)
    return node


def _hoist_in_flwor(flwor: xast.FLWOR, hoisted: list[int]) -> xast.FLWOR:
    clauses = list(flwor.clauses)
    return_expr = flwor.return_expr
    insertions: list[tuple[int, xast.LetClause]] = []
    for index, clause in enumerate(clauses):
        if not isinstance(clause, (xast.ForClause, xast.LetClause)):
            continue
        var = clause.var
        target = _fillers_call_for(var, clauses[index + 1 :], return_expr)
        if target is None:
            continue
        alias = f"{var}{_HOISTED_SUFFIX}"
        if any(
            isinstance(c, (xast.ForClause, xast.LetClause)) and c.var == alias
            for c in clauses
        ):
            continue  # already hoisted (idempotence)
        replacement = xast.VarRef(alias)
        for later_index in range(index + 1, len(clauses)):
            clauses[later_index] = xast.substitute(clauses[later_index], target, replacement)
        return_expr = xast.substitute(return_expr, target, replacement)
        insertions.append((index + 1, xast.LetClause(alias, target)))
        hoisted[0] += 1
    for offset, (position, let_clause) in enumerate(insertions):
        clauses.insert(position + offset, let_clause)
    return xast.FLWOR(clauses, return_expr)


def _fillers_call_for(var: str, clauses: list, return_expr) -> xast.FunctionCall | None:
    """The repeated ``get_fillers(<lit>, $var/hole/@id)`` call, if any."""
    candidates: dict[str, tuple[xast.FunctionCall, int]] = {}

    def scan(node: object) -> None:
        if _is_hole_fillers_call(node, var):
            key = xast.to_source(node)
            call, count = candidates.get(key, (node, 0))
            candidates[key] = (call, count + 1)
        for child in xast.children(node):
            scan(child)

    for clause in clauses:
        scan(clause)
    scan(return_expr)
    repeated = [call for call, count in candidates.values() if count >= 2]
    return repeated[0] if repeated else None


def _is_hole_fillers_call(node: object, var: str) -> bool:
    if not (isinstance(node, xast.FunctionCall) and node.name == "get_fillers"):
        return False
    if len(node.args) != 2:
        return False
    path = node.args[1]
    if not (isinstance(path, xast.PathExpr) and isinstance(path.base, xast.VarRef)):
        return False
    if path.base.name != var:
        return False
    shape = [(step.axis, step.test, len(step.predicates)) for step in path.steps]
    return shape == [("child", "hole", 0), ("attribute", "id", 0)]


# ---------------------------------------------------------------------------
# Interval-join lowering
# ---------------------------------------------------------------------------

_INTERVAL_JOIN_OPS = frozenset((
    "before", "after", "meets", "met-by", "overlaps",
    "during", "icontains", "istarts", "finishes", "iequals",
))

# Constructor nodes create fresh trees per evaluation; lowering would
# evaluate the inner for-source once instead of once per outer tuple, so
# identity-sensitive sources are left as nested loops.
_CONSTRUCTOR_TYPES = (
    xast.DirectElement,
    xast.ComputedElement,
    xast.ComputedAttribute,
    xast.ComputedText,
)


def lower_interval_joins(module: xast.Module) -> tuple[xast.Module, int]:
    """Annotate coincidence joins for the compiled sort-merge path.

    Recognizes ``for $x in X for $y in Y where <$x op $y> [and rest] ...``
    where ``op`` is an interval comparison, the two ``for`` clauses are
    adjacent, carry no position variables, and ``Y`` neither references
    ``$x`` nor constructs nodes.  The FLWOR is replaced by an
    :class:`~repro.xquery.xast.IntervalJoinFLWOR` carrying the original
    clauses untouched plus the join metadata; returns (module, count).
    """
    lowered = [0]
    return _map_module(module, lambda expr: _lower(expr, lowered)), lowered[0]


def _lower(node: object, lowered: list[int]) -> object:
    node = xast.map_children(node, lambda child: _lower(child, lowered))
    if type(node) is xast.FLWOR:
        node = _lower_one_flwor(node, lowered)
    return node


def _lower_one_flwor(flwor: xast.FLWOR, lowered: list[int]) -> xast.FLWOR:
    clauses = flwor.clauses
    if any(isinstance(c, xast.OrderByClause) for c in clauses):
        # order-by forces the materialized pipeline; keep nested loops.
        return flwor
    for index in range(len(clauses) - 2):
        outer, inner, where = clauses[index], clauses[index + 1], clauses[index + 2]
        if not (
            isinstance(outer, xast.ForClause)
            and isinstance(inner, xast.ForClause)
            and isinstance(where, xast.WhereClause)
            and outer.position_var is None
            and inner.position_var is None
            and outer.var != inner.var
        ):
            continue
        join, residual = _split_join_conjunct(where.expr, outer.var, inner.var)
        if join is None:
            continue
        if _references_var(inner.expr, outer.var):
            continue
        if _contains_constructor(inner.expr):
            continue
        lowered[0] += 1
        return xast.IntervalJoinFLWOR(
            clauses=clauses,
            return_expr=flwor.return_expr,
            join_index=index,
            join_op=join.op,
            outer_on_left=(join.left.name == outer.var),
            residual=residual,
        )
    return flwor


def _split_join_conjunct(expr: xast.Expr, outer_var: str, inner_var: str):
    """Peel the leftmost interval-join conjunct off an ``and`` left spine.

    Returns ``(join, residual)`` with ``residual`` ordered exactly as the
    remaining conjuncts would evaluate under short-circuit ``and``, or
    ``(None, None)`` when the leftmost conjunct is not a join between the
    two variables.
    """
    join, residual = _split_leftmost(expr)
    if _is_join_binop(join, outer_var, inner_var):
        return join, residual
    return None, None


def _is_join_binop(expr: object, outer_var: str, inner_var: str) -> bool:
    return (
        isinstance(expr, xast.BinOp)
        and expr.op in _INTERVAL_JOIN_OPS
        and isinstance(expr.left, xast.VarRef)
        and isinstance(expr.right, xast.VarRef)
        and {expr.left.name, expr.right.name} == {outer_var, inner_var}
    )


def _references_var(node: object, name: str) -> bool:
    # Conservative: any VarRef with the name counts, even if an inner
    # binding shadows it.
    if isinstance(node, xast.VarRef) and node.name == name:
        return True
    return any(_references_var(child, name) for child in xast.children(node))


def _contains_constructor(node: object) -> bool:
    if isinstance(node, _CONSTRUCTOR_TYPES):
        return True
    return any(_contains_constructor(child) for child in xast.children(node))


# ---------------------------------------------------------------------------
# Value-join lowering (decorrelated hash equi-join)
# ---------------------------------------------------------------------------


def lower_value_joins(module: xast.Module) -> tuple[xast.Module, int, Optional[str]]:
    """Annotate correlated equi-joins for the compiled build/probe path.

    Recognizes a ``let`` or ``for`` clause, below a ``for`` of the same
    FLWOR, that binds an inner FLWOR ``for $t in S where K = P [and rest]
    return R`` in which ``S`` references no variable the enclosing FLWOR
    bound before the clause, constructs no nodes and calls no prolog
    function, ``K`` depends on ``$t`` and on none of those variables
    either, and ``P`` is free of ``$t`` — XMark Q8: ``S`` the closed
    auctions, ``K`` the buyer, ``P`` the person id.  Everything that makes
    the inner side the same sequence for every enclosing tuple is checked
    here; whether hashing gives the nested loop's answer depends on the
    atoms and is decided at run time.  The enclosing FLWOR is replaced by a
    :class:`~repro.xquery.xast.ValueJoinFLWOR` carrying the original
    clauses untouched.

    Returns (module, count, reason); ``reason`` names the condition the
    first declined candidate failed, ``None`` when none was declined.
    """
    lowered = [0]
    declined: list[str] = []
    defined = {definition.name for definition in module.functions}

    def lower(node: object) -> object:
        node = xast.map_children(node, lower)
        if type(node) is xast.FLWOR:
            node = _lower_value_flwor(node, defined, lowered, declined)
        return node

    module = _map_module(module, lower)
    return module, lowered[0], declined[0] if declined else None


def _lower_value_flwor(
    flwor: xast.FLWOR, defined: set, lowered: list[int], declined: list[str]
) -> xast.FLWOR:
    ordered = any(isinstance(c, xast.OrderByClause) for c in flwor.clauses)
    bound: list[str] = []  # variables the clauses before `index` bind
    looped = False
    for index, clause in enumerate(flwor.clauses):
        if not isinstance(clause, (xast.ForClause, xast.LetClause)):
            continue
        if isinstance(clause.expr, xast.FLWOR):
            if ordered:
                # order-by forces the materialized pipeline; keep nested loops.
                reason = "enclosing FLWOR has an order by"
            elif not looped:
                reason = "no for clause encloses the inner FLWOR"
            else:
                reason = _value_join_obstacle(clause.expr, bound, defined)
            if reason is None:
                driver, where = clause.expr.clauses
                lowered[0] += 1
                return xast.ValueJoinFLWOR(
                    clauses=flwor.clauses,
                    return_expr=flwor.return_expr,
                    join_index=index,
                    inner_on_left=_references_var(_leftmost(where.expr).left, driver.var),
                )
            declined.append(reason)
        bound.append(clause.var)
        if isinstance(clause, xast.ForClause):
            looped = True
            if clause.position_var is not None:
                bound.append(clause.position_var)
    return flwor


def _value_join_obstacle(
    inner: xast.FLWOR, bound: list[str], defined: set
) -> Optional[str]:
    """Why an inner FLWOR has to stay a nested loop (None: it need not)."""
    if type(inner) is not xast.FLWOR or [type(c) for c in inner.clauses] != [
        xast.ForClause, xast.WhereClause,
    ]:
        return "inner FLWOR is not a single for/where/return"
    driver, where = inner.clauses
    if driver.position_var is not None:
        return "inner for clause is positional"
    for name in bound:
        if _references_var(driver.expr, name):
            return f"inner source is correlated (references ${name})"
    if _contains_constructor(driver.expr):
        return "inner source contains a constructor"
    if _calls_any(driver.expr, defined):
        return "inner source calls a user-defined function"
    join = _leftmost(where.expr)
    if not (isinstance(join, xast.BinOp) and join.op == "="):
        return "leading where conjunct is not a general = comparison"
    var = driver.var

    def is_key(side: xast.Expr) -> bool:
        return _references_var(side, var) and not any(
            _references_var(side, name) for name in bound
        )

    if not (
        is_key(join.left) and not _references_var(join.right, var)
        or is_key(join.right) and not _references_var(join.left, var)
    ):
        return f"= does not compare a ${var}-only key with a ${var}-free value"
    return None


# ---------------------------------------------------------------------------
# Delta-safety analysis (incremental continuous-query evaluation)
# ---------------------------------------------------------------------------

# Reserved names of an incremental plan: the prefix ranges over the
# just-arrived filler wrappers bound to DELTA_VAR, the residual's driving
# ``for`` over the prefix's binding tuples bound to SHARED_VAR.
DELTA_VAR = "__delta_fillers__"
SHARED_VAR = "__shared_binding__"

# Calls that read stream state.  A delta-safe plan has exactly one — the
# driving source — so every other expression is a pure function of the one
# tuple it sees, and appending tuples can never change earlier answers.
_STREAM_FNS = frozenset((
    "get_fillers", "get_fillers_list", "get_fillers_by_tsid",
    "materialized_view", "stream", "doc", "document",
))

# Evaluation-time-dependent calls: answers move with the clock even
# without arrivals, so previously emitted tuples can become stale
# (retraction), which a monotone union of retained + new cannot express.
_TIME_FNS = frozenset((
    "currentDateTime", "current-dateTime", "current-time", "current-date",
))

# Calls that escape the per-tuple scope (dynamic focus or tree root) or
# abort evaluation: banned anywhere in a delta-safe plan.
_SCOPE_FNS = frozenset(("position", "last", "root", "error"))

# Pure per-tuple builtins.  Aggregates (sum/count/...) are deliberately
# included: with a single stream access their argument can only be a
# tuple-local sequence, so they are monotone ("no aggregation" in the
# delta-safety sense means no aggregation over the *driving* sequence,
# which is structurally impossible here).  Same for ``not``/``empty``.
_PURE_FNS = frozenset((
    "count", "empty", "exists", "not", "boolean", "true", "false",
    "distinct-values", "reverse", "subsequence", "index-of", "exactly-one",
    "zero-or-one", "insert-before", "remove", "sum", "avg", "max", "min",
    "string", "concat", "contains", "starts-with", "ends-with", "substring",
    "substring-before", "substring-after", "string-length",
    "normalize-space", "upper-case", "lower-case", "string-join",
    "translate", "matches", "replace", "tokenize", "number", "abs",
    "round", "floor", "ceiling", "name", "local-name", "data", "deep-equal",
))

# Axes that stay inside the subtree of the node they start from (plus the
# node's own attributes).  parent/ancestor/sibling axes can cross from one
# version into its wrapper — i.e. into the *set* of versions, which grows —
# and are banned wholesale.
_DOWNWARD_AXES = frozenset((
    "child", "descendant", "descendant-or-self", "self", "attribute",
))

# Boolean-shaped binary operators: a predicate rooted in one of these is a
# filter, never a positional (numeric) predicate.
_BOOLEAN_BINOPS = frozenset((
    "=", "!=", "<", "<=", ">", ">=",
    "eq", "ne", "lt", "le", "gt", "ge",
    "and", "or", "is", "<<", ">>",
    "before", "after", "meets", "met-by", "overlaps",
    "during", "icontains", "istarts", "finishes", "iequals",
))

_BOOLEAN_FNS = frozenset((
    "not", "empty", "exists", "boolean", "true", "false", "contains",
    "starts-with", "ends-with", "matches", "deep-equal",
))


@dataclasses.dataclass
class DeltaAnalysis:
    """Verdict of :func:`analyze_delta` over one translated module.

    ``safe`` means re-evaluating the plan over only newly arrived filler
    wrappers and appending to the retained result reproduces a full
    re-evaluation (as a multiset; arrival order inside existing fragments
    may permute document order).  A safe plan comes split in two: the
    *prefix* (``prefix_module``: the driving stream access, replaced by
    ``$__delta_fillers__``, plus its downward-axis binding path) and the
    *residual* (``residual_module``: every remaining clause plus the
    return body, its driving ``for`` ranging over ``$__shared_binding__``).
    Queries with equal ``group_key`` (stream, tsid, filler id, prefix
    source) bind identical tuple sequences from the same arrivals, so one
    prefix evaluation per tick can feed every member's residual; a query
    on its own is a group of one.  ``binds_versions`` records whether the
    driving ``for`` steps *into* the wrappers (binding version elements)
    rather than binding the wrappers themselves — the runtime guard needs
    the distinction when an existing fragment id receives another version.
    ``routing`` carries the extracted dispatch predicate, when one exists.

    The residual is what runs, per binding tuple, as *guard ∘ body*: when
    a routing predicate was extracted, ``guard`` is the conjunct it
    encodes (an expression over ``$guard_var``, the driving variable) and
    ``body_module`` the residual without it; otherwise there is no guard
    and the body is the whole residual.  ``body_key`` is the body
    module's source, prolog included: members of a group with equal keys
    build equal items from one tuple, whatever their guards say.
    """

    safe: bool
    reason: str = ""
    stream: Optional[str] = None
    tsid: Optional[int] = None
    filler_id: Optional[int] = None
    binds_versions: bool = False
    group_key: Optional[tuple] = None
    prefix_module: Optional[xast.Module] = None
    residual_module: Optional[xast.Module] = None
    routing: Optional[RoutingPredicate] = None
    guard: Optional[xast.Expr] = None
    guard_var: Optional[str] = None
    body_module: Optional[xast.Module] = None
    body_key: Optional[str] = None


def analyze_delta(module: xast.Module) -> DeltaAnalysis:
    """Classify a translated plan as delta-safe or full-only.

    Delta-safe plans are monotone FLWORs driven by a single literal-argument
    ``get_fillers``/``get_fillers_by_tsid`` source: every clause downstream
    of the driving ``for`` is a pure function of the individual tuple, so
    the answer over ``old ∪ new`` fillers is the answer over ``old`` plus
    the answer over ``new``.  Anything that lets one tuple observe the
    others — ordering, positional access, parent/sibling axes, a second
    stream access, ``now``-dependence, temporal projections (they resolve
    holes, i.e. other fragments) — forces full re-evaluation.

    A safe plan is returned split: the driving ``for $v in <path over the
    stream access>`` becomes prefix ``<path over $__delta_fillers__>``
    (evaluated once per group per tick) plus residual ``for $v in
    $__shared_binding__ <rest> return <body>``.
    """
    unsafe = DeltaAnalysis(False)

    body = module.body
    if type(body) not in (xast.FLWOR, xast.ValueJoinFLWOR):
        return dataclasses.replace(unsafe, reason="body is not a simple FLWOR")
    if not body.clauses or not isinstance(body.clauses[0], xast.ForClause):
        return dataclasses.replace(unsafe, reason="plan does not start with a for clause")
    driver = body.clauses[0]
    if driver.position_var is not None:
        return dataclasses.replace(unsafe, reason="driving for clause is positional")

    expr = driver.expr
    if isinstance(expr, xast.PathExpr) and expr.base is not None:
        call, steps = expr.base, list(expr.steps)
    else:
        call, steps = expr, []
    if not (isinstance(call, xast.FunctionCall) and call.name in _STREAM_FNS):
        return dataclasses.replace(unsafe, reason="driving source is not a stream access")

    stream = tsid = filler_id = None
    if call.name == "get_fillers_by_tsid" and len(call.args) == 2:
        stream = _literal_str(call.args[0])
        tsid = _literal_int(call.args[1])
        if stream is None or tsid is None:
            return dataclasses.replace(
                unsafe, reason="get_fillers_by_tsid arguments are not literals"
            )
    elif call.name in ("get_fillers", "get_fillers_list") and len(call.args) == 2:
        stream = _literal_str(call.args[0])
        filler_id = _literal_int(call.args[1])
        if stream is None or filler_id is None:
            return dataclasses.replace(
                unsafe, reason="get_fillers target is data-dependent (hole chain)"
            )
    else:
        return dataclasses.replace(
            unsafe, reason=f"driving source {call.name}() is not delta-indexable"
        )

    for step in steps:
        if step.axis not in _DOWNWARD_AXES:
            return dataclasses.replace(
                unsafe, reason=f"driving path uses the {step.axis} axis"
            )
        for predicate in step.predicates:
            if not _boolean_shaped(predicate):
                return dataclasses.replace(
                    unsafe,
                    reason="driving path has a positional (numeric) predicate",
                )
    binds_versions = any(step.axis != "attribute" for step in steps)

    defined = {definition.name for definition in module.functions}
    problem: list[str] = []

    def visit(node: object) -> None:
        if problem:
            return
        if isinstance(node, xast.NowConstant):
            problem.append("plan depends on `now` (results can be retracted)")
        elif isinstance(node, xast.OrderByClause):
            problem.append("order by imposes a global ordering")
        elif isinstance(node, (xast.IntervalProjection, xast.VersionProjection)):
            problem.append("temporal projections resolve holes / version positions")
        elif isinstance(node, xast.ForClause) and node.position_var is not None:
            problem.append("positional for binding")
        elif isinstance(node, xast.Step) and node.axis not in _DOWNWARD_AXES:
            problem.append(f"{node.axis} axis escapes the tuple subtree")
        elif isinstance(node, xast.VarRef) and node.name in (DELTA_VAR, SHARED_VAR):
            problem.append(f"plan already references ${node.name}")
        elif isinstance(node, xast.FunctionCall):
            name = node.name
            if name in _STREAM_FNS and node is not call:
                problem.append("plan reads stream state in more than one place")
            elif name in _TIME_FNS:
                problem.append("plan depends on the evaluation clock")
            elif name in _SCOPE_FNS:
                problem.append(f"{name}() escapes the per-tuple scope")
            elif (
                name not in _PURE_FNS
                and name not in _STREAM_FNS
                and name not in defined
                and not name.startswith("xs:")
            ):
                problem.append(f"cannot prove {name}() is a pure per-tuple function")
        if problem:
            return
        for child in xast.children(node):
            visit(child)

    visit(body)
    for definition in module.functions:
        visit(definition.body)
    if problem:
        return dataclasses.replace(unsafe, reason=problem[0])

    # The split is purely structural.  Because the compiled FLWOR pipeline
    # evaluates its driving expression to a materialized sequence before
    # binding, feeding the prefix's tuples through the residual reproduces
    # the unsplit plan byte-for-byte.
    prefix = xast.substitute(driver.expr, call, xast.VarRef(DELTA_VAR))
    # Two queries may define different bodies under one function name, so a
    # prefix that calls the prolog carries it — into its compiled form and,
    # through the source text, into the group key.
    prefix_module = xast.Module(
        module.functions if _calls_any(prefix, defined) else [], prefix
    )
    rebound = xast.ForClause(driver.var, xast.VarRef(SHARED_VAR), None)
    rest = list(body.clauses[1:])
    residual = xast.FLWOR([rebound] + rest, body.return_expr)
    routing = _extract_routing(driver, rest)
    guard = None
    if routing is not None:
        # The routed conjunct leaves the body: `where P and Q` runs as
        # guard P, then `where Q` — what short-circuit `and` does anyway.
        guard, remaining = _split_leftmost(rest[0].expr)
        rest = ([xast.WhereClause(remaining)] if remaining is not None else []) + rest[1:]
    body_module = xast.Module(
        module.functions, xast.FLWOR([rebound] + rest, body.return_expr)
    )
    return DeltaAnalysis(
        True,
        stream=stream,
        tsid=tsid,
        filler_id=filler_id,
        binds_versions=binds_versions,
        group_key=(stream, tsid, filler_id, xast.to_source(prefix_module)),
        prefix_module=prefix_module,
        residual_module=xast.Module(module.functions, residual),
        routing=routing,
        guard=guard,
        guard_var=driver.var,
        body_module=body_module,
        body_key=xast.to_source(body_module),
    )


# ---------------------------------------------------------------------------
# Predicate routing (the residual's leading literal comparison)
# ---------------------------------------------------------------------------

# Comparison operators a routing predicate can encode, normalized to the
# general-comparison spelling; _FLIPPED_OPS mirrors an operator across a
# swapped literal (``50 < $t/amount`` routes like ``$t/amount > 50``).
_ROUTABLE_OPS = {
    "=": "=", "eq": "=",
    "!=": "!=", "ne": "!=",
    "<": "<", "lt": "<",
    "<=": "<=", "le": "<=",
    ">": ">", "gt": ">",
    ">=": ">=", "ge": ">=",
}

_GENERAL_ROUTABLE = frozenset(("=", "!=", "<", "<=", ">", ">="))

_FLIPPED_OPS = {"=": "=", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


@dataclasses.dataclass(frozen=True)
class RoutingPredicate:
    """A literal-comparable residual predicate, probeable per arriving filler.

    Encodes the leftmost where-conjunct of a residual when it
    has the shape ``$tuple/child-path [op] literal`` (or the literal on the
    left, operator mirrored): ``tuple_tag`` is the element test the driving
    path binds, ``path`` the child-element chain below the bound tuple,
    ``attribute`` a final attribute name (``vtFrom``/``vtTo`` probe the
    filler's validTime; other attributes probe the payload), ``text_only``
    marks a final ``text()`` step.  ``value`` is a float for numeric and
    validTime comparisons, a string otherwise.  ``single`` records a value
    comparison (``gt``, ``eq``, ...), which raises over a multi-item
    operand where the general form is existential.  The probe is
    conservative by construction: it may wake a query whose residual then
    yields nothing, but it only *skips* when no binding tuple from the
    filler can satisfy the conjunct.
    """

    tuple_tag: str
    path: tuple
    attribute: Optional[str]
    text_only: bool
    op: str
    value: object
    numeric: bool
    single: bool = False

    def operand(self) -> str:
        """The compared path below the bound tuple (the predicate's shape)."""
        target = "/".join(self.path) if self.path else "."
        if self.attribute is not None:
            target = (target + "/" if self.path else "") + "@" + self.attribute
        elif self.text_only:
            target += "/text()"
        return target

    def describe(self) -> str:
        shown = self.value if not isinstance(self.value, str) else f"\"{self.value}\""
        return f"{self.tuple_tag}[{self.operand()} {self.op} {shown}]"


def _calls_any(node: object, names: set) -> bool:
    if isinstance(node, xast.FunctionCall) and node.name in names:
        return True
    return any(_calls_any(child, names) for child in xast.children(node))


def _extract_routing(
    driver: xast.ForClause, clauses: list
) -> Optional[RoutingPredicate]:
    """The dispatch predicate of a residual, if one is extractable.

    Takes the leftmost conjunct of the ``where`` clause that directly
    follows the driving ``for`` (sound under short-circuit ``and``: if the
    leftmost conjunct cannot hold for any tuple of a filler, no
    conjunction over those tuples can) and matches it against the
    literal-comparison shape.  A clause in between would run — and could
    raise — for a tuple the predicate rejects, so pruning that tuple would
    swallow the error.  The driving path must end in an element test so
    the probe knows which payload elements become binding tuples.
    """
    expr = driver.expr
    steps = expr.steps if isinstance(expr, xast.PathExpr) else []
    if not steps:
        return None
    last = steps[-1]
    if last.axis not in ("child", "descendant-or-self"):
        return None
    if last.test in ("text()", "node()"):
        return None
    if not (clauses and isinstance(clauses[0], xast.WhereClause)):
        return None
    return _match_routing(driver.var, last.test, _leftmost(clauses[0].expr))


def _leftmost(expr: xast.Expr) -> xast.Expr:
    return _split_leftmost(expr)[0]


def _split_leftmost(expr: xast.Expr) -> tuple:
    """``(leftmost conjunct, the rest)`` of an ``and`` left spine.

    The rest keeps the order short-circuit ``and`` evaluates the
    remaining conjuncts in; ``None`` when the leftmost was all there was.
    """
    if isinstance(expr, xast.BinOp) and expr.op == "and":
        first, rest = _split_leftmost(expr.left)
        return first, expr.right if rest is None else xast.BinOp("and", rest, expr.right)
    return expr, None


def _match_routing(
    var: str, tuple_tag: str, expr: object
) -> Optional[RoutingPredicate]:
    if not (isinstance(expr, xast.BinOp) and expr.op in _ROUTABLE_OPS):
        return None
    op = _ROUTABLE_OPS[expr.op]
    shape = _routing_path(var, expr.left)
    literal = expr.right
    if shape is None:
        shape = _routing_path(var, expr.right)
        literal = expr.left
        op = _FLIPPED_OPS[op]
    if shape is None:
        return None
    path, attribute, text_only = shape
    value, numeric = _routing_literal(literal, attribute)
    if value is None:
        return None
    return RoutingPredicate(
        tuple_tag, path, attribute, text_only, op, value, numeric,
        single=expr.op not in _GENERAL_ROUTABLE,
    )


def _routing_path(var: str, expr: object):
    """``(path, attribute, text_only)`` of a ``$var/child...`` side, or None."""
    if isinstance(expr, xast.VarRef):
        return ((), None, False) if expr.name == var else None
    if not (
        isinstance(expr, xast.PathExpr)
        and isinstance(expr.base, xast.VarRef)
        and expr.base.name == var
        and expr.steps
    ):
        return None
    names: list[str] = []
    attribute: Optional[str] = None
    text_only = False
    for index, step in enumerate(expr.steps):
        if step.predicates:
            return None
        is_last = index == len(expr.steps) - 1
        if step.axis == "attribute" and is_last:
            attribute = step.test
        elif step.axis == "child" and step.test == "text()" and is_last:
            text_only = True
        elif step.axis == "child" and step.test not in ("text()", "node()", "*"):
            names.append(step.test)
        else:
            return None
    return tuple(names), attribute, text_only


def _routing_literal(node: object, attribute: Optional[str]):
    """``(value, numeric)`` of the comparison literal, or ``(None, False)``."""
    if isinstance(node, xast.Literal):
        value = node.value
        if isinstance(value, bool):
            return None, False
        if isinstance(value, (int, float)):
            if float(value) != value:
                return None, False  # an integer no float holds exactly
            return float(value), True
        if isinstance(value, str):
            return value, False
    if isinstance(node, xast.DateTimeLiteral) and attribute in ("vtFrom", "vtTo"):
        from repro.temporal.chrono import XSDateTime

        try:
            return XSDateTime.parse(node.text).to_epoch_seconds(), True
        except Exception:
            return None, False
    return None, False


def _boolean_shaped(expr: object) -> bool:
    """True when a predicate filters rather than selects by position.

    Numeric predicates (``[2]``, ``[last()-1]``) select by position among
    their focus sequence — over the driving path that focus is the growing
    wrapper/version set, so they are not monotone.  The check is
    conservative: anything not provably boolean counts as positional.
    """
    if isinstance(expr, xast.BinOp):
        return expr.op in _BOOLEAN_BINOPS
    if isinstance(expr, (xast.Quantified, xast.PathExpr, xast.Filter)):
        return True
    if isinstance(expr, xast.FunctionCall):
        return expr.name in _BOOLEAN_FNS
    if isinstance(expr, xast.Literal):
        return isinstance(expr.value, (bool, str))
    return False


def _literal_str(node: object) -> Optional[str]:
    if isinstance(node, xast.Literal) and isinstance(node.value, str):
        return node.value
    return None


def _literal_int(node: object) -> Optional[int]:
    if (
        isinstance(node, xast.Literal)
        and isinstance(node.value, int)
        and not isinstance(node.value, bool)
    ):
        return node.value
    return None


# The generic AST plumbing (child enumeration, child mapping, subtree
# substitution) lives in :mod:`repro.xquery.xast` — shared with the static
# checker, the linter, and the scheduler's dependency analysis.
