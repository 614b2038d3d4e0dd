"""Event automata for standing queries (FluX-style streaming evaluation).

A shared-safe plan's prefix — a downward-only path over arriving filler
wrappers — can be compiled into a small NFA over parser events
(start-element / text / end-element, see :mod:`repro.dom.parser`) and run
directly against the raw XML of each arriving filler envelope.  The binding
tuples the residual needs are then exactly the subtrees the automaton
matches; everything else is inspected in-flight and discarded, following
Koch et al.'s schema-based event processors with buffer minimization.

This module is deliberately **DOM-free**: it knows nothing about
:mod:`repro.dom.nodes`.  Matches are captured as event-buffer slices; the
engine-side automaton host materializes them through the parser's
event-replay builder only when a standing query actually wakes
(``repro-lint`` enforces the layering).

Buffer minimization works at three grains.  Only matched subtrees are
buffered at all.  Within a match, only what the residuals can read is
kept: :func:`capture_projection` derives, per plan, the child names its
residual reaches from the binding (XML projection, Marian & Siméon), the
host unions them over the automaton's registered queries, and the matcher
keeps the match's own start and end events plus the whole subtree of
each kept child — every other child subtree and the match's own text are
dropped as they stream by.  Across matches the Tag Structure decides:
the tsid's tag *type* says which captures must be retained (a snapshot
fragment's superseded versions are dropped on arrival — only the newest
version is ever visible) and which lifespan annotations the host
synthesizes at answer time.  :func:`schema_reachable` additionally
reports, from the Tag Structure alone, whether the automaton can match
under a given tsid — advisory (data may disagree with the schema),
surfaced in diagnostics.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.core.optimizer import DELTA_VAR
from repro.xquery import xast

__all__ = [
    "StepSpec",
    "StreamAutomaton",
    "AutomatonMatcher",
    "compile_automaton",
    "capture_projection",
    "schema_reachable",
]


@dataclasses.dataclass(frozen=True)
class StepSpec:
    """One compiled path step: ``axis`` ∈ {child, descendant-or-self}."""

    axis: str
    test: str  # element name or "*"

    def matches(self, tag: str) -> bool:
        return self.test == "*" or self.test == tag


@dataclasses.dataclass(frozen=True)
class StreamAutomaton:
    """Compiled event automaton for one shared-prefix path.

    ``steps`` is the downward path the prefix applies to each ``<filler>``
    wrapper; ``stream``/``tsid`` name the arrivals it consumes; ``source``
    is the prefix's XQuery rendering (the shared group key component).
    """

    stream: str
    tsid: int
    steps: tuple[StepSpec, ...]
    source: str

    def describe(self) -> str:
        return f"tsid={self.tsid} {self.source}"


def compile_automaton(analysis) -> tuple[Optional[StreamAutomaton], str]:
    """Compile a :class:`DeltaAnalysis` prefix into an event automaton.

    Returns ``(automaton, "")`` on success or ``(None, reason)`` when the
    prefix cannot be evaluated purely over events.  The gates are
    conservative: anything that could bind a non-element node, a node
    outside the payload subtree, or the synthesized wrapper itself falls
    back to the DOM prefix scan.
    """
    if analysis.tsid is None:
        return None, "driving access is not tsid-indexed"
    prefix = analysis.prefix_module.body
    if not isinstance(prefix, xast.PathExpr):
        return None, "shared prefix is not a path expression"
    base = prefix.base
    if not (isinstance(base, xast.VarRef) and base.name == DELTA_VAR):
        return None, "shared prefix does not range over the delta wrappers"
    steps = list(prefix.steps)
    if not steps:
        return None, "prefix binds whole filler wrappers"
    for step in steps:
        if step.axis not in ("child", "descendant-or-self"):
            return None, f"prefix step uses the {step.axis} axis"
        if step.predicates:
            return None, "prefix path has step predicates"
        if step.test in ("text()", "node()"):
            return None, f"prefix step test {step.test} may bind non-element nodes"
    first = steps[0]
    if first.axis == "descendant-or-self" and first.test in ("filler", "*"):
        return None, "prefix may bind the synthesized filler wrapper"
    if _navigates_upward(analysis.residual_module):
        # Automaton captures are detached subtrees: a residual that walks
        # parent:: out of its binding tuple would see the filler wrapper on
        # the DOM path but nothing here, so such plans keep the DOM driver.
        return None, "residual navigates above its binding tuples"
    automaton = StreamAutomaton(
        stream=analysis.stream,
        tsid=int(analysis.tsid),
        steps=tuple(StepSpec(step.axis, step.test) for step in steps),
        source=xast.to_source(prefix),
    )
    return automaton, ""


def _navigates_upward(node: object) -> bool:
    """Whether any path step under ``node`` uses the ``parent`` axis."""
    if isinstance(node, xast.Step) and node.axis == "parent":
        return True
    return any(_navigates_upward(child) for child in xast.children(node))


def capture_projection(
    analysis, automaton: StreamAutomaton
) -> tuple[Optional[frozenset], str]:
    """The child names below each match that one plan's residual can read.

    Returns ``(names, "")`` when every use of the residual's driving
    variable — guard, body and predicates nested in either — is the base
    of a path whose first step is ``child::NAME`` or ``attribute::*``: a
    capture then needs the match's attributes and the whole subtree of
    each named child, nothing else.  Returns ``(None, reason)`` when some
    use may read more (a bare ``$v``, a wildcard or kind test, ``//``, a
    function argument, a rebinding of the name), or when the automaton
    has a non-``child`` step, so matches may nest inside one capture.
    """
    if any(step.axis != "child" for step in automaton.steps):
        return None, "automaton has a descendant step: matches may nest"
    residual = analysis.residual_module.body
    var = residual.clauses[0].var
    names: set[str] = set()
    for node in residual.clauses[1:] + [residual.return_expr]:
        reason = _reads_beyond_children(node, var, names)
        if reason:
            return None, reason
    return frozenset(names), ""


def _reads_beyond_children(node: object, var: str, names: set) -> str:
    """Collect into ``names`` the children ``node``'s uses of ``$var`` read.

    Returns why some use may read more than attributes and named child
    subtrees, or ``""`` when none does.
    """
    if (
        isinstance(node, xast.PathExpr)
        and isinstance(node.base, xast.VarRef)
        and node.base.name == var
        and node.steps
    ):
        first = node.steps[0]
        if first.axis == "child" and "*" not in first.test and "(" not in first.test:
            names.add(first.test)
        elif first.axis != "attribute":
            return f"${var}/{first.axis}::{first.test} reads past named children"
        below = [part for step in node.steps for part in xast.children(step)]
    elif isinstance(node, xast.VarRef):
        return f"${var} is read whole" if node.name == var else ""
    elif isinstance(node, xast.FunctionCall) and any(
        isinstance(arg, xast.VarRef) and arg.name == var for arg in node.args
    ):
        return f"${var} is an argument of {node.name}()"
    elif var in _bound_names(node):
        return f"${var} is rebound"
    else:
        below = xast.children(node)
    for child in below:
        reason = _reads_beyond_children(child, var, names)
        if reason:
            return reason
    return ""


def _bound_names(node: object) -> tuple:
    """The variable names a clause or quantifier binds."""
    if isinstance(node, xast.ForClause):
        return (node.var, node.position_var)
    if isinstance(node, xast.LetClause):
        return (node.var,)
    if isinstance(node, xast.Quantified):
        return tuple(name for name, _ in node.bindings)
    return ()


def schema_reachable(automaton: StreamAutomaton, tag_node) -> bool:
    """Whether the Tag Structure proves the automaton can ever match.

    ``tag_node`` is the :class:`~repro.fragments.tagstructure.TagNode` of
    the automaton's tsid (the payload root tag); its declared children are
    walked with the same NFA the runtime uses.  Advisory only: data that
    violates the schema can still match at runtime, so a ``False`` here is
    surfaced as a diagnostic, never used to suppress matching.
    """
    if tag_node is None:
        return True  # no schema — cannot prune
    steps = automaton.steps
    count = len(steps)

    def visit(node, reached: frozenset, armed: frozenset) -> bool:
        next_armed = armed | frozenset(
            q for q in reached if q < count and steps[q].axis == "descendant-or-self"
        )
        here = set()
        for q in next_armed:
            if q < count and steps[q].matches(node.name):
                here.add(q + 1)
        for q in reached:
            if q < count and steps[q].axis == "child" and steps[q].matches(node.name):
                here.add(q + 1)
        work = list(here)
        while work:
            q = work.pop()
            if (
                q < count
                and steps[q].axis == "descendant-or-self"
                and steps[q].matches(node.name)
                and q + 1 not in here
            ):
                here.add(q + 1)
                work.append(q + 1)
        if count in here:
            return True
        frozen = frozenset(here)
        return any(visit(child, frozen, next_armed) for child in node.children)

    return visit(tag_node, frozenset({0}), frozenset())


class AutomatonMatcher:
    """Run one automaton over a single filler payload's event stream.

    Feed the payload subtree's events (root start through root end) in
    order; afterwards :attr:`buffers` holds one complete event slice per
    outermost matched subtree, :attr:`matches` lists every match as
    ``(buffer_index, event_offset)`` in document (pre-) order, and
    :attr:`root_matched` tells whether the payload root itself is a match
    (the capture the host must annotate with a synthesized lifespan).

    The matcher mirrors the compiled path semantics over the synthesized
    wrapper tree: each element's state set holds the step positions reached
    along any wrapper-to-element chain; hereditary descendant-or-self
    positions stay armed down the subtree; a worklist closes chained
    descendant-or-self steps matching at the same element.  Events outside
    a capture are discarded as they stream by.

    ``keep`` projects each capture (``None`` keeps it whole): the match's
    start event, attributes included, its end event and the whole subtree
    of each child named in ``keep`` are buffered; any other child subtree
    and the match's own text, comments and PIs are dropped.  Only for
    automata whose steps are all ``child`` — their matches never nest, so
    no match can sit inside a dropped subtree.
    """

    __slots__ = (
        "_transitions",
        "_frames",
        "_depth",
        "_capture",
        "_capture_depth",
        "_skip",
        "keep",
        "buffers",
        "matches",
        "root_matched",
    )

    def __init__(self, automaton: StreamAutomaton, keep: Optional[frozenset] = None):
        self._transitions = _transitions_for(automaton.steps)
        # Bottom frame is the (never-materialized) wrapper: selected by
        # zero steps, nothing armed above it — state id 0 by construction.
        self._frames: list[int] = [0]
        self._depth = 0
        self._capture: Optional[list] = None
        self._capture_depth = 0
        self._skip = 0  # depth of the dropped child being streamed past, 0 = none
        self.keep = keep
        self.buffers: list[list[tuple]] = []
        self.matches: list[tuple[int, int]] = []
        self.root_matched = False

    def feed(self, event: tuple) -> None:
        self.feed_many((event,))

    def feed_many(self, events) -> None:
        """Feed a run of consecutive payload events.

        Equivalent to ``feed`` called per event; the batch form keeps the
        matcher state in locals across the run (the ingest hot path feeds
        whole payload slices).
        """
        step = self._transitions.step
        frames = self._frames
        depth = self._depth
        capture = self._capture
        capture_depth = self._capture_depth
        skip = self._skip
        keep = self.keep
        buffers = self.buffers
        matches = self.matches
        for event in events:
            kind = event[0]
            if skip:
                # Inside a dropped child subtree, where no match can start
                # (projected automata have only child steps): the child's
                # own frame is popped at its end, its descendants push none.
                if kind == "start":
                    depth += 1
                elif kind == "end":
                    if depth == skip:
                        skip = 0
                        frames.pop()
                    depth -= 1
                continue
            if kind == "start":
                state, matched = step(frames[-1], event[1])
                frames.append(state)
                depth += 1
                if matched:
                    if capture is None:
                        capture = []
                        buffers.append(capture)
                        capture_depth = depth
                        matches.append((len(buffers) - 1, 0))
                    else:
                        matches.append((len(buffers) - 1, len(capture)))
                    if depth == 1:
                        self.root_matched = True
                if capture is not None:
                    if (
                        keep is not None
                        and depth == capture_depth + 1
                        and event[1] not in keep
                    ):
                        skip = depth
                    else:
                        capture.append(event)
            elif kind == "end":
                if capture is not None:
                    capture.append(event)
                    if depth == capture_depth:
                        capture = None
                depth -= 1
                frames.pop()
            elif capture is not None and (keep is None or depth != capture_depth):
                capture.append(event)
        self._depth = depth
        self._capture = capture
        self._capture_depth = capture_depth
        self._skip = skip


class _Transitions:
    """Memoized NFA transitions for one compiled step tuple.

    Matcher frames are interned state ids over (reached, armed) step-set
    pairs; :meth:`step` maps ``(state id, tag)`` to ``(next id, matched)``
    through a table shared by every matcher of the same automaton.  The
    alphabet is the stream's tag vocabulary, so the table stays tiny; a
    hard cap keeps adversarial tag churn from growing it without bound
    (overflow transitions are computed but not remembered).
    """

    __slots__ = ("_steps", "_count", "_states", "_ids", "_table")
    _LIMIT = 4096

    def __init__(self, steps: tuple[StepSpec, ...]):
        self._steps = steps
        self._count = len(steps)
        self._states: list[tuple[frozenset, frozenset]] = []
        self._ids: dict[tuple[frozenset, frozenset], int] = {}
        self._table: dict[tuple[int, str], tuple[int, bool]] = {}
        self._intern((frozenset({0}), frozenset()))  # id 0: the wrapper

    def _intern(self, state: tuple[frozenset, frozenset]) -> int:
        state_id = self._ids.get(state)
        if state_id is None:
            state_id = len(self._states)
            self._ids[state] = state_id
            self._states.append(state)
        return state_id

    def step(self, state_id: int, tag: str) -> tuple[int, bool]:
        key = (state_id, tag)
        hit = self._table.get(key)
        if hit is None:
            hit = self._advance(state_id, tag)
            if len(self._table) < self._LIMIT:
                self._table[key] = hit
        return hit

    def _advance(self, state_id: int, tag: str) -> tuple[int, bool]:
        steps, count = self._steps, self._count
        parent_reached, parent_armed = self._states[state_id]
        armed = parent_armed | frozenset(
            q
            for q in parent_reached
            if q < count and steps[q].axis == "descendant-or-self"
        )
        reached = set()
        for q in armed:
            if q < count and steps[q].matches(tag):
                reached.add(q + 1)
        for q in parent_reached:
            if q < count and steps[q].axis == "child" and steps[q].matches(tag):
                reached.add(q + 1)
        work = list(reached)
        while work:
            q = work.pop()
            if (
                q < count
                and steps[q].axis == "descendant-or-self"
                and steps[q].matches(tag)
                and q + 1 not in reached
            ):
                reached.add(q + 1)
                work.append(q + 1)
        return self._intern((frozenset(reached), armed)), count in reached


_TRANSITION_TABLES: dict[tuple[StepSpec, ...], _Transitions] = {}


def _transitions_for(steps: tuple[StepSpec, ...]) -> _Transitions:
    table = _TRANSITION_TABLES.get(steps)
    if table is None:
        table = _TRANSITION_TABLES[steps] = _Transitions(steps)
    return table
