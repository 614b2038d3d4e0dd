"""XCQL temporal semantics over element trees (the temporal view).

Implements the paper's §6 library functions in their *temporal view* form:

- ``vtFrom(e)`` / ``vtTo(e)`` — the lifespan accessors.  Elements that carry
  explicit ``vtFrom``/``vtTo`` attributes (event and temporal fragments in
  the Hole-Filler model) use them; for any other element the lifespan is the
  minimal interval covering its children's lifespans, or ``[start, now]``
  for leaves (paper §2).
- ``interval_projection(e, tb, te)`` — temporal slicing: prune elements
  whose lifespan misses ``[tb, te]`` and clip the survivors' lifespans to
  the intersection, recursively.  When the evaluation context provides a
  ``hole_resolver`` (the fragment layer), ``<hole id=.../>`` children are
  resolved to their filler versions on the fly and projected in place, so
  the same function powers both the materialized-view path (CaQ) and the
  fragment-direct path (QaC/QaC+).
- ``version_projection(e, vb, ve)`` — select versions by 1-based position
  in the version sequence, then interval-project each version's content to
  that version's own lifespan.

A version's lifespan ends where its successor begins (paper §5), so
lifespans are treated as half-open at ``vtTo`` during projection: at the
exact update instant only the *new* version is current.  Events (and
already-clipped points), whose ``vtFrom == vtTo``, are genuine instants and
stay closed.

Projection returns *new* elements (the inputs are never mutated), matching
the constructor semantics of the paper's XQuery definitions.  When their
children are built depends on where the input lives.  A version the
fragment store owns (a child of its cached, read-only ``<filler>``
wrapper) with no hole, no lifespan attribute and no comment or
processing instruction below it projects to a clipped root over a plain
copy of everything underneath, and that copy is put off until something
navigates the result (``DeferredElement``): serialising it reads the
stored version, dropping it costs nothing.  Every other input — holes,
which resolve against the store as it is *at query time*, nested
lifespans, trees the caller built, uncached stores — is copied by the
recursion below before the projection returns.
"""

from __future__ import annotations

from typing import Optional

from repro.dom.nodes import (
    Attr,
    Comment,
    DeferredElement,
    Element,
    Node,
    ProcessingInstruction,
    Text,
    stored_verdict,
)
from repro.temporal.chrono import ChronoError, XSDateTime
from repro.temporal.interval import NOW, START, TimeInterval, _Symbolic, resolve_point
from repro.xquery.errors import XQueryTypeError
from repro.xquery.xdm import atomize, to_number

__all__ = [
    "element_lifespan",
    "parse_vt",
    "fn_vt_from",
    "fn_vt_to",
    "fn_interval_projection",
    "fn_version_projection",
    "fn_interval_projection_indexed",
    "fn_version_projection_indexed",
    "interval_project_nodes",
    "version_project_nodes",
]

_VT_FROM = "vtFrom"
_VT_TO = "vtTo"
_VALID_TIME = "validTime"


def parse_vt(text: str):
    """Parse a lifespan endpoint attribute: a dateTime, ``now`` or ``start``."""
    stripped = text.strip()
    if stripped == "now":
        return NOW
    if stripped == "start":
        return START
    return XSDateTime.parse(stripped)


def _attr_lifespan(element: Element):
    """The element's own (attribute-declared) lifespan, memoized on the node.

    Returns a symbolic :class:`TimeInterval` for elements carrying
    ``vtFrom``/``vtTo`` or ``validTime`` attributes, and ``False`` for
    elements with no temporal attributes of their own.  The memo lives in
    ``Element._lifespan`` and is dropped by ``Element.set()`` whenever a
    temporal attribute is reassigned, so it can never go stale.
    """
    memo = element._lifespan
    if memo is None:
        vt_from = element.attrs.get(_VT_FROM)
        if vt_from is not None:
            vt_to = element.attrs.get(_VT_TO)
            memo = TimeInterval(parse_vt(vt_from), parse_vt(vt_to) if vt_to else NOW)
        else:
            valid_time = element.attrs.get(_VALID_TIME)
            if valid_time is not None:
                memo = TimeInterval.point(parse_vt(valid_time))
            else:
                memo = False
        element._lifespan = memo
    return memo


def element_lifespan(element: Element, ctx) -> TimeInterval:
    """The (possibly symbolic) lifespan of an element, per paper §2."""
    span = _attr_lifespan(element)
    if span is not False:
        return span
    children = element.child_elements()
    if not children:
        return TimeInterval.always()
    cover: Optional[TimeInterval] = None
    for child in children:
        child_span = element_lifespan(child, ctx).resolve(ctx.now)
        cover = child_span if cover is None else cover.cover(child_span)
    return cover if cover is not None else TimeInterval.always()


def _point_from_arg(seq: list, ctx, default):
    """Interpret a projection bound argument as a time point."""
    if not seq:
        return default
    value = atomize(seq[0])
    if isinstance(value, XSDateTime):
        return value
    if isinstance(value, _Symbolic):
        return value
    if isinstance(value, str):
        try:
            return parse_vt(value)
        except ChronoError as exc:
            raise XQueryTypeError(f"invalid time point {value!r}") from exc
    raise XQueryTypeError(f"invalid time point of type {type(value).__name__}")


def fn_vt_from(ctx, args):
    """Builtin ``vtFrom(e)``."""
    if not args[0]:
        return []
    node = args[0][0]
    if not isinstance(node, Element):
        raise XQueryTypeError("vtFrom() requires an element")
    return [resolve_point(element_lifespan(node, ctx).begin, ctx.now)]


def fn_vt_to(ctx, args):
    """Builtin ``vtTo(e)``."""
    if not args[0]:
        return []
    node = args[0][0]
    if not isinstance(node, Element):
        raise XQueryTypeError("vtTo() requires an element")
    return [resolve_point(element_lifespan(node, ctx).end, ctx.now)]


def fn_interval_projection(ctx, args):
    """Builtin ``interval_projection(e, tb, te)``."""
    begin = resolve_point(_point_from_arg(args[1], ctx, START), ctx.now)
    end = resolve_point(_point_from_arg(args[2], ctx, NOW), ctx.now)
    return interval_project_nodes(args[0], begin, end, ctx)


def fn_version_projection(ctx, args):
    """Builtin ``version_projection(e, vb, ve)``."""
    base = args[0]
    begin = int(to_number(args[1][0])) if args[1] else 1
    end = int(to_number(args[2][0])) if args[2] else len(base)
    return version_project_nodes(base, begin, end, ctx)


def fn_interval_projection_indexed(ctx, args):
    """``interval_projection`` routed through the temporal endpoint index.

    Semantically identical to :func:`fn_interval_projection`; index-backed
    version sequences are narrowed to candidate windows by bisection before
    the exact per-version predicate runs.  Used by the compiled backend when
    the context carries a ``temporal_index``.
    """
    index = ctx.temporal_index
    if index is None:
        return fn_interval_projection(ctx, args)
    begin = resolve_point(_point_from_arg(args[1], ctx, START), ctx.now)
    end = resolve_point(_point_from_arg(args[2], ctx, NOW), ctx.now)
    return interval_project_nodes(args[0], begin, end, ctx, index)


def fn_version_projection_indexed(ctx, args):
    """``version_projection`` with positional slicing instead of a scan."""
    base = args[0]
    begin = int(to_number(args[1][0])) if args[1] else 1
    end = int(to_number(args[2][0])) if args[2] else len(base)
    return version_project_nodes(base, begin, end, ctx, ctx.temporal_index)


def interval_project_nodes(
    nodes: list, begin: XSDateTime, end: XSDateTime, ctx, index=None
) -> list:
    """Apply temporal slicing to a node sequence (paper's projection loop).

    With ``index`` (a temporal index hook, see ``repro.core.engine``) runs of
    nodes that are exactly the children of a store-cached filler wrapper are
    narrowed to the bisected candidate window; every surviving candidate
    still goes through the exact :func:`_project_one` predicate, so the
    result is identical to the scan path.
    """
    if begin > end:
        raise XQueryTypeError(f"interval projection with begin > end: [{begin}, {end}]")
    if index is not None:
        return _project_indexed(nodes, begin, end, ctx, index)
    out: list = []
    for node in nodes:
        out.extend(_project_one(node, begin, end, ctx))
    return out


def _project_indexed(nodes: list, begin, end, ctx, index) -> list:
    begin_epoch = begin.to_epoch_seconds()
    end_epoch = end.to_epoch_seconds()
    out: list = []
    i = 0
    n = len(nodes)
    while i < n:
        node = nodes[i]
        if isinstance(node, Element):
            parent = node.parent
            if isinstance(parent, Element) and parent.tag == "filler":
                siblings = parent.children
                m = len(siblings)
                # Identity check: the next m input nodes are exactly this
                # wrapper's children, in order (C-speed list comparison).
                if m and siblings[0] is node and i + m <= n and nodes[i:i + m] == siblings:
                    window = index.wrapper_window(parent, begin_epoch, end_epoch)
                    if window is not None:
                        lo, hi = window
                        for k in range(lo, hi):
                            out.extend(_project_one(siblings[k], begin, end, ctx, index))
                    else:
                        for k in range(m):
                            out.extend(_project_one(siblings[k], begin, end, ctx, index))
                    i += m
                    continue
        out.extend(_project_one(node, begin, end, ctx, index))
        i += 1
    return out


def _project_one(node: object, begin: XSDateTime, end: XSDateTime, ctx, index=None) -> list:
    if isinstance(node, Text):
        return [Text(node.text)]
    if isinstance(node, (Comment, ProcessingInstruction, Attr)):
        return []
    if not isinstance(node, Element):
        # Atomic values pass through untouched (projection of a constructed
        # value keeps the value; its lifespan is the projection interval).
        return [node]

    if node.tag == "hole":
        resolver = ctx.hole_resolver
        if resolver is None:
            # Without a fragment store the hole stays in place (it will
            # simply not match any query path).
            return [node.copy()]
        hole_id = node.attrs.get("id")
        if index is not None:
            window = index.hole_window(
                hole_id, begin.to_epoch_seconds(), end.to_epoch_seconds()
            )
            if window is not None:
                versions, lo, hi = window
                out = []
                for k in range(lo, hi):
                    out.extend(_project_one(versions[k], begin, end, ctx, index))
                return out
        resolved = resolver(hole_id)
        out = []
        for version in resolved:
            out.extend(_project_one(version, begin, end, ctx, index))
        return out

    span = _attr_lifespan(node)
    if span is False:
        # Snapshot element: no temporal dimension of its own; recurse.
        return [_clone(node, begin, end, ctx, index)]

    vt_from = resolve_point(span.begin, ctx.now)
    vt_to = resolve_point(span.end, ctx.now)
    open_ended = span.end is NOW

    # A superseded version's lifespan is half-open at vtTo ([from, to)):
    # at the update instant exactly one version is current.  Events and
    # clipped points (from == to) are genuine instants, and the *current*
    # version (vtTo = "now", no successor yet) is valid at now itself.
    if vt_from == vt_to:
        if vt_from < begin or vt_from > end:
            return []
    elif vt_from > end or (vt_to < begin if open_ended else vt_to <= begin):
        return []
    clipped_from = max(vt_from, begin)
    clipped_to = min(vt_to, end)
    clone = _clone(node, begin, end, ctx, index)
    clone.set(_VT_FROM, str(clipped_from))
    clone.set(_VT_TO, str(clipped_to))
    return [clone]


def _clone(node: Element, begin: XSDateTime, end: XSDateTime, ctx, index) -> Element:
    """A new element for ``node`` over its children projected to ``[begin, end]``.

    A stored version with only elements and text below it, none a hole
    and none with a lifespan of its own (``stored_verdict``'s
    ``timeless``) projects to a plain copy that can wait: no interval
    prunes or clips anything down there, and the subtree cannot change
    under the copy (the store may restamp the version's own lifespan,
    which the copy took at query time, never what is below).
    """
    if stored_verdict(node)[1]:
        return DeferredElement(node.tag, node.attrs, node)
    clone = Element(node.tag, node.attrs)
    for child in node.children:
        for projected in _project_one(child, begin, end, ctx, index):
            if isinstance(projected, Node):
                clone._link_child(projected)
    return clone


def version_project_nodes(nodes: list, begin: int, end: int, ctx, index=None) -> list:
    """Select versions ``begin..end`` (1-based) and slice their content."""
    if begin > end:
        raise XQueryTypeError(f"version projection with begin > end: [{begin}, {end}]")
    if index is not None:
        # Positional selection commutes with slicing: take the window
        # directly instead of scanning and testing every position.
        lo = 1 if begin < 1 else begin
        selected = nodes[lo - 1:end] if end >= lo else []
    else:
        selected = [
            node
            for position, node in enumerate(nodes, start=1)
            if begin <= position <= end
        ]
    out: list = []
    for node in selected:
        if not isinstance(node, Element):
            out.append(node)
            continue
        span = element_lifespan(node, ctx).resolve(ctx.now)
        out.append(_clone(node, span.begin, span.end, ctx, index))
    return out
