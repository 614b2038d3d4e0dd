"""Routing predicates at run time: one probe kernel, two places it decides.

A :class:`~repro.core.optimizer.RoutingPredicate` is the leading
literal comparison of a standing query's residual (``$t/amount > 50``).
This module owns what every consumer of one needs — extracting the
operand's values from a payload with exactly the residual's coercion,
and comparing them with the literal — and the two decisions built on
it:

- **per envelope, over parser events** (:func:`envelope_match`): can
  *any* binding tuple of this envelope satisfy the predicate?  Asked of
  wire text nobody has parsed: the network server's subscription door
  (:mod:`repro.streams.net`, its only importer) tokenizes the envelope
  once and walks the events; no DOM is built for a frame that is only
  relayed, and a frame not sent is a frame not paid for.
- **per binding tuple** (:class:`TupleIndex`): which members of a shared
  group can accept *this* tuple?  Members whose predicates differ only
  in the literal are kept sorted by it, the operand is extracted once
  per tuple, and a bisect finds the accepting members — a condition
  shared by many standing queries is decided once per event, not once
  per query (Koch et al., schema-based scheduling of event processors).
  :mod:`repro.streams.scheduler` is its only importer.

Between the two — once an envelope is a materialized
:class:`~repro.fragments.model.Filler` but before its tuples are bound —
nothing decides a predicate: arrivals wake by ``(stream, tsid)``
dependency alone.  :func:`route_match` / :func:`filler_values` answer the
per-envelope question over a DOM and are kept as the **reference** the
event kernel is held to (``tests/test_envelope_probe.py``); no module
under ``src/`` imports them (``repro-lint`` rule ``predicate-tier``).

Both are conservative in the same direction: whatever the kernel cannot
decide (an operand that is not a number where one is compared, a
multi-valued operand under a value comparison, ``NaN``, an annotation
attribute that depends on other versions) sends the frame, or passes the
tuple through, and the query's own residual gives the verdict —
including the error it would have raised.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Optional

from repro.core.optimizer import RoutingPredicate
from repro.dom.nodes import Element, Text
from repro.dom.parser import EventParser
from repro.fragments.model import Filler, envelope_header
from repro.fragments.tagstructure import TagType
from repro.xquery.errors import XQueryTypeError
from repro.xquery.xdm import to_number

__all__ = [
    "Partition",
    "TupleIndex",
    "compare",
    "descendants_with_tag",
    "envelope_match",
    "envelope_values",
    "filler_values",
    "index_shape",
    "operand_values",
    "probe_number",
    "probe_values",
    "route_match",
]

# From this magnitude on a float no longer holds every integer, and
# to_number keeps such text as an exact int.
_EXACT_FLOAT = float(2**53)

_ANNOTATIONS = ("vtFrom", "vtTo")  # wrapper-level attributes, not payload content
_ORDERED = ("<", "<=", ">", ">=")
_OPERATORS = _ORDERED + ("=", "!=")


def probe_number(text: str):
    """``to_number`` for document text, with a fast path for plain numbers.

    Agrees with :func:`repro.xquery.xdm.to_number` on every input — the
    ``$``-prefixed prices of the paper's sample fillers, padded text,
    integers too large for a float — and raises the same
    :class:`XQueryTypeError` for text with no numeric form.
    """
    try:
        value = float(text)
    except ValueError:
        return to_number(text)
    if -_EXACT_FLOAT < value < _EXACT_FLOAT:
        return value
    return to_number(text)  # huge, infinite or NaN: take to_number's word


def operand_values(pred: RoutingPredicate, element: Element) -> Optional[list]:
    """The values ``pred``'s left side yields below one bound element.

    The single operand extraction: the child-path walk, then attribute,
    ``text()`` or string value, coerced like the residual's comparison
    coerces.  ``None`` means undecidable (the residual would raise, or
    the kernel cannot model the operand); an empty list means an empty
    operand sequence, over which every comparison is false.  Annotation
    attributes (``vtFrom``/``vtTo``) are the caller's business.
    """
    targets = [element]
    for name in pred.path:
        targets = [
            child for target in targets for child in target.child_elements(name)
        ]
    values: list = []
    for target in targets:
        if pred.attribute is not None:
            if pred.attribute in target.attrs:
                values.append(str(target.attrs[pred.attribute]))
        elif pred.text_only:
            values.extend(
                child.text for child in target.children if isinstance(child, Text)
            )
        else:
            values.append(target.string_value())
    return _coerced(pred, values)


def _coerced(pred: RoutingPredicate, values: list) -> Optional[list]:
    """One bound element's operand strings as the residual compares them.

    The half of the extraction that is not the walk: the DOM kernel
    (:func:`operand_values`) and the event kernel
    (:func:`envelope_values`) both end here.
    """
    if pred.single and len(values) > 1:
        return None  # a value comparison over a sequence raises
    if pred.numeric:
        try:
            return [probe_number(value) for value in values]
        except XQueryTypeError:
            return None
    return values


def _annotation_values(pred: RoutingPredicate, is_root: bool, valid_time,
                       tag_type: Optional[TagType]) -> Optional[list]:
    """``@vtFrom``/``@vtTo`` of a candidate, as far as one arrival tells.

    Annotation attributes exist on the wrapper level only — the arriving
    version's ``vtFrom`` is its own validTime for every tag type, and its
    ``vtTo`` equals ``vtFrom`` for events.  A temporal or snapshot
    ``vtTo`` depends on *other* versions — undecidable here.
    """
    if pred.path or not is_root:
        return None
    if pred.attribute == "vtTo" and tag_type is not TagType.EVENT:
        return None
    return [valid_time.to_epoch_seconds()]


def _merged(per_candidate) -> Optional[list]:
    """Every candidate's values in one list; ``None`` once one is undecidable."""
    merged: list = []
    for values in per_candidate:
        if values is None:
            return None
        merged.extend(values)
    return merged


def _any_match(pred: RoutingPredicate, values: Optional[list]) -> bool:
    """The probe's verdict over extracted values: undecidable wakes."""
    return values is None or any(compare(value, pred) for value in values)


def compare(value, pred: RoutingPredicate) -> bool:
    """Does one operand value satisfy ``pred``?  Undecidable counts as yes."""
    try:
        if pred.op == "=":
            return value == pred.value
        if pred.op == "!=":
            return value != pred.value
        if pred.op == "<":
            return value < pred.value
        if pred.op == "<=":
            return value <= pred.value
        if pred.op == ">":
            return value > pred.value
        if pred.op == ">=":
            return value >= pred.value
    except TypeError:
        return True  # incomparable — wake
    return True  # unknown operator — wake


# -- per filler: the DOM reference of the envelope probe (tests only) -------------------


def route_match(pred: RoutingPredicate, filler: Filler,
                tag_type: Optional[TagType],
                value_cache: Optional[dict] = None) -> bool:
    """Can this filler produce a binding tuple satisfying ``pred``?

    Conservative: ``True`` (wake) whenever the probe cannot decide.  The
    candidate set — the content root plus any descendant elements with the
    bound tag name — is a superset of the tuples the shared prefix will
    actually bind from this filler (the prefix only navigates downward
    from filler wrappers), so a ``False`` verdict is sound: no candidate
    can satisfy the conjunct, the residual's leftmost ``where`` rejects
    every tuple, and the query's answer cannot change.
    """
    return _any_match(pred, filler_values(pred, filler, tag_type, value_cache))


def filler_values(pred: RoutingPredicate, filler: Filler,
                  tag_type: Optional[TagType],
                  value_cache: Optional[dict]) -> Optional[list]:
    """Every comparable value ``pred``'s left side yields for a filler.

    ``None`` = some candidate is undecidable (wake).  Keyed by the
    predicate *shape* (not its literal), so same-shape predicates with
    different thresholds share one content walk per filler.
    """
    key = (id(filler),) + _shape(pred)
    if value_cache is not None and key in value_cache:
        return value_cache[key]
    candidates: list[Element] = []
    root = filler.content
    if root.tag == pred.tuple_tag:
        candidates.append(root)
    candidates.extend(descendants_with_tag(root, pred.tuple_tag))
    merged = _merged(
        probe_values(pred, candidate, root, filler, tag_type)
        for candidate in candidates
    )
    if value_cache is not None:
        value_cache[key] = merged
    return merged


def descendants_with_tag(element: Element, tag: str) -> list[Element]:
    found: list[Element] = []
    for child in element.child_elements():
        if child.tag == tag:
            found.append(child)
        found.extend(descendants_with_tag(child, tag))
    return found


def probe_values(pred: RoutingPredicate, candidate: Element, root: Element,
                 filler: Filler, tag_type: Optional[TagType]) -> Optional[list]:
    """The comparable values ``pred``'s left side yields for a candidate.

    :func:`operand_values` plus the one thing only the filler level
    knows: the annotation attributes (:func:`_annotation_values`).
    """
    if pred.attribute in _ANNOTATIONS:
        return _annotation_values(pred, candidate is root, filler.valid_time, tag_type)
    return operand_values(pred, candidate)


# -- per envelope: the wire-text probe ---------------------------------------------------


def envelope_match(pred: RoutingPredicate, payload: str,
                   tag_type: Optional[TagType],
                   value_cache: Optional[dict] = None) -> bool:
    """:func:`route_match` for an envelope still in wire form.

    The same verdict ``route_match(pred, parse_filler(payload), ...)``
    gives, without the DOM.  Raises ``ValueError`` for text that is not
    one well-formed filler envelope; the caller decides what an
    unreadable envelope means (the network door sends it).
    """
    return _any_match(pred, envelope_values(pred, payload, tag_type, value_cache))


def envelope_values(pred: RoutingPredicate, payload: str,
                    tag_type: Optional[TagType],
                    value_cache: Optional[dict] = None) -> Optional[list]:
    """:func:`filler_values` over the parser events of an envelope's text.

    Returns exactly ``filler_values(pred, parse_filler(payload),
    tag_type, None)`` and raises ``ValueError`` exactly where
    ``parse_filler`` does.  The text is tokenized once per
    ``value_cache`` (the event list is kept under ``"events"``) and
    walked once per predicate *shape*; only the walk differs from the DOM
    kernel — coercion, annotation rule and merge are shared.
    """
    cache = {} if value_cache is None else value_cache
    key = _shape(pred)
    if key in cache:
        return cache[key]
    events = cache.get("events")
    if events is None:
        parser = EventParser(fragment=True)
        events = parser.feed(payload)
        events += parser.close()
        cache["events"] = events
    valid_time, candidates = _walk_events(pred, events)
    if pred.attribute in _ANNOTATIONS:
        merged = _merged(
            _annotation_values(pred, is_root, valid_time, tag_type)
            for is_root, _values in candidates
        )
    else:
        merged = _merged(_coerced(pred, values) for _is_root, values in candidates)
    cache[key] = merged
    return merged


def _walk_events(pred: RoutingPredicate, events: list) -> tuple:
    """``(valid_time, candidates)`` of one envelope's event list.

    A path NFA over the payload subtree whose whole state is the stack
    of open tags: every element named ``pred.tuple_tag`` is a candidate,
    and an element is a target of the candidate ``len(pred.path)``
    levels above it when the tags between them spell ``pred.path`` —
    child steps only, so an element is the target of at most one
    candidate and open targets nest.  A target contributes its
    attribute, its direct text children, or its string value.
    ``candidates`` lists ``(is_payload_root, operand strings)`` in
    document order, the strings being what :func:`operand_values`
    collects below that element.  Everything below the envelope is
    walked as if it were the one payload: when it is not,
    :func:`envelope_header` raises and the walk's result is dropped.
    """
    tuple_tag, attribute, text_only = pred.tuple_tag, pred.attribute, pred.text_only
    path = list(pred.path)
    steps = len(path)
    last_tag = path[-1] if path else tuple_tag
    depth = top_elements = payload_elements = 0
    envelope_tag = None
    envelope_attrs: dict = {}
    tags: list = []  # open elements below the envelope; the payload root is depth 2
    candidates: list = []
    values_at: dict = {}  # depth -> the values of the candidate opened there last
    targets: list = []  # open targets, innermost last: (depth, values, text parts)
    for event in events:
        kind = event[0]
        if kind == "start":
            depth += 1
            if depth == 1:
                top_elements += 1
                envelope_tag, envelope_attrs = event[1], event[2]
                continue
            if depth == 2:
                payload_elements += 1
            tag = event[1]
            tags.append(tag)
            if tag == tuple_tag:
                values_at[depth] = values = []
                candidates.append((depth == 2, values))
            origin = depth - steps
            if (tag == last_tag and origin >= 2 and tags[origin - 2] == tuple_tag
                    and tags[origin - 1:] == path):
                values = values_at[origin]
                if attribute is not None:
                    if attribute in event[2]:
                        values.append(event[2][attribute])
                else:
                    targets.append((depth, values, None if text_only else []))
        elif kind == "end":
            if depth > 1:
                tags.pop()
                if targets and targets[-1][0] == depth:
                    _, values, parts = targets.pop()
                    if parts is not None:
                        values.append("".join(parts))
            depth -= 1
        elif kind == "text" or kind == "cdata":
            for target_depth, values, parts in targets:
                if parts is not None:
                    parts.append(event[1])
                elif depth == target_depth:
                    values.append(event[1])
    _, _, valid_time = envelope_header(
        top_elements, envelope_tag, envelope_attrs, payload_elements
    )
    return valid_time, candidates


def _shape(pred: RoutingPredicate) -> tuple:
    """Everything of a predicate but its operator and literal."""
    return (pred.tuple_tag, pred.path, pred.attribute, pred.text_only,
            pred.numeric, pred.single)


def index_shape(pred: RoutingPredicate) -> Optional[str]:
    """The :class:`TupleIndex` shape ``pred`` files under, for ``explain``.

    Predicates with equal shapes share one operand extraction per binding
    tuple and one sorted literal table per operator.  ``None`` = the
    index cannot serve the predicate (its member takes every tuple): an
    annotation attribute, whose value the bare tuple does not carry for
    every tag type, or a literal no ordering can file (``NaN``).
    """
    if pred.attribute in _ANNOTATIONS or pred.value != pred.value:
        return None
    if pred.op not in _OPERATORS:
        return None
    kind = "number" if pred.numeric else "string"
    return f"{pred.tuple_tag}[{pred.operand()} {pred.op} {kind}]"


# -- per binding tuple: the group dispatch index -----------------------------------------


class _SortedMembers:
    """The members of one shape under one ordering operator, by literal."""

    __slots__ = ("literals", "members")

    def __init__(self) -> None:
        self.literals: list = []
        self.members: list = []

    def add(self, literal, member) -> None:
        at = bisect_right(self.literals, literal)
        self.literals.insert(at, literal)
        self.members.insert(at, member)

    def remove(self, member) -> None:
        at = self.members.index(member)
        del self.literals[at]
        del self.members[at]


class _Shape:
    """Same-shape members of a group: one operand extraction serves all."""

    __slots__ = ("pred", "ordered", "exact", "size")

    def __init__(self, pred: RoutingPredicate) -> None:
        self.pred = pred  # any member's predicate: only its shape is read
        self.ordered = {op: _SortedMembers() for op in _ORDERED}
        self.exact: dict = {"=": {}, "!=": {}}  # op -> literal -> members
        self.size = 0

    def add(self, member, op: str, literal) -> None:
        if op in self.ordered:
            self.ordered[op].add(literal, member)
        else:
            self.exact[op].setdefault(literal, []).append(member)
        self.size += 1

    def remove(self, member, op: str, literal) -> None:
        if op in self.ordered:
            self.ordered[op].remove(member)
        else:
            table = self.exact[op]
            table[literal].remove(member)
            if not table[literal]:
                del table[literal]
        self.size -= 1

    def everyone(self) -> list:
        members: list = []
        for ordered in self.ordered.values():
            members.extend(ordered.members)
        for table in self.exact.values():
            for filed in table.values():
                members.extend(filed)
        return members

    def accepting(self, values: list) -> list:
        """Members whose comparison holds for some value (existential).

        A member is filed under exactly one operator and literal, so no
        member is listed twice.
        """
        if len(values) == 1:
            low = high = values[0]
            distinct = values
        else:
            low, high = min(values), max(values)
            distinct = set(values)
        filed = self.ordered[">"]  # literal < max
        members = filed.members[: bisect_left(filed.literals, high)]
        filed = self.ordered[">="]  # literal <= max
        members += filed.members[: bisect_right(filed.literals, high)]
        filed = self.ordered["<"]  # literal > min
        members += filed.members[bisect_right(filed.literals, low):]
        filed = self.ordered["<="]  # literal >= min
        members += filed.members[bisect_left(filed.literals, low):]
        equal = self.exact["="]
        if equal:
            for value in distinct:
                members += equal.get(value, ())
        unequal = self.exact["!="]
        if unequal:
            only = low if len(distinct) == 1 else None
            for literal, differing in unequal.items():
                if only is None or literal != only:
                    members += differing
        return members


class Partition(dict):
    """``id(member)`` → the order-preserving sub-list it can accept.

    ``undecided`` maps ``id(member)`` to the ``id`` s of the tuples its
    shape had no verdict for and passed through (one set per shape,
    shared by its members; absent = none).  Every other tuple of a
    member's sub-list is there because its own comparison holds —
    exactly, not conservatively.
    """

    __slots__ = ("undecided",)

    def __init__(self, members) -> None:
        super().__init__((key, []) for key in members)
        self.undecided: dict[int, set] = {}


class TupleIndex:
    """Hands each member of a shared group the tuples it can accept.

    Members register (at ``QueryScheduler.add`` time, never inside a
    poll) with the routing predicate their residual leads with.  Members
    whose predicates share a shape are filed by operator and literal;
    :meth:`partition` then extracts each shape's operand once per tuple
    and appends the tuple to the sub-list of every member whose literal
    accepts it — O(T·log Q + matches) instead of Q residual evaluations
    per tuple.  A member's sub-list is, in the original tuple order,
    exactly the tuples its predicate accepts plus those the kernel could
    not decide (non-numeric text under a numeric comparison, ``NaN``, a
    value comparison over two items), which the partition names so that
    only they still need the member's guard; members the index cannot
    serve (:func:`index_shape` is ``None``) are simply absent from the
    partition and take every tuple.
    """

    def __init__(self) -> None:
        self._shapes: dict[tuple, _Shape] = {}
        self._filed: dict[int, RoutingPredicate] = {}  # id(member) -> filed under

    def __len__(self) -> int:
        return len(self._filed)

    @property
    def shapes(self) -> int:
        """Distinct predicate shapes: operand extractions per tuple."""
        return len(self._shapes)

    def add(self, member, pred: RoutingPredicate) -> bool:
        """File ``member`` under ``pred``; ``False`` when it stays unindexed."""
        if index_shape(pred) is None:
            return False
        key = _shape(pred)
        shape = self._shapes.get(key)
        if shape is None:
            shape = self._shapes[key] = _Shape(pred)
        shape.add(member, pred.op, pred.value)
        self._filed[id(member)] = pred
        return True

    def remove(self, member) -> None:
        """Forget ``member`` (a no-op when it was never filed)."""
        pred = self._filed.pop(id(member), None)
        if pred is None:
            return
        key = _shape(pred)
        shape = self._shapes[key]
        shape.remove(member, pred.op, pred.value)
        if not shape.size:
            del self._shapes[key]

    def partition(self, tuples: list) -> Partition:
        """Split ``tuples`` among the filed members; see :class:`Partition`."""
        lists = Partition(self._filed)
        for shape in self._shapes.values():
            pred = shape.pred
            passed: set = set()
            for item in tuples:
                values = operand_values(pred, item)
                if values is not None and pred.numeric:
                    for value in values:
                        if value != value:  # NaN: only "!=" holds; the residual says
                            values = None
                            break
                if values is None:
                    accepting = shape.everyone()
                    if not passed:
                        for member in accepting:
                            lists.undecided[id(member)] = passed
                    passed.add(id(item))
                elif values:
                    accepting = shape.accepting(values)
                else:
                    continue  # empty operand: no comparison holds
                for member in accepting:
                    lists[id(member)].append(item)
        return lists
