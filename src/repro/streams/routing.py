"""Routing predicates at run time: one probe kernel, two places it decides.

A :class:`~repro.core.optimizer.RoutingPredicate` is the leading
literal comparison of a standing query's residual (``$t/amount > 50``).
This module owns what every consumer of one needs — extracting the
operand's values from a payload with exactly the residual's coercion,
and comparing them with the literal — and the two decisions built on
it:

- **per envelope, in flight** (:class:`DoorProbe`): which of a set of
  predicates can *any* binding tuple of this envelope satisfy?  Asked
  of wire text nobody has parsed: the network server's subscription
  door (:mod:`repro.streams.net`, its only importer) tokenizes the
  envelope once and the probe's handlers decide each predicate as its
  operand values complete, stopping once every one sends; no DOM and no
  event list is built for a frame that is only relayed, and a frame not
  sent is a frame not paid for.
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
    "DoorProbe",
    "Partition",
    "TupleIndex",
    "compare",
    "descendants_with_tag",
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

    The half of the extraction that is not the walk.  The door's event
    kernel (:class:`DoorProbe`) applies it a value at a time.
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


# -- per envelope: the door's wire-text probe --------------------------------------------

_NO_SKIPS: frozenset = frozenset()


class _DoorShape:
    """The door's predicates of one shape, and what the envelope read so far decided.

    The path NFA of :func:`operand_values` run over parser events: every
    element named ``tuple_tag`` is a candidate, and an element is a
    target of the candidate ``steps`` levels above it when the tags
    between them spell ``path`` — child steps only, so an element is the
    target of at most one candidate and open targets nest.  An annotation
    operand is read off the envelope's header, so its shape has no target.
    """

    __slots__ = (
        "tuple_tag", "path", "steps", "last_tag", "attribute", "text_only",
        "numeric", "single", "annotation", "preds", "pending", "counts", "at_root",
    )

    def __init__(self, preds: list) -> None:
        pred = preds[0]
        self.tuple_tag = pred.tuple_tag
        self.path = list(pred.path)
        self.steps = len(pred.path)
        self.attribute = pred.attribute
        self.text_only = pred.text_only
        self.numeric = pred.numeric
        self.single = pred.single
        self.annotation = pred.attribute in _ANNOTATIONS
        if self.annotation:
            self.last_tag = None
        else:
            self.last_tag = pred.path[-1] if pred.path else pred.tuple_tag
        self.preds = tuple(preds)
        self.pending = self.preds  # undecided on this envelope: each sends or skips
        self.counts: dict = {}  # depth -> [value count] of the candidate open there (single only)
        self.at_root = False  # an annotation shape met the payload root as a candidate


class DoorProbe(EventParser):
    """The network door's routing verdicts for one ``(stream, tsid)``.

    Holds the distinct predicates of that pair's live subscriptions and
    decides them while expat reads an envelope, in its handlers: each
    operand value is compared with its shape's undecided predicates the
    moment it completes — an attribute at its start tag, a ``text()`` run
    when the next construct flushes it, a string value at its target's
    end tag.  A value that accepts, one the residual could not coerce,
    or a second value under a value comparison decides "send" for a
    predicate, and nothing later in the text can change that; once every
    predicate sends, the handlers detach and expat finishes the text in
    C.  Only an envelope some predicate would *skip* is read to the end
    and checked by :func:`envelope_header`; a ``ValueError`` there, or a
    malformed text anywhere, sends.  So
    :meth:`decide` gives, per predicate, exactly
    ``route_match(pred, parse_filler(text), tag_type)``, and sends
    wherever ``parse_filler`` raises.

    Built once per subscription set (``StreamServer`` rebuilds it on
    SUBSCRIBE and on a closed connection); each envelope gets a fresh
    expat parser from :meth:`EventParser.reset`.  Not reentrant: call
    :meth:`decide` synchronously, never across an ``await``.
    """

    __slots__ = (
        "_shapes", "_live", "_tag_type", "_depth", "_tags", "_open",
        "_tops", "_envelope", "_payloads",
    )

    def __init__(self, predicates) -> None:
        by_shape: dict = {}
        for pred in predicates:
            by_shape.setdefault(_shape(pred), {}).setdefault(pred, None)
        self._shapes = [_DoorShape(list(preds)) for preds in by_shape.values()]
        self._tags: list = []  # open elements below the envelope; the payload root is depth 2
        self._open: list = []  # open text targets, innermost last: (shape, depth, count, parts)
        self._tag_type: Optional[TagType] = None
        super().__init__(fragment=True)

    @property
    def predicates(self) -> list:
        """The distinct predicates this probe decides."""
        return [pred for shape in self._shapes for pred in shape.preds]

    def reset(self) -> None:
        super().reset()
        self._depth = self._tops = self._payloads = 0
        self._envelope = (None, {})
        self._tags.clear()
        self._open.clear()
        for shape in self._shapes:
            shape.pending = shape.preds
            shape.counts.clear()
            shape.at_root = False
        self._live = self._shapes

    def decide(self, text, tag_type: Optional[TagType]) -> frozenset:
        """The predicates that skip this envelope; every other one sends it.

        ``text`` is the envelope, whole or as an iterable of chunks.
        """
        self.reset()
        self._tag_type = tag_type
        try:
            for chunk in (text,) if isinstance(text, str) else text:
                if not self._live:
                    break
                self.feed(chunk)
            if not self._live:
                return _NO_SKIPS
            self._finish()
            tag, attrs = self._envelope
            _, _, valid_time = envelope_header(self._tops, tag, attrs, self._payloads)
        except ValueError:
            return _NO_SKIPS  # not one readable envelope: send
        finally:
            self._parser = None
        skips: list = []
        for shape in self._live:
            pending = shape.pending
            if shape.at_root:
                value = valid_time.to_epoch_seconds()
                pending = [pred for pred in pending if not compare(value, pred)]
            skips.extend(pending)
        return frozenset(skips)

    # -- the verdicts ------------------------------------------------------------------

    def _sends(self, shape: _DoorShape) -> None:
        """Every undecided predicate of ``shape`` sends this envelope."""
        shape.pending = ()
        live = self._live = [other for other in self._live if other.pending]
        if not live:
            parser = self._parser
            parser.StartElementHandler = parser.EndElementHandler = None
            parser.CharacterDataHandler = parser.DefaultHandler = None

    def _value(self, shape: _DoorShape, count, text: str) -> None:
        """One operand value of a candidate (``count``: its tally, single only)."""
        pending = shape.pending
        if not pending:
            return
        if count is not None:
            count[0] += 1
            if count[0] > 1:
                return self._sends(shape)  # a value comparison over a sequence raises
        if shape.numeric:
            try:
                text = probe_number(text)
            except XQueryTypeError:
                return self._sends(shape)
        kept = [pred for pred in pending if not compare(text, pred)]
        if not kept:
            self._sends(shape)
        elif len(kept) < len(pending):
            shape.pending = kept

    def _deliver(self, text: str) -> None:
        """A text node: a ``text()`` value of its parent, part of every open string value."""
        depth = self._depth
        for shape, at, count, parts in self._open:
            if parts is not None:
                parts.append(text)
            elif at == depth:
                self._value(shape, count, text)

    # -- handlers ----------------------------------------------------------------------

    def _text(self) -> None:
        pieces = self._pieces
        if self._open:
            text = "".join(pieces)
            if not text.isspace():
                self._deliver(text)
        pieces.clear()

    def _start(self, tag, attrs):
        if self._pieces:
            self._text()
        depth = self._depth = self._depth + 1
        if depth < 3:
            if depth == 1:
                self._tops += 1
                self._envelope = (tag, attrs)
                return
            self._payloads += 1
        tags = self._tags
        tags.append(tag)
        for shape in self._live:
            if tag == shape.tuple_tag:
                if shape.annotation:
                    if (shape.steps or depth != 2 or (
                            shape.attribute == "vtTo" and self._tag_type is not TagType.EVENT)):
                        self._sends(shape)  # the value depends on other versions
                    else:
                        shape.at_root = True
                    continue
                if shape.single:
                    shape.counts[depth] = [0]
            if tag == shape.last_tag:
                origin = depth - shape.steps
                if (origin < 2 or tags[origin - 2] != shape.tuple_tag
                        or tags[origin - 1:] != shape.path):
                    continue
                count = shape.counts[origin] if shape.single else None
                attribute = shape.attribute
                if attribute is None:
                    self._open.append((shape, depth, count, None if shape.text_only else []))
                elif attribute in attrs:
                    self._value(shape, count, attrs[attribute])

    def _end(self, tag):
        if self._pieces:
            self._text()
        depth = self._depth
        self._depth = depth - 1
        if depth > 1:
            self._tags.pop()
            opened = self._open
            while opened and opened[-1][1] == depth:
                shape, _, count, parts = opened.pop()
                if parts is not None:
                    self._value(shape, count, "".join(parts))

    def _markup(self, data):
        if data == "]]>":  # a CDATA section is a text node, whitespace and all
            pieces = self._pieces
            if self._open:
                self._deliver("".join(pieces))
            pieces.clear()
            return
        if self._pieces:
            self._text()
        if data.startswith("&"):
            super()._markup(data)  # an unexpanded entity: rejected as everywhere


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

    Only members the split fed are listed: a filed member that is absent
    accepted no tuple.  ``undecided`` maps ``id(member)`` to the ``id`` s
    of the tuples its shape had no verdict for and passed through (one
    set per shape, shared by its members; absent = none).  Every other
    tuple of a member's sub-list is there because its own comparison
    holds — exactly, not conservatively.
    """

    __slots__ = ("undecided",)

    def __init__(self) -> None:
        super().__init__()
        self.undecided: dict[int, set] = {}

    def __missing__(self, key: int) -> list:
        fed = self[key] = []
        return fed


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
    only they still need the member's guard.  The partition lists only
    the members it fed, so a filed member it leaves out accepted nothing;
    members the index cannot serve (:func:`index_shape` is ``None``) are
    never filed (:meth:`add` says so) and take every tuple.
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
        lists = Partition()
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
