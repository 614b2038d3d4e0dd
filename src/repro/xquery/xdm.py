"""The value model (a pragmatic XDM subset) and its coercion rules.

A *sequence* is a plain Python list.  Items are either nodes from
:mod:`repro.dom.nodes` or atomic values:

- ``bool``, ``int``, ``float`` — ``xs:boolean`` and the numeric types,
- ``str`` — both ``xs:string`` and untyped atomic data from documents,
- :class:`repro.temporal.chrono.XSDateTime` / ``XSDuration`` — the temporal
  types XCQL relies on,
- :class:`repro.temporal.interval.TimeInterval` — the XCQL interval value
  produced by ``[t1, t2]`` expressions (an extension type).

Strings that came from documents behave like ``xs:untypedAtomic``: general
comparisons promote them to the other operand's type (numbers, dateTimes,
durations), matching how XQuery compares untyped element content such as
``$t/amount > 1000``.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from repro.dom.nodes import Attr, Node
from repro.temporal.chrono import ChronoError, XSDateTime, XSDuration
from repro.temporal.interval import NOW, START, _Symbolic
from repro.xquery.errors import XQueryTypeError

__all__ = [
    "atomize",
    "atomize_sequence",
    "string_value",
    "to_number",
    "effective_boolean_value",
    "value_compare",
    "general_compare",
    "deep_equal",
]


def atomize(item: object) -> object:
    """Typed-value extraction: nodes yield their string value."""
    if isinstance(item, Node):
        return item.string_value()
    return item


def atomize_sequence(seq: Iterable[object]) -> list[object]:
    """Atomize every item of a sequence."""
    return [atomize(item) for item in seq]


def string_value(item: object) -> str:
    """The string form of a single item."""
    if isinstance(item, Node):
        return item.string_value()
    if isinstance(item, bool):
        return "true" if item else "false"
    if isinstance(item, float):
        if item == int(item) and abs(item) < 1e15:
            return str(int(item))
        return repr(item)
    if item is NOW:
        return "now"
    if item is START:
        return "start"
    return str(item)


def to_number(item: object) -> float:
    """Coerce an item to a number (``int`` preserved, else ``float``).

    Raises :class:`XQueryTypeError` when the item has no numeric form.
    """
    value = atomize(item)
    if isinstance(value, bool):
        return 1 if value else 0
    if isinstance(value, (int, float)):
        return value
    if isinstance(value, str):
        text = value.strip()
        # Data such as "$38.20" (the paper's sample fillers) must still sum.
        if text.startswith("$"):
            text = text[1:]
        try:
            return int(text)
        except ValueError:
            try:
                return float(text)
            except ValueError as exc:
                raise XQueryTypeError(f"cannot convert {value!r} to a number") from exc
    raise XQueryTypeError(f"cannot convert {type(value).__name__} to a number")


def effective_boolean_value(seq: Sequence[object]) -> bool:
    """The XQuery effective boolean value of a sequence."""
    if not seq:
        return False
    first = seq[0]
    if isinstance(first, Node):
        return True
    if len(seq) > 1:
        raise XQueryTypeError("effective boolean value of a multi-item atomic sequence")
    if isinstance(first, bool):
        return first
    if isinstance(first, (int, float)):
        return first != 0 and first == first  # NaN is false
    if isinstance(first, str):
        return bool(first)
    # Extension types (dateTime, duration, interval) are truthy values.
    return True


def _coerce_pair(left: object, right: object) -> tuple[object, object]:
    """Promote an (atomized) operand pair to comparable types.

    Untyped strings are cast toward the typed side; ``"now"``/``"start"``
    strings become the symbolic time points so filler metadata compares
    against dateTimes.
    """
    if isinstance(left, str) and isinstance(right, str):
        return left, right
    if isinstance(left, bool) or isinstance(right, bool):
        return bool(_truthy_cast(left)), bool(_truthy_cast(right))
    if isinstance(left, (int, float)) and isinstance(right, (int, float)):
        return left, right
    if isinstance(left, (int, float)) and isinstance(right, str):
        return left, to_number(right)
    if isinstance(left, str) and isinstance(right, (int, float)):
        return to_number(left), right
    if isinstance(left, XSDateTime) or isinstance(right, XSDateTime):
        return _to_datetime(left), _to_datetime(right)
    if isinstance(left, XSDuration) and isinstance(right, str):
        return left, XSDuration.parse(right)
    if isinstance(left, str) and isinstance(right, XSDuration):
        return XSDuration.parse(left), right
    return left, right


def _truthy_cast(value: object) -> bool:
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)):
        return value != 0
    if isinstance(value, str):
        if value in ("true", "1"):
            return True
        if value in ("false", "0"):
            return False
        raise XQueryTypeError(f"cannot cast {value!r} to xs:boolean")
    raise XQueryTypeError(f"cannot cast {type(value).__name__} to xs:boolean")


def _to_datetime(value: object) -> object:
    if isinstance(value, XSDateTime):
        return value
    if isinstance(value, _Symbolic):
        return value
    if isinstance(value, str):
        text = value.strip()
        if text == "now":
            return NOW
        if text == "start":
            return START
        try:
            return XSDateTime.parse(text)
        except ChronoError as exc:
            raise XQueryTypeError(f"cannot cast {value!r} to xs:dateTime") from exc
    raise XQueryTypeError(f"cannot cast {type(value).__name__} to xs:dateTime")


def _compare_points(left: object, right: object, now: XSDateTime | None) -> int:
    """Compare two time points, resolving symbolic endpoints when possible."""
    from repro.temporal.interval import resolve_point

    if isinstance(left, _Symbolic) or isinstance(right, _Symbolic):
        if now is None:
            raise XQueryTypeError("symbolic time point compared without a clock")
        left = resolve_point(left, now) if isinstance(left, _Symbolic) else left
        right = resolve_point(right, now) if isinstance(right, _Symbolic) else right
    if left < right:
        return -1
    if left > right:
        return 1
    return 0


_OPS: dict[str, Callable[[int], bool]] = {
    "eq": lambda c: c == 0,
    "ne": lambda c: c != 0,
    "lt": lambda c: c < 0,
    "le": lambda c: c <= 0,
    "gt": lambda c: c > 0,
    "ge": lambda c: c >= 0,
}


def value_compare(op: str, left: object, right: object, now: XSDateTime | None = None) -> bool:
    """Value comparison of two single atomized items (``eq``, ``lt``, ...)."""
    left, right = _coerce_pair(atomize(left), atomize(right))
    if isinstance(left, _Symbolic) or isinstance(right, _Symbolic) or (
        isinstance(left, XSDateTime) and isinstance(right, XSDateTime)
    ):
        return _OPS[op](_compare_points(left, right, now))
    try:
        if op == "eq":
            return left == right
        if op == "ne":
            return left != right
        if op == "lt":
            return left < right
        if op == "le":
            return left <= right
        if op == "gt":
            return left > right
        if op == "ge":
            return left >= right
    except TypeError as exc:
        raise XQueryTypeError(
            f"cannot compare {type(left).__name__} with {type(right).__name__}"
        ) from exc
    raise XQueryTypeError(f"unknown comparison operator {op!r}")


_GENERAL_TO_VALUE = {"=": "eq", "!=": "ne", "<": "lt", "<=": "le", ">": "gt", ">=": "ge"}


def general_compare(
    op: str,
    left_seq: Sequence[object],
    right_seq: Sequence[object],
    now: XSDateTime | None = None,
) -> bool:
    """Existential general comparison: true iff some pair satisfies it."""
    value_op = _GENERAL_TO_VALUE[op]
    left_atoms = atomize_sequence(left_seq)
    right_atoms = atomize_sequence(right_seq)
    for left in left_atoms:
        for right in right_atoms:
            if value_compare(value_op, left, right, now):
                return True
    return False


def deep_equal(left: Sequence[object], right: Sequence[object]) -> bool:
    """``fn:deep-equal`` over two sequences."""
    if len(left) != len(right):
        return False
    for a, b in zip(left, right):
        if isinstance(a, Node) != isinstance(b, Node):
            return False
        if isinstance(a, Node):
            if not _deep_equal_nodes(a, b):
                return False
        elif atomize(a) != atomize(b):
            return False
    return True


def _deep_equal_nodes(a: Node, b: Node) -> bool:
    from repro.dom.nodes import Element, Text

    if isinstance(a, Element) and isinstance(b, Element):
        if a.tag != b.tag or a.attrs != b.attrs:
            return False
        a_children = [c for c in a.children if isinstance(c, (Element, Text))]
        b_children = [c for c in b.children if isinstance(c, (Element, Text))]
        if len(a_children) != len(b_children):
            return False
        return all(_deep_equal_nodes(x, y) for x, y in zip(a_children, b_children))
    if isinstance(a, Text) and isinstance(b, Text):
        return a.text == b.text
    if isinstance(a, Attr) and isinstance(b, Attr):
        return a.name == b.name and a.value == b.value
    return a.string_value() == b.string_value()


