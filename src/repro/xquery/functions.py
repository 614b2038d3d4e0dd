"""The built-in function library.

Covers the ``fn:`` functions the paper's queries and translations use, the
``xs:``/``xdt:`` constructor functions for temporal types, and the XCQL
temporal accessors (``vtFrom``/``vtTo``, ``interval_projection``,
``version_projection`` — the latter two in their *temporal view* form;
the fragment-aware forms are registered per-engine by
:mod:`repro.core.engine`).

A builtin receives ``(ctx, args)`` where ``args`` is a list of evaluated
argument sequences, and returns a sequence (a list).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.dom.nodes import Attr, Element, Node
from repro.temporal.chrono import ChronoError, XSDateTime, XSDuration
from repro.xquery.errors import XQueryDynamicError, XQueryTypeError
from repro.xquery.temporal_functions import (
    fn_interval_projection,
    fn_version_projection,
    fn_vt_from,
    fn_vt_to,
)
from repro.xquery.xdm import (
    atomize,
    atomize_sequence,
    deep_equal,
    effective_boolean_value,
    string_value,
    to_number,
    value_compare,
)

__all__ = ["Builtin", "default_functions"]


@dataclass
class Builtin:
    """A Python-native function callable from queries."""

    name: str
    min_arity: int
    max_arity: int
    fn: Callable


def _sv(args: list[list], index: int = 0, default: str = "") -> str:
    """String value of the first item of the i-th argument sequence."""
    seq = args[index]
    if not seq:
        return default
    return string_value(atomize(seq[0]))


# -- sequence functions -------------------------------------------------------


def _fn_count(ctx, args):
    return [len(args[0])]


def _fn_empty(ctx, args):
    return [not args[0]]


def _fn_exists(ctx, args):
    return [bool(args[0])]


def _fn_not(ctx, args):
    return [not effective_boolean_value(args[0])]


def _fn_boolean(ctx, args):
    return [effective_boolean_value(args[0])]


def _fn_true(ctx, args):
    return [True]


def _fn_false(ctx, args):
    return [False]


def _fn_distinct_values(ctx, args):
    seen = []
    out = []
    for value in atomize_sequence(args[0]):
        if value not in seen:
            seen.append(value)
            out.append(value)
    return out


def _fn_reverse(ctx, args):
    return list(reversed(args[0]))


def _fn_subsequence(ctx, args):
    seq = args[0]
    start = int(to_number(args[1][0]))
    if len(args) > 2:
        length = int(to_number(args[2][0]))
        return seq[max(start - 1, 0) : max(start - 1, 0) + length]
    return seq[max(start - 1, 0) :]


def _fn_index_of(ctx, args):
    target = atomize(args[1][0])
    return [
        index
        for index, value in enumerate(atomize_sequence(args[0]), start=1)
        if value == target
    ]


def _fn_exactly_one(ctx, args):
    if len(args[0]) != 1:
        raise XQueryTypeError("exactly-one() applied to a non-singleton")
    return args[0]


def _fn_zero_or_one(ctx, args):
    if len(args[0]) > 1:
        raise XQueryTypeError("zero-or-one() applied to a multi-item sequence")
    return args[0]


def _fn_insert_before(ctx, args):
    seq, position, inserts = args[0], int(to_number(args[1][0])), args[2]
    cut = max(position - 1, 0)
    return seq[:cut] + inserts + seq[cut:]


def _fn_remove(ctx, args):
    position = int(to_number(args[1][0]))
    return [item for index, item in enumerate(args[0], start=1) if index != position]


# -- aggregates -----------------------------------------------------------------


def _numeric_values(seq):
    return [to_number(item) for item in atomize_sequence(seq)]


def _fn_sum(ctx, args):
    values = _numeric_values(args[0])
    if not values and len(args) > 1:
        return args[1]
    return [sum(values) if values else 0]


def _fn_avg(ctx, args):
    values = _numeric_values(args[0])
    if not values:
        return []
    return [sum(values) / len(values)]


def _minmax(ctx, args, pick):
    # XQuery fn:max takes one sequence; the paper also writes max(a, b)
    # (CQL style), so extra arguments fold into the candidate set.
    candidates = []
    for arg in args:
        candidates.extend(atomize_sequence(arg))
    if not candidates:
        return []
    best = candidates[0]
    for value in candidates[1:]:
        left, right = value, best
        if value_compare("gt" if pick == "max" else "lt", left, right, ctx.now):
            best = value
    if isinstance(best, str):
        try:
            return [to_number(best)]
        except XQueryTypeError:
            return [best]
    return [best]


def _fn_max(ctx, args):
    return _minmax(ctx, args, "max")


def _fn_min(ctx, args):
    return _minmax(ctx, args, "min")


# -- strings -----------------------------------------------------------------------


def _fn_string(ctx, args):
    if not args:
        if ctx.item is None:
            raise XQueryDynamicError("string() with no context item")
        return [string_value(ctx.item)]
    if not args[0]:
        return [""]
    return [string_value(atomize(args[0][0]))]


def _fn_concat(ctx, args):
    return ["".join(_sv(args, i) for i in range(len(args)))]


def _fn_contains(ctx, args):
    return [_sv(args, 1) in _sv(args, 0)]


def _fn_starts_with(ctx, args):
    return [_sv(args, 0).startswith(_sv(args, 1))]


def _fn_ends_with(ctx, args):
    return [_sv(args, 0).endswith(_sv(args, 1))]


def _fn_substring(ctx, args):
    text = _sv(args, 0)
    start = int(round(to_number(args[1][0])))
    if len(args) > 2:
        length = int(round(to_number(args[2][0])))
        end = start - 1 + length
        return [text[max(start - 1, 0) : max(end, 0)]]
    return [text[max(start - 1, 0) :]]


def _fn_substring_before(ctx, args):
    text, sep = _sv(args, 0), _sv(args, 1)
    index = text.find(sep)
    return [text[:index] if index >= 0 else ""]


def _fn_substring_after(ctx, args):
    text, sep = _sv(args, 0), _sv(args, 1)
    index = text.find(sep)
    return [text[index + len(sep) :] if index >= 0 else ""]


def _fn_string_length(ctx, args):
    return [len(_sv(args, 0))]


def _fn_normalize_space(ctx, args):
    return [" ".join(_sv(args, 0).split())]


def _fn_upper_case(ctx, args):
    return [_sv(args, 0).upper()]


def _fn_lower_case(ctx, args):
    return [_sv(args, 0).lower()]


def _fn_string_join(ctx, args):
    separator = _sv(args, 1) if len(args) > 1 else ""
    return [separator.join(string_value(atomize(i)) for i in args[0])]


def _fn_translate(ctx, args):
    text, source, target = _sv(args, 0), _sv(args, 1), _sv(args, 2)
    table = {}
    for index, char in enumerate(source):
        table[ord(char)] = target[index] if index < len(target) else None
    return [text.translate(table)]


def _regex_flags(spec: str) -> int:
    import re

    flags = 0
    mapping = {"i": re.IGNORECASE, "s": re.DOTALL, "m": re.MULTILINE, "x": re.VERBOSE}
    for char in spec:
        if char not in mapping:
            raise XQueryDynamicError(f"unknown regex flag {char!r}")
        flags |= mapping[char]
    return flags


def _fn_matches(ctx, args):
    import re

    flags = _regex_flags(_sv(args, 2)) if len(args) > 2 else 0
    try:
        return [re.search(_sv(args, 1), _sv(args, 0), flags) is not None]
    except re.error as exc:
        raise XQueryDynamicError(f"invalid regex: {exc}") from exc


def _fn_replace(ctx, args):
    import re

    flags = _regex_flags(_sv(args, 3)) if len(args) > 3 else 0
    try:
        return [re.sub(_sv(args, 1), _sv(args, 2), _sv(args, 0), flags=flags)]
    except re.error as exc:
        raise XQueryDynamicError(f"invalid regex: {exc}") from exc


def _fn_tokenize(ctx, args):
    import re

    flags = _regex_flags(_sv(args, 2)) if len(args) > 2 else 0
    try:
        return [part for part in re.split(_sv(args, 1), _sv(args, 0), flags=flags)]
    except re.error as exc:
        raise XQueryDynamicError(f"invalid regex: {exc}") from exc


# -- numbers ----------------------------------------------------------------------------


def _fn_number(ctx, args):
    if not args:
        if ctx.item is None:
            raise XQueryDynamicError("number() with no context item")
        return [to_number(ctx.item)]
    if not args[0]:
        return [float("nan")]
    return [to_number(args[0][0])]


def _fn_abs(ctx, args):
    return [abs(to_number(args[0][0]))] if args[0] else []


def _fn_round(ctx, args):
    if not args[0]:
        return []
    value = to_number(args[0][0])
    import math

    return [math.floor(value + 0.5)]


def _fn_floor(ctx, args):
    import math

    return [math.floor(to_number(args[0][0]))] if args[0] else []


def _fn_ceiling(ctx, args):
    import math

    return [math.ceil(to_number(args[0][0]))] if args[0] else []


# -- nodes -----------------------------------------------------------------------------------


def _fn_name(ctx, args):
    node = args[0][0] if args else ctx.item
    if node is None or (args and not args[0]):
        return [""]
    if isinstance(node, Element):
        return [node.tag]
    if isinstance(node, Attr):
        return [node.name]
    if isinstance(node, Node):
        return [""]
    raise XQueryTypeError("name() applied to a non-node")


def _fn_local_name(ctx, args):
    name = _fn_name(ctx, args)[0]
    return [name.split(":")[-1]]


def _fn_root(ctx, args):
    node = args[0][0] if args else ctx.item
    if node is None:
        raise XQueryDynamicError("root() with no context item")
    if not isinstance(node, Node):
        raise XQueryTypeError("root() applied to a non-node")
    return [node.root()]


def _fn_data(ctx, args):
    return atomize_sequence(args[0])


def _fn_deep_equal(ctx, args):
    return [deep_equal(args[0], args[1])]


def _fn_position(ctx, args):
    if not ctx.size:
        raise XQueryDynamicError("position() outside a predicate or path step")
    return [ctx.position]


def _fn_last(ctx, args):
    if not ctx.size:
        raise XQueryDynamicError("last() outside a predicate or path step")
    return [ctx.size]


def _fn_doc(ctx, args):
    name = _sv(args, 0)
    document = ctx.documents.get(name)
    if document is None:
        raise XQueryDynamicError(f"document {name!r} is not registered")
    return [document]


def _fn_stream(ctx, args):
    name = _sv(args, 0)
    if ctx.streams is None:
        raise XQueryDynamicError("no stream registry in this context")
    return list(ctx.streams(name))


def _fn_error(ctx, args):
    raise XQueryDynamicError(_sv(args, 0, "fn:error() called"))


# -- temporal constructors ----------------------------------------------------------------------


def _fn_current_datetime(ctx, args):
    return [ctx.now]


def _xs_datetime(ctx, args):
    text = _sv(args, 0)
    if text == "now":
        return [ctx.now]
    try:
        return [XSDateTime.parse(text)]
    except ChronoError as exc:
        raise XQueryDynamicError(str(exc)) from exc


def _xs_duration(ctx, args):
    try:
        return [XSDuration.parse(_sv(args, 0))]
    except ChronoError as exc:
        raise XQueryDynamicError(str(exc)) from exc


def _xs_integer(ctx, args):
    return [int(to_number(args[0][0]))] if args[0] else []


def _xs_decimal(ctx, args):
    return [float(to_number(args[0][0]))] if args[0] else []


def _xs_string(ctx, args):
    return [_sv(args, 0)] if args[0] else []


def _xs_boolean(ctx, args):
    return [effective_boolean_value(args[0])]


def _build_builtins() -> dict[str, Builtin]:
    table: dict[str, Builtin] = {}

    def add(name: str, lo: int, hi: int, fn: Callable) -> None:
        table[name] = Builtin(name, lo, hi, fn)

    add("count", 1, 1, _fn_count)
    add("empty", 1, 1, _fn_empty)
    add("exists", 1, 1, _fn_exists)
    add("not", 1, 1, _fn_not)
    add("boolean", 1, 1, _fn_boolean)
    add("true", 0, 0, _fn_true)
    add("false", 0, 0, _fn_false)
    add("distinct-values", 1, 1, _fn_distinct_values)
    add("reverse", 1, 1, _fn_reverse)
    add("subsequence", 2, 3, _fn_subsequence)
    add("index-of", 2, 2, _fn_index_of)
    add("exactly-one", 1, 1, _fn_exactly_one)
    add("zero-or-one", 1, 1, _fn_zero_or_one)
    add("insert-before", 3, 3, _fn_insert_before)
    add("remove", 2, 2, _fn_remove)

    add("sum", 1, 2, _fn_sum)
    add("avg", 1, 1, _fn_avg)
    add("max", 1, 9, _fn_max)
    add("min", 1, 9, _fn_min)

    add("string", 0, 1, _fn_string)
    add("concat", 2, 99, _fn_concat)
    add("contains", 2, 2, _fn_contains)
    add("starts-with", 2, 2, _fn_starts_with)
    add("ends-with", 2, 2, _fn_ends_with)
    add("substring", 2, 3, _fn_substring)
    add("substring-before", 2, 2, _fn_substring_before)
    add("substring-after", 2, 2, _fn_substring_after)
    add("string-length", 1, 1, _fn_string_length)
    add("normalize-space", 1, 1, _fn_normalize_space)
    add("upper-case", 1, 1, _fn_upper_case)
    add("lower-case", 1, 1, _fn_lower_case)
    add("string-join", 1, 2, _fn_string_join)
    add("translate", 3, 3, _fn_translate)
    add("matches", 2, 3, _fn_matches)
    add("replace", 3, 4, _fn_replace)
    add("tokenize", 2, 3, _fn_tokenize)

    add("number", 0, 1, _fn_number)
    add("abs", 1, 1, _fn_abs)
    add("round", 1, 1, _fn_round)
    add("floor", 1, 1, _fn_floor)
    add("ceiling", 1, 1, _fn_ceiling)

    add("name", 0, 1, _fn_name)
    add("local-name", 0, 1, _fn_local_name)
    add("root", 0, 1, _fn_root)
    add("data", 1, 1, _fn_data)
    add("deep-equal", 2, 2, _fn_deep_equal)
    add("position", 0, 0, _fn_position)
    add("last", 0, 0, _fn_last)
    add("doc", 1, 1, _fn_doc)
    add("document", 1, 1, _fn_doc)
    add("stream", 1, 1, _fn_stream)
    add("error", 0, 1, _fn_error)

    add("current-dateTime", 0, 0, _fn_current_datetime)
    add("currentDateTime", 0, 0, _fn_current_datetime)
    add("current-time", 0, 0, _fn_current_datetime)
    add("xs:dateTime", 1, 1, _xs_datetime)
    add("xs:date", 1, 1, _xs_datetime)
    add("xs:time", 1, 1, _xs_datetime)
    add("xs:duration", 1, 1, _xs_duration)
    add("xdt:dayTimeDuration", 1, 1, _xs_duration)
    add("xdt:yearMonthDuration", 1, 1, _xs_duration)
    add("xs:integer", 1, 1, _xs_integer)
    add("xs:int", 1, 1, _xs_integer)
    add("xs:decimal", 1, 1, _xs_decimal)
    add("xs:double", 1, 1, _xs_decimal)
    add("xs:float", 1, 1, _xs_decimal)
    add("xs:string", 1, 1, _xs_string)
    add("xs:boolean", 1, 1, _xs_boolean)

    add("vtFrom", 1, 1, fn_vt_from)
    add("vtTo", 1, 1, fn_vt_to)
    add("interval_projection", 3, 3, fn_interval_projection)
    add("version_projection", 3, 3, fn_version_projection)

    return table


# Built once: every evaluation context starts from a copy of this table
# (a context is made per ``engine.execute`` and per standing-query wake).
_BUILTINS = _build_builtins()


def default_functions() -> dict[str, Builtin]:
    """The default function registry for new contexts.

    Each call returns a fresh ``dict`` over the shared :class:`Builtin`
    records, so registering into one context never reaches another.
    """
    return dict(_BUILTINS)
