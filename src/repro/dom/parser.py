"""A hand-written XML parser producing events and :mod:`repro.dom.nodes` trees.

The tokenizer is *incremental*: :class:`EventParser` accepts input one chunk
at a time and emits ``(kind, ...)`` event tuples as soon as each construct is
complete.  The event stream is independent of how the input is chunked, and
errors carry the same line/column positions as whole-string parsing, so
chunked and one-shot parsing are observationally identical.

Supports the XML subset the paper's streams use: elements, attributes
(single- or double-quoted), character data, the five predefined entities,
numeric character references, CDATA sections, comments, processing
instructions and an internal-subset DOCTYPE.  Namespace prefixes are kept as
part of the tag name (the paper writes ``stream:structure`` without declaring
a binding).

The DOM build (:func:`parse_document` / :func:`parse_fragment`) is a thin
replay of the event stream — there is one tokenizer.  In front of it,
:class:`ShapeMemo` serves whole envelopes whose markup repeats: it replays
a learned shape only for text one compiled match proves the tokenizer
would read to exactly those events, and hands everything else (errors
included) to :class:`EventParser`.  The replay
builders (:func:`build_document` / :func:`build_fragment`) are also the only
sanctioned way to materialize event buffers captured by the streaming
automaton runtime (:mod:`repro.xquery.automata` stays DOM-free).

Errors carry line/column positions.
"""

from __future__ import annotations

import re
from typing import Iterable, Union

from repro.dom.nodes import (
    Comment,
    Document,
    Element,
    ProcessingInstruction,
    Text,
)

__all__ = [
    "XMLParseError",
    "EventParser",
    "iter_events",
    "build_document",
    "build_fragment",
    "build_fragment_indexed",
    "parse_document",
    "parse_fragment",
    "ShapeMemo",
]

_NAME_RE = re.compile(r"[A-Za-z_:][\w.\-:]*")
_ENTITIES = {"amp": "&", "lt": "<", "gt": ">", "quot": '"', "apos": "'"}
_WHITESPACE = " \t\r\n"

# Fast-path patterns for complete, unambiguous tags.  They mirror the char
# machine exactly (note the explicit [ \t\r\n] class — \s would accept more
# whitespace than _skip_whitespace does); anything they cannot prove well
# formed falls back to the char machine, which owns every error message and
# chunk-boundary decision.
_START_TAG_RE = re.compile(
    r"<([A-Za-z_:][\w.\-:]*)"
    r"((?:[ \t\r\n]+[A-Za-z_:][\w.\-:]*[ \t\r\n]*=[ \t\r\n]*"
    r"(?:\"[^\"]*\"|'[^']*'))*)"
    r"[ \t\r\n]*(/?)>"
)
_ATTR_RE = re.compile(
    r"([A-Za-z_:][\w.\-:]*)[ \t\r\n]*=[ \t\r\n]*(?:\"([^\"]*)\"|'([^']*)')"
)
_END_TAG_RE = re.compile(r"</([A-Za-z_:][\w.\-:]*)[ \t\r\n]*>")
# One alternation for the content-phase scanner loop: a text run, an end tag
# (group 1), or a start tag (groups 2..4).  Comments/CDATA/PIs and anything
# malformed fail to match and drop to the char machine.
_CONTENT_RE = re.compile(
    r"[^<]+"
    r"|</([A-Za-z_:][\w.\-:]*)[ \t\r\n]*>"
    r"|<([A-Za-z_:][\w.\-:]*)"
    r"((?:[ \t\r\n]+[A-Za-z_:][\w.\-:]*[ \t\r\n]*=[ \t\r\n]*"
    r"(?:\"[^\"]*\"|'[^']*'))*)"
    r"[ \t\r\n]*(/?)>"
)


class XMLParseError(ValueError):
    """Raised on malformed XML input, with a line/column position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} at line {line}, column {column}")
        self.line = line
        self.column = column


class _Incomplete(Exception):
    """Internal: the current construct extends past the buffered input."""


def _decode_entities(raw: str, error) -> str:
    """Expand entity and character references in character data.

    ``error`` is a factory returning an :class:`XMLParseError` positioned at
    the caller's current scan location.
    """
    if "&" not in raw:
        return raw
    out: list[str] = []
    index = 0
    while True:
        amp = raw.find("&", index)
        if amp < 0:
            out.append(raw[index:])
            break
        out.append(raw[index:amp])
        semi = raw.find(";", amp + 1)
        if semi < 0:
            raise error("unterminated entity reference")
        entity = raw[amp + 1 : semi]
        if entity.startswith("#x") or entity.startswith("#X"):
            out.append(chr(int(entity[2:], 16)))
        elif entity.startswith("#"):
            out.append(chr(int(entity[1:])))
        elif entity in _ENTITIES:
            out.append(_ENTITIES[entity])
        else:
            raise error(f"unknown entity &{entity};")
        index = semi + 1
    return "".join(out)


class EventParser:
    """Incremental event tokenizer over an XML document or fragment.

    Feed chunks with :meth:`feed` and finish with :meth:`close`; both return
    the list of newly completed events.  Event tuples:

    ``("start", tag, attrs)``
        element open; ``attrs`` is a dict in source order
    ``("end", tag)``
        element close (also emitted right after ``start`` for ``<tag/>``)
    ``("text", text)``
        character data with entities decoded (whitespace-only runs are
        dropped unless ``keep_whitespace`` is set)
    ``("cdata", text)``
        CDATA section content, kept verbatim even when whitespace-only
    ``("comment", text)``
        comment body
    ``("pi", target, body)``
        processing instruction (body stripped)

    A construct is emitted only once it is complete, so the event stream does
    not depend on chunk boundaries; consumed input is discarded, keeping the
    buffer bounded by the largest single construct.  In ``fragment`` mode the
    tokenizer accepts mixed content without a single root (after an optional
    leading XML declaration), mirroring :func:`parse_fragment`.
    """

    __slots__ = (
        "_buf",
        "_pos",
        "_base",
        "_nl_before",
        "_last_nl",
        "_final",
        "_fragment",
        "_keep_ws",
        "_stack",
        "_phase",
        "_events",
    )

    def __init__(self, fragment: bool = False, keep_whitespace: bool = False):
        self._buf = ""
        self._pos = 0  # relative to _buf
        self._base = 0  # absolute offset of _buf[0]
        self._nl_before = 0  # newlines before _buf[0]
        self._last_nl = -1  # absolute index of the last newline before _buf[0]
        self._final = False
        self._fragment = fragment
        self._keep_ws = keep_whitespace
        self._stack: list[str] = []
        self._phase = "lead" if fragment else "prolog"
        self._events: list[tuple] = []

    @property
    def depth(self) -> int:
        """Number of currently open elements."""
        return len(self._stack)

    # -- input management ---------------------------------------------------

    def feed(self, chunk: str) -> list[tuple]:
        """Add a chunk of input and return the newly completed events."""
        if self._final:
            raise ValueError("cannot feed a closed EventParser")
        if chunk:
            self._buf += chunk
        return self._pump()

    def close(self) -> list[tuple]:
        """Mark end of input, flush remaining events, and validate EOF."""
        self._final = True
        return self._pump()

    def _pump(self) -> list[tuple]:
        while True:
            phase = self._phase
            if phase == "done":
                break
            if phase == "content":
                # Drain every provably complete construct in one scanner
                # sweep, then let the char machine take a single step over
                # whatever stopped the sweep.
                self._run_content()
                if self._phase != "content":
                    continue
            mark = self._pos
            try:
                self._step()
            except _Incomplete:
                self._pos = mark
                break
        self._compact()
        events, self._events = self._events, []
        return events

    def _run_content(self) -> None:
        """Tight content-phase scanner: consume complete text/tag constructs.

        Emits exactly what the char machine would for each construct it
        consumes, and stops (without consuming) at the first construct it
        cannot prove complete and well formed — a comment/CDATA/PI, markup
        spanning the chunk boundary, entity references, duplicate
        attributes, a tag mismatch — leaving the char machine to finish
        with its canonical events, errors and positions.
        """
        buf = self._buf
        length = len(buf)
        pos = self._pos
        final = self._final
        events = self._events
        stack = self._stack
        scan = _CONTENT_RE.match
        keep_ws = self._keep_ws
        while pos < length:
            match = scan(buf, pos)
            if match is None:
                break
            end = match.end()
            if buf[pos] != "<":
                # A text run; it may continue into the next chunk, and
                # entity decoding is the char machine's job.
                if end == length and not final:
                    break
                raw = buf[pos:end]
                if "&" in raw:
                    break
                pos = end
                if keep_ws or raw.strip():
                    events.append(("text", raw))
                continue
            name = match.group(1)
            if name is not None:
                if not stack or stack[-1] != name:
                    break
                stack.pop()
                pos = end
                events.append(("end", name))
                if not stack and not self._fragment:
                    self._phase = "epilog"
                    break
                continue
            tag, attr_text, self_closing = match.group(2, 3, 4)
            attrs: dict[str, str] = {}
            if attr_text:
                if "&" in attr_text:
                    break
                count = 0
                for attr in _ATTR_RE.finditer(attr_text):
                    double = attr.group(2)
                    attrs[attr.group(1)] = (
                        double if double is not None else attr.group(3)
                    )
                    count += 1
                if len(attrs) != count:
                    break
            pos = end
            events.append(("start", tag, attrs))
            if self_closing:
                events.append(("end", tag))
                if not stack and not self._fragment:
                    self._phase = "epilog"
                    break
            else:
                stack.append(tag)
        self._pos = pos

    def _compact(self) -> None:
        if self._pos == 0:
            return
        dropped = self._buf[: self._pos]
        newlines = dropped.count("\n")
        if newlines:
            self._nl_before += newlines
            self._last_nl = self._base + dropped.rfind("\n")
        self._base += self._pos
        self._buf = self._buf[self._pos :]
        self._pos = 0

    # -- position / error tracking ------------------------------------------

    def _location(self) -> tuple[int, int]:
        line = self._nl_before + self._buf.count("\n", 0, self._pos) + 1
        index = self._buf.rfind("\n", 0, self._pos)
        last_nl = self._base + index if index >= 0 else self._last_nl
        return line, self._base + self._pos - last_nl

    def _error(self, message: str) -> XMLParseError:
        line, column = self._location()
        return XMLParseError(message, line, column)

    # -- scanning primitives -------------------------------------------------

    def _at_buffer_end(self) -> bool:
        return self._pos >= len(self._buf)

    def _peek(self) -> str:
        return self._buf[self._pos] if self._pos < len(self._buf) else ""

    def _match(self, literal: str) -> bool:
        """True if ``literal`` is next; raise ``_Incomplete`` if undecidable."""
        if self._buf.startswith(literal, self._pos):
            return True
        if not self._final and len(self._buf) - self._pos < len(literal):
            if literal.startswith(self._buf[self._pos :]):
                raise _Incomplete
        return False

    def _expect(self, literal: str) -> None:
        if not self._match(literal):
            raise self._error(f"expected {literal!r}")
        self._pos += len(literal)

    def _skip_whitespace(self) -> None:
        buf, pos, length = self._buf, self._pos, len(self._buf)
        while pos < length and buf[pos] in _WHITESPACE:
            pos += 1
        self._pos = pos

    def _read_name(self) -> str:
        match = _NAME_RE.match(self._buf, self._pos)
        if not match:
            if not self._final and self._at_buffer_end():
                raise _Incomplete
            raise self._error("expected an XML name")
        if match.end() == len(self._buf) and not self._final:
            raise _Incomplete  # the name may continue in the next chunk
        self._pos = match.end()
        return match.group()

    def _read_until(self, terminator: str) -> str:
        index = self._buf.find(terminator, self._pos)
        if index < 0:
            if not self._final:
                raise _Incomplete
            raise self._error(f"unterminated construct (missing {terminator!r})")
        chunk = self._buf[self._pos : index]
        self._pos = index + len(terminator)
        return chunk

    # -- phase steps ---------------------------------------------------------

    def _step(self) -> None:
        phase = self._phase
        if phase == "content":
            self._step_content()
        elif phase == "prolog":
            self._step_prolog()
        elif phase == "epilog":
            self._step_epilog()
        else:  # "lead": fragment prolog
            self._step_lead()

    def _step_lead(self) -> None:
        self._skip_whitespace()
        if self._at_buffer_end():
            if self._final:
                self._phase = "done"
                return
            raise _Incomplete
        if self._match("<?xml"):
            self._read_until("?>")
        self._phase = "content"

    def _step_prolog(self) -> None:
        self._skip_whitespace()
        if self._at_buffer_end():
            if self._final:
                raise self._error("expected document element")
            raise _Incomplete
        if self._match("<?xml"):
            self._read_until("?>")
            return
        if self._match("<?"):
            self._emit_pi()
            return
        if self._match("<!--"):
            self._emit_comment()
            return
        if self._match("<!DOCTYPE"):
            self._skip_doctype()
            return
        if self._peek() != "<":
            raise self._error("expected document element")
        self._open_tag()
        self._phase = "content" if self._stack else "epilog"

    def _step_epilog(self) -> None:
        self._skip_whitespace()
        if self._at_buffer_end():
            if self._final:
                self._phase = "done"
                return
            raise _Incomplete
        if self._match("<?xml"):
            self._read_until("?>")
            return
        if self._match("<?"):
            self._emit_pi()
            return
        if self._match("<!--"):
            self._emit_comment()
            return
        if self._match("<!DOCTYPE"):
            self._skip_doctype()
            return
        raise self._error("content after document element")

    def _step_content(self) -> None:
        if self._at_buffer_end():
            if self._stack:
                if self._final:
                    raise self._error(f"unterminated element <{self._stack[-1]}>")
                raise _Incomplete
            if self._final:
                self._phase = "done"
                return
            raise _Incomplete
        buf, pos = self._buf, self._pos
        length = len(buf)
        if buf[pos] != "<":
            # Character data: none of the markup checks below can match (or
            # span a chunk boundary), so scan straight to the next tag.
            next_tag = buf.find("<", pos)
            if next_tag < 0:
                if not self._final:
                    raise _Incomplete
                next_tag = length
            raw = buf[pos:next_tag]
            self._pos = next_tag
            if self._keep_ws or raw.strip():
                self._events.append(("text", _decode_entities(raw, self._error)))
            return
        if pos + 1 < length:
            after = buf[pos + 1]
            if after == "/":
                match = _END_TAG_RE.match(buf, pos)
                if (
                    match is not None
                    and self._stack
                    and match.group(1) == self._stack[-1]
                ):
                    self._pos = match.end()
                    self._events.append(("end", self._stack.pop()))
                    if not self._stack and not self._fragment:
                        self._phase = "epilog"
                    return
            elif after != "!" and after != "?":
                match = _START_TAG_RE.match(buf, pos)
                if match is not None and self._fast_start_tag(match):
                    return
        if self._match("</"):
            if not self._stack:
                raise self._error("unexpected closing tag")
            self._pos += 2
            closing = self._read_name()
            if closing != self._stack[-1]:
                raise self._error(
                    f"mismatched closing tag </{closing}> for <{self._stack[-1]}>"
                )
            self._skip_whitespace()
            self._expect(">")
            self._events.append(("end", self._stack.pop()))
            if not self._stack and not self._fragment:
                self._phase = "epilog"
            return
        if self._match("<!--"):
            self._emit_comment()
            return
        if self._match("<![CDATA["):
            self._pos += len("<![CDATA[")
            self._events.append(("cdata", self._read_until("]]>")))
            return
        if self._match("<?"):
            self._emit_pi()
            return
        self._open_tag()
        if not self._stack and not self._fragment:
            self._phase = "epilog"

    # -- constructs ----------------------------------------------------------

    def _fast_start_tag(self, match: re.Match) -> bool:
        """Emit a regex-matched start tag; False defers to the char machine.

        Declines (without consuming input) when the tag needs work the
        pattern cannot prove correct: entity references in attribute values
        or a duplicate attribute name (the char machine raises the
        canonical error at the canonical position).
        """
        attr_text = match.group(2)
        attrs: dict[str, str] = {}
        if attr_text:
            if "&" in attr_text:
                return False
            count = 0
            for attr in _ATTR_RE.finditer(attr_text):
                double = attr.group(2)
                attrs[attr.group(1)] = (
                    double if double is not None else attr.group(3)
                )
                count += 1
            if len(attrs) != count:
                return False
        tag = match.group(1)
        self._pos = match.end()
        self._events.append(("start", tag, attrs))
        if match.group(3):
            self._events.append(("end", tag))
        else:
            self._stack.append(tag)
        if not self._stack and not self._fragment:
            self._phase = "epilog"
        return True

    def _open_tag(self) -> None:
        self._expect("<")
        tag = self._read_name()
        attrs: dict[str, str] = {}
        while True:
            self._skip_whitespace()
            if not self._final and self._at_buffer_end():
                raise _Incomplete
            if self._peek() == ">":
                self._pos += 1
                self._events.append(("start", tag, attrs))
                self._stack.append(tag)
                return
            if self._match("/>"):
                self._pos += 2
                self._events.append(("start", tag, attrs))
                self._events.append(("end", tag))
                return
            name = self._read_name()
            self._skip_whitespace()
            self._expect("=")
            self._skip_whitespace()
            if not self._final and self._at_buffer_end():
                raise _Incomplete
            quote = self._peek()
            if quote not in ("'", '"'):
                raise self._error("attribute value must be quoted")
            self._pos += 1
            raw = self._read_until(quote)
            if name in attrs:
                raise self._error(f"duplicate attribute {name!r}")
            attrs[name] = _decode_entities(raw, self._error)

    def _emit_comment(self) -> None:
        self._pos += len("<!--")
        self._events.append(("comment", self._read_until("-->")))

    def _emit_pi(self) -> None:
        self._pos += len("<?")
        target = self._read_name()
        body = self._read_until("?>")
        self._events.append(("pi", target, body.strip()))

    def _skip_doctype(self) -> None:
        self._pos += len("<!DOCTYPE")
        depth = 0
        while not self._at_buffer_end():
            char = self._buf[self._pos]
            if char == "[":
                depth += 1
            elif char == "]":
                depth -= 1
            elif char == ">" and depth <= 0:
                self._pos += 1
                return
            self._pos += 1
        if self._final:
            raise self._error("unterminated DOCTYPE")
        raise _Incomplete


def iter_events(
    source: Union[str, Iterable[str]],
    fragment: bool = False,
    keep_whitespace: bool = False,
):
    """Tokenize ``source`` into parse events.

    ``source`` may be a complete string or an iterable of string chunks split
    at arbitrary byte offsets; the resulting event stream is identical either
    way.  ``fragment`` selects mixed-content mode (no single root required).
    """
    parser = EventParser(fragment=fragment, keep_whitespace=keep_whitespace)
    if isinstance(source, str):
        yield from parser.feed(source)
    else:
        for chunk in source:
            yield from parser.feed(chunk)
    yield from parser.close()


# -- the shape memo ---------------------------------------------------------------

# A shape is compiled once its key has been tokenized SHAPE_AFTER times.
# A compile costs C = 56-62 tokenizations t of the same text (3.45 ms
# against 62 us for a 468-B closed_auction event, 1.53 ms against 25 us
# for a 128-B ledger txn; 2-vCPU Intel Xeon VM, Python 3.11), and each
# counted sighting also pays its key (~0.07 t).  Ski rental: a key seen
# K times and never again costs K (t + key) + C against K t without the
# memo, within 2x once K >= C / (t - key) ~ 67.  Compiling on the second
# sighting compiles 76 shapes of the 702-envelope XMark catalog (464 ms
# against 79 ms); at 72 its preload compiles one.
SHAPE_AFTER = 72
# Bounds on the state a memo holds: compiled shapes (the oldest is dropped
# for a new one; a closed_auction shape holds ~17 KB), counted keys (the
# count restarts when full), and markup per shape.  A text with more '<'
# than MAX_SHAPE_MARKUP goes straight to the tokenizer, unkeyed: keying a
# ~3-KB XMark bid (~190 '<', never repeated) costs 18 us, 7.6 % of its
# tokenization, and counting its '<' under 1 us.
MAX_SHAPES = 64
MAX_COUNTED = 4096
MAX_SHAPE_MARKUP = 128

# The key: every start tag's "<name" in order, so <a/> and <a></a> share
# it.  Only the hit rate depends on the key (a match proves a replay), so
# ASCII \w keeps the scan cheap.
_KEY_RE = re.compile(r"<[A-Za-z_:][\w.\-:]*", re.ASCII)
_WS = "[ \t\r\n]"
# A gap between tags.  '&' (entity references, the tokenizer's errors) and
# '<' (markup) never land in a capture: such text does not match.
_GAP = "([^<&]*)"
# The tokenizer skips the fragment's leading ASCII whitespace: the capture
# must not start with it, so the split is unambiguous (no backtracking).
_LEAD = f"{_WS}*((?:[^<& \t\r\n][^<&]*)?)"
_OPEN, _LEAF, _CLOSE = 0, 1, 2


def _compile_shape(events: list):
    """``(fullmatch, program)`` for the markup shape of ``events``, or None.

    The pattern spells the exact tag and attribute names in order; it
    captures each attribute value (either quote) and every gap between
    tags, and accepts ``<a/>`` and ``<a></a>`` for an element without
    child elements.  Any text it matches is read by :class:`EventParser`
    (fragment mode) to exactly what :func:`_replay` builds from the
    groups.  Shapes with comments, CDATA or PIs are not compiled.
    """
    parts = [_LEAD]
    program = []
    group = 1
    index = 0
    count = len(events)
    while index < count:
        event = events[index]
        index += 1
        kind = event[0]
        if kind == "text":
            continue
        tag = re.escape(event[1])
        if kind == "end":
            parts.append(f"</{tag}{_WS}*>{_GAP}")
            program.append((_CLOSE, event[1], (), 0, group))
            group += 1
            continue
        if kind != "start":
            return None
        attrs = []
        parts.append(f"<{tag}")
        for name in event[2]:
            parts.append(
                f"{_WS}+{re.escape(name)}{_WS}*={_WS}*"
                "(?:\"([^\"<&]*)\"|'([^'<&]*)')"
            )
            attrs.append((name, group, group + 1))
            group += 2
        parts.append(f"{_WS}*")
        while index < count and events[index][0] == "text":
            index += 1
        if index < count and events[index][0] == "end":
            index += 1
            parts.append(f"(?:/>|>{_GAP}</{tag}{_WS}*>){_GAP}")
            program.append((_LEAF, event[1], tuple(attrs), group, group + 1))
            group += 2
        else:
            parts.append(f">{_GAP}")
            program.append((_OPEN, event[1], tuple(attrs), 0, group))
            group += 1
    return re.compile("".join(parts)).fullmatch, tuple(program)


def _replay(program: tuple, groups: tuple) -> list:
    """The events :class:`EventParser` reads from a text matching a shape."""
    events: list = []
    append = events.append
    text = groups[0]
    if text and text.strip():  # the tokenizer drops whitespace-only text
        append(("text", text))
    for kind, tag, attrs, inner, gap in program:
        if kind == _CLOSE:
            append(("end", tag))
        else:
            values = {}
            for name, double, single in attrs:
                value = groups[double]
                values[name] = groups[single] if value is None else value
            append(("start", tag, values))
            if kind == _LEAF:
                text = groups[inner]
                if text and text.strip():
                    append(("text", text))
                append(("end", tag))
        text = groups[gap]
        if text and text.strip():
            append(("text", text))
    return events


class ShapeMemo:
    """``EventParser(fragment=True)`` over whole texts, replaying repeated shapes.

    :meth:`events` returns exactly the events the tokenizer reads from a
    text, or raises its error.  Texts are keyed by their start-tag names;
    once a key has been tokenized :data:`SHAPE_AFTER` times, one anchored
    pattern is compiled for its shape, and a later text with that key
    that matches it is rebuilt from the captures instead of re-scanned.
    Everything else — a new shape, an entity or character reference, a
    comment, CDATA, a PI, malformed text — goes to :class:`EventParser`
    unchanged, so messages and positions are the tokenizer's.  The state
    is a function of the texts seen alone; its size is bounded by
    :data:`MAX_SHAPES`, :data:`MAX_COUNTED` and :data:`MAX_SHAPE_MARKUP`.
    """

    __slots__ = ("_counts", "_shapes", "hits", "misses", "compiled")

    def __init__(self) -> None:
        self._counts: dict = {}
        self._shapes: dict = {}
        self.hits = 0  # texts rebuilt from a compiled shape
        self.misses = 0  # texts the tokenizer read
        self.compiled = 0  # shapes compiled, dropped ones included

    def events(self, text: str) -> list:
        """The events of ``text`` as one fragment-mode tokenizer pass."""
        key = None
        if text.count("<") <= MAX_SHAPE_MARKUP:
            key = "".join(_KEY_RE.findall(text))
            shape = self._shapes.get(key)
            if shape is not None:
                match = shape[0](text)
                if match is not None:
                    self.hits += 1
                    return _replay(shape[1], match.groups())
                key = None  # the key's shape is held: nothing to count
        self.misses += 1
        parser = EventParser(fragment=True)
        events = parser.feed(text)
        events += parser.close()
        if key is not None:
            self._count(key, events)
        return events

    def _count(self, key: str, events: list) -> None:
        counts = self._counts
        seen = counts.get(key, 0) + 1
        if seen >= SHAPE_AFTER:
            shape = _compile_shape(events)
            if shape is not None:
                counts.pop(key, None)
                shapes = self._shapes
                if len(shapes) >= MAX_SHAPES:
                    del shapes[next(iter(shapes))]
                shapes[key] = shape
                self.compiled += 1
                return
        elif len(counts) >= MAX_COUNTED and key not in counts:
            counts.clear()
        counts[key] = seen

    def stats(self) -> dict:
        """``hits`` / ``misses`` / ``compiled`` and the shapes ``held``."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "compiled": self.compiled,
            "held": len(self._shapes),
        }


def build_document(events: Iterable[tuple]) -> Document:
    """Replay a document-mode event stream into a :class:`Document`."""
    document = Document()
    stack: list = [document]
    for event in events:
        _apply_event(event, stack)
    return document


def build_fragment(events: Iterable[tuple]) -> list:
    """Replay an event stream into a list of sibling nodes.

    This is the event-replay builder used both by :func:`parse_fragment` and
    by the streaming-automaton runtime to materialize buffered subtrees.
    """
    top: list = []
    stack: list = []
    for event in events:
        _apply_event(event, stack, top)
    return top


def build_fragment_indexed(events: Iterable[tuple]) -> tuple[list, dict]:
    """Replay an event buffer and index its elements by event offset.

    Returns ``(top_nodes, index)`` where ``index`` maps the position of each
    ``("start", ...)`` event within ``events`` to the :class:`Element` it
    produced.  The streaming-automaton host uses the index to resolve a
    match recorded as ``(buffer, event offset)`` to the materialized binding
    tuple without re-walking the built tree.
    """
    top: list = []
    stack: list = []
    index: dict[int, Element] = {}
    for offset, event in enumerate(events):
        _apply_event(event, stack, top)
        if event[0] == "start":
            index[offset] = stack[-1]
    return top, index


def _apply_event(event: tuple, stack: list, top=None) -> None:
    kind = event[0]
    if kind == "start":
        stack.append(Element(event[1], event[2]))
    elif kind == "end":
        _attach(stack.pop(), stack, top)
    elif kind in ("text", "cdata"):
        _attach(Text(event[1]), stack, top)
    elif kind == "comment":
        _attach(Comment(event[1]), stack, top)
    else:  # "pi"
        _attach(ProcessingInstruction(event[1], event[2]), stack, top)


def _attach(node, stack: list, top) -> None:
    if stack:
        # The open element joins its own parent only at its "end" event,
        # so it is still a detached root: the builder primitive applies.
        stack[-1]._link_child(node)
    elif top is not None:
        top.append(node)


def parse_document(text: str, keep_whitespace: bool = False) -> Document:
    """Parse a complete XML document into a :class:`~repro.dom.nodes.Document`.

    ``keep_whitespace`` preserves whitespace-only text nodes between
    elements; by default they are dropped, matching data-oriented usage.
    """
    return build_document(iter_events(text, keep_whitespace=keep_whitespace))


def parse_fragment(text: str, keep_whitespace: bool = False) -> list:
    """Parse mixed content (zero or more sibling nodes) without a root.

    Fragment payloads on the stream are single elements, but the parser also
    accepts text and multiple siblings for generality.
    """
    return build_fragment(
        iter_events(text, fragment=True, keep_whitespace=keep_whitespace)
    )
