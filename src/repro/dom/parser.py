"""XML parsing into events and :mod:`repro.dom.nodes` trees, on the stdlib's expat.

:class:`EventParser` is the one tokenizer.  It hands its input to a
``pyexpat`` parser one chunk at a time and emits ``(kind, ...)`` event
tuples as each construct completes, so the event stream does not depend
on how the input is chunked, and errors carry the same line/column
positions as a whole-string parse.

Supports what the paper's streams use: elements, attributes, character
data, the five predefined entities, character references, CDATA sections,
comments, processing instructions and a DOCTYPE.  Namespace prefixes are
kept as part of the tag name (the paper writes ``stream:structure``
without declaring a binding).  Entities declared in a DOCTYPE are not
expanded in content: a reference to one is an "unknown entity" error.
``docs/api.md`` lists where this reading differs from the hand-written
tokenizer the tests keep as a reference (a literal tab in an attribute
value reads as a space, ``]]>`` in content is an error, ...).

Every text becomes a tree one way: :class:`TreeBuilder` builds nodes in
expat's handlers, with no event in between.  :func:`parse_document` and
:func:`parse_fragment` read through it, and so does the fragment store,
which also learns where each payload child begins, so that a later
version parses only what changed.  Event tuples become nodes only in
:func:`build_fragment_indexed`, which materializes the event buffers the
streaming automaton runtime captures (:mod:`repro.xquery.automata` stays
DOM-free).
"""

from __future__ import annotations

from pyexpat import ErrorString, ExpatError, ParserCreate
from typing import Iterable, Union

from repro.dom.nodes import (
    _LIFESPAN_ATTRS,
    MIXED,
    PLAIN,
    TIMED,
    Comment,
    Document,
    Element,
    ProcessingInstruction,
    Text,
)

__all__ = [
    "XMLParseError",
    "EventParser",
    "TreeBuilder",
    "iter_events",
    "build_fragment_indexed",
    "parse_document",
    "parse_fragment",
]

# Fragment mode parses inside this element.  A text that closes it early
# is rejected all the same (close() appends its end tag regardless); the
# non-ASCII name keeps that to texts no stream writes.
_WRAPPER_OPEN = "<ξ>"
_WRAPPER_CLOSE = "</ξ>"
#: expat's byte index of the first character after the wrapper's start tag.
_WRAPPER_BYTES = len(_WRAPPER_OPEN.encode("utf-8"))
# What may follow "<?xml" in an XML declaration ("" = not read yet).
_DECLARATION_GAP = ("", " ", "\t", "\r", "\n")


class XMLParseError(ValueError):
    """Raised on malformed XML input, with a line/column position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} at line {line}, column {column}")
        self.line = line
        self.column = column


class _Reject(Exception):
    """A handler's verdict: ``(message, length of the rejected token)``."""


class EventParser:
    """Incremental event tokenizer over an XML document or fragment.

    Feed chunks with :meth:`feed` and finish with :meth:`close`; both return
    the list of newly completed events.  Event tuples:

    ``("start", tag, attrs)``
        element open; ``attrs`` is a dict in source order
    ``("end", tag)``
        element close (also emitted right after ``start`` for ``<tag/>``)
    ``("text", text)``
        character data with references expanded (whitespace-only runs are
        dropped unless ``keep_whitespace`` is set)
    ``("cdata", text)``
        CDATA section content, kept verbatim even when whitespace-only
    ``("comment", text)``
        comment body
    ``("pi", target, body)``
        processing instruction (body stripped)

    A text run is emitted once the construct after it starts, so runs are
    never split at chunk boundaries.  A leading XML declaration (after
    optional whitespace) is skipped in both modes.  In ``fragment`` mode
    the parser accepts mixed content without a single root, mirroring
    :func:`parse_fragment`: the input is parsed inside a wrapper element
    whose events are dropped and whose width is taken off line-1 columns.
    Columns are 1-based.
    """

    __slots__ = (
        "_parser", "_events", "_append", "_pieces", "_keep_ws",
        "_fragment", "_lead", "_lines", "_shift", "_final",
    )

    def __init__(self, fragment: bool = False, keep_whitespace: bool = False):
        self._keep_ws = keep_whitespace
        self._fragment = fragment
        self.reset()

    def reset(self) -> None:
        """Start a new text: a fresh expat parser, no events, no position.

        Everything else the object holds — its mode, and whatever a
        subclass was built with — is kept, so a reader of many short
        texts is built once.
        """
        self._events: list[tuple] = []
        self._append = self._events.append
        self._pieces: list[str] = []  # character data since the last construct
        self._lead = ""  # input held until a leading declaration is decided
        self._lines = 0  # newlines skipped with the lead
        # Line-1 columns, source minus parsed.
        self._shift = -len(_WRAPPER_OPEN) if self._fragment else 0
        self._final = False
        parser = self._parser = ParserCreate()
        parser.buffer_text = True
        parser.specified_attributes = True
        if self._fragment:
            parser.Parse(_WRAPPER_OPEN, False)  # before the handlers: no event
        # The handlers are bound methods: the parser and this object hold
        # each other until close() or the next reset() lets the parser go
        # (one abandoned mid-input is left to the cycle collector).
        parser.StartElementHandler = self._start
        parser.EndElementHandler = self._end
        parser.CharacterDataHandler = self._pieces.append
        parser.DefaultHandler = self._markup

    def feed(self, chunk: str) -> list[tuple]:
        """Add a chunk of input and return the newly completed events."""
        if self._final:
            raise ValueError("cannot feed a closed EventParser")
        if self._lead is not None:
            chunk = self._past_lead(self._lead + chunk)
            if chunk is None:
                return []
        self._parse(chunk, False)
        events = self._events
        out = events[:]
        events.clear()
        return out

    def close(self) -> list[tuple]:
        """Mark end of input, flush remaining events, and validate EOF."""
        if self._final:
            return []
        self._finish()
        events = self._events
        if self._fragment:
            events.pop()  # the wrapper's end
        return events

    def _finish(self) -> None:
        """End the input: validate it to EOF and let the expat parser go."""
        self._final = True
        tail = _WRAPPER_CLOSE if self._fragment else ""
        if self._lead is not None:
            tail = self._past_lead(self._lead) + tail
        self._parse(tail, True)
        self._parser = None

    # -- handlers ------------------------------------------------------------

    def _text(self) -> None:
        pieces = self._pieces
        text = "".join(pieces)
        pieces.clear()
        if self._keep_ws or not text.isspace():
            self._append(("text", text))

    def _start(self, tag, attrs):
        if self._pieces:
            self._text()
        self._append(("start", tag, attrs))

    def _end(self, tag):
        if self._pieces:
            self._text()
        self._append(("end", tag))

    def _markup(self, data):
        # Whatever no handler above takes, verbatim: comments, PIs, CDATA
        # delimiters, prolog text and references to entities a DOCTYPE
        # declared (no DefaultHandlerExpand: they are not expanded).
        if data == "]]>":
            pieces = self._pieces
            self._append(("cdata", "".join(pieces)))
            pieces.clear()
            return
        if self._pieces:
            self._text()
        if data.startswith("<!--"):
            self._append(("comment", data[4:-3]))
        elif data.startswith("<?"):
            target, *body = data[2:-2].split(None, 1)
            self._append(("pi", target, body[0].rstrip() if body else ""))
        elif data.startswith("&"):
            raise _Reject(f"unknown entity {data}", len(data))

    # -- input ---------------------------------------------------------------

    def _past_lead(self, text: str):
        """``text`` less its leading whitespace and XML declaration.

        None while the input so far could still be the start of either;
        the skipped lead then moves the positions of everything after it.
        ``<?xml`` opens the declaration only when whitespace follows it:
        ``<?xml-stylesheet …?>`` is a processing instruction, and stays.
        """
        if text[:1] == "<" and text[1:2] not in ("?", ""):
            self._lead = None  # nothing to skip
            return text
        body = text.lstrip(" \t\r\n")
        if body.startswith("<?xml") and body[5:6] in _DECLARATION_GAP:
            end = body.find("?>", 5)
            if end < 0:
                if not self._final:
                    self._lead = text
                    return None
                at = len(text) - len(body)
                raise XMLParseError(
                    "unterminated XML declaration",
                    text.count("\n", 0, at) + 1,
                    at - text.rfind("\n", 0, at),
                )
            body = body[end + 2 :]
        elif not self._final and len(body) < 5 and "<?xml".startswith(body):
            self._lead = text
            return None
        self._lead = None
        skipped = len(text) - len(body)
        self._lines = text.count("\n", 0, skipped)
        self._shift += skipped - text.rfind("\n", 0, skipped) - 1
        return body

    def _parse(self, data: str, final: bool) -> None:
        parser = self._parser
        try:
            try:
                parser.Parse(data, final)
            except UnicodeEncodeError:
                # A lone surrogate: let expat place the invalid character.
                parser.Parse(data.encode("utf-8", "surrogatepass"), final)
        except ExpatError as exc:
            raise self._error(ErrorString(exc.code), exc.lineno, exc.offset) from None
        except _Reject as exc:
            message, width = exc.args
            raise self._error(
                message, parser.CurrentLineNumber, parser.CurrentColumnNumber - width
            ) from None

    def _error(self, message: str, line: int, offset: int) -> XMLParseError:
        """The error at expat's ``(line, 0-based offset)``, in source terms."""
        if line == 1:
            offset += self._shift
        return XMLParseError(message, line + self._lines, offset + 1)


class TreeBuilder(EventParser):
    """Builds nodes in expat's handlers, and maps a container's children.

    :meth:`into` reads a text as content of a detached root: a
    :class:`~repro.dom.nodes.Document` in document mode, an element in
    ``fragment`` mode (:func:`parse_document`, :func:`parse_fragment`, a
    stored version under construction).  :meth:`payload` reads a whole
    ``<filler>`` envelope in ``fragment`` mode and returns its payload
    element, detached.  No event tuple is made on the way: the nodes are
    the ones :func:`build_fragment_indexed` replays from the events
    :class:`EventParser` reads in the same text and mode.  In ``fragment``
    mode the builder also records, per child element of the container
    or payload:

    ``starts``
        where its start tag begins: expat's byte index, less the
        fragment wrapper's (an index into the text while it is ASCII)
    ``slots``
        its position among the container's child nodes
    ``kinds``
        what lies below it, itself included: :data:`~repro.dom.nodes.PLAIN`,
        :data:`~repro.dom.nodes.TIMED` or :data:`~repro.dom.nodes.MIXED`

    and ``loose``: whether a comment or a processing instruction is a
    child of the container itself.  After :meth:`payload`, ``head`` is
    where the payload's start tag begins and ``end`` where its end tag
    does; ``end`` is ``-1`` when the indexes do not place the payload in
    the text (a lead was skipped, or the payload has no child to place).

    One text per builder: each expat parser is let go when its text ends.
    """

    __slots__ = (
        "_stack", "_level", "_floor", "_payload",
        "head", "end", "starts", "slots", "kinds", "loose",
    )

    def __init__(self, fragment: bool = False, keep_whitespace: bool = False):
        self._stack: list = []
        self._level = 2  # open elements above a payload child: envelope, payload
        self._floor = 0  # open elements the fragment wrapper's end finds
        self._payload = None
        self.head = self.end = -1
        self.starts: list[int] = []
        self.slots: list[int] = []
        self.kinds: list[int] = []
        self.loose = False
        super().__init__(fragment, keep_whitespace)

    def payload(self, text: str) -> Element:
        """The payload element of the envelope ``text`` (validated before)."""
        self._read(text)
        if text[:1] != "<" or text[1:2] in ("?", ""):
            self.end = -1  # a lead was skipped: the indexes are the body's
        return self._payload

    def into(self, container, text: str):
        """Read ``text`` as content of ``container``, after its children.

        ``container`` is a detached root under construction, returned.
        Raises :class:`XMLParseError` when ``text`` is malformed:
        ``container`` then holds part of it and must be dropped.
        """
        self._stack.append(container)
        self._level = self._floor = 1
        self._read(text)
        return container

    def extend(self, version: Element, text: str) -> bool:
        """:meth:`into` for a run of payload content: False where it raises.

        False when ``text`` is not content on its own (an unclosed
        element or comment, a stray end tag, ...): ``version`` then holds
        part of it and must be dropped.
        """
        self._lead = None  # content: no declaration to skip
        try:
            self.into(version, text)
        except XMLParseError:
            return False
        return True

    def _read(self, text: str) -> None:
        """Parse all of ``text``; the one place a builder parses."""
        try:
            self.feed(text)
            self._finish()
        finally:
            self._parser = None  # also after an error: no parser cycle stays

    # -- handlers ------------------------------------------------------------

    def _text(self) -> None:
        pieces = self._pieces
        text = "".join(pieces)
        pieces.clear()
        stack = self._stack
        if len(stack) >= self._level and (self._keep_ws or not text.isspace()):
            stack[-1]._link_child(Text(text))

    def _start(self, tag, attrs):
        if self._pieces:
            self._text()
        stack = self._stack
        depth = len(stack)
        level = self._level
        if depth > level:
            kinds = self.kinds
            if tag == "hole":
                kinds[-1] = MIXED
            elif attrs and kinds[-1] == PLAIN and not _LIFESPAN_ATTRS.isdisjoint(attrs):
                kinds[-1] = TIMED
        elif depth == level:
            self.starts.append(self._parser.CurrentByteIndex - _WRAPPER_BYTES)
            self.slots.append(len(stack[-1]._children))
            if tag == "hole":
                self.kinds.append(MIXED)
            elif attrs and not _LIFESPAN_ATTRS.isdisjoint(attrs):
                self.kinds.append(TIMED)
            else:
                self.kinds.append(PLAIN)
        elif depth == 1 and self._payload is None:
            self.head = self._parser.CurrentByteIndex - _WRAPPER_BYTES
        stack.append(Element(tag, attrs))

    def _end(self, tag):
        if self._pieces:
            self._text()
        stack = self._stack
        depth = len(stack)
        if depth == self._floor:
            return  # the fragment wrapper's end
        node = stack.pop()
        if depth > self._level:
            stack[-1]._link_child(node)
        elif depth == self._level and self._payload is None:
            # The payload: left detached, as parse_filler leaves it.
            self._payload = node
            if node._children:  # else maybe <payload/>: no end tag to place
                self.end = self._parser.CurrentByteIndex - _WRAPPER_BYTES

    def _markup(self, data):
        # EventParser._markup's reading, building instead of emitting.
        if data == "]]>":
            pieces = self._pieces
            node = Text("".join(pieces))
            pieces.clear()
        else:
            if self._pieces:
                self._text()
            if data.startswith("<!--"):
                node = Comment(data[4:-3])
            elif data.startswith("<?"):
                target, *body = data[2:-2].split(None, 1)
                node = ProcessingInstruction(target, body[0].rstrip() if body else "")
            elif data.startswith("&"):
                raise _Reject(f"unknown entity {data}", len(data))
            else:
                return
        stack = self._stack
        depth = len(stack)
        if depth < self._level:
            return
        stack[-1]._link_child(node)
        if type(node) is not Text:
            if depth == self._level:
                self.loose = True
            else:
                self.kinds[-1] = MIXED


def iter_events(
    source: Union[str, Iterable[str]],
    fragment: bool = False,
    keep_whitespace: bool = False,
):
    """Tokenize ``source`` into parse events.

    ``source`` may be a complete string or an iterable of string chunks split
    at arbitrary offsets; the resulting event stream is identical either
    way.  ``fragment`` selects mixed-content mode (no single root required).
    """
    parser = EventParser(fragment=fragment, keep_whitespace=keep_whitespace)
    if isinstance(source, str):
        yield from parser.feed(source)
    else:
        for chunk in source:
            yield from parser.feed(chunk)
    yield from parser.close()


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


def _apply_event(event: tuple, stack: list, top: list) -> None:
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


def _attach(node, stack: list, top: list) -> None:
    if stack:
        # The open element joins its own parent only at its "end" event,
        # so it is still a detached root: the builder primitive applies.
        stack[-1]._link_child(node)
    else:
        top.append(node)


def parse_document(text: str, keep_whitespace: bool = False) -> Document:
    """Parse a complete XML document into a :class:`~repro.dom.nodes.Document`.

    ``keep_whitespace`` preserves whitespace-only text nodes between
    elements; by default they are dropped, matching data-oriented usage.
    """
    return TreeBuilder(keep_whitespace=keep_whitespace).into(Document(), text)


def parse_fragment(text: str, keep_whitespace: bool = False) -> list:
    """Parse mixed content (zero or more sibling nodes) without a root.

    Fragment payloads on the stream are single elements, but the parser also
    accepts text and multiple siblings for generality.  The nodes are read
    into a holder and handed back with no parent.
    """
    holder = TreeBuilder(True, keep_whitespace).into(Element(""), text)
    nodes = holder._children
    for node in nodes:
        node.parent = None
    return nodes
