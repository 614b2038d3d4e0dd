"""A hand-written XML tokenizer, kept as the reference for the expat-backed parser.

This is the pure-Python char machine :class:`repro.dom.parser.EventParser`
used to be, without its fast-path regexes.  The differential property in
``test_parser_properties.py`` holds the expat-backed parser to it: the
same events on every text both accept, the same accept/reject verdict and
the same error line, except for the divergences ``docs/api.md`` lists.

It emits the same event tuples and raises
:class:`repro.dom.parser.XMLParseError` with the same line/column
conventions (1-based columns).  The one change from the historical code:
a malformed character reference (``&#xZZ;``, ``&#;``, a code point past
U+10FFFF) is an ``XMLParseError`` here, where it used to escape as a bare
``ValueError`` from ``int()`` / ``chr()``.
"""

from __future__ import annotations

import re

from repro.dom.parser import XMLParseError

__all__ = ["HandTokenizer", "hand_events"]

_NAME_RE = re.compile(r"[A-Za-z_:][\w.\-:]*")
_ENTITIES = {"amp": "&", "lt": "<", "gt": ">", "quot": '"', "apos": "'"}
_WHITESPACE = " \t\r\n"


class _Incomplete(Exception):
    """The current construct extends past the buffered input."""


def _decode_entities(raw: str, error) -> str:
    """Expand entity and character references in character data."""
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
        if entity.startswith("#"):
            hexadecimal = entity[1:2] in ("x", "X")
            digits = entity[2:] if hexadecimal else entity[1:]
            try:
                out.append(chr(int(digits, 16 if hexadecimal else 10)))
            except ValueError:
                raise error(f"malformed character reference &{entity};") from None
        elif entity in _ENTITIES:
            out.append(_ENTITIES[entity])
        else:
            raise error(f"unknown entity &{entity};")
        index = semi + 1
    return "".join(out)


class HandTokenizer:
    """Incremental event tokenizer over an XML document or fragment.

    ``feed`` / ``close`` return the newly completed events, exactly as
    :class:`repro.dom.parser.EventParser` does.
    """

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

    # -- input management ---------------------------------------------------

    def feed(self, chunk: str) -> list[tuple]:
        if self._final:
            raise ValueError("cannot feed a closed tokenizer")
        self._buf += chunk
        return self._pump()

    def close(self) -> list[tuple]:
        self._final = True
        return self._pump()

    def _pump(self) -> list[tuple]:
        while self._phase != "done":
            mark = self._pos
            try:
                self._step()
            except _Incomplete:
                self._pos = mark
                break
        self._compact()
        events, self._events = self._events, []
        return events

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

    def _error(self, message: str) -> XMLParseError:
        line = self._nl_before + self._buf.count("\n", 0, self._pos) + 1
        index = self._buf.rfind("\n", 0, self._pos)
        last_nl = self._base + index if index >= 0 else self._last_nl
        return XMLParseError(message, line, self._base + self._pos - last_nl)

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
        if self._misc():
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
        if not self._misc():
            raise self._error("content after document element")

    def _misc(self) -> bool:
        """Consume a declaration, PI, comment or DOCTYPE outside the root."""
        if self._match("<?xml"):
            self._read_until("?>")
        elif self._match("<?"):
            self._emit_pi()
        elif self._match("<!--"):
            self._emit_comment()
        elif self._match("<!DOCTYPE"):
            self._skip_doctype()
        else:
            return False
        return True

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
        if buf[pos] != "<":
            next_tag = buf.find("<", pos)
            if next_tag < 0:
                if not self._final:
                    raise _Incomplete
                next_tag = len(buf)
            raw = buf[pos:next_tag]
            self._pos = next_tag
            if self._keep_ws or raw.strip():
                self._events.append(("text", _decode_entities(raw, self._error)))
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


def hand_events(chunks, fragment: bool = True, keep_whitespace: bool = False) -> list:
    """Every event of ``chunks`` (a string or a list of strings)."""
    tokenizer = HandTokenizer(fragment=fragment, keep_whitespace=keep_whitespace)
    events = []
    for chunk in [chunks] if isinstance(chunks, str) else chunks:
        events += tokenizer.feed(chunk)
    return events + tokenizer.close()
