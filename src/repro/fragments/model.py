"""Filler envelopes and hole placeholders (paper §4.2).

A filler is the unit of transfer and of update: ``<filler id="100"
tsid="5" validTime="2003-10-23T12:23:34"> <payload.../> </filler>``.  The
payload is one element whose fragmented children appear as ``<hole id=...
tsid=...>`` placeholders.  Streaming a new filler with an existing id
creates a new *version* of that fragment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.dom.nodes import Element
from repro.dom.parser import TreeBuilder, parse_fragment
from repro.dom.serializer import escape_attribute, serialize
from repro.temporal.chrono import XSDateTime

__all__ = [
    "Filler",
    "LazyFiller",
    "make_hole",
    "parse_filler",
    "envelope_header",
    "FRAGMENTS_DOC_NAME",
]

FRAGMENTS_DOC_NAME = "fragments.xml"

HOLE_TAG = "hole"


def make_hole(hole_id: int, tsid: int) -> Element:
    """A ``<hole id=... tsid=.../>`` placeholder element."""
    return Element(HOLE_TAG, {"id": str(hole_id), "tsid": str(tsid)})


@dataclass
class Filler:
    """One filler fragment: envelope metadata plus its payload element."""

    filler_id: int
    tsid: int
    valid_time: XSDateTime
    content: Element

    def envelope(self) -> Element:
        """The ``<filler>`` envelope element around :meth:`detached_content`.

        The payload is the caller's: a copy of ``content``, or for a
        filler that keeps its wire text a tree read from that text, which
        the filler does not retain.
        """
        wrapper = Element(
            "filler",
            {
                "id": str(self.filler_id),
                "tsid": str(self.tsid),
                "validTime": str(self.valid_time),
            },
        )
        wrapper.append(self.detached_content())
        return wrapper

    def to_xml(self) -> str:
        """Serialize the envelope to wire text: ``serialize(self.envelope())``.

        Written around ``serialize(self.content)``, so the payload is not
        copied first.
        """
        return (
            f'<filler id="{escape_attribute(str(self.filler_id))}"'
            f' tsid="{escape_attribute(str(self.tsid))}"'
            f' validTime="{escape_attribute(str(self.valid_time))}">'
            f"{serialize(self.content)}</filler>"
        )

    @property
    def materialized(self) -> bool:
        """Whether this filler pins a payload DOM (an eager one always does)."""
        return True

    @property
    def wire_text(self) -> Optional[str]:
        """The envelope exactly as received, when the filler retains it."""
        return None

    def detached_content(self) -> Element:
        """A payload tree the caller owns; ``content`` itself stays untouched."""
        return self.content.copy()

    def holes(self) -> list[Element]:
        """All hole placeholders anywhere in the payload."""
        return [
            node
            for node in self.content.iter()
            if isinstance(node, Element) and node.tag == HOLE_TAG
        ]

    def hole_ids(self) -> list[int]:
        """Ids of all holes in the payload, in document order."""
        return [int(hole.attrs["id"]) for hole in self.holes()]

    @property
    def wire_size(self) -> int:
        """Size of this filler on the wire, in bytes (UTF-8)."""
        text = self.wire_text
        if text is None:
            text = self.to_xml()
        return len(text.encode("utf-8"))

    def __repr__(self) -> str:
        return (
            f"<Filler id={self.filler_id} tsid={self.tsid}"
            f" t={self.valid_time} tag={self.content.tag!r}>"
        )


class LazyFiller(Filler):
    """A filler kept as wire text; a payload DOM is pinned only on request.

    The raw-feed ingest path (:meth:`repro.core.engine.XCQLEngine.feed_raw`)
    tokenizes the whole envelope once to validate it and drive the stream
    automata, but defers the DOM build: standing queries answered from
    automaton captures never need a tree at all.  The store's read path
    (``versions_of`` / ``get_fillers``) reads the retained text with a
    :class:`~repro.dom.parser.TreeBuilder` — in :meth:`detached_content`,
    or in the store's own successor build — into a tree *it* owns, the one
    DOM of the stored version, and leaves the filler as text, as
    ``wire_size`` (the retained text's length) does.  Only the filler's
    own DOM-facing API — ``content``, ``holes()``, ``to_xml()``,
    DOM routing probes — parses on demand *and retains* the result, after
    which the instance behaves exactly like an eager :class:`Filler`;
    :meth:`envelope` (what ``save_store`` writes) reads the text into a
    tree it hands over and retains nothing.
    """

    def __init__(
        self,
        filler_id: int,
        tsid: int,
        valid_time: XSDateTime,
        raw: str,
    ):
        self.filler_id = filler_id
        self.tsid = tsid
        self.valid_time = valid_time
        self._raw: Optional[str] = raw
        self._content: Union[Element, None] = None

    @property
    def content(self) -> Element:
        if self._content is None:
            self._content = self.detached_content()
        return self._content

    @content.setter
    def content(self, value: Element) -> None:
        self._content = value
        self._raw = None  # the received text no longer describes the payload

    @property
    def wire_text(self) -> Optional[str]:
        return self._raw

    @property
    def materialized(self) -> bool:
        """Whether a payload DOM has been built *and retained* on the filler.

        True after ``content``, ``holes()``, ``to_xml()`` or a DOM routing
        probe; never set by the store's own read path, which parses into
        trees the store owns (observability hook).
        """
        return self._content is not None

    def detached_content(self) -> Element:
        if self._content is not None:
            # An assigned or already pinned payload is authoritative.
            return self._content.copy()
        # The raw text was fully tokenized and validated at ingest, so
        # this re-parse cannot newly fail.  The tree is the caller's:
        # only the ``content`` getter retains one.
        return TreeBuilder(fragment=True).payload(self._raw)


def envelope_header(
    top_elements: int, tag: Optional[str], attrs: dict, payload_elements: int
) -> tuple[int, int, XSDateTime]:
    """``(filler_id, tsid, valid_time)`` of a scanned envelope, or ``ValueError``.

    The checks every reader of wire text owes an envelope once its scan
    is over, in one order with one set of messages — whether the scan
    built a DOM (:func:`parse_filler`), ran the stream automata
    (``XCQLEngine.feed_raw``) or left a routing predicate that skips
    the envelope (:class:`repro.streams.routing.DoorProbe`).
    ``top_elements`` counts the top-level elements, ``tag`` and
    ``attrs`` describe the first, ``payload_elements`` counts its child
    elements.
    """
    if top_elements != 1:
        raise ValueError("expected a single <filler> element")
    if tag != "filler":
        raise ValueError(f"expected <filler>, got <{tag}>")
    if payload_elements != 1:
        raise ValueError("filler must contain exactly one payload element")
    try:
        return (
            int(attrs["id"]),
            int(attrs["tsid"]),
            XSDateTime.parse(attrs["validTime"]),
        )
    except KeyError as exc:
        raise ValueError(f"filler missing attribute {exc}") from exc


def parse_filler(source: Union[str, Element]) -> Filler:
    """Parse a ``<filler>`` envelope from wire text or a parsed element."""
    if isinstance(source, str):
        tops = [n for n in parse_fragment(source) if isinstance(n, Element)]
    else:
        tops = [source]
    first = tops[0] if tops else Element("")  # no element: the count check raises
    payload = first.child_elements()
    filler_id, tsid, valid_time = envelope_header(
        len(tops), first.tag, first.attrs, len(payload)
    )
    if isinstance(source, str):
        # The tree just parsed is private: detach the payload instead of
        # copying it and leaving the original a parent-linked cycle.
        content = payload[0]
        first.remove(content)
    else:
        content = payload[0].copy()  # the caller owns ``source``
    return Filler(filler_id, tsid, valid_time, content)
