"""Tag-name compression for stream data (paper §4.1).

The paper notes that the Tag Structure "gives us the convenience of
abbreviating the tag names with IDs for compressing stream data" but does
not use it.  This module implements the scheme:

- a :class:`TagCodec` is derived from a Tag Structure; every distinct tag
  name maps to a short code (``t1``, ``t2``, ...), with ``hole`` and
  ``filler`` kept verbatim since they are already minimal and structural;
- :meth:`TagCodec.encode` / :meth:`TagCodec.decode` rewrite element names
  in a filler payload (codes are stable because both sides derive them
  from the same broadcast Tag Structure);
- :class:`CompressingChannel` applies the codec transparently on a
  broadcast channel, so servers and clients are unchanged; it records the
  achieved wire savings.

Both product paths rewrite text (:meth:`TagCodec.compress_iter` /
:meth:`TagCodec.decompress_iter`) and deliver the producer's exact text.
The DOM transforms (``encode`` ... ``decode_wire``) are the **reference**
the text codec is held to in ``tests/test_compression.py``; no module
under ``src/`` calls them.

Unknown names (lenient-mode payload content outside the schema) pass
through unchanged, which also makes decoding idempotent for uncompressed
traffic.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator

from repro.dom.nodes import Element
from repro.dom.parser import parse_fragment
from repro.dom.serializer import serialize
from repro.fragments.tagstructure import TagStructure
from repro.streams.transport import FILLER, Channel, Message

__all__ = ["TagCodec", "CompressingChannel"]

_PRESERVED = ("filler", "hole")

_NAME = r"[A-Za-z_:][\w.\-:]*"
_TAG_OPEN_RE = re.compile(rf"(</?)({_NAME})")
# One ``<``-construct per match, so a name is only ever rewritten where a
# tag opens: opaque markup (no groups; its interior is never tag-decoded),
# a complete tag as (lead, name, rest) where quoted attribute values may
# hold ``>``, or — when neither is complete — the markup still arriving,
# which runs to the end of the buffer.  A ``<`` that opens none of these
# (``a < b``) is text.
_CONSTRUCT_RE = re.compile(
    r"<!--.*?-->|<!\[CDATA\[.*?\]\]>|<\?.*?\?>|<!(?!--|\[CDATA\[)[^>]*>"
    rf"|(</?)({_NAME})([^>\"']*(?:\"[^\"]*\"[^>\"']*|'[^']*'[^>\"']*)*>)"
    r"|(<(?:[!?]|/?(?:[A-Za-z_:]|\Z)).*)",
    re.DOTALL,
)


class TagCodec:
    """Bidirectional tag-name ↔ short-code mapping for one stream."""

    def __init__(self, tag_structure: TagStructure):
        names: list[str] = []
        for tag in tag_structure.all_tags():
            if tag.name not in names and tag.name not in _PRESERVED:
                names.append(tag.name)
        self._encode = {name: f"t{index + 1}" for index, name in enumerate(names)}
        self._decode = {code: name for name, code in self._encode.items()}

    # -- element transforms -----------------------------------------------------

    def encode(self, element: Element) -> Element:
        """A copy of ``element`` with tag names replaced by codes (reference only)."""
        return self._rename(element, self._encode)

    def decode(self, element: Element) -> Element:
        """Inverse of :meth:`encode` (reference only)."""
        return self._rename(element, self._decode)

    def _rename(self, element: Element, table: dict[str, str]) -> Element:
        copy = Element(table.get(element.tag, element.tag), element.attrs)
        for child in element.children:
            if isinstance(child, Element):
                copy.append(self._rename(child, table))
            else:
                copy.append(type(child)(child.text) if hasattr(child, "text") else child)
        return copy

    # -- wire transforms ------------------------------------------------------------

    def encode_wire(self, payload: str) -> str:
        """Encode filler XML through a DOM: :meth:`compress_iter`'s reference."""
        nodes = [n for n in parse_fragment(payload) if isinstance(n, Element)]
        return "".join(serialize(self.encode(node)) for node in nodes)

    def decode_wire(self, payload: str) -> str:
        """Decode filler XML through a DOM: :meth:`decompress_iter`'s reference."""
        nodes = [n for n in parse_fragment(payload) if isinstance(n, Element)]
        return "".join(serialize(self.decode(node)) for node in nodes)

    # -- incremental wire transcoding ----------------------------------------------

    def decompress_iter(self, chunks: Iterable[str]) -> Iterator[str]:
        """Decode a wire payload incrementally, chunk by chunk.

        Yields decoded text pieces whose concatenation equals
        :meth:`decode_wire` of the concatenated input for payloads produced
        by :meth:`encode_wire` — but without ever materializing the whole
        string or building a DOM: only the tag names immediately after
        ``<`` / ``</`` are rewritten, so the output can feed an event
        parser as it is produced.  Comments, CDATA sections, and processing
        instructions pass through opaque; a chunk boundary may fall
        anywhere (mid-name, mid-tag, mid-comment) without changing the
        output.
        """
        return self._rewrite_iter(chunks, self._decode)

    def compress_iter(self, chunks: Iterable[str]) -> Iterator[str]:
        """Encode a wire payload incrementally, chunk by chunk.

        The encode-direction twin of :meth:`decompress_iter`: tag names
        are replaced by their codes with the same pure-text scan — no
        parse, no DOM, no serializer round-trip — so everything outside
        the rewritten names (whitespace, attribute order, escapes) is
        preserved *verbatim* and ``decompress(compress(text)) == text``
        exactly.  This is the compression path of the network batcher and
        of :class:`CompressingChannel`: a compressed payload still
        delivers the exact wire text the streaming-automaton ingest
        (:meth:`XCQLEngine.feed_raw`) needs.
        """
        return self._rewrite_iter(chunks, self._encode)

    def _rewrite_iter(
        self, chunks: Iterable[str], table: dict[str, str]
    ) -> Iterator[str]:
        buffer = ""
        for chunk in chunks:
            done, buffer = self._rewrite_stream(buffer + chunk, table, final=False)
            if done:
                yield done
        if buffer:
            yield self._rewrite_stream(buffer, table, final=True)[0]

    def _rewrite_stream(
        self, buffer: str, table: dict[str, str], final: bool
    ) -> tuple[str, str]:
        """Rewrite tag names over the longest unambiguous prefix of ``buffer``.

        Returns ``(rewritten, holdover)`` where ``holdover`` is the suffix
        that cannot be transcoded yet (it starts at the ``<`` of an
        incomplete construct).  With ``final=True`` everything is consumed,
        passing any trailing malformed markup through verbatim.
        """
        held = len(buffer)

        def rewrite(match: "re.Match") -> str:
            nonlocal held
            lead, name, rest, tail = match.groups()
            if name is not None:
                return lead + table.get(name, name) + rest
            if tail is None:
                return match.group()  # comment, CDATA, PI, declaration: opaque
            if not final:
                held = match.start()  # still arriving: hold it for the next chunk
                return ""
            opened = _TAG_OPEN_RE.match(tail)
            if opened is None:
                return tail
            lead, name = opened.groups()
            return lead + table.get(name, name) + tail[opened.end():]

        return _CONSTRUCT_RE.sub(rewrite, buffer), buffer[held:]

    def __len__(self) -> int:
        return len(self._encode)


class CompressingChannel(Channel):
    """A channel that ships filler payloads with coded tag names.

    Tag Structure announcements pass through uncompressed (the codec is
    derived from them).  ``bytes_saved`` accumulates the wire reduction.
    """

    #: Delivery-side decode granularity: payloads are decoded in slices of
    #: this many characters, so a subscriber never waits on (and the codec
    #: never allocates) a parse of the whole payload.
    chunk_size = 4096

    def __init__(self, codec: TagCodec):
        super().__init__()
        self.codec = codec
        self.bytes_in = 0
        self.bytes_out = 0

    @property
    def bytes_saved(self) -> int:
        """Total bytes removed from the wire so far."""
        return self.bytes_in - self.bytes_out

    def publish(self, message: Message) -> None:
        if message.kind == FILLER:
            encoded = "".join(self.codec.compress_iter((message.payload,)))
            self.bytes_in += len(message.payload.encode("utf-8"))
            self.bytes_out += len(encoded.encode("utf-8"))
            message = Message(message.kind, message.stream, encoded)
        super().publish(message)

    def _deliver(self, subscriber, message: Message) -> None:
        if message.kind == FILLER:
            # Streaming decode: tag names are rewritten slice by slice via
            # decompress_iter — no DOM parse/serialize round-trip on the
            # delivery path, and each decoded slice could equally be fed
            # straight into an event parser.
            payload = message.payload
            slices = (
                payload[offset : offset + self.chunk_size]
                for offset in range(0, len(payload), self.chunk_size)
            )
            decoded = "".join(self.codec.decompress_iter(slices))
            message = Message(message.kind, message.stream, decoded)
        super()._deliver(subscriber, message)
