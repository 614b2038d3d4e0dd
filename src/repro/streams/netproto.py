"""The framed wire protocol of the network transport (DOM-free).

The paper's dissemination model is a one-way broadcast: servers push,
clients cannot request retransmission.  :mod:`repro.streams.net` realizes
that model over real sockets; this module is its *wire layer* — pure
bytes in, frames out — shared by the server and the client and kept
deliberately free of any DOM, engine, or transport import so the hot
path never touches a parse tree (the repo lint enforces this, like the
automaton module's DOM-free rule).

Framing
-------

Every frame is length-prefixed::

    u32 body length (big-endian) | body

and the first body byte is the frame type.  Two body layouts exist:

- **control frames** (HELLO, SUBSCRIBE, ACK, CATCHUP, ERROR, BYE): the
  rest of the body is one UTF-8 JSON object.  Control frames are rare
  (handshake, subscription changes, periodic acks), so the flexible
  encoding costs nothing on the hot path.
- **payload frames** (BATCH, FEED): a fixed binary layout::

      type(1) | flags(1) | kind(1) | u16 stream-name length | stream |
      u32 entry count | count x ( u64 seq | u32 payload length | payload )

  ``kind`` is the transport message kind (``tag_structure`` or
  ``filler``); payloads are the exact UTF-8 wire text of the envelope —
  the same text :meth:`repro.core.engine.XCQLEngine.feed_raw` ingests —
  so a BATCH is a run of envelopes that decodes without re-serialization.
  ``flags`` bit 0 marks tag-compressed payloads (the
  :class:`~repro.streams.compression.TagCodec` scheme); each entry's
  ``seq`` is the server's journal sequence number, which is what a
  reconnecting client hands back in CATCHUP.

Version negotiation
-------------------

A client opens with HELLO listing the protocol versions it speaks;
the server answers HELLO with the one it chose (the highest common
version, see :func:`choose_version`) or ERROR ``unsupported-version``
and closes.  Every later frame is interpreted under the agreed version.

Protocol v2: the WORKER role
----------------------------

Version 2 adds four control frames that let a ``serve`` front door host
remote shard workers for the sharded engine (DISPATCH, POLL,
POLL_REPLY, RESPAWN).  They are ordinary JSON control frames; what v2
changes is *permission*, not layout.  :func:`min_version` reports the
version a frame type first appears in, and both endpoints refuse WORKER
frames on a connection negotiated at v1 — which is exactly how a
v1-only peer keeps working: it never learns the new types exist and is
served the v1 subset (subscribe/tail/feed) unchanged.

- DISPATCH ``{"id", "cmd", "args"}`` — one shard command (configure,
  register a stream, feed raw envelopes, add/remove a query, fetch
  stats); the worker answers ACK ``{"id", "ok", "result"|"error"}``.
- POLL ``{"id", "now"}`` — run one scheduler pass; answered by
  POLL_REPLY ``{"id", "emitted", "watermarks", "elapsed", "cpu"}``.
- RESPAWN ``{"id"}`` — discard the connection's shard state so the
  coordinator can re-bootstrap from its journal without reconnecting.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field
from typing import Iterable, Optional

__all__ = [
    "PROTOCOL_VERSIONS",
    "HELLO",
    "SUBSCRIBE",
    "FEED",
    "BATCH",
    "ACK",
    "CATCHUP",
    "ERROR",
    "BYE",
    "DISPATCH",
    "POLL",
    "POLL_REPLY",
    "RESPAWN",
    "WORKER_TYPES",
    "FLAG_COMPRESSED",
    "Frame",
    "ProtocolError",
    "FrameDecoder",
    "encode_control",
    "encode_batch",
    "choose_version",
    "min_version",
    "frame_name",
]

#: Protocol versions this build speaks, oldest first.
PROTOCOL_VERSIONS = (1, 2)

# Frame types (the first body byte).
HELLO = 1
SUBSCRIBE = 2
FEED = 3
BATCH = 4
ACK = 5
CATCHUP = 6
ERROR = 7
BYE = 8
# v2 WORKER-role frames.
DISPATCH = 9
POLL = 10
POLL_REPLY = 11
RESPAWN = 12

#: The v2 WORKER-role frame types; illegal on a v1 connection.
WORKER_TYPES = frozenset({DISPATCH, POLL, POLL_REPLY, RESPAWN})

_CONTROL_TYPES = frozenset({HELLO, SUBSCRIBE, ACK, CATCHUP, ERROR, BYE}) | WORKER_TYPES
_PAYLOAD_TYPES = frozenset({BATCH, FEED})

_NAMES = {
    HELLO: "HELLO",
    SUBSCRIBE: "SUBSCRIBE",
    FEED: "FEED",
    BATCH: "BATCH",
    ACK: "ACK",
    CATCHUP: "CATCHUP",
    ERROR: "ERROR",
    BYE: "BYE",
    DISPATCH: "DISPATCH",
    POLL: "POLL",
    POLL_REPLY: "POLL_REPLY",
    RESPAWN: "RESPAWN",
}

#: ``flags`` bit 0: every payload in the frame is tag-compressed.
FLAG_COMPRESSED = 0x01

# Message kinds on the wire (mirrors repro.streams.transport's strings —
# not imported, to keep this module dependency-free).
_KIND_CODES = {"tag_structure": 0, "filler": 1}
_KIND_NAMES = {code: kind for kind, code in _KIND_CODES.items()}

#: Reject frames past this size before buffering them (a garbage or
#: hostile length prefix must not balloon the decode buffer).
DEFAULT_MAX_FRAME = 64 * 1024 * 1024

_LEN = struct.Struct(">I")
_BATCH_HEAD = struct.Struct(">BBBH")
_ENTRY_HEAD = struct.Struct(">QI")
_COUNT = struct.Struct(">I")


class ProtocolError(ValueError):
    """A malformed, oversized, or out-of-protocol frame."""


def frame_name(ftype: int) -> str:
    """Human-readable name of a frame type (for errors and logs)."""
    return _NAMES.get(ftype, f"type-{ftype}")


@dataclass(slots=True)
class Frame:
    """One decoded frame.

    Control frames carry ``header`` (the JSON object); payload frames
    carry ``stream``/``kind``/``compressed`` plus ``entries`` — a list of
    ``(seq, payload text)`` pairs in wire order.
    """

    type: int
    header: dict = field(default_factory=dict)
    stream: Optional[str] = None
    kind: Optional[str] = None
    compressed: bool = False
    entries: Optional[list] = None

    @property
    def name(self) -> str:
        return frame_name(self.type)


# -- encoding ---------------------------------------------------------------------


def encode_control(ftype: int, **fields) -> bytes:
    """Encode a control frame (HELLO, SUBSCRIBE, ACK, CATCHUP, ERROR, BYE)."""
    if ftype not in _CONTROL_TYPES:
        raise ProtocolError(f"{frame_name(ftype)} is not a control frame")
    body = bytes([ftype]) + json.dumps(
        fields, separators=(",", ":"), sort_keys=True
    ).encode("utf-8")
    return _LEN.pack(len(body)) + body


def encode_batch(
    ftype: int,
    stream: str,
    kind: str,
    entries: Iterable[tuple[int, str]],
    compressed: bool = False,
) -> bytes:
    """Encode a payload frame: a run of ``(seq, envelope text)`` entries.

    ``ftype`` is BATCH (server to subscriber) or FEED (producer to
    server).  All entries share one stream and one message kind — the
    batcher flushes on a kind/stream change to preserve publish order.
    """
    if ftype not in _PAYLOAD_TYPES:
        raise ProtocolError(f"{frame_name(ftype)} is not a payload frame")
    kind_code = _KIND_CODES.get(kind)
    if kind_code is None:
        raise ProtocolError(f"unknown message kind {kind!r}")
    stream_bytes = stream.encode("utf-8")
    if len(stream_bytes) > 0xFFFF:
        raise ProtocolError("stream name too long")
    flags = FLAG_COMPRESSED if compressed else 0
    parts = [
        _BATCH_HEAD.pack(ftype, flags, kind_code, len(stream_bytes)),
        stream_bytes,
        b"",  # count placeholder, patched below
    ]
    count = 0
    for seq, payload in entries:
        data = payload.encode("utf-8")
        parts.append(_ENTRY_HEAD.pack(int(seq), len(data)))
        parts.append(data)
        count += 1
    parts[2] = _COUNT.pack(count)
    body = b"".join(parts)
    return _LEN.pack(len(body)) + body


# -- decoding ---------------------------------------------------------------------


class FrameDecoder:
    """Incremental frame decoder: feed byte chunks, collect frames.

    Chunk boundaries may fall anywhere — mid-length-prefix, mid-header,
    mid-payload.  The decoder buffers only the current incomplete frame
    and raises :class:`ProtocolError` on garbage (wrong type byte,
    truncated layout, oversized length prefix); a transport that sees the
    error should drop the connection, since framing cannot resynchronize.
    """

    def __init__(self, max_frame_bytes: int = DEFAULT_MAX_FRAME):
        self.max_frame_bytes = int(max_frame_bytes)
        self._buffer = bytearray()
        self.frames_decoded = 0
        self.bytes_decoded = 0

    def feed(self, data: bytes) -> list[Frame]:
        """Consume a chunk; returns every frame it completed."""
        self._buffer.extend(data)
        frames: list[Frame] = []
        while True:
            if len(self._buffer) < _LEN.size:
                break
            (length,) = _LEN.unpack_from(self._buffer, 0)
            if length > self.max_frame_bytes:
                raise ProtocolError(
                    f"frame of {length} bytes exceeds the "
                    f"{self.max_frame_bytes}-byte limit"
                )
            if length < 1:
                raise ProtocolError("empty frame body")
            if len(self._buffer) < _LEN.size + length:
                break
            body = bytes(self._buffer[_LEN.size : _LEN.size + length])
            del self._buffer[: _LEN.size + length]
            frames.append(_decode_body(body))
            self.frames_decoded += 1
            self.bytes_decoded += _LEN.size + length
        return frames


def _decode_body(body: bytes) -> Frame:
    ftype = body[0]
    if ftype in _CONTROL_TYPES:
        try:
            header = json.loads(body[1:].decode("utf-8")) if len(body) > 1 else {}
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ProtocolError(
                f"bad {frame_name(ftype)} header: {exc}"
            ) from exc
        if not isinstance(header, dict):
            raise ProtocolError(
                f"{frame_name(ftype)} header must be a JSON object"
            )
        return Frame(ftype, header=header)
    if ftype in _PAYLOAD_TYPES:
        return _decode_batch(body)
    raise ProtocolError(f"unknown frame type {ftype}")


def _decode_batch(body: bytes) -> Frame:
    try:
        ftype, flags, kind_code, stream_len = _BATCH_HEAD.unpack_from(body, 0)
        offset = _BATCH_HEAD.size
        stream = body[offset : offset + stream_len].decode("utf-8")
        offset += stream_len
        (count,) = _COUNT.unpack_from(body, offset)
        offset += _COUNT.size
        entries: list[tuple[int, str]] = []
        for _ in range(count):
            seq, payload_len = _ENTRY_HEAD.unpack_from(body, offset)
            offset += _ENTRY_HEAD.size
            if len(body) < offset + payload_len:
                raise ProtocolError("truncated batch entry")
            payload = body[offset : offset + payload_len].decode("utf-8")
            offset += payload_len
            entries.append((seq, payload))
    except (struct.error, UnicodeDecodeError) as exc:
        raise ProtocolError(f"truncated {frame_name(body[0])} frame: {exc}") from exc
    if offset != len(body):
        raise ProtocolError(
            f"{frame_name(ftype)} frame has {len(body) - offset} trailing bytes"
        )
    kind = _KIND_NAMES.get(kind_code)
    if kind is None:
        raise ProtocolError(f"unknown message kind code {kind_code}")
    return Frame(
        ftype,
        stream=stream,
        kind=kind,
        compressed=bool(flags & FLAG_COMPRESSED),
        entries=entries,
    )


# -- version negotiation -----------------------------------------------------------


def min_version(ftype: int) -> int:
    """The protocol version a frame type first appears in.

    Endpoints gate on this rather than hard-coding type lists: a frame
    whose ``min_version`` exceeds the negotiated version is a protocol
    error on that connection, whatever this build itself speaks.
    """
    return 2 if ftype in WORKER_TYPES else 1


def choose_version(offered) -> Optional[int]:
    """The highest protocol version both sides speak, or ``None``.

    ``offered`` is the ``versions`` list from a client HELLO; anything
    non-numeric in it is ignored (a newer client may advertise versions
    this build cannot even represent).
    """
    usable = set()
    for version in offered or []:
        # Python's json accepts Infinity/NaN literals, and booleans are
        # ints — neither names a protocol version; ignore, don't crash.
        if isinstance(version, bool) or not isinstance(version, (int, float)):
            continue
        if isinstance(version, float) and not math.isfinite(version):
            continue
        if int(version) == version:
            usable.add(int(version))
    common = usable & set(PROTOCOL_VERSIONS)
    return max(common) if common else None
