"""Persistence for fragment stores and broadcast journals.

A stream in the paper is a *read-once temporal database*: a client that
misses fragments cannot ask for them again (no NACKs), so retaining what
was received matters.  Two durability tools:

- :func:`save_store` / :func:`load_store` — snapshot a
  :class:`~repro.fragments.store.FragmentStore` to the paper's
  ``fragments.xml`` shape (a ``<fragments>`` document of filler
  envelopes, preceded by the Tag Structure so the file is
  self-describing);
- :class:`Journal` — an append-only log of broadcast messages (tag
  structures and fillers, one record per line) that can be replayed
  into any subscriber, e.g. to bootstrap a late-joining client.  A
  record gives back exactly the payload text that was broadcast.
"""

from __future__ import annotations

import os
import re
from typing import Callable, Iterator, Optional, Tuple, Union

from typing import TYPE_CHECKING

from repro.dom.nodes import Element
from repro.dom.parser import parse_document
from repro.dom.serializer import serialize
from repro.fragments.model import parse_filler
from repro.fragments.store import FragmentStore
from repro.fragments.tagstructure import TagStructure

if TYPE_CHECKING:  # avoid a circular import at runtime (streams -> core -> fragments)
    from repro.streams.transport import Message

# Mirrors repro.streams.transport's message kinds.
TAG_STRUCTURE = "tag_structure"
FILLER = "filler"

__all__ = ["save_store", "load_store", "Journal"]

# How a journal record holding a line break stays one line (Journal._line).
_ESCAPE = str.maketrans({"\\": "\\\\", "\n": "\\n", "\r": "\\r"})
_UNESCAPE = re.compile(r"\\([\\nr])")
_UNESCAPED = {"\\": "\\", "n": "\n", "r": "\r"}


def save_store(store: FragmentStore, path: Union[str, os.PathLike]) -> int:
    """Write a store snapshot; returns the number of fillers written.

    The file is a single ``<fragmentStore>`` document holding the Tag
    Structure (when the store has one) followed by the paper's
    ``<fragments>`` envelope list.
    """
    root = Element("fragmentStore")
    if store.tag_structure is not None:
        root.append(store.tag_structure.to_xml())
    fragments = store.as_document().document_element
    assert fragments is not None
    root.append(fragments)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write('<?xml version="1.0" encoding="UTF-8"?>\n')
        handle.write(serialize(root, indent="  "))
        handle.write("\n")
    return store.filler_count


def load_store(
    path: Union[str, os.PathLike],
    use_index: bool = True,
    use_cache: bool = True,
) -> FragmentStore:
    """Load a snapshot written by :func:`save_store`."""
    with open(path, "r", encoding="utf-8") as handle:
        document = parse_document(handle.read())
    root = document.document_element
    if root is None or root.tag != "fragmentStore":
        raise ValueError(f"{path}: not a fragment-store snapshot")
    structure: Optional[TagStructure] = None
    structure_el = root.first("stream:structure")
    if structure_el is not None:
        structure = TagStructure.from_xml(structure_el)
    store = FragmentStore(structure, use_index=use_index, use_cache=use_cache)
    fragments = root.first("fragments")
    if fragments is not None:
        for envelope in fragments.child_elements("filler"):
            store.append(parse_filler(envelope))
    return store


class Journal:
    """An append-only log of broadcast messages.

    Attach to a channel as an ordinary subscriber::

        journal = Journal("credit.journal")
        channel.subscribe(journal.record)

    Each record is one line: ``<journal kind=... stream=...>payload</journal>``
    with the payload embedded verbatim.  A payload that holds a line feed
    or a carriage return is escaped instead, so that its record stays one
    line: the record carries ``escaped="1"``, and a backslash, a line
    feed and a carriage return are written ``\\\\``, ``\\n`` and ``\\r``.
    Every reader slices the payload out of the record as text
    (:meth:`read_indexed`), so it gets back the bytes that were sent.
    """

    def __init__(self, path: Union[str, os.PathLike]):
        self.path = os.fspath(path)
        self.records_written = 0
        self._handle = None  # the append handle, opened by the first record

    # -- writing -----------------------------------------------------------------

    def record(self, message: "Message") -> None:
        """Append one broadcast message (a Channel subscriber callback)."""
        self._append([self._line(message)])

    def record_many(self, messages) -> int:
        """Append a batch of messages with one write; returns the count.

        The sharded coordinator journals every per-shard filler batch
        before forwarding it, so the append is on the feed hot path.
        """
        lines = [self._line(message) for message in messages]
        if lines:
            self._append(lines)
        return len(lines)

    def _append(self, lines: list) -> None:
        """Write through one held handle, flushed before returning.

        Readers open the file by path (catch-up during live publish,
        failover replay, a restarted server), so every record must be in
        the file — not in this process's buffer — when its append
        returns; the flush also means a journal that is never closed
        still leaves a complete file.
        """
        handle = self._handle
        if handle is None:
            handle = self._handle = open(self.path, "a", encoding="utf-8")
        handle.writelines(lines)
        handle.flush()
        self.records_written += len(lines)

    def close(self) -> None:
        """Release the append handle (idempotent; a later record reopens it)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    @staticmethod
    def _line(message: "Message") -> str:
        payload, flag = message.payload, ""
        if "\n" in payload or "\r" in payload:
            payload, flag = payload.translate(_ESCAPE), ' escaped="1"'
        return (
            f'<journal kind="{message.kind}" stream="{message.stream}"{flag}>'
            f"{payload}</journal>\n"
        )

    # -- reading ---------------------------------------------------------------------

    def read(self) -> "Iterator[Message]":
        """Iterate the journaled messages in arrival order (:meth:`read_indexed`'s)."""
        for _seq, message in self.read_indexed():
            yield message

    _RECORD_RE = re.compile(
        r'^<journal kind="([^"]*)" stream="([^"]*)"( escaped="1")?>(.*)</journal>$',
        re.DOTALL,
    )

    def read_indexed(self, after: int = 0) -> "Iterator[Tuple[int, Message]]":
        """Iterate ``(seq, message)`` pairs, skipping records up to ``after``.

        ``seq`` is the 1-based record index — the sequence number the
        network server stamps on wire entries and a reconnecting client
        hands back in CATCHUP.  Records at or before ``after`` are
        skipped *before* any parsing, so resuming near the tail of a long
        journal does not pay for its history.  The payload is sliced out
        of the record textually (``_line`` embeds it verbatim, or escaped
        where the record says so), not parsed and re-serialized, so
        catch-up, failover, cold start and :meth:`replay` hand on
        byte-identical wire text — which the raw-event ingest path
        requires.
        """
        if not os.path.exists(self.path):
            return
        with open(self.path, "r", encoding="utf-8") as handle:
            for seq, line in enumerate(handle, start=1):
                if seq <= after:
                    continue
                line = line.rstrip("\n")
                if not line.strip():
                    continue
                match = self._RECORD_RE.match(line)
                if match is None:
                    raise ValueError(f"{self.path}:{seq}: corrupt record")
                kind, stream, escaped, payload = match.groups()
                if escaped:
                    payload = _UNESCAPE.sub(lambda m: _UNESCAPED[m[1]], payload)
                if kind not in (TAG_STRUCTURE, FILLER):
                    raise ValueError(
                        f"{self.path}:{seq}: unknown record kind {kind!r}"
                    )
                from repro.streams.transport import Message

                yield seq, Message(kind, stream, payload)

    @property
    def last_seq(self) -> int:
        """The 1-based index of the final record (0 for no journal)."""
        if not os.path.exists(self.path):
            return 0
        count = 0
        with open(self.path, "r", encoding="utf-8") as handle:
            for count, _ in enumerate(handle, start=1):
                pass
        return count

    def replay(self, deliver: "Callable[[Message], None]") -> int:
        """Push every journaled message into a subscriber callback.

        Returns the number of messages replayed.  Replaying into a client
        is idempotent: stores drop duplicate fillers.
        """
        count = 0
        for message in self.read():
            deliver(message)
            count += 1
        return count
