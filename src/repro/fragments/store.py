"""The client-side fragment store and the ``get_fillers`` semantics.

The store receives fillers from the stream and indexes them by filler id
and by tsid.  ``get_fillers`` implements the paper's §5 function: the
versions of a fragment, ordered by ``validTime``, each annotated with a
derived lifespan —

- *temporal* fragments: ``vtFrom`` = own validTime, ``vtTo`` = the next
  version's validTime, or the literal ``"now"`` for the newest version
  (so the lifespan keeps extending as evaluation time moves);
- *event* fragments: ``vtFrom`` = ``vtTo`` = own validTime (events are
  instants, paper §3);
- without a Tag Structure the generic temporal rule applies.

Duplicate transmissions (same filler id and validTime — the paper's
servers may repeat critical fragments, and clients cannot NACK) are
dropped on ingest.

One DOM per stored version: with caching on, the annotated version
elements *are* the children of the cached ``<filler>`` wrapper —
``versions_of`` and ``get_fillers`` read the same cache, and the store
owns those trees (a lazily stored filler stays wire text; an eager
filler's ``content`` stays the caller's).  They are shared and read-only
for callers, and they are the store's *live* view: a write that lands
after an id's last version keeps the wrapper, and the next read of the
id parses only the new versions, closes the previous last version's
``vtTo`` and appends them.  A wrapper or version a caller kept from
before the write sees that.  The subtree *below* a version is never
patched, and anything a query built from the store — projections,
constructed elements, ``temporalize``'s view, identity strings — is
its own snapshot.  A projection or the view may stand on a version
copy-on-touch (``dom.nodes.DeferredElement``): it takes the version's
own attributes when it is built and reads only what lies below.  A history rewrite (an insert before a stored version,
a re-published snapshot, ``set_tag_structure``, ``prune_before``,
``clear``) drops the wrapper instead and the next read builds a new one.

A version stands on its predecessor.  The store reads a payload kept as
wire text through ``dom.parser.TreeBuilder``, which notes where each
payload child begins.  The next version of a temporal id is built from
the middle of its text that differs from its predecessor's; every child
of the predecessor before or after that middle is carried over as a
one-node stand-in on it (``dom.nodes.carry``), which builds its own
children the first time something reads them and never changes the
predecessor.  A child with a comment, a processing instruction or a hole
below it is copied eagerly instead.  Every version still serialises as a
full parse of its text would; only fewer nodes exist until a query
touches them.  Event and snapshot versions, and ``use_cache=False``
stores, are parsed in full.

Document order ranks the cached wrappers by their filler id's first
arrival: the store reserves a tree id per filler id at first ingest
and gives it to every wrapper it caches for that id.

Index and memoization behaviour are switchable for the ablation benches:
``use_index=False`` degrades lookups to linear scans (paper §8 envisions
get_fillers as a join — the index is the hash-join side), and
``use_cache=False`` rebuilds annotated versions on every call.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right, insort
from collections import OrderedDict
from typing import Iterable, NamedTuple, Optional

from repro.dom.nodes import Document, Element, SharedElement, carry, new_tree_id, vouch
from repro.dom.parser import TreeBuilder
from repro.dom.serializer import serialize
from repro.fragments.model import Filler
from repro.fragments.tagstructure import TagStructure, TagType
from repro.temporal.chrono import XSDateTime

__all__ = ["FragmentStore"]

# Distinguishes "endpoint index not built yet" from a memoized None
# ("this fragment cannot be endpoint-indexed").
_UNBUILT = object()

# Shared empty endpoint list; never mutated.
_NO_ENDPOINTS: list[float] = []

# A start tag (an attribute value may hold ``>``), and an envelope's,
# with the whitespace that may follow it before the payload.
_TAG = r"""<[^>"']*(?:(?:"[^"]*"|'[^']*')[^>"']*)*>"""
_START_TAG = re.compile(_TAG)
_ENVELOPE_HEAD = re.compile(r"<filler[ \t\r\n]" + _TAG[1:] + r"[ \t\r\n]*")


class _Built(NamedTuple):
    """How the store built an id's last version from its wire text.

    ``text`` is the text the id's ``LazyFiller`` keeps (the same object,
    not a copy), ASCII, so its characters are expat's bytes.  ``head``
    is where the payload's start tag begins and ``body`` where its
    content does; ``seams`` are, relative to ``body``, where each child
    element of the payload begins and, last, where the payload's end tag
    does; ``slots`` the position of each among the version's child nodes
    (the last: their count).  ``kinds`` says what lies below each child
    element, ``loose`` whether a comment or a processing instruction is
    a child of the payload, and ``attrs`` are the payload's attributes
    before the lifespan stamp.
    """

    text: str
    head: int
    body: int
    seams: list[int]
    slots: list[int]
    kinds: list[int]
    loose: bool
    attrs: dict[str, str]


def _same_head(a: str, i: int, b: str, j: int, limit: int) -> int:
    """Length of the common prefix of ``a[i:]`` and ``b[j:]``, at most ``limit``."""
    lo, hi = 0, limit
    while lo < hi:
        mid = (lo + hi + 1) >> 1
        if b.startswith(a[i : i + mid], j):
            lo = mid
        else:
            hi = mid - 1
    return lo


def _same_tail(a: str, b: str, limit: int) -> int:
    """Length of the common suffix of ``a`` and ``b``, at most ``limit``."""
    lo, hi = 0, limit
    while lo < hi:
        mid = (lo + hi + 1) >> 1
        if a.endswith(b[len(b) - mid :]):
            lo = mid
        else:
            hi = mid - 1
    return lo


def _successor(
    text: str, previous: Element, built: _Built
) -> tuple[Optional[Element], Optional[_Built]]:
    """The version of ASCII envelope ``text``, built on ``previous``.

    ``built`` says how ``previous`` was built from its text.  With
    equal payload start tags, the payload contents share a head and a
    tail.  The changed middle runs from the last seam strictly inside
    the common head — a child element's start, or the payload's end
    tag — to a seam at or after the common tail's start, so no text
    run crosses either end.  Only the middle is parsed; every child of
    ``previous`` before or after it is carried over (:func:`carry`):
    an element as a one-node stand-in that reads ``previous``'s child
    through, an element with a comment, a processing instruction or a
    hole below it as an eager copy.  ``(None, None)`` when the texts do
    not allow it — different start tags, no seam after the change, or
    a middle that is not content on its own (it may, say, open a
    comment that the tail's ``-->`` would close) — and the caller
    parses the whole text.
    """
    old = built.text
    head = _ENVELOPE_HEAD.match(text)
    if head is None:
        return None, None
    at = head.end()
    tag = old[built.head : built.body]
    if not text.startswith(tag, at):
        return None, None
    body = at + len(tag)
    old_size = len(old) - built.body
    size = len(text) - body
    limit = min(old_size, size)
    same_head = _same_head(old, built.body, text, body, limit)
    same_tail = _same_tail(old, text, limit)
    grow = size - old_size
    seams, slots, kinds = built.seams, built.slots, built.kinds
    first = bisect_left(seams, same_head) - 1  # the last seam inside the head
    kept = max(first, 0)  # child elements before the middle
    x = seams[first] if first >= 0 else 0
    last = bisect_left(seams, max(old_size - same_tail, x, x - grow), kept)
    if last == len(seams):
        return None, None
    y = seams[last]
    version = Element(previous.tag, built.attrs)
    children = previous.children
    lo = slots[first] if first >= 0 else 0
    loose = carry(version, children[:lo], kinds[:kept])
    builder = TreeBuilder(fragment=True)
    if y + grow > x and not builder.extend(version, text[body + x : body + y + grow]):
        return None, None
    mark = len(version.children)
    hi = slots[last]
    loose = carry(version, children[hi:], kinds[last:]) or builder.loose or loose
    return version, _Built(
        text, at, body,
        seams[:kept] + [x + start for start in builder.starts]
        + [seam + grow for seam in seams[last:]],
        slots[:kept] + builder.slots + [slot - hi + mark for slot in slots[last:]],
        kinds[:kept] + builder.kinds + kinds[last:],
        loose,
        built.attrs,
    )


def _canonical(filler: Filler) -> str:
    """The envelope's serialised form, read without pinning a payload on it."""
    return filler.to_xml() if filler.materialized else serialize(filler.envelope())


class FragmentStore:
    """Holds all received fillers and answers ``get_fillers`` queries."""

    def __init__(
        self,
        tag_structure: Optional[TagStructure] = None,
        use_index: bool = True,
        use_cache: bool = True,
    ):
        self.tag_structure = tag_structure
        self.use_index = use_index
        self.use_cache = use_cache
        self._fillers: list[Filler] = []
        self._by_id: dict[int, list[Filler]] = {}
        # tsid -> its filler ids in first-arrival order (dict as ordered
        # set: membership on ingest is O(1) however long the history).
        self._by_tsid: dict[int, dict[int, None]] = {}
        self._seen: set[tuple[int, str]] = set()
        # filler id -> its <filler> wrapper, whose children are the
        # annotated versions of the id's first len(children) fillers:
        # the store's only retained DOM.
        self._wrapper_cache: dict[int, SharedElement] = {}
        # filler id -> the tree id reserved at its first arrival, which
        # every cached wrapper of the id carries (its document order).
        self._tree_ids: dict[int, int] = {}
        # Ids whose cached wrapper a write has got ahead of: the next read
        # appends the missing versions (a set test keeps the hit cheap).
        self._behind: set[int] = set()
        # Temporal filler id -> how its cached wrapper's last version was
        # built from wire text: its successor parses only what changed.
        self._built: dict[int, _Built] = {}
        # Per-bucket epoch keys, kept aligned with _by_id: append() inserts
        # with bisect instead of re-sorting the whole bucket per ingest.
        self._sort_keys: dict[int, list[float]] = {}
        # Temporal endpoint index: per filler id a (froms, tos, open_last)
        # triple of sorted lifespan endpoints derived from _sort_keys, built
        # lazily and invalidated per filler id like the wrapper cache.
        self._endpoint_cache: dict[int, Optional[tuple[list[float], list[float], bool]]] = {}
        # Per-tsid sorted validTime epochs of every filler of the tsid,
        # maintained incrementally on ingest (rebuilt on prune).
        self._tsid_endpoints: dict[int, list[float]] = {}
        # Cache-invalidation events (one per distinct filler id touched);
        # extend() batches to one per id per call.
        self.invalidations = 0
        # Watermark state for incremental (delta) consumers: every accepted
        # filler gets the next value of a monotonically increasing sequence
        # number.  The arrival log keeps fillers in acceptance order so
        # fillers_since(seq) is an O(1) slice; _arrival_base is the seq
        # value "before" the first log entry (the log restarts, but seq
        # never does).  mutation_epoch counts history rewrites — events
        # after which a delta consumer's retained state is unsound and it
        # must fall back to a full evaluation.
        self._seq = 0
        self._arrival_log: list[Filler] = []
        self._arrival_base = 0
        self._mutation_epoch = 0
        self._tsid_watermark: dict[int, int] = {}
        # Delta-batch memo: many standing queries at the same watermark ask
        # for the same (fillers_since, delta_wrappers) pair within one poll
        # tick; the key embeds (seq, mutation_epoch) so any append or
        # history rewrite naturally invalidates stale entries.
        self._delta_memo: OrderedDict[tuple, tuple] = OrderedDict()
        self._delta_memo_hits = 0
        self._delta_memo_misses = 0

    # -- ingest ---------------------------------------------------------------

    def append(self, filler: Filler) -> bool:
        """Ingest one filler; returns False for a duplicate transmission.

        A duplicate has the same filler id, the same validTime *and* the
        same payload — distinct events that happen to share an id and a
        timestamp (shared event holes, bursty sources) are all kept.
        Payloads are only compared on an (id, validTime) collision.
        """
        position = self._ingest(filler)
        if position is None:
            return False
        self._written(filler.filler_id, position)
        return True

    def _ingest(self, filler: Filler) -> Optional[int]:
        """Index one filler without touching the derived caches.

        Returns its position in its id's validTime order, ``None`` for a
        duplicate transmission.
        """
        time_key = str(filler.valid_time)
        key = (filler.filler_id, time_key)
        if key in self._seen:
            # Equal wire text means equal canonical form, so a repeated
            # envelope is recognised without building a DOM on either
            # side; only differing texts need the serialised comparison.
            text = filler.wire_text
            signature = None
            for existing in self._by_id.get(filler.filler_id, ()):
                if str(existing.valid_time) != time_key:
                    continue
                if text is not None and existing.wire_text == text:
                    return None
                if signature is None:
                    signature = _canonical(filler)
                if _canonical(existing) == signature:
                    return None
        else:
            self._seen.add(key)
        self._fillers.append(filler)
        filler_id = filler.filler_id
        bucket = self._by_id.get(filler_id)
        if bucket is None:
            bucket = self._by_id[filler_id] = []
            self._tree_ids[filler_id] = new_tree_id()
        keys = self._sort_keys.setdefault(filler_id, [])
        # O(log n) insertion on a memoized epoch key instead of a full
        # O(n log n) re-sort per ingest.  bisect_right keeps arrival order
        # among equal timestamps, matching the stable sort it replaces.
        epoch = filler.valid_time.to_epoch_seconds()
        index = bisect_right(keys, epoch)
        keys.insert(index, epoch)
        bucket.insert(index, filler)
        self._by_tsid.setdefault(filler.tsid, {})[filler_id] = None
        insort(self._tsid_endpoints.setdefault(filler.tsid, []), epoch)
        self._seq += 1
        self._arrival_log.append(filler)
        self._tsid_watermark[filler.tsid] = self._seq
        return index

    def _written(self, filler_id: int, position: int) -> None:
        """A write: the id's versions from ``position`` on are new.

        The endpoint index of the id is dropped (rebuilding it parses
        nothing).  The cached wrapper is kept when it holds at least one
        version, all of them before ``position``, and the id is not
        snapshot-typed: the next read appends the new versions to it
        (:meth:`_catch_up`), so ingest stays parse-free.  Anything else —
        an insert before a held version, the first version of an id read
        while unknown, a re-published snapshot, which replaces the one
        version it shows — is a history rewrite.
        """
        wrapper = self._wrapper_cache.get(filler_id)
        if wrapper is not None:
            if (
                not 0 < len(wrapper.children) <= position
                or self._type_of(self._by_id[filler_id][0].tsid) is TagType.SNAPSHOT
            ):
                self._rewritten(filler_id)
                return
            self._behind.add(filler_id)
        self._endpoint_cache.pop(filler_id, None)
        self.invalidations += 1

    def _rewritten(self, filler_id: int) -> None:
        """A history rewrite of one id: drop every derived structure.

        The next read builds a new wrapper under the id's reserved tree
        id; the dropped one, which a caller may still hold, stays as it
        was and is moved out of that place in document order.
        """
        wrapper = self._wrapper_cache.pop(filler_id, None)
        if wrapper is not None:
            wrapper.disown()
        self._behind.discard(filler_id)
        self._built.pop(filler_id, None)
        self._endpoint_cache.pop(filler_id, None)
        self.invalidations += 1

    def _rewritten_all(self) -> None:
        """A history rewrite of every id (schema swap, ``clear``)."""
        for wrapper in self._wrapper_cache.values():
            wrapper.disown()
        self._wrapper_cache.clear()
        self._behind.clear()
        self._built.clear()
        self._endpoint_cache.clear()

    def extend(self, fillers: Iterable[Filler]) -> int:
        """Ingest many fillers; returns how many were new.

        Cache bookkeeping is batched: one event per *distinct* filler id
        per call, not one per filler, at the lowest position the call
        wrote for that id.
        """
        lowest: dict[int, int] = {}
        added = 0
        for filler in fillers:
            position = self._ingest(filler)
            if position is not None:
                filler_id = filler.filler_id
                lowest[filler_id] = min(position, lowest.get(filler_id, position))
                added += 1
        for filler_id, position in lowest.items():
            self._written(filler_id, position)
        return added

    def clear(self) -> None:
        """Drop all fragments."""
        self._fillers.clear()
        self._by_id.clear()
        self._by_tsid.clear()
        self._seen.clear()
        self._rewritten_all()
        self._tree_ids.clear()
        self._sort_keys.clear()
        self._tsid_endpoints.clear()
        self._arrival_log.clear()
        self._arrival_base = self._seq
        self._tsid_watermark.clear()
        self._delta_memo.clear()
        self._mutation_epoch += 1

    def set_tag_structure(self, tag_structure: Optional[TagStructure]) -> None:
        """Swap the Tag Structure and drop every derived annotation.

        Annotated versions, cached wrappers and the endpoint index all
        depend on per-tsid tag *types*; registering a store under a new
        schema must not serve annotations derived under the old one.
        """
        if tag_structure is self.tag_structure:
            return
        self.tag_structure = tag_structure
        self._rewritten_all()
        self._delta_memo.clear()
        self.invalidations += 1
        # Annotations derived under the old schema differ from the new
        # ones, so retained delta state is stale.
        self._mutation_epoch += 1

    # -- raw lookup ----------------------------------------------------------------

    def fillers_of(self, filler_id: int) -> list[Filler]:
        """All versions of a fragment, in validTime order."""
        filler_id = int(filler_id)
        if self.use_index:
            return list(self._by_id.get(filler_id, ()))
        found = [f for f in self._fillers if f.filler_id == filler_id]
        found.sort(key=lambda f: f.valid_time.to_epoch_seconds())
        return found

    def version_count(self, filler_id: int) -> int:
        """How many versions of a fragment the store holds (no list copy)."""
        if self.use_index:
            return len(self._by_id.get(int(filler_id), ()))
        return len(self.fillers_of(filler_id))

    def filler_ids_of_tsid(self, tsid: int) -> list[int]:
        """All filler ids carrying the given tsid."""
        tsid = int(tsid)
        if self.use_index:
            return list(self._by_tsid.get(tsid, ()))
        seen: list[int] = []
        for filler in self._fillers:
            if filler.tsid == tsid and filler.filler_id not in seen:
                seen.append(filler.filler_id)
        return seen

    # -- the paper's get_fillers ------------------------------------------------------

    def versions_of(self, filler_id: int) -> list[Element]:
        """Annotated version elements of a fragment (no wrapper).

        This is what replaces a hole in the temporal view: the sequence of
        all versions, each carrying its derived ``vtFrom``/``vtTo``.  With
        caching on this is the child list of the :meth:`get_fillers`
        wrapper itself — a live, read-only list, parented by the wrapper,
        that a later read of the id may extend (see the module docstring).
        A version may hold stand-ins on its predecessor's children; a
        stand-in builds its own children the first time they are read.
        """
        if self.use_cache:
            return self.get_fillers(filler_id).children
        return self._annotate(self.fillers_of(filler_id))

    def get_fillers(self, filler_id: int) -> Element:
        """The paper's ``get_fillers``: versions encased in a ``<filler>``.

        The wrapper lets callers apply a path projection to pick the child
        they want (a context fragment may have holes for different tags).

        With caching on, the assembled wrapper is memoized per filler id —
        a standing query re-evaluated every tick then skips parsing and
        annotating every version again.  (Sharing one wrapper across calls
        matches the sharing the optimizer's ``let``-hoisted plans already
        exhibit.)  It is the store's live view, read-only for callers:
        versions written after its last one are added to it here, on
        read.  If a caller adopted the cached wrapper into a constructed
        tree, a fresh one is built from the fillers instead.
        """
        filler_id = int(filler_id)
        if not self.use_cache:
            return self._wrap(filler_id, self.fillers_of(filler_id))
        cached = self._wrapper_cache.get(filler_id)
        if cached is not None:
            if cached.parent is None:
                if filler_id in self._behind:
                    self._catch_up(filler_id, cached, self._by_id[filler_id])
                    self._behind.discard(filler_id)
                return cached
            self._rewritten(filler_id)  # a caller adopted it
        wrapper = self._wrap(filler_id, self.fillers_of(filler_id), shared=True)
        self._wrapper_cache[filler_id] = wrapper
        return wrapper

    def get_fillers_list(self, filler_ids: Iterable[int]) -> list[Element]:
        """``get_fillers`` over a set of hole ids (paper §5.1)."""
        return [self.get_fillers(fid) for fid in filler_ids]

    def get_fillers_by_tsid(self, tsid: int) -> list[Element]:
        """All filler wrappers of a tsid — the QaC+ access path.

        No hole reconciliation happens: the tsid index (or, without an
        index, one single scan — the paper's ``filler[@tsid=603]``) goes
        straight to the fragments a query path needs (paper §7).
        """
        if self.use_index:
            return [self.get_fillers(fid) for fid in self.filler_ids_of_tsid(tsid)]
        tsid = int(tsid)
        grouped: dict[int, list[Filler]] = {}
        for filler in self._fillers:
            if filler.tsid == tsid:
                grouped.setdefault(filler.filler_id, []).append(filler)
        wrappers: list[Element] = []
        for filler_id, fillers in grouped.items():
            fillers.sort(key=lambda f: f.valid_time.to_epoch_seconds())
            wrappers.append(self._wrap(filler_id, fillers))
        return wrappers

    def _wrap(self, filler_id: int, fillers: list[Filler], shared: bool = False) -> Element:
        """A new ``<filler>`` wrapper over freshly built annotated versions.

        ``shared`` marks the one the cache keeps: callers only read it, and
        the store only appends versions and restamps their lifespans, so a
        projection may stand on its versions instead of copying them, and
        so may the id's next version (:meth:`_grow`).  It carries the id's
        reserved tree id.
        """
        attrs = {"id": str(filler_id)}
        if not shared:
            wrapper = Element("filler", attrs)
            for version in self._annotate(fillers):
                wrapper.append(version)
            return wrapper
        wrapper = SharedElement("filler", attrs, self._tree_ids.get(filler_id))
        if fillers and self._type_of(fillers[0].tsid) is TagType.SNAPSHOT:
            wrapper.append(self._annotate(fillers)[0])
        else:
            self._grow(filler_id, wrapper, fillers, 0)
        return wrapper

    def _catch_up(self, filler_id: int, wrapper: SharedElement, fillers: list[Filler]) -> None:
        """Bring a cached wrapper up to its id's fillers, parsing only the new.

        The wrapper holds the versions of ``fillers[:held]``, at least one:
        :meth:`_written` drops every other kind.  The previous last
        version's lifespan is restamped — a temporal one closes its
        ``vtTo`` at its successor — and the rest are built, stamped and
        appended.
        """
        held = len(wrapper.children)
        self._stamp(wrapper.children[-1], fillers, held - 1)
        self._grow(filler_id, wrapper, fillers, held)

    def _grow(
        self, filler_id: int, wrapper: SharedElement, fillers: list[Filler], start: int
    ) -> None:
        """Build, stamp and append to ``wrapper`` the versions of ``fillers[start:]``.

        A payload kept as wire text is built by a :class:`TreeBuilder`.
        A temporal version whose predecessor was built that way is built on
        it (:func:`_successor`): only what the write changed is parsed.
        """
        built = self._built.pop(filler_id, None) if start else None
        for position in range(start, len(fillers)):
            version, built = self._build(fillers[position], wrapper, built)
            self._stamp(version, fillers, position)
            wrapper.append(version)
            if built is not None:
                vouch(version, built.kinds, built.loose)
        if built is not None:
            self._built[filler_id] = built

    def _build(
        self, filler: Filler, wrapper: SharedElement, built: Optional[_Built]
    ) -> tuple[Element, Optional[_Built]]:
        """An unstamped version of ``filler``, and how it was built if a successor may use it.

        ``built`` describes the wrapper's last version.  No record is
        kept for an event or snapshot version (nothing is built on it),
        nor for one whose text the offsets cannot index (non-ASCII, a
        lead before the envelope, an empty payload).
        """
        text = filler.wire_text
        if text is None:
            return filler.detached_content(), None
        temporal = self._type_of(filler.tsid) is TagType.TEMPORAL
        if built is not None and text.isascii():
            version, successor = _successor(text, wrapper.children[-1], built)
            if version is not None:
                return version, successor if temporal else None
        builder = TreeBuilder(fragment=True)
        version = builder.payload(text)
        if not temporal or builder.end < 0 or not text.isascii():
            return version, None
        body = _START_TAG.match(text, builder.head).end()
        seams = [start - body for start in builder.starts]
        seams.append(builder.end - body)
        slots = builder.slots
        slots.append(len(version.children))
        return version, _Built(
            text, builder.head, body, seams, slots, builder.kinds, builder.loose,
            dict(version.attrs),
        )

    def _annotate(self, fillers: list[Filler]) -> list[Element]:
        """Lifespan-stamped payload trees, built anew and owned by the caller."""
        if fillers and self._type_of(fillers[0].tsid) is TagType.SNAPSHOT:
            # Snapshot fragments (notably the root container) are static in
            # the temporal view: a re-published snapshot *replaces* its
            # predecessor (paper §4.1: the root "is always static"; §1:
            # removing a hole makes the children inaccessible).  Only the
            # latest version is visible.
            return [fillers[-1].detached_content()]
        versions: list[Element] = []
        for position, filler in enumerate(fillers):
            version = filler.detached_content()
            self._stamp(version, fillers, position)
            versions.append(version)
        return versions

    def _stamp(self, version: Element, fillers: list[Filler], position: int) -> None:
        """Stamp the lifespan of the version of ``fillers[position]``.

        The one copy of the rule: a snapshot version gets none, an event
        is an instant (``vtTo = vtFrom``), a temporal version lasts until
        the next version's validTime, or ``"now"`` when it is the last.
        """
        filler = fillers[position]
        tag_type = self._type_of(filler.tsid)
        if tag_type is TagType.SNAPSHOT:
            return
        valid_time = str(filler.valid_time)
        version.set("vtFrom", valid_time)
        if tag_type is TagType.EVENT:
            version.set("vtTo", valid_time)
        elif position + 1 < len(fillers):
            version.set("vtTo", str(fillers[position + 1].valid_time))
        else:
            version.set("vtTo", "now")

    def _type_of(self, tsid: int) -> TagType:
        if self.tag_structure is None:
            return TagType.TEMPORAL
        tag = self.tag_structure.get(tsid)
        return tag.type if tag is not None else TagType.TEMPORAL

    # -- temporal endpoint index ------------------------------------------------------

    def endpoint_index(
        self, filler_id: int
    ) -> Optional[tuple[list[float], list[float], bool]]:
        """Sorted lifespan endpoints of a fragment's versions, or ``None``.

        Returns ``(froms, tos, open_last)`` where ``froms[i]``/``tos[i]``
        are the epoch endpoints of version ``i``'s ``[vtFrom, vtTo)``
        lifespan.  ``froms`` *is* the memoized ingest sort key; for
        temporal fragments ``tos`` is ``froms`` shifted by one and the last
        version is open-ended (``open_last``), for events ``tos is froms``.
        ``None`` means the fragment cannot be endpoint-indexed (indexing
        disabled, unknown id, snapshot type, or a mixed-tsid bucket) and
        callers must scan.
        """
        if not self.use_index:
            return None
        entry = self._endpoint_cache.get(filler_id, _UNBUILT)
        if entry is not _UNBUILT:
            return entry
        bucket = self._by_id.get(filler_id)
        entry = None
        if bucket:
            tsid = bucket[0].tsid
            tag_type = self._type_of(tsid)
            if tag_type is not TagType.SNAPSHOT and all(
                f.tsid == tsid for f in bucket
            ):
                froms = self._sort_keys[filler_id]
                if tag_type is TagType.EVENT:
                    entry = (froms, froms, False)
                else:
                    entry = (froms, froms[1:], True)
        self._endpoint_cache[filler_id] = entry
        return entry

    def versions_in_window(
        self, filler_id: int, begin_epoch: float, end_epoch: float
    ) -> Optional[tuple[int, int]]:
        """Candidate version positions ``[lo, hi)`` for a projection window.

        The range is a *superset* of the versions an interval projection
        ``?[begin, end]`` keeps: a version survives only if its ``vtFrom``
        is at most ``end`` (right bisect over froms) and its ``vtTo``
        reaches ``begin`` (left bisect over tos; the trailing open-ended
        version is a candidate whenever its ``vtFrom`` qualifies).  Callers
        re-apply the exact half-open predicate per candidate, so boundary
        ties and float rounding can only widen the window, never lose an
        answer.  ``None`` when the fragment is not endpoint-indexed.
        """
        entry = self.endpoint_index(filler_id)
        if entry is None:
            return None
        froms, tos, _open_last = entry
        hi = bisect_right(froms, end_epoch)
        lo = bisect_left(tos, begin_epoch)
        if lo > hi:
            lo = hi
        return (lo, hi)

    def wrapper_window(
        self, element: Element, begin_epoch: float, end_epoch: float
    ) -> Optional[tuple[int, int]]:
        """`versions_in_window` for a cached ``<filler>`` wrapper element.

        Serves only wrappers this store memoized itself (identity check)
        whose children align 1:1 with the endpoint index — not one a
        write has got ahead of since it was read.  Copied or hand-built
        wrappers get ``None`` and fall back to the scan path.
        """
        try:
            filler_id = int(element.attrs["id"])
        except (KeyError, ValueError):
            return None
        if self._wrapper_cache.get(filler_id) is not element:
            return None
        window = self.versions_in_window(filler_id, begin_epoch, end_epoch)
        if window is None:
            return None
        if len(element.children) != len(self._sort_keys.get(filler_id, ())):
            return None
        return window

    def tsid_endpoints(self, tsid: int) -> list[float]:
        """Sorted validTime epochs of every filler of a tsid (read-only)."""
        return self._tsid_endpoints.get(int(tsid), _NO_ENDPOINTS)

    def tsid_endpoint_count(
        self,
        tsid: int,
        begin_epoch: Optional[float] = None,
        end_epoch: Optional[float] = None,
    ) -> int:
        """Endpoints of a tsid falling inside ``[begin, end]`` (bisected)."""
        endpoints = self._tsid_endpoints.get(int(tsid), _NO_ENDPOINTS)
        lo = 0 if begin_epoch is None else bisect_left(endpoints, begin_epoch)
        hi = len(endpoints) if end_epoch is None else bisect_right(endpoints, end_epoch)
        return max(hi - lo, 0)

    # -- watermarks (incremental consumers) ------------------------------------------------

    @property
    def seq(self) -> int:
        """Sequence number of the last accepted filler (0 when empty).

        Strictly monotone across the store's lifetime: duplicates do not
        advance it, and neither ``clear`` nor ``prune_before`` rewinds it.
        A consumer that records ``seq`` after an evaluation can later ask
        :meth:`fillers_since` for exactly the fillers it has not seen.
        """
        return self._seq

    @property
    def mutation_epoch(self) -> int:
        """Counts history rewrites (``prune_before``, ``clear``, schema swap).

        Append-only growth never bumps the epoch.  A delta consumer whose
        recorded epoch differs from the current one must discard retained
        state and re-evaluate from scratch: fillers it incorporated may
        have been dropped or re-annotated.
        """
        return self._mutation_epoch

    @property
    def watermark(self) -> tuple[int, int]:
        """The ``(seq, mutation_epoch)`` pair incremental consumers record.

        Reading both in one property keeps consumer bookkeeping atomic
        with respect to this store: a recorded watermark is always a pair
        that actually co-occurred.
        """
        return (self._seq, self._mutation_epoch)

    def fillers_since(
        self,
        seq: int,
        tsid: Optional[int] = None,
        filler_id: Optional[int] = None,
    ) -> list[Filler]:
        """Fillers accepted after watermark ``seq``, in acceptance order.

        ``tsid`` restricts the answer to one tag, ``filler_id`` to one
        fragment — together the window a delta plan's driving source
        reads.  Watermarks older than the arrival log (the log restarts on
        ``clear``/``prune_before``) return the whole log — callers detect
        that case through :attr:`mutation_epoch` and resynchronize.
        """
        start = max(0, int(seq) - self._arrival_base)
        tail = self._arrival_log[start:]
        if tsid is not None:
            tsid = int(tsid)
            tail = [filler for filler in tail if filler.tsid == tsid]
        if filler_id is not None:
            filler_id = int(filler_id)
            tail = [filler for filler in tail if filler.filler_id == filler_id]
        return tail

    def tsid_watermark(self, tsid: int) -> int:
        """The seq at which the newest filler of ``tsid`` arrived (0 = never).

        Lets a per-tsid consumer skip :meth:`fillers_since` entirely when
        ``tsid_watermark(t) <= its recorded seq`` — arrivals on other tags
        provably cannot concern it.
        """
        return self._tsid_watermark.get(int(tsid), 0)

    def tag_type_of(self, tsid: int) -> TagType:
        """The Tag Structure type governing a tsid (TEMPORAL if unknown)."""
        return self._type_of(int(tsid))

    def delta_wrappers(self, fillers: list[Filler]) -> list[Element]:
        """Fresh ``<filler>`` wrappers covering only the given fillers.

        The delta-evaluation access path: group a batch of just-arrived
        fillers by fragment id (first-arrival order, matching the tsid
        bucket order a full ``get_fillers_by_tsid`` would produce for new
        ids), order each group by validTime and annotate it exactly like
        :meth:`get_fillers` — but build the wrappers from the batch alone,
        without touching (or populating) the wrapper cache.  Callers are
        responsible for only passing batches whose delta annotation equals
        the full one (new fragment ids, or event fragments, whose version
        lifespans are position-independent).
        """
        grouped: dict[int, list[Filler]] = {}
        for filler in fillers:
            grouped.setdefault(filler.filler_id, []).append(filler)
        wrappers: list[Element] = []
        for filler_id, group in grouped.items():
            group.sort(key=lambda f: f.valid_time.to_epoch_seconds())
            wrappers.append(self._wrap(filler_id, group))
        return wrappers

    def delta_batch(
        self,
        seq: int,
        tsid: Optional[int] = None,
        filler_id: Optional[int] = None,
    ) -> tuple[list[Filler], list[Element]]:
        """``(fresh fillers, delta wrappers)`` past watermark ``seq``, memoized.

        Composes :meth:`fillers_since` and :meth:`delta_wrappers` behind a
        small LRU keyed on ``(seq, tsid, filler_id, store seq, mutation
        epoch)``.  Within one poll tick every standing query of a shared
        group sits at the same watermark, so N queries cost one wrapper
        construction instead of N; the wrappers (and the filler list) are
        shared read-only across callers.  Any ingest or history rewrite
        changes the key, so stale entries can never be served.
        """
        key = (
            int(seq),
            None if tsid is None else int(tsid),
            None if filler_id is None else int(filler_id),
            self._seq,
            self._mutation_epoch,
        )
        cached = self._delta_memo.get(key)
        if cached is not None:
            self._delta_memo.move_to_end(key)
            self._delta_memo_hits += 1
            return cached
        self._delta_memo_misses += 1
        fresh = self.fillers_since(seq, tsid=tsid, filler_id=filler_id)
        wrappers = self.delta_wrappers(fresh) if fresh else []
        self._delta_memo[key] = (fresh, wrappers)
        while len(self._delta_memo) > 64:
            self._delta_memo.popitem(last=False)
        return fresh, wrappers

    def delta_memo_info(self) -> dict[str, int]:
        """Delta-batch memo statistics: hits, misses, size."""
        return {
            "hits": self._delta_memo_hits,
            "misses": self._delta_memo_misses,
            "size": len(self._delta_memo),
        }

    # -- integrity -------------------------------------------------------------------------

    def dangling_holes(self) -> list[tuple[int, int]]:
        """Holes referencing fragments the store has never received.

        Over a lossy one-way broadcast this is the client's gap detector:
        each ``(hole_id, tsid)`` pair names a fragment that some received
        filler points at but that never arrived — content the temporal
        view silently lacks until the server repeats it.
        """
        known = set(self._by_id)
        missing: dict[int, int] = {}
        for filler in self._fillers:
            for hole in filler.holes():
                hole_id = int(hole.attrs.get("id", -1))
                if hole_id not in known:
                    missing[hole_id] = int(hole.attrs.get("tsid", 0))
        return sorted(missing.items())

    def is_complete(self) -> bool:
        """True when every referenced hole has at least one filler."""
        return not self.dangling_holes()

    # -- retention -------------------------------------------------------------------------

    def prune_before(self, horizon: XSDateTime) -> int:
        """Drop history that no query at time >= ``horizon`` can observe.

        The paper retains the complete history "since the beginning of
        time"; long-running clients may instead bound retention.  Pruning
        keeps, per fragment id, every version whose lifespan reaches
        ``horizon`` — i.e. the version current *at* the horizon and
        everything after it — and drops fully superseded older versions.
        Event fragments (single-instant lifespans) before the horizon are
        dropped entirely.

        Queries whose projection windows lie within ``[horizon, now]``
        return exactly the same results afterwards; windows reaching
        further back see truncated history.  Returns the number of fillers
        dropped.
        """
        kept: list[Filler] = []
        dropped = 0
        for filler_id, versions in list(self._by_id.items()):
            tag_type = self._type_of(versions[0].tsid) if versions else TagType.TEMPORAL
            surviving: list[Filler] = []
            for position, filler in enumerate(versions):
                if tag_type is TagType.EVENT:
                    alive = filler.valid_time >= horizon
                elif tag_type is TagType.SNAPSHOT:
                    alive = True
                else:
                    successor = versions[position + 1] if position + 1 < len(versions) else None
                    # Temporal: alive while its lifespan [t, successor) touches
                    # the horizon, i.e. no successor or successor after horizon.
                    alive = successor is None or successor.valid_time > horizon
                if alive:
                    surviving.append(filler)
                else:
                    dropped += 1
                    self._seen.discard((filler.filler_id, str(filler.valid_time)))
            if surviving:
                self._by_id[filler_id] = surviving
                self._sort_keys[filler_id] = [
                    f.valid_time.to_epoch_seconds() for f in surviving
                ]
            else:
                del self._by_id[filler_id]
                del self._tree_ids[filler_id]
                self._sort_keys.pop(filler_id, None)
            kept.extend(surviving)
            self._rewritten(filler_id)
        self._fillers = kept
        self._by_tsid.clear()
        self._tsid_endpoints.clear()
        for filler in kept:
            self._by_tsid.setdefault(filler.tsid, {})[filler.filler_id] = None
            self._tsid_endpoints.setdefault(filler.tsid, []).append(
                filler.valid_time.to_epoch_seconds()
            )
        for endpoints in self._tsid_endpoints.values():
            endpoints.sort()
        # Pruning rewrites history: retained delta results may reference
        # dropped versions, so consumers must resynchronize with a full
        # evaluation.  The arrival log restarts (seq itself never does).
        self._arrival_log.clear()
        self._arrival_base = self._seq
        self._delta_memo.clear()
        self._mutation_epoch += 1
        return dropped

    # -- hooks & export -------------------------------------------------------------------

    def hole_resolver(self, hole_id) -> list[Element]:
        """The evaluator hook: hole id -> annotated versions."""
        if hole_id is None:
            return []
        return self.versions_of(int(hole_id))

    def as_document(self) -> Document:
        """All fillers as a ``<fragments>`` document (paper's
        ``doc("fragments.xml")`` idiom)."""
        document = Document()
        root = Element("fragments")
        document.append(root)
        for filler in self._fillers:
            root.append(filler.envelope())
        return document

    # -- statistics --------------------------------------------------------------------------

    @property
    def filler_count(self) -> int:
        """Total fillers ingested (all versions)."""
        return len(self._fillers)

    @property
    def fragment_count(self) -> int:
        """Distinct fragment (filler id) count."""
        return len(self._by_id)

    @property
    def materialized_fillers(self) -> int:
        """Fillers pinning a payload DOM (0 for an untouched raw-fed store)."""
        return sum(1 for filler in self._fillers if filler.materialized)

    @property
    def cached_versions(self) -> int:
        """Version elements the wrapper cache holds (at most one per filler)."""
        return sum(len(w.children) for w in self._wrapper_cache.values())

    @property
    def wire_size(self) -> int:
        """Total bytes of all fillers as transmitted."""
        return sum(filler.wire_size for filler in self._fillers)

    def __len__(self) -> int:
        return len(self._fillers)

    def __repr__(self) -> str:
        return (
            f"<FragmentStore fillers={self.filler_count}"
            f" fragments={self.fragment_count}>"
        )
