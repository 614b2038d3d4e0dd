"""XML node model with parent links and document order.

XQuery path evaluation needs four things from the node model: child/parent
navigation, attributes, string values, and a stable *document order* so that
path results can be returned sorted and de-duplicated.  Document order is
realized with per-tree monotone serial numbers that are renumbered lazily
after structural mutation.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, Iterator, Optional

__all__ = [
    "Node",
    "Document",
    "Element",
    "SharedElement",
    "DeferredElement",
    "Text",
    "Comment",
    "ProcessingInstruction",
    "Attr",
    "document_order_key",
    "sort_document_order",
    "new_tree_id",
    "copier",
    "stored_verdict",
    "stand_in",
    "in_tree_order",
    "PLAIN",
    "TIMED",
    "MIXED",
    "carry",
    "vouch",
]

_tree_ids = itertools.count(1)


def new_tree_id() -> int:
    """A tree id no tree holds yet: document order ranks trees by these."""
    return next(_tree_ids)


# Shared empty result for named-child lookups; never mutated.
_NO_ELEMENTS: list = []


class Node:
    """Base class for all tree nodes."""

    __slots__ = ("parent", "_serial")

    def __init__(self) -> None:
        self.parent: Optional[_Container] = None
        self._serial: int = 0

    # -- tree structure -------------------------------------------------------

    @property
    def children(self) -> list["Node"]:
        """Child nodes (empty for leaves)."""
        return []

    def root(self) -> "Node":
        """The topmost ancestor of this node (the node itself if detached)."""
        node: Node = self
        while node.parent is not None:
            node = node.parent
        return node

    # -- values ----------------------------------------------------------------

    def string_value(self) -> str:
        """The XPath string value (concatenated descendant text)."""
        raise NotImplementedError

    def children_named(self, tag: str) -> list["Element"]:
        """Direct child elements with this tag (leaves have none).

        Containers answer from a lazily built per-node tag index that is
        dropped on any child-list mutation, so repeated named-child steps
        (the hottest operation in compiled query plans) cost one dict
        lookup instead of a scan.  Callers must treat the result as
        read-only; it is shared between calls.
        """
        return _NO_ELEMENTS

    # -- document order ----------------------------------------------------------

    def _order(self) -> tuple[int, int]:
        root = self.root()
        if isinstance(root, _Container) and root._dirty:
            root._renumber()
        tree_id = root._tree_id if isinstance(root, _Container) else id(root)
        return (tree_id, self._serial)


class _Container(Node):
    """A node that owns an ordered list of children."""

    __slots__ = ("_children", "_tree_id", "_dirty", "_tag_index")

    def __init__(self) -> None:
        super().__init__()
        self._children: list[Node] = []
        self._tree_id = next(_tree_ids)
        self._dirty = True
        self._tag_index: Optional[dict[str, list["Element"]]] = None

    @property
    def children(self) -> list[Node]:
        return self._children

    def peek_children(self) -> list[Node]:
        """The children for a read-only walk that keeps no node.

        Same nodes as :attr:`children` here; a :class:`DeferredElement`
        nothing has navigated answers with its source's instead of
        building its own.
        """
        return self._children

    def children_named(self, tag: str) -> list["Element"]:
        index = self._tag_index
        if index is None:
            index = {}
            for child in self._children:
                if isinstance(child, Element):
                    index.setdefault(child.tag, []).append(child)
            self._tag_index = index
        return index.get(tag, _NO_ELEMENTS)

    def append(self, node: Node) -> Node:
        """Attach ``node`` as the last child and return it."""
        if node.parent is not None:
            node.parent.remove(node)
        node.parent = self
        self._children.append(node)
        self._tag_index = None
        self._mark_dirty()
        return node

    def insert(self, index: int, node: Node) -> Node:
        """Attach ``node`` at position ``index`` and return it."""
        if node.parent is not None:
            node.parent.remove(node)
        node.parent = self
        self._children.insert(index, node)
        self._tag_index = None
        self._mark_dirty()
        return node

    def remove(self, node: Node) -> None:
        """Detach a direct child."""
        self._children.remove(node)
        node.parent = None
        self._tag_index = None
        self._mark_dirty()

    def extend(self, nodes: Iterable[Node]) -> None:
        """Append each node in order."""
        for node in nodes:
            self.append(node)

    def _link_child(self, node: Node) -> None:
        """Builder primitive: ``append`` for a tree still under construction.

        Precondition, not checked: ``node`` is detached, and this
        container is a detached root that nothing has navigated yet — so
        it is still dirty and has no tag index, and there is no old
        parent to leave, no index to reset and no root to walk to.
        Callers are the tree builders ``repro-lint`` lists; everyone
        else uses :meth:`append`.
        """
        node.parent = self
        self._children.append(node)

    def _mark_dirty(self) -> None:
        root = self.root()
        if isinstance(root, _Container):
            root._dirty = True

    def _renumber(self) -> None:
        # A copy nothing has navigated is a leaf here: numbering builds no
        # node, and its first build marks the root dirty again.
        serial = itertools.count()
        stack: list[Node] = [self]
        while stack:
            node = stack.pop()
            node._serial = next(serial)
            if isinstance(node, _Container) and (
                type(node) is not DeferredElement or node._source is None
            ):
                stack.extend(reversed(node._children))
        self._dirty = False

    # -- traversal ---------------------------------------------------------------

    def iter(self) -> Iterator[Node]:
        """This node followed by all descendants in document order."""
        return _walk(self)

    def string_value(self) -> str:
        return "".join(
            node.text for node in _walk(self) if isinstance(node, Text)
        )


def _walk(node: Node) -> Iterator[Node]:
    stack = [node]
    while stack:
        current = stack.pop()
        yield current
        stack.extend(reversed(current.children))


class Document(_Container):
    """A document node; its single element child is the document element."""

    __slots__ = ()

    @property
    def document_element(self) -> Optional["Element"]:
        """The root element, or ``None`` for an empty document."""
        for child in self._children:
            if isinstance(child, Element):
                return child
        return None

    def __repr__(self) -> str:
        root = self.document_element
        return f"<Document root={root.tag if root else None!r}>"


_LIFESPAN_ATTRS = frozenset(("vtFrom", "vtTo", "validTime"))


class Element(_Container):
    """An element with a tag name, ordered attributes and children."""

    __slots__ = ("tag", "attrs", "_lifespan")

    def __init__(self, tag: str, attrs: Optional[dict[str, str]] = None):
        # Every slot is set here, not through the base constructors: one
        # call per node instead of three on the builders' hot path.
        self.parent = None
        self._serial = 0
        self._children = []
        self._tree_id = next(_tree_ids)
        self._dirty = True
        self._tag_index = None
        self.tag = tag
        self.attrs: dict[str, str] = dict(attrs) if attrs else {}
        # Memoized parsed lifespan (a TimeInterval, False for "no temporal
        # attributes", or None when not yet computed).  Owned by
        # repro.xquery.temporal_functions; dropped whenever a temporal
        # attribute is (re)assigned through set().
        self._lifespan = None

    # -- attribute helpers --------------------------------------------------------

    def get(self, name: str, default: Optional[str] = None) -> Optional[str]:
        """Attribute value by name."""
        return self.attrs.get(name, default)

    def set(self, name: str, value: str) -> None:
        """Set an attribute."""
        self.attrs[name] = str(value)
        if self._lifespan is not None and name in _LIFESPAN_ATTRS:
            self._lifespan = None

    def attribute_nodes(self) -> list["Attr"]:
        """Attributes wrapped as nodes (for ``@name`` path steps)."""
        return [Attr(name, value, self) for name, value in self.attrs.items()]

    # -- child helpers --------------------------------------------------------------

    def child_elements(self, tag: Optional[str] = None) -> list["Element"]:
        """Direct child elements, optionally filtered by tag name."""
        return [
            child
            for child in self._children
            if isinstance(child, Element) and (tag is None or child.tag == tag)
        ]

    def first(self, tag: str) -> Optional["Element"]:
        """First direct child element with the given tag, if any."""
        for child in self._children:
            if isinstance(child, Element) and child.tag == tag:
                return child
        return None

    def text(self) -> str:
        """Concatenated text of *direct* text children."""
        return "".join(
            child.text for child in self._children if isinstance(child, Text)
        )

    def add_text(self, text: str) -> "Element":
        """Append a text child and return self (builder convenience)."""
        self.append(Text(text))
        return self

    def copy(self, deep: bool = True) -> "Element":
        """A detached copy of this element (deep by default)."""
        clone = Element(self.tag, self.attrs)
        if deep:
            link = clone._link_child
            for child in self._children:
                if isinstance(child, Element):
                    link(child.copy())
                elif isinstance(child, Text):
                    link(Text(child.text))
                elif isinstance(child, Comment):
                    link(Comment(child.text))
                elif isinstance(child, ProcessingInstruction):
                    link(ProcessingInstruction(child.target, child.text))
        return clone

    def __repr__(self) -> str:
        return f"<Element {self.tag!r} attrs={self.attrs} children={len(self._children)}>"


class SharedElement(Element):
    """An element whose subtree is shared and read-only for its readers.

    The fragment store caches its ``<filler>`` wrappers as these.  Only
    the store changes one, and only at the top: it appends versions and
    restamps a version's own lifespan attributes, it never patches what
    lies below a version.  So a reader may keep per-child facts about
    those subtrees in ``memo`` for the life of the tree, and a
    :class:`DeferredElement` may stand on a child.  ``tree_id`` places
    the tree in document order (the store reserves one per filler id);
    :meth:`disown` moves a tree its owner stopped serving out of that
    place.  Weakly referenceable, so a test can watch one die.
    """

    __slots__ = ("memo", "__weakref__")

    def __init__(
        self,
        tag: str,
        attrs: Optional[dict[str, str]] = None,
        tree_id: Optional[int] = None,
    ):
        super().__init__(tag, attrs)
        if tree_id is not None:
            self._tree_id = tree_id
        self.memo: dict = {}

    def disown(self) -> None:
        """Rank this tree after every tree so far in document order.

        Called by the owner when it drops the tree: whoever still holds
        it keeps a consistent order, and it can never tie with the tree
        built in its place under the same reserved id.
        """
        self._tree_id = next(_tree_ids)


class DeferredElement(Element):
    """A copy of ``source`` whose child list is built on first access.

    ``source`` is an element with nothing but elements and text below it,
    from a source nobody changes again — a version of a
    :class:`SharedElement` tree, a child of an earlier stored version
    (the store's stand-ins, :func:`carry`), or a tree only :func:`copier`
    holds; the caller vouches for both.  The copy has its own tag and
    attributes from the start, so a later restamp of the source's lifespan
    never reaches it; what it reads from the source — the subtree below —
    is never patched.  Its
    ``_children`` slot stays unset until something reads it — then
    ``__getattr__`` fills it with copies one level deep (deferred again
    where they have children of their own), parented here, marks its root
    for renumbering and drops the source.  A source child that is itself
    an untouched copy is not built for that: the new copy stands on that
    copy's own source.  From that point this is an ordinary element of
    its own tree; before it, :meth:`peek_children` and :meth:`copy` answer
    from the source without building anything, and document order numbers
    it as a leaf.
    """

    __slots__ = ("_source",)

    def __init__(self, tag: str, attrs: dict[str, str], source: Element):
        # Every slot but ``_children``, as Element.__init__ sets them.
        self.parent = None
        self._serial = 0
        self._tree_id = next(_tree_ids)
        self._dirty = True
        self._tag_index = None
        self.tag = tag
        self.attrs = dict(attrs)
        self._lifespan = None
        self._source: Optional[Element] = source

    def __getattr__(self, name: str):
        # Reached only for an unset slot: ``_children`` before first touch.
        if name != "_children":
            raise AttributeError(name)
        children: list[Node] = []
        for child in self._source._children:
            if not isinstance(child, Element):
                built: Node = Text(child.text)
            elif type(child) is DeferredElement and child._source is not None:
                built = DeferredElement(child.tag, child.attrs, child._source)
            elif child._children:
                built = DeferredElement(child.tag, child.attrs, child)
            else:
                built = Element(child.tag, child.attrs)
            built.parent = self
            children.append(built)
        self._children = children
        self._source = None
        self._mark_dirty()
        return children

    def peek_children(self) -> list[Node]:
        source = self._source
        return self._children if source is None else source._children

    def copy(self, deep: bool = True) -> "Element":
        source = self._source
        if deep and source is not None:
            return DeferredElement(self.tag, self.attrs, source)
        return super().copy(deep)

    def __repr__(self) -> str:
        if self._source is not None:
            return f"<Element {self.tag!r} attrs={self.attrs} children=deferred>"
        return super().__repr__()


def copier(element: Element) -> Callable[[], Element]:
    """Copies of ``element`` on demand, for a tree nobody changes again.

    With nothing but elements and text below ``element``, each call
    returns a :class:`DeferredElement` standing on it: built one level
    per touch, serialised straight through while untouched.  Otherwise
    each call is an eager :meth:`Element.copy`.  The check runs once,
    here, not once per copy; the caller must keep ``element`` from
    everyone who could change it.
    """
    if all(isinstance(node, (Element, Text)) for node in element.iter()):
        tag, attrs = element.tag, element.attrs
        return lambda: DeferredElement(tag, attrs, element)
    return element.copy


#: What :func:`stored_verdict` answers where a reader must copy.
_NOT_PLAIN = (False, False)


def stored_verdict(node: Node) -> tuple[bool, bool]:
    """``(plain, timeless)``: what a reader may stand on below ``node``.

    ``plain`` when ``node`` is a version in a :class:`SharedElement`
    wrapper with nothing but elements and text below it, none a
    ``<hole>``; ``timeless`` when, besides, none of those elements carries
    a lifespan attribute of its own.  Any other node gets
    ``(False, False)``.  One walk decides both, once per version: the
    wrapper's ``memo`` keeps the answer, and what lies below a version
    never changes.
    """
    wrapper = node.parent
    if type(wrapper) is not SharedElement:
        return _NOT_PLAIN
    verdict = wrapper.memo.get(node)
    if verdict is None:
        verdict = wrapper.memo[node] = _below(node)
    return verdict


def _below(node: Node) -> tuple[bool, bool]:
    """The walk behind :func:`stored_verdict`.

    Children are read in place, and an untouched copy through its source
    (it is not built); only an element with children of its own waits on
    the stack.
    """
    timeless = True
    stack = [node]
    while stack:
        for below in stack.pop().peek_children():
            kind = type(below)
            if kind is Text:
                continue
            if (kind is not Element and kind is not DeferredElement) or below.tag == "hole":
                return _NOT_PLAIN
            if timeless and below.attrs and not _LIFESPAN_ATTRS.isdisjoint(below.attrs):
                timeless = False
            if below.peek_children():
                stack.append(below)
    return (True, timeless)


def stand_in(version: Element) -> Optional[DeferredElement]:
    """A copy of a stored version that reads through until touched.

    A :class:`DeferredElement` on ``version`` when :func:`stored_verdict`
    finds it plain, ``None`` when the caller must copy it itself.
    """
    if stored_verdict(version)[0]:
        return DeferredElement(version.tag, version.attrs, version)
    return None


def _reused(element: Element) -> DeferredElement:
    """A copy of ``element``, from a source nobody changes, that reads through.

    A :class:`DeferredElement` on ``element`` — or, while it is an
    untouched copy itself, on its source, so that reading it never builds
    it.  Until touched it holds no child list, not even an empty one.
    """
    if type(element) is DeferredElement and element._source is not None:
        return DeferredElement(element.tag, element.attrs, element._source)
    return DeferredElement(element.tag, element.attrs, element)


#: What lies below a child element of a stored version, itself included,
#: as the store's builder records it: nothing but elements and text
#: (``PLAIN``), some of them with a lifespan attribute (``TIMED``), or a
#: comment, a processing instruction or a ``<hole>`` (``MIXED``).
PLAIN, TIMED, MIXED = 0, 1, 2

_PLAIN_TIMELESS = (True, True)
_PLAIN_TIMED = (True, False)


def carry(version: Element, nodes: list[Node], kinds: list[int]) -> bool:
    """Builder primitive: link copies of a stored version's ``nodes`` into ``version``.

    ``version`` is the next version of the same id, still under
    construction (a detached root nothing has navigated); ``nodes`` are
    children of its predecessor that its write left unchanged, and
    ``kinds`` says what lies below each element among them.  Text,
    comments and processing instructions are copied; an element that is
    not ``MIXED`` becomes a stand-in that reads the predecessor's child
    through until touched (one node however large the child, and no child
    list), and a ``MIXED`` one is copied eagerly.  Returns whether a comment or a
    processing instruction was among ``nodes``.
    """
    link = version._link_child
    kind_of = iter(kinds)
    loose = False
    for node in nodes:
        kind = type(node)
        if kind is Text:
            link(Text(node.text))
        elif isinstance(node, Element):
            link(node.copy() if next(kind_of) == MIXED else _reused(node))
        elif kind is Comment:
            link(Comment(node.text))
            loose = True
        else:
            link(ProcessingInstruction(node.target, node.text))
            loose = True
    return loose


def vouch(version: Element, kinds: list[int], loose: bool) -> None:
    """File what :func:`stored_verdict` would find below a stored version.

    The store's builder saw everything below ``version`` as it built it:
    ``kinds`` per child element, ``loose`` whether a comment or a
    processing instruction is a child of its own.  ``version`` must sit
    in its :class:`SharedElement` wrapper; no walk is needed after this.
    """
    worst = max(kinds, default=PLAIN)
    if loose or worst == MIXED:
        verdict = _NOT_PLAIN
    else:
        verdict = _PLAIN_TIMELESS if worst == PLAIN else _PLAIN_TIMED
    version.parent.memo[version] = verdict


class Text(Node):
    """A text node."""

    __slots__ = ("text",)

    def __init__(self, text: str):
        self.parent = None
        self._serial = 0
        self.text = str(text)

    def string_value(self) -> str:
        return self.text

    def __repr__(self) -> str:
        return f"<Text {self.text!r}>"


class Comment(Node):
    """A comment node (``<!-- ... -->``)."""

    __slots__ = ("text",)

    def __init__(self, text: str):
        super().__init__()
        self.text = text

    def string_value(self) -> str:
        return self.text

    def __repr__(self) -> str:
        return f"<Comment {self.text!r}>"


class ProcessingInstruction(Node):
    """A processing instruction (``<?target data?>``)."""

    __slots__ = ("target", "text")

    def __init__(self, target: str, text: str = ""):
        super().__init__()
        self.target = target
        self.text = text

    def string_value(self) -> str:
        return self.text

    def __repr__(self) -> str:
        return f"<PI {self.target!r} {self.text!r}>"


class Attr(Node):
    """An attribute projected as a node by an ``@name`` step.

    Attribute nodes are ephemeral wrappers over the owning element's
    ``attrs`` mapping; they compare equal when they wrap the same attribute
    of the same element.
    """

    __slots__ = ("name", "value", "owner")

    def __init__(self, name: str, value: str, owner: Optional[Element] = None):
        super().__init__()
        self.name = name
        self.value = value
        self.owner = owner

    def string_value(self) -> str:
        return self.value

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Attr):
            return NotImplemented
        return self.name == other.name and self.owner is other.owner

    def __hash__(self) -> int:
        return hash((self.name, id(self.owner)))

    def _order(self) -> tuple[int, int]:
        if self.owner is not None:
            tree, serial = self.owner._order()
            return (tree, serial)
        return (id(self), 0)

    def __repr__(self) -> str:
        return f"<Attr {self.name}={self.value!r}>"


def document_order_key(node: Node) -> tuple[int, int]:
    """A sort key realizing document order (stable across one tree)."""
    return node._order()


def sort_document_order(nodes: Iterable[Node]) -> list[Node]:
    """Sort nodes into document order and drop duplicates (identity-based)."""
    seen: set[int] = set()
    unique: list[Node] = []
    for node in nodes:
        if id(node) not in seen:
            seen.add(id(node))
            unique.append(node)
    unique.sort(key=document_order_key)
    return unique


def in_tree_order(nodes: list) -> bool:
    """Whether ``nodes`` are parentless trees in strictly rising tree-id order.

    Such a sequence is in document order and holds no node twice, and so
    does what child steps from it select: each tree's children come in
    order, and every node of one tree precedes every node of the next.
    """
    last = 0
    for node in nodes:
        if not isinstance(node, _Container) or node.parent is not None:
            return False
        tree_id = node._tree_id
        if tree_id <= last:
            return False
        last = tree_id
    return True
