"""The Tag Structure: the stream's structural summary (paper §4.1).

The Tag Structure is a tree of ``<tag type=... id=... name=...>`` elements
describing every valid path in the stream's data.  Each tag carries one of
three fragment roles:

- ``snapshot`` — a regular element with no temporal dimension; always
  embedded inline in its parent fragment (or the static root);
- ``temporal`` — an element with a ``[vtFrom, vtTo]`` lifespan, streamed as
  its own filler; new versions replace old ones;
- ``event`` — an element valid at a single instant, streamed as its own
  filler.

Documents are fragmented exactly at ``temporal`` and ``event`` tags.  The
``tsid`` (tag structure id) stamped on every filler lets QaC+ fetch exactly
the fillers a query path needs without any hole reconciliation.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterator, Optional, Union

from repro.dom.dtd import DTD
from repro.dom.nodes import Element
from repro.dom.parser import parse_fragment

__all__ = ["TagType", "TagNode", "TagStructure", "TagStructureError"]


class TagStructureError(ValueError):
    """Raised for malformed tag structures or unknown paths."""


class TagType(Enum):
    """The fragment role of a tag (paper §4.1)."""

    SNAPSHOT = "snapshot"
    TEMPORAL = "temporal"
    EVENT = "event"

    @property
    def is_fragmented(self) -> bool:
        """True when elements of this tag travel as their own fillers."""
        return self is not TagType.SNAPSHOT


class TagNode:
    """One tag declaration in the Tag Structure tree."""

    __slots__ = ("tsid", "name", "type", "children", "parent")

    def __init__(self, tsid: int, name: str, type: TagType):
        self.tsid = tsid
        self.name = name
        self.type = type
        self.children: list[TagNode] = []
        self.parent: Optional[TagNode] = None

    def add(self, child: "TagNode") -> "TagNode":
        """Attach a child tag and return it."""
        child.parent = self
        self.children.append(child)
        return child

    def child(self, name: str) -> Optional["TagNode"]:
        """The direct child tag with the given name, if declared."""
        for child in self.children:
            if child.name == name:
                return child
        return None

    def descendants_named(self, name: str) -> list["TagNode"]:
        """All descendant tags (self included) with the given name.

        Used to expand ``//name`` wild-card paths against the schema
        (paper §4.1: "the Tag Structure is used while expanding wild-card
        path selections").
        """
        out = []
        for node in self.walk():
            if node.name == name:
                out.append(node)
        return out

    def walk(self) -> Iterator["TagNode"]:
        """This tag and all descendants, preorder."""
        yield self
        for child in self.children:
            yield from child.walk()

    def path(self) -> str:
        """The slash path from the root to this tag."""
        parts = []
        node: Optional[TagNode] = self
        while node is not None:
            parts.append(node.name)
            node = node.parent
        return "/" + "/".join(reversed(parts))

    def nearest_fragmented_ancestor(self) -> Optional["TagNode"]:
        """The closest ancestor that is itself a filler boundary."""
        node = self.parent
        while node is not None:
            if node.type.is_fragmented:
                return node
            node = node.parent
        return None

    def __repr__(self) -> str:
        return f"<TagNode {self.tsid} {self.name!r} {self.type.value}>"


class TagStructure:
    """The complete structural summary of one stream."""

    def __init__(self, root: TagNode):
        self.root = root
        self._by_id: dict[int, TagNode] = {}
        for node in root.walk():
            if node.tsid in self._by_id:
                raise TagStructureError(f"duplicate tsid {node.tsid}")
            self._by_id[node.tsid] = node

    # -- construction ----------------------------------------------------------

    @classmethod
    def build(cls, spec: dict) -> "TagStructure":
        """Build from a nested dict spec.

        The spec looks like ``{"name": ..., "type": "snapshot",
        "children": [...]}``; tsids are assigned in preorder starting at 1
        unless given explicitly with an ``"id"`` key.
        """
        counter = [0]

        def make(node_spec: dict) -> TagNode:
            counter[0] += 1
            tsid = int(node_spec.get("id", counter[0]))
            node = TagNode(
                tsid, node_spec["name"], TagType(node_spec.get("type", "snapshot"))
            )
            for child_spec in node_spec.get("children", ()):
                node.add(make(child_spec))
            return node

        return cls(make(spec))

    @classmethod
    def from_xml(cls, source: Union[str, Element]) -> "TagStructure":
        """Parse the paper's ``<stream:structure>`` XML representation."""
        if isinstance(source, str):
            nodes = [n for n in parse_fragment(source) if isinstance(n, Element)]
            if len(nodes) != 1:
                raise TagStructureError("expected a single root element")
            element = nodes[0]
        else:
            element = source
        if element.tag in ("stream:structure", "structure", "tagStructure"):
            tags = element.child_elements("tag")
            if len(tags) != 1:
                raise TagStructureError("expected exactly one root <tag>")
            element = tags[0]
        if element.tag != "tag":
            raise TagStructureError(f"expected <tag>, got <{element.tag}>")

        def make(tag_el: Element) -> TagNode:
            try:
                node = TagNode(
                    int(tag_el.attrs["id"]),
                    tag_el.attrs["name"],
                    TagType(tag_el.attrs["type"]),
                )
            except KeyError as exc:
                raise TagStructureError(f"tag missing attribute {exc}") from exc
            for child in tag_el.child_elements("tag"):
                node.add(make(child))
            return node

        return cls(make(element))

    @classmethod
    def from_dtd(cls, dtd: DTD, roles: dict[str, str]) -> "TagStructure":
        """Derive a Tag Structure from a DTD plus a tag-role mapping.

        ``roles`` maps element names to ``"snapshot"``/``"temporal"``/
        ``"event"``; unlisted elements default to snapshot.
        """
        counter = [0]

        def make(name: str, seen: frozenset[str]) -> TagNode:
            if name in seen:
                raise TagStructureError(
                    f"recursive element {name!r}: recursive schemas are not "
                    "supported (paper §8 future work)"
                )
            counter[0] += 1
            node = TagNode(counter[0], name, TagType(roles.get(name, "snapshot")))
            for child_name in dtd.child_names(name):
                node.add(make(child_name, seen | {name}))
            return node

        return cls(make(dtd.root, frozenset()))

    # -- serialization -------------------------------------------------------------

    def to_xml(self) -> Element:
        """Render as the paper's ``<stream:structure>`` element."""
        wrapper = Element("stream:structure")

        def render(node: TagNode) -> Element:
            element = Element(
                "tag",
                {"type": node.type.value, "id": str(node.tsid), "name": node.name},
            )
            for child in node.children:
                element.append(render(child))
            return element

        wrapper.append(render(self.root))
        return wrapper

    # -- lookup ------------------------------------------------------------------------

    def by_id(self, tsid: int) -> TagNode:
        """The tag with the given tsid."""
        try:
            return self._by_id[int(tsid)]
        except KeyError:
            raise TagStructureError(f"unknown tsid {tsid}") from None

    def get(self, tsid: int) -> Optional[TagNode]:
        """The tag with the given tsid, or None."""
        return self._by_id.get(int(tsid))

    def resolve_path(self, names: list[str]) -> TagNode:
        """Resolve a root-anchored name path (``["creditAccounts",
        "account"]``) to its tag."""
        if not names or names[0] != self.root.name:
            raise TagStructureError(f"path does not start at root: {names}")
        node = self.root
        for name in names[1:]:
            child = node.child(name)
            if child is None:
                raise TagStructureError(f"no tag {name!r} under {node.path()}")
            node = child
        return node

    def all_tags(self) -> list[TagNode]:
        """Every tag, preorder."""
        return list(self.root.walk())

    def fragmented_tags(self) -> list[TagNode]:
        """All tags that produce fillers (temporal + event)."""
        return [node for node in self.root.walk() if node.type.is_fragmented]

    def __len__(self) -> int:
        return len(self._by_id)

    def __repr__(self) -> str:
        return f"<TagStructure root={self.root.name!r} tags={len(self)}>"
