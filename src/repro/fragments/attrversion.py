"""Attribute versioning through pseudo-elements (paper §8 future work).

The paper does not version attributes; it notes that "we can accommodate
attribute versioning in our existing framework by versioning the elements
having the attributes" and that τXQuery "handled attribute versioning by
constructing pseudo-elements to capture the time extents of temporal
element attributes".  This module implements exactly that extension:

- a versioned attribute ``name`` of tag ``T`` is *promoted* to a child
  pseudo-element ``<attr:name>value</attr:name>`` declared ``temporal`` in
  the Tag Structure, so it fragments, versions and projects like any other
  temporal child — ``$a/attr:tier?[now]`` reads the current value,
  ``$a/attr:tier?[t]`` the historical one;
- *demotion* collapses the current pseudo-element version back into a real
  attribute, for rendering a snapshot of the view at some instant.

The ``attr:`` prefix cannot collide with real element names from a DTD
(colons in the prefix position are namespace-reserved).
"""

from __future__ import annotations

from repro.dom.nodes import Element, Text
from repro.fragments.tagstructure import TagNode, TagStructure, TagType
from repro.xquery.temporal_functions import interval_project_nodes
from repro.temporal.chrono import XSDateTime

__all__ = [
    "PSEUDO_PREFIX",
    "pseudo_name",
    "is_pseudo",
    "attribute_of",
    "promote_attributes",
    "demote_attributes",
    "with_versioned_attributes",
]

PSEUDO_PREFIX = "attr:"


def pseudo_name(attribute: str) -> str:
    """The pseudo-element tag for an attribute name."""
    return PSEUDO_PREFIX + attribute


def is_pseudo(tag: str) -> bool:
    """True for pseudo-element tags produced by promotion."""
    return tag.startswith(PSEUDO_PREFIX)


def attribute_of(tag: str) -> str:
    """Inverse of :func:`pseudo_name`."""
    if not is_pseudo(tag):
        raise ValueError(f"{tag!r} is not an attribute pseudo-element")
    return tag[len(PSEUDO_PREFIX):]


def promote_attributes(element: Element, names: list[str]) -> Element:
    """A copy of ``element`` with the listed attributes as pseudo-children.

    Missing attributes are skipped; already-promoted attributes are left
    alone (the operation is idempotent).  Lifespan attributes (vtFrom/vtTo)
    carried by the element are untouched — they belong to the element.
    """
    copy = element.copy()
    existing = {child.tag for child in copy.child_elements()}
    for name in names:
        value = copy.attrs.pop(name, None)
        if value is None or pseudo_name(name) in existing:
            continue
        pseudo = Element(pseudo_name(name))
        pseudo.append(Text(value))
        copy.insert(0, pseudo)
    return copy


def demote_attributes(element: Element, now: XSDateTime, ctx=None) -> Element:
    """Collapse current pseudo-element versions back into attributes.

    Each pseudo-element child group is interval-projected to ``[now,now]``;
    the surviving (current) version's text becomes the attribute value.
    Pseudo-elements with no current version produce no attribute.  The walk
    recurses so a whole snapshot of the view demotes in one call.
    """
    from repro.xquery.evaluator import Context

    if ctx is None:
        ctx = Context(now=now)
    copy = Element(element.tag, element.attrs)
    for child in element.children:
        if isinstance(child, Text):
            copy.append(Text(child.text))
            continue
        if not isinstance(child, Element):
            continue
        if is_pseudo(child.tag):
            current = interval_project_nodes([child], now, now, ctx)
            if current:
                copy.set(attribute_of(child.tag), current[0].string_value().strip())
            continue
        copy.append(demote_attributes(child, now, ctx))
    return copy


def with_versioned_attributes(
    structure: TagStructure, versioned: dict[str, list[str]]
) -> TagStructure:
    """A new Tag Structure with pseudo-element tags declared temporal.

    ``versioned`` maps tag names to the attribute names to version, e.g.
    ``{"account": ["tier"]}``.  Pseudo-tags receive fresh tsids above the
    existing range (preorder-stable per tag).
    """
    next_tsid = max(tag.tsid for tag in structure.all_tags()) + 1

    def rebuild(tag: TagNode) -> TagNode:
        nonlocal next_tsid
        node = TagNode(tag.tsid, tag.name, tag.type)
        for attribute in versioned.get(tag.name, ()):  # pseudo children first
            pseudo = TagNode(next_tsid, pseudo_name(attribute), TagType.TEMPORAL)
            next_tsid += 1
            node.add(pseudo)
        for child in tag.children:
            node.add(rebuild(child))
        return node

    return TagStructure(rebuild(structure.root))
