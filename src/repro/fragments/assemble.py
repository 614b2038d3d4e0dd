"""Reconstruction of the materialized temporal view (paper §5).

``temporalize`` replaces every hole with the annotated version sequence of
its fillers, recursively, producing the complete temporal XML document the
client *could* materialize (the CaQ baseline does; QaC/QaC+ never do).

The view is built only where it differs from what the store holds: the
spine that carries holes (the root filler, ``site``, the containers) is
copied eagerly, and every stored version with nothing but elements and
text below it, none a hole, becomes a copy-on-touch ``DeferredElement``
standing on the version (``dom.nodes.stand_in``).  Serialising the view
reads those versions straight through; a query builds only the part of
them it navigates.  The store owns the versions and never patches below
one, so the view stays the snapshot of the call.  A ``use_cache=False``
store owns no version — its reads are fresh trees — so its view is a full
copy, the paper's materialization.

``schema_driven_temporalize`` is the §5.1 variant: recursion is unrolled by
walking the Tag Structure instead of discovering holes dynamically.  Both
produce identical trees; the schema-driven one exists because the paper
derives it automatically from the Tag Structure — and
``generate_reconstruction_query`` emits exactly that derived XQuery text
(the ``temporalizeCreditAccounts`` function of §5.1) for inspection and
for cross-validation against the native implementations.
"""

from __future__ import annotations

from typing import Optional

from repro.dom.nodes import (
    Comment,
    Document,
    Element,
    Node,
    ProcessingInstruction,
    Text,
    stand_in,
)
from repro.fragments.store import FragmentStore
from repro.fragments.tagstructure import TagNode, TagStructure

__all__ = [
    "temporalize",
    "schema_driven_temporalize",
    "generate_reconstruction_query",
]


def temporalize(store: FragmentStore) -> Document:
    """Materialize the temporal view from the root fragment (filler 0)."""
    document = Document()
    for version in store.versions_of(0):
        document.append(stand_in(version) or _resolve(version, store))
    return document


def _leaf(child: Node) -> Node:
    """A copy of a text, comment or processing instruction child."""
    if isinstance(child, Text):
        return Text(child.text)
    if isinstance(child, Comment):
        return Comment(child.text)
    return ProcessingInstruction(child.target, child.text)


def _resolve(element: Element, store: FragmentStore) -> Element:
    copy = Element(element.tag, element.attrs)
    for child in element.children:
        if not isinstance(child, Element):
            copy._link_child(_leaf(child))
        elif child.tag == "hole":
            for version in store.versions_of(int(child.attrs["id"])):
                copy._link_child(stand_in(version) or _resolve(version, store))
        else:
            copy._link_child(_resolve(child, store))
    return copy


def schema_driven_temporalize(store: FragmentStore, tag_structure: TagStructure) -> Document:
    """Materialize the view by walking the Tag Structure (paper §5.1).

    Instead of testing every child for being a hole, the walk *knows* from
    the schema which children are snapshot (copied inline) and which are
    fragmented (resolved through their holes' ids).
    """
    document = Document()
    root = tag_structure.root
    for version in store.versions_of(0):
        document.append(
            stand_in(version) or _schema_resolve(version, root, tag_structure, store)
        )
    return document


def _schema_resolve(
    element: Element, tag: TagNode, structure: TagStructure, store: FragmentStore
) -> Element:
    copy = Element(element.tag, element.attrs)
    fragmented = {child.name for child in tag.children if child.type.is_fragmented}
    for child in element.children:
        if not isinstance(child, Element):
            copy._link_child(_leaf(child))
        elif child.tag == "hole":
            hole_tag = _hole_tag(structure, tag, child.attrs.get("tsid"))
            for version in store.versions_of(int(child.attrs["id"])):
                built = stand_in(version)
                if built is None and hole_tag is not None:
                    built = _schema_resolve(version, hole_tag, structure, store)
                copy._link_child(built or _resolve(version, store))
        elif child.tag in fragmented:
            # A fragmented tag embedded inline would violate the schema.
            copy._link_child(_resolve(child, store))
        else:
            child_tag = tag.child(child.tag)
            if child_tag is not None:
                copy._link_child(_schema_resolve(child, child_tag, structure, store))
            else:
                copy._link_child(_resolve(child, store))
    return copy


def _hole_tag(structure: TagStructure, tag: TagNode, tsid) -> Optional[TagNode]:
    """The tag of a hole's tsid if it is ``tag`` or lies below it, else ``None``.

    One lookup by tsid and a walk up to ``tag``, not a search of the
    subtree.
    """
    if tsid is None:
        return None
    found = structure.get(tsid)
    node = found
    while node is not None and node is not tag:
        node = node.parent
    return found if node is not None else None


def generate_reconstruction_query(tag_structure: TagStructure) -> str:
    """Emit the §5.1 schema-derived reconstruction function as XQuery text.

    The generated function mirrors the paper's ``temporalizeCreditAccounts``
    example: snapshot children are copied with direct path projections,
    fragmented children resolve their holes with ``get_fillers_list`` and
    recurse structurally.
    """
    root = tag_structure.root
    body = _generate_element(root, var_index=1)
    name = f"temporalize{root.name[0].upper()}{root.name[1:]}"
    return (
        f"define function {name}($e1 as element()) as element()\n"
        f"{{ {body} }}"
    )


def _generate_element(tag: TagNode, var_index: int) -> str:
    var = f"$e{var_index}"
    inner_parts: list[str] = [f"{var}/@*" if var_index > 1 else ""]
    snapshot_children = [c for c in tag.children if not c.type.is_fragmented]
    fragmented_children = [c for c in tag.children if c.type.is_fragmented]
    for child in snapshot_children:
        inner_parts.append(f"{var}/{child.name}")
    if fragmented_children:
        child_var = f"$e{var_index + 1}"
        branches = []
        for child in fragmented_children:
            nested = _generate_fragmented(child, var_index + 1)
            branches.append((child.name, nested))
        if len(branches) == 1:
            name, nested = branches[0]
            loop = (
                f"for {child_var} in get_fillers_list({var}/hole/@id)/{name}\n"
                f"    return {nested}"
            )
        else:
            conditions = []
            for index, (name, nested) in enumerate(branches):
                test = f'if (name({child_var}) = "{name}") then {nested}'
                conditions.append(test if index < len(branches) - 1 else f"else {nested}")
            chained = "\n      ".join(
                conditions[:-1] + [conditions[-1].replace("if (", "else if (", 1)]
                if len(conditions) > 2
                else conditions
            )
            loop = (
                f"for {child_var} in get_fillers_list({var}/hole/@id)/*\n"
                f"    return {chained}"
            )
        inner_parts.append(loop)
    inner = ",\n    ".join(part for part in inner_parts if part)
    return f"<{tag.name}>\n  {{ {inner} }}\n  </{tag.name}>"


def _generate_fragmented(tag: TagNode, var_index: int) -> str:
    if not tag.children:
        return f"$e{var_index}"
    return _generate_element(tag, var_index)
