"""Serialization of :mod:`repro.dom.nodes` trees back to XML text."""

from __future__ import annotations

from typing import Optional

from repro.dom.nodes import (
    Attr,
    Comment,
    Document,
    Element,
    Node,
    ProcessingInstruction,
    Text,
)

__all__ = ["serialize", "escape_text", "escape_attribute"]


def escape_text(text: str) -> str:
    """Escape character data (``&``, ``<``, ``>``, and ``\\r``, which a
    conforming parser would read back as ``\\n``)."""
    return (
        text.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace("\r", "&#13;")
    )


def escape_attribute(value: str) -> str:
    """Escape an attribute value for double-quoted output.

    Tab, newline and carriage return are written as references, which
    read back as themselves; written literally, a conforming parser
    would read each as a space.
    """
    return (
        value.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace('"', "&quot;")
        .replace("\t", "&#9;")
        .replace("\n", "&#10;")
        .replace("\r", "&#13;")
    )


def serialize(
    node: Node,
    indent: Optional[str] = None,
    xml_declaration: bool = False,
) -> str:
    """Serialize a node (or document) to a string.

    ``indent`` enables pretty-printing with the given unit (e.g. ``"  "``);
    text nodes suppress indentation of their element to keep mixed content
    intact.  ``xml_declaration`` prepends ``<?xml version="1.0"?>``.
    """
    out: list[str] = []
    if xml_declaration:
        out.append('<?xml version="1.0" encoding="UTF-8"?>')
        out.append("\n" if indent is not None else "")
    _write(node, out, indent, 0)
    return "".join(out)


def _write(node: Node, out: list[str], indent: Optional[str], depth: int) -> None:
    if isinstance(node, Document):
        for i, child in enumerate(node.children):
            if indent is not None and i > 0:
                out.append("\n")
            _write(child, out, indent, depth)
        return
    if isinstance(node, Text):
        out.append(escape_text(node.text))
        return
    if isinstance(node, Comment):
        out.append(f"<!--{node.text}-->")
        return
    if isinstance(node, ProcessingInstruction):
        body = f" {node.text}" if node.text else ""
        out.append(f"<?{node.target}{body}?>")
        return
    if isinstance(node, Attr):
        out.append(f'{node.name}="{escape_attribute(node.value)}"')
        return
    if isinstance(node, Element):
        _write_element(node, out, indent, depth)
        return
    raise TypeError(f"cannot serialize {type(node).__name__}")


def _write_element(
    element: Element, out: list[str], indent: Optional[str], depth: int
) -> None:
    attrs = "".join(
        f' {name}="{escape_attribute(value)}"' for name, value in element.attrs.items()
    )
    # Read through a copy nobody has navigated: its source holds the text.
    children = element.peek_children()
    if not children:
        out.append(f"<{element.tag}{attrs}/>")
        return
    out.append(f"<{element.tag}{attrs}>")
    mixed = any(isinstance(child, Text) for child in children)
    pretty = indent is not None and not mixed
    for child in children:
        if pretty:
            out.append("\n" + indent * (depth + 1))
        _write(child, out, indent, depth + 1)
    if pretty:
        out.append("\n" + indent * depth)
    out.append(f"</{element.tag}>")
