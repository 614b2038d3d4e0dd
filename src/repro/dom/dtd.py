"""A minimal reader for internal-subset DTDs.

The paper specifies both its running-example schema (the credit-card
``creditSystem`` DTD, §3.1) and the Tag Structure meta-schema (§4.1) as
DTDs.  This module parses ``<!ELEMENT ...>`` and ``<!ATTLIST ...>``
declarations well enough to (a) recover the element hierarchy needed to
derive a Tag Structure from a DTD and (b) lightly validate documents.
Content models are parsed into child-name sets with cardinality markers;
full SGML content-model validation is out of scope (and unused by the
paper).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

__all__ = ["DTD", "ElementDecl", "AttrDecl", "parse_dtd", "DTDError"]


class DTDError(ValueError):
    """Raised on malformed DTD text."""


@dataclass
class AttrDecl:
    """One attribute declaration from an ``<!ATTLIST>``."""

    element: str
    name: str
    type: str  # e.g. CDATA, ID, or an enumeration "(a | b)"
    default: str  # #REQUIRED, #IMPLIED, #FIXED "...", or a literal


@dataclass
class ElementDecl:
    """One ``<!ELEMENT>`` declaration."""

    name: str
    content_model: str  # raw model text, e.g. "(customer, creditLimit*)"
    children: list[tuple[str, str]] = field(default_factory=list)
    # children: (child element name, cardinality in {"", "?", "*", "+"})


@dataclass
class DTD:
    """A parsed DTD: the root name plus element/attribute declarations."""

    root: str
    elements: dict[str, ElementDecl] = field(default_factory=dict)
    attributes: dict[str, list[AttrDecl]] = field(default_factory=dict)

    def child_names(self, element: str) -> list[str]:
        """Declared child element names, in declaration order."""
        decl = self.elements.get(element)
        return [name for name, _card in decl.children] if decl else []


_DOCTYPE_RE = re.compile(r"<!DOCTYPE\s+([\w.\-:]+)\s*\[", re.S)
_ELEMENT_RE = re.compile(r"<!ELEMENT\s+([\w.\-:]+)\s+([^>]+)>", re.S)
_ATTLIST_RE = re.compile(r"<!ATTLIST\s+([\w.\-:]+)\s+([^>]+)>", re.S)
_CHILD_RE = re.compile(r"([\w.\-:]+)\s*([?*+]?)")
_ATTDEF_RE = re.compile(
    r"([\w.\-:]+)\s+"  # attribute name
    r"(CDATA|ID|IDREF|IDREFS|NMTOKEN|NMTOKENS|ENTITY|ENTITIES|\([^)]*\))\s+"
    r"(#REQUIRED|#IMPLIED|#FIXED\s+\"[^\"]*\"|\"[^\"]*\"|'[^']*')",
    re.S,
)


def parse_dtd(text: str) -> DTD:
    """Parse a ``<!DOCTYPE name [ ... ]>`` internal subset.

    Bare declaration lists (without the DOCTYPE wrapper) are also accepted;
    the root is then the first declared element.
    """
    doctype = _DOCTYPE_RE.search(text)
    root = doctype.group(1) if doctype else ""
    elements: dict[str, ElementDecl] = {}
    for match in _ELEMENT_RE.finditer(text):
        name, model = match.group(1), match.group(2).strip()
        decl = ElementDecl(name=name, content_model=model)
        if "#PCDATA" not in model and "#CDATA" not in model and model not in ("EMPTY", "ANY"):
            decl.children = [
                (child, card)
                for child, card in _CHILD_RE.findall(model)
                if child not in ("EMPTY", "ANY")
            ]
        elements[name] = decl
    if not elements:
        raise DTDError("no <!ELEMENT> declarations found")
    attributes: dict[str, list[AttrDecl]] = {}
    for match in _ATTLIST_RE.finditer(text):
        element, body = match.group(1), match.group(2)
        for attdef in _ATTDEF_RE.finditer(body):
            attributes.setdefault(element, []).append(
                AttrDecl(
                    element=element,
                    name=attdef.group(1),
                    type=attdef.group(2).strip(),
                    default=attdef.group(3).strip(),
                )
            )
    if not root or root not in elements:
        # The paper's own DTD says "<!DOCTYPE creditSystem [" but declares
        # creditAccounts as its top element; fall back to the first
        # declared element when the DOCTYPE name has no declaration.
        root = next(iter(elements))
    return DTD(root=root, elements=elements, attributes=attributes)
