"""From-scratch XML substrate: node model, parser, serializer, DTD reader.

The paper's entire pipeline — fragmenting documents into fillers, streaming
them, and querying them — operates on XML trees.  This package provides that
substrate without relying on any external XML library:

- :mod:`repro.dom.nodes` — the node model (document, element, text, comment,
  processing instruction and attribute nodes) with parent links and document
  order, as required by XQuery path semantics;
- :mod:`repro.dom.parser` — an XML tokenizer and tree builder on the
  stdlib's expat (entities, CDATA, comments, PIs, DOCTYPE) with
  line/column diagnostics;
- :mod:`repro.dom.serializer` — serialization with correct escaping and an
  optional pretty-printer;
- :mod:`repro.dom.dtd` — a reader for the internal-subset DTDs the paper
  uses to describe its credit-card schema and the Tag Structure.
"""

from repro.dom.nodes import (
    Attr,
    Comment,
    Document,
    Element,
    Node,
    ProcessingInstruction,
    Text,
)
from repro.dom.parser import XMLParseError, parse_document, parse_fragment
from repro.dom.serializer import serialize
from repro.dom.dtd import DTD, parse_dtd

__all__ = [
    "Node",
    "Document",
    "Element",
    "Text",
    "Comment",
    "ProcessingInstruction",
    "Attr",
    "parse_document",
    "parse_fragment",
    "XMLParseError",
    "serialize",
    "DTD",
    "parse_dtd",
]
