"""The tree builders against the public ``append`` they no longer call.

``Element.copy``, the parser's event replay, the temporal projections and
``temporalize`` link children through a private primitive that skips
``append``'s detach check, tag-index reset and dirty-marking walk to the
root.  Its precondition is that the container is a detached root nothing
has navigated yet.  These properties hold every builder to the reference
— the same tree assembled with public ``append`` calls — on everything a
query can observe: serialisation, named-child lookups, document order and
parent/root links; and they check that a built tree is an ordinary tree
afterwards: mutating it through the public API invalidates what it must.
"""

from hypothesis import given, settings, strategies as st

from repro.dom import Document, Element, Text, parse_fragment, serialize
from repro.dom.nodes import sort_document_order
from repro.fragments import Filler, FragmentStore, TagStructure, temporalize
from repro.temporal import XSDateTime
from repro.xquery.evaluator import Context
from repro.xquery.temporal_functions import (
    interval_project_nodes,
    version_project_nodes,
)

TAGS = ("a", "b", "c")
_words = st.text(alphabet="abcxyz019", min_size=1, max_size=5)
_attrs = st.dictionaries(st.sampled_from(("id", "k", "n")), _words, max_size=2)


def _element_specs(children):
    return st.tuples(st.sampled_from(TAGS), _attrs, st.lists(children, max_size=4))


#: ``(tag, attrs, children)`` for an element, a ``str`` for a text node.
tree_specs = _element_specs(
    st.recursive(_words, _element_specs, max_leaves=25)
)

SNAPSHOT_ROOT = TagStructure.from_xml(
    '<stream:structure><tag type="snapshot" id="1" name="a"/></stream:structure>'
)
T0 = XSDateTime(2003, 1, 1)


def reference_tree(spec) -> Element:
    """The tree of ``spec`` through the public API only."""
    tag, attrs, children = spec
    element = Element(tag, attrs)
    previous_was_text = False
    for child in children:
        if isinstance(child, str):
            if previous_was_text:
                continue  # adjacent text would merge on a parser round trip
            element.append(Text(child))
        else:
            element.append(reference_tree(child))
        previous_was_text = isinstance(child, str)
    return element


def _temporalized(reference: Element) -> Element:
    store = FragmentStore(SNAPSHOT_ROOT)
    store.append(Filler(0, 1, T0, reference))
    return temporalize(store).document_element


BUILDERS = {
    "copy": lambda reference: reference.copy(),
    "parser": lambda reference: parse_fragment(serialize(reference))[0],
    "interval projection": lambda reference: interval_project_nodes(
        [reference], T0, XSDateTime(2004, 1, 1), Context(now=T0)
    )[0],
    "version projection": lambda reference: version_project_nodes(
        [reference], 1, 1, Context(now=T0)
    )[0],
    "temporalize": _temporalized,
}


def assert_consistent(top, rng) -> None:
    """Every navigation answer of ``top``'s tree agrees with its child lists."""
    nodes = list(top.iter())
    for node in nodes:
        assert node.root() is top
        for child in node.children:
            assert child.parent is node
        if isinstance(node, (Element, Document)):
            for tag in TAGS + ("zz",):
                assert node.children_named(tag) == [
                    child
                    for child in node.children
                    if isinstance(child, Element) and child.tag == tag
                ]
    sample = list(nodes)
    rng.shuffle(sample)
    ordered = sort_document_order(sample)
    assert len(ordered) == len(nodes)
    assert all(got is want for got, want in zip(ordered, nodes))


@settings(max_examples=60, deadline=None)
@given(spec=tree_specs, rng=st.randoms(use_true_random=False))
def test_builders_agree_with_public_append(spec, rng):
    reference = reference_tree(spec)
    assert_consistent(reference, rng)
    text = serialize(reference)
    for name, build in BUILDERS.items():
        built = build(reference)
        assert built is not reference, name
        assert serialize(built) == text, name
        top = built.root()  # the Document for temporalize, else the tree itself
        assert (top is built) == (name != "temporalize"), name
        assert_consistent(top, rng)
    # The builders only read their input.
    assert serialize(reference) == text
    assert reference.parent is None


@settings(max_examples=60, deadline=None)
@given(
    spec=tree_specs,
    rng=st.randoms(use_true_random=False),
    builder=st.sampled_from(sorted(BUILDERS)),
)
def test_built_trees_mutate_like_any_other(spec, rng, builder):
    built = BUILDERS[builder](reference_tree(spec))
    top = built.root()
    assert_consistent(top, rng)  # warms every tag index and numbers the tree
    target = rng.choice([n for n in built.iter() if isinstance(n, Element)])
    appended = target.append(Element("zz"))
    assert target.children_named("zz")[-1] is appended
    assert_consistent(top, rng)
    inserted = target.insert(0, Element("zz"))
    assert target.children_named("zz")[0] is inserted
    assert_consistent(top, rng)
    target.remove(appended)
    assert appended.parent is None and appended not in target.children_named("zz")
    assert_consistent(top, rng)
    # Public append of a linked node still detaches it from its old parent.
    other = Element("holder")
    other.append(inserted)
    assert inserted.parent is other and target.children_named("zz") == []
    assert_consistent(top, rng)
