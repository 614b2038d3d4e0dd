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

A projection of a store-owned version, ``temporalize`` over a cached
store, and a stored version's child that the next write left alone put
the copy off until something touches it (``DeferredElement``).
The same reference holds it however far and in whatever order it has
been touched, and nothing done to the copy — before or after — reaches
the version it stands on.
"""

from hypothesis import given, settings, strategies as st

from repro.dom import Document, Element, Text, parse_fragment, serialize
from repro.dom.nodes import DeferredElement, SharedElement, sort_document_order
from repro.fragments import Filler, FragmentStore, TagStructure, temporalize
from repro.fragments.model import LazyFiller
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
#: A root whose one hole is filled by a snapshot fragment: no lifespan
#: stamp, so the filler's version serialises like its payload.
HOLE_ROOT = TagStructure.from_xml(
    '<stream:structure><tag type="snapshot" id="1" name="r">'
    '<tag type="snapshot" id="2" name="a"/></tag></stream:structure>'
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
    """The eager view: an uncached store owns no version to stand on."""
    store = FragmentStore(SNAPSHOT_ROOT, use_cache=False)
    store.append(Filler(0, 1, T0, reference))
    return temporalize(store).document_element


def _stored(reference: Element) -> Element:
    """A copy of ``reference`` placed as the store keeps a version."""
    wrapper = SharedElement("filler", {"id": "0"})
    return wrapper.append(reference.copy())


def _interval_projected(version: Element) -> Element:
    return interval_project_nodes(
        [version], T0, XSDateTime(2004, 1, 1), Context(now=T0)
    )[0]


def _version_projected(version: Element) -> Element:
    return version_project_nodes([version], 1, 1, Context(now=T0))[0]


def _projecting(project):
    """A builder that stands ``project``'s copy on a stored ``reference``."""

    def build(reference: Element) -> tuple[Element, Element]:
        version = _stored(reference)
        return project(version), version

    return build


def _temporalize_view(reference: Element) -> tuple[Element, Element]:
    """The cached store's view, through a hole: the spine eager, the version not."""
    store = FragmentStore(HOLE_ROOT)
    root = Element("r")
    root.append(Element("hole", {"id": "1", "tsid": "2"}))
    store.append(Filler(0, 1, T0, root))
    store.append(Filler(1, 2, T0, reference))
    view = temporalize(store)
    return view.document_element.children[0], store.versions_of(1)[0]


def _stored_stand_in(reference: Element) -> tuple[Element, Element]:
    """The next stored version's stand-in for a child its write left alone.

    Two versions of one temporal id, kept as wire text, differ only in
    the child before ``reference``'s copy: the second version carries
    the first one's copy over as a stand-in.
    """
    store = FragmentStore(None)
    for serial in (1, 2):
        store.append(LazyFiller(
            1, 2, XSDateTime(2003, 1, serial),
            f'<filler id="1" tsid="2" validTime="{XSDateTime(2003, 1, serial)}">'
            f"<p><x>{serial}</x>{serialize(reference)}</p></filler>",
        ))
    first, second = store.versions_of(1)
    return second.children[1], first.children[1]


#: Copy-on-touch builders: ``reference`` -> ``(copy, stored node under it)``.
DEFERRED = {
    "interval projection": _projecting(_interval_projected),
    "version projection": _projecting(_version_projected),
    "copy of an untouched copy": _projecting(
        lambda version: _interval_projected(version).copy()
    ),
    "temporalize view": _temporalize_view,
    "stored version stand-in": _stored_stand_in,
}
#: Builders whose copy sits inside a larger tree of their own.
NESTED = ("temporalize", "stored version")

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
    **{
        f"deferred {name}": lambda reference, build=build: build(reference)[0]
        for name, build in DEFERRED.items()
    },
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
        top = built.root()  # the Document or wrapper of NESTED, else the tree itself
        assert (top is built) == (not any(nested in name for nested in NESTED)), name
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


def _touch_somewhere(built: Element, reference: Element, rng) -> None:
    """Navigate ``built`` a random way down, checking it against ``reference``."""
    top = built.root()
    frontier = [(built, reference)]
    for _ in range(rng.randint(0, 12)):
        node, want = rng.choice(frontier)
        how = rng.choice(("children", "named", "serialize", "copy", "string"))
        if how == "children":
            assert len(node.children) == len(want.children)
            pairs = list(zip(node.children, want.children))
        elif how == "named":
            tag = rng.choice(TAGS)
            pairs = list(zip(node.children_named(tag), want.children_named(tag)))
            assert len(pairs) == len(want.children_named(tag))
        elif how == "serialize":
            assert serialize(node) == serialize(want)
            continue
        elif how == "copy":
            clone = node.copy()
            assert clone.parent is None and serialize(clone) == serialize(want)
            continue
        else:
            assert node.string_value() == want.string_value()
            continue
        for child, want_child in pairs:
            assert child.parent is node and child.root() is top
            if isinstance(child, Element):
                frontier.append((child, want_child))


@settings(max_examples=120, deadline=None)
@given(
    spec=tree_specs,
    rng=st.randoms(use_true_random=False),
    how=st.sampled_from(sorted(DEFERRED)),
)
def test_deferred_copy_touched_anywhere_matches_the_reference(spec, rng, how):
    reference = reference_tree(spec)
    text = serialize(reference)
    built, version = DEFERRED[how](reference)
    assert isinstance(built, DeferredElement)
    assert serialize(built) == text  # read through, nothing built yet
    _touch_somewhere(built, reference, rng)
    assert serialize(built) == text  # partly built, partly read through
    assert_consistent(built.root(), rng)
    assert serialize(built) == text
    # The version underneath was only read, and none of its nodes left it.
    assert serialize(version) == text
    assert_consistent(version.root(), rng)
    assert not {id(n) for n in built.iter()} & {id(n) for n in version.iter()}


@settings(max_examples=120, deadline=None)
@given(
    spec=tree_specs,
    rng=st.randoms(use_true_random=False),
    how=st.sampled_from(sorted(DEFERRED)),
    touch_first=st.booleans(),
)
def test_mutating_a_deferred_copy_never_reaches_its_source(spec, rng, how, touch_first):
    reference = reference_tree(spec)
    text = serialize(reference)
    built, version = DEFERRED[how](reference)
    if touch_first:
        _touch_somewhere(built, reference, rng)
    # Walk to a random element of both trees by child position, touching
    # only the path, and edit both the same way through the public API.
    target, want = built, reference
    while rng.random() < 0.6:
        positions = [
            i for i, child in enumerate(want.children) if isinstance(child, Element)
        ]
        if not positions:
            break
        position = rng.choice(positions)
        target, want = target.children[position], want.children[position]
    edits = rng.sample(("set", "append", "insert", "remove last"), rng.randint(1, 4))
    for element in (target, want):
        for edit in edits:
            if edit == "set":
                element.set("k", "edited")
            elif edit == "append":
                element.append(Element("zz"))
            elif edit == "insert":
                element.insert(0, Text("lead"))
            elif element.children:
                element.remove(element.children[-1])
    assert serialize(built) == serialize(reference)
    assert_consistent(built.root(), rng)
    assert serialize(version) == text
    assert_consistent(version.root(), rng)
