"""A filler's text: ``to_xml()`` is ``serialize(envelope())``, and a snapshot pins nothing.

``to_xml()`` writes the envelope around ``serialize(self.content)``
instead of serialising a deep copy; it must still read byte for byte
like ``serialize(envelope())`` for eager fillers, for fillers that keep
their wire text, and for fillers over stored versions whose children are
copy-on-touch stand-ins.  ``save_store`` (and ``XCQLEngine.save_state``)
writes a filler that keeps its wire text from a tree read from that text
and dropped after: a raw-fed store has no materialized filler afterwards,
and the snapshot loads back to the same envelopes.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro import FragmentStore, TagStructure, XCQLEngine
from repro.dom import serialize
from repro.dom.nodes import DeferredElement
from repro.fragments import Filler, load_store, parse_filler, save_store
from repro.fragments.model import LazyFiller
from repro.temporal import XSDateTime

STRUCTURE = TagStructure.from_xml(
    """
    <stream:structure>
      <tag type="snapshot" id="1" name="log">
        <tag type="temporal" id="2" name="unit"/>
      </tag>
    </stream:structure>
    """
)
TOKENS = (
    "<a>x</a>", "<a/>", '<b k="1>2">t</b>', "<b><c>deep</c>tail</b>",
    "<c><!--in--></c>", "<c><?p in?></c>", '<b><hole id="9" tsid="5"/></b>',
    "text", " sp ", "\n ", "&amp;", "&#65;", "é", "&lt;x&gt;",
    "<![CDATA[ x<y ]]>", '<d q="a&quot;b&#9;c&#10;"/>',
)
_PAYLOAD = st.lists(st.sampled_from(TOKENS), max_size=6)
ROOT = '<filler id="0" tsid="1" validTime="2003-01-01T00:00:00"><log><hole id="1" tsid="2"/></log></filler>'


def envelope(day: int, parts: list, head: str = 'n="1"') -> str:
    return (
        f'<filler id="1" tsid="2" validTime="2003-01-{day:02d}T00:00:00">'
        f"<unit {head}>{''.join(parts)}</unit></filler>"
    )


def raw_store(texts: list) -> FragmentStore:
    engine = XCQLEngine()
    engine.register_stream("s", STRUCTURE)
    engine.feed_raw("s", [ROOT] + texts)
    return engine.stores["s"]


class TestToXmlIsTheSerializedEnvelope:
    @given(_PAYLOAD)
    @settings(max_examples=150, deadline=None)
    def test_eager_and_lazy_fillers(self, parts):
        text = envelope(2, parts)
        eager = parse_filler(text)
        assert eager.to_xml() == serialize(eager.envelope())
        lazy = LazyFiller(1, 2, XSDateTime(2003, 1, 2), text)
        expected = serialize(lazy.envelope())
        assert not lazy.materialized  # the envelope is read from the text
        assert lazy.to_xml() == expected == eager.to_xml()

    @given(st.lists(st.tuples(_PAYLOAD, st.sampled_from(['n="1"', 'n="2"'])), min_size=1, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_fillers_over_stored_versions(self, writes):
        store = raw_store([envelope(2 + day, parts, head) for day, (parts, head) in enumerate(writes)])
        for version in store.versions_of(1):
            filler = Filler(1, 2, XSDateTime(2003, 1, 2), version)
            assert filler.to_xml() == serialize(filler.envelope())

    def test_a_stand_in_is_written_through(self):
        shared = ["<a>x</a>", "<b><c>deep</c>tail</b>"]
        store = raw_store([envelope(2, shared), envelope(3, shared + ["<a/>"])])
        latest = store.versions_of(1)[-1]
        assert any(isinstance(child, DeferredElement) for child in latest.children)
        filler = Filler(1, 2, XSDateTime(2003, 1, 3), latest)
        assert filler.to_xml() == serialize(filler.envelope())
        assert "<b><c>deep</c>tail</b>" in filler.to_xml()


class TestSnapshotPinsNothing:
    TEXTS = [envelope(2, ["<a>x</a>", " sp "]), envelope(3, ["<a>y</a>", "&amp;"])]

    def test_save_store_of_a_raw_fed_store(self, tmp_path):
        store = raw_store(self.TEXTS)
        assert store.materialized_fillers == 0
        path = tmp_path / "snap.xml"
        assert save_store(store, path) == 3
        assert store.materialized_fillers == 0
        loaded = load_store(path)
        assert [f.to_xml() for f in loaded.fillers_since(0)] == [
            f.to_xml() for f in store.fillers_since(0)
        ]

    def test_engine_save_state(self, tmp_path):
        engine = XCQLEngine()
        engine.register_stream("s", STRUCTURE)
        engine.feed_raw("s", [ROOT] + self.TEXTS)
        engine.save_state(tmp_path)
        assert engine.stats()["streams"]["s"]["materialized_fillers"] == 0
        restored = XCQLEngine.load_state(tmp_path)
        assert [f.to_xml() for f in restored.stores["s"].fillers_since(0)] == [
            f.to_xml() for f in engine.stores["s"].fillers_since(0)
        ]
