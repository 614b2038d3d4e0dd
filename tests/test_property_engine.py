"""Property-based tests over the whole fragment/query pipeline."""

from hypothesis import given, settings, strategies as st

from repro import Fragmenter, FragmentStore, Strategy, TagStructure, XCQLEngine
from repro.dom import Element, serialize
from repro.fragments import temporalize, schema_driven_temporalize
from repro.temporal import XSDateTime

# A three-level schema: snapshot root, temporal groups, event readings
# with embedded snapshot value.
STRUCTURE = TagStructure.build(
    {
        "name": "lab",
        "type": "snapshot",
        "children": [
            {
                "name": "sensor",
                "type": "temporal",
                "children": [
                    {"name": "location", "type": "snapshot"},
                    {
                        "name": "reading",
                        "type": "event",
                        "children": [{"name": "value", "type": "snapshot"}],
                    },
                ],
            }
        ],
    }
)

_values = st.integers(min_value=0, max_value=99)
_hours = st.integers(min_value=0, max_value=400)


@st.composite
def lab_documents(draw):
    """A random snapshot lab document conforming to STRUCTURE."""
    lab = Element("lab")
    for sensor_index in range(draw(st.integers(0, 4))):
        sensor = Element("sensor", {"id": f"s{sensor_index}"})
        location = Element("location")
        location.add_text(f"room{draw(_values)}")
        sensor.append(location)
        for _ in range(draw(st.integers(0, 4))):
            reading = Element("reading")
            value = Element("value")
            value.add_text(str(draw(_values)))
            reading.append(value)
            sensor.append(reading)
        lab.append(sensor)
    return lab


T0 = XSDateTime.parse("2003-01-01T00:00:00")


def build_engine(document: Element, **store_kwargs) -> XCQLEngine:
    engine = XCQLEngine(default_now=XSDateTime.parse("2003-06-01T00:00:00"))
    store = FragmentStore(STRUCTURE, **store_kwargs)
    engine.register_stream("lab", STRUCTURE, store)
    engine.feed("lab", Fragmenter(STRUCTURE).fragment(document, T0))
    return engine


class TestFragmentationRoundTrip:
    @given(lab_documents())
    @settings(max_examples=40, deadline=None)
    def test_temporalize_preserves_values(self, document):
        original_values = [
            v.string_value() for v in document.iter() if getattr(v, "tag", None) == "value"
        ]
        engine = build_engine(document)
        rebuilt = temporalize(engine.stores["lab"])
        rebuilt_values = [
            v.string_value()
            for v in rebuilt.document_element.iter()
            if getattr(v, "tag", None) == "value"
        ]
        assert rebuilt_values == original_values

    @given(lab_documents())
    @settings(max_examples=40, deadline=None)
    def test_schema_driven_equals_generic(self, document):
        engine = build_engine(document)
        store = engine.stores["lab"]
        assert serialize(schema_driven_temporalize(store, STRUCTURE)) == serialize(
            temporalize(store)
        )

    @given(lab_documents())
    @settings(max_examples=30, deadline=None)
    def test_fragment_count_matches_schema(self, document):
        sensors = len(document.child_elements("sensor"))
        readings = sum(
            len(s.child_elements("reading")) for s in document.child_elements("sensor")
        )
        engine = build_engine(document)
        assert engine.stores["lab"].filler_count == 1 + sensors + readings


QUERIES = [
    'count(stream("lab")//sensor)',
    'count(stream("lab")//reading)',
    'sum(stream("lab")//reading/value)',
    'for $s in stream("lab")//sensor order by $s/@id return count($s/reading)',
    'for $s in stream("lab")//sensor where count($s/reading) > 1 return $s/@id',
    'stream("lab")//reading?[2003-01-01, 2003-02-01]',
]


def normalized(result) -> list[str]:
    return [
        serialize(item) if hasattr(item, "string_value") else str(item)
        for item in result
    ]


class TestStrategyAgreementProperty:
    @given(lab_documents(), st.sampled_from(QUERIES))
    @settings(max_examples=60, deadline=None)
    def test_strategies_agree_on_random_documents(self, document, query):
        engine = build_engine(document)
        reference = normalized(engine.execute_on_view(query))
        for strategy in (Strategy.QAC, Strategy.QAC_PLUS, Strategy.CAQ):
            assert normalized(engine.execute(query, strategy=strategy)) == reference

    @given(lab_documents(), st.sampled_from(QUERIES))
    @settings(max_examples=30, deadline=None)
    def test_index_and_cache_do_not_change_answers(self, document, query):
        fast = build_engine(document, use_index=True, use_cache=True)
        slow = build_engine(document, use_index=False, use_cache=False)
        assert normalized(fast.execute(query)) == normalized(slow.execute(query))


class TestIngestOrderInvariance:
    @given(lab_documents(), st.randoms(use_true_random=False))
    @settings(max_examples=30, deadline=None)
    def test_shuffled_arrival_same_view(self, document, rng):
        fillers = Fragmenter(STRUCTURE).fragment(document, T0)
        in_order = FragmentStore(STRUCTURE)
        in_order.extend(fillers)
        shuffled_fillers = list(fillers)
        rng.shuffle(shuffled_fillers)
        shuffled = FragmentStore(STRUCTURE)
        shuffled.extend(shuffled_fillers)
        assert serialize(temporalize(shuffled)) == serialize(temporalize(in_order))
