"""Property-based tests for the stream runtime.

Random event/update/poll schedules drive a client, which schedules its
queries, and a plain engine that evaluates every query at every poll
(``RerunClient``); both must produce identical emission streams.
Random version chains pruned at random horizons must keep every answer
inside the retained window.
"""

from hypothesis import given, settings, strategies as st

from repro import (
    Channel,
    FragmentStore,
    SimulatedClock,
    Strategy,
    StreamClient,
    StreamServer,
    TagStructure,
    XCQLEngine,
)
from repro.dom import Element, parse_document, serialize
from repro.fragments.model import Filler
from repro.temporal import XSDateTime

from tests.conftest import CREDIT_TAG_STRUCTURE_XML, RerunClient

QUERIES = [
    ('count(stream("credit")//transaction)', Strategy.QAC_PLUS),
    ('stream("credit")//creditLimit#[last]', Strategy.QAC_PLUS),
    (
        'for $a in stream("credit")//account '
        "where sum($a/transaction?[now-PT1H,now]/amount) >= 20 "
        'return <hot id="{$a/@id}"/>',
        Strategy.QAC,
    ),
]

# One schedule step: (kind, payload)
_steps = st.lists(
    st.one_of(
        st.tuples(st.just("txn"), st.integers(1, 30)),       # emit transaction
        st.tuples(st.just("limit"), st.integers(50, 500)),   # update creditLimit
        st.tuples(st.just("tick"), st.integers(1, 7200)),    # advance seconds
        st.tuples(st.just("poll"), st.just(0)),
    ),
    min_size=1,
    max_size=12,
)


def _run_schedule(steps, with_scheduler: bool) -> list[str]:
    structure = TagStructure.from_xml(CREDIT_TAG_STRUCTURE_XML)
    clock = SimulatedClock("2003-10-01T00:00:00")
    channel = Channel()
    client = StreamClient(clock) if with_scheduler else RerunClient(clock)
    client.tune_in(channel)
    server = StreamServer("credit", structure, channel, clock)
    server.announce()
    server.publish_document(
        parse_document(
            "<creditAccounts><account id='1'>"
            "<customer>X</customer><creditLimit>100</creditLimit>"
            "</account></creditAccounts>"
        )
    )
    emissions: list[str] = []
    for source, strategy in QUERIES:
        query = client.register_query(source, strategy=strategy)
        query.subscribe(
            lambda items, q=source: emissions.extend(
                f"{q[:20]}|{serialize(i) if hasattr(i, 'string_value') else i}"
                for i in items
            )
        )
    account = server.hole_id(0, "account", "1")
    limit = server.hole_id(account, "creditLimit", "1")
    counter = [0]
    for kind, value in steps:
        if kind == "txn":
            counter[0] += 1
            txn = Element("transaction", {"id": str(counter[0])})
            vendor = Element("vendor")
            vendor.add_text("V")
            txn.append(vendor)
            amount = Element("amount")
            amount.add_text(str(value))
            txn.append(amount)
            server.emit_event(account, txn)
            clock.advance("PT1S")
        elif kind == "limit":
            element = Element("creditLimit")
            element.add_text(str(value))
            clock.advance("PT1S")
            server.update_fragment(limit, element)
        elif kind == "tick":
            clock.advance(value)
        else:
            client.poll()
    client.poll()
    return emissions


class TestSchedulerEquivalence:
    @given(_steps)
    @settings(max_examples=25, deadline=None)
    def test_scheduled_emissions_identical(self, steps):
        assert _run_schedule(steps, True) == _run_schedule(steps, False)


# ---------------------------------------------------------------------------
# Prune correctness
# ---------------------------------------------------------------------------

_chain_months = st.lists(
    st.integers(min_value=1, max_value=12), min_size=1, max_size=8, unique=True
).map(sorted)


class TestPruneProperty:
    @given(_chain_months, st.integers(1, 12))
    @settings(max_examples=60, deadline=None)
    def test_answers_at_now_survive_prune(self, months, horizon_month):
        structure = TagStructure.from_xml(CREDIT_TAG_STRUCTURE_XML)
        store = FragmentStore(structure)
        for month in months:
            element = Element("creditLimit")
            element.add_text(str(month * 10))
            store.append(Filler(4, 4, XSDateTime(2003, month, 1), element))
        engine = XCQLEngine(default_now=XSDateTime(2004, 1, 1))
        engine.register_stream("credit", structure, store)
        root = Element("creditAccounts")
        account = Element("account", {"id": "1"})
        account.append(Element("hole", {"id": "4", "tsid": "4"}))
        root.append(Element("hole", {"id": "1", "tsid": "2"}))
        store.append(Filler(0, 1, XSDateTime(2003, 1, 1), root))
        store.append(Filler(1, 2, XSDateTime(2003, 1, 1), account))

        horizon = XSDateTime(2003, horizon_month, 1)
        current_before = [
            serialize(e)
            for e in engine.execute('stream("credit")//creditLimit?[now]')
        ]
        windowed_before = [
            serialize(e)
            for e in engine.execute(
                f'stream("credit")//creditLimit?[{horizon}, now]'
            )
        ]
        store.prune_before(horizon)
        current_after = [
            serialize(e)
            for e in engine.execute('stream("credit")//creditLimit?[now]')
        ]
        windowed_after = [
            serialize(e)
            for e in engine.execute(
                f'stream("credit")//creditLimit?[{horizon}, now]'
            )
        ]
        assert current_after == current_before
        assert windowed_after == windowed_before

    @given(_chain_months, st.integers(1, 12))
    @settings(max_examples=40, deadline=None)
    def test_prune_monotone(self, months, horizon_month):
        structure = TagStructure.from_xml(CREDIT_TAG_STRUCTURE_XML)
        store = FragmentStore(structure)
        for month in months:
            element = Element("creditLimit")
            element.add_text(str(month))
            store.append(Filler(4, 4, XSDateTime(2003, month, 1), element))
        before = store.filler_count
        dropped = store.prune_before(XSDateTime(2003, horizon_month, 1))
        assert store.filler_count == before - dropped
        assert len(store.versions_of(4)) >= 1  # the current version survives
