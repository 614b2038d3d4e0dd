"""Ablation A3b: dependency-aware scheduling of continuous queries.

Many standing queries over one stream, arrivals touching only one tsid:
the scheduler (paper §8 extension) re-evaluates only the affected queries.
"""

from __future__ import annotations

import pytest

from repro import Channel, SimulatedClock, Strategy, StreamClient, StreamServer, TagStructure
from repro.dom import Element, parse_document

from tests.conftest import CREDIT_TAG_STRUCTURE_XML, RerunClient

# Ten standing queries: only two touch transactions (tsid 5).
QUERIES = [
    ('count(stream("credit")//transaction)', Strategy.QAC_PLUS),
    ('sum(stream("credit")//transaction/amount)', Strategy.QAC_PLUS),
    ('count(stream("credit")//creditLimit)', Strategy.QAC_PLUS),
    ('stream("credit")//creditLimit#[last]', Strategy.QAC_PLUS),
    ('count(stream("credit")//status)', Strategy.QAC_PLUS),
    ('stream("credit")//status#[last]', Strategy.QAC_PLUS),
    ('count(stream("credit")//account)', Strategy.QAC_PLUS),
    ('stream("credit")//account/customer', Strategy.QAC_PLUS),
    ('count(stream("credit")//creditLimit#[1])', Strategy.QAC_PLUS),
    ('stream("credit")//account/@id', Strategy.QAC_PLUS),
]


def build(with_scheduler: bool):
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
    for source, strategy in QUERIES:
        client.register_query(source, strategy=strategy, emit="full")
    client.poll()  # baseline evaluation of everything
    return clock, server, client


def transaction(txn_id: int) -> Element:
    txn = Element("transaction", {"id": str(txn_id)})
    vendor = Element("vendor")
    vendor.add_text("V")
    txn.append(vendor)
    amount = Element("amount")
    amount.add_text("5")
    txn.append(amount)
    return txn


@pytest.mark.parametrize("scheduled", [False, True], ids=["rerun-all", "scheduled"])
def test_poll_with_many_queries(benchmark, scheduled):
    clock, server, client = build(scheduled)
    account_hole = server.hole_id(0, "account", "1")
    counter = [100]

    def cycle():
        counter[0] += 1
        server.emit_event(account_hole, transaction(counter[0]))
        clock.advance("PT1S")
        client.poll()

    benchmark.pedantic(cycle, rounds=5, iterations=1, warmup_rounds=1)
    if scheduled:
        stats = client.scheduler.stats()
        benchmark.extra_info["scheduler"] = stats
        assert stats["skips"] > 0


def test_scheduler_reduces_evaluations(benchmark):
    def measure():
        clock, server, client = build(True)
        account_hole = server.hole_id(0, "account", "1")
        for i in range(10):
            server.emit_event(account_hole, transaction(200 + i))
            clock.advance("PT1S")
            client.poll()
        return client.scheduler.stats()

    stats = benchmark.pedantic(measure, rounds=1, iterations=1)
    benchmark.extra_info["scheduler"] = stats
    # A transaction event touches transaction (5) + status holes; the
    # account/creditLimit-only queries must have been skipped throughout.
    assert stats["skips"] > stats["evaluations"]
