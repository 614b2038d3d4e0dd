"""Shared fixtures: the paper's credit-card stream and a tiny XMark load."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro import ContinuousQuery, Fragmenter, FragmentStore, Strategy, TagStructure, XCQLEngine
from repro.dom import parse_document
from repro.temporal import XSDateTime
from repro.xmark import AUCTION_STREAM, auction_tag_structure, generate_auction_document

# Properties that leave ``max_examples`` to the profile (the guard-skip's
# exactness claim in test_shared_residual.py) are fuzzed harder in CI than
# on a laptop: the workflow runs them with ``--hypothesis-profile=ci``.
settings.register_profile("ci", max_examples=2000, deadline=None)

CREDIT_TAG_STRUCTURE_XML = """
<stream:structure>
  <tag type="snapshot" id="1" name="creditAccounts">
    <tag type="temporal" id="2" name="account">
      <tag type="snapshot" id="3" name="customer"/>
      <tag type="temporal" id="4" name="creditLimit"/>
      <tag type="event" id="5" name="transaction">
        <tag type="snapshot" id="6" name="vendor"/>
        <tag type="temporal" id="7" name="status"/>
        <tag type="snapshot" id="8" name="amount"/>
      </tag>
    </tag>
  </tag>
</stream:structure>
"""

# The §3.1 temporal view, with a second account and the §4.2 "suspended"
# transaction scenario (fillers 3/4/5): transaction 23456 was charged on
# 2003-09-10 and suspended on 2003-11-01.
CREDIT_VIEW_XML = """
<creditAccounts>
  <account id="1234" vtFrom="1998-10-10T12:20:22" vtTo="now">
    <customer>John Smith</customer>
    <creditLimit vtFrom="1998-10-10T12:20:22" vtTo="2001-04-23T23:11:08">2000</creditLimit>
    <creditLimit vtFrom="2001-04-23T23:11:08" vtTo="now">5000</creditLimit>
    <transaction id="12345" vtFrom="2003-10-23T12:23:34" vtTo="2003-10-23T12:23:34">
      <vendor>Southlake Pizza</vendor>
      <amount>38.20</amount>
      <status vtFrom="2003-10-23T12:24:35" vtTo="now">charged</status>
    </transaction>
    <transaction id="23456" vtFrom="2003-09-10T14:30:12" vtTo="2003-09-10T14:30:12">
      <vendor>ResAris Contaceu</vendor>
      <amount>1200</amount>
      <status vtFrom="2003-09-10T14:30:13" vtTo="2003-11-01T10:12:56">charged</status>
      <status vtFrom="2003-11-01T10:12:56" vtTo="now">suspended</status>
    </transaction>
  </account>
  <account id="7777" vtFrom="2000-01-01T00:00:00" vtTo="now">
    <customer>Jane Roe</customer>
    <creditLimit vtFrom="2000-01-01T00:00:00" vtTo="now">800</creditLimit>
    <transaction id="90001" vtFrom="2003-11-20T10:00:00" vtTo="2003-11-20T10:00:00">
      <vendor>BigBox Hardware</vendor>
      <amount>900</amount>
      <status vtFrom="2003-11-20T10:00:01" vtTo="now">charged</status>
    </transaction>
  </account>
</creditAccounts>
"""

NOW_2003_12_15 = XSDateTime.parse("2003-12-15T00:00:00")


@pytest.fixture(scope="session")
def credit_structure() -> TagStructure:
    return TagStructure.from_xml(CREDIT_TAG_STRUCTURE_XML)


@pytest.fixture()
def credit_view():
    return parse_document(CREDIT_VIEW_XML)


@pytest.fixture()
def credit_fillers(credit_structure, credit_view):
    fragmenter = Fragmenter(credit_structure)
    return fragmenter.fragment_temporal_view(
        credit_view, XSDateTime.parse("1998-01-01T00:00:00")
    )


@pytest.fixture()
def credit_store(credit_structure, credit_fillers) -> FragmentStore:
    store = FragmentStore(credit_structure)
    store.extend(credit_fillers)
    return store


@pytest.fixture()
def credit_engine(credit_structure, credit_fillers) -> XCQLEngine:
    engine = XCQLEngine(default_now=NOW_2003_12_15)
    engine.register_stream("credit", credit_structure)
    engine.feed("credit", credit_fillers)
    return engine


@pytest.fixture(scope="session")
def auction_structure() -> TagStructure:
    return auction_tag_structure()


@pytest.fixture(scope="session")
def tiny_auction_engine(auction_structure) -> XCQLEngine:
    """A minimal-scale auction stream shared across tests (read-only)."""
    engine = XCQLEngine(default_now=XSDateTime.parse("2003-06-01T00:00:00"))
    engine.register_stream(AUCTION_STREAM, auction_structure)
    fragmenter = Fragmenter(auction_structure)
    document = generate_auction_document(0.0)
    engine.feed(
        AUCTION_STREAM, fragmenter.fragment(document, XSDateTime.parse("2003-01-01T00:00:00"))
    )
    return engine


class RerunClient:
    """The unscheduled reference for a ``StreamClient``.

    A plain engine tuned in to a channel, whose every query is evaluated
    at every poll; it has the client surface the with/without-scheduler
    comparisons use (``tune_in`` / ``register_query`` / ``poll``).
    """

    def __init__(self, clock):
        self.clock = clock
        self.engine = XCQLEngine()
        self.queries: list[ContinuousQuery] = []

    def tune_in(self, channel) -> None:
        channel.subscribe(self.engine.deliver)

    def register_query(self, source, strategy=Strategy.QAC, emit="delta"):
        query = ContinuousQuery(self.engine, source, strategy=strategy, emit=emit)
        self.queries.append(query)
        return query

    def poll(self) -> dict:
        now = self.clock.now()
        return {query: query.evaluate(now) for query in self.queries}
