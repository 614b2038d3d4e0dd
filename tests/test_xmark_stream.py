"""Tests for the live auction stream driver (repro.xmark.stream)."""

import pytest

from repro import Channel, SimulatedClock, Strategy, StreamClient, StreamServer
from repro.xmark import ALL_QUERIES, PAPER_QUERIES
from repro.xmark.schema import AUCTION_STREAM, auction_tag_structure
from repro.xmark.stream import AuctionStreamDriver


def _driver(clock, channel, seed=2718):
    server = StreamServer(AUCTION_STREAM, auction_tag_structure(), channel, clock)
    return AuctionStreamDriver(server, clock, 0.0, seed)


@pytest.fixture()
def market():
    clock = SimulatedClock("2004-06-14T09:00:00")
    channel = Channel()
    client = StreamClient(clock)
    client.tune_in(channel)
    driver = _driver(clock, channel)
    driver.publish_catalog()
    return clock, client, driver


class TestDriver:
    def test_catalog_reaches_client(self, market):
        clock, client, driver = market
        count = client.engine.execute(
            'count(stream("auction")//open_auction?[now])', now=clock.now()
        )
        assert count == [12]  # minimal profile

    def test_bids_create_versions(self, market):
        clock, client, driver = market
        hole = driver.place_bid()
        store = client.store_of("auction")
        assert len(store.versions_of(hole)) == 2

    def test_bid_increases_current(self, market):
        clock, client, driver = market
        hole = driver.place_bid()
        versions = client.store_of("auction").versions_of(hole)
        old_price = float(versions[0].first("current").text())
        new_price = float(versions[1].first("current").text())
        assert new_price > old_price
        assert len(versions[1].child_elements("bidder")) == (
            len(versions[0].child_elements("bidder")) + 1
        )

    def test_closings_append_events(self, market):
        clock, client, driver = market
        before = client.engine.execute(
            'count(stream("auction")//closed_auction)', now=clock.now()
        )[0]
        driver.close_auction()
        after = client.engine.execute(
            'count(stream("auction")//closed_auction)', now=clock.now()
        )[0]
        assert after == before + 1

    def test_run_loop(self, market):
        clock, client, driver = market
        driver.run(steps=10, close_every=5, advance_seconds=30)
        assert driver.bids_placed == 10
        assert driver.auctions_closed == 2

    def test_deterministic(self):
        def run_once():
            clock = SimulatedClock("2004-06-14T09:00:00")
            channel = Channel()
            client = StreamClient(clock)
            client.tune_in(channel)
            driver = _driver(clock, channel, seed=99)
            driver.publish_catalog()
            driver.run(steps=8)
            return client.engine.execute(
                'sum(stream("auction")//open_auction?[now]/current)',
                now=clock.now(),
            )

        assert run_once() == run_once()


class TestContinuousXMarkQueries:
    def test_q2_over_live_stream(self, market):
        """Q2's 'first bidder increase' answers change as bids arrive."""
        clock, client, driver = market
        q2_current = (
            'for $b in stream("auction")/site/open_auctions/open_auction?[now] '
            "return <increase> { $b/bidder[1]/increase/text() } </increase>"
        )
        query = client.register_query(q2_current, strategy=Strategy.QAC_PLUS, emit="full")
        baseline = query.evaluate(clock.now())
        assert len(baseline) == 12
        driver.run(steps=6, close_every=0)
        client.poll()
        after = query.last_result
        assert len(after) == 12  # one row per auction, always

    def test_q5_grows_with_closings(self, market):
        clock, client, driver = market
        query = client.register_query(
            PAPER_QUERIES["Q5"], strategy=Strategy.QAC_PLUS, emit="full"
        )
        start = query.evaluate(clock.now())[0]
        for _ in range(20):
            driver.close_auction()
            clock.advance(60)
        end = query.evaluate(clock.now())[0]
        assert end >= start
        assert client.store_of("auction").filler_count > 0

    def test_strategy_agreement_on_live_state(self, market):
        clock, client, driver = market
        driver.run(steps=12, close_every=3)
        client.poll()
        for name in ("Q1", "Q5", "Q6"):
            outs = []
            for strategy in (Strategy.QAC, Strategy.QAC_PLUS, Strategy.CAQ):
                result = client.engine.execute(
                    ALL_QUERIES[name], strategy=strategy, now=clock.now()
                )
                from repro.dom import serialize

                outs.append(
                    [
                        serialize(i) if hasattr(i, "string_value") else i
                        for i in result
                    ]
                )
            assert outs[0] == outs[1] == outs[2], name
