"""Tests for clocks, transport, server, client and continuous queries."""

import pytest

from repro import (
    Channel,
    LossyChannel,
    SimulatedClock,
    Strategy,
    StreamClient,
    StreamServer,
    TagStructure,
)
from repro.dom import Element, parse_document, serialize
from repro.streams.clock import SystemClock
from repro.streams.server import StreamServerError
from repro.streams.transport import FILLER, Message
from repro.temporal import XSDateTime, XSDuration

from tests.conftest import CREDIT_TAG_STRUCTURE_XML


def credit_structure() -> TagStructure:
    return TagStructure.from_xml(CREDIT_TAG_STRUCTURE_XML)


def text_el(tag: str, text: str) -> Element:
    element = Element(tag)
    element.add_text(text)
    return element


def transaction(txn_id: str, amount: str, status: str = "charged") -> Element:
    txn = Element("transaction", {"id": txn_id})
    txn.append(text_el("vendor", "V"))
    txn.append(text_el("amount", amount))
    txn.append(text_el("status", status))
    return txn


@pytest.fixture()
def rig():
    clock = SimulatedClock("2003-10-01T00:00:00")
    channel = Channel()
    client = StreamClient(clock)
    client.tune_in(channel)
    server = StreamServer("credit", credit_structure(), channel, clock)
    server.announce()
    server.publish_document(
        parse_document(
            "<creditAccounts><account id='1'>"
            "<customer>John</customer><creditLimit>1000</creditLimit>"
            "</account></creditAccounts>"
        )
    )
    return clock, channel, server, client


class TestClocks:
    def test_advance_by_duration(self):
        clock = SimulatedClock("2003-01-01T00:00:00")
        clock.advance("PT1H")
        assert str(clock.now()) == "2003-01-01T01:00:00"
        clock.advance(60)
        assert str(clock.now()) == "2003-01-01T01:01:00"
        clock.advance(XSDuration.parse("P1D"))
        assert clock.now().day == 2

    def test_set_absolute(self):
        clock = SimulatedClock("2003-01-01T00:00:00")
        clock.set("2003-06-01T00:00:00")
        assert clock.now().month == 6

    def test_no_time_travel(self):
        clock = SimulatedClock("2003-06-01T00:00:00")
        with pytest.raises(ValueError):
            clock.set("2003-01-01T00:00:00")
        with pytest.raises(ValueError):
            clock.advance("-PT1S")

    def test_system_clock_plausible(self):
        now = SystemClock().now()
        assert now.year >= 2024


class TestTransport:
    def test_fanout(self):
        channel = Channel()
        seen = []
        channel.subscribe(lambda m: seen.append(("a", m.payload)))
        channel.subscribe(lambda m: seen.append(("b", m.payload)))
        channel.publish(Message(FILLER, "s", "<x/>"))
        assert len(seen) == 2
        assert channel.published == 1
        assert channel.delivered == 2

    def test_unsubscribe(self):
        channel = Channel()
        hits = []
        callback = hits.append
        channel.subscribe(callback)
        channel.unsubscribe(callback)
        channel.publish(Message(FILLER, "s", "<x/>"))
        assert hits == []

    def test_lossy_drops_deterministically(self):
        def run(seed):
            channel = LossyChannel(loss_rate=0.5, seed=seed)
            got = []
            channel.subscribe(lambda m: got.append(m.payload))
            for i in range(100):
                channel.publish(Message(FILLER, "s", f"<x n='{i}'/>"))
            return got

        assert run(7) == run(7)
        assert 10 < len(run(7)) < 90

    def test_lossy_duplicates(self):
        channel = LossyChannel(duplicate_rate=0.99, seed=1)
        got = []
        channel.subscribe(lambda m: got.append(m.payload))
        channel.publish(Message(FILLER, "s", "<x/>"))
        assert len(got) == 2

    def test_rates_validated(self):
        with pytest.raises(ValueError):
            LossyChannel(loss_rate=1.5)

    def test_message_wire_size(self):
        assert Message(FILLER, "s", "<x/>").wire_size == 4


class TestServer:
    def test_publish_reaches_client(self, rig):
        _clock, _channel, server, client = rig
        store = client.store_of("credit")
        assert store.fragment_count == 3  # root, account, creditLimit
        assert client.received_fillers == 3

    def test_update_fragment_creates_version(self, rig):
        clock, _channel, server, client = rig
        clock.advance("P1D")
        account_hole = server.hole_id(0, "account", "1")
        limit_hole = server.hole_id(account_hole, "creditLimit", "1")
        server.update_fragment(limit_hole, text_el("creditLimit", "9000"))
        versions = client.store_of("credit").versions_of(limit_hole)
        assert [v.text() for v in versions] == ["1000", "9000"]
        assert versions[0].attrs["vtTo"] == versions[1].attrs["vtFrom"]

    def test_emit_event_shared_hole(self, rig):
        clock, _channel, server, client = rig
        account_hole = server.hole_id(0, "account", "1")
        first = server.emit_event(account_hole, transaction("t1", "10"))
        clock.advance("PT1M")
        second = server.emit_event(account_hole, transaction("t2", "20"))
        assert first.filler_id == second.filler_id
        store = client.store_of("credit")
        assert len(store.versions_of(first.filler_id)) == 2

    def test_event_nested_status_becomes_filler(self, rig):
        _clock, _channel, server, client = rig
        account_hole = server.hole_id(0, "account", "1")
        emitted = server.emit_event(account_hole, transaction("t1", "10"))
        holes = emitted.holes()
        assert len(holes) == 1  # the status child
        status_versions = client.store_of("credit").versions_of(int(holes[0].attrs["id"]))
        assert [v.text() for v in status_versions] == ["charged"]

    def test_insert_and_delete_child(self, rig):
        clock, _channel, server, client = rig
        new_account = Element("account", {"id": "2"})
        new_account.append(text_el("customer", "Ada"))
        inserted = server.insert_child(0, new_account)
        store = client.store_of("credit")
        assert len(store.versions_of(0)[-1].child_elements("hole")) == 2
        clock.advance("PT1S")
        server.delete_child(0, inserted.filler_id)
        root_versions = store.versions_of(0)
        assert len(root_versions[-1].child_elements("hole")) == 1

    def test_delete_unknown_hole(self, rig):
        _clock, _channel, server, _client = rig
        with pytest.raises(StreamServerError):
            server.delete_child(0, 999)

    def test_repeat_fragment_is_idempotent(self, rig):
        _clock, _channel, server, client = rig
        before = client.store_of("credit").filler_count
        server.repeat_fragment(0)
        assert client.store_of("credit").filler_count == before

    def test_repeat_event_id_replays_all_events(self, rig):
        """A lost early event is recoverable: repeats cover the history."""
        clock, channel, server, client = rig
        account_hole = server.hole_id(0, "account", "1")
        first = server.emit_event(account_hole, transaction("t1", "10"))
        clock.advance("PT1M")
        server.emit_event(account_hole, transaction("t2", "20"))
        store = client.store_of("credit")
        # Simulate that t1 never arrived: rebuild the store without it.
        lost = [f for f in store._fillers if "t1" not in f.to_xml()]
        store.clear()
        store.extend(lost)
        assert len(store.versions_of(first.filler_id)) == 1
        server.repeat_fragment(first.filler_id)
        assert len(store.versions_of(first.filler_id)) == 2

    def test_update_unknown_fragment(self, rig):
        _clock, _channel, server, _client = rig
        with pytest.raises(StreamServerError):
            server.update_fragment(999, Element("creditLimit"))

    def test_emit_event_wrong_tag(self, rig):
        _clock, _channel, server, _client = rig
        account_hole = server.hole_id(0, "account", "1")
        with pytest.raises(StreamServerError):
            server.emit_event(account_hole, Element("creditLimit"))

    def test_hole_id_unknown(self, rig):
        _clock, _channel, server, _client = rig
        with pytest.raises(StreamServerError):
            server.hole_id(0, "transaction", "nope")

    def test_latest_content_copy(self, rig):
        _clock, _channel, server, _client = rig
        content = server.latest_content(0)
        content.append(Element("junk"))
        assert server.latest_content(0).first("junk") is None

    def test_byte_accounting(self, rig):
        _clock, _channel, server, client = rig
        assert server.sent_bytes == client.received_bytes
        assert server.sent_fillers == client.received_fillers


class TestLossRecovery:
    def test_repeats_fill_in_losses(self):
        clock = SimulatedClock("2003-10-01T00:00:00")
        channel = LossyChannel(loss_rate=0.4, seed=3)
        client = StreamClient(clock)
        client.tune_in(channel)
        server = StreamServer("credit", credit_structure(), channel, clock)
        server.announce()
        server.publish_document(
            parse_document(
                "<creditAccounts><account id='1'><customer>X</customer>"
                "<creditLimit>5</creditLimit></account></creditAccounts>"
            )
        )
        # Keep repeating the announcement and all fragments until the lossy
        # channel lets everything through (the paper's remedy for no-NACK
        # broadcast: servers repeat critical fragments).
        for _ in range(50):
            if (
                "credit" in client.engine.stores
                and client.store_of("credit").fragment_count == 3
            ):
                break
            server.announce()
            for filler_id in list(server._content):
                server.repeat_fragment(filler_id)
        assert client.store_of("credit").fragment_count == 3


class TestContinuousQueries:
    QUERY = (
        'for $a in stream("credit")//account '
        "where sum($a/transaction?[now-PT1H,now]/amount) >= 100 "
        'return <hot id="{$a/@id}"/>'
    )

    def test_delta_mode_emits_once(self, rig):
        clock, _channel, server, client = rig
        query = client.register_query(self.QUERY)
        hits = []
        query.subscribe(lambda items: hits.extend(items))
        account_hole = server.hole_id(0, "account", "1")
        client.poll()
        assert hits == []
        server.emit_event(account_hole, transaction("t1", "150"))
        client.poll()
        assert len(hits) == 1
        client.poll()  # unchanged state: no re-emission
        assert len(hits) == 1

    def test_window_slides_out(self, rig):
        clock, _channel, server, client = rig
        query = client.register_query(self.QUERY)
        account_hole = server.hole_id(0, "account", "1")
        server.emit_event(account_hole, transaction("t1", "150"))
        assert len(query.evaluate(clock.now())) == 1
        clock.advance("PT2H")
        assert query.evaluate(clock.now()) == []
        assert query.last_result == []

    def test_full_mode_reemits(self, rig):
        clock, _channel, server, client = rig
        query = client.register_query(self.QUERY, emit="full")
        account_hole = server.hole_id(0, "account", "1")
        server.emit_event(account_hole, transaction("t1", "150"))
        assert len(query.evaluate(clock.now())) == 1
        assert len(query.evaluate(clock.now())) == 1
        assert query.emitted_total == 2

    def test_reset_forgets_history(self, rig):
        clock, _channel, server, client = rig
        query = client.register_query(self.QUERY)
        account_hole = server.hole_id(0, "account", "1")
        server.emit_event(account_hole, transaction("t1", "150"))
        assert len(query.evaluate(clock.now())) == 1
        query.reset()
        assert len(query.evaluate(clock.now())) == 1

    def test_invalid_emit_mode(self, rig):
        _clock, _channel, _server, client = rig
        with pytest.raises(ValueError):
            client.register_query(self.QUERY, emit="sometimes")

    def test_strategies_available(self, rig):
        _clock, _channel, server, client = rig
        query = client.register_query(self.QUERY, strategy=Strategy.CAQ)
        assert query.compiled.strategy is Strategy.CAQ

    def test_fillers_before_announcement_ignored(self):
        clock = SimulatedClock("2003-10-01T00:00:00")
        channel = Channel()
        client = StreamClient(clock)
        client.tune_in(channel)
        server = StreamServer("credit", credit_structure(), channel, clock)
        # No announce(): fillers arrive for an unknown stream.
        server.publish_document(
            parse_document(
                "<creditAccounts><account id='1'><customer>X</customer>"
                "<creditLimit>5</creditLimit></account></creditAccounts>"
            )
        )
        assert client.received_fillers == 0
        assert "credit" not in client.engine.stores
