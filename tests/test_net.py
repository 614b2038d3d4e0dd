"""The network transport: framing, batching, backpressure, catch-up.

Differential coverage for :mod:`repro.streams.netproto` (pure wire
layer) and :mod:`repro.streams.net` (asyncio server/client): every
end-to-end scenario asserts payload *byte identity* against what was
published, because the client feeds received text straight into the
engine's raw-event ingest.  There is no pytest-asyncio in the image, so
async scenarios run under ``asyncio.run`` inside sync tests.
"""

from __future__ import annotations

import asyncio
import os

import pytest

from repro.core import XCQLEngine
from repro.core.optimizer import RoutingPredicate
from repro.core.translator import TranslationError
from repro.fragments.model import parse_filler
from repro.fragments.persist import Journal
from repro.fragments.tagstructure import TagStructure, TagType
from repro.streams import netproto as proto
from repro.streams.compression import TagCodec
from repro.streams.net import (
    BLOCK,
    DISCONNECT,
    DROP,
    StreamClient,
    StreamServer,
    Subscription,
)
from repro.streams.netproto import FrameDecoder, ProtocolError
from repro.streams.routing import route_match
from repro.streams.transport import (
    FILLER,
    TAG_STRUCTURE,
    Channel,
    LossyChannel,
    Message,
    peek_filler,
)
from tests.conftest import CREDIT_TAG_STRUCTURE_XML

TS_XML = (
    '<stream:structure><tag type="snapshot" id="1" name="report">'
    '<tag type="temporal" id="2" name="customer">'
    '<tag type="snapshot" id="3" name="name"/>'
    '<tag type="temporal" id="4" name="balance"/></tag>'
    '<tag type="event" id="5" name="alert"/></tag></stream:structure>'
)


def filler_xml(i: int, balance: int = 100, tsid: int = 2) -> str:
    day = (i % 27) + 1
    if tsid == 5:
        return (
            f'<filler id="{i}" tsid="5" validTime="2004-01-{day:02d}">'
            f"<alert>a{i}</alert></filler>"
        )
    return (
        f'<filler id="{i}" tsid="2" validTime="2004-01-{day:02d}">'
        f"<customer><name>c{i}</name><balance>{balance}</balance>"
        "</customer></filler>"
    )


def run(coro):
    return asyncio.run(coro)


async def wait_until(cond, timeout: float = 5.0) -> None:
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while not cond():
        if loop.time() > deadline:
            raise AssertionError("condition not met before timeout")
        await asyncio.sleep(0.01)


async def start_server(tmp_path, **kw):
    kw.setdefault("journal", Journal(os.path.join(tmp_path, "net.journal")))
    server = StreamServer(**kw)
    await server.start()
    return server


# -- wire layer -------------------------------------------------------------------


class TestFraming:
    def test_control_roundtrip(self):
        frame = proto.encode_control(proto.HELLO, versions=[1], token="x")
        decoder = FrameDecoder()
        (decoded,) = decoder.feed(frame)
        assert decoded.type == proto.HELLO
        assert decoded.name == "HELLO"
        assert decoded.header == {"versions": [1], "token": "x"}

    def test_batch_roundtrip(self):
        entries = [(1, filler_xml(1)), (2, filler_xml(2))]
        frame = proto.encode_batch(proto.BATCH, "credit", FILLER, entries)
        (decoded,) = FrameDecoder().feed(frame)
        assert decoded.type == proto.BATCH
        assert decoded.stream == "credit"
        assert decoded.kind == FILLER
        assert not decoded.compressed
        assert decoded.entries == entries

    def test_batch_multibyte_payloads(self):
        text = '<filler id="1" tsid="2"><customer><name>Ünïcødé — 漢字</name></customer></filler>'
        frame = proto.encode_batch(proto.BATCH, "crédit–漢", FILLER, [(7, text)])
        (decoded,) = FrameDecoder().feed(frame)
        assert decoded.stream == "crédit–漢"
        assert decoded.entries == [(7, text)]

    def test_chunk_boundaries_anywhere(self):
        frames = (
            proto.encode_control(proto.HELLO, versions=[1])
            + proto.encode_batch(
                proto.FEED, "s", TAG_STRUCTURE, [(0, TS_XML)]
            )
            + proto.encode_batch(
                proto.BATCH, "s", FILLER, [(i, filler_xml(i)) for i in range(5)]
            )
            + proto.encode_control(proto.BYE)
        )
        decoder = FrameDecoder()
        out = []
        for i in range(len(frames)):  # one byte at a time
            out.extend(decoder.feed(frames[i : i + 1]))
        assert [f.type for f in out] == [
            proto.HELLO,
            proto.FEED,
            proto.BATCH,
            proto.BYE,
        ]
        assert out[2].entries[4] == (4, filler_xml(4))
        assert decoder.frames_decoded == 4

    def test_oversized_frame_rejected_before_buffering(self):
        decoder = FrameDecoder(max_frame_bytes=64)
        import struct

        with pytest.raises(ProtocolError, match="exceeds"):
            decoder.feed(struct.pack(">I", 1 << 20))

    def test_unknown_frame_type(self):
        import struct

        body = bytes([99]) + b"{}"
        with pytest.raises(ProtocolError, match="unknown frame type"):
            FrameDecoder().feed(struct.pack(">I", len(body)) + body)

    def test_truncated_batch_entry(self):
        frame = bytearray(
            proto.encode_batch(proto.BATCH, "s", FILLER, [(1, "x" * 40)])
        )
        # Shrink the body but keep the advertised entry length.
        clipped = frame[: len(frame) - 10]
        import struct

        clipped[0:4] = struct.pack(">I", len(clipped) - 4)
        with pytest.raises(ProtocolError, match="truncated"):
            FrameDecoder().feed(bytes(clipped))

    def test_version_negotiation(self):
        assert proto.choose_version([1]) == 1
        assert proto.choose_version([1, 2, 99]) == 2  # highest common is v2 now
        assert proto.choose_version([2]) == 2
        assert proto.choose_version([99]) is None
        assert proto.choose_version([]) is None
        assert proto.choose_version(None) is None
        assert proto.choose_version(["junk", 1.0]) == 1
        # json accepts Infinity/NaN and booleans are ints; neither is a
        # protocol version, and none may crash negotiation.
        assert proto.choose_version([float("inf"), float("nan"), True]) is None

    def test_worker_frames_need_v2(self):
        assert proto.PROTOCOL_VERSIONS == (1, 2)
        for ftype in sorted(proto.WORKER_TYPES):
            assert proto.min_version(ftype) == 2
        for ftype in (proto.HELLO, proto.SUBSCRIBE, proto.BATCH, proto.ACK):
            assert proto.min_version(ftype) == 1


class TestStreamingCodec:
    def test_compress_roundtrip_byte_exact(self):
        codec = TagCodec(TagStructure.from_xml(TS_XML))
        text = (
            '<filler id="7" tsid="2" validTime="2004-02-01">'
            '<customer note="a&gt;b"><name>Ünïcødé — 漢字</name>'
            "<balance>42</balance><!-- c --><unknown/></customer></filler>"
        )
        for size in (1, 3, 17, 4096):
            chunks = [text[i : i + size] for i in range(0, len(text), size)]
            encoded = "".join(codec.compress_iter(chunks))
            assert "customer" not in encoded  # names actually rewritten
            back = [encoded[i : i + size] for i in range(0, len(encoded), size)]
            assert "".join(codec.decompress_iter(back)) == text

    def test_compress_iter_chunking_invariant(self):
        codec = TagCodec(TagStructure.from_xml(TS_XML))
        text = filler_xml(3) * 5
        whole = "".join(codec.compress_iter([text]))
        tiny = "".join(
            codec.compress_iter([text[i : i + 2] for i in range(0, len(text), 2)])
        )
        assert whole == tiny


# -- satellite units --------------------------------------------------------------


class TestTransportSatellites:
    def test_wire_size_memoized(self):
        message = Message(FILLER, "s", "é" * 1000)
        assert message.wire_size == 2000
        assert message.__dict__["wire_size"] == 2000  # cached on the instance
        assert message.wire_size == 2000

    def test_channel_stats(self):
        channel = Channel()
        channel.subscribe(lambda m: None)
        channel.publish(Message(FILLER, "s", "<x/>"))
        assert channel.stats() == {
            "kind": "channel",
            "published": 1,
            "delivered": 1,
            "subscribers": 1,
        }

    def test_lossy_channel_stats_counters(self):
        channel = LossyChannel(loss_rate=0.5, duplicate_rate=0.5, seed=7)
        got = []
        channel.subscribe(got.append)
        for i in range(200):
            channel.publish(Message(FILLER, "s", f"<f{i}/>"))
        stats = channel.stats()
        assert stats["dropped"] == channel.dropped > 0
        assert stats["duplicated"] == channel.duplicated > 0
        assert stats["delivered"] == 200 - stats["dropped"]
        assert len(got) == stats["delivered"] + stats["duplicated"]

    def test_pipe_to_bridges_channels(self):
        upstream, downstream = Channel(), Channel()
        got = []
        downstream.subscribe(got.append)
        upstream.subscribe(downstream.publish)
        upstream.publish(Message(FILLER, "s", "<a/>"))
        upstream.unsubscribe(downstream.publish)
        upstream.publish(Message(FILLER, "s", "<b/>"))
        assert [m.payload for m in got] == ["<a/>"]

    def test_peek_filler_multibyte_text(self):
        payload = (
            '<filler id="12" tsid="2" validTime="2004-01-01">'
            "<customer><name>Ünïcødé — 漢字 𝄞</name>"
            '<hole id="99"/></customer></filler>'
        )
        assert peek_filler(payload) == (12, 2, [99])

    def test_peek_filler_attribute_value_with_gt(self):
        # escape_attribute leaves ">" alone, so payload attributes
        # containing ">" legitimately appear on the wire; the envelope
        # peek must not mistake them for the end of a tag.
        payload = (
            '<filler id="3" tsid="2" validTime="2004-01-01">'
            '<customer note="a&gt;b" cmp="x > y"><name>n</name>'
            '<hole id="4"/></customer></filler>'
        )
        assert peek_filler(payload) == (3, 2, [4])


class TestJournalIndexed:
    def test_read_indexed_matches_read(self, tmp_path):
        journal = Journal(tmp_path / "j.log")
        journal.record(Message(TAG_STRUCTURE, "credit", TS_XML))
        for i in range(4):
            journal.record(Message(FILLER, "credit", filler_xml(i)))
        plain = list(journal.read())
        indexed = list(journal.read_indexed())
        assert [seq for seq, _ in indexed] == [1, 2, 3, 4, 5]
        assert [m.kind for _, m in indexed] == [m.kind for m in plain]
        assert journal.last_seq == 5

    def test_read_indexed_is_byte_exact(self, tmp_path):
        # read() reparses and reserializes; read_indexed must return the
        # exact wire text (the raw-ingest path depends on it).
        journal = Journal(tmp_path / "j.log")
        payload = (
            '<filler id="1" tsid="2" validTime="2004-01-01">'
            '<customer note="a&gt;b"><name>漢字</name></customer></filler>'
        )
        journal.record(Message(FILLER, "credit", payload))
        ((seq, message),) = list(journal.read_indexed())
        assert seq == 1
        assert message.payload == payload

    def test_line_breaks_survive_catchup(self, tmp_path):
        """A CATCHUP subscriber gets the bytes a live one got, line breaks too."""
        payloads = [
            filler_xml(1).replace("c1", "line one\nline two"),
            filler_xml(2).replace("c2", "crlf\r\nlone\rback\\slash"),
            filler_xml(3),
        ]

        async def scenario():
            server = await start_server(tmp_path)
            live_got = []
            live = StreamClient("127.0.0.1", server.port, on_message=live_got.append)
            await live.connect()
            await asyncio.wait_for(live.subscribe([Subscription("credit")]), 5)
            await server.publish(Message(TAG_STRUCTURE, "credit", TS_XML))
            for payload in payloads:
                await server.publish(Message(FILLER, "credit", payload))
            await wait_until(lambda: len(live_got) == 4)
            assert server.journal.last_seq == 4

            late_got = []
            late = StreamClient("127.0.0.1", server.port, on_message=late_got.append)
            await late.connect()
            await asyncio.wait_for(
                late.subscribe([Subscription("credit")], catchup=True), 5
            )
            ack = await asyncio.wait_for(late.catchup(after=0), 5)
            assert ack["replayed"] == 4
            await wait_until(lambda: len(late_got) == 4)
            await live.close()
            await late.close()
            await server.close()
            return live_got, late_got

        live_got, late_got = run(scenario())
        assert [m.payload for m in live_got[1:]] == payloads
        assert [(m.kind, m.payload) for m in late_got] == [
            (m.kind, m.payload) for m in live_got
        ]
        answers = []
        for got in (live_got, late_got):
            engine = XCQLEngine()
            engine.register_stream("credit", TagStructure.from_xml(got[0].payload))
            engine.feed_raw("credit", [m.payload for m in got[1:]])
            store = engine.stores["credit"]
            answers.append([store.versions_of(fid)[0].string_value() for fid in (1, 2, 3)])
        assert answers[0] == answers[1]
        assert answers[0][0].startswith("line one\nline two")

    def test_read_indexed_skips_before_parsing(self, tmp_path):
        journal = Journal(tmp_path / "j.log")
        for i in range(10):
            journal.record(Message(FILLER, "credit", filler_xml(i)))
        tail = list(journal.read_indexed(after=7))
        assert [seq for seq, _ in tail] == [8, 9, 10]
        assert tail[0][1].payload == filler_xml(7)

    def test_missing_journal(self, tmp_path):
        journal = Journal(tmp_path / "absent.log")
        assert list(journal.read_indexed()) == []
        assert journal.last_seq == 0

    def test_corrupt_record(self, tmp_path):
        path = tmp_path / "j.log"
        path.write_text("not a journal line\n")
        with pytest.raises(ValueError, match="corrupt"):
            list(Journal(path).read_indexed())


class TestEngineDeliver:
    def test_structure_then_filler(self):
        engine = XCQLEngine()
        assert engine.deliver(Message(TAG_STRUCTURE, "credit", TS_XML)) == 0
        assert "credit" in engine.stores
        assert engine.deliver(Message(FILLER, "credit", filler_xml(1))) == 1
        assert engine.deliver(Message(FILLER, "credit", filler_xml(1))) == 0
        assert engine.stores["credit"].filler_count == 1

    def test_filler_before_structure_raises(self):
        engine = XCQLEngine()
        with pytest.raises(TranslationError, match="unknown stream"):
            engine.deliver(Message(FILLER, "ghost", filler_xml(1)))

    def test_unknown_kind(self):
        engine = XCQLEngine()
        with pytest.raises(ValueError, match="unknown message kind"):
            engine.deliver(Message("noise", "credit", "<x/>"))


# -- end-to-end scenarios -----------------------------------------------------------


class TestEndToEnd:
    def test_live_delivery_multi_client_convergence(self, tmp_path):
        async def scenario():
            server = await start_server(tmp_path)
            engines = [XCQLEngine(), XCQLEngine()]
            clients = []
            for engine in engines:
                client = StreamClient("127.0.0.1", server.port, engine=engine)
                assert await client.connect() == 2
                await asyncio.wait_for(
                    client.subscribe([Subscription("credit")]), 5
                )
                clients.append(client)
            await server.publish(Message(TAG_STRUCTURE, "credit", TS_XML))
            for i in range(20):
                await server.publish(Message(FILLER, "credit", filler_xml(i)))
            await wait_until(lambda: all(c.received == 21 for c in clients))
            for engine in engines:
                store = engine.stores["credit"]
                assert store.filler_count == 20
            # Byte-identical arrival everywhere, applied through feed_raw.
            assert [
                f.to_xml() for f in engines[0].stores["credit"].fillers_since(0)
            ] == [
                f.to_xml() for f in engines[1].stores["credit"].fillers_since(0)
            ]
            for client in clients:
                await client.close()
            await server.close()

        run(scenario())

    def test_batching_coalesces_frames(self, tmp_path):
        async def scenario():
            server = await start_server(tmp_path, max_batch_bytes=1 << 20)
            got = []
            client = StreamClient("127.0.0.1", server.port, on_message=got.append)
            await client.connect()
            await asyncio.wait_for(client.subscribe([Subscription("s")]), 5)
            await server.publish(Message(TAG_STRUCTURE, "s", TS_XML))
            for i in range(100):
                await server.publish(Message(FILLER, "s", filler_xml(i)))
            await wait_until(lambda: len(got) == 101)
            # 100 fillers crossed the wire in a handful of frames, not 100.
            assert client.batches <= 10
            await client.close()
            await server.close()

        run(scenario())

    def test_flush_on_size_bound(self, tmp_path):
        async def scenario():
            # A tiny byte bound forces a flush per envelope even though
            # the burst would have coalesced them.
            server = await start_server(tmp_path, max_batch_bytes=10)
            got = []
            client = StreamClient("127.0.0.1", server.port, on_message=got.append)
            await client.connect()
            await asyncio.wait_for(client.subscribe([Subscription("s")]), 5)
            for i in range(5):
                await server.publish(Message(FILLER, "s", filler_xml(i)))
            await wait_until(lambda: len(got) == 5, timeout=3.0)
            assert client.batches == 5
            await client.close()
            await server.close()

        run(scenario())

    def test_compressed_batches_are_byte_exact(self, tmp_path):
        async def scenario():
            server = await start_server(
                tmp_path,
                compress_threshold=64,  # force compression
                max_batch_bytes=1 << 20,
            )
            engine = XCQLEngine()
            got = []
            client = StreamClient(
                "127.0.0.1", server.port, engine=engine, on_message=got.append
            )
            await client.connect()
            await asyncio.wait_for(client.subscribe([Subscription("credit")]), 5)
            await server.publish(Message(TAG_STRUCTURE, "credit", TS_XML))
            published = [filler_xml(i, balance=1000 + i) for i in range(30)]
            for payload in published:
                await server.publish(Message(FILLER, "credit", payload))
            await wait_until(lambda: len(got) == 31)
            assert client.compressed_batches > 0
            assert [m.payload for m in got[1:]] == published
            assert engine.stores["credit"].filler_count == 30
            await client.close()
            await server.close()

        run(scenario())

    def test_slow_consumer_drop_policy_bounds_memory(self, tmp_path):
        async def scenario():
            server = await start_server(
                tmp_path,
                slow_policy=DROP,
                queue_frames=4,
                max_batch_bytes=1024,
            )
            # A deliberately slow consumer: handshakes, subscribes, then
            # never reads another byte off the socket.
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write(proto.encode_control(proto.HELLO, versions=[1]))
            writer.write(
                proto.encode_control(
                    proto.SUBSCRIBE,
                    subscriptions=[{"stream": "s"}],
                    catchup=False,
                )
            )
            await writer.drain()
            await wait_until(
                lambda: server._conns and server._conns[0].subscriptions
            )
            big = "<customer>" + "x" * 4096 + "</customer>"
            for i in range(2000):
                await server.publish(
                    Message(
                        FILLER,
                        "s",
                        f'<filler id="{i}" tsid="2" validTime="2004-01-01">'
                        f"{big}</filler>",
                    )
                )
            stats = server.stats()
            assert stats["dropped_frames"] > 0  # shedding, not buffering
            assert stats["queued_frames"] <= 4  # bounded queue held
            assert stats["disconnected_slow"] == 0
            writer.close()
            await server.close()

        run(scenario())

    def test_slow_consumer_disconnect_policy(self, tmp_path):
        async def scenario():
            server = await start_server(
                tmp_path,
                slow_policy=DISCONNECT,
                queue_frames=2,
                max_batch_bytes=1024,
            )
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write(proto.encode_control(proto.HELLO, versions=[1]))
            writer.write(
                proto.encode_control(
                    proto.SUBSCRIBE,
                    subscriptions=[{"stream": "s"}],
                    catchup=False,
                )
            )
            await writer.drain()
            await wait_until(
                lambda: server._conns and server._conns[0].subscriptions
            )
            big = "<customer>" + "x" * 4096 + "</customer>"
            for i in range(2000):
                await server.publish(
                    Message(
                        FILLER,
                        "s",
                        f'<filler id="{i}" tsid="2" validTime="2004-01-01">'
                        f"{big}</filler>",
                    )
                )
                if server.disconnected_slow:
                    break
            assert server.disconnected_slow == 1
            assert len(server._conns) == 0
            writer.close()
            await server.close()

        run(scenario())

    def test_block_policy_keeps_everything(self, tmp_path):
        async def scenario():
            server = await start_server(
                tmp_path,
                slow_policy=BLOCK,
                queue_frames=2,
                max_batch_bytes=256,
            )
            got = []
            client = StreamClient("127.0.0.1", server.port, on_message=got.append)
            await client.connect()
            await asyncio.wait_for(client.subscribe([Subscription("s")]), 5)
            for i in range(200):
                await server.publish(Message(FILLER, "s", filler_xml(i)))
            await wait_until(lambda: len(got) == 200)
            assert [m.payload for m in got] == [filler_xml(i) for i in range(200)]
            assert server.stats()["dropped_frames"] == 0
            await client.close()
            await server.close()

        run(scenario())

    def test_kill_and_reconnect_catchup_byte_identical(self, tmp_path):
        """The acceptance scenario: a killed client, reconnected with its
        last seen seq, converges to the always-connected client's bytes."""

        async def scenario():
            server = await start_server(tmp_path)
            steady_got, flaky_got = [], []
            steady = StreamClient(
                "127.0.0.1", server.port, on_message=steady_got.append
            )
            await steady.connect()
            await asyncio.wait_for(steady.subscribe([Subscription("credit")]), 5)

            flaky = StreamClient(
                "127.0.0.1", server.port, on_message=flaky_got.append
            )
            await flaky.connect()
            await asyncio.wait_for(flaky.subscribe([Subscription("credit")]), 5)

            await server.publish(Message(TAG_STRUCTURE, "credit", TS_XML))
            for i in range(10):
                await server.publish(Message(FILLER, "credit", filler_xml(i)))
            await wait_until(lambda: flaky.received == 11 and steady.received == 11)

            # Kill the flaky client mid-stream (no BYE, socket just dies).
            flaky._writer.close()
            await flaky.closed.wait()
            survivor_seq = flaky.last_seen
            for i in range(10, 25):
                await server.publish(Message(FILLER, "credit", filler_xml(i)))
            await wait_until(lambda: steady.received == 26)

            # Reconnect with the stored seq; journal replay fills the gap.
            revived = StreamClient(
                "127.0.0.1", server.port, on_message=flaky_got.append
            )
            await revived.connect()
            await asyncio.wait_for(
                revived.subscribe([Subscription("credit")], catchup=True), 5
            )
            ack = await asyncio.wait_for(revived.catchup(after=survivor_seq), 5)
            assert ack["catchup"] is True
            assert ack["replayed"] == 15
            await wait_until(lambda: len(flaky_got) == len(steady_got))

            assert [(m.kind, m.stream, m.payload) for m in flaky_got] == [
                (m.kind, m.stream, m.payload) for m in steady_got
            ]
            await steady.close()
            await revived.close()
            await server.close()

        run(scenario())

    def test_feed_producer_path(self, tmp_path):
        async def scenario():
            server = await start_server(tmp_path)
            got = []
            subscriber = StreamClient(
                "127.0.0.1", server.port, on_message=got.append
            )
            await subscriber.connect()
            await asyncio.wait_for(subscriber.subscribe([Subscription("credit")]), 5)

            producer = StreamClient(
                "127.0.0.1", server.port, feed_compress_threshold=1
            )
            await producer.connect()
            published = [Message(TAG_STRUCTURE, "credit", TS_XML)] + [
                Message(FILLER, "credit", filler_xml(i)) for i in range(8)
            ]
            await producer.feed(published)
            await wait_until(lambda: len(got) == 9)
            # Compressed FEED frames still land byte-exact after the
            # server's streaming decompression.
            assert [m.payload for m in got] == [m.payload for m in published]
            assert server.fed_entries == 9
            assert server.journal.last_seq == 9
            await producer.close()
            await subscriber.close()
            await server.close()

        run(scenario())

    def test_unsupported_version_refused(self, tmp_path):
        async def scenario():
            server = await start_server(tmp_path)
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write(proto.encode_control(proto.HELLO, versions=[99]))
            await writer.drain()
            decoder = FrameDecoder()
            frames = []
            while not frames:
                data = await asyncio.wait_for(reader.read(65536), 5)
                assert data, "server closed without an ERROR frame"
                frames = decoder.feed(data)
            assert frames[0].type == proto.ERROR
            assert frames[0].header["code"] == "unsupported-version"
            assert await asyncio.wait_for(reader.read(65536), 5) == b""
            writer.close()
            await server.close()

        run(scenario())


class TestRoutingFrontDoor:
    def test_tsid_narrowed_subscription_skips(self, tmp_path):
        async def scenario():
            server = await start_server(tmp_path)
            got = []
            client = StreamClient("127.0.0.1", server.port, on_message=got.append)
            await client.connect()
            await asyncio.wait_for(
                client.subscribe([Subscription("credit", tsid=5)]), 5
            )
            await server.publish(Message(TAG_STRUCTURE, "credit", TS_XML))
            for i in range(6):
                await server.publish(
                    Message(FILLER, "credit", filler_xml(i, tsid=2))
                )
            for i in range(6, 9):
                await server.publish(
                    Message(FILLER, "credit", filler_xml(i, tsid=5))
                )
            await wait_until(lambda: len(got) == 4)  # structure + 3 alerts
            await asyncio.sleep(0.05)
            assert len(got) == 4
            assert all(
                peek_filler(m.payload)[1] == 5 for m in got if m.kind == FILLER
            )
            assert server.routing_skips == 6
            await client.close()
            await server.close()

        run(scenario())

    def test_predicate_probe_skips_non_matching(self, tmp_path):
        async def scenario():
            server = await start_server(tmp_path)
            predicate = RoutingPredicate(
                tuple_tag="customer",
                path=("balance",),
                attribute=None,
                text_only=False,
                op=">",
                value=500.0,
                numeric=True,
            )
            got = []
            client = StreamClient("127.0.0.1", server.port, on_message=got.append)
            await client.connect()
            await asyncio.wait_for(
                client.subscribe(
                    [Subscription("credit", tsid=2, predicate=predicate)]
                ),
                5,
            )
            await server.publish(Message(TAG_STRUCTURE, "credit", TS_XML))
            await server.publish(
                Message(FILLER, "credit", filler_xml(1, balance=100))
            )
            await server.publish(
                Message(FILLER, "credit", filler_xml(2, balance=900))
            )
            await wait_until(lambda: len(got) == 2)  # structure + matching
            await asyncio.sleep(0.05)
            assert peek_filler(got[1].payload)[0] == 2
            assert server.routing_probes >= 2
            assert server.routing_skips == 1
            await client.close()
            await server.close()

        run(scenario())

    def test_predicate_probe_exact_past_a_compiled_shape(self, tmp_path):
        """Past 100 repeats of one markup shape, it and its siblings are
        routed exactly like the DOM probe."""
        predicate = RoutingPredicate("customer", ("balance",), None, False, ">", 500.0, True)
        same_shape = [filler_xml(i, balance=100 + 800 * (i % 2)) for i in range(108)]
        n = len(same_shape)
        siblings = [
            # An entity in the operand: 100 once decoded, no number before.
            filler_xml(n, balance="1&#48;0"),
            # The attributes in another order, and the envelope passes.
            filler_xml(n + 1, balance=900).replace(
                f'<filler id="{n + 1}" tsid="2"', f'<filler tsid="2" id="{n + 1}"'
            ),
            # Malformed (an unknown entity): unreadable, so sent.
            filler_xml(n + 2, balance="&bogus;"),
        ]

        def sent(text: str) -> bool:
            try:
                return route_match(predicate, parse_filler(text), TagType.TEMPORAL)
            except ValueError:
                return True

        expected = [text for text in same_shape + siblings if sent(text)]
        assert [sent(text) for text in siblings] == [False, True, True]

        async def scenario():
            server = await start_server(tmp_path)
            got = []
            client = StreamClient("127.0.0.1", server.port, on_message=got.append)
            await client.connect()
            await asyncio.wait_for(
                client.subscribe([Subscription("credit", tsid=2, predicate=predicate)]), 5
            )
            await server.publish(Message(TAG_STRUCTURE, "credit", TS_XML))
            for text in same_shape + siblings:
                await server.publish(Message(FILLER, "credit", text))
            assert server.routing_probes == n + len(siblings)
            await wait_until(lambda: len(got) == 1 + len(expected))
            await asyncio.sleep(0.05)
            assert [m.payload for m in got[1:]] == expected
            assert server.routing_skips == n + len(siblings) - len(expected)
            await client.close()
            await server.close()

        run(scenario())

    def test_supersede_wakes_past_predicate(self, tmp_path):
        async def scenario():
            server = await start_server(tmp_path)
            predicate = RoutingPredicate(
                tuple_tag="customer",
                path=("balance",),
                attribute=None,
                text_only=False,
                op=">",
                value=500.0,
                numeric=True,
            )
            got = []
            client = StreamClient("127.0.0.1", server.port, on_message=got.append)
            await client.connect()
            await asyncio.wait_for(
                client.subscribe(
                    [Subscription("credit", tsid=2, predicate=predicate)]
                ),
                5,
            )
            await server.publish(Message(TAG_STRUCTURE, "credit", TS_XML))
            # First version fails the predicate: skipped.
            await server.publish(
                Message(FILLER, "credit", filler_xml(1, balance=100))
            )
            # A second version of the same non-event filler must be
            # delivered even though its balance also fails the predicate:
            # the previous version's annotations move regardless.
            await server.publish(
                Message(FILLER, "credit", filler_xml(1, balance=50))
            )
            await wait_until(lambda: len(got) == 2)
            assert peek_filler(got[1].payload) == (1, 2, [])
            assert "50" in got[1].payload
            await client.close()
            await server.close()

        run(scenario())


class TestServerBootstrap:
    def test_structures_recovered_from_journal(self, tmp_path):
        async def scenario():
            journal = Journal(os.path.join(tmp_path, "boot.journal"))
            server = await start_server(tmp_path, journal=journal)
            await server.publish(Message(TAG_STRUCTURE, "credit", TS_XML))
            await server.publish(Message(FILLER, "credit", filler_xml(1)))
            await server.close()

            # A restarted server re-derives schemas (and codecs) from the
            # journal and keeps numbering where it left off.
            reborn = StreamServer(journal=journal)
            await reborn.start()
            assert reborn.seq == 2
            assert "credit" in reborn._structures
            got = []
            client = StreamClient("127.0.0.1", reborn.port, on_message=got.append)
            await client.connect()
            await asyncio.wait_for(
                client.subscribe([Subscription("credit")], catchup=True), 5
            )
            await asyncio.wait_for(client.catchup(after=0), 5)
            await wait_until(lambda: len(got) == 2)
            assert got[1].payload == filler_xml(1)
            await client.close()
            await reborn.close()

        run(scenario())

    def test_fresh_subscriber_receives_current_schema(self, tmp_path):
        async def scenario():
            server = await start_server(tmp_path)
            await server.publish(Message(TAG_STRUCTURE, "credit", TS_XML))
            await server.publish(Message(FILLER, "credit", filler_xml(1)))
            engine = XCQLEngine()
            client = StreamClient("127.0.0.1", server.port, engine=engine)
            await client.connect()
            # No catch-up: live-only subscription still learns the schema.
            await asyncio.wait_for(client.subscribe([Subscription("credit")]), 5)
            await server.publish(Message(FILLER, "credit", filler_xml(2)))
            await wait_until(lambda: client.received == 2)
            assert engine.stores["credit"].filler_count == 1
            await client.close()
            await server.close()

        run(scenario())


# -- the WORKER role (protocol v2) ------------------------------------------------


async def _raw_connect(port: int, versions):
    """Open a raw protocol connection; returns (reader, writer, decoder,
    negotiated HELLO frame)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    decoder = FrameDecoder()
    writer.write(proto.encode_control(proto.HELLO, versions=list(versions)))
    await writer.drain()
    frames = []
    while not frames:
        data = await asyncio.wait_for(reader.read(65536), 5)
        assert data, "server closed during the handshake"
        frames = decoder.feed(data)
    return reader, writer, decoder, frames[0]


async def _exchange(reader, writer, decoder, data, count=1):
    """Send one frame, await ``count`` reply frames."""
    writer.write(data)
    await writer.drain()
    frames = []
    while len(frames) < count:
        chunk = await asyncio.wait_for(reader.read(65536), 5)
        assert chunk, "server closed mid-exchange"
        frames.extend(decoder.feed(chunk))
    return frames


class TestWorkerRole:
    def test_worker_host_serves_dispatch_poll_respawn(self, tmp_path):
        """A v2 peer drives a full shard lifecycle with raw frames."""

        async def scenario():
            server = await start_server(tmp_path, worker=True)
            reader, writer, decoder, hello = await _raw_connect(
                server.port, proto.PROTOCOL_VERSIONS
            )
            assert hello.type == proto.HELLO
            assert hello.header["version"] == 2

            (ack,) = await _exchange(
                reader, writer, decoder,
                proto.encode_control(
                    proto.DISPATCH, id=1, cmd="configure", args=[{}]
                ),
            )
            assert ack.type == proto.ACK
            assert ack.header == {"id": 1, "ok": True, "result": True}

            (ack,) = await _exchange(
                reader, writer, decoder,
                proto.encode_control(
                    proto.DISPATCH, id=2, cmd="register_stream",
                    args=["credit", TS_XML],
                ),
            )
            assert ack.header["ok"] is True

            (reply,) = await _exchange(
                reader, writer, decoder,
                proto.encode_control(
                    proto.POLL, id=3, now="2004-02-01T00:00:00"
                ),
            )
            assert reply.type == proto.POLL_REPLY
            assert reply.header["id"] == 3
            assert reply.header["emitted"] == {}
            assert "watermarks" in reply.header

            (ack,) = await _exchange(
                reader, writer, decoder,
                proto.encode_control(proto.RESPAWN, id=4),
            )
            assert ack.type == proto.ACK
            assert ack.header == {"id": 4, "ok": True, "result": True}
            # RESPAWN discarded the shard: its streams are gone, and the
            # error comes back as a failed ACK, not a dead connection.
            (ack,) = await _exchange(
                reader, writer, decoder,
                proto.encode_control(
                    proto.DISPATCH, id=5, cmd="feed_raw",
                    args=["credit", [filler_xml(1)]],
                ),
            )
            assert ack.header["ok"] is False
            assert "credit" in ack.header["error"]

            stats = server.stats()
            assert stats["worker"]["commands"] == 3
            assert stats["worker"]["polls"] == 1
            assert stats["worker"]["resets"] == 1
            assert stats["worker"]["hosted_shards"] == 1
            writer.close()
            await server.close()

        run(scenario())

    def test_v1_peer_served_degraded_not_refused(self, tmp_path):
        """A v1-only peer still gets the full v1 surface on a worker
        host; only the WORKER frames are out of bounds."""

        async def scenario():
            server = await start_server(tmp_path, worker=True)
            await server.publish(Message(TAG_STRUCTURE, "credit", TS_XML))
            reader, writer, decoder, hello = await _raw_connect(
                server.port, [1]
            )
            assert hello.header["version"] == 1  # served, not refused

            # Reply is an ACK plus the current schema announcement.
            frames = await _exchange(
                reader, writer, decoder,
                proto.encode_control(
                    proto.SUBSCRIBE,
                    subscriptions=[{"stream": "credit"}],
                    catchup=False,
                ),
                count=2,
            )
            ack = next(f for f in frames if f.type == proto.ACK)
            assert ack.header.get("subscribed") == 1
            assert any(f.type == proto.BATCH for f in frames)

            # A WORKER frame on the v1 connection is a protocol error:
            # the peer negotiated a version without those types.
            frames = await _exchange(
                reader, writer, decoder,
                proto.encode_control(proto.DISPATCH, id=1, cmd="stats",
                                     args=[]),
            )
            assert frames[0].type == proto.ERROR
            assert "v2" in frames[0].header["detail"]
            assert await asyncio.wait_for(reader.read(65536), 5) == b""
            writer.close()
            await server.close()

        run(scenario())

    def test_worker_frames_refused_without_worker_role(self, tmp_path):
        async def scenario():
            server = await start_server(tmp_path)  # worker=False
            reader, writer, decoder, hello = await _raw_connect(
                server.port, proto.PROTOCOL_VERSIONS
            )
            assert hello.header["version"] == 2
            frames = await _exchange(
                reader, writer, decoder,
                proto.encode_control(
                    proto.DISPATCH, id=1, cmd="configure", args=[{}]
                ),
            )
            assert frames[0].type == proto.ERROR
            assert frames[0].header["code"] == "no-worker-role"
            writer.close()
            await server.close()

        run(scenario())


# -- predicate-narrowed catch-up --------------------------------------------------


class TestPredicateCatchup:
    PREDICATE = RoutingPredicate(
        tuple_tag="customer",
        path=("balance",),
        attribute=None,
        text_only=False,
        op=">",
        value=500.0,
        numeric=True,
    )

    async def _publish_history(self, server):
        """Mixed history: matches, non-matches, supersedes, other tsids."""
        await server.publish(Message(TAG_STRUCTURE, "credit", TS_XML))
        await server.publish(Message(FILLER, "credit", filler_xml(1, 100)))
        await server.publish(Message(FILLER, "credit", filler_xml(2, 900)))
        # id=1 again: fails the predicate too, but supersedes → delivered.
        await server.publish(Message(FILLER, "credit", filler_xml(1, 50)))
        await server.publish(Message(FILLER, "credit", filler_xml(3, 700)))
        await server.publish(Message(FILLER, "credit", filler_xml(4, 10)))
        await server.publish(Message(FILLER, "credit", filler_xml(9, tsid=5)))
        await server.publish(Message(FILLER, "credit", filler_xml(2, 40)))

    def test_catchup_replay_byte_identical_to_live_delivery(self, tmp_path):
        """The satellite acceptance: a predicate subscriber replaying the
        journal sees exactly the bytes a live predicate subscriber saw —
        supersede state is reconstructed, not approximated — and exactly
        what client-side filtering of an unfiltered replay derives."""

        async def scenario():
            server = await start_server(tmp_path)
            live_got = []
            live = StreamClient(
                "127.0.0.1", server.port, on_message=live_got.append
            )
            await live.connect()
            await asyncio.wait_for(
                live.subscribe(
                    [Subscription("credit", tsid=2, predicate=self.PREDICATE)]
                ),
                5,
            )
            await self._publish_history(server)
            # structure + 900 + supersede(50) + 700 + supersede(40)
            await wait_until(lambda: len(live_got) == 5)
            await asyncio.sleep(0.05)
            assert len(live_got) == 5

            late_got = []
            late = StreamClient(
                "127.0.0.1", server.port, on_message=late_got.append
            )
            await late.connect()
            await asyncio.wait_for(
                late.subscribe(
                    [Subscription("credit", tsid=2, predicate=self.PREDICATE)],
                    catchup=True,
                ),
                5,
            )
            ack = await asyncio.wait_for(late.catchup(after=0), 5)
            assert ack["replayed"] == 5
            assert ack["skipped"] == 3  # 100, 10, and the tsid-5 alert
            await wait_until(lambda: len(late_got) == len(live_got))
            assert [(m.kind, m.payload) for m in late_got] == [
                (m.kind, m.payload) for m in live_got
            ]
            assert server.replay_skipped == 3
            assert server.stats()["replay_skipped"] == 3

            # Unfiltered replay + client-side narrowing derives the same
            # byte stream: the server-side skip loses nothing.
            full_got = []
            full = StreamClient(
                "127.0.0.1", server.port, on_message=full_got.append
            )
            await full.connect()
            await asyncio.wait_for(
                full.subscribe([Subscription("credit")], catchup=True), 5
            )
            full_ack = await asyncio.wait_for(full.catchup(after=0), 5)
            assert full_ack["replayed"] == 8
            assert full_ack["skipped"] == 0
            await wait_until(lambda: len(full_got) == 8)
            versions_seen: set[int] = set()
            derived = []
            for message in full_got:
                if message.kind != FILLER:
                    derived.append((message.kind, message.payload))
                    continue
                filler_id, tsid, _holes = peek_filler(message.payload)
                if tsid != 2:
                    continue
                supersede = filler_id in versions_seen
                versions_seen.add(filler_id)
                balance = float(
                    message.payload.split("<balance>")[1].split("<")[0]
                )
                if supersede or balance > 500.0:
                    derived.append((message.kind, message.payload))
            assert derived == [(m.kind, m.payload) for m in late_got]

            await live.close()
            await late.close()
            await full.close()
            await server.close()

        run(scenario())

    def test_restarted_server_narrows_with_recovered_supersede_state(
        self, tmp_path
    ):
        """Version counts are rebuilt from the journal on restart, so a
        catch-up against a fresh process makes the same skip decisions
        the original made live."""

        async def scenario():
            journal = Journal(os.path.join(tmp_path, "narrow.journal"))
            server = await start_server(tmp_path, journal=journal)
            await self._publish_history(server)
            await server.close()

            reborn = StreamServer(journal=journal)
            await reborn.start()
            got = []
            client = StreamClient(
                "127.0.0.1", reborn.port, on_message=got.append
            )
            await client.connect()
            await asyncio.wait_for(
                client.subscribe(
                    [Subscription("credit", tsid=2, predicate=self.PREDICATE)],
                    catchup=True,
                ),
                5,
            )
            ack = await asyncio.wait_for(client.catchup(after=0), 5)
            assert ack["replayed"] == 5
            assert ack["skipped"] == 3
            await client.close()
            await reborn.close()

        run(scenario())


class TestServerStatsAggregation:
    def test_outbox_counters_survive_disconnects(self, tmp_path):
        """Per-connection outbox tallies fold into a retired aggregate on
        close instead of vanishing with the connection."""

        async def scenario():
            server = await start_server(tmp_path)
            client_got = []
            client = StreamClient(
                "127.0.0.1", server.port, on_message=client_got.append
            )
            await client.connect()
            await asyncio.wait_for(client.subscribe([Subscription("credit")]), 5)
            await server.publish(Message(TAG_STRUCTURE, "credit", TS_XML))
            for i in range(5):
                await server.publish(Message(FILLER, "credit", filler_xml(i)))
            await wait_until(lambda: len(client_got) == 6)
            live = server.stats()["outboxes"]
            assert live["frames_sent"] > 0
            await client.close()
            await asyncio.sleep(0.05)
            retired = server.stats()["outboxes"]
            assert retired["frames_sent"] >= live["frames_sent"]
            assert retired["bytes_sent"] > 0
            await server.close()

        run(scenario())


# -- the smart batcher ---------------------------------------------------------------


class _FakeWriter:
    """A StreamWriter stand-in; ``stall()`` is a transport paused for writing."""

    def __init__(self):
        self.frames = []
        self._open = asyncio.Event()
        self._open.set()

    def stall(self):
        self._open.clear()

    def resume(self):
        self._open.set()

    def write(self, frame):
        self.frames.extend(FrameDecoder().feed(frame))

    async def drain(self):
        await self._open.wait()


_ENTRY = 12  # wire bytes of one _entry() payload


def _entry(i: int) -> Message:
    return Message(FILLER, "s", f"<e>{i:05d}</e>")


async def _turns(count: int = 3) -> None:
    for _ in range(count):
        await asyncio.sleep(0)


async def _spin_until(cond, turns: int = 20000) -> None:
    """``wait_until`` without a timer: yield whole loop turns only."""
    for _ in range(turns):
        if cond():
            return
        await asyncio.sleep(0)
    raise AssertionError("condition not met")


class _Rig:
    """One ``_Outbox`` over a fake writer, its writer loop running."""

    def __init__(self, policy=BLOCK, queue_frames=4, max_batch_bytes=10 * _ENTRY):
        from repro.streams.net import _Outbox

        self.overflows = 0
        self.writer = _FakeWriter()
        self.outbox = _Outbox(
            self.writer,
            max_batch_bytes=max_batch_bytes,
            compress_threshold=None,
            queue_frames=queue_frames,
            policy=policy,
            codec_of=lambda stream: None,
            on_overflow=self._overflow,
        )
        self.outbox.start()

    def _overflow(self):
        self.overflows += 1

    def sent(self):
        """Payloads written to the socket, in order, one list per frame."""
        return [[p for _seq, p in f.entries] for f in self.writer.frames]

    async def close(self):
        self.outbox.stop()
        await _turns(1)
        assert self.outbox._task.done()


class TestSmartBatching:
    def test_idle_subscriber_needs_no_timer(self, tmp_path):
        """(a) delivery to a live, idle subscriber arms no timer at all."""

        async def scenario():
            server = await start_server(tmp_path)
            got = []
            client = StreamClient("127.0.0.1", server.port, on_message=got.append)
            await client.connect()
            await asyncio.wait_for(client.subscribe([Subscription("s")]), 5)
            loop = asyncio.get_running_loop()

            def no_timers(*_args, **_kw):
                raise AssertionError("a timer on the delivery path")

            loop.call_later = no_timers
            try:
                await server.publish(Message(FILLER, "s", filler_xml(1)))
                await _spin_until(lambda: got)
            finally:
                del loop.call_later
            assert [m.payload for m in got] == [filler_xml(1)]
            await client.close()
            await server.close()

        run(scenario())

    def test_one_turn_is_one_batch(self):
        """(b) whatever is published before the publisher yields rides
        one frame; one publish a turn to a writer that keeps up is one
        frame each, written before the next is published."""

        async def scenario():
            rig = _Rig()
            for i in range(5):
                await rig.outbox.enqueue(i + 1, _entry(i))
            assert rig.sent() == []  # the burst has not ended yet
            await _turns()
            assert rig.sent() == [[_entry(i).payload for i in range(5)]]
            for i in range(5, 10):
                await rig.outbox.enqueue(i + 1, _entry(i))
                await _turns()
                assert rig.sent()[-1] == [_entry(i).payload]
            assert len(rig.sent()) == 6
            assert rig.outbox.batches == 6
            await rig.close()

        run(scenario())

    def test_one_publish_a_turn_end_to_end(self, tmp_path):
        """(b) over a real socket: N publishes, a turn apart, N BATCH frames."""

        async def scenario():
            server = await start_server(tmp_path)
            got = []
            client = StreamClient("127.0.0.1", server.port, on_message=got.append)
            await client.connect()
            await asyncio.wait_for(client.subscribe([Subscription("s")]), 5)
            for i in range(20):
                await server.publish(Message(FILLER, "s", filler_xml(i)))
                await _turns()
            await _spin_until(lambda: len(got) == 20)
            assert client.batches == 20
            assert server.stats()["outboxes"]["batches"] == 20
            await client.close()
            await server.close()

        run(scenario())

    async def _stall_then_publish(self, rig, count):
        """Stall the writer behind one in-flight frame, then one entry a turn."""
        await rig.outbox.enqueue(1, _entry(0))
        await _turns()
        assert rig.sent() == [[_entry(0).payload]]
        rig.writer.stall()
        await rig.outbox.enqueue(2, _entry(1))
        await _turns()  # taken by the writer, stuck in drain()
        assert rig.outbox._writing
        for i in range(2, 2 + count):
            await rig.outbox.enqueue(i + 1, _entry(i))
            await _turns(1)

    def test_stalled_writer_coalesces_to_the_byte_bound(self):
        """(c) behind a stalled writer entries published a turn apart
        pile into max_batch_bytes frames, and DROP sheds nothing until
        queue_frames of them — the parent's byte volume — are queued."""

        async def scenario():
            rig = _Rig(policy=DROP, queue_frames=4)
            await self._stall_then_publish(rig, 40)
            # 4 queued frames x 10 entries absorbed, a turn apart each.
            assert rig.outbox._queue.qsize() == 4
            assert rig.outbox.dropped_frames == 0
            for i in range(42, 52):
                await rig.outbox.enqueue(i + 1, _entry(i))
                await _turns(1)
            assert rig.outbox.dropped_frames == 1
            assert rig.outbox.dropped_entries == 10
            assert rig.outbox._queue.qsize() == 4
            rig.writer.resume()
            await _turns(8)
            frames = rig.sent()[2:]
            assert [len(frame) for frame in frames] == [10, 10, 10, 10]
            assert [p for frame in frames for p in frame] == [
                _entry(i).payload for i in range(2, 42)
            ]
            await rig.close()

        run(scenario())

    def test_stalled_writer_disconnect_waits_for_the_byte_bound(self):
        async def scenario():
            rig = _Rig(policy=DISCONNECT, queue_frames=2)
            await self._stall_then_publish(rig, 20)
            assert rig.overflows == 0 and not rig.outbox.closed
            for i in range(22, 32):
                await rig.outbox.enqueue(i + 1, _entry(i))
            assert rig.overflows == 1 and rig.outbox.closed
            await rig.close()

        run(scenario())

    def test_stalled_writer_block_suspends_at_the_byte_bound(self):
        async def scenario():
            rig = _Rig(policy=BLOCK, queue_frames=2)
            await self._stall_then_publish(rig, 20)  # never suspended so far
            assert rig.outbox._queue.qsize() == 2

            async def more():
                for i in range(22, 40):
                    await rig.outbox.enqueue(i + 1, _entry(i))

            publisher = asyncio.get_running_loop().create_task(more())
            await _turns(10)
            assert not publisher.done()  # a third full batch has no slot
            assert rig.outbox._queue.qsize() == 2
            rig.writer.resume()
            await asyncio.wait_for(publisher, 5)
            await _turns(8)
            assert [p for frame in rig.sent() for p in frame] == [
                _entry(i).payload for i in range(40)
            ]
            assert rig.outbox.dropped_frames == 0
            await rig.close()

        run(scenario())

    def test_boundaries_and_control_frames_keep_order(self):
        """(d) a stream/kind change cuts the old batch first; a control
        frame goes behind everything batched before it."""

        async def scenario():
            rig = _Rig()
            outbox = rig.outbox
            await outbox.enqueue(1, Message(TAG_STRUCTURE, "s", TS_XML))
            await outbox.enqueue(2, _entry(0))
            await outbox.enqueue(3, _entry(1))
            await outbox.enqueue(4, Message(FILLER, "other", "<e>x</e>"))
            await outbox.put_control(proto.encode_control(proto.ACK, seq=4))
            await outbox.enqueue(5, _entry(2))
            await _turns()
            shape = [
                (f.name, f.stream, f.kind, [s for s, _ in f.entries])
                if f.type == proto.BATCH
                else (f.name,)
                for f in rig.writer.frames
            ]
            assert shape == [
                ("BATCH", "s", TAG_STRUCTURE, [1]),
                ("BATCH", "s", FILLER, [2, 3]),
                ("BATCH", "other", FILLER, [4]),
                ("ACK",),
                ("BATCH", "s", FILLER, [5]),
            ]
            await rig.close()

        run(scenario())

    def test_catchup_hold_drains_before_live(self, tmp_path):
        """(d) replay, then what was held during it, then live — in seq
        order, the catch-up ACK behind the replay it announces."""

        async def scenario():
            server = await start_server(tmp_path)
            await server.publish(Message(TAG_STRUCTURE, "s", TS_XML))
            for i in range(3):
                await server.publish(Message(FILLER, "s", filler_xml(i)))
            seqs = []
            client = StreamClient("127.0.0.1", server.port)
            client.on_message = lambda _m: seqs.append(client.last_seen)
            await client.connect()
            await asyncio.wait_for(client.subscribe([Subscription("s")], catchup=True), 5)
            for i in range(3, 5):  # held: the client is not live yet
                await server.publish(Message(FILLER, "s", filler_xml(i)))
            await _turns()
            assert seqs == []
            ack = await asyncio.wait_for(client.catchup(after=0), 5)
            assert seqs[: ack["replayed"]] == list(range(1, ack["replayed"] + 1))
            await server.publish(Message(FILLER, "s", filler_xml(5)))
            await wait_until(lambda: len(seqs) == 7)
            assert seqs == [1, 2, 3, 4, 5, 6, 7]
            assert client.duplicates == 0
            await client.close()
            await server.close()

        run(scenario())

    def test_fanout_in_one_turn_encodes_once(self, tmp_path):
        """(e) 50 connections flushed at the same turn's end share one frame."""

        async def scenario():
            server = await start_server(tmp_path)
            counts = [0] * 50
            clients = []
            for index in range(50):
                def count(_m, index=index):
                    counts[index] += 1
                clients.append(StreamClient("127.0.0.1", server.port, on_message=count))
            await asyncio.gather(*(c.connect() for c in clients))
            await asyncio.gather(*(c.subscribe([Subscription("s")]) for c in clients))
            cache = server._fanout_cache
            lookups = {"hit": 0, "miss": 0}
            lookup = cache.frame

            def counting(key):
                frame = lookup(key)
                lookups["hit" if frame is not None else "miss"] += 1
                return frame

            cache.frame = counting
            for i in range(8):
                await server.publish(Message(FILLER, "s", filler_xml(i)))
            await wait_until(lambda: counts == [8] * 50)
            assert lookups == {"hit": 49, "miss": 1}
            assert all(c.batches == 1 for c in clients)
            for client in clients:
                await client.close()
            await server.close()

        run(scenario())

    def test_close_leaves_no_outbox_task(self, tmp_path):
        """(f) not with a batch armed, and not with a writer stuck
        behind a subscriber that stopped reading."""

        async def scenario():
            server = await start_server(tmp_path, slow_policy=DROP)
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            writer.write(proto.encode_control(proto.HELLO, versions=[1]))
            writer.write(
                proto.encode_control(
                    proto.SUBSCRIBE, subscriptions=[{"stream": "s"}], catchup=False
                )
            )
            await writer.drain()
            await wait_until(lambda: server._conns and server._conns[0].subscriptions)
            idle = StreamClient("127.0.0.1", server.port)
            await idle.connect()
            await asyncio.wait_for(idle.subscribe([Subscription("s")]), 5)
            big = "<customer>" + "x" * 65536 + "</customer>"
            stalled = server._conns[0].outbox
            for i in range(400):
                await server.publish(
                    Message(
                        FILLER,
                        "s",
                        f'<filler id="{i}" tsid="2" validTime="2004-01-01">{big}</filler>',
                    )
                )
                await _turns(1)
                if stalled._writing:
                    break
            assert stalled._writing  # the kernel buffers are full
            await idle.close()
            await server.publish(Message(FILLER, "s", filler_xml(1)))  # arms a flush
            assert stalled._writing and stalled._armed
            writer.close()  # (3.12's wait_closed() waits for every peer)
            await server.close()
            left = [
                task
                for task in asyncio.all_tasks()
                if "_Outbox" in getattr(task.get_coro(), "__qualname__", "")
            ]
            assert left == []

        run(scenario())

    def test_max_delay_ms_is_gone(self):
        with pytest.raises(TypeError):
            StreamServer(max_delay_ms=5.0)
