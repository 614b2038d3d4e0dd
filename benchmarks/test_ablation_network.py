"""Ablation A14: the framed network transport (PR 8).

The in-process channels deliver one Python callback per envelope; a real
deployment delivers over sockets, where the naive shape — one wire frame
per envelope per subscriber — pays the frame encode, queue hop, write,
and drain once *per message per connection*.  The network transport
amortizes all of that: each publisher burst coalesces into one
size-bounded BATCH frame per connection, and batches past a threshold travel
tag-compressed.

This ablation stands up a real asyncio :class:`~repro.streams.net.StreamServer`
with N subscriber connections on localhost and publishes a burst of
filler envelopes through two configurations of the *same* code path:

- ``naive`` — ``max_batch_bytes=1`` (every envelope flushes its own
  frame) and compression off: the one-message-per-envelope baseline;
- ``batched`` — the shipped defaults: one batch per burst, capped at
  64 KiB (compression stays armed at its default threshold);
- ``compressed`` — batching plus a low compression threshold, so every
  batch travels tag-compressed: reported for the bytes-on-wire
  reduction and its CPU cost, which in this one-process harness is paid
  by all N clients on a single core (real subscribers decompress on
  their own machines).

Reported per subscriber tier (100 / 1000, plus 5000 when the scale
affords it): wall time to full delivery, delivered messages/second,
frames on the wire, and the p50/p99 per-envelope delivery latency
observed by a designated client.  Two side checks record the acceptance
properties that are not throughput: a deliberately slow consumer holds
the bounded queue (drop counters, never unbounded memory), and a
killed-then-reconnected client is byte-identical to an always-connected
one after journal catch-up.

Acceptance at scale 0.01: >= 3x delivery throughput vs. naive at the
1000-subscriber tier.  Results land in ``BENCH_network.json``.  This
box pins few cores — the win is fewer frames and syscalls per delivered
envelope, not parallelism, so the speedup holds on one core.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import time
from pathlib import Path
from statistics import median

import pytest

from repro.fragments.persist import Journal
from repro.streams.net import DROP, StreamClient, StreamServer, Subscription
from repro.streams.transport import FILLER, TAG_STRUCTURE, Message

from .conftest import bench_scale

_REPO_ROOT = Path(__file__).resolve().parents[1]
_JSON_PATH = _REPO_ROOT / "BENCH_network.json"

_STRUCTURE_XML = (
    '<stream:structure><tag type="snapshot" id="1" name="ledger">'
    '<tag type="event" id="2" name="txn">'
    '<tag type="snapshot" id="3" name="amount"/>'
    '<tag type="snapshot" id="4" name="vendor"/>'
    "</tag></tag></stream:structure>"
)


def _cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux fallback
        return os.cpu_count() or 1


def _envelope(i: int) -> str:
    day = (i % 27) + 1
    return (
        f'<filler id="{i + 1}" tsid="2" validTime="2004-01-{day:02d}">'
        f'<txn seq="{i}"><amount>{(i * 37) % 1000}</amount>'
        f"<vendor>vendor-{i % 17}</vendor></txn></filler>"
    )


def _tiers(scale: float) -> list[int]:
    tiers = [100, 1000]
    if scale >= 0.05 or os.environ.get("REPRO_BENCH_NET_MAX"):
        tiers.append(5000)
    return tiers


class NetworkWorkload:
    def __init__(self, scale: float):
        self.scale = scale
        self.envelopes = [
            _envelope(i) for i in range(max(40, int(20_000 * scale)))
        ]

    ARMS = {
        "naive": dict(max_batch_bytes=1, compress_threshold=None),
        "batched": dict(),  # the shipped defaults
        "compressed": dict(compress_threshold=4 * 1024),
    }

    async def run_tier(self, subscribers: int, arm: str) -> dict:
        """Publish the burst to ``subscribers`` connections; time delivery.

        The server is identical across arms except for the batching and
        compression bounds, so the measured difference is pure
        wire-shape: frames and bytes per delivered envelope, not
        evaluation work.
        """
        server = StreamServer(queue_frames=256, **self.ARMS[arm])
        await server.start()
        total = {"received": 0}
        expected = len(self.envelopes) * subscribers
        done = asyncio.Event()

        def count(_message: Message) -> None:
            total["received"] += 1
            if total["received"] >= expected:
                done.set()

        loop = asyncio.get_running_loop()
        arrivals: dict[int, float] = {}
        observer_last = {"seq": 0}

        def observe(_message: Message) -> None:
            observer_last["seq"] += 1
            arrivals[observer_last["seq"]] = loop.time()
            count(_message)

        clients = [
            StreamClient(
                "127.0.0.1",
                server.port,
                on_message=observe if index == 0 else count,
            )
            for index in range(subscribers)
        ]
        # Connect in slabs so the simultaneous SYNs stay under the
        # listen backlog; 1000 sequential round-trips would dominate.
        for start in range(0, subscribers, 50):
            await asyncio.gather(
                *(c.connect() for c in clients[start : start + 50])
            )
        subs = [Subscription("ledger")]
        await asyncio.gather(*(c.subscribe(subs) for c in clients))
        await server.publish(Message(TAG_STRUCTURE, "ledger", _STRUCTURE_XML))
        while total["received"] < subscribers:  # every schema delivered
            await asyncio.sleep(0.005)
        base_received = total["received"]
        expected += base_received
        obs_base = observer_last["seq"]
        publish_times: dict[int, float] = {}

        gc.collect()  # keep collector pauses out of the timed burst
        started = time.perf_counter()
        for i, payload in enumerate(self.envelopes):
            publish_times[i + 1] = loop.time()
            await server.publish(Message(FILLER, "ledger", payload))
        await asyncio.wait_for(done.wait(), timeout=600)
        wall = time.perf_counter() - started

        latencies = sorted(
            arrivals[seq + obs_base] - publish_times[seq]
            for seq in publish_times
            if seq + obs_base in arrivals
        )
        frames = sum(c._decoder.frames_decoded for c in clients)
        wire_bytes = sum(c._decoder.bytes_decoded for c in clients)
        compressed = sum(c.compressed_batches for c in clients)
        sample = clients[0]
        payload_ok = sample.received == len(self.envelopes) + 1
        for start in range(0, subscribers, 100):
            await asyncio.gather(
                *(c.close() for c in clients[start : start + 100])
            )
        await server.close()
        delivered = expected - base_received
        return {
            "wall_s": round(wall, 4),
            "throughput_msg_s": round(delivered / wall, 1),
            "frames": frames,
            "frames_per_envelope": round(frames / delivered, 4),
            "wire_bytes": wire_bytes,
            "wire_bytes_per_envelope": round(wire_bytes / delivered, 1),
            "compressed_batches": compressed,
            "p50_latency_ms": round(
                1000 * median(latencies), 3
            ) if latencies else None,
            "p99_latency_ms": round(
                1000 * latencies[int(len(latencies) * 0.99) - 1], 3
            ) if latencies else None,
            "complete": payload_ok,
        }


@pytest.fixture(scope="module")
def workload() -> NetworkWorkload:
    return NetworkWorkload(bench_scale())


def test_slow_consumer_memory_is_bounded(workload):
    """A subscriber that stops reading costs a bounded queue, not RAM."""

    async def scenario() -> dict:
        server = StreamServer(
            slow_policy=DROP,
            queue_frames=8,
            max_batch_bytes=1024,
        )
        await server.start()
        from repro.streams import netproto as proto

        _reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
        writer.write(proto.encode_control(proto.HELLO, versions=[1]))
        writer.write(
            proto.encode_control(
                proto.SUBSCRIBE,
                subscriptions=[{"stream": "ledger"}],
                catchup=False,
            )
        )
        await writer.drain()
        while not (server._conns and server._conns[0].subscriptions):
            await asyncio.sleep(0.01)
        for payload in workload.envelopes * 4:
            await server.publish(Message(FILLER, "ledger", payload))
        stats = server.stats()
        writer.close()
        await server.close()
        return stats

    stats = asyncio.run(scenario())
    assert stats["dropped_frames"] > 0
    assert stats["queued_frames"] <= 8
    _merge_report(
        slow_consumer={
            "published": stats["published"],
            "dropped_frames": stats["dropped_frames"],
            "queued_frames": stats["queued_frames"],
            "queue_bound_frames": 8,
        }
    )


def test_catchup_byte_identity(workload, tmp_path):
    """Killed + reconnected == always-connected, byte for byte."""

    async def scenario() -> dict:
        journal = Journal(os.path.join(tmp_path, "a14.journal"))
        server = StreamServer(journal=journal)
        await server.start()
        steady_got, flaky_got = [], []
        steady = StreamClient(
            "127.0.0.1", server.port, on_message=steady_got.append
        )
        await steady.connect()
        await steady.subscribe([Subscription("ledger")])
        flaky = StreamClient(
            "127.0.0.1", server.port, on_message=flaky_got.append
        )
        await flaky.connect()
        await flaky.subscribe([Subscription("ledger")])

        await server.publish(Message(TAG_STRUCTURE, "ledger", _STRUCTURE_XML))
        half = len(workload.envelopes) // 2
        for payload in workload.envelopes[:half]:
            await server.publish(Message(FILLER, "ledger", payload))
        while flaky.received < half + 1:
            await asyncio.sleep(0.01)
        flaky._writer.close()  # die mid-stream, no goodbye
        await flaky.closed.wait()
        for payload in workload.envelopes[half:]:
            await server.publish(Message(FILLER, "ledger", payload))
        while steady.received < len(workload.envelopes) + 1:
            await asyncio.sleep(0.01)

        revived = StreamClient(
            "127.0.0.1", server.port, on_message=flaky_got.append
        )
        await revived.connect()
        await revived.subscribe([Subscription("ledger")], catchup=True)
        ack = await revived.catchup(after=flaky.last_seen)
        while len(flaky_got) < len(steady_got):
            await asyncio.sleep(0.01)
        identical = [(m.kind, m.payload) for m in flaky_got] == [
            (m.kind, m.payload) for m in steady_got
        ]
        await steady.close()
        await revived.close()
        await server.close()
        return {"replayed": ack["replayed"], "byte_identical": identical}

    outcome = asyncio.run(scenario())
    assert outcome["byte_identical"]
    assert outcome["replayed"] > 0
    _merge_report(catchup=outcome)


def test_network_throughput(benchmark, workload):
    """The headline: batched delivery >= 3x naive at 1000 subscribers.

    Also writes the subscriber-scaling table to ``BENCH_network.json``.
    """
    tiers = _tiers(workload.scale)

    def measure() -> dict:
        results: dict[int, dict] = {}
        for subscribers in tiers:
            row: dict = {"subscribers": subscribers}
            for arm in NetworkWorkload.ARMS:
                # Best-of-2 for the throughput arms: a single run on a
                # shared box is at the mercy of scheduler noise.  The
                # compressed arm is reported for bytes, not the headline.
                repeats = 1 if arm == "compressed" else 2
                runs = [
                    asyncio.run(workload.run_tier(subscribers, arm))
                    for _ in range(repeats)
                ]
                row[arm] = max(runs, key=lambda r: r["throughput_msg_s"])
            row["speedup"] = round(
                row["batched"]["throughput_msg_s"]
                / row["naive"]["throughput_msg_s"],
                2,
            )
            row["compression_ratio"] = round(
                row["compressed"]["wire_bytes"] / row["batched"]["wire_bytes"],
                3,
            )
            results[subscribers] = row
        return results

    results = benchmark.pedantic(measure, rounds=1, iterations=1)
    for tier in results.values():
        for arm in NetworkWorkload.ARMS:
            assert tier[arm]["complete"], f"{arm} lost envelopes"
        # The whole point: far fewer frames, and compression strictly
        # shrinks what crosses the wire.
        assert (
            tier["batched"]["frames_per_envelope"]
            < tier["naive"]["frames_per_envelope"] / 3
        )
        assert tier["compressed"]["wire_bytes"] < tier["batched"]["wire_bytes"]
    headline = results.get(1000) or results[max(results)]
    benchmark.extra_info["speedup_1000_subs"] = headline["speedup"]
    _merge_report(
        scale=workload.scale,
        cores=_cores(),
        envelopes_per_run=len(workload.envelopes),
        tiers=[results[key] for key in sorted(results)],
    )
    if bench_scale() >= 0.01:
        # Tiny smoke scales are dominated by fixed per-connection costs.
        assert headline["speedup"] >= 3.0, (
            f"only {headline['speedup']:.2f}x at "
            f"{headline['subscribers']} subscribers"
        )


def _merge_report(**fields) -> None:
    """Accumulate the A14 report across the suite's tests."""
    report = {"ablation": "A14"}
    if _JSON_PATH.exists():
        try:
            report = json.loads(_JSON_PATH.read_text(encoding="utf-8"))
        except ValueError:
            pass
    report["ablation"] = "A14"
    report.update(fields)
    _JSON_PATH.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
