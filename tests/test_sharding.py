"""Differential and failure-mode tests for the sharded engine.

The load-bearing property is byte-identity: for any shard count, arrival
order, transport (``feed`` vs ``feed_raw``), shard-link kind (in-process
handle, pipe worker process, netproto remote worker), and worker
lifecycle (kills, respawns), the coordinator's merged emissions must
equal the single-process scheduler's — per tick as a multiset of
identity strings, and cumulatively.  The single-process arm is always a
fresh ``XCQLEngine`` + ``QueryScheduler`` over the same arrival history.

Remote workers are real ``run_worker`` hosts in child processes; shard
state is connection-scoped on the host, so one host can serve every net
shard in the suite.
"""

import multiprocessing
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Fragmenter, Strategy, TagStructure, XCQLEngine
from repro.dom import Element, Text, parse_document
from repro.streams import netproto as proto
from repro.streams.continuous import ContinuousQuery, item_identity
from repro.streams.scheduler import QueryScheduler
from repro.streams.sharding import (
    NetLink,
    ShardCommandError,
    ShardedEngine,
    ShardFailure,
    shard_of,
)
from repro.streams.transport import (
    FILLER,
    TAG_STRUCTURE,
    Channel,
    Message,
    peek_filler,
)
from repro.fragments.model import Filler, make_hole
from repro.temporal.chrono import XSDateTime

from tests.conftest import CREDIT_TAG_STRUCTURE_XML, CREDIT_VIEW_XML

LEDGER_STRUCTURE_XML = """
<stream:structure>
  <tag type="snapshot" id="1" name="ledger">
    <tag type="event" id="2" name="txn">
      <tag type="snapshot" id="3" name="amount"/>
    </tag>
  </tag>
</stream:structure>
"""

QUERIES = [
    'for $t in stream("ledger")//txn where $t/amount > 40 '
    "return <hi>{$t/amount/text()}</hi>",
    'for $t in stream("ledger")//txn where $t/amount > 75 '
    "return <vip>{$t/amount/text()}</vip>",
    'for $t in stream("ledger")//txn where $t/amount < 15 '
    "return <low>{$t/amount/text()}</low>",
    # Not routable (no leading comparison): broadcast-wake coverage.
    'for $t in stream("ledger")//txn return <seen>{$t/@seq}</seen>',
]

NOW = XSDateTime.parse("2003-12-15T00:00:00")


def txn_filler(index: int, amount: float) -> Filler:
    content = Element("txn", {"seq": str(index)})
    amt = Element("amount")
    amt.append(Text(str(amount)))
    content.append(amt)
    return Filler(
        filler_id=1000 + index,
        tsid=2,
        valid_time=XSDateTime.parse("2003-01-01T00:00:00"),
        content=content,
    )


def ledger_batches(count: int = 24, batch: int = 6, seed: int = 7):
    rng = random.Random(seed)
    fillers = [txn_filler(i, rng.randrange(0, 100)) for i in range(count)]
    return [fillers[i : i + batch] for i in range(0, count, batch)]


def run_solo(batches, queries=QUERIES, raw_every=None):
    """Per-tick sorted identity lists from the single-process scheduler."""
    engine = XCQLEngine()
    engine.register_stream("ledger", TagStructure.from_xml(LEDGER_STRUCTURE_XML))
    scheduler = QueryScheduler(engine)
    standing = [
        ContinuousQuery(engine, source, strategy=Strategy.QAC_PLUS)
        for source in queries
    ]
    for query in standing:
        scheduler.add(query)
    scheduler.poll(NOW)  # baseline
    ticks = []
    for number, batch in enumerate(batches):
        if raw_every is not None and number % raw_every == 0:
            engine.feed_raw("ledger", [f.to_xml() for f in batch])
        else:
            engine.feed("ledger", batch)
        emitted = scheduler.poll(NOW)
        ticks.append(
            [
                sorted(item_identity(item) for item in emitted.get(query, []))
                for query in standing
            ]
        )
    return ticks


LINKS = ["inproc", "pipe", "net"]


def _net_worker_entry(conn):  # runs in a child process
    from repro.streams.net import run_worker

    run_worker(port=0, ready=conn.send)


def _start_net_worker():
    """Start a real remote-worker host; returns (process, address)."""
    context = multiprocessing.get_context()
    parent, child = context.Pipe()
    process = context.Process(
        target=_net_worker_entry, args=(child,), daemon=True
    )
    process.start()
    child.close()
    if not parent.poll(30):
        process.terminate()
        raise RuntimeError("worker host never reported its port")
    port = parent.recv()
    parent.close()
    return process, f"127.0.0.1:{port}"


@pytest.fixture(scope="module")
def worker_address():
    """One shared remote-worker host (shard state is per-connection)."""
    process, address = _start_net_worker()
    yield address
    process.terminate()
    process.join(5)


def link_kwargs(link, shards, worker_address=None):
    """ShardedEngine kwargs that realize one ShardLink kind everywhere."""
    if link == "inproc":
        return {"in_process": True}
    if link == "pipe":
        return {"in_process": False, "timeout": 30.0}
    return {
        "in_process": False,
        "workers": [worker_address] * shards,
        "timeout": 30.0,
    }


LINK_STATS_KEYS = frozenset({
    "kind", "alive", "pending", "address", "version",
    "frames_sent", "bytes_sent", "frames_received", "bytes_received",
    "dispatches", "polls",
})


def run_sharded(batches, shards, queries=QUERIES, raw_every=None, **kw):
    """Per-tick sorted emission lists from a ShardedEngine."""
    engine = ShardedEngine(shards, in_process=kw.pop("in_process", True), **kw)
    try:
        engine.register_stream(
            "ledger", TagStructure.from_xml(LEDGER_STRUCTURE_XML)
        )
        standing = [
            engine.add_query(source, strategy=Strategy.QAC_PLUS)
            for source in queries
        ]
        engine.tick(NOW)  # baseline
        ticks = []
        for number, batch in enumerate(batches):
            if raw_every is not None and number % raw_every == 0:
                engine.feed_raw("ledger", [f.to_xml() for f in batch])
            else:
                engine.feed("ledger", batch)
            results = engine.tick(NOW)
            ticks.append([sorted(results[query]) for query in standing])
        return ticks, engine.stats()
    finally:
        engine.close()


class TestShardKey:
    def test_deterministic_and_hash_free(self):
        # CRC-based: the same key maps to the same shard in any process.
        assert shard_of("ledger", 123, 4) == shard_of("ledger", 123, 4)
        assert 0 <= shard_of("ledger", 123, 4) < 4
        assert shard_of("ledger", 123, 1) == 0

    def test_spreads_across_shards(self):
        homes = {shard_of("ledger", i, 4) for i in range(64)}
        assert homes == {0, 1, 2, 3}


class TestPeekFiller:
    def test_reads_envelope_and_holes(self):
        filler = txn_filler(1, 50)
        filler.content.append(make_hole(77, 3))
        assert peek_filler(filler.to_xml()) == (1001, 2, [77])

    def test_single_quoted_attributes(self):
        text = "<filler id='9' tsid='2' validTime='2003-01-01T00:00:00'>" \
               "<txn/></filler>"
        assert peek_filler(text) == (9, 2, [])

    def test_rejects_non_fillers(self):
        with pytest.raises(ValueError):
            peek_filler("<txn/>")


class TestDifferential:
    @pytest.mark.parametrize("shards", [1, 2, 3])
    def test_identical_across_shard_counts(self, shards):
        batches = ledger_batches()
        solo = run_solo(batches)
        sharded, _ = run_sharded(batches, shards)
        assert sharded == solo

    @pytest.mark.parametrize("seed", [11, 23])
    def test_identical_across_arrival_orders(self, seed):
        batches = ledger_batches()
        flat = [filler for batch in batches for filler in batch]
        random.Random(seed).shuffle(flat)
        shuffled = [flat[i : i + 6] for i in range(0, len(flat), 6)]
        solo = run_solo(shuffled)
        sharded, _ = run_sharded(shuffled, 3)
        assert sharded == solo
        # Cumulative emissions are arrival-order invariant for event data.
        baseline, _ = run_sharded(batches, 3)
        cumulative = sorted(
            item for tick in sharded for per_query in tick for item in per_query
        )
        assert cumulative == sorted(
            item for tick in baseline for per_query in tick for item in per_query
        )

    @pytest.mark.parametrize("link", LINKS)
    def test_identical_across_link_kinds(self, link, worker_address):
        batches = ledger_batches()
        solo = run_solo(batches)
        sharded, stats = run_sharded(
            batches, 2, **link_kwargs(link, 2, worker_address)
        )
        assert sharded == solo
        assert [shard["kind"] for shard in stats["shards"]] == [link] * 2
        assert stats["coordinator"]["links"] == [link] * 2
        # Every link speaks the same frames, so every link counts them.
        assert {frozenset(shard["link"]) for shard in stats["shards"]} == {LINK_STATS_KEYS}

    @pytest.mark.parametrize("link", LINKS)
    def test_identical_with_mixed_feed_and_feed_raw(self, link, worker_address):
        batches = ledger_batches()
        solo = run_solo(batches, raw_every=2)
        sharded, _ = run_sharded(
            batches, 2, raw_every=2, **link_kwargs(link, 2, worker_address)
        )
        assert sharded == solo

    def test_front_door_skips_quiet_shards(self):
        """A shard whose sub-batch touches no resident query's tsids is not
        polled — on either ingest call; what a dependent filler *contains*
        is the worker's business, not the gate's."""
        engine = ShardedEngine(2, in_process=True)
        try:
            engine.register_stream("log", TagStructure.from_xml(MIXED_STRUCTURE_XML))
            query = engine.add_query(
                'for $t in stream("log")//txn where $t/amount > 75 '
                "return <vip>{$t/amount/text()}</vip>",
                strategy=Strategy.QAC_PLUS,
            )
            engine.tick(NOW)
            before = engine.stats()["coordinator"]
            engine.feed("log", [limit_filler(7 + i, 1, 90) for i in range(4)])
            engine.feed_raw(
                "log", [limit_filler(20 + i, 2, 90).to_xml() for i in range(4)]
            )
            assert engine.tick(NOW)[query] == []
            stats = engine.stats()["coordinator"]
            # No txn arrived: both calls were gated, no shard was polled.
            assert stats["shard_polls"] == before["shard_polls"]
            assert stats["shard_poll_skips"] == before["shard_poll_skips"] + 2
            gated = stats["dispatch_probes"] - before["dispatch_probes"]
            assert gated == stats["dispatch_skips"] - before["dispatch_skips"] >= 2
            assert stats["dispatch_wakes"] == before["dispatch_wakes"]
            # A txn that cannot match 'amount > 75' still wakes its shard:
            # the worker's tuple index prunes it, the answer stays empty.
            engine.feed("log", [txn_filler(1, 10)])
            assert engine.tick(NOW)[query] == []
            stats = engine.stats()
            assert stats["coordinator"]["dispatch_wakes"] == before["dispatch_wakes"] + 1
            assert stats["coordinator"]["shard_polls"] == before["shard_polls"] + 1
            assert sum(
                shard["scheduler"]["routing"]["tuples_pruned"]
                for shard in stats["shards"]
            ) == 1
            engine.feed_raw("log", [txn_filler(2, 90).to_xml()])
            assert engine.tick(NOW)[query] == ["<vip>90</vip>"]
        finally:
            engine.close()


class TestAdmission:
    def test_rejects_non_delta_safe_queries(self):
        engine = ShardedEngine(2, in_process=True)
        try:
            engine.register_stream(
                "ledger", TagStructure.from_xml(LEDGER_STRUCTURE_XML)
            )
            join = (
                'for $a in stream("ledger")//txn, $b in stream("ledger")//txn '
                "where $a/amount = $b/amount return <p>{$a/@seq}</p>"
            )
            with pytest.raises(ValueError, match="not delta-safe"):
                engine.add_query(join)
        finally:
            engine.close()

    def test_rejects_unknown_stream_feeds(self):
        engine = ShardedEngine(2, in_process=True)
        try:
            with pytest.raises(KeyError):
                engine.feed("nope", [txn_filler(1, 1)])
            with pytest.raises(KeyError):
                engine.feed_raw("nope", ["<filler/>"])
        finally:
            engine.close()


class TestHoleColocation:
    def credit_fillers_parent_first(self):
        structure = TagStructure.from_xml(CREDIT_TAG_STRUCTURE_XML)
        fragmenter = Fragmenter(structure)
        fillers = fragmenter.fragment_temporal_view(
            parse_document(CREDIT_VIEW_XML),
            XSDateTime.parse("1998-01-01T00:00:00"),
        )
        # The paper's server streams top-down; sort by tag depth to honor
        # the parent-before-child invariant the shard pinning relies on.
        depth = {1: 0, 2: 1, 3: 2, 4: 2, 5: 2, 6: 3, 7: 3, 8: 3}
        return structure, sorted(fillers, key=lambda f: depth[f.tsid])

    def test_holed_stream_stays_shard_local(self):
        structure, fillers = self.credit_fillers_parent_first()
        source = (
            'for $t in stream("credit")//transaction where $t/amount > 500 '
            "return <big>{$t/vendor/text()}</big>"
        )
        solo_engine = XCQLEngine()
        solo_engine.register_stream("credit", structure)
        scheduler = QueryScheduler(solo_engine)
        solo_query = ContinuousQuery(
            solo_engine, source, strategy=Strategy.QAC_PLUS
        )
        scheduler.add(solo_query)
        scheduler.poll(NOW)
        sharded = ShardedEngine(3, in_process=True)
        try:
            sharded.register_stream("credit", structure)
            query = sharded.add_query(source, strategy=Strategy.QAC_PLUS)
            sharded.tick(NOW)
            for start in range(0, len(fillers), 4):
                batch = fillers[start : start + 4]
                solo_engine.feed("credit", batch)
                sharded.feed("credit", batch)
                solo_emitted = sorted(
                    item_identity(item)
                    for item in scheduler.poll(NOW).get(solo_query, [])
                )
                assert sorted(sharded.tick(NOW)[query]) == solo_emitted
            # Parent-first arrival: every hole chain landed on one shard.
            assert (
                sharded.stats()["coordinator"]["dispatch_conflicts"] == 0
            )
        finally:
            sharded.close()

    def test_child_first_arrival_counts_a_conflict(self):
        engine = ShardedEngine(2, in_process=True)
        try:
            engine.register_stream(
                "ledger", TagStructure.from_xml(LEDGER_STRUCTURE_XML)
            )
            # Pick a child id that hashes away from its parent's shard.
            parent = txn_filler(1, 50)
            parent_home = shard_of("ledger", parent.filler_id, 2)
            child_id = next(
                i for i in range(2000, 2100)
                if shard_of("ledger", i, 2) != parent_home
            )
            child = txn_filler(child_id - 1000, 60)
            assert child.filler_id == child_id
            parent.content.append(make_hole(child_id, 2))
            engine.feed("ledger", [child])  # child first: hashed home
            engine.feed("ledger", [parent])  # parent pin disagrees
            assert engine.stats()["coordinator"]["dispatch_conflicts"] == 1
        finally:
            engine.close()


class TestWorkerLifecycle:
    def test_killed_worker_recovers_via_journal(self):
        batches = ledger_batches(count=18, batch=6)
        solo = run_solo(batches)
        engine = ShardedEngine(2, timeout=30.0)
        try:
            engine.register_stream(
                "ledger", TagStructure.from_xml(LEDGER_STRUCTURE_XML)
            )
            standing = [
                engine.add_query(source, strategy=Strategy.QAC_PLUS)
                for source in QUERIES
            ]
            engine.tick(NOW)
            ticks = []
            for number, batch in enumerate(batches):
                if number == 1:
                    # SIGKILL, not a clean stop: the worker gets no chance
                    # to flush or say goodbye.
                    engine._shards[0].process.kill()
                    engine._shards[0].process.join()
                engine.feed("ledger", batch)
                results = engine.tick(NOW)
                ticks.append([sorted(results[query]) for query in standing])
            stats = engine.stats()
            assert stats["coordinator"]["failovers"] == 1
            assert stats["shards"][0]["in_process"] is True
            # No emission lost, none duplicated — including the tick that
            # absorbed the crash.
            assert ticks == solo
        finally:
            engine.close()

    def test_respawn_shard_bootstraps_from_journal(self):
        batches = ledger_batches(count=18, batch=6)
        solo = run_solo(batches)
        engine = ShardedEngine(2, timeout=30.0)
        try:
            engine.register_stream(
                "ledger", TagStructure.from_xml(LEDGER_STRUCTURE_XML)
            )
            standing = [
                engine.add_query(source, strategy=Strategy.QAC_PLUS)
                for source in QUERIES
            ]
            engine.tick(NOW)
            ticks = []
            for number, batch in enumerate(batches):
                if number == 2:
                    engine.respawn_shard(1)
                engine.feed("ledger", batch)
                results = engine.tick(NOW)
                ticks.append([sorted(results[query]) for query in standing])
            stats = engine.stats()
            assert stats["coordinator"]["respawns"] == 1
            assert all(not shard["in_process"] for shard in stats["shards"])
            assert ticks == solo
        finally:
            engine.close()

    def test_worker_mode_matches_solo(self):
        batches = ledger_batches(count=12, batch=6)
        solo = run_solo(batches)
        sharded, stats = run_sharded(batches, 2, in_process=False, timeout=30.0)
        assert sharded == solo
        assert all(not shard["in_process"] for shard in stats["shards"])


    def test_close_releases_the_shard_journals(self, tmp_path):
        """The coordinator holds one append handle per shard journal while
        it runs (records stay readable by path for failover) and releases
        them on close; journals in a caller's directory survive it."""
        batches = ledger_batches(count=12, batch=6)
        engine = ShardedEngine(2, in_process=True, journal_dir=tmp_path)
        engine.register_stream("ledger", TagStructure.from_xml(LEDGER_STRUCTURE_XML))
        for batch in batches:
            engine.feed("ledger", batch)
        written = [journal.records_written for journal in engine._journals]
        assert sum(written) == sum(len(batch) for batch in batches) + 2  # + schemas
        assert [journal.last_seq for journal in engine._journals] == written
        assert all(journal._handle is not None for journal in engine._journals)
        engine.close()
        assert all(journal._handle is None for journal in engine._journals)
        assert [journal.last_seq for journal in engine._journals] == written
        engine.close()  # idempotent


class TestRemoteWorkerLifecycle:
    def test_sigkilled_remote_worker_fails_over_then_respawns_remote(self):
        """The cross-host acceptance scenario: SIGKILL the remote worker
        mid-run, absorb the crash via journal failover (in-process
        degraded mode), then re-adopt a replacement host with
        ``respawn_shard(index, address=...)`` — byte-identical
        emissions throughout."""
        batches = ledger_batches(count=24, batch=6)
        solo = run_solo(batches)
        victim, victim_address = _start_net_worker()
        spare = None
        engine = ShardedEngine(2, workers=[victim_address], timeout=30.0)
        try:
            engine.register_stream(
                "ledger", TagStructure.from_xml(LEDGER_STRUCTURE_XML)
            )
            standing = [
                engine.add_query(source, strategy=Strategy.QAC_PLUS)
                for source in QUERIES
            ]
            engine.tick(NOW)
            ticks = []
            for number, batch in enumerate(batches):
                if number == 1:
                    # SIGKILL the *host process*: the socket dies with no
                    # BYE, exactly like a machine dropping off the rack.
                    victim.kill()
                    victim.join()
                if number == 2:
                    spare, spare_address = _start_net_worker()
                    engine.respawn_shard(0, address=spare_address)
                engine.feed("ledger", batch)
                results = engine.tick(NOW)
                ticks.append([sorted(results[query]) for query in standing])
            stats = engine.stats()
            assert stats["coordinator"]["failovers"] == 1
            assert stats["coordinator"]["respawns"] == 1
            # Back on a remote worker, not stuck in degraded mode.
            assert stats["shards"][0]["kind"] == "net"
            assert stats["shards"][0]["link"]["address"] == spare_address
            assert stats["shards"][1]["kind"] == "pipe"
            assert ticks == solo
        finally:
            engine.close()
            for process in (victim, spare):
                if process is not None:
                    process.terminate()
                    process.join(5)

    def test_respawn_recycles_live_net_link_in_place(self, worker_address):
        """Respawning a healthy net shard reuses the connection (RESPAWN
        frame): the host discards that connection's shard state and the
        journal bootstrap rebuilds it — no reconnect, same link object."""
        batches = ledger_batches(count=18, batch=6)
        solo = run_solo(batches)
        engine = ShardedEngine(
            2, workers=[worker_address, worker_address], timeout=30.0
        )
        try:
            engine.register_stream(
                "ledger", TagStructure.from_xml(LEDGER_STRUCTURE_XML)
            )
            standing = [
                engine.add_query(source, strategy=Strategy.QAC_PLUS)
                for source in QUERIES
            ]
            engine.tick(NOW)
            recycled = engine._shards[0]
            ticks = []
            for number, batch in enumerate(batches):
                if number == 1:
                    engine.respawn_shard(0)
                engine.feed("ledger", batch)
                results = engine.tick(NOW)
                ticks.append([sorted(results[query]) for query in standing])
            stats = engine.stats()
            assert stats["coordinator"]["respawns"] == 1
            assert engine._shards[0] is recycled  # recycled, not rebuilt
            assert [s["kind"] for s in stats["shards"]] == ["net", "net"]
            assert ticks == solo
        finally:
            engine.close()

    def test_v1_only_host_is_refused_by_the_link(self, worker_address,
                                                 monkeypatch):
        """A host that negotiates v1 has no WORKER frames to offer: the
        link says BYE and raises ShardFailure so the coordinator can fail
        over instead of wedging.  (Downgrading our *offer* to v1 makes
        the real host negotiate v1 — same wire outcome as an old host.)"""
        monkeypatch.setattr(proto, "PROTOCOL_VERSIONS", (1,))
        with pytest.raises(ShardFailure, match="needs v2"):
            NetLink(worker_address, {}, timeout=10.0)

    def test_unreachable_worker_fails_fast(self):
        with pytest.raises(ShardFailure, match="cannot reach"):
            NetLink("127.0.0.1:9", {}, timeout=2.0)
        with pytest.raises(ValueError, match="bad worker address"):
            NetLink("127.0.0.1:not-a-port", {}, timeout=2.0)

    def test_more_addresses_than_shards_rejected(self):
        with pytest.raises(ValueError, match="worker addresses"):
            ShardedEngine(1, workers=["a:1", "b:2"])


class TestClearingHouse:
    def test_channel_subscriber_ingest(self):
        structure_xml = LEDGER_STRUCTURE_XML.strip()
        engine = ShardedEngine(2, in_process=True)
        try:
            channel = Channel()
            channel.subscribe(engine.deliver)
            channel.publish(Message(TAG_STRUCTURE, "ledger", structure_xml))
            query = engine.add_query(QUERIES[0], strategy=Strategy.QAC_PLUS)
            engine.tick(NOW)
            for filler in [txn_filler(1, 90), txn_filler(2, 10)]:
                channel.publish(Message(FILLER, "ledger", filler.to_xml()))
            assert engine.tick(NOW)[query] == ["<hi>90</hi>"]
        finally:
            engine.close()

    def test_attached_lossy_channel_counters_surface_in_stats(self):
        """Satellite fix: drop/duplication tallies of a lossy feed are
        observable at the coordinator's front door, not only on the
        channel object someone happens to hold."""
        from repro.streams.transport import LossyChannel

        engine = ShardedEngine(2, in_process=True)
        try:
            # Register the schema out of band so a dropped announcement
            # cannot wedge ingest; the lossy feed carries only fillers.
            engine.register_stream(
                "ledger", TagStructure.from_xml(LEDGER_STRUCTURE_XML)
            )
            channel = LossyChannel(loss_rate=0.4, duplicate_rate=0.2, seed=11)
            engine.attach_channel(channel)
            for i in range(50):
                channel.publish(
                    Message(FILLER, "ledger", txn_filler(i, 60).to_xml())
                )
            stats = engine.stats()
            (entry,) = stats["channels"]
            assert entry["kind"] == "lossy"
            assert entry["dropped"] > 0
            assert entry["duplicated"] > 0
            delivered = stats["coordinator"]["delivered"]
            assert delivered[FILLER] == entry["delivered"] + entry["duplicated"]
            assert delivered[TAG_STRUCTURE] == 0
        finally:
            engine.close()

    def test_stats_shape(self):
        batches = ledger_batches(count=12, batch=6)
        _, stats = run_sharded(batches, 2)
        assert {"shards", "coordinator", "watermarks"} <= set(stats)
        assert {"links", "delivered", "timings"} <= set(stats["coordinator"])
        assert {"post", "wait", "merge"} <= set(stats["coordinator"]["timings"])
        assert stats["channels"] == []
        for shard in stats["shards"]:
            assert {"engine", "scheduler", "queries", "kind", "link"} <= set(
                shard
            )
            assert shard["link"]["kind"] == shard["kind"]
            # The merged automaton-host view travels with scheduler stats.
            assert "host" in shard["scheduler"]["automata"]


MIXED_STRUCTURE_XML = """
<stream:structure>
  <tag type="snapshot" id="1" name="log">
    <tag type="event" id="2" name="txn">
      <tag type="snapshot" id="4" name="amount"/>
    </tag>
    <tag type="temporal" id="3" name="limit"/>
  </tag>
</stream:structure>
"""


def limit_filler(filler_id: int, hour: int, value: int) -> Filler:
    content = Element("limit")
    content.append(Text(str(value)))
    return Filler(
        filler_id=filler_id,
        tsid=3,
        valid_time=XSDateTime.parse(f"2003-01-01T{hour:02d}:00:00"),
        content=content,
    )


class TestCoordinatorState:
    """What the coordinator keeps per envelope, and what a re-version costs it."""

    def _engine(self):
        engine = ShardedEngine(2, in_process=True)
        engine.register_stream("log", TagStructure.from_xml(MIXED_STRUCTURE_XML))
        return engine

    def test_event_envelopes_leave_no_version_counts(self):
        engine = self._engine()
        try:
            engine.add_query(
                'for $t in stream("log")//txn where $t/amount > 50 '
                "return <hit>{$t/amount/text()}</hit>"
            )
            engine.tick(NOW)

            def sizes() -> dict:
                return {
                    name: len(value)
                    for name, value in vars(engine).items()
                    if isinstance(value, (dict, set, list))
                }

            before = sizes()
            engine.feed("log", [txn_filler(i, 60) for i in range(40)])
            engine.feed_raw(
                "log", [txn_filler(i, 60).to_xml() for i in range(40, 80)]
            )
            engine.feed("log", [limit_filler(7, hour, 80) for hour in (1, 2, 3)])
            engine.tick(NOW)
            after = sizes()
            # The shard pins are the one table that grows with the fragments
            # seen; there is no per-fragment version ledger beside them.
            assert not hasattr(engine, "_version_counts")
            assert {name for name in after if after[name] > before[name]} == {"_homes"}
            assert after["_homes"] == before["_homes"] + 81
        finally:
            engine.close()

    def test_temporal_reversion_still_forces_the_supersede_wake(self):
        source = 'for $l in stream("log")//limit where $l > 50 return $l'
        solo = XCQLEngine()
        solo.register_stream("log", TagStructure.from_xml(MIXED_STRUCTURE_XML))
        engine = self._engine()
        try:
            query = engine.add_query(source)
            engine.tick(NOW)
            merged: list = []
            query.subscribe(merged.extend)
            for filler in (limit_filler(7, 1, 80), limit_filler(7, 2, 10)):
                # 10 fails "> 50", but it closes version 80's open vtTo: the
                # shard holding fragment 7 is polled and re-runs in full.
                polls = engine.stats()["coordinator"]["shard_polls"]
                engine.feed("log", [filler])
                solo.feed("log", [filler])
                engine.tick(NOW)
                assert engine.stats()["coordinator"]["shard_polls"] == polls + 1
            assert any('vtTo="now"' in item for item in merged)
            assert any('vtTo="2003-01-01T02:00:00"' in item for item in merged)
            assert merged[-1:] == [
                item_identity(item)
                for item in solo.execute(source, Strategy.QAC_PLUS, now=NOW)
            ]
            full_runs = sum(
                shard["scheduler"]["full_runs"] for shard in engine.stats()["shards"]
            )
            assert full_runs == 2 + 1  # one baseline per shard, one re-version
        finally:
            engine.close()


class TestLinkContract:
    @pytest.mark.parametrize("link", LINKS)
    def test_auto_drain_keeps_replies_and_holds_errors(self, link, worker_address):
        """``post`` reads replies early past 512 pending commands; ``sync``
        still returns one reply per posted command, and a command error in
        that early-read prefix is raised by ``sync``, not by a later post."""
        engine = ShardedEngine(1, **link_kwargs(link, 1, worker_address))
        try:
            shard = engine._shards[0]
            shard.sync()
            for qid in range(600):
                shard.post(("remove_query", qid))
            assert shard.sync() == [False] * 600
            shard.post(("feed_raw", "nope", [txn_filler(1, 1).to_xml()]))
            for qid in range(600):
                shard.post(("remove_query", qid))
            with pytest.raises(ShardCommandError, match="nope"):
                shard.sync()
            assert shard.request(("remove_query", 1)) is False  # still usable
        finally:
            engine.close()


_AMOUNTS = st.lists(st.integers(0, 99), min_size=1, max_size=5)
_STEPS = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["feed", "feed_raw"]), _AMOUNTS),
        st.tuples(st.just("add"), st.integers(0, len(QUERIES) - 1)),
        st.tuples(st.just("remove"), st.integers(0, 7)),
        st.tuples(st.just("tick"), st.none()),
    ),
    min_size=1,
    max_size=10,
)


class TestSchedulesAgreeAcrossLinks:
    """Whatever the schedule, every link kind merges what one process emits."""

    @given(
        first=st.integers(0, len(QUERIES) - 1),
        steps=_STEPS,
        kill_at=st.integers(0, 10),
        respawn_after=st.integers(0, 10),
        victim=st.integers(0, 1),
    )
    @settings(deadline=None, max_examples=max(1, settings.default.max_examples // 4))
    def test_per_tick_emissions_identical(
        self, worker_address, first, steps, kill_at, respawn_after, victim
    ):
        steps = [("add", first), *steps, ("tick", None)]
        # The kill always lands inside the schedule; the respawn may not.
        kill_at %= len(steps)
        solo = XCQLEngine()
        solo.register_stream("ledger", TagStructure.from_xml(LEDGER_STRUCTURE_XML))
        scheduler = QueryScheduler(solo)
        arms = [
            ShardedEngine(2, **link_kwargs(link, 2, worker_address)) for link in LINKS
        ]
        try:
            for arm in arms:
                arm.register_stream("ledger", TagStructure.from_xml(LEDGER_STRUCTURE_XML))
            standing: list = []  # (solo query, one handle per arm)
            fed = 0
            for number, (kind, value) in enumerate(steps):
                if number == kill_at:
                    # SIGKILL a pipe worker mid-schedule: the next command
                    # to reach it fails over to a journal-replayed shard.
                    arms[1]._shards[victim].process.kill()
                    arms[1]._shards[victim].process.join(5)
                if number == kill_at + respawn_after:
                    for arm in arms:
                        arm.respawn_shard(victim)
                if kind in ("feed", "feed_raw"):
                    batch = [txn_filler(fed + i, amount) for i, amount in enumerate(value)]
                    fed += len(batch)
                    if kind == "feed":
                        solo.feed("ledger", batch)
                        for arm in arms:
                            arm.feed("ledger", batch)
                    else:
                        wire = [filler.to_xml() for filler in batch]
                        solo.feed_raw("ledger", wire)
                        for arm in arms:
                            arm.feed_raw("ledger", wire)
                elif kind == "add":
                    query = ContinuousQuery(
                        solo, QUERIES[value], strategy=Strategy.QAC_PLUS
                    )
                    scheduler.add(query)
                    standing.append(
                        (query, [arm.add_query(QUERIES[value]) for arm in arms])
                    )
                elif kind == "remove" and standing:
                    query, handles = standing.pop(value % len(standing))
                    scheduler.remove(query)
                    for arm, handle in zip(arms, handles):
                        assert arm.remove_query(handle)
                elif kind == "tick":
                    emitted = scheduler.poll(NOW)
                    merged = [arm.tick(NOW) for arm in arms]
                    for query, handles in standing:
                        expected = sorted(
                            item_identity(item) for item in emitted.get(query, [])
                        )
                        per_link = [out[h] for out, h in zip(merged, handles)]
                        assert per_link[1] == per_link[0]
                        assert per_link[2] == per_link[0]
                        assert sorted(per_link[0]) == expected
            respawned = kill_at + respawn_after < len(steps)
            links = [arm.stats()["coordinator"]["links"][victim] for arm in arms]
            assert links == (LINKS if respawned else ["inproc", "inproc", "net"])
        finally:
            for arm in arms:
                arm.close()
