"""Ablation A15: the sharded engine over cross-host links (PR 9).

A13 established the sharded engine's modeled per-tick critical path —
coordinator post + merge plus the slowest shard's CPU — with mp-pipe
worker processes.  This ablation swaps the transport: the same 4-shard /
64-query dense-wake workload runs over :class:`NetLink` against a real
``run_worker`` host speaking protocol v2 (DISPATCH/POLL frames, JSON
headers, length-prefixed framing), and must not regress the critical
path that made sharding worthwhile in the first place.

Three reported quantities:

- ``modeled_s`` per arm — the A13 critical-path model, comparable
  across transports because each worker measures its own poll CPU and
  reports it in the POLL_REPLY;
- ``frames_per_dispatch`` — wire efficiency of the v2 WORKER role: one
  command, one frame, regardless of batch size (the payload rides the
  DISPATCH header, not per-entry frames);
- ``narrowing_ratio`` — the predicate-narrowed CATCHUP satellite:
  fraction of journal entries a predicate subscriber's replay skips
  server-side instead of shipping and discarding client-side.

Acceptance: net-arm emissions byte-identical to the pipe arm's per
tick; net-arm modeled critical path still beats solo and stays within a
small factor of the pipe arm's (the delta is JSON header encode/decode);
narrowing ratio > 0 with replayed + skipped covering the journal.
Results are written to ``BENCH_crosshost.json`` at the repo root.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import os
import time
from pathlib import Path
from statistics import median

import pytest

from repro.core.optimizer import RoutingPredicate
from repro.fragments.model import Filler
from repro.fragments.persist import Journal
from repro.streams.net import StreamClient, StreamServer, Subscription
from repro.streams.sharding import ShardedEngine
from repro.streams.transport import FILLER, TAG_STRUCTURE, Message

from .conftest import bench_scale
from .test_ablation_sharding import (
    _STRUCTURE_XML,
    AMOUNT_RANGE,
    N_QUERIES,
    N_SHARDS,
    ShardedWorkload,
    _cores,
)

_REPO_ROOT = Path(__file__).resolve().parents[1]
_JSON_PATH = _REPO_ROOT / "BENCH_crosshost.json"


def _merge_report(section: str, payload: dict) -> None:
    """Fold one section into BENCH_crosshost.json (tests may run alone)."""
    report = {"ablation": "A15", "scale": bench_scale()}
    if _JSON_PATH.exists():
        try:
            report = json.loads(_JSON_PATH.read_text(encoding="utf-8"))
        except ValueError:
            pass
    report[section] = payload
    _JSON_PATH.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")


def _worker_entry(conn):  # child process: a real protocol-v2 worker host
    from repro.streams.net import run_worker

    run_worker(port=0, ready=conn.send)


@pytest.fixture(scope="module")
def worker_address():
    context = multiprocessing.get_context()
    parent, child = context.Pipe()
    process = context.Process(target=_worker_entry, args=(child,), daemon=True)
    process.start()
    child.close()
    if not parent.poll(30):
        process.terminate()
        pytest.fail("worker host never reported its port")
    port = parent.recv()
    parent.close()
    yield f"127.0.0.1:{port}"
    process.terminate()
    process.join(5)


@pytest.fixture(scope="module")
def workload() -> ShardedWorkload:
    return ShardedWorkload(bench_scale(), ticks=8)


def test_crosshost_critical_path(benchmark, workload, worker_address):
    """mp-pipe vs netproto at 4 shards / 64 queries: byte-identical
    emissions, no critical-path regression, one frame per command."""
    pipe_engine, pipe_queries = workload.sharded_arm(shards=N_SHARDS)
    net_engine, net_queries = workload.sharded_arm(
        shards=N_SHARDS, workers=[worker_address] * N_SHARDS
    )
    try:
        def measure() -> dict:
            pipe_engine.tick(workload.now)
            net_engine.tick(workload.now)
            pipe_times: list[float] = []
            net_times: list[float] = []
            pipe_walls: list[float] = []
            net_walls: list[float] = []
            for tick in range(workload.ticks):
                batch = workload.tick_fillers(tick)
                pipe_engine.feed("ledger", [
                    Filler(f.filler_id, f.tsid, f.valid_time, f.content.copy())
                    for f in batch
                ])
                net_engine.feed("ledger", batch)
                arms = ["pipe", "net"]
                if tick % 2:
                    arms.reverse()
                for arm in arms:
                    engine = pipe_engine if arm == "pipe" else net_engine
                    started = time.perf_counter()
                    emitted = engine.tick(workload.now)
                    wall = time.perf_counter() - started
                    timing = engine.last_tick_timing
                    modeled = (
                        timing["post"] + timing["merge"]
                        + max(timing["shard_cpu"].values(), default=0.0)
                    )
                    if arm == "pipe":
                        pipe_emitted = emitted
                        pipe_times.append(modeled)
                        pipe_walls.append(wall)
                    else:
                        net_emitted = emitted
                        net_times.append(modeled)
                        net_walls.append(wall)
                for pipe_q, net_q in zip(pipe_queries, net_queries):
                    assert sorted(net_emitted[net_q]) == sorted(
                        pipe_emitted[pipe_q]
                    ), pipe_q.source
            return {
                "pipe_modeled": median(pipe_times),
                "net_modeled": median(net_times),
                "pipe_wall": median(pipe_walls),
                "net_wall": median(net_walls),
            }

        timings = benchmark.pedantic(measure, rounds=1, iterations=1)
        pipe_stats = pipe_engine.stats()
        net_stats = net_engine.stats()
    finally:
        pipe_engine.close()
        net_engine.close()

    links = [shard["link"] for shard in net_stats["shards"]]
    commands = sum(l["dispatches"] + l["polls"] for l in links)
    frames = sum(l["frames_sent"] for l in links)
    frames_per_dispatch = frames / max(1, commands)
    transport_factor = timings["net_modeled"] / timings["pipe_modeled"]
    benchmark.extra_info["transport_factor"] = round(transport_factor, 2)
    benchmark.extra_info["frames_per_dispatch"] = round(frames_per_dispatch, 3)

    # Solo reference from the same workload, for the A13 regression bar.
    solo_engine, solo_sched, _ = workload.solo_arm()
    solo_sched.poll(workload.now)
    solo_times = []
    for tick in range(workload.ticks):
        solo_engine.feed("ledger", workload.tick_fillers(tick))
        started = time.perf_counter()
        solo_sched.poll(workload.now)
        solo_times.append(time.perf_counter() - started)
    solo = median(solo_times)

    _merge_report("critical_path", {
        "cores": _cores(),
        "shards": N_SHARDS,
        "standing_queries": workload.queries,
        "ticks": workload.ticks,
        "arrivals_per_tick": workload.batch,
        "per_tick": {
            "solo_s": solo,
            "pipe_modeled_s": timings["pipe_modeled"],
            "net_modeled_s": timings["net_modeled"],
            "pipe_wall_s": timings["pipe_wall"],
            "net_wall_s": timings["net_wall"],
            "transport_factor": round(transport_factor, 2),
        },
        "wire": {
            "frames_per_dispatch": round(frames_per_dispatch, 3),
            "dispatches": sum(l["dispatches"] for l in links),
            "polls": sum(l["polls"] for l in links),
            "bytes_sent": sum(l["bytes_sent"] for l in links),
            "bytes_received": sum(l["bytes_received"] for l in links),
        },
        "coordinator": {
            "pipe": {
                key: pipe_stats["coordinator"][key]
                for key in ("dispatch_wakes", "dispatch_skips", "shard_polls")
            },
            "net": {
                key: net_stats["coordinator"][key]
                for key in ("dispatch_wakes", "dispatch_skips", "shard_polls")
            },
        },
    })

    # The WORKER role pays one frame per command — batching rides inside
    # the DISPATCH header, so wire chatter does not scale with batch size.
    assert frames_per_dispatch <= 1.1, frames_per_dispatch
    # No regression of the A13 story: the critical path over the network
    # transport still beats the solo scheduler...
    assert timings["net_modeled"] < solo, (timings, solo)
    # ...and stays in the pipe arm's neighborhood.  The allowance is
    # deliberately loose for one-core CI: the JSON header encode/decode
    # both arms' workers do is time-sliced differently under load.
    assert transport_factor <= 3.0, (timings, transport_factor)


def test_catchup_narrowing_ratio(workload, tmp_path):
    """Predicate-narrowed CATCHUP over the A15 journal: the server-side
    skip covers the whole journal and actually narrows the replay."""
    threshold = AMOUNT_RANGE - AMOUNT_RANGE // 4  # top quartile matches
    predicate = RoutingPredicate(
        tuple_tag="txn",
        path=("amount",),
        attribute=None,
        text_only=False,
        op=">",
        value=float(threshold),
        numeric=True,
    )
    fillers = workload.preload_fillers()

    async def scenario() -> dict:
        journal = Journal(os.path.join(str(tmp_path), "crosshost.journal"))
        server = StreamServer(journal=journal)
        await server.start()
        await server.publish(
            Message(TAG_STRUCTURE, "ledger", _STRUCTURE_XML.strip())
        )
        for filler in fillers:
            await server.publish(Message(FILLER, "ledger", filler.to_xml()))
        got = []
        client = StreamClient(
            "127.0.0.1", server.port, on_message=got.append
        )
        await client.connect()
        await client.subscribe(
            [Subscription("ledger", tsid=2, predicate=predicate)],
            catchup=True,
        )
        ack = await asyncio.wait_for(client.catchup(after=0), 30)
        await client.close()
        await server.close()
        return {"ack": ack, "received": len(got)}

    outcome = asyncio.run(scenario())
    ack = outcome["ack"]
    replayed, skipped = ack["replayed"], ack["skipped"]
    ratio = skipped / max(1, replayed + skipped)
    # structure + every filler was considered exactly once.
    assert replayed + skipped == len(fillers) + 1
    matching = sum(
        1 for f in fillers
        if float(f.content.first("amount").string_value()) > threshold
    )
    assert replayed == matching + 1  # + the structure announcement
    assert skipped == len(fillers) - matching
    assert ratio > 0.25, ratio

    _merge_report("catchup_narrowing", {
        "journal_entries": len(fillers) + 1,
        "replayed": replayed,
        "skipped": skipped,
        "narrowing_ratio": round(ratio, 3),
        "predicate": f"amount > {threshold}",
    })
