"""Ablation A11: shared multi-query evaluation + the group predicate index.

The target workload is many standing queries over one stream (paper §2,
§7).  After PR 3 every non-skipped poll tick still ran each query's own
delta scan: cost O(queries x arrival batch).  Same-prefix delta-safe
queries are grouped so one shared scan per tick materializes the binding
tuples for every member, and the group's tuple index decides each
member's leading predicate once per tuple, handing a member only the
tuples its literal accepts.

This ablation replays one arrival sequence against two identical engines
carrying the same 64 standing queries (`where $t/amount > K` for spread
thresholds, a selective workload): one scheduler with grouping + routing
enabled, one with both disabled (the PR-3 baseline).  A tick is timed
from ``feed`` to the end of ``poll`` — ingest wakes are part of what a
tick costs.  The acceptance bar at scale 0.01: >= 5x median per-tick
latency, and the index must prune >= 50% of the tuple x member pairs.

Results are written to ``BENCH_shared_eval.json`` at the repo root so the
perf trajectory stays machine-readable across PRs.
"""

from __future__ import annotations

import json
import time
from datetime import datetime, timedelta
from pathlib import Path
from statistics import median

import pytest

from repro import Strategy, TagStructure, XCQLEngine
from repro.dom import parse_document
from repro.dom.serializer import serialize
from repro.fragments.model import Filler
from repro.streams.continuous import ContinuousQuery
from repro.streams.scheduler import QueryScheduler
from repro.temporal import XSDateTime

from .conftest import bench_scale

_REPO_ROOT = Path(__file__).resolve().parents[1]
_JSON_PATH = _REPO_ROOT / "BENCH_shared_eval.json"

_STRUCTURE = TagStructure.from_xml(
    """
    <stream:structure>
      <tag type="snapshot" id="1" name="ledger">
        <tag type="event" id="2" name="txn">
          <tag type="snapshot" id="3" name="amount"/>
        </tag>
      </tag>
    </stream:structure>
    """
)

_BASE = datetime(2000, 1, 1)

N_QUERIES = 64
AMOUNT_RANGE = 128  # arriving amounts are in [0, AMOUNT_RANGE)


def _query(threshold: int) -> str:
    return (
        f'for $t in stream("ledger")//txn where $t/amount > {threshold} '
        "return <flag>{$t/amount/text()}</flag>"
    )


def _stamp(minutes: float) -> XSDateTime:
    return XSDateTime.parse(
        (_BASE + timedelta(minutes=minutes)).strftime("%Y-%m-%dT%H:%M:%S")
    )


def _txn(filler_id: int, minutes: float, amount: int) -> Filler:
    content = parse_document(
        f'<txn seq="{filler_id}"><amount>{amount}</amount></txn>'
    ).document_element
    return Filler(filler_id, 2, _stamp(minutes), content)


class SharedWorkload:
    """One event stream, 64 standing threshold queries, many small ticks.

    Thresholds are spread over 10x the arriving amount range, so most
    queries can never match an arriving batch — the regime the group
    predicate index exists for (selective standing alerts over a busy
    stream).
    """

    def __init__(self, scale: float, preload: int | None = None, ticks: int = 30,
                 queries: int = N_QUERIES):
        self.scale = scale
        self.preload = preload if preload is not None else max(100, int(10000 * scale))
        self.ticks = ticks
        self.batch = 16
        self.queries = queries
        self.now = _stamp(10_000_000)

    def sources(self) -> list[str]:
        # Selective standing alerts: thresholds start above the median
        # arriving amount and most lie beyond the amount range entirely,
        # so a typical batch concerns only a handful of queries.
        step = (AMOUNT_RANGE * 10) // self.queries
        floor = AMOUNT_RANGE // 2
        return [_query(floor + i * step) for i in range(self.queries)]

    def preload_fillers(self) -> list[Filler]:
        return [
            _txn(i + 1, i, (i * 37) % AMOUNT_RANGE) for i in range(self.preload)
        ]

    def tick_fillers(self, tick: int) -> list[Filler]:
        base_id = self.preload + 1 + tick * self.batch
        base_minute = self.preload + 10 + tick * self.batch
        return [
            _txn(base_id + j, base_minute + j,
                 (tick * 31 + j * 17) % AMOUNT_RANGE)
            for j in range(self.batch)
        ]

    def engine(self) -> XCQLEngine:
        engine = XCQLEngine(default_now=self.now)
        engine.register_stream("ledger", _STRUCTURE)
        engine.feed("ledger", self.preload_fillers())
        return engine

    def arm(self, share: bool) -> tuple[XCQLEngine, QueryScheduler, list[ContinuousQuery]]:
        engine = self.engine()
        scheduler = QueryScheduler(engine, share_groups=share, routing=share)
        queries = []
        for source in self.sources():
            query = ContinuousQuery(engine, source, strategy=Strategy.QAC_PLUS)
            scheduler.add(query)
            queries.append(query)
        return engine, scheduler, queries


@pytest.fixture(scope="module")
def workload() -> SharedWorkload:
    return SharedWorkload(bench_scale())


def test_results_agree(workload):
    """Shared+routed answers are byte-identical to the solo baseline."""
    small = SharedWorkload(workload.scale, preload=max(40, workload.preload // 4),
                           ticks=8, queries=16)
    shared_engine, shared_sched, shared_queries = small.arm(share=True)
    solo_engine, solo_sched, solo_queries = small.arm(share=False)
    shared_sched.poll(small.now)
    solo_sched.poll(small.now)
    for tick in range(small.ticks):
        batch = small.tick_fillers(tick)
        shared_engine.feed("ledger", [
            Filler(f.filler_id, f.tsid, f.valid_time, f.content.copy())
            for f in batch
        ])
        solo_engine.feed("ledger", batch)
        shared_sched.poll(small.now)
        solo_sched.poll(small.now)
        for shared_q, solo_q in zip(shared_queries, solo_queries):
            assert sorted(serialize(i) for i in shared_q.last_result) == sorted(
                serialize(i) for i in solo_q.last_result
            ), shared_q.source
    stats = shared_sched.stats()
    assert stats["shared_runs"] > 0
    assert stats["routing"]["tuples_pruned"] > 0
    assert any(size >= 2 for size in stats["groups"].values())


def test_group_registration(workload):
    small = SharedWorkload(workload.scale, preload=20, ticks=0, queries=8)
    _, scheduler, _ = small.arm(share=True)
    stats = scheduler.stats()
    assert list(stats["groups"].values()) == [small.queries]
    assert stats["routing"]["registered"] == small.queries


def test_shared_speedup(benchmark, workload):
    """The headline: >= 5x per-tick (feed + poll) latency, solo vs. shared,
    at scale 0.01, with the tuple index pruning >= 50% of tuple x member pairs.

    Also writes ``BENCH_shared_eval.json`` at the repo root.
    """
    shared_engine, shared_sched, shared_queries = workload.arm(share=True)
    solo_engine, solo_sched, solo_queries = workload.arm(share=False)

    def measure() -> dict:
        shared_sched.poll(workload.now)  # baseline: full runs
        solo_sched.poll(workload.now)
        shared_times: list[float] = []
        solo_times: list[float] = []
        for tick in range(workload.ticks):
            batch = workload.tick_fillers(tick)
            copies = [
                Filler(f.filler_id, f.tsid, f.valid_time, f.content.copy())
                for f in batch
            ]
            # Alternate who goes first so drift hits both equally.
            contenders = [
                (shared_engine, shared_sched, copies, shared_times),
                (solo_engine, solo_sched, batch, solo_times),
            ]
            if tick % 2:
                contenders.reverse()
            for engine, scheduler, fillers, times in contenders:
                started = time.perf_counter()
                engine.feed("ledger", fillers)
                scheduler.poll(workload.now)
                times.append(time.perf_counter() - started)
        return {"shared": median(shared_times), "solo": median(solo_times)}

    timings = benchmark.pedantic(measure, rounds=1, iterations=1)
    for shared_q, solo_q in zip(shared_queries, solo_queries):
        assert sorted(serialize(i) for i in shared_q.last_result) == sorted(
            serialize(i) for i in solo_q.last_result
        ), shared_q.source

    stats = shared_sched.stats()
    pairs = workload.ticks * workload.batch * workload.queries
    pruned = stats["routing"]["tuples_pruned"]
    pruned_share = pruned / pairs
    speedup = timings["solo"] / timings["shared"]
    benchmark.extra_info["per_tick_speedup"] = round(speedup, 2)
    benchmark.extra_info["pruned_share"] = round(pruned_share, 3)
    report = {
        "ablation": "A11",
        "scale": workload.scale,
        "standing_queries": workload.queries,
        "preloaded_fillers": workload.preload,
        "ticks": workload.ticks,
        "arrivals_per_tick": workload.batch,
        "per_tick": {
            "solo_s": timings["solo"],
            "shared_s": timings["shared"],
            "speedup": round(speedup, 2),
        },
        "tuple_index": {
            "tuple_probes": stats["routing"]["tuple_probes"],
            "tuple_member_pairs": pairs,
            "tuples_pruned": pruned,
            "pruned_share": round(pruned_share, 3),
        },
        "shared_residual": stats["shared_residual"],
        "shared_prefix": stats["shared_prefix"],
        "shared_runs": stats["shared_runs"],
        "solo_delta_runs": solo_sched.stats()["shared_runs"],
    }
    _JSON_PATH.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")

    assert timings["shared"] < timings["solo"], f"sharing slower ({timings})"
    assert pruned_share >= 0.5, f"the index pruned only {pruned_share:.1%} of pairs"
    if bench_scale() >= 0.01:
        # Tiny smoke scales are dominated by fixed per-poll costs.
        assert speedup >= 5.0, f"only {speedup:.2f}x per tick ({timings})"
