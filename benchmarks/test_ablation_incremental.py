"""Ablation A10: incremental (delta) vs. full continuous-query evaluation.

After PR 1/PR 2 a non-skipped poll tick still re-ran the whole compiled
plan over the whole FragmentStore, even when a single filler arrived.
PR 3 adds store watermarks plus a delta driver: delta-safe standing
queries evaluate only the fillers past their watermark and append to the
retained result, so the per-tick cost tracks the arrival batch instead of
the store size.

This ablation replays the same arrival sequence against two identical
engines — one standing query incremental, one full-scan — and measures
the per-tick evaluation latency of each after a warm baseline.  The
acceptance bar: >= 3x per tick at scale 0.01 (the gap widens with store
size; the delta path is O(batch), the full path O(history)).

Results are written to ``BENCH_incremental.json`` at the repo root so the
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
_JSON_PATH = _REPO_ROOT / "BENCH_incremental.json"

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

QUERY = (
    'for $t in stream("ledger")//txn where $t/amount > 50 '
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


class IncrementalWorkload:
    """One event stream, one delta-safe standing query, many small ticks."""

    def __init__(self, scale: float, preload: int | None = None, ticks: int = 40):
        self.scale = scale
        self.preload = preload if preload is not None else max(200, int(20000 * scale))
        self.ticks = ticks
        self.batch = 2
        self.now = _stamp(10_000_000)

    def preload_fillers(self) -> list[Filler]:
        return [
            _txn(i + 1, i, 40 + (i % 100)) for i in range(self.preload)
        ]

    def tick_fillers(self, tick: int) -> list[Filler]:
        base_id = self.preload + 1 + tick * self.batch
        base_minute = self.preload + 10 + tick * self.batch
        return [
            _txn(base_id + j, base_minute + j, 45 + ((tick + j) % 20))
            for j in range(self.batch)
        ]

    def engine(self) -> XCQLEngine:
        engine = XCQLEngine(default_now=self.now)
        engine.register_stream("ledger", _STRUCTURE)
        engine.feed("ledger", self.preload_fillers())
        return engine

    def standing_query(self, engine: XCQLEngine, incremental: bool,
                       backend: str | None = None) -> ContinuousQuery:
        return ContinuousQuery(
            engine,
            QUERY,
            strategy=Strategy.QAC_PLUS,
            incremental=incremental,
            backend=backend,
        )


@pytest.fixture(scope="module")
def workload() -> IncrementalWorkload:
    return IncrementalWorkload(bench_scale())


def test_results_agree(workload):
    """Delta, full-compiled and interpreted answers are byte-identical.

    In-order fresh-id arrivals keep even the list order identical, so the
    check is exact, not just multiset equality.
    """
    small = IncrementalWorkload(workload.scale, preload=max(40, workload.preload // 8),
                                ticks=10)
    engines = [small.engine(), small.engine(), small.engine()]
    incremental = small.standing_query(engines[0], incremental=True)
    full = small.standing_query(engines[1], incremental=False)
    interpreted = small.standing_query(engines[2], incremental=False,
                                       backend="interpreted")
    for tick in range(small.ticks):
        batch = small.tick_fillers(tick)
        for engine in engines:
            engine.feed("ledger", [
                Filler(f.filler_id, f.tsid, f.valid_time, f.content.copy())
                for f in batch
            ])
        incremental.evaluate(small.now)
        full.evaluate(small.now)
    interpreted.evaluate(small.now)
    reference = [serialize(i) for i in interpreted.last_result]
    assert [serialize(i) for i in incremental.last_result] == reference
    assert [serialize(i) for i in full.last_result] == reference
    assert reference  # never vacuous
    assert incremental.delta_runs == small.ticks - 1
    assert incremental.full_runs == 1


def test_delta_path_engages_under_scheduler(workload):
    small = IncrementalWorkload(workload.scale, preload=40, ticks=4)
    engine = small.engine()
    # Routing off: this ablation pins a group of one; with the PR-4
    # routing index the early non-matching ticks would be skipped outright
    # (measured by A11) instead of exercising incremental runs.
    scheduler = QueryScheduler(engine, routing=False)
    query = small.standing_query(engine, incremental=True)
    scheduler.add(query)
    scheduler.poll(small.now)  # baseline: full
    for tick in range(small.ticks):
        engine.feed("ledger", small.tick_fillers(tick))
        scheduler.poll(small.now)
    scheduler.poll(small.now)  # no arrivals: skip
    stats = scheduler.stats()
    assert stats["full_runs"] == 1
    assert stats["shared_runs"] == small.ticks  # scheduled incremental runs
    assert stats["skips"] == 1
    assert engine.prepare_incremental(query.compiled) is not None


def test_incremental_speedup(benchmark, workload):
    """The headline: >= 3x per-tick latency, full vs. delta, at scale 0.01.

    Also writes ``BENCH_incremental.json`` at the repo root.
    """
    engine_delta = workload.engine()
    engine_full = workload.engine()
    incremental = workload.standing_query(engine_delta, incremental=True)
    full = workload.standing_query(engine_full, incremental=False)

    def measure() -> dict:
        # Baseline evaluation (both full) before any timed tick.
        incremental.evaluate(workload.now)
        full.evaluate(workload.now)
        delta_times: list[float] = []
        full_times: list[float] = []
        for tick in range(workload.ticks):
            batch = workload.tick_fillers(tick)
            engine_delta.feed("ledger", [
                Filler(f.filler_id, f.tsid, f.valid_time, f.content.copy())
                for f in batch
            ])
            engine_full.feed("ledger", batch)
            # Alternate who goes first so drift hits both equally.
            contenders = [
                (incremental, delta_times), (full, full_times)
            ]
            if tick % 2:
                contenders.reverse()
            for query, times in contenders:
                started = time.perf_counter()
                query.evaluate(workload.now)
                times.append(time.perf_counter() - started)
        return {"delta": median(delta_times), "full": median(full_times)}

    timings = benchmark.pedantic(measure, rounds=1, iterations=1)
    assert incremental.delta_runs == workload.ticks
    assert incremental.full_runs == 1
    reference = sorted(serialize(i) for i in full.last_result)
    assert sorted(serialize(i) for i in incremental.last_result) == reference

    speedup = timings["full"] / timings["delta"]
    benchmark.extra_info["per_tick_speedup"] = round(speedup, 2)
    report = {
        "ablation": "A10",
        "scale": workload.scale,
        "preloaded_fillers": workload.preload,
        "ticks": workload.ticks,
        "arrivals_per_tick": workload.batch,
        "per_tick": {
            "full_s": timings["full"],
            "delta_s": timings["delta"],
            "speedup": round(speedup, 2),
        },
    }
    _JSON_PATH.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")

    assert timings["delta"] < timings["full"], f"delta slower than full ({timings})"
    if bench_scale() >= 0.01:
        # The bar holds once store size dominates; tiny smoke scales are
        # dominated by fixed per-evaluation costs.
        assert speedup >= 3.0, f"only {speedup:.2f}x per tick ({timings})"
